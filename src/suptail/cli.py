"""Command-line front end: constants, bound curves, covering checks, simulate-verify.

One JSON config per run; unknown keys are rejected before any computation.
Outputs are byte-stable for a fixed config and seed, carry the config hash,
and use LF line endings with '.' decimals in CSV.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from pathlib import Path

from . import growth, heat, sim, supbound
from .entropy import HolderProfile
from .metric import AnisotropicBox, covering_oracle, covering_upper_bound
from .orlicz import PhiFamily


class ConfigError(ValueError):
    """Config file violates the schema."""


# --------------------------------------------------------------------------
# Config handling
# --------------------------------------------------------------------------

_MODEL_KEYS = {"hurst", "rho", "holder_const", "init_sup", "det_const", "alpha"}
_BOX_KEYS = {"a1", "b1", "a2", "b2", "h1", "h2"}
_PROFILE_KEYS = {"scale", "exponent"}
_UGRID_KEYS = {"max", "count"}
_GRID_KEYS = {"nt", "nx"}
# bound-sup keys read only for "field": "generic", which reads no "model"
_GENERIC_KEYS = {"fam", "eps0", "profile"}

# command -> (allowed keys, required keys, allowed model keys); bound-sup also
# needs "model" for the heat fields and "fam", "eps0", "profile" for the
# generic one.  bound-growth and simulate-verify bound V, which reads only
# "hurst"; one bound-sup model block serves both the v and omega fields.
_SCHEMAS = {
    "constants": ({"model"}, {"model"}, _MODEL_KEYS),
    "bound-sup": (
        {"field", "model", "box", "u_grid", "u_auto", "theta", "fam", "eps0", "profile"},
        {"box"},
        _MODEL_KEYS,
    ),
    "bound-growth": (
        {"model", "p", "halfwidth", "u_grid", "series_tol"}, {"model", "u_grid"}, {"hurst"}
    ),
    "covering": ({"box", "eps", "resolution"}, {"box", "eps"}, set()),
    "simulate-verify": (
        {"field", "model", "box", "grid", "samples", "u_grid", "u_auto", "theta", "workers"},
        {"model", "box", "samples"},
        {"hurst"},
    ),
}


def _require_keys(block: dict, allowed: set, where: str, required: set = frozenset()) -> None:
    if not isinstance(block, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = set(block) - allowed
    if unknown:
        raise ConfigError(f"unknown keys {sorted(unknown)} in {where}; allowed: {sorted(allowed)}")
    missing = required - set(block)
    if missing:
        raise ConfigError(f"missing keys {sorted(missing)} in {where}")


def load_config(path: str, command: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        cfg = json.load(fh)
    allowed, required, model_keys = _SCHEMAS[command]
    _require_keys(cfg, allowed, f"config for {command}", required=required)
    if "model" in cfg:
        _require_keys(cfg["model"], model_keys, "model", required={"hurst"})
    if "box" in cfg:
        _require_keys(cfg["box"], _BOX_KEYS, "box", required={"a1", "b1", "a2", "b2"})
    if "profile" in cfg:
        _require_keys(cfg["profile"], _PROFILE_KEYS, "profile", required=_PROFILE_KEYS)
    if isinstance(cfg.get("u_auto"), dict):
        _require_keys(cfg["u_auto"], _UGRID_KEYS, "u_auto")
    if "grid" in cfg:
        _require_keys(cfg["grid"], _GRID_KEYS, "grid")
    if "u_grid" in cfg and "u_auto" in cfg:
        raise ConfigError("'u_grid' and 'u_auto' are exclusive; give one of them")
    return cfg


def config_hash(cfg: dict) -> str:
    """Hash of the semantic config; execution-only keys (worker count) are
    excluded so runs that must produce identical bytes share a hash."""
    semantic = {k: v for k, v in cfg.items() if k != "workers"}
    canonical = json.dumps(semantic, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _model_from(cfg: dict) -> heat.SheModel:
    return heat.SheModel(**cfg["model"])


def _box_from(cfg: dict) -> AnisotropicBox:
    return AnisotropicBox(**cfg["box"])


def _field_box(cfg: dict, kind: str) -> AnisotropicBox:
    """The box of a heat field, whose metric exponents come from the model."""
    replaced = sorted(set(cfg["box"]) & {"h1", "h2"})
    if replaced:
        raise ConfigError(
            f"box keys {replaced} are not read for field {kind!r}; "
            "its metric exponents come from the model"
        )
    return _box_from(cfg)


def _positive_int(value, name: str) -> int:
    """value itself if it is an integer >= 1; fractions are not truncated."""
    if type(value) is not int or value < 1:  # bool is an int subclass
        raise ConfigError(f"{name} must be an integer >= 1, got {value!r}")
    return value


def _number(value, name: str, where: str = "") -> float:
    """value as a float if it is a finite JSON number: an int or a float, not
    a bool or a string.  The error names the key, and ``where`` is appended."""
    if type(value) not in (int, float):
        raise ConfigError(f"{name} must be a number, got {value!r}{where}")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{name} must be finite, got {value!r}{where}")
    return number


def _listed_u(values) -> list[float]:
    """An explicit u_grid: a nonempty, strictly increasing list of finite numbers."""
    us = [_number(value, "u_grid entries", f" at index {i}") for i, value in enumerate(values)]
    if not us:
        raise ConfigError("u_grid must not be empty")
    if any(b <= a for a, b in zip(us, us[1:])):
        raise ConfigError("u_grid must be strictly increasing")
    return us


def _u_grid(cfg: dict, bound: supbound.TailBound) -> list[float]:
    if "u_grid" in cfg and cfg["u_grid"] is not None:
        return _listed_u(cfg["u_grid"])
    auto = cfg.get("u_auto") or {}
    count = _positive_int(auto.get("count", 12), "u_auto 'count'")
    # max multiplies the minimal threshold; above 0.9 the grid increases
    # strictly, as an explicit u_grid must
    span = auto.get("max", 2.0)
    if type(span) not in (int, float) or not 0.9 < span <= sys.float_info.max:
        raise ConfigError(f"u_auto 'max' must be a finite number above 0.9, got {span!r}")
    span = float(span)
    # pad the low end below the minimal threshold so the first entries are invalid
    thr = supbound.min_threshold(bound)
    if not math.isfinite(span * thr):
        raise ConfigError(
            f"u_auto 'max' = {span!r} times the minimal threshold {thr!r} overflows the float range"
        )
    # count evenly spaced fractions from 0.9 to span, rounded as np.linspace
    # rounds them: i * step + 0.9, and span itself last
    step = (span - 0.9) / max(count - 1, 1)
    fracs = [i * step + 0.9 for i in range(count)]
    if count > 1:
        fracs[-1] = span
    # An entry on the threshold would be VALID or INVALID by the last ulp of
    # the constants, so the one within half a step of it moves half a step
    # further away (down from the threshold itself); the first entry stays.
    half = 0.5 * step
    for k in range(1, count):
        dist = fracs[k] - 1.0
        if abs(dist) < half:
            fracs[k] += half if dist > 0.0 else -half
    return [f * thr for f in fracs]


# --------------------------------------------------------------------------
# Output helpers
# --------------------------------------------------------------------------


def _fmt(v) -> str:
    if isinstance(v, float):
        if math.isnan(v):
            return "nan"
        return repr(float(v))  # np.float64 reprs as "np.float64(...)" under numpy 2
    return str(v)


# The writers make the output directory, so a run that fails before its
# first write leaves none.


def write_json(path: Path, payload: dict) -> None:
    # one encode and one write: json.dump would issue a write per token
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def write_csv(path: Path, header: list[str], rows: list[tuple], meta: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# config_hash={meta['config_hash']} seed={meta['seed']}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _meta(cfg: dict, seed) -> dict:
    return {"config_hash": config_hash(cfg), "seed": seed}


# --------------------------------------------------------------------------
# Subcommands
# --------------------------------------------------------------------------


def cmd_constants(cfg: dict, out: Path, seed, fmt: str) -> int:
    model = _model_from(cfg)
    meta = _meta(cfg, seed)
    payload = {
        "constants": model.constants(),
        "provenance": {
            "notes": [
                "variance_coefficient is the exact spectral time-integral "
                "Gamma(1-H) 2^(H-1) / H, so the variance identity holds",
                "time_increment_coefficient is Gamma(1-H) (2 - 2^H) / (2H)",
                "tail bounds use the subtracted entropy term in the exponent "
                "argument and are clamped to [0, 1]",
            ],
        },
        **meta,
    }
    if fmt == "csv":
        rows = [(k, v) for k, v in sorted(model.constants().items())]
        write_csv(out / "constants.csv", ["name", "value"], rows, meta)
    else:
        write_json(out / "constants.json", payload)
    return 0


def _bound_inputs(cfg: dict) -> supbound.TailBound:
    kind = cfg.get("field", "v")
    unread = set(cfg) & ({"model"} if kind == "generic" else _GENERIC_KEYS)
    if unread:
        raise ConfigError(f"keys {sorted(unread)} are not read for field {kind!r}")
    if kind == "generic":
        box = _box_from(cfg)
        prof_cfg = cfg.get("profile")
        if prof_cfg is None or "eps0" not in cfg or "fam" not in cfg:
            raise ConfigError("generic bounds need 'fam', 'eps0' and 'profile'")
        return supbound.field_bound(
            _number(cfg["eps0"], "'eps0'"),
            box,
            HolderProfile(
                _number(prof_cfg["scale"], "profile 'scale'"),
                _number(prof_cfg["exponent"], "profile 'exponent'"),
            ),
            PhiFamily(_number(cfg["fam"], "'fam'")),
        )
    if kind not in ("v", "omega"):
        raise ConfigError(f"unknown field kind {kind!r}")
    if "model" not in cfg:
        raise ConfigError(f"field {kind!r} needs 'model'")
    model = _model_from(cfg)
    box = _field_box(cfg, kind)
    return (heat.v_bound_inputs if kind == "v" else heat.omega_bound_inputs)(box, model)


def _bound_curve(us: list[float], theta_cfg, bound: supbound.TailBound) -> list[tuple]:
    """Rows (u, theta, bound, validity): the optimized bound, or the bound at
    a fixed theta, which must lie in (0, cap).  A row with no asserted bound
    is INVALID, with nan bound, and nan theta unless theta is fixed."""
    fixed = None if theta_cfg in (None, "optimize") else _number(theta_cfg, "'theta'")
    if fixed is not None and not 0.0 < fixed < bound.cap:
        raise ConfigError(
            f"'theta' must lie in (0, {bound.cap}), the cap of this bound, got {theta_cfg!r}"
        )
    rows = []
    for u in us:
        if fixed is None:
            theta, value = supbound.optimize_theta(u, bound)
        else:
            theta, value = fixed, supbound.sup_tail_bound(u, fixed, bound)
        if math.isnan(value):
            rows.append((u, math.nan if fixed is None else fixed, value, "INVALID"))
        else:
            rows.append((u, theta, value, "VALID"))
    return rows


def cmd_bound_sup(cfg: dict, out: Path, seed, fmt: str) -> int:
    bound = _bound_inputs(cfg)
    us = _u_grid(cfg, bound)
    rows = _bound_curve(us, cfg.get("theta"), bound)
    meta = _meta(cfg, seed)
    header = ["u", "theta", "bound", "validity"]
    if fmt == "csv":
        write_csv(out / "bound_sup.csv", header, rows, meta)
    else:
        write_json(
            out / "bound_sup.json",
            {"curve": [dict(zip(header, row)) for row in rows], **meta},
        )
    return 0


def cmd_bound_growth(cfg: dict, out: Path, seed, fmt: str) -> int:
    model = _model_from(cfg)
    p = _number(cfg.get("p", 2.0), "'p'")
    halfwidth = _number(cfg.get("halfwidth", 1.0), "'halfwidth'")
    series_tol = _number(cfg.get("series_tol", 1e-6), "'series_tol'")
    us = _listed_u(cfg["u_grid"])
    bound, c_tilde, s_tilde = heat.she_growth_envelope(model, p, halfwidth, series_tol)
    rows = []
    # validity follows the optimized bound, which exists wherever the envelope does
    for u in us:
        env = growth.auto_theta_bound(u, bound)
        theta, opt = growth.optimize_theta_growth(u, bound)
        if math.isnan(opt):
            rows.append((u, env, opt, math.nan, "INVALID"))
        else:
            rows.append((u, env, opt, theta, "VALID"))
    meta = _meta(cfg, seed)
    header = ["u", "envelope_bound", "optimized_bound", "theta_star", "validity"]
    payload = {
        "series": {
            "c_tilde": c_tilde.value,
            "c_tilde_remainder": c_tilde.remainder,
            "c_tilde_terms": c_tilde.n_terms,
            "s_tilde": s_tilde.value,
            "s_tilde_remainder": s_tilde.remainder,
            "s_tilde_terms": s_tilde.n_terms,
            "theta_cap": bound.cap,
        },
        "curve": [dict(zip(header, r)) for r in rows],
        **meta,
    }
    if fmt == "csv":
        write_csv(out / "bound_growth.csv", header, rows, meta)
        write_json(out / "bound_growth_series.json", {"series": payload["series"], **meta})
    else:
        write_json(out / "bound_growth.json", payload)
    return 0


def cmd_covering(cfg: dict, out: Path, seed) -> int:
    box = _box_from(cfg)
    eps = _number(cfg["eps"], "'eps'")
    resolution = _positive_int(cfg.get("resolution", 101), "'resolution'")
    bound = covering_upper_bound(box, eps)
    oracle = covering_oracle(box, eps, resolution)
    meta = _meta(cfg, seed)
    write_json(
        out / "covering.json",
        {
            "eps": eps,
            "resolution": resolution,
            "upper_bound": bound,
            "oracle_count": oracle,
            "oracle_leq_bound": oracle <= bound,
            **meta,
        },
    )
    return 0 if oracle <= bound else 1


def cmd_simulate_verify(cfg: dict, out: Path, seed) -> int:
    if seed is None:
        raise ConfigError("simulate-verify requires an explicit --seed")
    kind = cfg.get("field", "v")
    if kind != "v":
        raise ConfigError(f"simulate-verify samples only the 'v' field, got {kind!r}")
    model = _model_from(cfg)
    box = _field_box(cfg, kind)
    grid_cfg = cfg.get("grid", {})
    nt = _positive_int(grid_cfg.get("nt", 24), "grid 'nt'")
    nx = _positive_int(grid_cfg.get("nx", 24), "grid 'nx'")
    n_samples = _positive_int(cfg["samples"], "'samples'")
    workers = _positive_int(cfg.get("workers", 1), "'workers'")

    bound = heat.v_bound_inputs(box, model)
    us = _u_grid(cfg, bound)
    # the bound column first: a bad theta fails before any sampling
    bounds = tuple(row[2] for row in _bound_curve(us, cfg.get("theta"), bound))

    cov = sim.covariance_matrix(*sim.make_grid(box, nt, nx), model.hurst)
    chol = sim.factor_covariance(cov)
    sups = sim.sample_sups(chol, n_samples, seed=seed, workers=workers)
    empirical, ci_lo, ci_hi = sim.empirical_sup_tail(sups, us)
    verdicts = sim.verdicts(ci_lo, bounds)
    n_fail = verdicts.count("FAIL")

    meta = _meta(cfg, seed)
    header = ["u", "empirical", "ci_lo", "ci_hi", "bound", "verdict"]
    rows = list(zip(us, empirical, ci_lo, ci_hi, bounds, verdicts))
    write_csv(out / "verify_curve.csv", header, rows, meta)
    write_json(
        out / "verify_report.json",
        {
            "passed": n_fail == 0,
            "n_fail": n_fail,
            "n_samples": n_samples,
            "note": "grid supremum underestimates the true supremum; PASS is "
            "necessary-condition evidence only",
            "rows": [dict(zip(header, r)) for r in rows],
            **meta,
        },
    )
    return 0 if n_fail == 0 else 2


_COMMANDS = {
    "constants": cmd_constants,
    "bound-sup": cmd_bound_sup,
    "bound-growth": cmd_bound_growth,
    "covering": cmd_covering,
    "simulate-verify": cmd_simulate_verify,
}
# Commands that take --format; the others write fixed file types.
_FORMATTED = {"constants", "bound-sup", "bound-growth"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="suptail",
        description="Supremum tail bounds for sub-Gaussian-type random fields, "
        "with Monte Carlo verification for the heat-equation fields.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the JSON config")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--seed", type=int, default=None, help="RNG seed (required for verify)")
        if name in _FORMATTED:
            p.add_argument("--format", choices=("json", "csv"), default="json")
    return parser


# Built once per process: building it costs about 25 times as much as a parse.
_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        cfg = load_config(args.config, args.command)
        fmt = (args.format,) if args.command in _FORMATTED else ()
        return _COMMANDS[args.command](cfg, Path(args.out), args.seed, *fmt)
    # ConfigError and JSONDecodeError are ValueErrors; TypeError is a wrongly typed value
    except (ValueError, TypeError, RuntimeError, OSError) as exc:
        print(f"suptail {args.command}: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
