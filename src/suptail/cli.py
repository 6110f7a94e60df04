"""Command-line front end: constants, bound curves, covering checks, simulate-verify.

One JSON config per run, read through the schema that the command table
holds for its command, one schema per field for the commands that take a
"field": unknown keys are rejected and every value is read (numbers checked
finite, sizes checked integral) before any computation.
Outputs are byte-stable for a fixed config and seed, carry the config hash,
and use LF line endings with '.' decimals in CSV.
"""

from __future__ import annotations

import json
import math
import os
import re
import sys

try:  # CPython's own SHA-256, as random takes _sha512: hashlib would load OpenSSL
    from _sha256 import sha256  # 3.10-3.11
except ImportError:
    try:
        from _sha2 import sha256  # 3.12+
    except ImportError:
        from hashlib import sha256

from . import growth, heat, sim, supbound
from .entropy import HolderProfile
from .metric import AnisotropicBox, covering_oracle, covering_upper_bound
from .orlicz import PhiFamily


class ConfigError(ValueError):
    """Config file violates the schema."""


# --------------------------------------------------------------------------
# Config handling
# --------------------------------------------------------------------------

# Readers take (value, name) and return the value as the command reads it;
# the error names the key, as 'p' at the top level and as grid 'nt' in a block.


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


def _listed_u(values, name: str) -> list[float]:
    """An explicit u_grid: a nonempty, strictly increasing list of finite numbers."""
    if type(values) is not list:
        raise ConfigError(f"{name} must be a list of numbers, got {values!r}")
    us = [_number(value, "u_grid entries", f" at index {i}") for i, value in enumerate(values)]
    if not us:
        raise ConfigError("u_grid must not be empty")
    if any(b <= a for a, b in zip(us, us[1:])):
        raise ConfigError("u_grid must be strictly increasing")
    return us


def _span(value, name: str) -> float:
    """u_auto 'max', which multiplies the minimal threshold; above 0.9 the grid
    increases strictly, as an explicit u_grid must."""
    if type(value) not in (int, float) or not 0.9 < value <= sys.float_info.max:
        raise ConfigError(f"{name} must be a finite number above 0.9, got {value!r}")
    return float(value)


def _theta(value, name: str):
    """value itself: "optimize", or a finite number that ``_bound_curve``
    checks against the cap of the bound, quoting it as written."""
    if value not in (None, "optimize"):
        _number(value, name)
    return value


# A schema is (readers, required keys).  Each allowed key maps to the reader
# of its value, to the schema of its block, or to None for "field", which
# load_config has already checked.  A value type's block allows its fields.
_MODEL = (dict.fromkeys(heat.SheModel._fields, _number), {"hurst"})
# bound-growth and simulate-verify bound V, which reads "hurst" alone
_V_MODEL = ({"hurst": _number}, {"hurst"})
_ENDS = AnisotropicBox._fields[:4]  # a1 b1 a2 b2, then h1 h2
_BOX = (dict.fromkeys(AnisotropicBox._fields, _number), set(_ENDS))
# the heat fields take their metric exponents from the model
_HEAT_BOX = (dict.fromkeys(_ENDS, _number), set(_ENDS))
_PROFILE = (dict.fromkeys(HolderProfile._fields, _number), set(HolderProfile._fields))
# the keys shared by the two commands that draw a bound curve over a box
_CURVE = {"field": None, "u_grid": _listed_u, "theta": _theta,
          "u_auto": ({"count": _positive_int, "max": _span}, set())}
_HEAT_CURVE = ({**_CURVE, "box": _HEAT_BOX, "model": _MODEL}, {"box", "model"})


def _read(block, schema: tuple, where: str, prefix: str = "") -> dict:
    """block with every value read through its schema entry."""
    readers, required = schema
    if not isinstance(block, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = block.keys() - readers.keys()
    if unknown:
        raise ConfigError(f"unknown keys {sorted(unknown)} in {where}; allowed: {sorted(readers)}")
    missing = required - block.keys()
    if missing:
        raise ConfigError(f"missing keys {sorted(missing)} in {where}")
    cfg = {}
    for key, value in block.items():
        entry = readers[key]
        if isinstance(entry, tuple):
            cfg[key] = _read(value, entry, key, f"{key} ")
        else:
            cfg[key] = value if entry is None else entry(value, f"{prefix}'{key}'")
    return cfg


def load_config(path: str, command: str) -> tuple[dict, str]:
    """The config with every value read, and the hash of the config as written."""
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    schema, where = _COMMANDS[command][1], f"config for {command}"
    if not isinstance(raw, dict):
        raise ConfigError(f"{where} must be a JSON object")
    if "u_grid" in raw and "u_auto" in raw:
        raise ConfigError("'u_grid' and 'u_auto' are exclusive; give one of them")
    if isinstance(schema, dict):  # one schema per field, "v" where none is given
        field = raw.get("field", "v")
        if type(field) is not str or field not in schema:
            raise ConfigError(f"'field' must be one of {sorted(schema)}, got {field!r}")
        schema, where = schema[field], f"{where} with field {field!r}"
    return _read(raw, schema, where), config_hash(raw)


def config_hash(cfg: dict) -> str:
    """SHA-256, by CPython's built-in ``_sha256`` or ``_sha2`` (else ``hashlib``),
    of the semantic config: execution-only keys (worker count) are excluded
    so runs that must produce identical bytes share a hash."""
    semantic = {k: v for k, v in cfg.items() if k != "workers"}
    canonical = json.dumps(semantic, sort_keys=True, separators=(",", ":"))
    return sha256(canonical.encode("utf-8")).hexdigest()


def _u_grid(cfg: dict, bound: supbound.TailBound) -> list[float]:
    """The read u_grid, or the u_auto grid over the minimal threshold of bound."""
    if "u_grid" in cfg:
        return cfg["u_grid"]
    auto = cfg.get("u_auto", {})
    count, span = auto.get("count", 12), float(auto.get("max", 2.0))
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
    # np.float64 reprs as "np.float64(...)" under numpy 2; nan reprs as "nan"
    return repr(float(v)) if isinstance(v, float) else str(v)


# The writers make the output directory out, with its parents, so a run that
# fails before its first write leaves none.


def _open(out: str, name: str):
    os.makedirs(out, exist_ok=True)
    return open(os.path.join(out, name), "w", encoding="utf-8", newline="\n")


def write_json(out: str, name: str, payload: dict) -> None:
    # one encode and one write: json.dump would issue a write per token
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    with _open(out, name) as fh:
        fh.write(text)


def write_csv(out: str, name: str, header: list[str], rows: list[tuple], meta: dict) -> None:
    with _open(out, name) as fh:
        fh.write(f"# config_hash={meta['config_hash']} seed={meta['seed']}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _write_curve(out: str, stem: str, fmt: str, header: list[str], rows: list[tuple],
                 meta: dict, **blocks) -> None:
    """The curve rows under header: <stem>.csv, with the blocks in
    <stem>_series.json if there are any, or one <stem>.json holding the
    blocks and the rows as "curve"."""
    if fmt == "csv":
        write_csv(out, f"{stem}.csv", header, rows, meta)
        if blocks:
            write_json(out, f"{stem}_series.json", {**blocks, **meta})
    else:
        curve = [dict(zip(header, row)) for row in rows]
        write_json(out, f"{stem}.json", {**blocks, "curve": curve, **meta})


# --------------------------------------------------------------------------
# Subcommands
# --------------------------------------------------------------------------


def cmd_constants(cfg: dict, out: str, meta: dict, fmt: str) -> int:
    constants = heat.SheModel(**cfg["model"]).constants()
    if fmt == "csv":
        write_csv(out, "constants.csv", ["name", "value"], sorted(constants.items()), meta)
        return 0
    notes = [
        "variance_coefficient is the exact spectral time-integral "
        "Gamma(1-H) 2^(H-1) / H, so the variance identity holds",
        "time_increment_coefficient is Gamma(1-H) (2 - 2^H) / (2H)",
        "tail bounds use the subtracted entropy term in the exponent "
        "argument and are clamped to [0, 1]",
    ]
    write_json(out, "constants.json", {"constants": constants, "provenance": {"notes": notes}, **meta})
    return 0


def _bound_inputs(cfg: dict) -> supbound.TailBound:
    kind = cfg.get("field", "v")
    if kind == "generic":
        return supbound.field_bound(
            cfg["eps0"],
            AnisotropicBox(**cfg["box"]),
            HolderProfile(**cfg["profile"]),
            PhiFamily(cfg["fam"]),
        )
    model = heat.SheModel(**cfg["model"])
    box = AnisotropicBox(**cfg["box"])
    return (heat.v_bound_inputs if kind == "v" else heat.omega_bound_inputs)(box, model)


def _bound_curve(us: list[float], theta_cfg, bound: supbound.TailBound, optimize) -> list[tuple]:
    """Rows (u, theta, bound, validity): the bound at optimize(u, bound), which
    gives (theta*, its bound), or at a fixed theta, which must lie in (0, cap).
    A row with no asserted bound is INVALID, with nan bound, and nan theta
    unless theta is fixed."""
    fixed = None if theta_cfg in (None, "optimize") else float(theta_cfg)
    if fixed is not None and not 0.0 < fixed < bound.cap:
        raise ConfigError(
            f"'theta' must lie in (0, {bound.cap}), the cap of this bound, got {theta_cfg!r}"
        )
    rows = []
    for u in us:
        if fixed is None:
            theta, value = optimize(u, bound)
        else:
            theta, value = fixed, supbound.sup_tail_bound(u, fixed, bound)
        if math.isnan(value):
            rows.append((u, math.nan if fixed is None else fixed, value, "INVALID"))
        else:
            rows.append((u, theta, value, "VALID"))
    return rows


def cmd_bound_sup(cfg: dict, out: str, meta: dict, fmt: str) -> int:
    bound = _bound_inputs(cfg)
    rows = _bound_curve(_u_grid(cfg, bound), cfg.get("theta"), bound, supbound.optimize_theta)
    _write_curve(out, "bound_sup", fmt, ["u", "theta", "bound", "validity"], rows, meta)
    return 0


def cmd_bound_growth(cfg: dict, out: str, meta: dict, fmt: str) -> int:
    model = heat.SheModel(**cfg["model"])
    bound, c_tilde, s_tilde = heat.she_growth_envelope(
        model, cfg.get("p", 2.0), cfg.get("halfwidth", 1.0)
    )
    curve = _bound_curve(cfg["u_grid"], None, bound, growth.optimize_theta_growth)
    # validity follows the optimized bound, which exists wherever the envelope does
    rows = [(u, growth.auto_theta_bound(u, bound), value, theta, ok) for u, theta, value, ok in curve]
    series = {
        "c_tilde": c_tilde.value,
        "c_tilde_remainder": c_tilde.remainder,
        "c_tilde_terms": c_tilde.n_terms,
        "s_tilde": s_tilde.value,
        "s_tilde_remainder": s_tilde.remainder,
        "s_tilde_terms": s_tilde.n_terms,
        "theta_cap": bound.cap,
    }
    header = ["u", "envelope_bound", "optimized_bound", "theta_star", "validity"]
    _write_curve(out, "bound_growth", fmt, header, rows, meta, series=series)
    return 0


def cmd_covering(cfg: dict, out: str, meta: dict) -> int:
    box = AnisotropicBox(**cfg["box"])
    eps, resolution = cfg["eps"], cfg.get("resolution", 101)
    bound = covering_upper_bound(box, eps)
    oracle = covering_oracle(box, eps, resolution)
    write_json(
        out, "covering.json",
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


def cmd_simulate_verify(cfg: dict, out: str, meta: dict) -> int:
    seed = meta["seed"]
    if seed is None:
        raise ConfigError("simulate-verify requires an explicit --seed")
    if seed < 0:
        raise ConfigError(f"--seed must be an integer >= 0, got {seed}")
    model = heat.SheModel(**cfg["model"])
    box = AnisotropicBox(**cfg["box"])
    grid = cfg.get("grid", {})
    nt, nx = grid.get("nt", 24), grid.get("nx", 24)
    n_samples = cfg["samples"]

    bound = heat.v_bound_inputs(box, model)
    us = _u_grid(cfg, bound)
    # the bound column first: a bad theta fails before any sampling
    bounds = tuple(row[2] for row in _bound_curve(us, cfg.get("theta"), bound, supbound.optimize_theta))

    cov = sim.covariance_matrix(*sim.make_grid(box, nt, nx), model.hurst)
    chol = sim.factor_covariance(cov)
    sups = sim.sample_sups(chol, n_samples, seed=seed, workers=cfg.get("workers", 1))
    empirical, ci_lo, ci_hi = sim.empirical_sup_tail(sups, us)
    verdicts = sim.verdicts(ci_lo, bounds)
    n_fail = verdicts.count("FAIL")

    header = ["u", "empirical", "ci_lo", "ci_hi", "bound", "verdict"]
    rows = list(zip(us, empirical, ci_lo, ci_hi, bounds, verdicts))
    write_csv(out, "verify_curve.csv", header, rows, meta)
    write_json(
        out, "verify_report.json",
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


# Each command: (its function, its config schema, whether it takes --format;
# the others write fixed file types).  bound-sup and simulate-verify map each
# "field" to its schema.
_COMMANDS = {
    "constants": (cmd_constants, ({"model": _MODEL}, {"model"}), True),
    "bound-sup": (cmd_bound_sup, {
        "v": _HEAT_CURVE,
        "omega": _HEAT_CURVE,
        "generic": ({**_CURVE, "box": _BOX, "fam": _number, "eps0": _number, "profile": _PROFILE},
                    {"box", "fam", "eps0", "profile"}),
    }, True),
    "bound-growth": (cmd_bound_growth, ({"model": _V_MODEL, "p": _number, "halfwidth": _number,
                                         "u_grid": _listed_u}, {"model", "u_grid"}), True),
    "covering": (cmd_covering, ({"box": _BOX, "eps": _number, "resolution": _positive_int},
                                {"box", "eps"}), False),
    "simulate-verify": (cmd_simulate_verify, {
        "v": ({**_CURVE, "box": _HEAT_BOX, "model": _V_MODEL, "samples": _positive_int,
               "grid": ({"nt": _positive_int, "nx": _positive_int}, set()),
               "workers": _positive_int}, {"model", "box", "samples"}),
    }, False),
}


# The options of the commands: name -> (reader of the value, default, help).
# --config is required, and --format is taken only by the commands that read it.
_OPTIONS = {
    "--config": (str, None, "path to the JSON config"),
    "--out": (str, ".", "output directory"),
    "--seed": (int, None, "integer RNG seed (simulate-verify requires one)"),
    "--format": ({"json": "json", "csv": "csv"}.__getitem__, "json", "json or csv"),
}


def _exit(command: str | None, names: list[str], error: str | None = None):
    """Exit 2 with the usage line and the error on stderr, or 0 with the help
    on stdout, of command with its options names, or of suptail if None."""
    prog = f"suptail {command}" if command else "suptail"
    spec = [f"{n} {n[2:].upper()}" if n == "--config" else f"[{n} {n[2:].upper()}]" for n in names]
    usage = " ".join(["usage:", prog, "[-h]", *(spec or ["{%s} ..." % ",".join(_COMMANDS)])])
    if error is not None:
        print(usage, f"{prog}: error: {error}", sep="\n", file=sys.stderr)
        sys.exit(2)
    lines = [f"  {n:<10} {_OPTIONS[n][2]}" for n in names] or ["  COMMAND -h lists its options"]
    print(usage, *lines, "  -h, --help print this help and exit", sep="\n")
    sys.exit(0)


def _token(token: str, names: list[str]) -> tuple | None:
    """None if token is a value, else (the option of names or --help that it
    names by a unique prefix, or None, and its "=" value or None).  A token
    that starts with "-" is a value if it is "-", a negative number or holds
    a space."""
    if not token.startswith("-") or token == "-":
        return None
    if token.startswith("-h"):
        return "--help", token[2:] or None
    head, eq, value = token.partition("=")
    matches = [n for n in names + ["--help"] if n.startswith(head)] if token[1] == "-" else []
    if len(matches) > 1:
        _exit(None, [], f"ambiguous option: {token} could match {', '.join(matches)}")
    if matches:
        return matches[0], value if eq else None
    return None if re.match(r"^-\d+$|^-\d*\.\d+$", token) or " " in token else (None, None)


def _options(command: str | None, names: list[str], args: list[str], opts: dict) -> list[str]:
    """Read the options names in args into opts, in order; return the tokens
    that name none.  No token after "--" is an option."""
    cut = args.index("--") if "--" in args else len(args)
    kinds = [_token(token, names) for token in args[:cut]] + [None]
    extras, k = [], 0
    while k < cut:
        name, value = kinds[k] or (None, None)
        if name == "--help":  # "-hx" and "--help=x" give -h a value
            _exit(command, names, None if value is None else f"-h takes no value, got {value!r}")
        elif name is None:
            extras.append(args[k])
        else:
            if value is None:  # "--opt value", not "--opt=value"
                if k + 1 == cut or kinds[k + 1] is not None:
                    _exit(command, names, f"argument {name}: expected one argument")
                k, value = k + 1, args[k + 1]
            try:
                opts[name[2:]] = _OPTIONS[name][0](value)
            except (KeyError, ValueError):
                _exit(command, names, f"argument {name}: invalid value {value!r}")
        k += 1
    return extras + args[cut:]


def _parse(argv: list[str]) -> tuple[str, dict]:
    """The command and its options from argv, read by the usage lines: a
    usage error exits 2, and -h exits 0."""
    # suptail's own options, -h alone, run up to the command: the first value
    i = next((i for i, t in enumerate(argv) if t == "--" or not _token(t, [])), len(argv))
    extras = _options(None, [], argv[:i], {})
    if i == len(argv) or argv[i] not in _COMMANDS:
        _exit(None, [], f"invalid command {argv[i]!r}" if argv[i:] else "a command is required")
    command, names = argv[i], [n for n in _OPTIONS if n != "--format" or _COMMANDS[argv[i]][2]]
    opts = {n[2:]: _OPTIONS[n][1] for n in names}
    extras += _options(command, names, argv[i + 1 :], opts)
    if opts["config"] is None:
        _exit(command, names, "the following arguments are required: --config")
    if extras:
        _exit(command, names, "unrecognized arguments: " + " ".join(extras))
    return command, opts


def main(argv=None) -> int:
    command, opts = _parse(sys.argv[1:] if argv is None else list(argv))
    try:
        cfg, digest = load_config(opts["config"], command)
        meta = {"config_hash": digest, "seed": opts["seed"]}
        run, _, formatted = _COMMANDS[command]
        fmt = (opts["format"],) if formatted else ()
        # "--out=" names the working directory, which os.makedirs takes as "."
        return run(cfg, opts["out"] or ".", meta, *fmt)
    # ConfigError and JSONDecodeError are ValueErrors; TypeError is a wrongly
    # typed value; MemoryError is a grid or resolution too large to allocate
    except (ValueError, TypeError, RuntimeError, OSError, MemoryError) as exc:
        print(f"suptail {command}: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
