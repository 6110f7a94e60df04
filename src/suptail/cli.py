"""Command-line front end: constants, bound curves, covering checks, simulate-verify.

One JSON config per run, read through the schema that the command table
holds for its command, one schema per field for the commands that take a
"field": unknown keys are rejected and every value is read (numbers checked
finite, sizes checked integral) before any computation, and each model, box
and profile block is built there as its value type, which the commands take.
Every bound curve is at the closed-form theta*, one JSON row {u, theta, bound,
validity} per u; simulate-verify also writes a CSV.
The arguments are a command, then --config, --out and --seed by their full
names, each as "--name value" or "--name=value".
Outputs are byte-stable for a fixed config and seed, carry the config hash,
and use LF line endings with '.' decimals in CSV.
"""

from __future__ import annotations

import json
import math
import os
import sys
from functools import partial

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


def _positive_int(value, name: str, least: int = 1) -> int:
    """value itself if it is an integer >= least; fractions are not truncated."""
    if type(value) is not int or value < least:  # bool is an int subclass
        raise ConfigError(f"{name} must be an integer >= {least}, got {value!r}")
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


# A schema is (readers, required keys).  Each allowed key maps to the reader
# of its value, to the schema of its block, or to None for "field", which
# load_config has already checked.  A value type's block allows its fields,
# and load_config builds the block as that type.
_MODEL = (dict.fromkeys(heat.SheModel._fields, _number), {"hurst"})
# bound-growth and simulate-verify bound V, which reads "hurst" alone
_V_MODEL = ({"hurst": _number}, {"hurst"})
_ENDS = AnisotropicBox._fields[:4]  # a1 b1 a2 b2, then h1 h2
_BOX = (dict.fromkeys(AnisotropicBox._fields, _number), set(_ENDS))
# the heat fields take their metric exponents from the model
_HEAT_BOX = (dict.fromkeys(_ENDS, _number), set(_ENDS))
_PROFILE = (dict.fromkeys(HolderProfile._fields, _number), set(HolderProfile._fields))
# the keys shared by the two commands that draw a bound curve over a box; a
# u_auto grid has two entries at least, so that it ends at 'max'
_CURVE = {"field": None, "u_grid": _listed_u,
          "u_auto": ({"count": partial(_positive_int, least=2), "max": _span}, set())}
_HEAT_CURVE = ({**_CURVE, "box": _HEAT_BOX, "model": _MODEL}, {"box", "model"})
# each block's value type, built in this order, so a bad model is named before a bad box
_VALUES = {"model": heat.SheModel, "box": AnisotropicBox, "profile": HolderProfile}


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
    """The config with every value read and each model, box or profile block
    built as its value type, and the hash of the config as written."""
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    schema, where = _COMMANDS[command][1], f"config for {command}"
    if not isinstance(raw, dict):
        raise ConfigError(f"{where} must be a JSON object")
    if isinstance(schema, dict):  # one schema per field, "v" where none is given
        field = raw.get("field", "v")
        if type(field) is not str or field not in schema:
            raise ConfigError(f"'field' must be one of {sorted(schema)}, got {field!r}")
        schema, where = schema[field], f"{where} with field {field!r}"
    # where u_auto is unknown, _read names it
    if "u_auto" in schema[0] and "u_grid" in raw and "u_auto" in raw:
        raise ConfigError("'u_grid' and 'u_auto' are exclusive; give one of them")
    cfg = _read(raw, schema, where)
    cfg.update({key: kind(**cfg[key]) for key, kind in _VALUES.items() if key in cfg})
    return cfg, config_hash(raw)


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
    count, span = auto.get("count", 12), auto.get("max", 2.0)
    # pad the low end below the minimal threshold so the first entries are invalid
    thr = supbound.min_threshold(bound)
    if thr == math.inf:
        raise ConfigError("the minimal threshold is inf, so no u gets a bound; give 'u_grid', not u_auto")
    if not math.isfinite(span * thr):
        raise ConfigError(
            f"u_auto 'max' = {span!r} times the minimal threshold {thr!r} overflows the float range"
        )
    # count evenly spaced fractions from 0.9 to span, rounded as np.linspace
    # rounds them: i * step + 0.9, and span itself last
    step = (span - 0.9) / (count - 1)
    fracs = [i * step + 0.9 for i in range(count)]
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


def _write(out: str, name: str, text: str) -> None:
    """Write text to the file name in out with LF line endings, making out and
    its parents first, so a run that fails before its first write leaves none."""
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, name), "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def write_json(out: str, name: str, payload: dict) -> None:
    # one encode and one write: json.dump would issue a write per token
    _write(out, name, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def write_csv(out: str, name: str, header: list[str], rows: list[tuple], meta: dict) -> None:
    # str of a float, a NumPy float64 included, is its shortest round-trip repr
    lines = [f"# config_hash={meta['config_hash']} seed={meta['seed']}", ",".join(header)]
    lines += [",".join(map(str, row)) for row in rows]
    _write(out, name, "\n".join(lines) + "\n")


# --------------------------------------------------------------------------
# Subcommands
# --------------------------------------------------------------------------


def cmd_constants(cfg: dict, out: str, meta: dict) -> int:
    constants = cfg["model"].constants()
    notes = [
        "variance_coefficient is the exact spectral time-integral "
        "Gamma(1-H) 2^(H-1) / H, so the variance identity holds",
        "time_increment_coefficient is Gamma(1-H) (2 - 2^H) / (2H)",
        "tail bounds use the subtracted entropy term in the exponent "
        "argument and are clamped to [0, 1]",
    ]
    write_json(out, "constants.json", {"constants": constants, "provenance": {"notes": notes}, **meta})
    return 0


def _bound_curve(us: list[float], bound: supbound.TailBound, optimize) -> list[dict]:
    """The curve rows {u, theta, bound, validity} of every bound command, with
    (theta*, its bound) from optimize(u, bound).  A row with no asserted
    bound is INVALID, with nan theta and bound."""
    rows = []
    for u in us:
        theta, value = optimize(u, bound)
        valid = not math.isnan(value)
        rows.append({"u": u, "theta": theta if valid else math.nan, "bound": value,
                     "validity": "VALID" if valid else "INVALID"})
    return rows


def cmd_bound_sup(cfg: dict, out: str, meta: dict) -> int:
    kind = cfg.get("field", "v")
    if kind == "generic":
        bound = supbound.field_bound(cfg["eps0"], cfg["box"], cfg["profile"], PhiFamily(cfg["fam"]))
    else:
        bound = (heat.v_bound_inputs if kind == "v" else heat.omega_bound_inputs)(cfg["box"], cfg["model"])
    curve = _bound_curve(_u_grid(cfg, bound), bound, supbound.optimize_theta)
    write_json(out, "bound_sup.json", {"curve": curve, **meta})
    return 0


def cmd_bound_growth(cfg: dict, out: str, meta: dict) -> int:
    bound, c_tilde, s_tilde = heat.she_growth_envelope(cfg["model"], cfg.get("p", 2.0), cfg.get("halfwidth", 1.0))
    curve = _bound_curve(cfg["u_grid"], bound, growth.optimize_theta_growth)
    series = {"theta_cap": bound.cap}
    for name, sums in (("c_tilde", c_tilde), ("s_tilde", s_tilde)):
        series.update({name: sums.value, f"{name}_remainder": sums.remainder, f"{name}_terms": sums.n_terms})
    write_json(out, "bound_growth.json", {"series": series, "curve": curve, **meta})
    return 0


def cmd_covering(cfg: dict, out: str, meta: dict) -> int:
    box, eps, resolution = cfg["box"], cfg["eps"], cfg.get("resolution", 101)
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
    model, box, grid = cfg["model"], cfg["box"], cfg.get("grid", {})
    nt, nx = grid.get("nt", 24), grid.get("nx", 24)
    n_samples = cfg["samples"]

    bound = heat.v_bound_inputs(box, model)
    us = _u_grid(cfg, bound)
    bounds = tuple(row["bound"] for row in _bound_curve(us, bound, supbound.optimize_theta))

    cov = sim.covariance_matrix(*sim.make_grid(box, nt, nx), model.hurst)
    chol = sim.factor_covariance(cov, f" of the grid nt = {nt}, nx = {nx} on the box [{box.a1!r}, {box.b1!r}] x "
                                      f"[{box.a2!r}, {box.b2!r}]")
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


# Each command: (its function, its config schema).  bound-sup and
# simulate-verify map each "field" to its schema.
_COMMANDS = {
    "constants": (cmd_constants, ({"model": _MODEL}, {"model"})),
    "bound-sup": (cmd_bound_sup, {
        "v": _HEAT_CURVE,
        "omega": _HEAT_CURVE,
        "generic": ({**_CURVE, "box": _BOX, "fam": _number, "eps0": _number, "profile": _PROFILE},
                    {"box", "fam", "eps0", "profile"}),
    }),
    "bound-growth": (cmd_bound_growth, ({"model": _V_MODEL, "p": _number, "halfwidth": _number,
                                         "u_grid": _listed_u}, {"model", "u_grid"})),
    # resolution 1 puts one grid point on each axis, which covering_oracle refuses
    "covering": (cmd_covering, ({"box": _BOX, "eps": _number, "resolution": partial(_positive_int, least=2)},
                                {"box", "eps"})),
    "simulate-verify": (cmd_simulate_verify, {
        "v": ({**_CURVE, "box": _HEAT_BOX, "model": _V_MODEL, "samples": _positive_int,
               "grid": ({"nt": _positive_int, "nx": _positive_int}, set()),
               "workers": _positive_int}, {"model", "box", "samples"}),
    }),
}


# The options of every command: name -> (reader of the value, default, help).
# --config is required.
_OPTIONS = {
    "--config": (str, None, "path to the JSON config"),
    "--out": (str, ".", "output directory"),
    "--seed": (int, None, "integer RNG seed (simulate-verify requires one)"),
}


def _exit(command: str | None, error: str | None = None):
    """Exit 2 with the usage line and the error on stderr, or 0 with the help
    on stdout, of command, which takes every option, or of suptail if None."""
    prog, names = (f"suptail {command}", list(_OPTIONS)) if command else ("suptail", [])
    spec = [f"{n} {n[2:].upper()}" if n == "--config" else f"[{n} {n[2:].upper()}]" for n in names]
    usage = " ".join(["usage:", prog, "[-h]", *(spec or ["{%s} ..." % ",".join(_COMMANDS)])])
    if error is not None:
        print(usage, f"{prog}: error: {error}", sep="\n", file=sys.stderr)
        sys.exit(2)
    lines = [f"  {n:<10} {_OPTIONS[n][2]}" for n in names] or ["  COMMAND -h lists its options"]
    print(usage, *lines, "  -h, --help print this help and exit", sep="\n")
    sys.exit(0)


def _parse(argv: list[str]) -> tuple[str, dict]:
    """The command and its options from argv, read by the usage lines: a
    usage error exits 2, and -h exits 0.  The last repeat of an option wins,
    and a spaced value is the next argument unless that is an option's name
    or asks for help."""
    if argv[:1] in (["-h"], ["--help"]):
        _exit(None)
    if not argv or argv[0] not in _COMMANDS:
        _exit(None, f"invalid command {argv[0]!r}" if argv else "a command is required")
    command, opts = argv[0], {name[2:]: default for name, (_, default, _) in _OPTIONS.items()}
    extras, args = [], iter(argv[1:])
    for arg in args:
        if arg in ("-h", "--help"):
            _exit(command)
        name, eq, value = arg.partition("=")
        if name not in _OPTIONS:
            extras.append(arg)
            continue
        if not eq:
            value = next(args, None)
            if value is None or value in (*_OPTIONS, "-h", "--help"):
                _exit(command, f"argument {name}: expected one argument")
        try:
            opts[name[2:]] = _OPTIONS[name][0](value)
        except ValueError:
            _exit(command, f"argument {name}: invalid value {value!r}")
    if opts["config"] is None:
        _exit(command, "the following arguments are required: --config")
    if extras:
        _exit(command, "unrecognized arguments: " + " ".join(extras))
    return command, opts


def main(argv=None) -> int:
    command, opts = _parse(sys.argv[1:] if argv is None else list(argv))
    try:
        cfg, digest = load_config(opts["config"], command)
        meta = {"config_hash": digest, "seed": opts["seed"]}
        # "--out=" names the working directory, which os.makedirs takes as "."
        return _COMMANDS[command][0](cfg, opts["out"] or ".", meta)
    # ConfigError and JSONDecodeError are ValueErrors; TypeError is a wrongly
    # typed value; MemoryError is a grid or resolution too large to allocate
    except (ValueError, TypeError, RuntimeError, OSError, MemoryError) as exc:
        print(f"suptail {command}: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
