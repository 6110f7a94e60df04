"""Output checks for benchmark requests, each by a route independent of suptail.

Every constant is recomputed here from its closed form with scipy.special
only; no suptail function is called.  The bound-sup check uses the closed-form
maximiser of z(theta) instead of the library's numeric theta search, and the
bound-growth check uses the zeta form of the V-envelope series instead of the
certified block summation, so a later change to either algorithm still has to
reproduce the same numbers.

Each check takes (request, exit code, output directory) and returns None when
the output is right, or a one-line reason when it is not.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from scipy.special import gamma as gamma_fn
from scipy.special import zeta

BOUND_RTOL = 1e-9
CONST_RTOL = 1e-12
QUAD_RTOL = 1e-8

_MODEL_DEFAULTS = {"rho": 1.0, "holder_const": 1.0, "init_sup": 1.0, "det_const": 1.0, "alpha": 2.0}


# --------------------------------------------------------------------------
# Closed-form constants of the heat-equation model
# --------------------------------------------------------------------------


def noise_constant(h: float) -> float:
    return gamma_fn(2.0 * h + 1.0) * math.sin(math.pi * h) / (2.0 * math.pi)


def variance_coefficient(h: float) -> float:
    return gamma_fn(1.0 - h) * 2.0 ** (h - 1.0) / h


def time_increment_coefficient(h: float) -> float:
    # (1 - e^{-u^2})^2 = 2(1 - e^{-u^2}) - (1 - e^{-2u^2}) and
    # int_0^inf (1 - e^{-a u^2}) u^{-1-2H} du = a^H Gamma(1-H) / (2H).
    return gamma_fn(1.0 - h) * (2.0 - 2.0 ** h) / (2.0 * h)


def space_increment_coefficient(h: float) -> float:
    if h == 0.5:
        return math.pi / 2.0
    return gamma_fn(1.0 - 2.0 * h) * math.cos(math.pi * h) / (2.0 * h)


def v_holder_scale(h: float) -> float:
    c12 = variance_coefficient(h) + time_increment_coefficient(h)
    return math.sqrt(3.0 * noise_constant(h) * max(c12, space_increment_coefficient(h)))


def sup_norm_coefficient(h: float) -> float:
    return math.sqrt(noise_constant(h) * variance_coefficient(h))


def omega_holder_scale(holder_const: float, rho: float) -> float:
    c_1 = 4.0 ** rho * gamma_fn(rho + 0.5) / math.sqrt(math.pi)
    return math.sqrt(2.0 * holder_const * max(c_1, holder_const))


# --------------------------------------------------------------------------
# Closed-form optimum of the bounded-domain sup-tail bound
# --------------------------------------------------------------------------


def _sup_bound_setup(cfg: dict) -> dict:
    """eps0, box exponents, modulus c h^gamma and Orlicz alpha for a bound-sup config."""
    box = cfg["box"]
    kind = cfg.get("field", "v")
    if kind == "generic":
        setup = {
            "eps0": float(cfg["eps0"]),
            "h1": box.get("h1", 1.0),
            "h2": box.get("h2", 1.0),
            "scale": cfg["profile"]["scale"],
            "gamma": cfg["profile"]["exponent"],
            "alpha": float(cfg["fam"]),
        }
    else:
        model = {**_MODEL_DEFAULTS, **cfg["model"]}
        h = model["hurst"]
        if kind == "v":
            setup = {
                "eps0": sup_norm_coefficient(h) * box["b1"] ** (h / 2.0),
                "h1": h / 2.0,
                "h2": h,
                "scale": v_holder_scale(h),
                "gamma": 1.0,
                "alpha": 2.0,
            }
        else:
            rho = model["rho"]
            setup = {
                "eps0": model["init_sup"] * model["det_const"],
                "h1": rho / 2.0,
                "h2": rho,
                "scale": omega_holder_scale(model["holder_const"], rho) * model["det_const"],
                "gamma": 1.0,
                "alpha": model["alpha"],
            }
    t1, t2 = box["b1"] - box["a1"], box["b2"] - box["a2"]
    beta = setup["alpha"] / (setup["alpha"] - 1.0)
    gb = setup["gamma"] * beta
    axis = sum((t / 2.0) ** (hh / beta) / hh for t, hh in ((t1, setup["h1"]), (t2, setup["h2"])) if t > 0)
    diam = sum(t ** hh for t, hh in ((t1, setup["h1"]), (t2, setup["h2"])) if t > 0)
    setup["beta"] = beta
    setup["q"] = 1.0 - 1.0 / gb
    setup["c1"] = 2.0 ** (1.0 / beta) * setup["scale"] ** (1.0 / gb) / (1.0 - 1.0 / gb) * axis
    setup["theta_cap"] = min(1.0, setup["scale"] * diam ** setup["gamma"] / setup["eps0"])
    return setup


def optimal_sup_bound(u: float, s: dict) -> tuple[float, float]:
    """(z*, bound) at theta* = min((2(1-q) c1 eps0^q / u)^(1/(2-q)), theta_cap)."""
    q, c1, eps0 = s["q"], s["c1"], s["eps0"]
    theta = min((2.0 * (1.0 - q) * c1 * eps0 ** q / u) ** (1.0 / (2.0 - q)), s["theta_cap"])
    z = (u * (1.0 - theta) - 2.0 / theta * c1 * (theta * eps0) ** q) / eps0
    return z, min(1.0, 2.0 * math.exp(-(z ** s["beta"]) / s["beta"])) if z > 0 else math.nan


# --------------------------------------------------------------------------
# Checks, one per command
# --------------------------------------------------------------------------


def _load(path: Path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _rel_close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def check_simulate_verify(req: dict, code, out: Path) -> str | None:
    if code != 0:
        return f"exit code {code}"
    report = _load(out / "verify_report.json")
    if report["passed"] is not True:
        return "report not passed"
    want = req["config"]["u_auto"]["count"]
    if len(report["rows"]) != want:
        return f"{len(report['rows'])} rows for {want} u values"
    return None


def check_bound_sup(req: dict, code, out: Path) -> str | None:
    if code != 0:
        return f"exit code {code}"
    rows = _load(out / "bound_sup.json")["curve"]
    want = req["config"]["u_auto"]["count"]
    if len(rows) != want:
        return f"{len(rows)} rows for {want} u values"
    setup = _sup_bound_setup(req["config"])
    for row in rows:
        u = row["u"]
        z, bound = optimal_sup_bound(u, setup)
        if row["validity"] == "VALID":
            if not (z > 0 and _rel_close(row["bound"], bound, BOUND_RTOL)):
                return f"bound {row['bound']!r} at u={u} != closed-form optimum {bound!r}"
        elif z > 1e-9 * u / setup["eps0"]:
            return f"u={u} marked {row['validity']} but closed-form z* = {z!r} > 0"
    return None


def check_bound_growth(req: dict, code, out: Path) -> str | None:
    if code != 0:
        return f"exit code {code}"
    data = _load(out / "bound_growth.json")
    cfg = req["config"]
    if len(data["curve"]) != len(cfg["u_grid"]):
        return f"{len(data['curve'])} rows for {len(cfg['u_grid'])} u values"
    h, p = cfg["model"]["hurst"], cfg["p"]
    exact = sup_norm_coefficient(h) * math.exp(h / 2.0) * (1.0 + zeta(p))
    series = data["series"]
    if abs(series["c_tilde"] - exact) > series["c_tilde_remainder"] + 1e-9:
        return f"c_tilde {series['c_tilde']!r} differs from zeta form {exact!r} beyond its remainder"
    return None


def check_constants(req: dict, code, out: Path) -> str | None:
    if code != 0:
        return f"exit code {code}"
    consts = _load(out / "constants.json")["constants"]
    h = req["config"]["model"]["hurst"]
    if not _rel_close(consts["variance_coefficient"], variance_coefficient(h), CONST_RTOL):
        return f"variance_coefficient {consts['variance_coefficient']!r} != Gamma(1-H) 2^(H-1)/H"
    if not _rel_close(consts["time_increment_coefficient"], time_increment_coefficient(h), QUAD_RTOL):
        return f"time_increment_coefficient {consts['time_increment_coefficient']!r} != closed form"
    return None


def check_covering(req: dict, code, out: Path) -> str | None:
    if code != 0:
        return f"exit code {code}"
    data = _load(out / "covering.json")
    if data["oracle_leq_bound"] is not True:
        return "covering oracle exceeds the analytic bound"
    box, eps = req["config"]["box"], req["config"]["eps"]
    bound = 1.0
    for t, hh in ((box["b1"] - box["a1"], box["h1"]), (box["b2"] - box["a2"], box["h2"])):
        if t > 0:
            bound *= 2.0 ** (1.0 / hh) * t / (2.0 * eps ** (1.0 / hh)) + 1.0
    if not _rel_close(data["upper_bound"], bound, CONST_RTOL):
        return f"upper_bound {data['upper_bound']!r} != closed form {bound!r}"
    return None


CHECKS = {
    "simulate-verify": check_simulate_verify,
    "bound-sup": check_bound_sup,
    "bound-growth": check_bound_growth,
    "constants": check_constants,
    "covering": check_covering,
}


def check(req: dict, code, out: Path) -> str | None:
    """Reason the request failed, or None.  A missing or malformed output fails."""
    try:
        return CHECKS[req["command"]](req, code, out)
    except (OSError, KeyError, TypeError, ValueError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"
