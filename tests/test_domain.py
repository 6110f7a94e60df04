"""A seeded sweep of the documented config domain through ``cli.main``.

Every value is drawn from the range the README documents for its key, out to
the float extremes 1e-300 and 1e300.  Each config must give a result or a
one-line error that names a config key or value and no internal name such
as theta.  Where a bound curve is written, its VALID rows must hold a bound
in [0, 1] that does not increase in u, at a theta in (0, cap), and a row
must be INVALID exactly where u lies below the minimal threshold, apart from
u within 1e-9 of it.  The seed and the ranges were fixed before the first
run; a defect the sweep finds is mended, not drawn around.
"""

import contextlib
import io
import json
import random

from suptail.cli import main
from suptail.entropy import HolderProfile
from suptail.heat import SheModel, omega_bound_inputs, she_growth_envelope, v_bound_inputs
from suptail.metric import AnisotropicBox
from suptail.orlicz import PhiFamily
from suptail.supbound import field_bound, min_threshold

SEED = 20261020
COUNTS = {"v": 100, "omega": 100, "generic": 100, "bound-growth": 100, "simulate-verify": 40}


def positive(rng):
    """A positive finite value: 1e-300 or 1e300 one time in ten, log-uniform
    over [1e-300, 1e300] three times in ten, else over [1e-3, 1e3]."""
    r = rng.random()
    if r < 0.1:
        return rng.choice((1e-300, 1e300))
    return 10.0 ** (rng.uniform(-300.0, 300.0) if r < 0.4 else rng.uniform(-3.0, 3.0))


def unit(rng):
    """A value in (0, 1]: 1.0, or log-uniform down to 1e-300 or down to 1e-3."""
    r = rng.random()
    if r < 1.0 / 3.0:
        return 1.0
    return 10.0 ** (rng.uniform(-300.0, 0.0) if r < 2.0 / 3.0 else rng.uniform(-3.0, 0.0))


def side(rng):
    """A box side: 0 (a degenerate axis) one time in ten, else positive."""
    return 0.0 if rng.random() < 0.1 else positive(rng)


def heat_box(rng):
    """A box at t >= 0: a1 = 0 or positive, a2 negative, 0 or positive."""
    a1 = 0.0 if rng.random() < 0.3 else positive(rng)
    a2 = rng.choice((-positive(rng), 0.0, positive(rng)))
    return {"a1": a1, "b1": a1 + side(rng), "a2": a2, "b2": a2 + side(rng)}


def u_grid(rng):
    return sorted({positive(rng) for _ in range(rng.randint(1, 4))})


def curve_keys(rng):
    """u_grid, u_auto or neither (the default u_auto)."""
    r = rng.random()
    if r < 0.5:
        return {"u_grid": u_grid(rng)}
    if r < 0.9:
        return {"u_auto": {"count": rng.randint(2, 6), "max": 0.9 + positive(rng)}}
    return {}


def model(rng):
    return {"hurst": 0.5 * unit(rng), "rho": unit(rng), "holder_const": positive(rng),
            "init_sup": positive(rng), "det_const": positive(rng), "alpha": 1.0 + unit(rng)}


def draw(rng, kind):
    """(command, config) of one draw of kind."""
    if kind in ("v", "omega"):
        return "bound-sup", {"field": kind, "model": model(rng), "box": heat_box(rng), **curve_keys(rng)}
    if kind == "generic":
        box = {**heat_box(rng), "a1": rng.choice((-positive(rng), 0.0, positive(rng)))}
        box["b1"] = box["a1"] + side(rng)
        return "bound-sup", {"field": "generic", "fam": 1.0 + unit(rng), "eps0": positive(rng),
                             "profile": {"scale": positive(rng), "exponent": unit(rng)},
                             "box": {**box, "h1": unit(rng), "h2": unit(rng)}, **curve_keys(rng)}
    if kind == "bound-growth":
        return "bound-growth", {"model": {"hurst": 0.5 * unit(rng)}, "p": 1.0 + positive(rng),
                                "halfwidth": positive(rng), "u_grid": u_grid(rng)}
    return "simulate-verify", {"model": {"hurst": 0.5 * unit(rng)}, "box": heat_box(rng),
                               "grid": {"nt": rng.randint(1, 4), "nx": rng.randint(1, 4)},
                               "samples": rng.randint(1, 200), **curve_keys(rng)}


def configs():
    rng = random.Random(SEED)
    return [(kind, i, *draw(rng, kind)) for kind, n in COUNTS.items() for i in range(n)]


CONFIGS = configs()


def names(cfg):
    """Every key of cfg, nested ones included, the repr of every number in it,
    and u_auto, whose default a config without u_grid takes."""
    found = {"u_auto"} if "u_grid" not in cfg else set()
    for key, value in cfg.items():
        found.add(key)
        if isinstance(value, dict):
            found |= names(value)
        for number in value if isinstance(value, list) else [value]:
            if isinstance(number, (int, float)):
                found.add(repr(number))
    return found


def bound_of(command, cfg):
    """The TailBound that the command's curve is drawn from."""
    if command == "bound-growth":
        return she_growth_envelope(SheModel(**cfg["model"]), cfg["p"], cfg["halfwidth"])[0]
    box = AnisotropicBox(**cfg["box"])
    if cfg["field"] == "generic":
        return field_bound(cfg["eps0"], box, HolderProfile(**cfg["profile"]), PhiFamily(cfg["fam"]))
    return (omega_bound_inputs if cfg["field"] == "omega" else v_bound_inputs)(box, SheModel(**cfg["model"]))


def check_curve(command, cfg, rows):
    bound = bound_of(command, cfg)
    threshold = min_threshold(bound)
    valid = [row for row in rows if row["validity"] == "VALID"]
    for row in valid:
        assert 0.0 <= row["bound"] <= 1.0, row
        assert 0.0 < row["theta"] < bound.cap, (row, bound.cap)
    assert all(b["bound"] <= a["bound"] for a, b in zip(valid, valid[1:])), valid
    for row in rows:
        if row["u"] > threshold * (1.0 + 1e-9):
            assert row["validity"] == "VALID", (row, threshold)
        elif row["u"] < threshold * (1.0 - 1e-9):
            assert row["validity"] == "INVALID", (row, threshold)


OUTPUT = {"bound-sup": "bound_sup.json", "bound-growth": "bound_growth.json"}


def outcome(tmp_path, kind, i, command, cfg):
    """(exit code, the failed check or None) of one config."""
    path, out = tmp_path / f"{kind}-{i}.json", tmp_path / f"{kind}-{i}"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([command, "--config", str(path), "--out", str(out), "--seed", "1"])
    message = err.getvalue()
    try:
        if code == 1:
            assert message.startswith(f"suptail {command}: error: ") and message.count("\n") == 1
            assert "theta" not in message.lower()
            assert any(name in message.lower() for name in map(str.lower, names(cfg)))
            assert not out.exists()
        else:
            assert code == 0 and message == ""
            if command in OUTPUT:
                check_curve(command, cfg, json.loads((out / OUTPUT[command]).read_text())["curve"])
    except AssertionError as exc:
        return code, f"{kind} {i}: exit {code}, {message.strip()!r}: {exc}"
    return code, None


def test_every_config_gives_a_result_or_names_its_input(tmp_path):
    results = [outcome(tmp_path, *case) for case in CONFIGS]
    failures = [failure for _, failure in results if failure]
    assert not failures, failures
    # the sweep reaches both outcomes: results and input errors
    codes = [code for code, _ in results]
    assert min(codes.count(0), codes.count(1)) >= 50, (codes.count(0), codes.count(1))
