"""CLI: config validation, subcommands, exit codes, byte-stable outputs."""

import errno
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.special import zeta

import suptail
from suptail import cli, sim, supbound
from suptail.cli import ConfigError, _u_grid, config_hash, load_config, main
from suptail.entropy import HolderProfile
from suptail.growth import optimize_theta_growth
from suptail.heat import SheModel, she_growth_envelope, v_bound_inputs
from suptail.metric import AnisotropicBox
from suptail.orlicz import PhiFamily

MODEL = {"hurst": 0.5, "rho": 0.5, "holder_const": 1.0, "init_sup": 1.0, "det_const": 1.0, "alpha": 2.0}
# bound-growth and simulate-verify bound V, whose model block holds hurst alone
V_MODEL = {"hurst": 0.5}
BOX = {"a1": 0.1, "b1": 1.0, "a2": 0.0, "b2": 1.0}


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def run(tmp_path, command, payload, *extra):
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "out"
    return main([command, "--config", cfg, "--out", str(out), *extra]), out


class TestConstants:
    def test_values_match_model(self, tmp_path):
        code, out = run(tmp_path, "constants", {"model": MODEL})
        assert code == 0
        payload = json.loads((out / "constants.json").read_text())
        expected = SheModel(**MODEL).constants()
        for key, val in expected.items():
            assert payload["constants"][key] == pytest.approx(val, rel=1e-12)
        assert "config_hash" in payload
        assert any("Gamma(1-H) 2^(H-1) / H" in note for note in payload["provenance"]["notes"])

    def test_invalid_hurst_nonzero_exit(self, tmp_path):
        code, _ = run(tmp_path, "constants", {"model": {**MODEL, "hurst": 0.7}})
        assert code == 1

    def test_unknown_key_rejected(self, tmp_path):
        code, _ = run(tmp_path, "constants", {"model": MODEL, "bogus": 1})
        assert code == 1

    def test_byte_stable(self, tmp_path):
        cfg = write_config(tmp_path, {"model": MODEL})
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["constants", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["constants", "--config", cfg, "--out", str(out2)]) == 0
        assert (out1 / "constants.json").read_bytes() == (out2 / "constants.json").read_bytes()


class TestBoundSup:
    def test_v_field_curve(self, tmp_path):
        payload = {"field": "v", "model": MODEL, "box": BOX, "u_auto": {"count": 8, "max": 2.0}}
        code, out = run(tmp_path, "bound-sup", payload)
        assert code == 0
        data = json.loads((out / "bound_sup.json").read_text())
        rows = data["curve"]
        assert len(rows) == 8
        validities = [r["validity"] for r in rows]
        assert "INVALID" in validities  # the padded low-u entries
        assert "VALID" in validities
        valid_bounds = [r["bound"] for r in rows if r["validity"] == "VALID"]
        assert all(0.0 <= b <= 1.0 for b in valid_bounds)
        assert all(b <= a + 1e-15 for a, b in zip(valid_bounds, valid_bounds[1:]))

    def test_generic_field_fixed_theta(self, tmp_path):
        # the hand value at theta*, where bound-sup evaluates every curve: here
        # c1 = 4, q = 1/2 and the cap is 1, so theta* = (4/u)^(2/3) and
        # z = u (1 - theta*) - 8 / sqrt(theta*)
        payload = {
            "field": "generic",
            "fam": 2.0,
            "eps0": 1.0,
            "profile": {"scale": 1.0, "exponent": 1.0},
            "box": {"a1": 0.0, "b1": 1.0, "a2": 0.0, "b2": 1.0},
            "u_grid": [10.0, 40.0],
        }
        code, out = run(tmp_path, "bound-sup", payload)
        assert code == 0
        rows = json.loads((out / "bound_sup.json").read_text())["curve"]
        assert rows[0]["validity"] == "INVALID"  # below the minimal threshold
        theta = 0.1 ** (2.0 / 3.0)
        z = 40.0 * (1.0 - theta) - 8.0 / math.sqrt(theta)
        assert rows[1]["theta"] == pytest.approx(theta, rel=1e-12)
        assert rows[1]["bound"] == pytest.approx(2 * math.exp(-0.5 * z * z), rel=1e-12)

    @pytest.mark.parametrize(
        "payload, inputs",
        [
            (
                {"field": "v", "model": MODEL, "box": BOX},
                v_bound_inputs(AnisotropicBox(**BOX), SheModel(**MODEL)),
            ),
            # eps0 = 10 puts theta_cap = 0.2 below the unconstrained minimizer 1/3
            (
                {
                    "field": "generic",
                    "fam": 2.0,
                    "eps0": 10.0,
                    "profile": {"scale": 1.0, "exponent": 1.0},
                    "box": {"a1": 0.0, "b1": 1.0, "a2": 0.0, "b2": 1.0},
                },
                supbound.field_bound(
                    10.0, AnisotropicBox(0.0, 1.0, 0.0, 1.0), HolderProfile(1.0, 1.0), PhiFamily(2.0)
                ),
            ),
        ],
    )
    def test_u_auto_starts_below_exact_minimal_threshold(self, tmp_path, payload, inputs):
        payload = {**payload, "u_auto": {"count": 5, "max": 2.0}}
        code, out = run(tmp_path, "bound-sup", payload)
        assert code == 0
        rows = json.loads((out / "bound_sup.json").read_text())["curve"]
        thetas = np.linspace(1e-4, inputs.cap * (1 - 1e-9), 20001)
        scanned = min(supbound.u_threshold(float(t), inputs) for t in thetas)
        threshold = rows[0]["u"] / 0.9
        assert threshold <= scanned
        assert threshold > 0.999 * scanned
        assert rows[-1]["u"] == pytest.approx(2.0 * threshold, rel=1e-12)
        assert rows[0]["validity"] == "INVALID"
        assert rows[-1]["validity"] == "VALID"

    def test_u_auto_keeps_off_the_threshold(self):
        # every entry sits clearly on one side of the minimal threshold, so its
        # VALID/INVALID mark cannot hang on the last ulp of the constants
        for hurst in np.linspace(0.02, 0.5, 25):
            inputs = v_bound_inputs(AnisotropicBox(**BOX), SheModel(hurst=float(hurst)))
            q = 1 - 1 / inputs.gamma_beta
            theta = min((1 - q) / (2 - q), inputs.cap * (1 - 1e-9))
            thr = supbound.u_threshold(theta, inputs)
            for count in range(2, 21):
                for span in (1.1, 1.5, 2.0, 3.0):
                    us = _u_grid({"u_auto": {"count": count, "max": span}}, inputs)
                    assert len(us) == count
                    assert all(b > a for a, b in zip(us, us[1:]))
                    assert us[0] == pytest.approx(0.9 * thr, rel=1e-15)
                    assert min(abs(u / thr - 1.0) for u in us) > 1e-6
                    assert us[0] < thr
                    for u in us:
                        valid = not math.isnan(supbound.optimize_theta(u, inputs)[1])
                        assert valid == (u > thr)

    @pytest.mark.parametrize("command", ["bound-sup", "simulate-verify"])
    def test_u_auto_needs_two_entries(self, tmp_path, capsys, command):
        # one entry was 0.9 times the threshold, always INVALID, and 'max' was dropped
        payload = {**TestSimulateVerify.PAYLOAD, "u_auto": {"count": 1, "max": 5}}
        if command == "bound-sup":
            payload = {k: payload[k] for k in ("field", "model", "box", "u_auto")}
        code, out = run(tmp_path, command, payload, "--seed", "1")
        assert code == 1
        assert capsys.readouterr().err == f"suptail {command}: error: u_auto 'count' must be an integer >= 2, got 1\n"
        assert not out.exists()

    def test_u_auto_divergent_entropy_errors(self, tmp_path):
        # gamma*beta = 0.8 <= 1: no threshold exists, so no u grid can be built
        payload = {
            "field": "generic",
            "fam": 2.0,
            "eps0": 1.0,
            "profile": {"scale": 1.0, "exponent": 0.4},
            "box": {"a1": 0.0, "b1": 1.0, "a2": 0.0, "b2": 1.0},
            "u_auto": {"count": 3},
        }
        code, _ = run(tmp_path, "bound-sup", payload)
        assert code == 1

    def test_infinite_threshold_points_to_u_grid(self, tmp_path, capsys):
        # min_threshold is inf here (found by a domain sweep at seed 11), and the
        # default u_auto blamed its 'max' of 2.0, which no value would mend
        payload = {"field": "omega", "model": {"hurst": 2.4e-203, "rho": 3.3e-233, "init_sup": 1.3e83},
                   "box": {"a1": 0.0, "b1": 0.0, "a2": 0.0, "b2": 6.8e-65}}
        code, out = run(tmp_path, "bound-sup", payload)
        assert code == 1 and not out.exists()
        assert capsys.readouterr().err == (
            "suptail bound-sup: error: the minimal threshold is inf, so no u gets a bound; give 'u_grid', not u_auto\n")
        code, out = run(tmp_path, "bound-sup", {**payload, "u_grid": [1.0, 1e300]})
        assert code == 0
        rows = json.loads((out / "bound_sup.json").read_text())["curve"]
        assert [row["validity"] for row in rows] == ["INVALID", "INVALID"]

    @pytest.mark.parametrize("command", ["constants", "bound-sup", "bound-growth", "covering", "simulate-verify"])
    def test_tol_rejected(self, tmp_path, capsys, command):
        # no command takes a tolerance or an output format: every curve is JSON
        for option in (["--tol", "1e-6"], ["--format", "json"], ["--form", "csv"], ["--f=csv"]):
            with pytest.raises(SystemExit) as exc:
                run(tmp_path, command, {}, *option)
            assert exc.value.code == 2
            assert capsys.readouterr().err.endswith(f"error: unrecognized arguments: {' '.join(option)}\n")
            assert not (tmp_path / "out").exists()

    def test_parser_reuse_after_rejected_call(self, tmp_path):
        # a call that exits 2 on its arguments must not leak state into the
        # next call in the same process
        payload = {"field": "v", "model": MODEL, "box": BOX, "u_grid": [80.0, 120.0]}
        cfg = write_config(tmp_path, payload)
        before, after = tmp_path / "before", tmp_path / "after"
        assert main(["bound-sup", "--config", cfg, "--out", str(before)]) == 0
        with pytest.raises(SystemExit) as exc:
            main(["bound-sup", "--config", cfg, "--seed", "x"])
        assert exc.value.code == 2
        assert main(["bound-sup", "--config", cfg, "--out", str(after)]) == 0
        assert (after / "bound_sup.json").read_bytes() == (before / "bound_sup.json").read_bytes()


class TestUnreadFieldKeys:
    GENERIC = {
        "field": "generic",
        "fam": 2.0,
        "eps0": 1.0,
        "profile": {"scale": 1.0, "exponent": 1.0},
        "box": BOX,
        "u_grid": [80.0],
    }

    @pytest.mark.parametrize("field", ["v", "omega"])
    def test_generic_keys_rejected_for_heat_fields(self, tmp_path, capsys, field):
        # a v config with these keys wrote the same curve as one without them
        payload = {
            "field": field,
            "model": MODEL,
            "box": BOX,
            "u_grid": [80.0, 100.0],
            "eps0": 1000.0,
            "fam": 1.5,
            "profile": {"scale": 2.0, "exponent": 0.5},
        }
        code, out = run(tmp_path, "bound-sup", payload)
        assert code == 1
        assert capsys.readouterr().err == (
            f"suptail bound-sup: error: unknown keys ['eps0', 'fam', 'profile'] in config for "
            f"bound-sup with field '{field}'; allowed: ['box', 'field', 'model', 'u_auto', "
            "'u_grid']\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, field, extra",
        [
            ("bound-sup", "v", []),
            ("bound-sup", "omega", []),
            ("simulate-verify", "v", ["--seed", "7"]),
        ],
    )
    def test_box_exponents_rejected_for_heat_fields(self, tmp_path, capsys, command, field, extra):
        # the model's exponents replaced these, and the curve came out as without them
        payload = {
            "field": field,
            "model": MODEL if command == "bound-sup" else V_MODEL,
            "box": {**BOX, "h1": 0.9, "h2": 0.2},
            "u_grid": [80.0, 100.0],
            "samples": 100,
        }
        if command == "bound-sup":
            del payload["samples"]
        code, out = run(tmp_path, command, payload, *extra)
        assert code == 1
        assert capsys.readouterr().err == (
            f"suptail {command}: error: unknown keys ['h1', 'h2'] in box; "
            "allowed: ['a1', 'a2', 'b1', 'b2']\n"
        )
        assert not out.exists()

    def test_model_rejected_for_generic_field(self, tmp_path, capsys):
        code, out = run(tmp_path, "bound-sup", {**self.GENERIC, "model": MODEL})
        assert code == 1
        assert capsys.readouterr().err == (
            "suptail bound-sup: error: unknown keys ['model'] in config for bound-sup with "
            "field 'generic'; allowed: ['box', 'eps0', 'fam', 'field', 'profile', "
            "'u_auto', 'u_grid']\n"
        )
        assert not out.exists()


class TestWrongValueType:
    @pytest.mark.parametrize(
        "command, payload",
        [
            ("bound-growth", {"model": V_MODEL, "p": None, "u_grid": [900.0]}),
            ("bound-growth", {"model": V_MODEL, "u_grid": 900}),
            ("covering", {"box": BOX, "eps": None}),
            ("constants", {"model": {"hurst": "x"}}),
            # alpha is checked when the model is built, read or not; bound-growth
            # does not read it and rejects the key
            ("constants", {"model": {**MODEL, "alpha": 7.0}}),
            ("bound-growth", {"model": {**V_MODEL, "alpha": 7.0}, "u_grid": [900.0]}),
            # a missing required key names itself, with no traceback
            ("bound-sup", {"field": "v", "model": MODEL, "u_grid": [80.0]}),
            ("bound-sup", {"field": "v", "box": BOX, "u_grid": [80.0]}),
            ("covering", {"box": BOX}),
            ("constants", {}),
            ("bound-growth", {"p": 2.0, "u_grid": [900.0]}),
            # an empty u grid is rejected before any computation
            ("bound-sup", {"field": "v", "model": MODEL, "box": BOX, "u_grid": []}),
            ("bound-growth", {"model": V_MODEL, "u_grid": []}),
            ("bound-growth", {"model": V_MODEL, "u_grid": [900.0, 800.0]}),
            ("simulate-verify", {"model": V_MODEL, "box": BOX, "samples": 10, "u_grid": []}),
        ],
        ids=[
            "p-null",
            "u_grid-number",
            "eps-null",
            "hurst-string",
            "alpha-constants",
            "alpha-growth",
            "sup-no-box",
            "sup-v-no-model",
            "covering-no-eps",
            "constants-empty",
            "growth-no-model",
            "sup-empty-u_grid",
            "growth-empty-u_grid",
            "growth-unsorted-u_grid",
            "verify-empty-u_grid",
        ],
    )
    def test_one_line_error(self, tmp_path, capsys, command, payload):
        code, _ = run(tmp_path, command, payload, "--seed", "1")  # simulate-verify needs a seed
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"suptail {command}: error: ")
        assert err.count("\n") == 1


class TestDeadKeys:
    @pytest.mark.parametrize(
        "command, payload, key",
        [
            ("bound-sup", {"u_auto": {"count": 4, "min": 1.0}}, "min"),
            ("bound-sup", {"u_auto": {"count": 4, "scale": "log"}}, "scale"),
            ("simulate-verify", {"measure": {"sigma2": 1.0, "alpha_m": 0.3}}, "measure"),
            ("simulate-verify", {"mu": 0.5}, "mu"),
        ],
    )
    def test_ignored_keys_rejected(self, tmp_path, command, payload, key):
        model = MODEL if command == "bound-sup" else V_MODEL
        path = write_config(tmp_path, {"field": "v", "model": model, "box": BOX, **payload})
        with pytest.raises(ConfigError, match=rf"unknown keys \['{key}'\]"):
            load_config(path, command)

    @pytest.mark.parametrize("command", ["bound-growth", "simulate-verify"])
    def test_unread_model_keys_rejected(self, tmp_path, capsys, command):
        # both commands bound V, which reads hurst alone: these keys changed nothing
        payload = {"model": {"hurst": 0.5, "alpha": 1.5, "rho": 0.3}, "u_grid": [900.0]}
        if command == "simulate-verify":
            payload.update(box=BOX, samples=10)
        code, out = run(tmp_path, command, payload, "--seed", "1")
        assert code == 1
        assert "unknown keys ['alpha', 'rho'] in model; allowed: ['hurst']" in capsys.readouterr().err
        assert not out.exists()


class TestBoundGrowth:
    def test_envelope_and_series(self, tmp_path):
        payload = {"model": V_MODEL, "p": 2.0, "halfwidth": 1.0, "u_grid": [900.0, 1500.0]}
        code, out = run(tmp_path, "bound-growth", payload)
        assert code == 0
        data = json.loads((out / "bound_growth.json").read_text())
        model = SheModel(**V_MODEL)
        target = model.a_h * math.exp(0.25) * (1 + math.pi ** 2 / 6)
        assert data["series"]["c_tilde"] == pytest.approx(target, abs=1e-5)
        assert data["series"]["c_tilde_remainder"] <= 1e-6
        bound = she_growth_envelope(model, 2.0, halfwidth=1.0)[0]
        for row in data["curve"]:
            assert row["validity"] == "VALID"
            assert (row["theta"], row["bound"]) == optimize_theta_growth(row["u"], bound)

    def test_curve_rows_share_bound_sup_format(self, tmp_path):
        # both bound commands write one row format
        code, out = run(tmp_path, "bound-growth", {"model": V_MODEL, "u_grid": [100.0, 900.0]})
        assert code == 0
        code, out = run(tmp_path, "bound-sup", {"field": "v", "model": MODEL, "box": BOX, "u_grid": [10.0, 900.0]})
        assert code == 0
        rows = [row for name in ("bound_growth.json", "bound_sup.json")
                for row in json.loads((out / name).read_text())["curve"]]
        assert {row["validity"] for row in rows} == {"INVALID", "VALID"}
        assert {frozenset(row) for row in rows} == {frozenset({"u", "theta", "bound", "validity"})}

    def test_optimized_bound_valid_wherever_envelope_is(self, tmp_path):
        # At the substituted theta = u^(-2/3) the level u - u^(1/3) (1+2S)
        # turns positive only at u = (1+2S)^(3/2), about 12058 here; the
        # bound at theta* already holds at u = 12000.  Below the threshold
        # a row is INVALID with nan theta and bound, not the trivial 1.0.
        payload = {"model": {"hurst": 0.5}, "p": 1.05, "halfwidth": 0.716,
                   "u_grid": [100.0, 500.0, 12000.0, 12100.0, 20000.0]}
        code, out = run(tmp_path, "bound-growth", payload)
        assert code == 0
        rows = json.loads((out / "bound_growth.json").read_text())["curve"]
        for row in rows:
            valid = row["validity"] == "VALID"
            assert valid == (0.0 <= row["bound"] <= 1.0) == (0.0 < row["theta"] < 1.0)
        assert [r["validity"] for r in rows] == ["INVALID", "INVALID", "VALID", "VALID", "VALID"]

    def test_slow_decay_p_succeeds(self, tmp_path):
        # 1 < p < 2: slow power-law decay of the envelope series
        payload = {"model": V_MODEL, "p": 1.5, "halfwidth": 1.0, "u_grid": [900.0, 1500.0]}
        code, out = run(tmp_path, "bound-growth", payload)
        assert code == 0
        series = json.loads((out / "bound_growth.json").read_text())["series"]
        model = SheModel(**V_MODEL)
        target = model.a_h * math.exp(model.hurst / 2) * (1 + zeta(1.5))
        assert series["c_tilde"] == pytest.approx(target, rel=1e-13)
        assert series["c_tilde_terms"] == 0 and series["s_tilde_terms"] > 0

    def test_p_near_one_bound_at_upper_ends(self, tmp_path):
        # the C~ remainder is about 7e-5 here, above the former default
        # series_tol = 1e-6, and the run exited 1; the bound now takes both
        # sums at value + remainder, where it is nondecreasing
        payload = {"model": V_MODEL, "p": 1 + 1e-10, "u_grid": [5e11, 6.5e11, 1e12, 1e18]}
        code, out = run(tmp_path, "bound-growth", payload)
        assert code == 0
        data = json.loads((out / "bound_growth.json").read_text())
        series = data["series"]
        assert series["c_tilde_remainder"] > 1e-6
        rebuilt = supbound.TailBound(
            series["s_tilde"] + series["s_tilde_remainder"],
            series["c_tilde"] + series["c_tilde_remainder"],
            2.0,
            1.0,
            PhiFamily(2.0),
        )
        assert she_growth_envelope(SheModel(**V_MODEL), 1 + 1e-10)[0] == rebuilt
        rows = [(r["theta"], r["bound"]) for r in data["curve"]]
        expected = [optimize_theta_growth(u, rebuilt) for u in payload["u_grid"]]
        np.testing.assert_equal(rows[1:], expected[1:])
        assert math.isnan(rows[0][0]) and math.isnan(rows[0][1])
        assert [r["validity"] for r in data["curve"]] == ["INVALID", "VALID", "VALID", "VALID"]

    @pytest.mark.parametrize("p", [1e6, 1e100, 1e300, 1e308])
    def test_huge_p_certifies(self, tmp_path, p):
        # the Li_p terms past k = 1 underflow to 0 and add no rounding; at
        # p = 1e308 a sum of 1024 terms overflowed p ln k with a RuntimeWarning
        payload = {"model": V_MODEL, "p": p, "halfwidth": 1.0, "u_grid": [900.0, 1500.0]}
        code, out = run(tmp_path, "bound-growth", payload)
        assert code == 0
        series = json.loads((out / "bound_growth.json").read_text())["series"]
        assert series["s_tilde_remainder"] <= 1e-6

    @pytest.mark.parametrize("hurst", [1e-100, 1e-300])
    @pytest.mark.parametrize("p", [1.001, 1.1, 2.0, 3.0])
    def test_tiny_hurst_remainder_below_sum(self, tmp_path, hurst, p):
        # the S~ remainder was 3e186 at H = 1e-100 and p = 2, and inf at
        # H = 1e-300: the geometric tail bound of Li_p(e^(-H/4)) grows as 4/H
        payload = {"model": {"hurst": hurst}, "p": p, "u_grid": [1e300]}
        code, out = run(tmp_path, "bound-growth", payload)
        assert code == 0
        series = json.loads((out / "bound_growth.json").read_text())["series"]
        assert math.isfinite(series["s_tilde_remainder"])
        assert series["s_tilde_remainder"] <= series["s_tilde"]

    @pytest.mark.parametrize("p, most", [(5.0, 1413), (10.0, 38)])
    def test_tiny_hurst_large_p_sums_few_terms(self, tmp_path, p, most):
        # past ((p-1) eps x / p)^(-1/p) terms the tail of Li_p(e^(-H/4)) is
        # below eps n x; the other counts ran to 2^20 terms at this hurst
        code, out = run(tmp_path, "bound-growth", {"model": {"hurst": 1e-100}, "p": p, "u_grid": [1e300]})
        assert code == 0
        series = json.loads((out / "bound_growth.json").read_text())["series"]
        assert series["s_tilde_terms"] <= most
        assert series["s_tilde_remainder"] <= 1e-12 * series["s_tilde"]

    @pytest.mark.parametrize("hurst, p", [(6e-309, 2.0), (1e-308, 2.0), (1e-300, 1 + 1e-10)])
    def test_s_tilde_past_float_range_names_hurst(self, tmp_path, capsys, hurst, p):
        # T and X of S~ grow as 1/H, times 1 + zeta(p): here their sum passes
        # the float range, and the run wrote "s_tilde": Infinity
        code, out = run(tmp_path, "bound-growth", {"model": {"hurst": hurst}, "p": p, "u_grid": [1e300]})
        assert code == 1
        assert capsys.readouterr().err == (
            f"suptail bound-growth: error: S~ upper end for hurst = {hurst!r} must be finite, got inf\n"
        )
        assert not out.exists()

    def test_divergent_config_errors(self, tmp_path):
        payload = {"model": V_MODEL, "p": 0.9, "halfwidth": 1.0, "u_grid": [10.0]}
        code, _ = run(tmp_path, "bound-growth", payload)
        assert code == 1


class TestCovering:
    def test_oracle_below_bound(self, tmp_path):
        payload = {
            "box": {"a1": 0.0, "b1": 1.0, "a2": 0.0, "b2": 1.0, "h1": 1.0, "h2": 1.0},
            "eps": 0.5,
            "resolution": 81,
        }
        code, out = run(tmp_path, "covering", payload)
        assert code == 0
        data = json.loads((out / "covering.json").read_text())
        assert data["oracle_count"] <= data["upper_bound"]
        assert data["oracle_leq_bound"] is True

    def test_large_resolution_costs_nothing_extra(self, tmp_path):
        # 10^9 points per axis is valid input: the oracle's check looks only
        # at the grid points beside the tile boundaries
        box = {"a1": 0.0, "b1": 1.0, "a2": 0.0, "b2": 1.0}
        counts = []
        for resolution in (101, 10**9):
            (tmp_path / str(resolution)).mkdir()
            code, out = run(tmp_path / str(resolution), "covering", {"box": box, "eps": 0.5, "resolution": resolution})
            assert code == 0
            counts.append(json.loads((out / "covering.json").read_text())["oracle_count"])
        assert counts == [4, 4]

    def test_oracle_counts_distinct_grid_points(self, tmp_path):
        # no tiling passes at 1e15, where the doubles are 0.125 apart; the
        # 201 grid points are 9 distinct ones, each with its own ball
        payload = {"box": {"a1": 1e15, "b1": 1e15 + 1, "a2": 0.0, "b2": 0.0}, "eps": 0.1, "resolution": 201}
        code, out = run(tmp_path, "covering", payload)
        assert code == 0
        data = json.loads((out / "covering.json").read_text())
        assert (data["oracle_count"], data["upper_bound"], data["oracle_leq_bound"]) == (9, 11.0, True)

    @pytest.mark.parametrize("value", [80.5, True], ids=["fractional", "bool"])
    def test_non_integer_resolution_rejected(self, tmp_path, capsys, value):
        payload = {"box": {"a1": 0.0, "b1": 1.0, "a2": 0.0, "b2": 1.0}, "eps": 0.5}
        code, out = run(tmp_path, "covering", {**payload, "resolution": value})
        assert code == 1
        assert "'resolution' must be an integer >= 2" in capsys.readouterr().err
        assert not out.exists()


class TestSimulateVerify:
    PAYLOAD = {
        "field": "v",
        "model": V_MODEL,
        "box": BOX,
        "grid": {"nt": 5, "nx": 5},
        "samples": 400,
        "u_auto": {"count": 6, "max": 1.5},
        "workers": 1,
    }

    def test_small_run_passes(self, tmp_path):
        code, out = run(tmp_path, "simulate-verify", self.PAYLOAD, "--seed", "42")
        assert code == 0
        report = json.loads((out / "verify_report.json").read_text())
        assert report["passed"] is True
        assert (report["n_fail"], report["n_samples"]) == (0, 400)
        assert "necessary-condition evidence only" in report["note"]
        assert report["seed"] == 42
        lines = (out / "verify_curve.csv").read_text().splitlines()
        assert lines[1] == "u,empirical,ci_lo,ci_hi,bound,verdict"
        assert len(lines) == 2 + 6

    def test_seed_required(self, tmp_path):
        code, _ = run(tmp_path, "simulate-verify", self.PAYLOAD)
        assert code == 1

    def test_negative_seed_rejected(self, tmp_path, capsys):
        code, out = run(tmp_path, "simulate-verify", self.PAYLOAD, "--seed", "-3")
        assert code == 1
        err = capsys.readouterr().err
        assert err == "suptail simulate-verify: error: --seed must be an integer >= 0, got -3\n"
        assert not out.exists()

    @pytest.mark.parametrize("seed", [[], ["--seed", "-3"]], ids=["no-seed", "negative-seed"])
    def test_bad_block_reported_before_seed(self, tmp_path, capsys, seed):
        # the box is built when the config is read, before the seed is checked
        payload = {**self.PAYLOAD, "box": {**BOX, "a1": 1.0, "b1": 0.5}}
        code, out = run(tmp_path, "simulate-verify", payload, *seed)
        assert code == 1
        err = capsys.readouterr().err
        assert err == "suptail simulate-verify: error: box endpoints must satisfy b_i >= a_i\n"
        assert not out.exists()

    def test_zero_samples_rejected(self, tmp_path):
        payload = {**self.PAYLOAD, "samples": 0}
        code, _ = run(tmp_path, "simulate-verify", payload, "--seed", "1")
        assert code == 1

    @pytest.mark.parametrize("value", [3.7, True], ids=["fractional", "bool"])
    @pytest.mark.parametrize("key", ["samples", "grid.nt", "grid.nx", "workers"])
    def test_non_integer_sizes_rejected(self, tmp_path, capsys, key, value):
        payload = {**self.PAYLOAD, "grid": dict(self.PAYLOAD["grid"])}
        block, _, name = key.rpartition(".")
        (payload[block] if block else payload)[name] = value
        code, out = run(tmp_path, "simulate-verify", payload, "--seed", "1")
        assert code == 1
        where = f"{block} '{name}'" if block else f"'{name}'"
        assert f"{where} must be an integer >= 1, got {value!r}" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_grid_key_rejected(self, tmp_path):
        payload = {**self.PAYLOAD, "grid": {"nt": 5, "nx": 5, "nz": 5}}
        with pytest.raises(ConfigError, match=r"unknown keys \['nz'\] in grid"):
            load_config(write_config(tmp_path, payload), "simulate-verify")

    def test_worker_count_byte_identical(self, tmp_path):
        # three sampling blocks, and u values the sampled suprema reach; on
        # BOX, on a box from t = 0 (a1 = 0: the grid leaves out t = 0) and
        # on a degenerate time axis (a1 = b1: one time point)
        payload = {k: v for k, v in self.PAYLOAD.items() if k != "u_auto"}
        payload.update(samples=1300, u_grid=[0.5, 1.0, 1.5, 2.0])
        for name, box in [("box", BOX), ("time-zero", {**BOX, "a1": 0.0}),
                          ("degenerate", {**BOX, "a1": 0.5, "b1": 0.5})]:
            outs = []
            for workers in (1, 3):
                cfg = write_config(tmp_path, {**payload, "box": box, "workers": workers}, f"{name}{workers}.json")
                outs.append(tmp_path / f"{name}{workers}")
                assert main(["simulate-verify", "--config", cfg, "--out", str(outs[-1]), "--seed", "7"]) == 0
            for output in ("verify_curve.csv", "verify_report.json"):
                assert (outs[0] / output).read_bytes() == (outs[1] / output).read_bytes(), (name, output)

    def test_degenerate_time_axis_is_one_point(self, tmp_path):
        # a1 = b1: six repeated times would make the covariance exactly singular
        payload = {k: v for k, v in self.PAYLOAD.items() if k != "u_auto"}
        payload.update(box={**BOX, "a1": 0.5, "b1": 0.5}, u_grid=[0.5, 1.0, 1.5])
        rows = {}
        for nt in (6, 1):
            (tmp_path / str(nt)).mkdir()
            payload["grid"] = {"nt": nt, "nx": 6}
            code, out = run(tmp_path / str(nt), "simulate-verify", payload, "--seed", "7")
            assert code == 0
            rows[nt] = json.loads((out / "verify_report.json").read_text())["rows"]
        assert rows[6] == rows[1]
        assert rows[1][0]["empirical"] > 0.0

    def test_fixed_theta_bound_matches_bound_sup(self, tmp_path):
        # the bound column is bound-sup's curve at theta*, row for row
        payload = {k: v for k, v in self.PAYLOAD.items() if k != "u_auto"}
        payload.update(u_grid=[60.0, 80.0, 100.0])
        sup_payload = {k: payload[k] for k in ("field", "model", "box", "u_grid")}
        sup_cfg = write_config(tmp_path, sup_payload, "sup.json")
        assert main(["bound-sup", "--config", sup_cfg, "--out", str(tmp_path / "sup")]) == 0
        code, out = run(tmp_path, "simulate-verify", payload, "--seed", "3")
        assert code == 0
        curve = [r["bound"] for r in json.loads((tmp_path / "sup" / "bound_sup.json").read_text())["curve"]]
        verify = [r["bound"] for r in json.loads((out / "verify_report.json").read_text())["rows"]]
        inputs = v_bound_inputs(AnisotropicBox(**BOX), SheModel(**V_MODEL))
        np.testing.assert_equal(verify, curve)
        np.testing.assert_equal(curve, [supbound.optimize_theta(u, inputs)[1] for u in payload["u_grid"]])
        assert math.isnan(curve[0]) and curve[1] > curve[2] > 0.0  # u = 60 lies below the threshold

    def test_overflowing_distance_rejected(self, tmp_path, capsys):
        # |x - y| = 1e300 squares past the float range, and the Kummer terms
        # give inf - inf: the NaN covariance used to sample NaN suprema, which
        # the tail counted above every u, so each row read bound 0.0, FAIL
        payload = {"field": "v", "model": V_MODEL, "box": {**BOX, "b2": 1e300}, "grid": {"nt": 3, "nx": 3},
                   "samples": 10, "u_grid": [1e100, 1e200, 1e300]}
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out = run(tmp_path, "simulate-verify", payload, "--seed", "1")
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("suptail simulate-verify: error: covariance is not finite")
        assert "largest |x - y| is 1e+300" in err
        assert not out.exists()

    def test_coinciding_grid_points_named(self, tmp_path, capsys):
        # b2 = 1e-300: the three space points coincide in the covariance, which
        # Cholesky rejects; the error named neither the grid nor the box
        payload = {"field": "v", "model": V_MODEL, "box": {**BOX, "b2": 1e-300}, "grid": {"nt": 3, "nx": 3},
                   "samples": 10, "u_grid": [1.0]}
        code, out = run(tmp_path, "simulate-verify", payload, "--seed", "1")
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("suptail simulate-verify: error: covariance of the grid nt = 3, nx = 3 on the box "
                              "[0.1, 1.0] x [0.0, 1e-300] not positive definite: ")
        assert not out.exists()

    def test_memory_error_is_one_line(self, tmp_path, capsys, monkeypatch):
        # a grid too large for memory raises MemoryError, raised here without allocating
        def out_of_memory(*args):
            raise MemoryError("Unable to allocate 7.28 TiB for an array")

        monkeypatch.setattr(sim, "covariance_matrix", out_of_memory)
        code, out = run(tmp_path, "simulate-verify", self.PAYLOAD, "--seed", "1")
        assert code == 1
        assert capsys.readouterr().err == (
            "suptail simulate-verify: error: Unable to allocate 7.28 TiB for an array\n"
        )
        assert not out.exists()

    def test_omega_field_rejected(self, tmp_path, capsys):
        # the sampler covers V only; omega's bound comes from bound-sup
        payload = {**self.PAYLOAD, "field": "omega"}
        code, out = run(tmp_path, "simulate-verify", payload, "--seed", "1")
        assert code == 1
        assert "'omega'" in capsys.readouterr().err
        assert not out.exists()


class TestUAutoValidation:
    @pytest.mark.parametrize("command", ["bound-sup", "simulate-verify"])
    @pytest.mark.parametrize(
        "u_auto, key",
        [
            ({"max": 0.5, "count": 4}, "max"),
            ({"max": 2.0, "count": 0}, "count"),
            ({"max": 2.0, "count": 2.7}, "count"),
            ({"max": 2.0, "count": -3}, "count"),
            # an integer beyond the float range is not a finite number
            ({"max": 10**400, "count": 4}, "max"),
            # a float whose product with the minimal threshold overflows
            ({"max": 1e307, "count": 4}, "max"),
        ],
        ids=[
            "max-below-0.9",
            "count-zero",
            "count-fractional",
            "count-negative",
            "max-huge-int",
            "max-overflows-threshold",
        ],
    )
    def test_invalid_u_auto_rejected(self, tmp_path, capsys, command, u_auto, key):
        payload = {**TestSimulateVerify.PAYLOAD, "u_auto": u_auto}
        if command == "bound-sup":
            payload = {k: payload[k] for k in ("field", "model", "box", "u_auto")}
        code, out = run(tmp_path, command, payload, "--seed", "1")
        assert code == 1
        assert f"u_auto '{key}'" in capsys.readouterr().err
        assert not out.exists()


class TestNonFiniteUGrid:
    # a comparison with nan is always false, so nan used to pass the
    # strictly-increasing check and come out as a row (u nan, empirical 0.0)
    PAYLOADS = {
        "bound-sup": {"field": "v", "model": MODEL, "box": BOX},
        "bound-growth": {"model": V_MODEL},
        "simulate-verify": {
            k: v for k, v in TestSimulateVerify.PAYLOAD.items() if k != "u_auto"
        },
    }

    @pytest.mark.parametrize("command", sorted(PAYLOADS))
    @pytest.mark.parametrize(
        "bad", [math.nan, math.inf, -math.inf, 10**400], ids=["nan", "inf", "-inf", "huge-int"]
    )
    def test_rejected(self, tmp_path, capsys, command, bad):
        payload = {**self.PAYLOADS[command], "u_grid": [80.0, bad, 200.0]}
        code, out = run(tmp_path, command, payload, "--seed", "1")
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"suptail {command}: error: u_grid entries must be finite, got ")
        assert err.endswith(" at index 1\n")
        assert err.count("\n") == 1
        assert not out.exists()


class TestHugeU:
    # phi*(x) = |x|^beta / beta overflowed past u of about 1e154 at H = 1/2 on
    # BOX: the command died with an OverflowError traceback, although at
    # u = 1e150 the row already reads bound 0.0, VALID; past 9e307, where
    # gamma*beta u overflows, theta* read 0 and the command exited 1
    def test_bound_sup(self, tmp_path):
        payload = {"field": "v", "model": MODEL, "box": BOX, "u_grid": [80.0, 1e150, 1e155, 1e200, 1.5e308]}
        code, out = run(tmp_path, "bound-sup", payload)
        assert code == 0
        rows = json.loads((out / "bound_sup.json").read_text())["curve"]
        assert rows[0]["validity"] == "VALID"  # u = 80 lies above the threshold 70.6
        assert [(r["bound"], r["validity"]) for r in rows[1:]] == [(0.0, "VALID")] * 4

    def test_bound_sup_u_auto(self, tmp_path):
        payload = {"field": "v", "model": MODEL, "box": BOX, "u_auto": {"max": 1e300}}
        code, out = run(tmp_path, "bound-sup", payload)
        assert code == 0
        rows = json.loads((out / "bound_sup.json").read_text())["curve"]
        assert rows[-1]["u"] > 1e301
        assert [r["validity"] for r in rows] == ["INVALID"] + ["VALID"] * 11
        assert rows[-1]["bound"] == 0.0

    def test_bound_growth(self, tmp_path):
        payload = {"model": V_MODEL, "u_grid": [900.0, 1e150, 1e200, 1.5e308]}
        code, out = run(tmp_path, "bound-growth", payload)
        assert code == 0
        rows = json.loads((out / "bound_growth.json").read_text())["curve"]
        for row in rows[1:]:
            assert (row["bound"], row["validity"]) == (0.0, "VALID")
            assert 0.0 < row["theta"] < 1.0

    def test_simulate_verify(self, tmp_path):
        payload = {**TestSimulateVerify.PAYLOAD, "samples": 100, "u_grid": [80.0, 1e155]}
        del payload["u_auto"]
        code, out = run(tmp_path, "simulate-verify", payload, "--seed", "1")
        assert code == 0
        rows = json.loads((out / "verify_report.json").read_text())["rows"]
        assert (rows[1]["bound"], rows[1]["verdict"]) == (0.0, "PASS")


class TestScalarValues:
    # a bare float() let NaN through every range check and coerced strings:
    # these configs exited 0 (or failed with an unrelated message)
    GENERIC = {"field": "generic", "box": BOX, "u_grid": [80.0], "fam": 2.0, "eps0": 1.0,
               "profile": {"scale": 1.0, "exponent": 0.5}}
    NEGATIVE_TIME_BOX = {**BOX, "a1": -2.0, "b1": -1.0}
    CASES = {
        "halfwidth-nan": ("bound-growth", {"model": V_MODEL, "halfwidth": math.nan, "u_grid": [900.0]},
                          "'halfwidth' must be finite, got nan"),
        "halfwidth-inf": ("bound-growth", {"model": V_MODEL, "halfwidth": math.inf, "u_grid": [900.0]},
                          "'halfwidth' must be finite, got inf"),
        # series_tol bounded the reported remainders and changed no value
        "series_tol-unknown": ("bound-growth", {"model": V_MODEL, "series_tol": 1e-6, "u_grid": [900.0]},
                               "unknown keys ['series_tol'] in config for bound-growth; "
                               "allowed: ['halfwidth', 'model', 'p', 'u_grid']"),
        "p-string": ("bound-growth", {"model": V_MODEL, "p": "2", "u_grid": [900.0]},
                     "'p' must be a number, got '2'"),
        "p-bool": ("bound-growth", {"model": V_MODEL, "p": True, "u_grid": [900.0]},
                   "'p' must be a number, got True"),
        # every curve is at theta*: a theta, whatever its value, is an unknown key
        "sup-theta-nan": ("bound-sup", {"field": "v", "model": MODEL, "box": BOX, "theta": math.nan,
                                        "u_grid": [80.0]},
                          "unknown keys ['theta'] in config for bound-sup with field 'v'; "
                          "allowed: ['box', 'field', 'model', 'u_auto', 'u_grid']"),
        "sup-theta-string": ("bound-sup", {**GENERIC, "theta": "optimize"},
                             "unknown keys ['theta'] in config for bound-sup with field 'generic'; "
                             "allowed: ['box', 'eps0', 'fam', 'field', 'profile', 'u_auto', 'u_grid']"),
        "verify-theta-nan": ("simulate-verify", {"model": V_MODEL, "box": BOX, "samples": 10,
                                                 "theta": math.nan, "u_grid": [80.0]},
                             "unknown keys ['theta'] in config for simulate-verify with field 'v'; "
                             "allowed: ['box', 'field', 'grid', 'model', 'samples', 'u_auto', 'u_grid', 'workers']"),
        "sup-theta-above-cap": ("bound-sup", {"field": "omega", "model": MODEL, "box": BOX, "theta": 5.0,
                                              "u_grid": [80.0]},
                                "unknown keys ['theta'] in config for bound-sup with field 'omega'; "
                                "allowed: ['box', 'field', 'model', 'u_auto', 'u_grid']"),
        "verify-theta-negative": ("simulate-verify", {"model": V_MODEL, "box": BOX, "samples": 10,
                                                      "theta": -1, "u_auto": {"count": 4}},
                                  "unknown keys ['theta'] in config for simulate-verify with field 'v'; "
                                  "allowed: ['box', 'field', 'grid', 'model', 'samples', 'u_auto', 'u_grid', 'workers']"),
        # u_grid and u_auto exclude each other only where both are keys: these
        # exited 1 with "'u_grid' and 'u_auto' are exclusive"
        "constants-u_auto-unknown": ("constants", {"model": MODEL, "u_grid": [80.0], "u_auto": {"count": 4}},
                                     "unknown keys ['u_auto', 'u_grid'] in config for constants; "
                                     "allowed: ['model']"),
        "growth-u_auto-unknown": ("bound-growth", {"model": V_MODEL, "u_grid": [900.0], "u_auto": {"count": 4}},
                                  "unknown keys ['u_auto'] in config for bound-growth; "
                                  "allowed: ['halfwidth', 'model', 'p', 'u_grid']"),
        "covering-u_auto-unknown": ("covering", {"box": BOX, "eps": 0.5, "u_grid": [80.0],
                                                 "u_auto": {"count": 4}},
                                    "unknown keys ['u_auto', 'u_grid'] in config for covering; "
                                    "allowed: ['box', 'eps', 'resolution']"),
        # a covering factor past the float range raised OverflowError (2.0 ** 2000,
        # also where the oracle count is 1) or ZeroDivisionError (1e-10 ** 100 == 0.0)
        "covering-h1-tiny": ("covering", {"box": {**BOX, "h1": 0.0005}, "eps": 0.5},
                             "covering factor of axis 1 overflows the float range: h1 = 0.0005, eps = 0.5"),
        "covering-h1-tiny-eps-large": ("covering", {"box": {**BOX, "h1": 0.0005}, "eps": 20.0},
                                       "covering factor of axis 1 overflows the float range: h1 = 0.0005, "
                                       "eps = 20.0"),
        "covering-eps-underflow": ("covering", {"box": {**BOX, "h1": 0.01}, "eps": 1e-10},
                                   "covering factor of axis 1 overflows the float range: h1 = 0.01, eps = 1e-10"),
        "covering-eps-underflow-space": ("covering", {"box": {**BOX, "h2": 0.01}, "eps": 1e-10},
                                         "covering factor of axis 2 overflows the float range: h2 = 0.01, "
                                         "eps = 1e-10"),
        # a box side past the float range: bound-sup wrote an all-INVALID
        # curve, and bound-growth a series block with "s_tilde": Infinity
        "sup-side-overflow": ("bound-sup", {"field": "v", "model": MODEL, "box": {**BOX, "a2": -1e308, "b2": 1e308},
                                            "u_grid": [80.0, 1e300]},
                              "box side b2 - a2 must be finite, got inf from [-1e+308, 1e+308]"),
        # the strip [-A, A] of a finite halfwidth A = 1e308 is 2e308 wide: the
        # error named the box side b2 - a2, which the config does not write
        "growth-side-overflow": ("bound-growth", {"model": V_MODEL, "halfwidth": 1e308, "u_grid": [900.0]},
                                 "strip width 2 * halfwidth for halfwidth = 1e+308 must be finite, got inf"),
        "eps-nan": ("covering", {"box": BOX, "eps": math.nan}, "'eps' must be finite, got nan"),
        "eps-string": ("covering", {"box": BOX, "eps": "0.5"}, "'eps' must be a number, got '0.5'"),
        "eps0-nan": ("bound-sup", {**GENERIC, "eps0": math.nan}, "'eps0' must be finite, got nan"),
        "fam-string": ("bound-sup", {**GENERIC, "fam": "2"}, "'fam' must be a number, got '2'"),
        "scale-nan": ("bound-sup", {**GENERIC, "profile": {"scale": math.nan, "exponent": 0.5}},
                      "profile 'scale' must be finite, got nan"),
        "exponent-inf": ("bound-sup", {**GENERIC, "profile": {"scale": 1.0, "exponent": -math.inf}},
                         "profile 'exponent' must be finite, got -inf"),
        "u_grid-strings": ("bound-sup", {"field": "v", "model": MODEL, "box": BOX,
                                         "u_grid": ["80", "2e2"]},
                           "u_grid entries must be a number, got '80' at index 0"),
        "u_grid-bool": ("bound-growth", {"model": V_MODEL, "u_grid": [900.0, True]},
                        "u_grid entries must be a number, got True at index 1"),
        # a string was read character by character: "got '8' at index 0"
        "u_grid-string": ("bound-growth", {"model": V_MODEL, "u_grid": "80"},
                          "'u_grid' must be a list of numbers, got '80'"),
        # model and box entries: a NaN time axis counted as degenerate and
        # printed VALID rows, and True was read as 1.0
        "sup-a1-nan": ("bound-sup", {"field": "v", "model": MODEL, "box": {**BOX, "a1": math.nan},
                                     "u_grid": [30.0]}, "box 'a1' must be finite, got nan"),
        "covering-b2-nan": ("covering", {"box": {**BOX, "b2": math.nan}, "eps": 0.5},
                            "box 'b2' must be finite, got nan"),
        # the oracle's grid needs two points per axis: resolution 1 passed the
        # schema and failed in covering_oracle, after the covering bound had run
        "covering-resolution-1": ("covering", {"box": BOX, "eps": 0.5, "resolution": 1},
                                  "'resolution' must be an integer >= 2, got 1"),
        # a box key or model key that the command does not read, alone
        "sup-h1-unknown": ("bound-sup", {"field": "v", "model": MODEL, "box": {**BOX, "h1": 0.5},
                                         "u_grid": [80.0]},
                           "unknown keys ['h1'] in box; allowed: ['a1', 'a2', 'b1', 'b2']"),
        "growth-alpha-unknown": ("bound-growth", {"model": {**V_MODEL, "alpha": 1.5}, "u_grid": [900.0]},
                                 "unknown keys ['alpha'] in model; allowed: ['hurst']"),
        # both heat fields live at t >= 0: this omega box wrote a VALID bound
        # of 1.76e-302 at u = 100
        "sup-v-negative-time": ("bound-sup", {"field": "v", "model": MODEL, "box": NEGATIVE_TIME_BOX,
                                              "u_grid": [30.0, 100.0]},
                                "time axis of the box must be nonnegative"),
        "sup-omega-negative-time": ("bound-sup", {"field": "omega", "model": MODEL, "box": NEGATIVE_TIME_BOX,
                                                  "u_grid": [30.0, 100.0]},
                                    "time axis of the box must be nonnegative"),
        "verify-negative-time": ("simulate-verify", {"model": V_MODEL, "box": NEGATIVE_TIME_BOX, "samples": 10,
                                                     "grid": {"nt": 3, "nx": 3}, "u_grid": [30.0, 100.0]},
                                 "time axis of the box must be nonnegative"),
        "sup-a1-bool": ("bound-sup", {"field": "v", "model": MODEL, "box": {**BOX, "a1": True},
                                      "u_grid": [80.0]}, "box 'a1' must be a number, got True"),
        # a list field failed with "unhashable type: 'list'"
        "sup-field-list": ("bound-sup", {"field": ["v"], "model": MODEL, "box": BOX, "u_grid": [80.0]},
                           "'field' must be one of ['generic', 'omega', 'v'], got ['v']"),
        "sup-field-null": ("bound-sup", {"field": None, "model": MODEL, "box": BOX, "u_grid": [80.0]},
                           "'field' must be one of ['generic', 'omega', 'v'], got None"),
        "verify-field-int": ("simulate-verify", {"field": 1, "model": V_MODEL, "box": BOX, "samples": 10,
                                                 "u_grid": [80.0]},
                             "'field' must be one of ['v'], got 1"),
        # a_h and c_v were nan at 5e-324, and at 1e-310 the error named the profile scale;
        # one rule rejects every hurst whose 1/hurst is not finite
        "hurst-subnormal": ("constants", {"model": {**MODEL, "hurst": 5e-324}},
                            "hurst must lie in (0, 1/2] and have a finite 1/hurst, got 5e-324"),
        "sup-hurst-tiny": ("bound-sup", {"field": "v", "model": {**MODEL, "hurst": 1e-310}, "box": BOX,
                                         "u_grid": [80.0]},
                           "hurst must lie in (0, 1/2] and have a finite 1/hurst, got 1e-310"),
        # an entropy constant c1 past the float range named the box's exponents
        # (H/2, H) or (rho/2, rho) and the profile scale c_V, values no config writes
        "sup-v-c1-overflow": ("bound-sup", {"field": "v", "model": {**MODEL, "hurst": 1e-308}, "box": BOX,
                                            "u_grid": [80.0]},
                              "entropy constant c1 of V for hurst = 1e-308 must be finite, got inf"),
        "verify-c1-overflow": ("simulate-verify", {"model": {"hurst": 2e-308}, "box": BOX, "samples": 10,
                                                   "u_grid": [80.0]},
                               "entropy constant c1 of V for hurst = 2e-308 must be finite, got inf"),
        "sup-omega-c1-overflow": ("bound-sup", {"field": "omega", "model": {**MODEL, "rho": 1e-308}, "box": BOX,
                                                "u_grid": [80.0]},
                                  "entropy constant c1 of omega for rho = 1e-308, scale 1.4142135623730951 and "
                                  "box (0.1, 1.0, 0.0, 1.0) must be finite, got inf"),
        "holder_const-nan": ("constants", {"model": {**MODEL, "holder_const": math.nan}},
                             "model 'holder_const' must be finite, got nan"),
        "det_const-inf": ("bound-sup", {"field": "omega", "model": {**MODEL, "det_const": math.inf},
                                        "box": BOX, "u_grid": [80.0]},
                          "model 'det_const' must be finite, got inf"),
        "init_sup-bool": ("bound-sup", {"field": "omega", "model": {**MODEL, "init_sup": True},
                                        "box": BOX, "u_grid": [80.0]},
                          "model 'init_sup' must be a number, got True"),
        # finite, positive inputs whose eps0 overflows or whose cap underflows:
        # both exited 1 with "theta = 0.0 is not in (0, theta_cap) = (0, 0.0)"
        "sup-omega-eps0-overflow": ("bound-sup", {"field": "omega", "box": BOX, "u_grid": [80.0],
                                                  "model": {**MODEL, "init_sup": 1e300, "det_const": 1e300}},
                                    "omega's eps0 = init_sup * det_const must be finite, got inf"),
        # omega's modulus scale c_omega c_phi and the entropy constant c1 past
        # the float range: the errors read "scale must be finite, got inf" and
        # "c1 must be finite, got inf", names that no config writes
        "sup-omega-scale-overflow": ("bound-sup", {"field": "omega", "box": BOX, "u_grid": [80.0],
                                                   "model": {**MODEL, "holder_const": 1e100, "det_const": 1e300}},
                                     "omega's scale c_omega * det_const for holder_const = 1e+100 and rho = 0.5 "
                                     "must be finite, got inf"),
        # c_omega itself past the float range: constants wrote
        # "omega_holder_constant": Infinity, and omega's error named its scale;
        # every model command reads c_omega, the v field of bound-sup too
        "constants-c_omega-overflow": ("constants", {"model": {"hurst": 0.5, "holder_const": 1e300}},
                                       "c_omega for holder_const = 1e+300 and rho = 1.0 must be finite, got inf"),
        "sup-omega-c_omega-overflow": ("bound-sup", {"field": "omega", "box": BOX, "u_grid": [80.0],
                                                     "model": {**MODEL, "holder_const": 1e300}},
                                       "c_omega for holder_const = 1e+300 and rho = 0.5 must be finite, got inf"),
        "sup-v-c_omega-overflow": ("bound-sup", {"field": "v", "box": BOX, "u_grid": [80.0],
                                                 "model": {**MODEL, "holder_const": 1e300}},
                                   "c_omega for holder_const = 1e+300 and rho = 0.5 must be finite, got inf"),
        "sup-generic-c1-overflow": ("bound-sup", {**GENERIC, "profile": {"scale": 1.0, "exponent": 1.0},
                                                  "box": {**BOX, "h1": 1e-308, "h2": 1.0}},
                                    "entropy constant c1 of box (0.1, 1.0, 0.0, 1.0, 1e-308, 1.0) and profile "
                                    "(1.0, 1.0) must be finite, got inf"),
        # gamma*beta is no config key: the error named it alone
        "sup-generic-gamma-beta": ("bound-sup", GENERIC,
                                   "the entropy integral diverges: profile exponent 0.5 times beta = 2.0 of "
                                   "alpha = 2.0 is gamma*beta = 1.0 <= 1"),
        "sup-generic-cap-underflow": ("bound-sup", {**GENERIC, "eps0": 1e300,
                                                    "profile": {"scale": 1e-300, "exponent": 1.0},
                                                    "box": {"a1": 0.0, "b1": 1.0, "a2": 0.0, "b2": 1.0,
                                                            "h1": 0.5, "h2": 0.5}},
                                      "cap min(1, gamma0/eps0) for eps0 = 1e+300, profile scale 1e-300 "
                                      "and box diameter 2.0 must be positive, got 0.0"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_rejected_with_key_named(self, tmp_path, capsys, case):
        command, payload, message = self.CASES[case]
        code, out = run(tmp_path, command, payload, "--seed", "1")
        assert code == 1
        err = capsys.readouterr().err
        assert err == f"suptail {command}: error: {message}\n"
        assert not out.exists()

    # the hurst rule's floor: 1/hurst is inf here and finite at the next double up
    HURST_FLOOR = 5.562684646268003e-309

    @pytest.mark.parametrize("command, payload", [
        ("constants", {}),
        ("bound-sup", {"field": "v", "box": BOX, "u_grid": [80.0]}),
        ("bound-growth", {"u_grid": [900.0]}),
        ("simulate-verify", {"box": BOX, "samples": 10, "u_grid": [80.0]}),
    ], ids=["constants", "bound-sup", "bound-growth", "simulate-verify"])
    def test_hurst_floor_rejected_naming_hurst(self, tmp_path, capsys, command, payload):
        assert 1.0 / self.HURST_FLOOR == math.inf
        code, out = run(tmp_path, command, {"model": {"hurst": self.HURST_FLOOR}, **payload}, "--seed", "1")
        assert code == 1
        assert capsys.readouterr().err == (f"suptail {command}: error: hurst must lie in (0, 1/2] and have a "
                                           f"finite 1/hurst, got {self.HURST_FLOOR!r}\n")
        assert not out.exists()

    def test_constants_finite_above_hurst_floor(self, tmp_path):
        def reject(name):
            raise AssertionError(f"constants.json holds {name}")

        code, out = run(tmp_path, "constants", {"model": {"hurst": math.nextafter(self.HURST_FLOOR, 1.0)}})
        assert code == 0
        payload = json.loads((out / "constants.json").read_text(), parse_constant=reject)
        assert all(0.0 < value < math.inf for value in payload["constants"].values())

    def test_integers_read_as_floats(self, tmp_path):
        payload = {"box": {**BOX, "h1": 1.0, "h2": 1.0}, "eps": 1, "resolution": 21}
        code, out = run(tmp_path, "covering", payload)
        assert code == 0
        assert json.loads((out / "covering.json").read_text())["eps"] == 1.0
        payload = {"model": V_MODEL, "p": 2, "halfwidth": 1, "u_grid": [900, 1500]}
        code, out = run(tmp_path, "bound-growth", payload)
        assert code == 0
        rows = json.loads((out / "bound_growth.json").read_text())["curve"]
        assert [r["u"] for r in rows] == [900.0, 1500.0]


class TestConfigHash:
    # the hash is taken from the config as written, not from the values read
    # from it: integer entries hash as integers, not as the floats they are read as
    @pytest.mark.parametrize(
        "command, payload, name, digest",
        [
            ("bound-growth", {"model": V_MODEL, "p": 2, "halfwidth": 1, "u_grid": [900, 1500]},
             "bound_growth.json", "42923b39e0f6c1e455fb02d0a95cfb30df1f8181e9402f9c1a0f7703a43fe30e"),
            ("covering", {"box": {"a1": 0, "b1": 1, "a2": 0, "b2": 1}, "eps": 0.5},
             "covering.json", "c47c309784a5e3832eb5c762b1991d9290e26a9d9613b4c97c74b0d3c5bbfeb0"),
        ],
        ids=["bound-growth", "covering"],
    )
    def test_integer_entries_keep_their_digest(self, tmp_path, command, payload, name, digest):
        code, out = run(tmp_path, command, payload)
        assert code == 0
        assert json.loads((out / name).read_text())["config_hash"] == digest

    # unicode strings, nested blocks, a workers key, large integers and floats
    CONFIGS = [
        {"model": {"hurst": 0.35}},
        {"note": "Ω ψ ü 日本 \u00e9 😀", "model": {"hurst": 0.5, "name": "Zürich"}},
        {"field": "v", "model": V_MODEL, "box": BOX, "grid": {"nt": 6, "nx": 6}, "u_auto": {"count": 4}},
        {"model": V_MODEL, "box": BOX, "samples": 300, "workers": 3},
        {"big": 10**30, "neg": -(2**70), "list": [2**64, 0, -1], "nested": {"deeper": {"n": 10**40}}},
        {"p": 1.5, "tiny": 5e-324, "max": 1.7976931348623157e308, "third": 1 / 3, "zero": -0.0},
    ]

    @staticmethod
    def sha256_of_canonical_json(cfg):
        semantic = {k: v for k, v in cfg.items() if k != "workers"}
        return hashlib.sha256(json.dumps(semantic, sort_keys=True, separators=(",", ":")).encode()).hexdigest()

    def test_digest_is_sha256_of_canonical_config(self):
        assert [config_hash(cfg) for cfg in self.CONFIGS] == [
            self.sha256_of_canonical_json(cfg) for cfg in self.CONFIGS
        ]
        workers = self.CONFIGS[3]
        assert config_hash(workers) == config_hash({k: v for k, v in workers.items() if k != "workers"})
        if sys.implementation.name == "cpython":  # the built-in module, not OpenSSL's
            assert cli.sha256.__module__ in ("_sha256", "_sha2")

    def test_hashlib_fallback_gives_the_same_digest(self):
        # an interpreter without the built-in modules takes sha256 from hashlib
        probe = (
            "import json, sys\n"
            "sys.modules['_sha256'] = sys.modules['_sha2'] = None\n"
            "import hashlib, suptail.cli\n"
            "assert suptail.cli.sha256 is hashlib.sha256\n"
            "print(json.dumps([suptail.cli.config_hash(cfg) for cfg in json.loads(sys.argv[1])]))\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(suptail.__file__).resolve().parents[1])}
        done = subprocess.run(
            [sys.executable, "-c", probe, json.dumps(self.CONFIGS)],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout) == [self.sha256_of_canonical_json(cfg) for cfg in self.CONFIGS]


class TestOutDirectory:
    # the --out directory as the operating system takes it
    def test_empty_out_is_working_directory(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path, {"model": MODEL})
        monkeypatch.chdir(tmp_path)
        assert main(["constants", "--config", cfg, "--out="]) == 0
        assert json.loads((tmp_path / "constants.json").read_text())["constants"]

    def test_nested_out_made_with_parents(self, tmp_path):
        cfg = write_config(tmp_path, {"model": MODEL})
        out = tmp_path / "a" / "b" / "c"
        assert main(["constants", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "constants.json").is_file()

    @pytest.mark.parametrize("name, code", [("file", errno.EEXIST), ("file/sub", errno.ENOTDIR)])
    def test_out_at_a_file_exits_1(self, tmp_path, capsys, name, code):
        cfg = write_config(tmp_path, {"model": MODEL})
        (tmp_path / "file").write_text("")
        out = str(tmp_path / name)
        assert main(["constants", "--config", cfg, "--out", out]) == 1
        err = capsys.readouterr().err
        assert err == f"suptail constants: error: [Errno {code}] {os.strerror(code)}: {out!r}\n"


def test_write_csv_cells(tmp_path):
    # a NumPy scalar, nan, inf, an int and a verdict, after the hash line and the header
    meta = {"config_hash": "ab12", "seed": 7}
    rows = [(0.1, np.float64(0.2), math.nan, math.inf, 3, "PASS")]
    cli.write_csv(str(tmp_path), "curve.csv", ["u", "a", "b", "c", "d", "verdict"], rows, meta)
    # every line ends in LF alone
    data = (tmp_path / "curve.csv").read_bytes()
    assert data == b"# config_hash=ab12 seed=7\nu,a,b,c,d,verdict\n0.1,0.2,nan,inf,3,PASS\n"


class TestBoxAtTimeZero:
    @pytest.mark.parametrize("command", ["bound-sup", "simulate-verify"])
    def test_rejected_naming_b1(self, tmp_path, capsys, command):
        # eps0 = A(H) b1^(H/2) is 0 here; the error named 'eps0', a key a v config cannot have
        payload = {"field": "v", "model": V_MODEL, "box": {**BOX, "a1": 0.0, "b1": 0.0},
                   "u_grid": [80.0]}
        if command == "simulate-verify":
            payload.update(grid={"nt": 3, "nx": 3}, samples=10)
        code, out = run(tmp_path, command, payload, "--seed", "1")
        assert code == 1
        assert capsys.readouterr().err == (
            f"suptail {command}: error: box 'b1' must be positive for V: "
            "the box lies at t = 0, where V is 0\n"
        )
        assert not out.exists()

    def test_grid_at_time_zero_only_rejected(self, tmp_path, capsys):
        # nt = 1 from a1 = 0 puts every grid point at t = 0, which make_grid leaves out
        payload = {**TestSimulateVerify.PAYLOAD, "box": {**BOX, "a1": 0.0}, "grid": {"nt": 1, "nx": 6}}
        code, out = run(tmp_path, "simulate-verify", payload, "--seed", "1")
        assert code == 1
        assert capsys.readouterr().err == (
            "suptail simulate-verify: error: the grid's times lie at t = 0 only, where V is 0: "
            "a1 = 0.0, b1 = 1.0, nt = 1\n"
        )
        assert not out.exists()


def u_grid_linspace(count, span, thr):
    """The u_auto grid as np.linspace and np.where build it: the oracle."""
    fracs = np.linspace(0.9, span, count)
    half = 0.5 * (span - 0.9) / (count - 1)
    dist = fracs[1:] - 1.0
    fracs[1:] += np.where(np.abs(dist) < half, np.where(dist > 0.0, half, -half), 0.0)
    return [float(f * thr) for f in fracs]


def test_u_grid_matches_linspace_bit_for_bit():
    inputs = v_bound_inputs(AnisotropicBox(**BOX), SheModel(hurst=0.35))
    thr = supbound.min_threshold(inputs)
    nudged = 0
    for count in range(2, 65):
        spans = [0.95, 1.0, 1.0 + 1e-9, 1.1, 1.3, 2, 2.0, 3.7, 7, 100.0]
        # spans that put entry k on the threshold, or within half a step of it
        for k in {1, max(1, count // 2), count - 1} - {0}:
            spans += [0.9 + 0.1 * (count - 1) / (k + f) for f in (-0.5, -0.49, -0.25, 0.0, 0.25, 0.49)]
        for span in spans:
            if not span > 0.9:
                continue
            us = _u_grid({"u_auto": {"count": count, "max": span}}, inputs)
            expected = u_grid_linspace(count, span, thr)
            assert [u.hex() for u in us] == [u.hex() for u in expected], (count, span)
            plain = np.linspace(0.9, span, count) * thr
            nudged += sum(u != float(p) for u, p in zip(us, plain))
    assert nudged > 100  # the half-step moves are exercised, not just the spacing


class TestUGridUAutoExclusive:
    @pytest.mark.parametrize("command", ["bound-sup", "simulate-verify"])
    def test_both_keys_rejected(self, tmp_path, capsys, command):
        # an invalid u_auto next to u_grid used to be ignored without a word
        payload = {**TestSimulateVerify.PAYLOAD, "u_grid": [80.0, 100.0], "u_auto": {"count": 0}}
        if command == "bound-sup":
            payload = {k: payload[k] for k in ("field", "model", "box", "u_grid", "u_auto")}
        code, out = run(tmp_path, command, payload, "--seed", "1")
        assert code == 1
        assert "'u_grid' and 'u_auto' are exclusive" in capsys.readouterr().err
        assert not out.exists()


# One valid config of each (command, field) whose schema has a model, box or
# profile block, and the value type load_config builds from each block.
VALUE_TYPES = {"model": SheModel, "box": AnisotropicBox, "profile": HolderProfile}
VALUE_CONFIGS = {
    ("constants", None): {"model": MODEL},
    ("bound-sup", "v"): {"field": "v", "model": MODEL, "box": BOX, "u_grid": [100.0]},
    ("bound-sup", "omega"): {"field": "omega", "model": {**MODEL, "alpha": 1.5}, "box": BOX, "u_grid": [100.0]},
    ("bound-sup", "generic"): {"field": "generic", "fam": 2.0, "eps0": 1.0, "profile": {"scale": 2.0, "exponent": 0.75},
                               "box": {**BOX, "h1": 0.5, "h2": 0.25}, "u_grid": [100.0]},
    ("bound-growth", None): {"model": {"hurst": 0.25}, "u_grid": [100.0]},
    ("covering", None): {"box": {**BOX, "h1": 0.5}, "eps": 0.5},
    ("simulate-verify", "v"): {**TestSimulateVerify.PAYLOAD, "box": {**BOX, "b2": 2.0}},
}


class TestValueBlocks:
    def test_every_command_with_a_block_is_listed(self):
        schemas = ((c, f, s if f is None else s[f]) for c, (_, s) in cli._COMMANDS.items()
                   for f in (s if isinstance(s, dict) else [None]))
        assert {(c, f) for c, f, (readers, _) in schemas if readers.keys() & VALUE_TYPES.keys()} == set(VALUE_CONFIGS)

    @pytest.mark.parametrize("command, field", list(VALUE_CONFIGS), ids=str)
    def test_blocks_read_as_value_types(self, tmp_path, command, field):
        payload = VALUE_CONFIGS[command, field]
        cfg, _ = load_config(write_config(tmp_path, payload), command)
        blocks = payload.keys() & VALUE_TYPES.keys()
        assert blocks
        for key in blocks:
            assert type(cfg[key]) is VALUE_TYPES[key], key
            assert cfg[key] == VALUE_TYPES[key](**payload[key]), key


# The README's per-command key table: its "model keys" and "box keys" cells
# as the key sets they name.
README_MODEL_KEYS = {"all six": set(SheModel._fields), "`hurst`": {"hurst"}, "—": set()}
README_BOX_KEYS = {"endpoints": set(AnisotropicBox._fields[:4]), "endpoints, `h1`, `h2`": set(AnisotropicBox._fields),
                   "—": set()}


def names(cell: str) -> set:
    """The backticked names in a README table cell."""
    return set(re.findall(r"`([^`]+)`", cell))


def test_readme_key_table_matches_command_schemas():
    # each row's required and optional keys are the keys its schema allows,
    # and its model and box cells the keys of those blocks: a key dropped
    # from a command (as theta was) leaves a stale row that fails here
    lines = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8").splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("| command") and "required keys" in line)
    rows = []
    for line in lines[start + 2 :]:
        if not line.startswith("|"):
            break
        rows.append([cell.strip() for cell in line.strip("|").split("|")])
    seen = []
    for command, fields, required, optional, model, box in rows:
        command = command.strip("`")
        schema = cli._COMMANDS[command][1]
        for field in sorted(names(fields)) or [None]:
            readers, must = schema if field is None else schema[field]
            seen.append((command, field))
            assert names(required) | names(optional) == readers.keys(), (command, field)
            assert must <= names(required), (command, field)
            assert README_MODEL_KEYS[model] == set(readers["model"][0] if "model" in readers else ()), command
            assert README_BOX_KEYS[box] == set(readers["box"][0] if "box" in readers else ()), command
    assert sorted(seen, key=str) == sorted(
        ((c, f) for c, (_, s) in cli._COMMANDS.items() for f in (s if isinstance(s, dict) else [None])), key=str
    )


README_TEXT = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
# Each README example: the config file name and text of a `cat > X.json
# << 'EOF'` block, the suptail line after it, and the .json and .csv files
# that the "This writes" paragraph below the code block names.
README_EXAMPLES = [
    (name, config, line.split(), set(re.findall(r"`(\w+\.(?:json|csv))`", note)))
    for name, config, line, note in re.findall(
        r"cat > (\S+) << 'EOF'\n(.*?)\nEOF\nsuptail ([^\n]*)\n```\n\n(This writes .*?)\n\n", README_TEXT, re.S
    )
]


def test_every_readme_example_is_found():
    # a block the pattern misses would silently go unrun
    assert len(README_EXAMPLES) == README_TEXT.count("<< 'EOF'") >= 3


@pytest.mark.parametrize("name, config, argv, written", README_EXAMPLES, ids=[e[0] for e in README_EXAMPLES])
def test_readme_example_runs(tmp_path, monkeypatch, name, config, argv, written):
    monkeypatch.chdir(tmp_path)
    (tmp_path / name).write_text(config + "\n", encoding="utf-8")
    assert main(argv) == 0
    assert written and {f.name for f in (tmp_path / argv[argv.index("--out") + 1]).iterdir()} == written


# Runs in a fresh interpreter: imports suptail, then suptail.cli, then runs
# each command through cli.main, and prints after each step which of NumPy,
# SciPy, scipy.integrate, concurrent.futures and OpenSSL's _hashlib are
# loaded; then, on a second line, the modules that the two imports added to
# sys.modules.
_IMPORT_PROBE = """
import json, sys

def heavy_modules():
    return [m for m in ("numpy", "scipy", "scipy.integrate", "concurrent.futures", "_hashlib")
            if m in sys.modules]

preloaded = set(sys.modules)
import suptail
report = [["import suptail", 0, heavy_modules()]]
import suptail.cli
report.append(["import suptail.cli", 0, heavy_modules()])
added = sorted(set(sys.modules) - preloaded)
from pathlib import Path
work = Path(sys.argv[1])
for i, (command, cfg, args) in enumerate(json.loads(sys.argv[2])):
    path = work / f"cfg{i}.json"
    path.write_text(json.dumps(cfg))
    code = suptail.cli.main([command, "--config", str(path), "--out", str(work / f"out{i}"), *args])
    report.append([command, code, heavy_modules()])
print(json.dumps(report))
print(json.dumps(added))
"""

# dataclasses loads inspect, ast, dis and tokenize, argparse loads gettext
# and locale, and hashlib loads OpenSSL (_hashlib); the modules that a site
# hook may preload (typing or pathlib on some hosts) are judged by what the
# imports add.
_SLOW_IMPORTS = {
    "dataclasses", "inspect", "ast", "dis", "tokenize", "typing", "argparse", "gettext", "locale",
    "hashlib", "_hashlib", "pathlib",
}


def test_analytic_commands_load_no_scipy(tmp_path):
    # A fresh `import suptail.cli` loads neither NumPy nor scipy.special.
    # constants, bound-sup and covering run in `math` and load neither, nor
    # OpenSSL; bound-growth (Li_p) loads NumPy at its first call; only
    # simulate-verify needs SciPy (scipy.special, at first use), and no
    # command loads scipy.integrate.
    generic = {
        "field": "generic",
        "fam": 2.0,
        "eps0": 1.0,
        "profile": {"scale": 1.0, "exponent": 1.0},
        "box": {"a1": 0.0, "b1": 1.0, "a2": 0.0, "b2": 1.0},
    }
    v = {"field": "v", "model": MODEL, "box": BOX}
    omega = {"field": "omega", "model": MODEL, "box": BOX}
    closed_form = [["constants", {"model": MODEL}, []]]
    for field, u_grid in ((v, [80.0, 200.0]), (omega, [5.0, 50.0]), (generic, [5.0, 50.0])):
        closed_form.append(["bound-sup", {**field, "u_auto": {"count": 4}}, []])
        closed_form.append(["bound-sup", {**field, "u_grid": u_grid}, []])
    closed_form.append(["covering", {"box": generic["box"], "eps": 0.5, "resolution": 41}, []])
    runs = closed_form + [
        ["bound-growth", {"model": V_MODEL, "p": 1.5, "u_grid": [900.0, 1500.0]}, []],
        ["simulate-verify", {**TestSimulateVerify.PAYLOAD, "samples": 100}, ["--seed", "1"]],
    ]
    env = {**os.environ, "PYTHONPATH": str(Path(suptail.__file__).resolve().parents[1])}
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(tmp_path), json.dumps(runs)],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    report_line, added_line = done.stdout.splitlines()
    report = json.loads(report_line)
    assert not _SLOW_IMPORTS & set(json.loads(added_line))
    assert report[: 2 + len(closed_form)] == [
        ["import suptail", 0, []],
        ["import suptail.cli", 0, []],
    ] + [[cmd, 0, []] for cmd, _, _ in closed_form]
    # _hashlib is judged on the closed-form runs alone: NumPy may load it itself
    numpy_runs = report[2 + len(closed_form) :]
    assert [[cmd, code, [m for m in mods if m != "_hashlib"]] for cmd, code, mods in numpy_runs] == [
        ["bound-growth", 0, ["numpy"]],
        # scipy.special loads concurrent.futures itself
        ["simulate-verify", 0, ["numpy", "scipy", "concurrent.futures"]],
    ]


# Runs in an interpreter without the site hook, which on some hosts preloads
# pathlib: imports json, then suptail.cli, and prints what the second import added.
_PLAIN_IMPORT_PROBE = """
import json, sys
before = set(sys.modules)
import suptail.cli
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def test_cli_import_loads_no_openssl_or_pathlib():
    # hashlib loads _hashlib (OpenSSL) and _blake2; pathlib loads fnmatch,
    # ntpath and urllib.parse
    env = {**os.environ, "PYTHONPATH": str(Path(suptail.__file__).resolve().parents[1])}
    done = subprocess.run(
        [sys.executable, "-S", "-c", _PLAIN_IMPORT_PROBE], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    added = set(json.loads(done.stdout))
    assert "suptail.cli" in added
    assert not {"hashlib", "_hashlib", "_blake2", "pathlib", "fnmatch", "ntpath", "urllib.parse"} & added


# Runs in a fresh interpreter: imports suptail.cli alone, loads the tracer's
# table of traced functions from the benchmark's tracing.py, and prints the
# table's length and the names that do not resolve.
_TRACER_PROBE = """
import importlib.util, json, sys
import suptail.cli
spec = importlib.util.spec_from_file_location("tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
table = [(mod, attr) for mod, attr, _, _ in tracing._FUNCTIONS]
missing = [f"{mod}.{attr}" for mod, attr in table if not hasattr(sys.modules.get("suptail." + mod), attr)]
if not hasattr(sys.modules["suptail.heat"].SheModel, "__post_init__"):
    missing.append("heat.SheModel.__post_init__")
print(json.dumps([len(table), missing]))
"""


def test_benchmark_tracer_names_resolve():
    # the tracer wraps suptail functions by name after `import suptail.cli`;
    # a renamed or deleted one would break the traced benchmark runs
    tracing = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    env = {**os.environ, "PYTHONPATH": str(Path(suptail.__file__).resolve().parents[1])}
    done = subprocess.run(
        [sys.executable, "-c", _TRACER_PROBE, str(tracing)], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    count, missing = json.loads(done.stdout)
    assert count > 0
    assert missing == []
