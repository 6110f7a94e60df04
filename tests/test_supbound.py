"""Bounded-domain supremum bounds: thresholds, tail bound, theta optimum."""

import json
import math

import numpy as np
import pytest

from known_answers import ln_gauss_tail_lower
from suptail.cli import main
from suptail.entropy import HolderProfile, c1_constant
from suptail.metric import AnisotropicBox
from suptail.orlicz import PhiFamily, phi_conjugate
from suptail.supbound import (
    _below_cap,
    field_bound,
    min_threshold,
    optimize_theta,
    sup_tail_bound,
    u_threshold,
)

# unit square, sigma(h) = h, alpha = 2, eps0 = 1: c1 = 4, gamma0 = 2, gamma*beta = 2
STD = field_bound(1.0, AnisotropicBox(0, 1, 0, 1), HolderProfile(1.0, 1.0), PhiFamily(2.0))


def make_inputs(alpha, gamma, h1, h2, scale=1.0, eps0=1.0, t1=1.0, t2=1.0):
    """(box, modulus, family) and the bound for a field of norm eps0 on them."""
    parts = (AnisotropicBox(0, t1, 0, t2, h1, h2), HolderProfile(scale, gamma), PhiFamily(alpha))
    return parts, field_bound(eps0, *parts)


class TestThreshold:
    def test_value_gamma_beta_two(self):
        # 2/(0.5*0.5) * (0.5)^(1/2) * 4
        assert u_threshold(0.5, STD) == pytest.approx(8 * math.sqrt(0.5) * 4, rel=1e-13)

    def test_value_gamma_beta_four_thirds(self):
        parts, inp = make_inputs(alpha=2.0, gamma=2.0 / 3.0, h1=1.0, h2=1.0)
        c1 = c1_constant(*parts)
        expected = 8 * 0.5 ** (1.0 - 3.0 / 4.0) * c1
        assert u_threshold(0.5, inp) == pytest.approx(expected, rel=1e-13)

    def test_divergence_at_endpoints(self):
        assert u_threshold(1e-8, STD) > 1e3
        assert u_threshold(1.0 - 1e-9, STD) > 1e6

    def test_invalid_theta(self):
        with pytest.raises(ValueError):
            u_threshold(0.0, STD)
        with pytest.raises(ValueError):
            u_threshold(1.0, STD)
        # theta * eps0 >= gamma0: the cap is gamma0 / eps0 = 0.2
        _, tight = make_inputs(alpha=2.0, gamma=1.0, h1=1.0, h2=1.0, eps0=10.0)
        assert tight.cap == 0.2
        with pytest.raises(ValueError, match="theta_cap"):
            u_threshold(0.5, tight)  # 5 > gamma0 = 2


class TestMinThreshold:
    def test_least_threshold_over_valid_theta(self):
        # free minimizer 1/(gamma*beta+1) = 1/3 for STD; capped at 0.2 for eps0 = 10
        _, tight = make_inputs(alpha=2.0, gamma=1.0, h1=1.0, h2=1.0, eps0=10.0)
        for inp in (STD, tight):
            thetas = np.linspace(1e-4, inp.cap * (1 - 1e-9), 20001)
            scanned = min(u_threshold(float(t), inp) for t in thetas)
            assert scanned * (1 - 1e-7) <= min_threshold(inp) <= scanned * (1 + 1e-15)
        # 2 * 4 * 3^(1/2) / (2/3)
        assert min_threshold(STD) == pytest.approx(12.0 * math.sqrt(3.0), rel=1e-15)

    @pytest.mark.parametrize("scale, eps0", [(1.0, 1.0), (1.0, 10.0), (0.1, 1.0)],
                             ids=["free", "capped-eps0", "capped-scale"])
    def test_no_u_below_is_valid(self, scale, eps0):
        # theta* stops just below the cap where min_threshold's theta does, so
        # where the cap binds no u below the minimal threshold gets a bound
        _, inp = make_inputs(alpha=2.0, gamma=1.0, h1=1.0, h2=1.0, scale=scale, eps0=eps0)
        thr = min_threshold(inp)
        for gap in (1e-6, 1e-8, 1e-10):
            assert math.isnan(optimize_theta((1.0 - gap) * thr, inp)[1])
            assert not math.isnan(optimize_theta((1.0 + gap) * thr, inp)[1])


class TestSupTailBound:
    def test_frozen_value(self):
        z = 20.0 - 4.0 * math.sqrt(0.5) * 4.0
        assert z == pytest.approx(8.686291501015239, rel=1e-14)
        expected = 2 * math.exp(-0.5 * z * z)
        assert sup_tail_bound(40.0, 0.5, STD) == pytest.approx(expected, rel=1e-13)

    def test_below_threshold_rejected(self):
        thr = u_threshold(0.5, STD)
        # no bound is asserted at or below the threshold: nan marks it
        assert math.isnan(sup_tail_bound(thr, 0.5, STD))
        assert math.isnan(sup_tail_bound(thr * 0.999, 0.5, STD))
        assert sup_tail_bound(thr * 1.001, 0.5, STD) <= 1.0

    def test_decreasing_in_u(self):
        # range chosen so the bound stays above float underflow; the clamp at
        # 1 makes it flat near the threshold, strictly decreasing after
        us = np.linspace(23, 60, 100)
        vals = [sup_tail_bound(u, 0.5, STD) for u in us]
        assert all(v > 0 for v in vals)
        assert all(b <= a for a, b in zip(vals, vals[1:]))
        unclamped = [v for v in vals if v < 1.0]
        assert len(unclamped) > 50
        assert all(b < a for a, b in zip(unclamped, unclamped[1:]))

    def test_vanishes_at_infinity(self):
        assert sup_tail_bound(1e5, 0.5, STD) == 0.0  # underflows

    def test_gaussian_specialization(self):
        # alpha = 2 collapses phi* to x^2/2
        fam = PhiFamily(2.0)
        for x in (0.5, 1.0, 3.0):
            assert phi_conjugate(x, fam) == pytest.approx(x * x / 2.0, rel=1e-15)

    def test_log_concavity_of_exponent(self):
        # exponent is -(1/beta) (a u + b)^beta: the log-bound is concave in u
        us = np.linspace(30, 80, 40)
        logs = [math.log(sup_tail_bound(u, 0.5, STD)) for u in us]
        d2 = np.diff(logs, 2)
        assert np.all(d2 <= 1e-9)


class TestOptimizeTheta:
    def test_matches_analytic_argmax(self):
        # z(theta) is maximized at theta* = (2 q c1 eps0^(1-q) / u)^(1/(1+q))
        u = 40.0
        q = 0.5
        theta_star, bound = optimize_theta(u, STD)
        analytic = (2 * q * 4.0 / u) ** (1.0 / (1.0 + q))
        assert theta_star == pytest.approx(analytic, abs=1e-7)
        assert bound <= sup_tail_bound(u, 0.5, STD)

    def test_beats_grid_oracle(self):
        rng = np.random.default_rng(6)
        _, inp = make_inputs(alpha=1.5, gamma=0.9, h1=0.6, h2=1.0)
        u = 3.0 * min(u_threshold(t, inp) for t in np.linspace(0.05, 0.95, 50))
        theta_star, bound = optimize_theta(u, inp)
        best_grid = math.inf
        for theta in np.linspace(1e-4, inp.cap * (1 - 1e-9), 10000):
            value = sup_tail_bound(u, float(theta), inp)
            if not math.isnan(value):
                best_grid = min(best_grid, value)
        assert bound <= best_grid * (1.0 + 1e-9) + 1e-300

    def test_narrow_window_near_infimum_threshold(self):
        thetas = np.linspace(1e-4, 1 - 1e-4, 20001)
        inf_thr = min(u_threshold(float(t), STD) for t in thetas)
        theta_star, bound = optimize_theta(inf_thr * 1.0001, STD)
        assert 0.0 < theta_star < 1.0
        assert 0.0 < bound <= 1.0

    def test_no_valid_theta(self):
        assert math.isnan(optimize_theta(1.0, STD)[1])

    def test_nonpositive_u_has_no_valid_theta(self):
        for u in (0.0, -3.0):
            assert math.isnan(optimize_theta(u, STD)[1])

    def test_heuristic_theta_never_better(self):
        # theta = u^(-gb/(gb+1)) is a valid choice but never beats the optimum
        gb = 2.0
        for u in (30.0, 40.0, 80.0):
            theta_h = u ** (-gb / (gb + 1.0))
            _, bound = optimize_theta(u, STD)
            if theta_h < STD.cap and u > u_threshold(theta_h, STD):
                assert bound <= sup_tail_bound(u, theta_h, STD) * (1 + 1e-9)

    def test_deterministic(self):
        a = optimize_theta(40.0, STD)
        b = optimize_theta(40.0, STD)
        assert a == b

    def test_closed_form_beats_dense_grid_random_cases(self):
        # Oracle: z(theta) on a 10000-point grid, vectorized from the defining
        # formula; the library bound at the grid's best theta must not beat
        # the closed-form optimum.  Large eps0 pushes theta_cap below the
        # unconstrained theta*, so both branches of the cap are covered.
        rng = np.random.default_rng(20240502)
        n_capped = n_free = n_invalid = 0
        for _ in range(200):
            fam = PhiFamily(float(rng.uniform(1.2, 2.0)))
            gamma = float(rng.uniform(1.05 / fam.beta, 1.0))
            eps0 = float(rng.choice([rng.uniform(0.2, 2.0), rng.uniform(5.0, 40.0)]))
            box = AnisotropicBox(
                0, float(rng.uniform(0.1, 3.0)), 0, float(rng.uniform(0.1, 3.0)),
                float(rng.uniform(0.2, 1.0)), float(rng.uniform(0.2, 1.0)),
            )
            prof = HolderProfile(float(rng.uniform(0.2, 3.0)), gamma)
            inp = field_bound(eps0, box, prof, fam)
            gamma0 = prof.sigma(box.diameter)
            q = 1.0 - 1.0 / (gamma * fam.beta)
            thetas = np.geomspace(1e-6, inp.cap * (1 - 1e-9), 10000)
            scale = 2.0 * c1_constant(box, prof, fam) * eps0 ** q
            u = float(rng.uniform(0.5, 4.0)) * np.min(scale * thetas ** (q - 1) / (1 - thetas))
            z = (u * (1 - thetas) - scale * thetas ** (q - 1)) / eps0
            if np.max(z) <= 0:
                n_invalid += 1
                assert math.isnan(optimize_theta(u, inp)[1])
                continue
            theta_star, bound = optimize_theta(u, inp)
            best = float(thetas[np.argmax(z)])
            assert bound <= sup_tail_bound(u, best, inp) * (1.0 + 1e-9)
            assert theta_star * eps0 < gamma0
            unconstrained = ((1 - q) * scale / u) ** (1.0 / (2.0 - q))
            if unconstrained >= inp.cap:
                n_capped += 1
                assert theta_star == pytest.approx(inp.cap, rel=1e-11)
            else:
                n_free += 1
        assert min(n_capped, n_free, n_invalid) >= 10, (n_capped, n_free, n_invalid)


UNIT_SQUARE = AnisotropicBox(0.0, 1.0, 0.0, 1.0)


def run_generic(tmp_path, eps0, scale, exponent, u_grid):
    """Exit code and curve rows of bound-sup generic on the unit square at alpha = 2."""
    config, out = tmp_path / "generic.json", tmp_path / "out"
    config.write_text(json.dumps({"field": "generic", "fam": 2.0, "eps0": eps0,
                                  "profile": {"scale": scale, "exponent": exponent},
                                  "box": {"a1": 0.0, "b1": 1.0, "a2": 0.0, "b2": 1.0}, "u_grid": u_grid}))
    code = main(["bound-sup", "--config", str(config), "--out", str(out)])
    return code, json.loads((out / "bound_sup.json").read_text())["curve"] if code == 0 else None


class TestThetaRule:
    """Every theta the library takes lies in (0, cap), for every cap above 5e-324."""

    @pytest.mark.parametrize("cap", [1.0, 0.2, 1e-300, 2.3e-308])
    def test_below_cap_of_a_normal_cap_keeps_its_margin(self, cap):
        assert _below_cap(cap) == cap * (1.0 - 1e-12) < cap

    @pytest.mark.parametrize("cap", [2e-312, 1e-320, 1e-323])
    def test_below_cap_of_a_subnormal_cap_is_the_next_double(self, cap):
        # the margin rounds back to the cap itself, which is not a valid theta
        assert cap * (1.0 - 1e-12) == cap
        assert 0.0 < _below_cap(cap) == math.nextafter(cap, 0.0) < cap

    def test_ratio_floor(self, tmp_path):
        # 2k / gb / u = 4e-150 / 1e300 underflows to 0; theta* = 5e-324^(2/3).
        # This exited 1 with "theta = 0.0 is not in (0, theta_cap) = (0, 1.0)".
        bound = field_bound(1e-300, UNIT_SQUARE, HolderProfile(1.0, 1.0), PhiFamily(2.0))
        theta, value = optimize_theta(1e300, bound)
        assert theta == math.ulp(0.0) ** (2.0 / 3.0) and value == 0.0
        code, rows = run_generic(tmp_path, 1e-300, 1.0, 1.0, [1.0, 1e300])
        assert code == 0
        assert [(r["bound"], r["validity"]) for r in rows] == [(0.0, "VALID")] * 2

    def test_ratio_floor_keeps_the_entropy_term_in_range(self):
        # gamma*beta = 1.01: theta = 5e-324 itself would overflow theta^(-1/gb)
        # in the float power; the floor's power 5e-324^(1.01/2.01) does not
        bound = field_bound(1.0, UNIT_SQUARE, HolderProfile(1e-160, 0.505), PhiFamily(2.0))
        theta, value = optimize_theta(1e300, bound)
        assert 0.0 < theta < bound.cap and value == 0.0
        with pytest.raises(OverflowError):
            math.ulp(0.0) ** (-1.0 / bound.gamma_beta)

    def test_subnormal_cap(self, tmp_path):
        # cap 2e-312: cap * (1 - 1e-12) rounded back to the cap, and the run
        # exited 1 with "theta = 2e-312 is not in (0, theta_cap) = (0, 2e-312)"
        bound = field_bound(1e300, UNIT_SQUARE, HolderProfile(1e-12, 1.0), PhiFamily(2.0))
        assert bound.cap == 2e-312
        threshold = min_threshold(bound)
        assert threshold == u_threshold(math.nextafter(bound.cap, 0.0), bound)
        assert math.isnan(optimize_theta(threshold * (1.0 - 1e-9), bound)[1])
        theta, value = optimize_theta(threshold * 2.0, bound)
        assert theta == math.nextafter(bound.cap, 0.0) and 0.0 < value < 1.0
        code, rows = run_generic(tmp_path, 1e300, 1e-12, 1.0, [1.0])
        assert code == 0 and rows[0]["validity"] == "INVALID"

    def test_subnormal_theta_entropy_by_quotient(self):
        # gamma*beta = 1.01 and cap 1.4e-312: theta^(-1/gb) overflows, while
        # the entropy term 2k theta^(-1/gb) is about 2.6e302
        bound = field_bound(1e300, UNIT_SQUARE, HolderProfile(1e-12, 0.505), PhiFamily(2.0))
        theta = _below_cap(bound.cap)
        with pytest.raises(OverflowError):
            theta ** (-1.0 / bound.gamma_beta)
        threshold = min_threshold(bound)
        assert threshold == 2.0 * bound.k / theta ** (1.0 / bound.gamma_beta) / (1.0 - theta)
        assert 1e302 < threshold < 1e303
        assert optimize_theta(2.0 * threshold, bound) == (theta, 0.0)

    def test_cap_without_a_double_below_rejected(self, tmp_path, capsys):
        # gamma0 / eps0 = 5e-24 / 1e300 rounds to 5e-324, the least double
        message = ("cap min(1, gamma0/eps0) for eps0 = 1e+300, profile scale 2.5e-24 "
                   "and box diameter 2.0 must be positive, got 0.0")
        with pytest.raises(ValueError) as info:
            field_bound(1e300, UNIT_SQUARE, HolderProfile(2.5e-24, 1.0), PhiFamily(2.0))
        assert str(info.value) == message
        assert run_generic(tmp_path, 1e300, 2.5e-24, 1.0, [1.0]) == (1, None)
        assert capsys.readouterr().err == f"suptail bound-sup: error: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("u", [8.9e307, 1.5e308, 1.7976931348623157e308])
    def test_u_near_the_float_maximum(self, u):
        # gamma*beta u = 2u overflows past 9e307, where theta* used a second formula
        theta, value = optimize_theta(u, STD)
        assert 0.0 < theta < STD.cap and value == 0.0
        assert theta == (2.0 * STD.k / STD.gamma_beta / u) ** (2.0 / 3.0)


# Known answer: X(t, x) = W1(t^(2 h1)) + W2(x^(2 h2)) on [0, T1] x [0, T2], with W1
# and W2 independent standard Brownian motions and h_i <= 1/2.  For 2h <= 1,
# |a^(2h) - b^(2h)| <= |a - b|^(2h), and sqrt(p + q) <= sqrt(p) + sqrt(q), so
# ||X(t, x) - X(s, y)||_2 <= |t - s|^h1 + |x - y|^h2: X is a generic field on the
# box with exponents (h1, h2), the modulus sigma(h) = h, alpha = 2 and
# eps0 = sqrt(T1^(2 h1) + T2^(2 h2)), the sd at the far corner.  So
# P(sup |X| > u) >= P(|X(T1, T2)| > u), a Gaussian tail of variance eps0^2.  Both
# sides decay like exp(-u^2 / (2 eps0^2)), and the printed bound underflows to 0
# past a few tens, so they are compared in logs.  T2 = 0 is W(t^(2h)) alone.
BROWNIAN_CASES = [((1.0, 0.0), (0.5, 1.0)), ((1.0, 0.0), (0.25, 1.0)), ((4.0, 0.0), (0.25, 1.0)),
                  ((0.25, 0.0), (0.1, 1.0)), ((4.0, 0.0), (0.5, 1.0)),
                  ((1.0, 1.0), (0.5, 0.5)), ((1.0, 1.0), (0.5, 0.25)), ((1.0, 1.0), (0.25, 0.25)),
                  ((4.0, 0.25), (0.5, 0.1))]
BROWNIAN_IDS = [f"{t1}-{h1}" if t2 == 0.0 else f"{t1}x{t2}-{h1}x{h2}" for (t1, t2), (h1, h2) in BROWNIAN_CASES]


def brownian_var(ends, hs):
    """Variance eps0^2 of X at the far corner (T1, T2)."""
    return sum(t ** (2.0 * h) for t, h in zip(ends, hs))


def brownian_bound(ends, hs, eps0_factor=1.0):
    """The generic bound of X on [0, T1] x [0, T2], its norm eps0 scaled by eps0_factor."""
    box = AnisotropicBox(0.0, ends[0], 0.0, ends[1], *hs)
    eps0 = math.hypot(*(t ** h for t, h in zip(ends, hs)))
    return field_bound(eps0_factor * eps0, box, HolderProfile(1.0, 1.0), PhiFamily(2.0))


def brownian_us(bound):
    """200 geometric u from just above the bound's minimal threshold to 1e5."""
    return list(np.geomspace(min_threshold(bound) * (1.0 + 1e-9), 1e5, 200))


def ln_optimized_bound(u, bound):
    """(ln of the bound at optimize_theta's theta, the bound as returned): with
    level = u (1 - theta) - 2 k theta^(-1/(gamma beta)), ln 2 - (level/scale)^2 / 2."""
    theta, value = optimize_theta(u, bound)
    level = u * (1.0 - theta) - 2.0 * bound.k * theta ** (-1.0 / bound.gamma_beta)
    assert level > 0.0, (u, level)
    return math.log(2.0) - 0.5 * (level / bound.scale) ** 2, value


class TestKnownAnswerBrownian:
    def test_gauss_tail_lower_is_below_erfc(self):
        for var in (0.5, 1.0, 4.0):
            for u in np.geomspace(1e-3, 20.0, 100):  # erfc underflows past x = 26
                exact = math.log(math.erfc(u / math.sqrt(2.0 * var)))
                assert exact - 0.5 < ln_gauss_tail_lower(u, var) < exact

    @pytest.mark.parametrize("ends, hs", BROWNIAN_CASES, ids=BROWNIAN_IDS)
    def test_bound_holds_at_every_u(self, ends, hs):
        bound = brownian_bound(ends, hs)
        for u in brownian_us(bound):
            ln_bound, value = ln_optimized_bound(u, bound)
            assert ln_bound >= ln_gauss_tail_lower(u, brownian_var(ends, hs)), u
            if 1e-300 < value < 1.0:  # the printed bound, where it is a normal float below its clamp
                assert math.log(value) == pytest.approx(ln_bound, rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("ends, hs", BROWNIAN_CASES, ids=BROWNIAN_IDS)
    def test_eps0_mutant_fails(self, ends, hs):
        # the same u grid as the true bound's, so no u is picked for the mutant
        mutant = brownian_bound(ends, hs, eps0_factor=0.97)
        us = brownian_us(brownian_bound(ends, hs))
        assert any(ln_optimized_bound(u, mutant)[0] < ln_gauss_tail_lower(u, brownian_var(ends, hs)) for u in us)

    def test_printed_bound_above_gaussian_tail(self, tmp_path):
        for ends, hs in (((4.0, 0.0), (0.25, 1.0)), ((1.0, 1.0), (0.5, 0.25))):
            bound, config, out = brownian_bound(ends, hs), tmp_path / "generic.json", tmp_path / f"out-{ends[1]}"
            config.write_text(json.dumps({
                "field": "generic", "fam": 2.0, "eps0": bound.scale,
                "profile": {"scale": 1.0, "exponent": 1.0},
                "box": {"a1": 0.0, "b1": ends[0], "a2": 0.0, "b2": ends[1], "h1": hs[0], "h2": hs[1]},
                "u_grid": [float(u) for u in brownian_us(bound)],
            }))
            assert main(["bound-sup", "--config", str(config), "--out", str(out)]) == 0
            rows = json.loads((out / "bound_sup.json").read_text())["curve"]
            assert len(rows) == 200 and all(r["validity"] == "VALID" for r in rows)
            printed = [r for r in rows if r["bound"] > 0.0]
            assert len(printed) >= 10
            for r in printed:
                assert r["bound"] >= math.exp(ln_gauss_tail_lower(r["u"], brownian_var(ends, hs))), r
