"""Growth bounds over the strip: cell constants, series engine, tail forms."""

import math
import re

import numpy as np
import pytest

from suptail.entropy import HolderProfile
from suptail.growth import (
    GrowthSpec,
    SeriesError,
    cell_constant,
    growth_tail_bound,
    optimize_theta_growth,
    auto_theta_bound,
    series_c_sum,
    series_s_sum,
    sum_series,
    theta_sup,
)
from suptail.metric import AnisotropicBox
from suptail.orlicz import PhiFamily
from suptail.supbound import FieldBoundInputs, optimize_theta

GAUSS = PhiFamily(2.0)


def linear_spec(**overrides):
    """Cells [k, k+1] x [-1, 1], geometric cell norms, exponential weight.

    eps_k = 0.5 * q^k with f_k = e^(r k) gives geometric series for C and S
    and theta_sup attained at k = 0 (and > 1 for the defaults).
    """
    q = overrides.pop("q", 0.5)
    r = overrides.pop("r", 0.4)
    params = dict(
        partition=lambda k: float(k),
        weight=lambda t: math.exp(0.4 * t),
        halfwidth=1.0,
        cell_sup=lambda k: 0.5 * q ** k,
        cell_holder=lambda k: 1.0,
        gamma=1.0,
        h1=0.5,
        h2=1.0,
        fam=GAUSS,
    )
    params["weight"] = lambda t, _r=r: math.exp(_r * t)
    params.update(overrides)
    return GrowthSpec(**params)


class TestCellConstant:
    def test_unit_values(self):
        spec = linear_spec(
            partition=lambda k: 2.0 * k, h1=1.0, h2=1.0, cell_holder=lambda k: 1.0
        )
        # ((1/1)(2/2)^(1/2) + (1/1)*1^(1/2)) * 2^(1/2)/(1/2) = 2 * 2 sqrt(2)
        assert cell_constant(0, spec) == pytest.approx(4 * math.sqrt(2), rel=1e-12)

    def test_degenerate_strip(self):
        spec = linear_spec(partition=lambda k: 2.0 * k, h1=1.0, h2=1.0, halfwidth=0.0)
        assert cell_constant(0, spec) == pytest.approx(2 * math.sqrt(2), rel=1e-12)

    def test_half_exponents_frozen(self):
        spec = linear_spec(partition=lambda k: 2.0 * k, h1=0.5, h2=0.5)
        # ((1/0.5)(1)^(1/4) + (1/0.5)(1)^(1/4)) * 2 sqrt(2) = 8 sqrt(2)
        assert cell_constant(0, spec) == pytest.approx(8 * math.sqrt(2), rel=1e-12)

    def test_gamma_beta_rejected(self):
        spec = linear_spec(gamma=0.4)  # gamma*beta = 0.8
        with pytest.raises(ValueError):
            cell_constant(0, spec)


class TestSeriesEngine:
    def test_geometric_fixture(self):
        # eps_k / f_k = 2^-k summing to 2
        spec = linear_spec(
            cell_sup=lambda k: 1.0,
            weight=lambda t: 2.0 ** t,
        )
        assert series_c_sum(spec).value == pytest.approx(2.0, abs=1e-11)

    def test_zeta_tail_fixture(self):
        # terms c/k^p for k >= 1: certified midpoint matches c*zeta(p)
        from scipy.special import zeta

        c = 0.8

        def term(k):
            k = np.asarray(k, dtype=float)
            return np.where(k >= 1, c / np.maximum(k, 1.0) ** 2, 0.0)

        res = sum_series(term, tol=1e-6)
        assert res.remainder <= 1e-6
        assert res.value == pytest.approx(c * zeta(2.0), abs=1e-6)

    def test_divergent_series_error(self):
        spec = linear_spec(cell_sup=lambda k: k + 1.0, weight=lambda t: t + 1.0)
        with pytest.raises(SeriesError, match="did not certify.*no remainder bracket formed"):
            series_c_sum(spec, k_max=20000)
        # 1/(k+1)^2 brackets its tail, but only to a fixed fraction of the tail
        # ~1/k; the error gives that tolerance, reached at the last checkpoint
        with pytest.raises(SeriesError, match="did not certify") as err:
            sum_series(lambda k: (np.asarray(k, dtype=float) + 1.0) ** -2, tol=1e-12, k_max=20000)
        m = re.search(r"smallest remainder bracket half-width (\S+) at k = (\d+)", str(err.value))
        assert m is not None
        half, k = float(m.group(1)), int(m.group(2))
        assert k == 20000
        assert 0.05 / k < half < 0.5 / k

    def test_nonpositive_weight_rejected(self):
        spec = linear_spec(weight=lambda t: t)  # f_0 = 0
        with pytest.raises(ValueError, match="weight"):
            series_c_sum(spec)

    def test_series_s_finite(self):
        spec = linear_spec()
        s = series_s_sum(spec).value
        assert 0 < s < math.inf

    def test_certificate_object(self):
        spec = linear_spec()
        res = series_c_sum(spec, tol=1e-10)
        assert res.remainder <= 1e-10
        assert res.n_terms >= 64


class TestThetaSup:
    def test_matches_direct_computation(self):
        spec = linear_spec()
        # gamma_k = c_k (l_k^h1 + (2A)^h2); l_k = 1, A = 1 -> gamma_k = 3
        # eps_k = 0.5 * 0.5^k -> inf over k at k = 0: 3 / 0.5 = 6
        assert theta_sup(spec) == pytest.approx(3.0 / 0.5, rel=1e-12)

    def test_increasing_cells_attain_later(self):
        spec = linear_spec(cell_sup=lambda k: 2.0 * 2.0 ** k)  # eps grows
        # ratio 3 / (2 * 2^k) decreases without bound: the probed minimum,
        # its value at the last probed cell, would overstate the infimum 0
        with pytest.raises(ValueError, match="still falls over the 512 probed cells"):
            theta_sup(spec)

    @pytest.mark.parametrize(
        "cell_sup",
        [lambda k: 2.0 * 1.01 ** k, lambda k: (k + 1.0) ** 0.3],
        ids=["ratio-falls-as-1.01^-k", "ratio-falls-as-k^-0.3"],
    )
    def test_slowly_falling_ratio_raises(self, cell_sup):
        with pytest.raises(ValueError, match="still falls"):
            theta_sup(linear_spec(cell_sup=cell_sup))

    @pytest.mark.parametrize(
        "overrides, message",
        [
            # b_k = min(k, 3) has l_3 = 0: the cap was the minimum over cells 0-2
            ({"partition": lambda k: float(min(k, 3))}, "strictly increasing; l_3 = 0.0"),
            # eps_5 = 0 gives the ratio inf; eps_6 < 0 is no norm
            ({"cell_sup": lambda k: 0.5 - 0.1 * k}, "nonnegative, got -0.1.* at k = 6"),
        ],
        ids=["empty-cell", "negative-norm"],
    )
    def test_invalid_cells_raise(self, overrides, message):
        with pytest.raises(ValueError, match=message):
            theta_sup(linear_spec(**overrides))


class TestGrowthTailBound:
    def test_frozen_value_unit_series(self):
        spec = linear_spec()
        val = growth_tail_bound(10.0, 0.5, spec, 1.0, 1.0, 1.0)
        expected = 2 * math.exp(-0.5 * (5.0 - 2.0 * math.sqrt(2.0)) ** 2)
        assert val == pytest.approx(expected, rel=1e-13)

    def test_thresholds(self):
        spec = linear_spec()
        # u threshold for C=S=1, theta=0.5, gb=2: 2/(0.5 * sqrt(0.5)) = 4 sqrt(2)
        thr = 2.0 / (0.5 * math.sqrt(0.5))
        with pytest.raises(ValueError, match="threshold"):
            growth_tail_bound(thr, 0.5, spec, 1.0, 1.0, 1.0)
        # theta_sup = 3/10 < 1 for eps_0 = 10, so theta = 0.5 is out of range
        big = linear_spec(cell_sup=lambda k: 10.0 * 0.5 ** k)
        with pytest.raises(ValueError, match="theta"):
            growth_tail_bound(1e4, 0.5, big, 1.0, 1.0, min(1.0, theta_sup(big)))

    def test_decreasing_in_u_and_series(self):
        spec = linear_spec()
        us = np.linspace(8, 30, 40)
        vals = [growth_tail_bound(u, 0.5, spec, 1.0, 1.0, 1.0) for u in us]
        assert all(b <= a for a, b in zip(vals, vals[1:]))
        lo_s = growth_tail_bound(10.0, 0.5, spec, 1.0, 0.5, 1.0)
        hi_s = growth_tail_bound(10.0, 0.5, spec, 1.0, 1.0, 1.0)
        assert lo_s < hi_s
        lo_c = growth_tail_bound(10.0, 0.5, spec, 0.8, 1.0, 1.0)
        assert lo_c < hi_s

    def test_vanishes_at_infinity(self):
        spec = linear_spec()
        assert growth_tail_bound(1e5, 0.5, spec, 1.0, 1.0, 1.0) == 0.0


class TestAutoThetaForm:
    def test_frozen_value(self):
        spec = linear_spec()
        # C = S = 1, gb = 2, u = 27: u^(1/3) = 3, bound = 2 exp(-162)
        val = auto_theta_bound(27.0, spec, 1.0, 1.0, 1.0)
        assert val == pytest.approx(2 * math.exp(-162.0), rel=1e-12)

    def test_boundary_error(self):
        spec = linear_spec()
        thr = 3.0 ** (2.0 / 3.0)
        with pytest.raises(ValueError, match="threshold"):
            auto_theta_bound(thr, spec, 1.0, 1.0, 1.0)

    def test_trivial_region_clamped(self):
        # between the printed threshold and the positivity threshold the
        # argument is negative and only the trivial bound holds
        spec = linear_spec()
        val = auto_theta_bound(3.0, spec, 1.0, 1.0, 1.0)
        assert val == 1.0

    def test_substituted_theta_at_or_above_cap_raises(self):
        # theta_sup = 0.03 here, while u = 10 substitutes theta = u^(-2/3) =
        # 0.215: the theorem gives no bound there (the best valid one, from
        # optimize_theta_growth, is 0.377), so no value may be returned
        spec = linear_spec(cell_holder=lambda k: 0.005)
        C, S = series_c_sum(spec).value, series_s_sum(spec).value
        cap = min(1.0, theta_sup(spec))
        assert cap == pytest.approx(0.03, rel=1e-12)
        assert optimize_theta_growth(10.0, spec, C, S, cap)[1] == pytest.approx(0.377, abs=1e-3)
        with pytest.raises(ValueError, match="theta_cap"):
            auto_theta_bound(10.0, spec, C, S, cap)
        # above u = cap^(-3/2) the substituted theta is below the cap
        assert auto_theta_bound(1.01 * cap ** -1.5, spec, C, S, cap) == 0.0

    def test_equals_growth_bound_at_substituted_theta(self):
        rng = np.random.default_rng(7)
        checked = 0
        while checked < 20:
            q = rng.uniform(0.3, 0.7)
            r = rng.uniform(0.3, 0.8)
            spec = linear_spec(q=q, r=r)
            C = series_c_sum(spec).value
            S = series_s_sum(spec).value
            cap = min(1.0, theta_sup(spec))
            gb = spec.gamma_beta
            u = 1.5 * (1.0 + 2.0 * S) ** ((gb + 1.0) / gb)
            theta_sub = u ** (-gb / (gb + 1.0))
            if theta_sub >= cap:
                continue
            a = auto_theta_bound(u, spec, C, S, cap)
            b = growth_tail_bound(u, theta_sub, spec, C, S, cap)
            assert a == pytest.approx(b, rel=1e-12)
            checked += 1


class TestPowerVariant:
    def test_scale_to_zero_shrinks_bound(self):
        # envelope cells eps_k = scale * b_{k+1}^0.3 on b_k = k, with Holder
        # scales c_k = b_{k+1}^0.3, so gamma_k / eps_k = 3 / scale for every k
        def power_cells(scale):
            return linear_spec(
                cell_sup=lambda k: scale * (k + 1.0) ** 0.3,
                cell_holder=lambda k: (k + 1.0) ** 0.3,
            )

        spec_small, spec_large = power_cells(1e-4), power_cells(0.3)
        # u valid for both; the larger-scale series dominate so its threshold rules
        theta = 0.4
        s_large = series_s_sum(spec_large).value
        u = 1.5 * 2.0 * s_large / ((1 - theta) * theta ** 0.5)

        def bound(spec):
            c, s = series_c_sum(spec).value, series_s_sum(spec).value
            return growth_tail_bound(u, theta, spec, c, s, min(1.0, theta_sup(spec)))

        b_small = bound(spec_small)
        b_large = bound(spec_large)
        assert b_small < b_large


class TestOptimizeThetaGrowth:
    def test_beats_fixed_theta(self):
        spec = linear_spec()
        C, S = series_c_sum(spec).value, series_s_sum(spec).value
        cap = min(1.0, theta_sup(spec))
        u = 3.0 * 2.0 * S / (0.5 * 0.5 ** 0.5)
        theta_star, bound = optimize_theta_growth(u, spec, C, S, cap)
        for theta in (0.2, 0.5, 0.8):
            try:
                other = growth_tail_bound(u, theta, spec, C, S, cap)
            except ValueError:
                continue
            assert bound <= other * (1 + 1e-9) + 1e-300

    def test_no_valid_theta(self):
        spec = linear_spec()
        with pytest.raises(ValueError, match="no valid theta"):
            optimize_theta_growth(0.5, spec, 1.0, 1.0, 1.0)

    def test_closed_form_beats_dense_grid_random_specs(self):
        # Oracle: arg(theta) on a 10000-point grid, vectorized from the
        # defining formula, with growth_tail_bound at the grid's best theta.
        # Small Holder scales put theta_sup below the unconstrained theta*.
        rng = np.random.default_rng(20240503)
        n_capped = n_free = 0
        for _ in range(40):
            fam = PhiFamily(float(rng.choice([2.0, 1.5])))
            gamma = float(rng.uniform(1.1 / fam.beta, 1.0))
            holder = float(rng.choice([rng.uniform(0.005, 0.05), rng.uniform(0.5, 2.0)]))
            spec = linear_spec(
                q=float(rng.uniform(0.2, 0.8)),
                r=float(rng.uniform(0.1, 0.8)),
                halfwidth=float(rng.uniform(0.3, 2.0)),
                cell_holder=lambda k, c=holder: c,
                gamma=gamma,
                h1=float(rng.uniform(0.3, 1.0)),
                fam=fam,
            )
            gb = spec.gamma_beta
            C, S = series_c_sum(spec).value, series_s_sum(spec).value
            cap = min(1.0, theta_sup(spec))
            thetas = np.geomspace(1e-6, cap * (1 - 1e-9), 10000)
            thr = np.min(2.0 * S / ((1 - thetas) * thetas ** (1.0 / gb)))
            for factor in (1.01, 1.5, 3.0, 20.0):
                u = factor * thr
                arg = u * (1 - thetas) - 2.0 * S * thetas ** (-1.0 / gb)
                theta_star, bound = optimize_theta_growth(u, spec, C, S, cap)
                best = float(thetas[np.argmax(arg)])
                other = growth_tail_bound(u, best, spec, C, S, cap)
                assert bound <= other * (1 + 1e-9)
                assert 0.0 < theta_star < cap
                if (2.0 * S / (gb * u)) ** (gb / (gb + 1.0)) >= cap:
                    n_capped += 1
                    assert theta_star == pytest.approx(cap, rel=1e-11)
                else:
                    n_free += 1
            with pytest.raises(ValueError, match="no valid theta"):
                optimize_theta_growth(0.99 * thr, spec, C, S, cap)
        assert min(n_capped, n_free) >= 10, (n_capped, n_free)

    def test_nonpositive_u_has_no_valid_theta(self):
        spec = linear_spec()
        for u in (0.0, -3.0):
            with pytest.raises(ValueError, match="no valid theta"):
                optimize_theta_growth(u, spec, 1.0, 1.0, 1.0)

    def test_same_optimum_as_bounded_box(self):
        # one theta* routine: with S = c1 eps0^q, C = eps0 and the box's cap,
        # the growth optimum is the bounded-box optimum
        fam = PhiFamily(1.7)
        inputs = FieldBoundInputs(
            eps0=0.7,
            box=AnisotropicBox(0, 1, 0, 2, 0.6, 0.9),
            prof=HolderProfile.power(1.3, 0.8),
            fam=fam,
        )
        spec = linear_spec(gamma=0.8, fam=fam)
        s_value = inputs.c1 * inputs.eps0 ** inputs.q
        n_valid = 0
        for u in np.geomspace(1.0, 1e3, 40):
            try:
                expected = optimize_theta(u, inputs)
            except ValueError:
                with pytest.raises(ValueError, match="no valid theta"):
                    optimize_theta_growth(u, spec, inputs.eps0, s_value, inputs.theta_cap)
                continue
            n_valid += 1
            got = optimize_theta_growth(u, spec, inputs.eps0, s_value, inputs.theta_cap)
            assert got == expected
        assert 10 <= n_valid < 40
