"""Growth bounds over the strip: cell constants, series oracle, theta cap, tail forms."""

import math
import re

import numpy as np
import pytest
from scipy.special import zeta

from series_oracle import SeriesError, sum_series
from suptail.entropy import HolderProfile, c1_constant
from suptail.growth import (
    _polylog,
    _zeta,
    optimize_theta_growth,
    series_s_sum,
    theta_sup,
)
from suptail.heat import SheModel
from suptail.metric import AnisotropicBox
from suptail.orlicz import PhiFamily
from suptail.supbound import TailBound, field_bound, optimize_theta, sup_tail_bound

GAUSS = PhiFamily(2.0)
# C = S = 1, gamma*beta = 2, cap 1
UNIT = TailBound(k=1.0, scale=1.0, gamma_beta=2.0, cap=1.0, fam=GAUSS)


def growth_bound(s_value, c_value, gb=2.0, fam=GAUSS, cap=1.0):
    """The growth bound of series values S and C: k = S, scale C."""
    return TailBound(s_value, c_value, gb, cap, fam)


def linear_series(q=0.5, r=0.4, eps0=0.5, halfwidth=1.0, holder=1.0, gamma=1.0, h1=0.5, fam=GAUSS):
    """The growth bound (k = S, scale C) of the cells [k, k+1] x [-A, A].

    The cells have metric exponents (h1, 1), norms eps_k = eps0 q^k, weights
    f_k = e^(r k) and the modulus c h^gamma, so every cell has cell 0's entropy
    constant c1 and both series are geometric:

        C = eps0 / (1 - q e^(-r)),   S = c1 eps0^e / (1 - q^e e^(-r)),   e = 1 - 1/(gamma*beta).

    gamma_k / eps_k grows with k, so the cap is min(1, gamma_0 / eps0); it is
    above 1 for the defaults.
    """
    box = AnisotropicBox(0.0, 1.0, -halfwidth, halfwidth, h1, 1.0)
    prof = HolderProfile(holder, gamma)
    gb = gamma * fam.beta
    e = 1.0 - 1.0 / gb
    c_value = eps0 / (1.0 - q * math.exp(-r))
    s_value = c1_constant(box, prof, fam) * eps0 ** e / (1.0 - q ** e * math.exp(-r))
    return growth_bound(s_value, c_value, gb, fam, min(1.0, prof.sigma(box.diameter) / eps0))


def _cell_constant(b0, b1, halfwidth, h1, h2, gamma=1.0):
    """c1 of the growth cell [b0, b1] x [-A, A] with the modulus h^gamma."""
    box = AnisotropicBox(b0, b1, -halfwidth, halfwidth, h1, h2)
    return c1_constant(box, HolderProfile(1.0, gamma), GAUSS)


class TestCellConstant:
    def test_unit_values(self):
        # ((1/1)(2/2)^(1/2) + (1/1)*1^(1/2)) * 2^(1/2)/(1/2) = 2 * 2 sqrt(2)
        assert _cell_constant(0.0, 2.0, 1.0, 1.0, 1.0) == pytest.approx(4 * math.sqrt(2), rel=1e-12)

    def test_degenerate_strip(self):
        assert _cell_constant(0.0, 2.0, 0.0, 1.0, 1.0) == pytest.approx(2 * math.sqrt(2), rel=1e-12)

    @pytest.mark.pinned
    def test_half_exponents_frozen(self):
        # ((1/0.5)(1)^(1/4) + (1/0.5)(1)^(1/4)) * 2 sqrt(2) = 8 sqrt(2)
        assert _cell_constant(0.0, 2.0, 1.0, 0.5, 0.5) == pytest.approx(8 * math.sqrt(2), rel=1e-12)

    def test_gamma_beta_rejected(self):
        with pytest.raises(ValueError):
            _cell_constant(0.0, 1.0, 1.0, 0.5, 1.0, gamma=0.4)  # gamma*beta = 0.8


class TestSeriesEngine:
    """The certified summation oracle of tests/series_oracle.py."""

    def test_geometric_fixture(self):
        # 2^-k summing to 2
        assert sum_series(lambda k: 0.5 ** np.asarray(k, dtype=float)).value == pytest.approx(
            2.0, abs=1e-11
        )

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
        with pytest.raises(SeriesError, match="did not certify.*no remainder bracket formed"):
            sum_series(lambda k: np.ones(np.shape(k)), k_max=20000)
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
        # eps_k / f_k with f_0 = 0: the first term is infinite
        def term(k):
            with np.errstate(divide="ignore"):
                return 0.5 / np.asarray(k, dtype=float)

        with pytest.raises(SeriesError, match="finite and nonnegative; offending block at k = 0"):
            sum_series(term)

    def test_series_s_finite(self):
        # the closed form of sum_k (T + X e^(-kH/4)) k^-p (k^-p read as 1 at
        # k = 0) against the oracle over those summands
        time_axis, space_axis, p, hurst = 1.3, 0.7, 2.5, 0.5
        closed = series_s_sum(time_axis, space_axis, p, hurst)
        assert 0 < closed.value < math.inf

        def summand(k):
            k = np.asarray(k, dtype=float)
            return (time_axis + space_axis * np.exp(-k * hurst / 4)) * np.maximum(k, 1.0) ** -p

        certified = sum_series(summand, tol=1e-7)
        assert abs(certified.value - closed.value) <= certified.remainder + closed.remainder

    def test_certificate_object(self):
        res = sum_series(lambda k: 0.5 * np.exp(-(0.4 + math.log(2.0)) * np.asarray(k)), tol=1e-10)
        assert res.remainder <= 1e-10
        assert res.n_terms >= 64


def _cell_ratios(model, halfwidth, k_max):
    """gamma_k / eps_k over the V cells [e^k, e^(k+1)] x [-A, A], k <= k_max."""
    h = model.hurst
    ratios = []
    for k in range(k_max + 1):
        box = AnisotropicBox(math.exp(k), math.exp(k + 1), -halfwidth, halfwidth, h / 2, h)
        ratios.append(model.c_v * box.diameter / (model.a_h * math.exp((k + 1) * h / 2)))
    return ratios


class TestClosedFormSeriesLargeP:
    """bound-growth takes any finite p > 1.  At large p the power count of
    ``_polylog`` is one or two terms, p ln k stays finite (a chunk of 1024
    terms overflowed it, with a RuntimeWarning, for p above about 2.6e307),
    and the terms from k = 3 on are below the rounding of the sum."""

    @pytest.mark.parametrize("p", [200.0, 1000.0, 1e6, 1e308])
    def test_polylog_terms_underflow(self, p):
        ln_x = -1.0 / 8.0
        x = math.exp(ln_x)
        zeta_p = _zeta(p)
        got = _polylog(p, ln_x, zeta_p.value + zeta_p.remainder)
        assert got.n_terms <= 2 and math.isfinite(got.remainder)
        assert abs(got.value - (x + x * x * 2.0 ** -p + x ** 3 * 3.0 ** -p)) <= got.remainder

    @pytest.mark.parametrize("p", [200.0, 1000.0, 1e6, 1e308])
    def test_zeta_is_one_plus_two_to_minus_p(self, p):
        got = _zeta(p)
        assert abs(got.value - (1.0 + 2.0 ** -p)) <= got.remainder


class TestClosedFormSeriesSmallHurst:
    """At a tiny hurst, x = e^(-H/4) is within H/4 of 1 and the terms of
    Li_p(x) decay as k^-p alone for k up to about 4/H: 2^20 terms leave a
    tail far below the geometric bound x^(n+1) (n+1)^-p / (1-x), which was
    1.4e86 at H = 1e-100 and p = 2."""

    @pytest.mark.parametrize("hurst", [1e-100, 1e-300])
    @pytest.mark.parametrize("p", [1.001, 1.1, 2.0])
    def test_remainder_within_zeta(self, hurst, p):
        zeta_p = _zeta(p)
        ceiling = zeta_p.value + zeta_p.remainder
        got = _polylog(p, -hurst / 4.0, ceiling)
        assert got.n_terms == 2 ** 20
        assert math.isfinite(got.remainder) and got.remainder <= ceiling - got.value
        # near x = e^-mu = 1, Li_p(x) = zeta(p) + Gamma(1-p) mu^(p-1) + O(mu) at a
        # p that is not an integer, and Li_2(x) = zeta(2) + mu (ln mu - 1) + O(mu^2)
        mu = hurst / 4.0
        near_one = mu * (math.log(mu) - 1.0) if p == 2.0 else math.gamma(1.0 - p) * mu ** (p - 1.0)
        assert abs(zeta(p) + near_one - got.value) <= got.remainder
        # the upper end is within 1 % of Li_p(x): at p = 1.001, Li_p(x) is 207 at
        # H = 1e-100 and 500 at 1e-300, where zeta(p) is 1000.6
        assert got.value + got.remainder <= 1.01 * (zeta(p) + near_one)

    @pytest.mark.parametrize("hurst, p", [(1e-3, 3.0), (1e-4, 2.0), (1e-6, 1.1)])
    def test_remainder_covers_twice_the_terms(self, hurst, p):
        # the tail bound past the closed-form count, or the zeta cap, covers
        # the terms from n + 1 to 2n
        zeta_p = _zeta(p)
        got = _polylog(p, -hurst / 4.0, zeta_p.value + zeta_p.remainder)
        ks = np.arange(1, 2 * got.n_terms + 1, dtype=float)
        longer = math.fsum(np.exp(ks * (-hurst / 4.0) - p * np.log(ks)))
        assert abs(longer - got.value) <= got.remainder


class TestThetaSup:
    def test_matches_direct_computation(self):
        for hurst in (0.5, 0.35, 0.25):
            model = SheModel(hurst=hurst)
            got = theta_sup(hurst)
            for halfwidth in (0.3, 1.0, 4.0):
                direct = min(_cell_ratios(model, halfwidth, 700))
                assert got == pytest.approx(direct, rel=1e-12)
                assert got <= direct * (1 + 1e-12)

    def test_increasing_cells_attain_later(self):
        # eps_k grows faster than gamma_k, so the ratio falls with k and its
        # infimum is approached only by later cells: every cell lies above it
        model = SheModel(hurst=0.5)
        ratios = _cell_ratios(model, 1.0, 40)
        assert all(b < a for a, b in zip(ratios, ratios[1:]))
        assert min(ratios) > theta_sup(0.5)

    def test_depends_on_hurst_alone(self):
        # c_V / A(H) = sqrt(3 2^(1-H)), so the limit needs neither constant
        for hurst in (*np.geomspace(1e-300, 0.5, 100), 0.35, 0.25):
            model = SheModel(hurst=float(hurst))
            want = model.c_v / model.a_h * ((math.e - 1) / math.e) ** (hurst / 2)
            got = theta_sup(float(hurst))
            assert abs(got - want) <= 8 * math.ulp(want)
            assert got > 1.8


class TestGrowthTailBound:
    """The growth bound at fixed theta: ``sup_tail_bound`` with k = S and scale C."""

    @pytest.mark.pinned
    def test_frozen_value_unit_series(self):
        val = sup_tail_bound(10.0, 0.5, UNIT)
        expected = 2 * math.exp(-0.5 * (5.0 - 2.0 * math.sqrt(2.0)) ** 2)
        assert val == pytest.approx(expected, rel=1e-13)

    def test_thresholds(self):
        # u threshold for C=S=1, theta=0.5, gb=2: 2/(0.5 * sqrt(0.5)) = 4 sqrt(2)
        thr = 2.0 / (0.5 * math.sqrt(0.5))
        assert math.isnan(sup_tail_bound(thr, 0.5, UNIT))

    def test_decreasing_in_u_and_series(self):
        us = np.linspace(8, 30, 40)
        vals = [sup_tail_bound(u, 0.5, UNIT) for u in us]
        assert all(b <= a for a, b in zip(vals, vals[1:]))
        lo_s = sup_tail_bound(10.0, 0.5, growth_bound(0.5, 1.0))
        hi_s = sup_tail_bound(10.0, 0.5, UNIT)
        assert lo_s < hi_s
        lo_c = sup_tail_bound(10.0, 0.5, growth_bound(1.0, 0.8))
        assert lo_c < hi_s

    def test_vanishes_at_infinity(self):
        assert sup_tail_bound(1e5, 0.5, UNIT) == 0.0


class TestPowerVariant:
    def test_scale_to_zero_shrinks_bound(self):
        # cells [k, k+1] x [-1, 1] with norms eps_k = scale * (k+1)^0.3, Holder
        # scales c_k = (k+1)^0.3 and weights e^(0.4 k), so gamma_k / eps_k =
        # 3 / scale for every k.  c1(k) = c_k^(1/2) c1 with c1 that of c = 1,
        # so C = scale L and S = sqrt(scale) c1 L with L = sum (k+1)^0.3 e^(-0.4 k).
        series = sum_series(lambda k: (np.asarray(k) + 1.0) ** 0.3 * np.exp(-0.4 * np.asarray(k)))
        c1 = _cell_constant(0.0, 1.0, 1.0, 0.5, 1.0)

        def cells(scale):
            return scale * series.value, math.sqrt(scale) * c1 * series.value, min(1.0, 3.0 / scale)

        (c_small, s_small, cap_small), (c_large, s_large, cap_large) = cells(1e-4), cells(0.3)
        # u valid for both; the larger-scale series dominate so its threshold rules
        theta = 0.4
        u = 1.5 * 2.0 * s_large / ((1 - theta) * theta ** 0.5)
        b_small = sup_tail_bound(u, theta, growth_bound(s_small, c_small, cap=cap_small))
        b_large = sup_tail_bound(u, theta, growth_bound(s_large, c_large, cap=cap_large))
        assert b_small < b_large


class TestOptimizeThetaGrowth:
    def test_beats_fixed_theta(self):
        growth = linear_series()
        u = 3.0 * 2.0 * growth.k / (0.5 * 0.5 ** 0.5)
        theta_star, bound = optimize_theta_growth(u, growth)
        for theta in (0.2, 0.5, 0.8):
            other = sup_tail_bound(u, theta, growth)
            if not math.isnan(other):
                assert bound <= other * (1 + 1e-9) + 1e-300

    def test_no_valid_theta(self):
        assert math.isnan(optimize_theta_growth(0.5, UNIT)[1])

    def test_closed_form_beats_dense_grid_random_specs(self):
        # Oracle: arg(theta) on a 10000-point grid, vectorized from the
        # defining formula, with the fixed-theta bound at the grid's best theta.
        # Small Holder scales put the cap below the unconstrained theta*.
        rng = np.random.default_rng(20240503)
        n_capped = n_free = 0
        for _ in range(40):
            fam = PhiFamily(float(rng.choice([2.0, 1.5])))
            gamma = float(rng.uniform(1.1 / fam.beta, 1.0))
            holder = float(rng.choice([rng.uniform(0.005, 0.05), rng.uniform(0.5, 2.0)]))
            growth = linear_series(
                q=float(rng.uniform(0.2, 0.8)),
                r=float(rng.uniform(0.1, 0.8)),
                halfwidth=float(rng.uniform(0.3, 2.0)),
                holder=holder,
                gamma=gamma,
                h1=float(rng.uniform(0.3, 1.0)),
                fam=fam,
            )
            S, gb, cap = growth.k, growth.gamma_beta, growth.cap
            thetas = np.geomspace(1e-6, cap * (1 - 1e-9), 10000)
            thr = np.min(2.0 * S / ((1 - thetas) * thetas ** (1.0 / gb)))
            for factor in (1.01, 1.5, 3.0, 20.0):
                u = factor * thr
                arg = u * (1 - thetas) - 2.0 * S * thetas ** (-1.0 / gb)
                theta_star, bound = optimize_theta_growth(u, growth)
                best = float(thetas[np.argmax(arg)])
                other = sup_tail_bound(u, best, growth)
                assert bound <= other * (1 + 1e-9)
                assert 0.0 < theta_star < cap
                if (2.0 * S / (gb * u)) ** (gb / (gb + 1.0)) >= cap:
                    n_capped += 1
                    assert theta_star == pytest.approx(cap, rel=1e-11)
                else:
                    n_free += 1
            assert math.isnan(optimize_theta_growth(0.99 * thr, growth)[1])
        assert min(n_capped, n_free) >= 10, (n_capped, n_free)

    def test_nonpositive_u_has_no_valid_theta(self):
        for u in (0.0, -3.0):
            assert math.isnan(optimize_theta_growth(u, UNIT)[1])

    def test_same_optimum_as_bounded_box(self):
        # one theta* routine: with S = c1 eps0^q, C = eps0 and the box's cap,
        # the growth optimum is the bounded-box optimum
        fam = PhiFamily(1.7)
        box, prof = AnisotropicBox(0, 1, 0, 2, 0.6, 0.9), HolderProfile(1.3, 0.8)
        inputs = field_bound(0.7, box, prof, fam)
        gb = 0.8 * fam.beta
        s_value = c1_constant(box, prof, fam) * 0.7 ** (1.0 - 1.0 / gb)
        growth = growth_bound(s_value, 0.7, gb, fam, inputs.cap)
        n_valid = 0
        for u in np.geomspace(1.0, 1e3, 40):
            expected = optimize_theta(u, inputs)
            got = optimize_theta_growth(u, growth)
            if math.isnan(expected[1]):
                assert math.isnan(got[1]) and got[0] == expected[0]
                continue
            n_valid += 1
            assert got == expected
        assert 10 <= n_valid < 40
