"""Heat-equation constants, field bound mappings, envelope."""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gamma, zeta

from series_oracle import sum_series
from suptail import supbound
from suptail.entropy import HolderProfile, c1_constant
from suptail.growth import _polylog, _zeta, optimize_theta_growth, theta_sup
from suptail.heat import (
    SheModel,
    gamma_ratio,
    increment_constant,
    kernel_moment_constant,
    noise_constant,
    omega_bound_inputs,
    omega_holder_constant,
    she_growth_envelope,
    space_increment_coefficient,
    sup_norm_coefficient,
    time_increment_coefficient,
    v_bound_inputs,
    variance_coefficient,
)
from suptail.metric import AnisotropicBox
from suptail.orlicz import PhiFamily


def _axis_terms(model, halfwidth):
    """Time- and space-axis parts of sqrt(eps_0) c1(0) for the V envelope
    (beta = 2, gamma = 1, cell 0 = [1, e] x [-A, A])."""
    h = model.hurst
    front = math.sqrt(model.a_h * math.exp(h / 2)) * math.sqrt(2 * model.c_v) / 0.5
    return (
        front * (2 / h) * ((math.e - 1) / 2) ** (h / 4),
        front * (1 / h) * halfwidth ** (h / 2),
    )


def _envelope_summands(model, p, halfwidth):
    """k-th summands of C~ = A e^(H/2) sum k^-p and
    S~ = sum (T + X e^(-kH/4)) k^-p, with k^-p read as 1 at k = 0."""
    h = model.hurst
    time_axis, space_axis = _axis_terms(model, halfwidth)

    def k_pow(k):
        return np.maximum(np.asarray(k, dtype=float), 1.0) ** -p

    def c_summand(k):
        return model.a_h * math.exp(h / 2) * k_pow(k)

    def s_summand(k):
        k = np.asarray(k, dtype=float)
        return (time_axis + space_axis * np.exp(-k * h / 4)) * k_pow(k)

    return c_summand, s_summand


def _cell(model, k, halfwidth):
    """Box and modulus of the V envelope's cell [e^k, e^(k+1)] x [-A, A]."""
    h = model.hurst
    box = AnisotropicBox(math.exp(k), math.exp(k + 1), -halfwidth, halfwidth, h / 2, h)
    return box, HolderProfile(model.c_v, 1.0)


def _cell_summands(model, p, halfwidth, k):
    """k-th summands eps_k / f_k and eps_k^(1/2) c1(k) / f_k of C~ and S~ from
    their definitions: eps_k = A(H) e^((k+1)H/2), f_k = (e^(kH/2) k^p) v 1."""
    h = model.hurst
    eps_k = model.a_h * math.exp((k + 1) * h / 2)
    f_k = max(math.exp(k * h / 2) * float(k) ** p, 1.0)
    c1_k = c1_constant(*_cell(model, k, halfwidth), PhiFamily(2.0))
    return eps_k / f_k, math.sqrt(eps_k) * c1_k / f_k


def _polylog_quad(p, hurst):
    """Li_p(e^(-H/4)) from Li_p(x) = x / Gamma(p) int_0^inf t^(p-1) / (e^t - x) dt."""
    x = math.exp(-hurst / 4)
    f = lambda t: t ** (p - 1) * math.exp(-t) / (1 - x * math.exp(-t))
    head, _ = quad(f, 0.0, 1.0, epsabs=0.0, epsrel=1e-13, limit=200)
    tail, _ = quad(f, 1.0, np.inf, epsabs=0.0, epsrel=1e-13, limit=200)
    return x / gamma(p) * (head + tail)


class TestNoiseConstant:
    def test_values(self):
        assert noise_constant(0.5) == pytest.approx(1.0 / (2.0 * math.pi), abs=1e-15)
        assert noise_constant(0.25) == pytest.approx(0.09973557010035816, rel=1e-12)

    def test_vanishes_at_zero(self):
        assert noise_constant(1e-9) < 1e-8

    def test_range_rejected(self):
        for h in (0.0, 0.6, 1.0, -0.1):
            with pytest.raises(ValueError):
                noise_constant(h)


class TestVarianceCoefficient:
    def test_frozen_values(self):
        assert variance_coefficient(0.5) == pytest.approx(math.sqrt(2 * math.pi), rel=1e-13)
        assert variance_coefficient(0.25) == pytest.approx(2.9145485228295227, rel=1e-12)

    def test_matches_spectral_integral_oracle(self):
        # independent evaluation of int_R (1 - e^{-2 xi^2})/(2 xi^2) |xi|^{1-2H} dxi
        for hurst in (0.1, 0.2, 0.35, 0.5):
            f = lambda x: (1 - math.exp(-2 * x * x)) / (2 * x * x) * x ** (1 - 2 * hurst)
            val = 2 * (
                quad(f, 0, 1, epsabs=1e-13)[0] + quad(f, 1, np.inf, epsabs=1e-13)[0]
            )
            assert variance_coefficient(hurst) == pytest.approx(val, rel=1e-9)

    def test_white_noise_plancherel_identity(self):
        # at H = 1/2 the variance at t is int_0^t int_R G_s(y)^2 dy ds = sqrt(t/(2 pi))
        t = 1.0
        direct = quad(lambda s: 1.0 / (2.0 * math.sqrt(2.0 * math.pi * s)), 0, t)[0]
        assert noise_constant(0.5) * variance_coefficient(0.5) == pytest.approx(
            direct, rel=1e-10
        )


class TestTimeIncrementCoefficient:
    def test_closed_form_at_half(self):
        closed = 2 * math.sqrt(math.pi) - math.sqrt(2 * math.pi)
        assert time_increment_coefficient(0.5) == pytest.approx(closed, abs=1e-10)

    def test_matches_quadrature_oracle(self):
        # int_0^inf (1 - e^{-u^2})^2 u^{-1-2H} du by two QUADPACK pieces
        for hurst in (0.01, 0.1, 0.25, 0.35, 0.4, 0.5):
            f = lambda u: (-math.expm1(-u * u)) ** 2 * u ** (-1.0 - 2.0 * hurst)
            core = quad(f, 0.0, 1.0, epsabs=5e-11, epsrel=1e-12, limit=200)[0]
            tail = quad(f, 1.0, np.inf, epsabs=5e-11, epsrel=1e-12, limit=200)[0]
            assert time_increment_coefficient(hurst) == pytest.approx(core + tail, rel=1e-9)

    def test_frozen_quarter(self):
        assert time_increment_coefficient(0.25) == pytest.approx(1.9871182870301753, rel=1e-9)


class TestSpaceIncrementCoefficient:
    def test_half_exact(self):
        assert space_increment_coefficient(0.5) == math.pi / 2.0

    def test_quarter_closed_form(self):
        assert space_increment_coefficient(0.25) == pytest.approx(
            math.sqrt(2 * math.pi), rel=1e-13
        )

    def test_continuity_at_half(self):
        assert space_increment_coefficient(0.499) == pytest.approx(math.pi / 2, abs=1e-2)

    def test_matches_cosine_integral_oracle(self):
        for hurst in (0.2, 0.35, 0.45):
            f = lambda x: (1 - math.cos(x)) * x ** (-1 - 2 * hurst)
            head = quad(f, 0, 1, epsabs=1e-13)[0]
            # tail: int (1-cos)/x^{1+2H} = int x^{-1-2H} - int cos(x) x^{-1-2H}
            power_tail = 1.0 / (2 * hurst)
            cos_tail = quad(
                lambda x: x ** (-1 - 2 * hurst), 1, np.inf, weight="cos", wvar=1.0
            )[0]
            oracle = head + power_tail - cos_tail
            assert space_increment_coefficient(hurst) == pytest.approx(oracle, abs=1e-7)


class TestCompositeConstants:
    @pytest.mark.pinned
    def test_frozen_values_at_half(self):
        assert sup_norm_coefficient(0.5) == pytest.approx((2 * math.pi) ** -0.25, rel=1e-12)
        assert increment_constant(0.5) == pytest.approx(1.3009876058761163, rel=1e-9)

    def test_positive_on_hurst_grid(self):
        for hurst in np.linspace(0.05, 0.5, 10):
            assert increment_constant(float(hurst)) > 0
            assert sup_norm_coefficient(float(hurst)) > 0

    def test_max_branch_at_half_is_time_terms(self):
        c12 = variance_coefficient(0.5) + time_increment_coefficient(0.5)
        assert c12 > space_increment_coefficient(0.5)
        expected = math.sqrt(3 * noise_constant(0.5) * c12)
        assert increment_constant(0.5) == pytest.approx(expected, rel=1e-12)

    def test_time_part_always_wins(self):
        # C_H c_3H = 1/4 and C_H (c_1H + c_2H) = Gamma(2H+1) / (2 Gamma(H+1)),
        # at least min Gamma / 2 > 0.44, so c_V takes the time part alone and
        # c_V / A(H) = sqrt(3 2^(1-H)) depends on H alone.  A(H)^2 and the
        # covariance prefactor r/4 read gamma_ratio; the coefficient functions'
        # own closed forms, C_H c_1H and C_H (c_1H + c_2H) / 2, are their second route
        for hurst in [*np.geomspace(1e-300, 0.5, 200), *np.linspace(0.001, 0.5, 200),
                      *(0.5 - 10.0 ** -k for k in range(4, 16))]:
            hurst = float(hurst)
            c_h = noise_constant(hurst)
            space = c_h * space_increment_coefficient(hurst)
            time = c_h * (variance_coefficient(hurst) + time_increment_coefficient(hurst))
            pairs = (
                (space, 0.25),
                (time, math.gamma(2 * hurst + 1) / (2 * math.gamma(hurst + 1))),
                (increment_constant(hurst) / sup_norm_coefficient(hurst), math.sqrt(3 * 2 ** (1 - hurst))),
                (sup_norm_coefficient(hurst) ** 2, c_h * variance_coefficient(hurst)),
                (gamma_ratio(hurst) / 4, time / 2),
            )
            for got, want in pairs:
                assert abs(got - want) <= 16 * math.ulp(want), hurst
            assert time >= 1.9 * space


class TestKernelMomentConstant:
    def test_half_value(self):
        assert kernel_moment_constant(0.5) == pytest.approx(2 / math.sqrt(math.pi), rel=1e-14)

    def test_matches_quadrature_oracle(self):
        for rho in (0.3, 0.5, 1.0):
            f = lambda y: 2 * math.exp(-y * y / 4) / math.sqrt(4 * math.pi) * y ** (2 * rho)
            oracle = quad(f, 0, np.inf, epsabs=1e-13)[0]
            assert kernel_moment_constant(rho) == pytest.approx(oracle, rel=1e-9)


class TestSpecialFunctionOracles:
    """math.gamma / math.lgamma forms and the Euler-Maclaurin zeta against scipy.special."""

    def test_hurst_constants_match_scipy_gamma(self):
        # H = 1/2 - 10^-k: near 1/2, Gamma(1-2H) cos(pi H) cancels a pole
        # against a zero; sin(pi (1/2 - H)) takes cos(pi H) without that loss
        for hurst in [*np.linspace(0.005, 0.4999, 50), *(0.5 - 10.0 ** -k for k in range(4, 16))]:
            pairs = (
                (noise_constant, gamma(2 * hurst + 1) * math.sin(math.pi * hurst) / (2 * math.pi)),
                (variance_coefficient, gamma(1 - hurst) * 2 ** (hurst - 1) / hurst),
                (time_increment_coefficient, gamma(1 - hurst) * (2 - 2 ** hurst) / (2 * hurst)),
                (
                    space_increment_coefficient,
                    gamma(1 - 2 * hurst) * math.sin(math.pi * (0.5 - hurst)) / (2 * hurst),
                ),
            )
            for fn, want in pairs:
                assert fn(float(hurst)) == pytest.approx(want, rel=1e-14, abs=0.0)

    def test_kernel_moment_matches_scipy_gamma(self):
        for rho in np.linspace(0.02, 1.0, 50):
            want = 4 ** rho / math.sqrt(math.pi) * gamma(rho + 0.5)
            assert kernel_moment_constant(float(rho)) == pytest.approx(want, rel=1e-14, abs=0.0)

    def test_zeta_matches_scipy_within_remainder(self):
        for p in 1.0 + np.logspace(-6, math.log10(59.0), 200):
            got, want = _zeta(float(p)), float(zeta(p))
            assert abs(got.value - want) <= got.remainder
            assert abs(got.value - want) <= 8 * math.ulp(want)

    @pytest.mark.parametrize(
        "p, exact", [(2.0, math.pi ** 2 / 6), (4.0, math.pi ** 4 / 90), (6.0, math.pi ** 6 / 945)]
    )
    def test_zeta_remainder_covers_exact_values(self, p, exact):
        got = _zeta(p)
        assert abs(got.value - exact) <= got.remainder <= 64 * math.ulp(exact)


class TestOmegaHolderConstant:
    def test_kernel_branch(self):
        expected = math.sqrt(2 * max(2 / math.sqrt(math.pi), 1.0))
        assert omega_holder_constant(1.0, 0.5) == pytest.approx(expected, rel=1e-13)

    def test_holder_branch(self):
        # L = 2 > C_1(1/2): c = 2*2*2 = 8
        assert omega_holder_constant(2.0, 0.5) == pytest.approx(2 * math.sqrt(2), rel=1e-13)


class TestSheModel:
    @pytest.mark.pinned
    def test_constants_dict(self):
        m = SheModel(hurst=0.5, rho=0.5)
        cs = m.constants()
        assert cs["noise_constant"] == pytest.approx(1 / (2 * math.pi))
        assert cs["sup_norm_coefficient"] == pytest.approx((2 * math.pi) ** -0.25, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            SheModel(hurst=0.7)
        with pytest.raises(ValueError):
            SheModel(hurst=0.5, rho=1.5)
        with pytest.raises(ValueError):
            SheModel(hurst=0.5, init_sup=-1.0)


class TestFieldMappings:
    def test_omega_delegation_matches_theorem_formula(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            alpha = rng.uniform(1.2, 2.0)
            rho = rng.uniform(0.3, 1.0)
            L = rng.uniform(0.5, 2.0)
            c0 = rng.uniform(0.5, 2.0)
            c_phi = rng.uniform(0.8, 1.5)
            t1, t2 = rng.uniform(0.5, 2.0, size=2)
            model = SheModel(
                hurst=0.5, rho=rho, holder_const=L, init_sup=c0, det_const=c_phi, alpha=alpha
            )
            box = AnisotropicBox(0.0, t1, 0.0, t2)
            inputs = omega_bound_inputs(box, model)
            beta = PhiFamily(alpha).beta
            c_tilde = (
                2 ** (1 / beta)
                * (model.c_omega * c_phi) ** (1 / beta)
                / (1 - 1 / beta)
                * (
                    (2 / rho) * (t1 / 2) ** (rho / (2 * beta))
                    + (1 / rho) * (t2 / 2) ** (rho / beta)
                )
            )
            eps0 = c0 * c_phi
            assert inputs.scale == eps0
            # k = c1 eps0^q, q = 1 - 1/beta at gamma = 1
            assert inputs.k == pytest.approx(c_tilde * eps0 ** (1 - 1 / beta), rel=1e-12)
            theta = rng.uniform(0.1, min(0.9, 0.99 * inputs.cap))
            thr = supbound.u_threshold(theta, inputs)
            u = 1.5 * thr
            expected = 2 * math.exp(
                -(1 / beta)
                * (
                    u * (1 - theta) / eps0
                    - 2 * (theta * eps0) ** (-1 / beta) * c_tilde
                )
                ** beta
            )
            assert supbound.sup_tail_bound(u, theta, inputs) == pytest.approx(
                min(1.0, expected), rel=1e-11
            )

    def test_v_mapping_constant_identity(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            hurst = rng.uniform(0.1, 0.5)
            t1, t2 = rng.uniform(0.4, 1.5, size=2)
            model = SheModel(hurst=hurst)
            box = AnisotropicBox(0.1, 0.1 + t1, 0.0, t2)
            inputs = v_bound_inputs(box, model)
            c_v = model.c_v
            c_tt = (
                2
                * math.sqrt(2 * c_v)
                * ((2 / hurst) * (t1 / 2) ** (hurst / 4) + (1 / hurst) * (t2 / 2) ** (hurst / 2))
            )
            eps0 = model.a_h * (0.1 + t1) ** (hurst / 2)
            assert inputs.k == pytest.approx(c_tt * eps0 ** 0.5, rel=1e-12)  # q = 1/2
            assert inputs.fam.alpha == 2.0

    def test_v_eps_value(self):
        model = SheModel(hurst=0.5)
        box = AnisotropicBox(0.1, 1.0, 0.0, 1.0)
        inputs = v_bound_inputs(box, model)
        assert inputs.scale == pytest.approx(sup_norm_coefficient(0.5), rel=1e-13)

    def test_v_tail_decreases(self):
        model = SheModel(hurst=0.5)
        box = AnisotropicBox(0.1, 1.0, 0.0, 1.0)
        inputs = v_bound_inputs(box, model)
        thr = supbound.u_threshold(0.5, inputs)
        vals = [supbound.sup_tail_bound(u, 0.5, inputs) for u in np.linspace(1.01 * thr, 2 * thr, 20)]
        assert all(b <= a for a, b in zip(vals, vals[1:]))
        assert vals[-1] < vals[0]

    def test_below_threshold_error(self):
        model = SheModel(hurst=0.5, rho=0.5)
        box = AnisotropicBox(0.0, 1.0, 0.0, 1.0)
        assert math.isnan(supbound.sup_tail_bound(0.1, 0.5, omega_bound_inputs(box, model)))


class TestGrowthEnvelope:
    def test_c_tilde_matches_zeta_fixture(self):
        model = SheModel(hurst=0.5)
        _, c_tilde, _ = she_growth_envelope(model, p=2.0, halfwidth=1.0)
        target = model.a_h * math.exp(0.25) * (1 + zeta(2.0))
        assert c_tilde.value == pytest.approx(target, abs=1e-6)
        assert c_tilde.remainder <= 1e-6

    def test_s_tilde_certified_finite(self):
        model = SheModel(hurst=0.5)
        _, _, s_tilde = she_growth_envelope(model, p=2.0, halfwidth=1.0)
        assert math.isfinite(s_tilde.value)
        assert s_tilde.remainder <= 1e-4

    def test_monotone_decreasing_in_p(self):
        model = SheModel(hurst=0.5)
        values = [
            she_growth_envelope(model, p=p, halfwidth=1.0)[1].value
            for p in (2.0, 3.0, 4.0, 6.0)
        ]
        assert all(b < a for a, b in zip(values, values[1:]))
        # limit: only the k=0 and k=1 terms survive
        floor = model.a_h * math.exp(0.25) * 2.0
        assert all(v > floor for v in values)

    def test_p_at_most_one_rejected(self):
        model = SheModel(hurst=0.5)
        for p in (1.0, math.nan):
            with pytest.raises(ValueError, match="p must exceed 1"):
                she_growth_envelope(model, p=p)

    def test_invalid_u_marked_nan(self):
        model = SheModel(hurst=0.5)
        bound, _, _ = she_growth_envelope(model, p=2.0, halfwidth=1.0)
        assert math.isnan(optimize_theta_growth(1.0, bound)[1])
        assert 0.0 <= optimize_theta_growth(5000.0, bound)[1] <= 1.0

    def test_plain_terms_match_closed_form_summands(self):
        # the summands from the per-cell definitions (through c1_constant)
        # against the k-th summand of the zeta / Li_p decomposition
        for hurst, p in ((0.5, 2.0), (0.25, 2.5), (0.35, 1.5)):
            model = SheModel(hurst=hurst)
            c_summand, s_summand = _envelope_summands(model, p, 0.7)
            for k in (0, 1, 2, 7, 50, 300):
                c_k, s_k = _cell_summands(model, p, 0.7, k)
                assert c_k == pytest.approx(float(c_summand(k)), rel=1e-12)
                assert s_k == pytest.approx(float(s_summand(k)), rel=1e-12)

    @pytest.mark.parametrize(
        "hurst, p, halfwidth", [(0.5, 2.0, 1.0), (0.25, 2.5, 0.7), (0.35, 1.5, 1.3), (0.1, 3.0, 0.5)]
    )
    def test_bound_covers_partial_cell_sums(self, hurst, p, halfwidth):
        # the returned bound, not the returned sums: its k and scale must be
        # at least the sums of S~'s and C~'s first 40 summands, each computed
        # from its cell's definition through c1_constant
        model = SheModel(hurst=hurst)
        bound, _, _ = she_growth_envelope(model, p=p, halfwidth=halfwidth)
        cells = [_cell_summands(model, p, halfwidth, k) for k in range(40)]
        assert bound.scale >= math.fsum(c for c, _ in cells)
        assert bound.k >= math.fsum(s for _, s in cells)

    @pytest.mark.parametrize("hurst, p", [(0.5, 3.0), (0.25, 2.5), (0.35, 2.0)])
    def test_certified_sum_of_summands_matches_closed_form(self, hurst, p):
        # independent route: the block-bracket certifier over the summands
        model = SheModel(hurst=hurst)
        _, c_tilde, s_tilde = she_growth_envelope(model, p=p, halfwidth=0.7)
        c_summand, s_summand = _envelope_summands(model, p, 0.7)
        for summand, closed in ((c_summand, c_tilde), (s_summand, s_tilde)):
            certified = sum_series(summand, tol=1e-5)
            assert abs(certified.value - closed.value) <= certified.remainder + closed.remainder

    @pytest.mark.parametrize("hurst, p", [(0.5, 1.2), (0.5, 1.5), (0.5, 1.8), (0.01, 2.0)])
    def test_closed_forms_at_slow_decay_and_small_hurst(self, hurst, p):
        model = SheModel(hurst=hurst)
        _, c_tilde, s_tilde = she_growth_envelope(model, p=p, halfwidth=1.0)
        c_target = model.a_h * math.exp(hurst / 2) * (1 + zeta(p))
        time_axis, space_axis = _axis_terms(model, 1.0)
        s_target = time_axis * (1 + zeta(p)) + space_axis * (1 + _polylog_quad(p, hurst))
        assert math.isfinite(c_tilde.value) and math.isfinite(s_tilde.value)
        assert c_tilde.value == pytest.approx(c_target, rel=1e-13)
        assert s_tilde.value == pytest.approx(s_target, rel=1e-12)
        assert c_tilde.remainder <= 1e-6 and s_tilde.remainder <= 1e-6

    @pytest.mark.parametrize("hurst", [0.5, 0.35, 0.25])
    def test_theta_cap_is_exact_infimum(self, hurst):
        model = SheModel(hurst=hurst)
        bound, _, _ = she_growth_envelope(model, p=2.0, halfwidth=1.0)
        cap = theta_sup(hurst)
        assert bound.cap == min(1.0, cap) == 1.0
        # the k -> inf limit of gamma_k / eps_k, read off the cells' diameters
        box, prof = _cell(model, 700, 1.0)
        ratio = prof.sigma(box.diameter) / (model.a_h * math.exp(701 * hurst / 2))
        assert cap == pytest.approx(ratio, rel=1e-12)
        assert cap > 1.0  # c_V / A(H) >= sqrt(3), so the V cap is always 1

    def test_theta_cap_limit_exceeds_one_for_every_hurst(self):
        # she_growth_envelope returns theta_cap = 1 on the strength of this
        for hurst in np.linspace(0.005, 0.5, 100):
            ratio = increment_constant(hurst) / sup_norm_coefficient(hurst)
            assert ratio >= math.sqrt(3.0)
            assert ratio * ((math.e - 1) / math.e) ** (hurst / 2) >= 1.0

    def test_bound_is_tail_bound_at_series_upper_ends(self):
        model = SheModel(hurst=0.5)
        # the bound column of bound-growth is optimize_theta_growth on this
        # bound (tests/test_cli.py TestBoundGrowth::test_envelope_and_series),
        # with each sum at the upper end of its certified interval
        bound, c_tilde, s_tilde = she_growth_envelope(model, p=2.0, halfwidth=1.0)
        growth = supbound.TailBound(
            s_tilde.value + s_tilde.remainder,
            c_tilde.value + c_tilde.remainder,
            2.0,
            1.0,
            PhiFamily(2.0),
        )
        assert bound == growth

    def test_power_cells_already_substituted(self):
        # the bounded-box norm of cell k is the power form A(H) e^((k+1)H/2)
        # that the envelope's eps_k uses
        model = SheModel(hurst=0.5)
        for k in (0, 1, 5, 40):
            eps_k = v_bound_inputs(_cell(model, k, 1.0)[0], model).scale
            assert eps_k == pytest.approx(model.a_h * math.exp((k + 1) * 0.25), rel=1e-12)

    def test_entropy_constants_match_former_closed_forms(self):
        # Oracles: the per-cell constant and the envelope's T, X as written
        # out before both went through entropy.c1_axis_terms.
        def cell_constant_oracle(model, k, halfwidth):
            h1, h2, beta = model.hurst / 2.0, model.hurst, 2.0
            l_k = math.exp(k + 1) - math.exp(k)
            axis = (l_k / 2.0) ** (h1 / beta) / h1 + halfwidth ** (h2 / beta) / h2
            return axis * 2.0 ** (1.0 / beta) * model.c_v ** (1.0 / beta) / (1.0 - 1.0 / beta)

        def axis_terms_oracle(model, halfwidth):
            h = model.hurst
            front = math.sqrt(model.a_h * math.exp(h / 2.0)) * 2.0 * math.sqrt(2.0 * model.c_v)
            time_axis = front * (2.0 / h) * ((math.e - 1.0) / 2.0) ** (h / 4.0)
            return time_axis, front * halfwidth ** (h / 2.0) / h

        worst_cell = worst_s = 0.0
        p = 2.0
        zeta_p = _zeta(p)
        for hurst in np.linspace(0.02, 0.5, 25):
            model = SheModel(hurst=float(hurst))
            li = _polylog(p, -model.hurst / 4.0, zeta_p.value + zeta_p.remainder).value
            for halfwidth in (0.3, 1.0, 4.0):
                for k in (0, 1, 5, 40):
                    got = c1_constant(*_cell(model, k, halfwidth), PhiFamily(2.0))
                    rel = got / cell_constant_oracle(model, k, halfwidth) - 1.0
                    worst_cell = max(worst_cell, abs(rel))
                time_axis, space_axis = axis_terms_oracle(model, halfwidth)
                s_oracle = time_axis * (1.0 + zeta_p.value) + space_axis * (1.0 + li)
                s_tilde = she_growth_envelope(model, p, halfwidth=halfwidth)[2]
                worst_s = max(worst_s, abs(s_tilde.value / s_oracle - 1.0))
        assert worst_cell <= 1e-15
        assert worst_s <= 1e-15
