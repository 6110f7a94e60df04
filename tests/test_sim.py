"""Covariance kernels, Gaussian sampling, empirical tails, bound verification."""

import math
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.special import erf, gamma, hyp1f1

from known_answers import equicorrelated_max_tail
from quadrature_oracle import QuadratureError
from sampling_oracle import covariance_from_points, fields_from_points, v_kernel
from suptail import sim
from suptail.heat import (
    SheModel,
    increment_constant,
    noise_constant,
    sup_norm_coefficient,
    v_bound_inputs,
    variance_coefficient,
)
from suptail.metric import AnisotropicBox
from suptail.sim import (
    FactorizationError,
    covariance_matrix,
    empirical_sup_tail,
    factor_covariance,
    make_grid,
    sample_fields,
    sample_sups,
    v_covariance,
    verdicts,
)
from suptail.supbound import min_threshold

BOX = AnisotropicBox(0.1, 1.0, 0.0, 1.0)


def clopper_pearson(k, n):
    """The scalar Clopper-Pearson interval at level sim.CONFIDENCE."""
    lo, hi = sim._clopper_pearson_limits(np.array([k]), n)
    return float(lo[0]), float(hi[0])


def small_factor(nt=3, nx=3, hurst=0.5):
    return factor_covariance(covariance_matrix(*make_grid(BOX, nt, nx), hurst))


def points(times, xs):
    """The (t, x) grid points in t-major order, as covariance_matrix indexes them."""
    return [(t, x) for t in times for x in xs]


def sups_of(fields):
    return np.abs(fields).max(axis=1)


def _split_quad(smooth, oscillation: float, tol: float) -> float:
    """int_0^inf smooth(xi) * cos(oscillation*xi) dxi: adaptive head, Fourier tail.

    The tail is QUADPACK's QAWF, which works in cycles of about pi/oscillation
    and starts each with one 15-point rule.  When a cycle is much longer than
    the scale on which smooth varies, every node misses the mass and QAWF
    returns a wrong value with a tiny error estimate.  So the head runs up to
    the first power of 2 with head * oscillation >= pi, with breakpoints at
    the powers of 2 below it, and the tail starts there.  A head beyond
    2^1000 would overflow QAWF's cycle length (it crashes), so smaller
    nonzero oscillations raise.
    """
    from scipy.integrate import quad

    if 0.0 < oscillation < math.pi * 2.0 ** -1000:
        raise QuadratureError(f"oscillation {oscillation} is too small to resolve")
    doublings = 0
    if 0.0 < oscillation < math.pi:
        doublings = math.ceil(math.log2(math.pi / oscillation))
    head = 2.0 ** doublings
    core, e1 = quad(
        lambda xi: smooth(xi) * math.cos(oscillation * xi),
        0.0,
        head,
        epsabs=tol / 4,
        epsrel=1e-12,
        limit=300 + doublings,
        points=[2.0 ** k for k in range(doublings)] or None,
    )
    if oscillation == 0.0:
        tail, e2 = quad(smooth, head, np.inf, epsabs=tol / 4, epsrel=1e-12, limit=300)
    else:
        tail, e2 = quad(
            smooth,
            head,
            np.inf,
            weight="cos",
            wvar=oscillation,
            epsabs=tol / 4,
            limit=300,
            limlst=300,
        )
    if e1 + e2 > 10.0 * max(tol, 1e-14):
        raise QuadratureError(
            f"covariance quadrature error {e1 + e2} exceeds tolerance {tol}"
        )
    return core + tail


def v_covariance_spectral(t, x, s, y, hurst, tol=1e-10):
    """Cov V by quadrature of its spectral form, the oracle for the closed form."""
    a = abs(t - s)
    gap = 2.0 * min(t, s)
    c_h = noise_constant(hurst)

    def smooth(xi):
        x2 = xi * xi
        # a * x2 is nan at a = 0 once x2 overflows, and QAWF crashes on nan
        damp = math.exp(-a * x2) if a > 0.0 else 1.0
        return c_h * -math.expm1(-gap * x2) * damp / (2.0 * x2) * xi ** (1.0 - 2.0 * hurst)

    return 2.0 * _split_quad(smooth, abs(x - y), tol)


class TestVCovariance:
    def test_variance_identity(self):
        rng = np.random.default_rng(10)
        for _ in range(8):
            hurst = rng.uniform(0.1, 0.5)
            t = rng.uniform(0.05, 2.0)
            x = rng.uniform(-1.0, 1.0)
            target = noise_constant(hurst) * variance_coefficient(hurst) * t ** hurst
            assert abs(v_covariance(t, x, t, x, hurst) - target) <= 16 * math.ulp(target)

    def test_zero_time(self):
        assert v_covariance(0.0, 0.3, 0.7, 0.1, 0.5) == 0.0
        assert v_covariance(0.5, 0.3, 0.0, 0.1, 0.3) == 0.0

    def test_symmetry_and_shift_invariance(self):
        a = v_covariance(0.7, 0.3, 0.4, 0.8, 0.3)
        assert a == pytest.approx(v_covariance(0.4, 0.8, 0.7, 0.3, 0.3), rel=1e-12)
        b = v_covariance(0.7, 1.3, 0.4, 1.8, 0.3)  # same x - y
        assert a == pytest.approx(b, rel=1e-10)

    def test_cauchy_schwarz(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            hurst = rng.uniform(0.1, 0.5)
            t, s = rng.uniform(0.05, 1.5, size=2)
            x, y = rng.uniform(-1.0, 1.0, size=2)
            cov = v_covariance(t, x, s, y, hurst)
            v1 = v_covariance(t, x, t, x, hurst)
            v2 = v_covariance(s, y, s, y, hurst)
            assert abs(cov) <= math.sqrt(v1 * v2) + 1e-10

    def test_hurst_validation(self):
        with pytest.raises(ValueError):
            v_covariance(1.0, 0.0, 1.0, 0.0, 0.7)

    @pytest.mark.parametrize("hurst", [0.5, 0.35, 0.25, 0.1])
    def test_closed_form_matches_spectral_quadrature(self, hurst):
        rng = np.random.default_rng(15)
        cases = []
        for k in range(200):
            t = rng.uniform(0.02, 2.0)
            s = t if k % 4 == 0 else rng.uniform(0.02, 2.0)
            x = rng.uniform(-1.5, 1.5)
            y = x + rng.choice([-1.0, 1.0]) * rng.uniform(0.01, 2.0)
            cases.append((t, x, s, y))
        # separations below about 2e-3 once drew silently wrong oracle values
        for z in (1e-5, 1e-4, 1e-3, 2e-3):
            for t, s in ((0.05, 0.05), (0.5, 0.7), (1.3, 1.3)):
                cases.append((t, 0.3, s, 0.3 + z))
        for t, x, s, y in cases:
            scale = noise_constant(hurst) * variance_coefficient(hurst) * max(t, s) ** hurst
            got = v_covariance(t, x, s, y, hurst)
            assert abs(got - v_covariance_spectral(t, x, s, y, hurst)) <= 1e-10 * scale

    def test_unresolvable_separation_raises(self):
        # the oracle resolves separations down to pi 2^-1000 and refuses below
        assert v_covariance_spectral(0.05, 0.0, 0.05, 1e-300, 0.5) == pytest.approx(
            v_covariance_spectral(0.05, 0.0, 0.05, 0.0, 0.5), abs=1e-9
        )
        with pytest.raises(QuadratureError, match="too small"):
            v_covariance_spectral(0.05, 0.0, 0.05, 5e-324, 0.5)

    def test_elementary_form_at_half(self):
        # M(-1/2; 1/2; -w) = e^{-w} + sqrt(pi w) erf(sqrt(w)), C_{1/2} = 1/(2 pi)
        def term(r, z):
            if r == 0.0:
                return math.sqrt(math.pi) * abs(z) / 2.0
            w = z * z / (4.0 * r)
            return math.sqrt(r) * (math.exp(-w) + math.sqrt(math.pi * w) * erf(math.sqrt(w)))

        rng = np.random.default_rng(16)
        for k in range(100):
            t = rng.uniform(0.01, 3.0)
            s = t if k % 5 == 0 else rng.uniform(0.01, 3.0)
            z = rng.uniform(0.0, 4.0)
            want = (term(t + s, z) - term(abs(t - s), z)) / (2.0 * math.sqrt(math.pi))
            assert v_covariance(t, 0.0, s, z, 0.5) == pytest.approx(want, rel=1e-13, abs=1e-15)

    @pytest.mark.parametrize("hurst", [0.5, 0.25])
    def test_continuous_at_zero_separation(self, hurst):
        # |C(z) - C(0)| <= (z^2/2) C_H int_R (e^{-a xi^2} - e^{-b xi^2})/2 |xi|^{1-2H} dxi
        #             = z^2 C_H Gamma(1-H) (a^{H-1} - b^{H-1}) / 4,
        # sharp to leading order, so rounding of C(0) is allowed on top
        t, s = 0.5, 0.7
        a, b = abs(t - s), t + s
        c0 = v_covariance(t, 0.0, s, 0.0, hurst)
        curvature = noise_constant(hurst) * gamma(1.0 - hurst) * (a ** (hurst - 1) - b ** (hurst - 1)) / 4
        for z in (1e-5, 1e-4, 1e-3):
            assert abs(v_covariance(t, 0.0, s, z, hurst) - c0) <= z * z * curvature + 1e-14 * c0

    def test_kummer_term_branches(self):
        # the series and large-w branches agree with hyp1f1 where they meet it
        for hurst in (1e-3, 0.1, 0.35, 0.5):
            for w in (sim._W_SERIES, sim._W_ASYMPTOTIC):
                ws = w * np.array([1 - 1e-9, 1 + 1e-9])
                got = sim._kummer_term(np.ones(2), ws, hurst)
                want = hyp1f1(-hurst, 0.5, -ws)
                assert np.allclose(got, want, rtol=1e-13, atol=0)
        # and reach the exact limits M -> 1 (w -> 0) and r^H M -> z2^H sqrt(pi)/Gamma(H+1/2)
        hurst = 1e-3
        limit = math.sqrt(math.pi) / gamma(hurst + 0.5)
        assert sim._kummer_term(np.array([1.0]), np.array([1e-200]), hurst)[0] == pytest.approx(1.0, rel=1e-15)
        for r in (1e-200, 0.0):
            got = sim._kummer_term(np.array([r]), np.array([1.0]), hurst)[0]
            assert got == pytest.approx(limit, rel=1e-15)
        assert np.isfinite(v_covariance(1e-10, 0.0, 1e-10 + 1e-25, 1.0, hurst))


class TestCovarianceMatrix:
    def test_symmetric_psd(self):
        cov = covariance_matrix(*make_grid(BOX, 3, 3), 0.5)
        assert np.allclose(cov, cov.T)
        w = np.linalg.eigvalsh(cov)
        assert w.min() > -1e-10 * w.max()

    def test_entries_match_v_covariance(self):
        grid = make_grid(BOX, 2, 2)
        cov = covariance_matrix(*grid, 0.5)
        for i, (t, x) in enumerate(points(*grid)):
            for j, (s, y) in enumerate(points(*grid)):
                assert cov[i, j] == pytest.approx(v_covariance(t, x, s, y, 0.5), rel=1e-12)

    @pytest.mark.parametrize(
        "times, xs, match",
        [
            ((), (0.5,), "nonempty"),
            ((0.5,), (), "nonempty"),
            ((0.5, -0.1), (0.5,), "nonnegative"),
        ],
    )
    def test_axes_validated(self, times, xs, match):
        with pytest.raises(ValueError, match=match):
            covariance_matrix(times, xs, 0.5)

    @pytest.mark.parametrize(
        "times, xs, largest",
        [((0.1, 1.0), (0.0, 1e300), "|x - y| is 1e+300"), ((0.1, 1e308), (0.0, 1.0), "time 1e+308")],
        ids=["distance", "time"],
    )
    def test_non_finite_covariance_rejected(self, times, xs, largest):
        # the squared distance or t + s overflows, and the Kummer terms are not finite
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match="covariance is not finite") as info:
                covariance_matrix(times, xs, 0.5)
        assert largest in str(info.value)

    def test_grid_is_t_major_product(self):
        times, xs = make_grid(BOX, 3, 4)
        assert times == tuple(np.linspace(0.1, 1.0, 3).tolist())
        assert xs == tuple(np.linspace(0.0, 1.0, 4).tolist())
        cov = covariance_matrix(times, xs, 0.5)
        for i, (t, x) in enumerate((t, x) for t in times for x in xs):
            assert cov[i, 0] == pytest.approx(v_covariance(t, x, times[0], xs[0], 0.5), rel=1e-12)
        # a degenerate axis is one point, however many were asked for
        assert make_grid(AnisotropicBox(0.5, 0.5, 0.3, 0.3), 6, 4) == ((0.5,), (0.3,))

    @pytest.mark.parametrize("hurst", [0.5, 0.35, 0.25, 0.1])
    @pytest.mark.parametrize("a1", [0.1, 0.0])
    @pytest.mark.parametrize("nt, nx", [(1, 1), (1, 5), (5, 1), (3, 3), (8, 8), (24, 24)])
    def test_axis_table_matches_point_keys_oracle(self, nt, nx, a1, hurst):
        # the full axes: at a1 = 0 they hold t = 0, where the covariance is exactly 0
        grid = tuple(np.linspace(a1, 1.0, nt).tolist()), tuple(np.linspace(0.0, 1.0, nx).tolist())
        want = covariance_from_points(points(*grid), hurst)
        assert np.array_equal(covariance_matrix(*grid, hurst), want)

    @pytest.mark.parametrize("hurst", [0.5, 0.35, 0.25, 0.1, 0.02])
    def test_diagonal_is_sup_norm_coefficient_squared(self, hurst):
        # Var V(t, x) = A(H)^2 t^H: both sides read heat.gamma_ratio r, as r/4 and
        # 2^(H-2) r, so a wrong factor around r in A(H) or in the prefactor fails
        # here; r itself is checked against quadrature and the coefficients
        times, xs = (0.0, 1e-3, 0.1, 0.5, 1.0, 2.7), (-0.4, 0.0, 0.3, 1.0)
        cov = covariance_matrix(times, xs, hurst)
        assert not cov[: len(xs)].any() and not cov[:, : len(xs)].any()
        var = cov.diagonal().reshape(len(times), len(xs))[1:]
        want = sup_norm_coefficient(hurst) ** 2 * np.array(times[1:])[:, None] ** hurst
        assert np.abs(var / want - 1.0).max() <= 1e-13

    def test_unsorted_axes_with_repeats_match_oracle(self):
        grid = (0.7, 0.2, 0.7, 0.0), (0.3, -0.4, 0.9)
        assert np.array_equal(covariance_matrix(*grid, 0.35), covariance_from_points(points(*grid), 0.35))

    @pytest.mark.parametrize("grid", [make_grid(BOX, 4, 3), ((0.7, 0.2, 0.7, 0.0), (0.3, -0.4, 0.9))],
                             ids=["4x3", "unsorted-repeats"])
    def test_one_kummer_term_per_distinct_key(self, monkeypatch, grid):
        # the table's point: one Kummer call, on distinct (t + s or |t - s|) x distinct |x - y|
        times, xs = grid
        calls = []
        kummer_term = sim._kummer_term

        def counted(r, z2, hurst):
            calls.append(r.size)
            return kummer_term(r, z2, hurst)

        monkeypatch.setattr(sim, "_kummer_term", counted)
        covariance_matrix(times, xs, 0.35)
        rs = {t + s for t in times for s in times} | {abs(t - s) for t in times for s in times}
        assert calls == [len(rs) * len({abs(x - y) for x in xs for y in xs})]

    def test_pointwise_kernel_matches_oracle(self):
        rng = np.random.default_rng(18)
        for _ in range(50):
            hurst = rng.uniform(0.05, 0.5)
            t, s = rng.uniform(0.0, 2.0, size=2)
            x, y = rng.uniform(-1.0, 1.0, size=2)
            want = v_kernel(*(np.array([v]) for v in (min(t, s), max(t, s), abs(x - y))), hurst)
            assert v_covariance(t, x, s, y, hurst) == want[0]


class TestSelfSimilarity:
    """V(ct, sqrt(c) x) has the law of c^(H/2) V(t, x) (module docstring): the
    covariance, the V box bound and the sampled suprema each obey it, with no
    constant pinned.  Tolerances are multiples of the double epsilon."""

    SCALES = (1e-3, 0.37, 7.0, 1e4)

    @staticmethod
    def scaled(grid, c):
        times, xs = grid
        return [c * t for t in times], [math.sqrt(c) * x for x in xs]

    @pytest.mark.parametrize("hurst", [0.5, 0.25, 0.1])
    def test_covariance_scales_by_c_to_the_h(self, hurst):
        grid = make_grid(BOX, 12, 12)
        cov = covariance_matrix(*grid, hurst)
        for c in self.SCALES:
            want = c ** hurst * cov
            err = np.abs(covariance_matrix(*self.scaled(grid, c), hurst) - want).max()
            assert err <= 16 * np.finfo(float).eps * np.abs(want).max(), c

    @pytest.mark.parametrize("hurst", [0.5, 0.25, 0.1])
    def test_box_bound_threshold_scales_by_c_to_the_half_h(self, hurst):
        model = SheModel(hurst)
        base = min_threshold(v_bound_inputs(BOX, model))
        for c in self.SCALES:
            box = AnisotropicBox(0.1 * c, c, 0.0, math.sqrt(c))
            got = min_threshold(v_bound_inputs(box, model))
            assert got == pytest.approx(c ** (hurst / 2) * base, rel=16 * np.finfo(float).eps, abs=0.0), c

    @pytest.mark.parametrize("hurst", [0.5, 0.25, 0.1])
    def test_sampled_sups_scale_by_c_to_the_half_h(self, hurst):
        grid = make_grid(BOX, 5, 5)
        sups = sample_sups(factor_covariance(covariance_matrix(*grid, hurst)), 200, seed=7)
        for c in self.SCALES:
            want = c ** (hurst / 2) * sups
            got = sample_sups(factor_covariance(covariance_matrix(*self.scaled(grid, c), hurst)), 200, seed=7)
            assert np.abs(got - want).max() <= 64 * np.finfo(float).eps * want.max(), c


class TestMakeGrid:
    A1_ZERO = AnisotropicBox(0.0, 1.3, -0.5, 0.5)

    @pytest.mark.parametrize("nt", [2, 3, 6, 24])
    def test_time_zero_left_out(self, nt):
        times, xs = make_grid(self.A1_ZERO, nt, 4)
        assert times == tuple(np.linspace(0.0, 1.3, nt)[1:].tolist())
        assert xs == tuple(np.linspace(-0.5, 0.5, 4).tolist())

    @pytest.mark.parametrize("hurst", [0.5, 0.25])
    @pytest.mark.parametrize("nt, nx", [(2, 1), (3, 3), (6, 5)])
    def test_dropped_points_are_the_zero_rows(self, nt, nx, hurst):
        # on the full axes the zero rows of the covariance are the points
        # make_grid leaves out, and the rest of it is the covariance of its grid
        full = tuple(np.linspace(0.0, 1.3, nt).tolist()), tuple(np.linspace(-0.5, 0.5, nx).tolist())
        cov = covariance_matrix(*full, hurst)
        zero = ~cov.any(axis=1)
        grid = make_grid(self.A1_ZERO, nt, nx)
        assert [p for p, z in zip(points(*full), zero) if not z] == points(*grid)
        assert np.array_equal(covariance_matrix(*grid, hurst), cov[~zero][:, ~zero])

    @pytest.mark.parametrize("box, nt", [(A1_ZERO, 1), (AnisotropicBox(0.0, 0.0, -0.5, 0.5), 6)],
                             ids=["nt-1", "b1-0"])
    def test_time_zero_only_raises(self, box, nt):
        with pytest.raises(ValueError, match="the grid's times lie at t = 0 only, where V is 0"):
            make_grid(box, nt, 4)


def eigh_root(cov):
    """Symmetric square root by eigh, the oracle for the Cholesky route of
    factor_covariance; eigenvalues of a PSD matrix that round below 0 count as 0."""
    w, vecs = np.linalg.eigh(cov)
    return (vecs * np.sqrt(np.maximum(w, 0.0))) @ vecs.T


def slightly_indefinite():
    rng = np.random.default_rng(12)
    a = rng.standard_normal((6, 6))
    w, v = np.linalg.eigh(a @ a.T)
    w[0] = -1e-11 * w[-1]
    return (v * w) @ v.T


def _worst_increment_ratio(hurst):
    """max E|V(a) - V(b)|^2 / (|dt|^(H/2) + |dx|^H)^2 over the distinct point
    pairs of 30 log-spaced t in [1e-3, 1] x 31 x in {0} u [1e-4, 2], with
    E|V(a) - V(b)|^2 = C_aa + C_bb - 2 C_ab from the exact covariance."""
    times = np.geomspace(1e-3, 1.0, 30)
    xs = np.concatenate([[0.0], np.geomspace(1e-4, 2.0, 30)])
    cov = covariance_matrix(times, xs, hurst)
    var = cov.diagonal()
    increment = var[:, None] + var[None, :] - 2.0 * cov
    t, x = np.repeat(times, len(xs)), np.tile(xs, len(times))  # the t-major grid order
    dt, dx = np.abs(np.subtract.outer(t, t)), np.abs(np.subtract.outer(x, x))
    off = ~np.eye(len(t), dtype=bool)
    return float(np.max(increment[off] / (dt[off] ** (hurst / 2) + dx[off] ** hurst) ** 2))


class TestIncrementConstant:
    """c_V's Holder bound on the exact increment second moment, scanned over a
    grid beside the sampled check of acceptance criterion 3."""

    @pytest.mark.parametrize("hurst", [0.5, 0.25, 0.1])
    def test_exact_increment_scan(self, hurst):
        worst = _worst_increment_ratio(hurst)
        c_v = increment_constant(hurst)
        assert worst <= c_v ** 2, (math.sqrt(worst), c_v)
        # the scan can tell a wrong constant: c_V halved fails it
        assert worst > (c_v / 2.0) ** 2, (math.sqrt(worst), c_v)


class TestFactorCovariance:
    def test_reconstructs(self):
        cov = covariance_matrix(*make_grid(BOX, 3, 3), 0.5)
        chol = factor_covariance(cov)
        assert np.array_equal(chol, np.tril(chol))
        assert np.allclose(chol @ chol.T, cov, atol=1e-10)

    def test_tiny_negative_eigenvalue_rejected(self):
        with pytest.raises(FactorizationError, match="not positive definite"):
            factor_covariance(slightly_indefinite())

    def test_singular_rejected(self):
        # the time 0.5 twice: exactly singular, and nothing is added to the
        # diagonal to make Cholesky succeed
        with pytest.raises(FactorizationError, match="not positive definite"):
            factor_covariance(covariance_matrix((0.5, 0.5), (0.2, 0.7), 0.5))

    @pytest.mark.parametrize("fixture", ["random_psd", "slightly_indefinite", "zero_time_rows"])
    def test_factor_matches_eigh_oracle(self, fixture):
        """Where eigh finds a negative eigenvalue beyond rounding there is no
        factor; elsewhere L L^T equals cov and the eigh root's square."""
        if fixture == "random_psd":
            a = np.random.default_rng(17).standard_normal((8, 8))
            cov = a @ a.T
        elif fixture == "slightly_indefinite":
            cov = slightly_indefinite()
            w = np.linalg.eigvalsh(cov)
            assert w[0] < -1e-13 * w[-1]
            with pytest.raises(FactorizationError, match="not positive definite"):
                factor_covariance(cov)
            return
        else:  # a1 = 0: make_grid leaves out the six t = 0 points, whose rows are zero
            cov = covariance_matrix(*make_grid(AnisotropicBox(0.0, 1.0, 0.0, 1.0), 6, 6), 0.5)
            assert cov.shape == (30, 30) and np.diag(cov).min() > 0.0
        scale = float(np.max(np.diag(cov)))
        chol = factor_covariance(cov)
        assert np.array_equal(chol, np.tril(chol))
        root = eigh_root(cov)
        assert np.allclose(chol @ chol.T, cov, rtol=0, atol=1e-12 * scale)
        assert np.allclose(chol @ chol.T, root @ root.T, rtol=0, atol=2e-12 * scale)

    def test_materially_indefinite_rejected(self):
        cov = np.array([[1.0, 0.0], [0.0, -0.5]])
        with pytest.raises(FactorizationError, match="not positive definite"):
            factor_covariance(cov)
        # a row of variance 0 with a nonzero covariance
        with pytest.raises(FactorizationError, match="not positive definite"):
            factor_covariance(np.array([[1.0, 0.5], [0.5, 0.0]]))

    @pytest.mark.parametrize(
        "cov", [[[-1.0, 0.0], [0.0, -2.0]], [[0.0, 1.0], [1.0, 0.0]]], ids=["negative", "zero_diagonal"]
    )
    def test_no_positive_variance_rejected(self, cov):
        with pytest.raises(FactorizationError, match="not positive definite"):
            factor_covariance(np.array(cov))

    @pytest.mark.parametrize(
        "cov",
        [
            np.diag([1.0, 0.0, 2.0]),
            np.zeros((3, 3)),
            covariance_matrix(np.linspace(0.0, 1.0, 3), np.linspace(0.0, 1.0, 3), 0.5),
        ],
        ids=["zero_row", "zero_matrix", "time_zero_rows"],
    )
    def test_zero_variance_rejected(self, cov):
        # V at t = 0 has variance 0: make_grid leaves those points out, and
        # the factor takes no zero row
        with pytest.raises(FactorizationError, match="not positive definite"):
            factor_covariance(cov)


class TestSampleFields:
    def test_deterministic_same_seed(self):
        chol = small_factor()
        a = sample_fields(chol, 50, seed=3)
        b = sample_fields(chol, 50, seed=3)
        assert np.array_equal(a, b)
        c = sample_fields(chol, 50, seed=4)
        assert not np.array_equal(a, c)

    def test_workers_and_blocks_byte_identical(self):
        # three blocks, the last one partial
        chol = small_factor()
        a = sample_fields(chol, 1300, seed=5, workers=1)
        for workers in (2, 3):
            assert np.array_equal(a, sample_fields(chol, 1300, seed=5, workers=workers))

    def test_streams_keyed_by_block_not_n(self):
        chol = small_factor()
        short = sample_fields(chol, 700, seed=5)
        assert np.array_equal(short, sample_fields(chol, 1300, seed=5)[:700])

    def test_blocks_draw_distinct_streams(self):
        rows = sim.SAMPLE_BLOCK
        fields = sample_fields(small_factor(), 2 * rows, seed=5)
        assert not np.isin(fields[:rows], fields[rows:]).any()

    def test_empty(self):
        assert sample_fields(small_factor(), 0, seed=1).shape == (0, 9)

    def test_zero_at_time_zero(self):
        # V(0, x) = 0, so an a1 = 0 grid has no t = 0 points, and each of
        # its 5 x 6 points samples nonzero values
        times, xs = make_grid(AnisotropicBox(0.0, 1.0, 0.0, 1.0), 6, 6)
        assert (len(times), len(xs), min(times)) == (5, 6, 0.2)
        fields = sample_fields(factor_covariance(covariance_matrix(times, xs, 0.5)), 1000, seed=23)
        assert fields.shape == (1000, 30) and fields.all()

    def test_sample_covariance_converges(self):
        cov = covariance_matrix(*make_grid(BOX, 3, 1), 0.5)
        n = 100_000
        fields = sample_fields(factor_covariance(cov), n, seed=6)
        sample_cov = fields.T @ fields / n
        for i in range(3):
            for j in range(3):
                se = math.sqrt((cov[i, i] * cov[j, j] + cov[i, j] ** 2) / n)
                assert abs(sample_cov[i, j] - cov[i, j]) <= 5 * se

    def test_increment_second_moment_bound(self):
        # sampled E|V(t,x) - V(s,y)|^2 against the Holder bound on 2x2 grids:
        # both diagonals, points 0, 3 and 1, 2, have the separations |t-s|, |x-y|
        rng = np.random.default_rng(13)
        hurst = 0.5
        c_v = increment_constant(hurst)
        for _ in range(5):
            t, s = rng.uniform(0.05, 1.0, size=2)
            x, y = rng.uniform(0.0, 1.0, size=2)
            chol = factor_covariance(covariance_matrix((t, s), (x, y), hurst))
            fields = sample_fields(chol, 4000, seed=int(rng.integers(1 << 31)))
            bound = (c_v * (abs(t - s) ** (hurst / 2) + abs(x - y) ** hurst)) ** 2
            for a, b in ((0, 3), (1, 2)):
                diff2 = (fields[:, a] - fields[:, b]) ** 2
                se = diff2.std(ddof=1) / math.sqrt(len(diff2))
                assert diff2.mean() <= bound + 5 * se

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("n", [0, 1, 511, 512, 513, 1300])
    def test_sups_match_point_fields_oracle(self, n, workers):
        chol = small_factor(nt=4, nx=3, hurst=0.35)
        fields = fields_from_points(points(*make_grid(BOX, 4, 3)), 0.35, n, seed=21, workers=workers)
        assert np.array_equal(sample_fields(chol, n, seed=21, workers=workers), fields)
        sups = sample_sups(chol, n, seed=21, workers=workers)
        assert sups.shape == (n,)
        assert np.array_equal(sups, sups_of(fields))

    def test_threaded_sups_under_short_switch_interval(self):
        # ten blocks on a thread per core, switching threads often
        chol = small_factor()
        want = sample_sups(chol, 10 * sim.SAMPLE_BLOCK, seed=22)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = sample_sups(chol, 10 * sim.SAMPLE_BLOCK, seed=22, workers=8)
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("cpus, threads", [(2, 2), (64, 64), (None, 1)])
    def test_pool_capped_at_cpu_count(self, monkeypatch, cpus, threads):
        # the pool starts a thread, each holding a block, per block submitted
        # while its threads are busy; an inline pool records its size and
        # starts no thread.  One thread, or one block, runs serially: no pool
        import concurrent.futures

        sizes = []

        class InlinePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", InlinePool)
        monkeypatch.setattr(sim.os, "cpu_count", lambda: cpus)
        chol, n = small_factor(), 64 * sim.SAMPLE_BLOCK
        got = sample_sups(chol, n, seed=22, workers=100_000)
        one_block = sample_sups(chol, sim.SAMPLE_BLOCK, seed=22, workers=100_000)
        assert sizes == ([threads] if threads > 1 else [])
        assert np.array_equal(got, sample_sups(chol, n, seed=22))
        assert np.array_equal(one_block, got[:sim.SAMPLE_BLOCK])

    def test_sups_and_tail_memory(self):
        # one (m, n) array of the README config alone takes 92 MB
        tracemalloc.start()
        try:
            sups = sample_sups(small_factor(nt=24, nx=24), 20000, seed=12345)
            empirical_sup_tail(sups, [1.0, 2.0, 3.0])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32e6, f"peak {peak / 1e6:.1f} MB"

    def test_sups_rejects_bad_arguments(self):
        for sample in (sample_sups, sample_fields):
            with pytest.raises(ValueError, match="n must be nonnegative, got -1"):
                sample(small_factor(), -1, seed=1)
        with pytest.raises(ValueError, match="seed"):
            sample_sups(small_factor(), 10, seed=None)


class TestEmpiricalSupTail:
    def test_trivial_values(self):
        sups = sample_sups(small_factor(), 200, seed=8)
        values, ci_lo, _ = empirical_sup_tail(sups, [0.0, 1e9])
        assert values[0] == 1.0
        assert values[-1] == 0.0
        assert ci_lo[-1] == 0.0

    def test_replica_layout_does_not_change_curve(self):
        fields = sample_fields(small_factor(), 1300, seed=9)
        assert fields.T.flags.c_contiguous  # each grid point's samples are contiguous
        us = np.linspace(0.0, 3.0, 13)
        want = empirical_sup_tail(sample_sups(small_factor(), 1300, seed=9), us)
        for layout in (np.ascontiguousarray(fields), np.asfortranarray(fields)):
            assert empirical_sup_tail(sups_of(layout), us) == want

    def test_counts_and_limits_match_direct_route(self):
        sups = sample_sups(small_factor(), 1300, seed=9)
        # u on sampled suprema too, where the strict inequality decides
        us = sorted(set(np.linspace(0.0, 3.0, 13).tolist()) | set(np.sort(sups)[::100].tolist()))
        values, ci_lo, ci_hi = empirical_sup_tail(sups, us)
        assert len(values) == len(ci_lo) == len(ci_hi) == len(us)
        for u, value, lo, hi in zip(us, values, ci_lo, ci_hi):
            k = int(np.sum(sups > u))
            assert value == k / 1300
            assert (lo, hi) == clopper_pearson(k, 1300)

    def test_rejects_empty_or_field_array(self):
        with pytest.raises(ValueError, match="nonempty 1-D"):
            empirical_sup_tail(np.empty(0), [1.0])
        with pytest.raises(ValueError, match="nonempty 1-D"):
            empirical_sup_tail(np.ones((3, 2)), [1.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_suprema(self, bad):
        # a NaN supremum used to count as above every u
        with pytest.raises(ValueError, match="sups must be finite"):
            empirical_sup_tail(np.array([1.0, bad, 2.0]), [1.0])

    def test_monotone_nonincreasing(self):
        sups = sample_sups(small_factor(), 500, seed=9)
        values = empirical_sup_tail(sups, np.linspace(0, 3, 20))[0]
        assert all(b <= a for a, b in zip(values, values[1:]))

    def test_clopper_pearson_brackets_estimate(self):
        lo, hi = clopper_pearson(30, 100)
        assert lo < 0.3 < hi
        # closed form at k = 0: upper = 1 - (alpha/2)^(1/n)
        lo0, hi0 = clopper_pearson(0, 50)
        assert lo0 == 0.0
        assert hi0 == pytest.approx(1.0 - 0.005 ** (1.0 / 50.0), rel=1e-10)
        # closed form at k = n: lower = (alpha/2)^(1/n)
        lon, hin = clopper_pearson(50, 50)
        assert hin == 1.0
        assert lon == pytest.approx(0.005 ** (1.0 / 50.0), rel=1e-10)

    def test_clopper_pearson_matches_beta_quantiles(self):
        from scipy.stats import beta

        rng = np.random.default_rng(14)
        for _ in range(200):
            n = int(rng.integers(1, 30001))
            k = int(rng.integers(0, n + 1))
            alpha = 1.0 - 0.99
            lo = 0.0 if k == 0 else beta.ppf(alpha / 2, k, n - k + 1)
            hi = 1.0 if k == n else beta.ppf(1 - alpha / 2, k + 1, n - k)
            assert clopper_pearson(k, n) == (lo, hi)


class TestExactSupLaw:
    """The sampled supremum against an exact law: m standard Gaussians of
    covariance rho 11^T + (1 - rho) I through factor_covariance, sample_sups
    and empirical_sup_tail.  Every u's Clopper-Pearson interval, each at
    level 0.99, must hold P(max |X_i| > u), so the 7 u of one case hold it
    together with probability at least 0.93 (Bonferroni); the law of the
    field scaled by 0.97, the tail at u / 0.97, must fall outside one."""

    U_GRID = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5)

    @pytest.mark.parametrize("m, rho", [(9, 0.0), (9, 0.5), (36, 0.9)])
    def test_intervals_hold_the_exact_law(self, m, rho):
        cov = rho * np.ones((m, m)) + (1.0 - rho) * np.eye(m)
        sups = sample_sups(factor_covariance(cov), 20000, seed=2024)
        _, ci_lo, ci_hi = empirical_sup_tail(sups, self.U_GRID)
        exact = [equicorrelated_max_tail(u, m, rho) for u in self.U_GRID]
        assert all(lo <= p <= hi for lo, p, hi in zip(ci_lo, exact, ci_hi)), (exact, ci_lo, ci_hi)
        scaled = [equicorrelated_max_tail(u / 0.97, m, rho) for u in self.U_GRID]
        assert not all(lo <= p <= hi for lo, p, hi in zip(ci_lo, scaled, ci_hi)), (scaled, ci_lo, ci_hi)

    @pytest.mark.parametrize("m, rho", [(9, 0.5), (36, 0.9), (9, 1e-12)])
    def test_quadrature_error(self, m, rho):
        # doubling the nodes moves the law by rounding only, far below the
        # intervals' widths; near rho = 0 the integral meets erf(u / sqrt 2)^m
        for u in self.U_GRID:
            value = equicorrelated_max_tail(u, m, rho)
            assert abs(value - equicorrelated_max_tail(u, m, rho, nodes=800)) < 1e-12
            if rho < 1e-9:
                assert value == pytest.approx(1.0 - math.erf(u / math.sqrt(2.0)) ** m, abs=1e-12)


class TestVerifyBound:
    """``verdicts``: the empirical lower confidence limits against the bound column."""

    def test_trivial_pass_bound_one(self):
        sups = sample_sups(small_factor(), 100, seed=10)
        _, ci_lo, _ = empirical_sup_tail(sups, [0.5, 1.0, 2.0])
        assert verdicts(ci_lo, [1.0, 1.0, 1.0]) == ["PASS", "PASS", "PASS"]

    def test_trivial_pass_empirical_zero(self):
        sups = sample_sups(small_factor(), 100, seed=11)
        values, ci_lo, _ = empirical_sup_tail(sups, [50.0, 60.0])
        assert values == [0.0, 0.0]
        assert verdicts(ci_lo, [1e-300, 0.0]) == ["PASS", "PASS"]

    def test_constructed_failure_detected(self):
        # heavy-tailed synthetic sample vs a deliberately halved bound
        rng = np.random.default_rng(14)
        fields = rng.standard_cauchy(size=(2000, 4))
        honest, ci_lo, _ = empirical_sup_tail(sups_of(fields), [1.0, 2.0, 5.0])
        got = verdicts(ci_lo, [v / 2 for v in honest])
        assert got.count("FAIL") >= 1

    def test_invalid_entries_not_failures(self):
        sups = sample_sups(small_factor(), 100, seed=12)
        _, ci_lo, _ = empirical_sup_tail(sups, [0.5, 1.0])
        assert verdicts(ci_lo, [math.nan, 1.0]) == ["INVALID", "PASS"]

    def test_mismatched_grid_rejected(self):
        sups = sample_sups(small_factor(), 50, seed=13)
        _, ci_lo, _ = empirical_sup_tail(sups, [1.0, 2.0])
        with pytest.raises(ValueError, match="share the u grid"):
            verdicts(ci_lo, [1.0, 1.0, 1.0])
