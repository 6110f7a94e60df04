"""Power Orlicz family: frozen values and structural properties."""

import math

import numpy as np
import pytest
from scipy.special import erfc

from suptail.orlicz import PhiFamily, phi_conjugate, rv_tail_bound

GAUSSIAN = PhiFamily(2.0)


class TestPhiFamily:
    def test_beta_conjugacy(self):
        for alpha in (1.1, 1.25, 1.5, 1.75, 2.0):
            fam = PhiFamily(alpha)
            assert 1.0 / alpha + 1.0 / fam.beta == pytest.approx(1.0, rel=1e-14)
            assert fam.beta >= 2.0

    def test_beta_two_iff_alpha_two(self):
        assert GAUSSIAN.beta == 2.0
        assert PhiFamily(1.5).beta == pytest.approx(3.0)

    @pytest.mark.parametrize("alpha", [1.0, 0.5, 2.5, 0.0, -1.0])
    def test_alpha_range_rejected(self, alpha):
        with pytest.raises(ValueError):
            PhiFamily(alpha)


class TestPhiConjugate:
    def test_direct_substitution(self):
        assert phi_conjugate(1.0, GAUSSIAN) == pytest.approx(0.5, rel=1e-15)
        assert phi_conjugate(2.0, PhiFamily(1.5)) == pytest.approx(8.0 / 3.0, rel=1e-15)
        assert phi_conjugate(0.0, GAUSSIAN) == 0.0

    def test_matches_numeric_legendre_transform(self):
        for alpha in (1.25, 1.5, 2.0):
            fam = PhiFamily(alpha)
            for x in (0.3, 1.0, 2.7):
                y_star = x ** (1.0 / (alpha - 1.0))  # stationary point of xy - phi(y)
                ys = np.linspace(0.0, 2.0 * y_star + 1.0, 400001)
                numeric = np.max(x * ys - ys ** alpha / alpha)
                assert phi_conjugate(x, fam) == pytest.approx(numeric, abs=1e-6)

    def test_young_inequality(self):
        rng = np.random.default_rng(2)
        for alpha in (1.2, 1.5, 2.0):
            fam = PhiFamily(alpha)
            for _ in range(500):
                x, y = rng.uniform(0, 20, size=2)
                assert x * y <= x ** alpha / alpha + phi_conjugate(y, fam) + 1e-12


class TestRvTailBound:
    def test_values(self):
        assert rv_tail_bound(2.0, 1.0, GAUSSIAN) == pytest.approx(2 * math.exp(-2.0), rel=1e-15)
        assert rv_tail_bound(0.0, 1.0, GAUSSIAN) == 1.0  # clamped, raw value is 2
        assert rv_tail_bound(4.0, 2.0, PhiFamily(1.5)) == pytest.approx(
            2 * math.exp(-8.0 / 3.0), rel=1e-15
        )

    def test_monotonicity(self):
        fam = PhiFamily(1.5)
        us = np.linspace(0, 10, 50)
        vals = [rv_tail_bound(u, 1.0, fam) for u in us]
        assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))
        taus = np.linspace(0.1, 5, 50)
        vals_tau = [rv_tail_bound(3.0, t, fam) for t in taus]
        assert all(b >= a - 1e-15 for a, b in zip(vals_tau, vals_tau[1:]))

    def test_tau_rejected(self):
        with pytest.raises(ValueError):
            rv_tail_bound(1.0, 0.0, GAUSSIAN)

    def test_dominates_gaussian_tail(self):
        # exact two-sided N(0, sigma^2) tail <= bound with alpha=2, tau=sigma
        for sigma in (0.5, 1.0, 3.0):
            for u in np.linspace(0.0, 8 * sigma, 100):
                exact = erfc(u / (sigma * math.sqrt(2.0)))
                assert exact <= rv_tail_bound(u, sigma, GAUSSIAN) + 1e-15
