"""Entropy integrals: closed form, its domination of the quadrature oracle."""

import math

import numpy as np
import pytest

from quadrature_oracle import entropy_integral_numeric
from suptail.entropy import (
    HolderProfile,
    c1_axis_terms,
    c1_constant,
    entropy_integral_closed,
)
from suptail.metric import AnisotropicBox
from suptail.orlicz import PhiFamily

UNIT_SQUARE = AnisotropicBox(0, 1, 0, 1)
LINEAR = HolderProfile(1.0, 1.0)
GAUSS = PhiFamily(2.0)


class TestHolderProfile:
    def test_power_validation(self):
        with pytest.raises(ValueError):
            HolderProfile(0.0, 0.5)
        with pytest.raises(ValueError):
            HolderProfile(1.0, 1.5)

    def test_direct_construction_validates(self):
        with pytest.raises(ValueError, match="scale"):
            HolderProfile(-1.0, 0.5)
        with pytest.raises(ValueError, match="exponent"):
            HolderProfile(1.0, 0.0)


class TestC1Constant:
    def test_unit_square_linear(self):
        # 2^(1/2) * 1 / (1/2) * (2 * (1/2)^(1/2)) = 4
        assert c1_constant(UNIT_SQUARE, LINEAR, GAUSS) == pytest.approx(4.0, rel=1e-12)

    def test_doubled_box(self):
        box = AnisotropicBox(0, 2, 0, 2)
        assert c1_constant(box, LINEAR, GAUSS) == pytest.approx(4 * math.sqrt(2), rel=1e-12)

    def test_gamma_beta_at_most_one_rejected(self):
        prof = HolderProfile(1.0, 0.4)  # gamma*beta = 0.8
        with pytest.raises(ValueError, match="diverges|invalid"):
            c1_constant(UNIT_SQUARE, prof, GAUSS)

    def test_axis_terms_sum_to_c1(self):
        box = AnisotropicBox(0, 3, -1, 1, 0.4, 0.8)
        prof = HolderProfile(1.7, 0.9)
        fam = PhiFamily(1.6)
        time_axis, space_axis = c1_axis_terms(box, prof, fam)
        gb = 0.9 * fam.beta
        front = 2 ** (1 / fam.beta) * 1.7 ** (1 / gb) / (1 - 1 / gb)
        assert time_axis == pytest.approx(front * 1.5 ** (0.4 / fam.beta) / 0.4, rel=1e-14)
        assert space_axis == pytest.approx(front / 0.8, rel=1e-14)
        assert time_axis + space_axis == c1_constant(box, prof, fam)

    def test_degenerate_axis_drops_term(self):
        seg = AnisotropicBox(0, 1, 0, 0)
        # only the first-axis term survives
        expected = 2 ** 0.5 / 0.5 * (0.5 ** 0.5)
        assert c1_constant(seg, LINEAR, GAUSS) == pytest.approx(expected, rel=1e-12)


class TestClosedIntegral:
    def test_values(self):
        assert entropy_integral_closed(0.25, 4.0, LINEAR, GAUSS) == pytest.approx(2.0)
        assert entropy_integral_closed(1.0, 4.0, LINEAR, GAUSS) == pytest.approx(4.0)

    def test_vanishes_at_zero(self):
        assert entropy_integral_closed(1e-30, 4.0, LINEAR, GAUSS) < 1e-14

    def test_concave_increasing(self):
        eps = np.linspace(0.01, 2.0, 100)
        vals = [entropy_integral_closed(e, 4.0, LINEAR, GAUSS) for e in eps]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        diffs = np.diff(vals)
        assert all(b <= a + 1e-12 for a, b in zip(diffs, diffs[1:]))


class TestNumericIntegral:
    @pytest.mark.pinned
    def test_regression_value(self):
        # frozen from the oracle's quadrature (unit square, linear
        # modulus, alpha = 2, eps = 0.25); must stay within (0, 2]
        val = entropy_integral_numeric(0.25, UNIT_SQUARE, LINEAR, GAUSS)
        assert val == pytest.approx(0.38981333334, abs=1e-6)
        assert 0.0 < val <= 2.0

    def test_flat_beyond_gamma0(self):
        gamma0 = LINEAR.sigma(UNIT_SQUARE.diameter)
        at_gamma0 = entropy_integral_numeric(gamma0, UNIT_SQUARE, LINEAR, GAUSS)
        beyond = entropy_integral_numeric(2.0 * gamma0, UNIT_SQUARE, LINEAR, GAUSS)
        assert beyond == pytest.approx(at_gamma0, rel=1e-9)

    def test_monotone_in_box_scale(self):
        small = entropy_integral_numeric(0.25, UNIT_SQUARE, LINEAR, GAUSS)
        big = entropy_integral_numeric(0.25, AnisotropicBox(0, 2, 0, 2), LINEAR, GAUSS)
        assert big > small

    def test_vanishes_as_eps_to_zero(self):
        val = entropy_integral_numeric(1e-9, UNIT_SQUARE, LINEAR, GAUSS)
        assert 0.0 <= val < 1e-7

    def test_nondecreasing_in_eps(self):
        eps = np.linspace(0.05, 2.5, 25)
        vals = [entropy_integral_numeric(e, UNIT_SQUARE, LINEAR, GAUSS) for e in eps]
        assert all(b >= a - 1e-10 for a, b in zip(vals, vals[1:]))

    def test_domination_sample_grid(self):
        for alpha in (1.25, 1.5, 2.0):
            fam = PhiFamily(alpha)
            for gamma in (0.6, 1.0):
                prof = HolderProfile(1.0, gamma)
                if gamma * fam.beta <= 1.0:
                    continue
                for h in (0.5, 1.0):
                    box = AnisotropicBox(0, 1, 0, 1, h, h)
                    c1 = c1_constant(box, prof, fam)
                    gamma0 = prof.sigma(box.diameter)
                    for frac in (0.4, 1.0):
                        eps = frac * gamma0
                        numeric = entropy_integral_numeric(eps, box, prof, fam)
                        closed = entropy_integral_closed(eps, c1, prof, fam)
                        assert numeric <= closed + 1e-6
