"""Anisotropic metric, covering bound, and covering oracle."""

import numpy as np
import pytest

from suptail.metric import AnisotropicBox, covering_oracle, covering_upper_bound

UNIT_SQUARE = AnisotropicBox(0, 1, 0, 1)


def aniso_dist(t, s, box):
    """The box metric d(t, s) = |t1-s1|^h1 + |t2-s2|^h2."""
    return abs(t[0] - s[0]) ** box.h1 + abs(t[1] - s[1]) ** box.h2


def random_feasible_config(rng, resolution=81):
    """Box, exponents and eps for which the oracle grid is fine enough."""
    while True:
        h1, h2 = rng.uniform(0.55, 1.0, size=2)
        t1, t2 = rng.uniform(0.3, 2.0, size=2)
        a1, a2 = rng.uniform(-1.0, 1.0, size=2)
        box = AnisotropicBox(a1, a1 + t1, a2, a2 + t2, h1, h2)
        eps_min = 10.0 * max(
            (t1 / (resolution - 1)) ** h1, (t2 / (resolution - 1)) ** h2
        )
        eps_max = 0.9 * box.diameter
        if eps_min < eps_max:
            eps = rng.uniform(eps_min, eps_max)
            return box, eps


class TestAnisoDist:
    def test_values(self):
        assert aniso_dist((1, 2), (0, 0), UNIT_SQUARE) == pytest.approx(3.0)
        box = AnisotropicBox(0, 4, 0, 1, 0.5, 1.0)
        assert aniso_dist((4, 1), (0, 0), box) == pytest.approx(3.0)  # 4^0.5 + 1
        assert aniso_dist((0.3, -0.7), (0.3, -0.7), box) == 0.0

    def test_symmetry_and_identity(self):
        rng = np.random.default_rng(3)
        box = AnisotropicBox(0, 1, 0, 1, 0.4, 0.9)
        for _ in range(200):
            t, s = rng.uniform(-5, 5, size=(2, 2))
            assert aniso_dist(t, s, box) == aniso_dist(s, t, box)
            assert (aniso_dist(t, s, box) == 0.0) == bool(np.all(t == s))

    def test_triangle_inequality(self):
        rng = np.random.default_rng(4)
        for _ in range(1000):
            h1, h2 = rng.uniform(0.05, 1.0, size=2)
            box = AnisotropicBox(0, 1, 0, 1, h1, h2)
            a, b, c = rng.uniform(-3, 3, size=(3, 2))
            assert aniso_dist(a, c, box) <= aniso_dist(a, b, box) + aniso_dist(b, c, box) + 1e-12


class TestCoveringUpperBound:
    def test_values(self):
        assert covering_upper_bound(UNIT_SQUARE, 1.0) == pytest.approx(4.0)
        box = AnisotropicBox(0, 1, 0, 1, 0.5, 1.0)
        assert covering_upper_bound(box, 0.5) == pytest.approx(27.0)  # 9 * 3

    def test_limit_one(self):
        assert covering_upper_bound(UNIT_SQUARE, 1e9) == pytest.approx(1.0, abs=1e-8)

    def test_monotone_in_eps(self):
        box = AnisotropicBox(0, 2, 0, 1, 0.7, 0.9)
        eps = np.geomspace(0.01, 10, 60)
        vals = [covering_upper_bound(box, e) for e in eps]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))
        assert all(v >= 1.0 for v in vals)

    def test_multiplicative_across_axes(self):
        box = AnisotropicBox(0, 2, 0, 3, 0.6, 0.8)
        eps = 0.4
        f1 = 2.0 ** (1 / 0.6) * 2 / (2 * eps ** (1 / 0.6)) + 1
        f2 = 2.0 ** (1 / 0.8) * 3 / (2 * eps ** (1 / 0.8)) + 1
        assert covering_upper_bound(box, eps) == pytest.approx(f1 * f2, rel=1e-14)

    def test_degenerate_axis_factor_one(self):
        seg = AnisotropicBox(0, 1, 0, 0)
        assert covering_upper_bound(seg, 0.5) == pytest.approx(
            covering_upper_bound(AnisotropicBox(0, 1, 2, 2), 0.5)
        )

    def test_eps_rejected(self):
        with pytest.raises(ValueError):
            covering_upper_bound(UNIT_SQUARE, 0.0)


class TestCoveringOracle:
    def test_degenerate_segment_single_ball(self):
        # one ball of radius 0.5 centered midway covers [0,1] x {0}
        assert covering_oracle(AnisotropicBox(0, 1, 0, 0), 0.5, 101) == 1

    def test_eps_at_least_diameter(self):
        assert covering_oracle(UNIT_SQUARE, 2.0, 51) == 1

    def test_unit_square_quarter_eps(self):
        count = covering_oracle(UNIT_SQUARE, 0.25, 201)
        assert 1 <= count <= covering_upper_bound(UNIT_SQUARE, 0.25)

    def test_too_coarse_resolution_rejected(self):
        with pytest.raises(ValueError, match="too coarse"):
            covering_oracle(UNIT_SQUARE, 0.05, 21)

    def test_oracle_below_bound_random_configs(self):
        rng = np.random.default_rng(5)
        for _ in range(15):
            box, eps = random_feasible_config(rng)
            assert covering_oracle(box, eps, 81) <= covering_upper_bound(box, eps)

    def test_deterministic(self):
        box = AnisotropicBox(0, 1.3, -0.2, 0.9, 0.8, 1.0)
        a = covering_oracle(box, 0.6, 81)
        b = covering_oracle(box, 0.6, 81)
        assert a == b
