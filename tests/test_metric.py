"""Anisotropic metric, covering bound, and covering oracle."""

import math

import numpy as np
import pytest

from suptail.metric import AnisotropicBox, _grid_points, _tile_counts, covering_oracle, covering_upper_bound

UNIT_SQUARE = AnisotropicBox(0, 1, 0, 1)


def aniso_dist(t, s, box):
    """The box metric d(t, s) = |t1-s1|^h1 + |t2-s2|^h2."""
    return abs(t[0] - s[0]) ** box.h1 + abs(t[1] - s[1]) ** box.h2


def full_grid_greedy(box, eps, resolution, cap):
    """Balls in the greedy cover of the resolution x resolution grid, each
    centered at the first uncovered point in lexicographic order and updating
    the whole grid; the count stops at cap.  A reference cover that shares
    no code with ``covering_oracle``."""
    xs = np.linspace(box.a1, box.b1, resolution) if box.b1 > box.a1 else np.array([box.a1])
    ys = np.linspace(box.a2, box.b2, resolution) if box.b2 > box.a2 else np.array([box.a2])
    p1, p2 = (a.ravel() for a in np.meshgrid(xs, ys, indexing="ij"))
    uncovered = np.ones(p1.size, dtype=bool)
    count = 0
    while uncovered.any() and count < cap:
        i = int(np.argmax(uncovered))  # first uncovered in lexicographic order
        uncovered &= np.abs(p1 - p1[i]) ** box.h1 + np.abs(p2 - p2[i]) ** box.h2 > eps
        count += 1
    return count


def cover_misses(box, eps, resolution, counts):
    """Points of the grid np.linspace(a_i, b_i, resolution) on each
    nondegenerate axis that no ball of radius eps reaches, when the balls sit
    at the products of the midpoints of counts[k] uniform tiles of the k-th
    nondegenerate axis.  Brute force over every point and every ball."""
    counts = iter(counts)
    grids, mids = [], []
    for a, b in ((box.a1, box.b1), (box.a2, box.b2)):
        n = next(counts) if b > a else 0
        grids.append(np.linspace(a, b, resolution) if n else np.array([a]))
        mids.append(a + (np.arange(n) + 0.5) * (b - a) / n if n else np.array([a]))
    p1, p2 = (g.ravel() for g in np.meshgrid(*grids, indexing="ij"))
    c1, c2 = (c.ravel() for c in np.meshgrid(*mids, indexing="ij"))
    d = np.abs(p1[:, None] - c1) ** box.h1 + np.abs(p2[:, None] - c2) ** box.h2
    return int(np.sum(d.min(axis=1) > eps))


def even_split(box, eps):
    """Tiles per nondegenerate axis of the tiling that gives each of the m
    nondegenerate axes eps/m."""
    sides = [(t, h) for t, h in ((box.b1 - box.a1, box.h1), (box.b2 - box.a2, box.h2)) if t > 0]
    return [max(1, math.ceil(t / (2.0 * (eps / len(sides)) ** (1.0 / h)))) for t, h in sides]


def assert_checked_cover(box, eps, resolution):
    """The product cover behind the oracle's count reaches every grid point,
    and its count is at most the even split, the greedy and the analytic
    bound.  Returns that count."""
    counts = _tile_counts(box, eps, resolution)
    assert cover_misses(box, eps, resolution, counts) == 0
    count = math.prod(counts)
    assert count <= math.prod(even_split(box, eps))
    assert count <= full_grid_greedy(box, eps, resolution, 10**9)
    assert count <= covering_upper_bound(box, eps)
    return count


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
        # and one ball covers a box with no nondegenerate axis, a point
        assert covering_oracle(AnisotropicBox(0.3, 0.3, 0.7, 0.7), 0.1, 11) == 1

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

    def test_best_split_on_thin_box(self):
        # the even split gives each axis eps/2, a half-width 0.25^(4/3) = 0.157,
        # so 1 x ceil(1 / 0.315) = 4 balls, and the greedy needs 3; the thin
        # axis needs only 0.025^0.75 = 0.063 of the radius, which leaves the
        # long one a half-width 0.437^(4/3) = 0.332, so 1 x 2 balls
        box = AnisotropicBox(0, 0.05, 0, 1, 0.75, 0.75)
        assert _tile_counts(box, 0.5, 101) == [1, 2]
        assert covering_oracle(box, 0.5, 101) == assert_checked_cover(box, 0.5, 101) == 2
        assert full_grid_greedy(box, 0.5, 101, 10**9) == 3
        assert even_split(box, 0.5) == [1, 4]

    def test_deterministic(self):
        box = AnisotropicBox(0, 1.3, -0.2, 0.9, 0.8, 1.0)
        a = covering_oracle(box, 0.6, 81)
        b = covering_oracle(box, 0.6, 81)
        assert a == b

    @pytest.mark.parametrize(
        "box, eps",
        [
            # dyadic grids, where distances equal to eps exactly are common
            (UNIT_SQUARE, 0.25),
            (UNIT_SQUARE, 0.5),
            (AnisotropicBox(0, 1, 0, 1, 0.5, 0.5), 0.5),
            (AnisotropicBox(0, 2, 0, 0.5, 1.0, 0.5), 0.375),
            (AnisotropicBox(0, 1, 0, 0), 0.125),
        ],
    )
    def test_cover_checked_on_dyadic_ties(self, box, eps):
        # 65 points is below the oracle's resolution floor on three of these,
        # so the cover behind its count is checked directly
        assert_checked_cover(box, eps, 65)

    @pytest.mark.parametrize(
        "box, eps, resolution",
        [
            (AnisotropicBox(0, 1, 0, 0), 0.3, 101),
            (AnisotropicBox(0.5, 0.5, -1, 1, 1.0, 0.6), 1.2, 201),
            (AnisotropicBox(-0.2, 1.7, 3, 3, 0.6, 1.0), 1.0, 201),
        ],
        ids=["time-only", "space-only", "time-only-h1<1"],
    )
    def test_cover_checked_on_degenerate_axes(self, box, eps, resolution):
        assert covering_oracle(box, eps, resolution) == assert_checked_cover(box, eps, resolution)

    @pytest.mark.parametrize(
        "box, eps, resolution, count",
        [
            (AnisotropicBox(0.1, 1.1, 0, 1), 0.5, 101, 6),
            (UNIT_SQUARE, 0.1, 101, 108),
            (AnisotropicBox(0, 1, 0, 0), 0.05, 201, 11),
        ],
    )
    def test_tie_rounding_above_eps_moves_on(self, box, eps, resolution, count):
        # each even split covers the box in exact arithmetic, but on the grid
        # a tie rounds above eps, so it is not counted and a later candidate
        # is (the counts are from a run; each is at most the analytic bound)
        assert cover_misses(box, eps, resolution, even_split(box, eps)) > 0
        counts = _tile_counts(box, eps, resolution)
        assert cover_misses(box, eps, resolution, counts) == 0
        assert covering_oracle(box, eps, resolution) == math.prod(counts) == count
        assert count <= covering_upper_bound(box, eps)

    def test_cover_checked_on_random_configs(self):
        # degenerate axes, h < 1 and two resolutions
        rng = np.random.default_rng(19)
        for _ in range(120):
            t1, t2 = (0.0 if rng.random() < 0.1 else rng.uniform(0.05, 2.0) for _ in range(2))
            h1, h2 = rng.uniform(0.2, 1.0, size=2)
            a1, a2 = rng.uniform(-1.0, 1.0, size=2)
            box = AnisotropicBox(a1, a1 + t1, a2, a2 + t2, h1, h2)
            if not box.axes:
                continue
            resolution = int(rng.choice([51, 101]))
            # just above the oracle's floor eps/10 >= step^h, which rounding could cross
            eps_min = 10.000001 * max(((b - a) / (resolution - 1)) ** h for _, a, b, h in box.axes)
            eps = rng.uniform(eps_min, max(eps_min, box.diameter))
            count = assert_checked_cover(box, eps, resolution)
            assert covering_oracle(box, eps, resolution) == (count if eps < box.diameter else 1)

    def test_no_passing_candidate_counts_every_grid_point(self):
        # at 1e15 the floats are 0.125 apart, so grid points and midpoints
        # round by more than eps allows and no tiling passes; a ball on each
        # distinct grid point is the cover left, and the 201 points of the
        # grid are 9 doubles
        box = AnisotropicBox(1e15, 1e15 + 1, 0, 0)
        assert _tile_counts(box, 0.1, 201) is None
        assert len(set(np.linspace(1e15, 1e15 + 1, 201).tolist())) == 9
        assert covering_oracle(box, 0.1, 201) == 9 <= covering_upper_bound(box, 0.1)
        # of one sign below 0 too; across 0 only the resolution bounds the count
        assert covering_oracle(AnisotropicBox(-1e15 - 1, -1e15, 0, 0), 0.1, 201) == 9
        assert _grid_points(-1.0, 1.0, 201) == 201
        assert _grid_points(0.0, 1.0, 201) == 201
