"""Anisotropic box metric, the analytic covering-number bound, and a covering oracle.

NumPy is imported when ``covering_oracle`` first builds its grid, not with this
module, so of the five commands only ``covering`` loads it here.  Nothing
here uses SciPy.
"""

from __future__ import annotations

import math
from collections import namedtuple


class AnisotropicBox(namedtuple("AnisotropicBox", "a1 b1 a2 b2 h1 h2")):
    """Named tuple: rectangle [a1,b1] x [a2,b2] with metric exponents (h1, h2).

    Distances are d(t, s) = |t1-s1|^h1 + |t2-s2|^h2 with 0 < h_i <= 1 (the
    exponent cap keeps d a metric).  Degenerate axes (b_i == a_i) are allowed
    and contribute nothing.  The endpoints and the sides b_i - a_i must be finite.
    """

    __slots__ = ()

    def __new__(
        cls, a1: float, b1: float, a2: float, b2: float, h1: float = 1.0, h2: float = 1.0
    ) -> AnisotropicBox:
        if b1 < a1 or b2 < a2:
            raise ValueError("box endpoints must satisfy b_i >= a_i")
        if not (0.0 < h1 <= 1.0 and 0.0 < h2 <= 1.0):
            raise ValueError("metric exponents must lie in (0, 1]")
        if not all(map(math.isfinite, (a1, b1, a2, b2))):
            raise ValueError(f"box endpoints must be finite, got {(a1, b1, a2, b2)}")
        for axis, a, b in ((1, a1, b1), (2, a2, b2)):
            if b - a == math.inf:
                raise ValueError(f"box side b{axis} - a{axis} must be finite, got inf from [{a!r}, {b!r}]")
        return super().__new__(cls, a1, b1, a2, b2, h1, h2)

    @property
    def t1(self) -> float:
        return self.b1 - self.a1

    @property
    def t2(self) -> float:
        return self.b2 - self.a2

    @property
    def axes(self) -> tuple[tuple[float, float], ...]:
        """(T_i, h_i) of each nondegenerate axis (T_i > 0), time axis first."""
        return tuple((t, h) for t, h in ((self.t1, self.h1), (self.t2, self.h2)) if t > 0)

    @property
    def diameter(self) -> float:
        """Diameter in d: T1^h1 + T2^h2."""
        return sum((t ** h for t, h in self.axes), 0.0)


def covering_upper_bound(box: AnisotropicBox, eps: float) -> float:
    """Analytic bound on the number of closed eps-balls needed to cover the box.

    Per-axis factor 2^(1/h_i) * T_i / (2 eps^(1/h_i)) + 1, multiplied over the
    axes; it comes from tiling by rectangles of half-width (eps/2)^(1/h_i)
    inscribed in the d-ball.  >= 1, nonincreasing in eps, factor 1 for
    degenerate axes, and -> 1 as eps -> infinity.  A factor past the float
    range (h_i below about 1/1024, or eps^(1/h_i) = 0) raises ValueError.
    """
    if not eps > 0:  # also rejects nan
        raise ValueError(f"eps must be positive, got {eps}")
    val = 1.0
    for t_i, h_i in box.axes:
        try:
            factor = 2.0 ** (1.0 / h_i) * t_i / (2.0 * eps ** (1.0 / h_i)) + 1.0
        except (OverflowError, ZeroDivisionError):
            factor = math.inf
        if not math.isfinite(factor):
            # axes lists the time axis first, so (t1, h1) can only be axis 1
            i = 1 if (t_i, h_i) == (box.t1, box.h1) else 2
            raise ValueError(f"covering factor of axis {i} overflows the float range: h{i} = {h_i!r}, "
                             f"eps = {eps!r}")
        val *= factor
    return val


def _grid_axis(a: float, b: float, resolution: int, h: float, eps: float):
    """One axis of the oracle grid: the table |g_k - g_c|^h (row c, column k)
    and, for each center c, the index window [lo_c, hi_c) outside which the
    table exceeds eps."""
    import numpy as np

    g = np.linspace(a, b, resolution) if b > a else np.array([a])
    table = np.abs(g - g[:, None]) ** h
    near = table <= eps  # the diagonal is 0, so each row has a True
    lo = np.argmax(near, axis=1)
    hi = len(g) - np.argmax(near[:, ::-1], axis=1)
    return table, lo, hi


def _greedy_count(box: AnisotropicBox, eps: float, resolution: int, cap: int) -> int:
    """Balls in the greedy cover of the resolution x resolution grid, each
    centered at the first uncovered point in lexicographic order; the count
    stops at cap.

    d = table1[i, k] + table2[j, l] is at least each term, so a ball centered
    at (i, j) covers only points inside both of its windows, and each step
    updates that block alone.
    """
    import numpy as np

    table1, lo1, hi1 = _grid_axis(box.a1, box.b1, resolution, box.h1, eps)
    table2, lo2, hi2 = _grid_axis(box.a2, box.b2, resolution, box.h2, eps)
    uncovered = np.ones((len(table1), len(table2)), dtype=bool)
    flat = uncovered.ravel()
    first, count = 0, 0
    while count < cap:
        # The first uncovered point only moves forward.
        first += int(np.argmax(flat[first:]))
        if not flat[first]:
            break
        i, j = divmod(first, len(table2))
        rows, cols = slice(lo1[i], hi1[i]), slice(lo2[j], hi2[j])
        uncovered[rows, cols] &= table1[i, rows, None] + table2[j, cols] > eps
        count += 1
    return count


def covering_oracle(box: AnisotropicBox, eps: float, resolution: int = 101) -> int:
    """Constructive covering count of a grid discretization of the box.

    Returns the smaller of two genuine covers of the resolution x resolution
    grid by closed d-balls of radius eps:

    * a sweep tiling with per-axis half-width (eps/m)^(1/h_i), m the number of
      nondegenerate axes, which realizes the construction behind
      ``covering_upper_bound`` (so the oracle never exceeds it);
    * a greedy cover that repeatedly centers a ball at the first uncovered
      grid point in lexicographic order.

    Only the greedy cover is run: its count is capped at the tiling's count,
    so the capped count is the smaller of the two.

    Upper-bounds the true covering number only up to discretization, so it is
    meaningful as a check that ``covering_oracle <= covering_upper_bound``.
    Deterministic for fixed inputs.
    """
    if not eps > 0:  # also rejects nan
        raise ValueError(f"eps must be positive, got {eps}")
    if resolution < 2:
        raise ValueError(f"resolution must be >= 2, got {resolution}")

    nondeg = box.axes
    if not nondeg:
        return 1
    # Grid spacing must be well inside eps in the d-metric, else ball counts
    # on the grid are not representative of the continuum.
    for t_i, h_i in nondeg:
        step = t_i / (resolution - 1)
        if step ** h_i > eps / 10.0:
            raise ValueError(
                f"resolution {resolution} too coarse for eps={eps}: axis step "
                f"{step:.3g}^{h_i:.3g} = {step ** h_i:.3g} exceeds eps/10"
            )
    if eps >= box.diameter:
        return 1

    m = len(nondeg)
    count_tiling = 1
    for t_i, h_i in nondeg:
        w = (eps / m) ** (1.0 / h_i)
        count_tiling *= max(1, math.ceil(t_i / (2.0 * w)))

    return _greedy_count(box, eps, resolution, count_tiling)
