"""Anisotropic box metric, the analytic covering-number bound, and a covering oracle.

Everything here runs on ``math`` alone: neither NumPy nor SciPy is loaded.
"""

from __future__ import annotations

import math
from collections import namedtuple


def check_positive_finite(name: str, value: float) -> None:
    """Raise ValueError naming ``name`` unless value is positive and finite; NaN is neither."""
    if not value > 0:
        raise ValueError(f"{name} must be positive, got {value}")
    if value == math.inf:
        raise ValueError(f"{name} must be finite, got {value}")


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
    def axes(self) -> tuple[tuple[int, float, float, float], ...]:
        """(i, a_i, b_i, h_i) of each nondegenerate axis (b_i > a_i), time axis first."""
        return tuple(axis for axis in ((1, self.a1, self.b1, self.h1), (2, self.a2, self.b2, self.h2))
                     if axis[2] > axis[1])

    @property
    def diameter(self) -> float:
        """Diameter in d: T1^h1 + T2^h2."""
        return sum(((b - a) ** h for _, a, b, h in self.axes), 0.0)


def covering_upper_bound(box: AnisotropicBox, eps: float) -> float:
    """Analytic bound on the number of closed eps-balls needed to cover the box.

    Per-axis factor 2^(1/h_i) * T_i / (2 eps^(1/h_i)) + 1, multiplied over the
    axes; it comes from tiling by rectangles of half-width (eps/2)^(1/h_i)
    inscribed in the d-ball.  >= 1, nonincreasing in eps, factor 1 for
    degenerate axes, and -> 1 as eps -> infinity.  A factor past the float
    range (h_i below about 1/1024, or eps^(1/h_i) = 0) raises ValueError.
    """
    check_positive_finite("eps", eps)
    val = 1.0
    for i, a, b, h in box.axes:
        try:
            factor = 2.0 ** (1.0 / h) * (b - a) / (2.0 * eps ** (1.0 / h)) + 1.0
        except (OverflowError, ZeroDivisionError):
            factor = math.inf
        if not math.isfinite(factor):
            raise ValueError(f"covering factor of axis {i} overflows the float range: h{i} = {h!r}, "
                             f"eps = {eps!r}")
        val *= factor
    return val


def _tiles(t: float, h: float, r: float) -> float:
    """Fewest uniform tiles of a side t whose midpoints are within d-distance r
    of all of it, ceil(t / (2 r^(1/h))); inf where r <= 0, r^(1/h) underflows
    or t / r^(1/h) overflows."""
    w = r ** (1.0 / h) if r > 0 else 0.0
    return max(1, math.ceil(t / (2.0 * w))) if w > 0 and t / w < math.inf else math.inf


def _reach(a: float, b: float, h: float, n: int, resolution: int) -> float:
    """Largest |g - c|^h from a point g of np.linspace(a, b, resolution) to the
    nearest midpoint c of n uniform tiles of [a, b].  It peaks at a, b and the
    tile boundaries, so only the grid points beside those are measured, each
    as linspace computes it (k * step + a, the last point b) so that ties round
    as on that grid."""
    last, step = resolution - 1, (b - a) / (resolution - 1)
    mids = [a + (j + 0.5) * (b - a) / n for j in range(n)]
    worst = 0.0
    for j in range(n + 1):
        for k in {j * last // n, -(-j * last // n)}:
            g = b if k == last else k * step + a
            worst = max(worst, min(abs(g - c) for c in mids[max(j - 1, 0) : j + 1]) ** h)
    return worst


def _tile_counts(box: AnisotropicBox, eps: float, resolution: int) -> list[int] | None:
    """Tiles per nondegenerate axis of the cover that ``covering_oracle`` counts,
    or None if no candidate passes.

    Candidates: the even split (eps/m per axis), the even split with one more
    tile per axis (its product caps the search), and on two axes each n1 with
    the fewest n2 that the eps left by n1 allows, and one more.  The first by
    n1 * n2, the even split first among ties, whose per-axis reaches sum to
    at most eps (the largest d on the grid) is taken.
    """
    axes = box.axes
    even = [_tiles(b - a, h, eps / len(axes)) for _, a, b, h in axes]
    cap = math.prod(n + 1 for n in even)
    candidates = [even, [n + 1 for n in even]]
    if len(axes) == 2:
        (_, a1, b1, h1), (_, a2, b2, h2) = axes
        for n1 in range(_tiles(b1 - a1, h1, eps), cap // _tiles(b2 - a2, h2, eps) + 1):
            n2 = _tiles(b2 - a2, h2, eps - ((b1 - a1) / (2.0 * n1)) ** h1)
            candidates += [[n1, n2], [n1, n2 + 1]]
    fits = (counts for counts in sorted(candidates, key=math.prod) if math.prod(counts) <= cap)
    return next((counts for counts in fits
                 if sum(_reach(a, b, h, n, resolution) for (_, a, b, h), n in zip(axes, counts)) <= eps), None)


def _grid_points(a: float, b: float, resolution: int) -> int:
    """Most distinct points np.linspace(a, b, resolution) can have: resolution, or the
    doubles in [a, b], ulp(min(|a|, |b|)) or more apart when a and b have one sign."""
    gaps = (b - a) / math.ulp(min(abs(a), abs(b))) if a * b > 0 else math.inf
    return math.ceil(gaps) + 1 if gaps < resolution - 1 else resolution


def covering_oracle(box: AnisotropicBox, eps: float, resolution: int = 101) -> int:
    """Constructive covering count of a grid discretization of the box.

    Counts a product cover of the resolution x resolution grid by closed
    d-balls of radius eps, centered at the products of the midpoints of n_i
    uniform tiles per nondegenerate axis.  n1, and so the split of eps
    between the axes, is searched for the fewest balls, from the even split
    that realizes ``covering_upper_bound``'s construction.  A cover counts
    only once d <= eps holds in floating point at every grid point; if no
    candidate passes, every distinct grid point gets its own ball.

    Upper-bounds the true covering number only up to discretization, so it is
    meaningful as a check that ``covering_oracle <= covering_upper_bound``.
    Deterministic for fixed inputs.
    """
    check_positive_finite("eps", eps)
    if resolution < 2:
        raise ValueError(f"resolution must be >= 2, got {resolution}")

    nondeg = box.axes
    if not nondeg:
        return 1
    # Grid spacing must be well inside eps in the d-metric, else ball counts
    # on the grid are not representative of the continuum.
    for _, a, b, h in nondeg:
        step = (b - a) / (resolution - 1)
        if step ** h > eps / 10.0:
            raise ValueError(
                f"resolution {resolution} too coarse for eps={eps}: axis step "
                f"{step:.3g}^{h:.3g} = {step ** h:.3g} exceeds eps/10"
            )
    if eps >= box.diameter:
        return 1
    counts = _tile_counts(box, eps, resolution)
    return math.prod(counts) if counts else math.prod(_grid_points(a, b, resolution) for _, a, b, _ in nondeg)
