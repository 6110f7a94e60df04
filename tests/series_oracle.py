"""Certified summation of a positive series, the test oracle of the closed forms.

``sum_series`` sums the terms and brackets the remainder by blocks of
geometrically growing length; the tests compare its certified value with the
zeta/polylog closed forms of ``suptail.growth``, which sum no series this way.
"""

import numpy as np

from suptail.growth import SeriesSum


class SeriesError(RuntimeError):
    """The oracle could not certify the sum of a series."""


def _probe(term, k: int) -> float:
    """Term k."""
    return float(term(np.array([k]))[0])


def _remainder_bracket(term, start: int) -> tuple[float, float] | None:
    """Bracket sum_{k >= start} a_k for positive, eventually decreasing terms.

    Blocks of length ~s/4 (growing by ~5/4): each block sum lies between
    L*a(next block start) and L*a(s).  If the probed horizon is exhausted
    before the block bounds underflow, the remaining tail is closed
    geometrically from the observed block-bound ratio (valid when the ratio
    is nonincreasing, which holds for power-law, exponential, and mixed
    decay).  Returns None when no certificate is possible at this checkpoint
    (e.g. terms still increasing, or a probe past an overflowing partition
    point).
    """
    upper = 0.0
    lower = 0.0
    s = start
    a_s = _probe(term, s)
    if not np.isfinite(a_s) or a_s < 0:
        return None
    block_ups: list[float] = []
    for _ in range(128):
        length = max(s // 4, 1)  # blocks grow by ~5/4; tighter than doubling
        a_next = _probe(term, s + length)
        if not np.isfinite(a_next) or a_next < 0 or a_next > a_s:
            return None  # terms not decreasing here; cannot certify yet
        block_up = length * a_s
        upper += block_up
        lower += length * a_next
        block_ups.append(block_up)
        if block_up < 1e-320:
            return lower, upper  # tail is numerically zero
        s += length
        a_s = a_next
    if len(block_ups) < 3 or block_ups[-3] <= 0 or block_ups[-2] <= 0:
        return None
    rho = max(block_ups[-1] / block_ups[-2], block_ups[-2] / block_ups[-3])
    if rho >= 0.95:
        return None
    upper += block_ups[-1] * rho / (1.0 - rho)
    return lower, upper


def sum_series(
    term,
    tol: float = 1e-9,
    k_max: int = 10 ** 6,
) -> SeriesSum:
    """Sum a positive series with a remainder bracket of half-width at most ``tol``.

    ``term`` maps an index array to the float array of those terms.  Terms are
    accumulated in chunks; at doubling checkpoints the remainder is
    bracketed by ``_remainder_bracket`` and the midpoint correction is applied
    once the bracket half-width is within tol.  The bracket closes the tail
    geometrically from the last block-bound ratio, so it certifies the sum
    only when that ratio is nonincreasing (as for power-law, exponential and
    mixed decay).  Raises SeriesError when no bracket is reached within k_max
    terms (divergence or too-slow decay); its message gives the smallest
    bracket half-width reached, and where.
    """
    total = 0.0
    k = 0
    next_check = 64
    best: tuple[float, int] | None = None  # tightest (half-width, k) bracket seen
    while k < k_max:
        hi = min(k + 4096, k_max, next_check)
        vals = term(np.arange(k, hi))
        if not np.all(np.isfinite(vals)) or np.any(vals < 0):
            raise SeriesError(
                f"series terms must be finite and nonnegative; offending block at k = {k}"
            )
        total += float(np.sum(vals))
        k = hi
        if k >= next_check or k >= k_max:
            bracket = _remainder_bracket(term, k)
            if bracket is not None:
                lower, upper = bracket
                half = 0.5 * (upper - lower)
                if half <= tol and np.isfinite(upper):
                    return SeriesSum(total + 0.5 * (upper + lower), half, k)
                if best is None or half < best[0]:
                    best = (half, k)
            next_check = max(next_check * 2, k + 1)
    reached = (
        f"smallest remainder bracket half-width {best[0]:.3g} at k = {best[1]}"
        if best is not None
        else "no remainder bracket formed"
    )
    raise SeriesError(
        f"series did not certify convergence within {k_max} terms (tol = {tol}); {reached}"
    )

