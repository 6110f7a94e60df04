"""Exact-covariance Gaussian Monte Carlo for the heat-equation field V.

The stochastic convolution V has the spectral covariance

    Cov V(t,x) V(s,y) = C_H int_R (e^{-|t-s| xi^2} - e^{-(t+s) xi^2})
                        / (2 xi^2) * cos(xi z) |xi|^{1-2H} dxi,    z = x - y,

which is evaluated in closed form.  Writing the time factor as
(1/2) int_{|t-s|}^{t+s} e^{-r xi^2} dr and using the Gaussian Fourier moment
int_R e^{-r xi^2} cos(xi z) |xi|^{1-2H} dxi = Gamma(1-H) r^{H-1} M(1-H; 1/2; -z^2/4r)
leaves a 1-D integral over r; with w = z^2/4r and the term-by-term antiderivative
int w^{-1-H} M(1-H; 1/2; -w) dw = -w^{-H} M(-H; 1/2; -w) / H it becomes

    Cov V = C_H Gamma(1-H) / (2H) * [ (t+s)^H M(-H; 1/2; -z^2/(4(t+s)))
                                      - |t-s|^H M(-H; 1/2; -z^2/(4|t-s|)) ],

with M = scipy.special.hyp1f1 and the prefactor r/4, r = ``heat.gamma_ratio``.
At |t-s| = 0 the second term is its limit (z^2/4)^H sqrt(pi) / Gamma(H+1/2); at
z = 0 the bracket is (2t)^H and gives the variance identity A(H)^2 t^H.

V is self-similar: for every c > 0, V(ct, sqrt(c) x) has the law of
c^(H/2) V(t, x), jointly over all points.  V is a centred Gaussian field, and
the scaling leaves each Kummer argument above unchanged while (t+s)^H and
|t-s|^H gain the factor c^H, so the covariance gains it too.

NumPy and SciPy are imported inside the functions that use them, not with
this module: only simulate-verify loads them, NumPy at its first grid, kernel
or sampling call and SciPy at its first kernel or Clopper-Pearson call.  So
``import suptail.cli`` and the analytic commands load neither.

Only V is sampled; the bound for the smoothed field omega comes from its
Holder constants (heat.omega_bound_inputs) and needs no covariance.

simulate-verify makes four calls on the product grid of ``make_grid``:
``covariance_matrix``, one table of Kummer terms over the distinct time
values and distances (``v_covariance`` is one entry of a 2 x 2 grid, so the
kernel has one route); ``factor_covariance``, plain Cholesky;
``sample_sups`` on that factor, which reduces each block of SAMPLE_BLOCK
replicas as it is drawn and joins the blocks once, to the same bytes on any
number of threads; and ``empirical_sup_tail``.  ``verdicts`` marks each u
PASS, FAIL or INVALID.  make_grid leaves out t = 0 and the repeats of a
degenerate axis, so the covariance is positive definite in exact arithmetic;
grid points that coincide in floating point, such as those of a side of
1e-300, make Cholesky fail, with an error naming the grid.
"""

from __future__ import annotations

import math
import os
from collections.abc import Sequence

from .heat import gamma_ratio
from .metric import AnisotropicBox


class FactorizationError(RuntimeError):
    """Covariance matrix not positive definite."""


# Outside [_W_SERIES, _W_ASYMPTOTIC] scipy's hyp1f1(-H, 1/2, -w) can return
# inf or nan at small H; there two terms of the power series, or of the
# large-w expansion sqrt(pi)/Gamma(H+1/2) w^H (1 - H(1/2-H)/w), are exact to
# rounding.
_W_SERIES = 1e-10
_W_ASYMPTOTIC = 1e12


def _kummer_term(r: np.ndarray, z2: np.ndarray, hurst: float) -> np.ndarray:
    """r^H M(-H; 1/2; -z2/r) elementwise, with its limit z2^H sqrt(pi)/Gamma(H+1/2) at r = 0."""
    import numpy as np
    from scipy.special import hyp1f1

    w = np.divide(z2, r, out=np.full(r.shape, np.inf), where=r > 0)
    small = w < _W_SERIES
    large = w > _W_ASYMPTOTIC
    mid = ~(small | large)
    out = np.empty(r.shape)
    out[small] = r[small] ** hurst * (1.0 + 2.0 * hurst * w[small])
    out[mid] = r[mid] ** hurst * hyp1f1(-hurst, 0.5, -w[mid])
    out[large] = (
        z2[large] ** hurst
        * math.sqrt(math.pi)
        / math.gamma(hurst + 0.5)
        * (1.0 - hurst * (0.5 - hurst) / w[large])
    )
    return out


def v_covariance(t: float, x: float, s: float, y: float, hurst: float) -> float:
    """Covariance of the stochastic convolution V at (t,x), (s,y), in closed form.

    r/4 [(t+s)^H M(-H; 1/2; -z^2/(4(t+s))) - |t-s|^H M(-H; 1/2; -z^2/(4|t-s|))]
    with r = Gamma(2H+1) / Gamma(H+1), z = x - y and M the Kummer
    function, from integrating the spectral form term by term (see the module
    docstring).  Symmetric, depends on x, y only through |x - y|, zero when
    either time is 0, and v_covariance(t,x,t,x) = C_H * c_1H * t^H to rounding
    (1.1e-15 relative over 2000 draws of H in [1e-3, 1/2], t in [1e-3, 1e3]).
    Entry (0, 3) of covariance_matrix((t, s), (x, y), hurst), with its checks.
    """
    return float(covariance_matrix((t, s), (x, y), hurst)[0, 3])


def make_grid(box: AnisotropicBox, nt: int, nx: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Time and space axes of nt by nx evenly spaced points over the box,
    less the points that add nothing to the grid supremum and would make the
    covariance singular: the time t = 0, where V is 0, and the repeats of an
    axis with b == a, which is the one point a.  A grid at t = 0 only raises.
    """
    import numpy as np

    if nt < 1 or nx < 1:
        raise ValueError("grid sizes must be positive")
    times = np.linspace(box.a1, box.b1, nt if box.b1 > box.a1 else 1)
    times = times[times != 0.0]
    if not times.size:
        raise ValueError(f"the grid's times lie at t = 0 only, where V is 0: a1 = {box.a1!r}, "
                         f"b1 = {box.b1!r}, nt = {nt}")
    return tuple(times.tolist()), tuple(np.linspace(box.a2, box.b2, nx if box.b2 > box.a2 else 1).tolist())


def covariance_matrix(times: Sequence[float], xs: Sequence[float], hurst: float) -> np.ndarray:
    """Dense covariance matrix of V over the product grid times x xs.

    Point (times[i], xs[a]) has index i * len(xs) + a: points run in t-major
    order.  The kernel depends on the times only through t + s and |t - s|,
    and on the space points through |x - y|.  The Kummer terms are evaluated
    on the grid of distinct time values (sums and gaps) by distinct
    distances, Cov V is tabulated over (nt, nt, n_dist) for the time pairs
    and the distinct distances between the xs, and the matrix is gathered
    from that table: entry (i, a), (j, b) is table[i, j, index of |x_a - x_b|].
    Where min(t, s) = 0 both terms coincide, so the covariance is exactly 0.
    """
    import numpy as np

    times = np.asarray(times, dtype=float)
    xs = np.asarray(xs, dtype=float)
    if len(times) == 0 or len(xs) == 0:
        raise ValueError("grid axes must be nonempty")
    if not times.min() >= 0:  # also rejects nan
        raise ValueError(f"grid times must be nonnegative, got {times.min()}")
    for axis, values in (("times", times), ("space points", xs)):
        if not np.isfinite(values).all():
            raise ValueError(f"grid {axis} must be finite, got {values[~np.isfinite(values)][0]}")
    nt, m = len(times), len(times) * len(xs)
    dists, d_idx = np.unique(np.abs(np.subtract.outer(xs, xs)), return_inverse=True)
    d_idx = d_idx.reshape(len(xs), len(xs))  # flat before NumPy 2
    # t + s and |t - s| are exactly symmetric in t and s under IEEE rounding.
    # Past |x - y| ~ 1e154 the squared distance overflows and the Kummer terms
    # give inf - inf: a table that is not finite raises instead of warning.
    with np.errstate(over="ignore", invalid="ignore"):
        rs, r_idx = np.unique([np.add.outer(times, times), np.abs(np.subtract.outer(times, times))],
                              return_inverse=True)
        terms = _kummer_term(*np.broadcast_arrays(rs[:, None], dists * dists / 4.0), hurst)
        terms = terms[r_idx.reshape(2, nt, nt)]  # flat before NumPy 2
        table = gamma_ratio(hurst) / 4.0 * (terms[0] - terms[1])
    if not np.isfinite(table).all():
        raise ValueError(f"covariance is not finite on this grid: its largest |x - y| is "
                         f"{float(dists[-1])!r} and its largest time {float(times.max())!r}")
    return table[:, :, d_idx].transpose(0, 2, 1, 3).reshape(m, m)


def factor_covariance(cov: np.ndarray, grid: str = "") -> np.ndarray:
    """Lower-triangular L with L L^T = cov to rounding (within 1.2e-15 of the
    largest variance on ``make_grid`` grids up to 24 x 24), by Cholesky, which
    adds nothing to the diagonal: cov must be positive definite, as it is on
    such a grid in exact arithmetic.  A zero variance, a repeated
    point or a negative eigenvalue raises FactorizationError, whose message
    names the grid by the text ``grid``.
    """
    import numpy as np

    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise FactorizationError(f"covariance{grid} not positive definite: {exc}") from exc


# Replicas per block.  Block b draws its normals from the stream (seed, b),
# so this constant is part of the output bytes.
SAMPLE_BLOCK = 512


def _blocks(chol: np.ndarray, n: int, seed: int, workers: int, reduce) -> list:
    """reduce(chol z^T) for each block of replicas, in block order.

    Block b holds replicas [b*SAMPLE_BLOCK, min((b+1)*SAMPLE_BLOCK, n)) and draws
    z, their normals, from the stream (seed, b); n = 0 gives one empty block, to
    join.  Blocks run serially or on at most min(workers, os.cpu_count()) threads:
    the pool starts a thread per block submitted while its threads are busy.
    """
    import numpy as np

    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if seed is None:
        raise ValueError("a seed is required for reproducible sampling")

    def run(lo: int) -> np.ndarray:
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(lo // SAMPLE_BLOCK,)))
        return reduce(chol @ rng.standard_normal((min(lo + SAMPLE_BLOCK, n) - lo, len(chol))).T)

    blocks = range(0, max(n, 1), SAMPLE_BLOCK)
    if workers <= 1:
        return list(map(run, blocks))
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=min(workers, os.cpu_count() or 1)) as pool:
        return list(pool.map(run, blocks))


def sample_fields(chol: np.ndarray, n: int, seed: int, workers: int = 1) -> np.ndarray:
    """n i.i.d. zero-mean Gaussian vectors with covariance chol chol^T, (n, m).

    Replica i is chol z_i, with chol the factor from ``factor_covariance``.
    The z_i of replicas [b*SAMPLE_BLOCK, (b+1)*SAMPLE_BLOCK) are the rows of
    one standard_normal draw from the stream (seed, b), whatever n or the
    worker count, so serial and threaded runs produce identical bytes and a
    shorter run is a prefix of a longer one.  The result is the transpose of
    the blocks' (m, n) C-ordered join, so each grid point's samples are contiguous.
    """
    import numpy as np

    return np.hstack(_blocks(chol, n, seed, workers, lambda block: block)).T


def sample_sups(chol: np.ndarray, n: int, seed: int, workers: int = 1) -> np.ndarray:
    """Grid supremum max |V| of each of n replicas, shape (n,).

    The replicas are those of ``sample_fields`` with the same arguments, and
    each block is reduced to its suprema as soon as it is drawn, so memory is
    O(m^2 + threads * m * SAMPLE_BLOCK + n) instead of O(m * n).
    """
    import numpy as np

    return np.concatenate(_blocks(chol, n, seed, workers, lambda b: np.abs(b, out=b).max(axis=0)))


# Two-sided confidence level of the Clopper-Pearson limits.
CONFIDENCE = 0.99


def _clopper_pearson_limits(k: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Clopper-Pearson limits at level CONFIDENCE for each count in k out of n."""
    import numpy as np
    from scipy.special import betaincinv

    alpha = 1.0 - CONFIDENCE
    # betaincinv is nan at the a = 0 and b = 0 ends, which np.where replaces
    lo = np.where(k == 0, 0.0, betaincinv(k, n - k + 1, alpha / 2.0))
    hi = np.where(k == n, 1.0, betaincinv(k + 1, n - k, 1.0 - alpha / 2.0))
    return lo, hi


def empirical_sup_tail(
    sups: np.ndarray, u_grid: Sequence[float]
) -> tuple[list[float], list[float], list[float]]:
    """Empirical tail of the grid supremum: fraction of the replica suprema above u.

    sups holds one finite max |field| per replica (``sample_sups``).  Returns
    the fractions and their two-sided Clopper-Pearson limits at level
    CONFIDENCE, (values, ci_lo, ci_hi), each a list over u_grid.
    """
    import numpy as np

    sups = np.asarray(sups, dtype=float)
    if sups.ndim != 1 or len(sups) == 0:
        raise ValueError("sups must be a nonempty 1-D array")
    if not np.isfinite(sups).all():
        raise ValueError(f"sups must be finite, got {sups[~np.isfinite(sups)][0]}")
    n = len(sups)
    # replicas with sup > u are those sorted after every entry <= u
    counts = n - np.searchsorted(np.sort(sups), [float(u) for u in u_grid], side="right")
    lows, highs = _clopper_pearson_limits(counts, n)
    return [k / n for k in counts.tolist()], lows.tolist(), highs.tolist()


def verdicts(ci_lo: Sequence[float], bounds: Sequence[float]) -> list[str]:
    """Per-u comparison of an empirical sup-tail against a theoretical bound.

    PASS where the empirical lower confidence limit is at or below the bound,
    FAIL where it is above, and INVALID where the bound is nan (not asserted
    at that u); INVALID does not count as a failure.  A PASS says the bound
    is not contradicted.  The grid supremum underestimates the true
    supremum, so PASS is necessary-condition evidence only, never proof.
    """
    if len(ci_lo) != len(bounds):
        raise ValueError("confidence limits and bounds must share the u grid")
    return [
        "INVALID" if math.isnan(b) else "PASS" if lo <= b else "FAIL"
        for lo, b in zip(ci_lo, bounds)
    ]
