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

with M = scipy.special.hyp1f1.  At |t-s| = 0 the second term is its limit
(z^2/4)^H sqrt(pi) / Gamma(H+1/2); at z = 0 the bracket is (2t)^H and gives the
variance identity C_H c_1H t^H.

NumPy and SciPy are imported inside the functions that use them, not with
this module: only simulate-verify loads them, NumPy at its first grid, kernel
or sampling call and SciPy at its first kernel or Clopper-Pearson call.  So
``import suptail.cli`` and the analytic commands load neither.

Only V is sampled; the bound for the smoothed field omega comes from its
Holder constants (heat.omega_bound_inputs) and needs no covariance.

The grid is the product of a time axis and a space axis.  The two Kummer
terms depend on t + s or |t - s| and on |x - y| only, so covariance_matrix
evaluates each once per distinct time value and distance, tabulates Cov V
over time pairs and distances, and gathers the matrix from that table.
v_covariance is one entry of a 2 x 2 grid: the kernel has this one route.

simulate-verify makes four calls: covariance_matrix, factor_covariance,
sample_sups on that factor, and empirical_sup_tail.  The factor is the exact
Cholesky factor: V is 0 at t = 0, so those rows of the covariance are zero
and stay zero in it, and a box axis with b == a is one grid point, since
repeated points would make the matrix singular.  One runner draws block b
of SAMPLE_BLOCK replicas from the stream (seed, b) and hands it to a
consumer, serially or on w threads, which agree to the byte.  The
consumer of sample_sups keeps the block's grid suprema, so m points and n
replicas take O(m^2 + w m SAMPLE_BLOCK + n) memory; that of sample_fields
keeps the whole (n, m) array.  The empirical tail sorts the suprema once and
counts each u by binary search, and ``verdicts`` marks each u PASS, FAIL or
INVALID against the bound column.
"""

from __future__ import annotations

import math
import os
from collections.abc import Sequence

from .heat import noise_constant
from .metric import AnisotropicBox


class FactorizationError(RuntimeError):
    """Covariance matrix not positive semidefinite, or singular on its positive variances."""


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


def _v_table(sums: np.ndarray, gaps: np.ndarray, dists: np.ndarray, hurst: float) -> np.ndarray:
    """Cov V for each time pair and each distance, shape sums.shape + dists.shape.

    A time pair (t, s) is given by sums = t + s and gaps = |t - s|, a distance
    by |x - y| (module docstring).  Each Kummer term depends on one of the
    two time values and the distance, so it is evaluated once per distinct
    time value, sum or gap, and distance.  Where min(t, s) = 0 both terms
    coincide, so the covariance is exactly 0.
    """
    import numpy as np

    z2 = dists * dists / 4.0
    pairs = np.stack([sums, gaps])
    rs, idx = np.unique(pairs, return_inverse=True)
    idx = idx.reshape(pairs.shape)  # flat before NumPy 2
    terms = _kummer_term(np.repeat(rs, len(z2)), np.tile(z2, len(rs)), hurst)
    terms = terms.reshape(len(rs), len(z2))[idx]
    scale = noise_constant(hurst) * math.gamma(1.0 - hurst) / (2.0 * hurst)
    return scale * (terms[0] - terms[1])


def v_covariance(t: float, x: float, s: float, y: float, hurst: float) -> float:
    """Covariance of the stochastic convolution V at (t,x), (s,y), in closed form.

    C_H Gamma(1-H)/(2H) [(t+s)^H M(-H; 1/2; -z^2/(4(t+s)))
    - |t-s|^H M(-H; 1/2; -z^2/(4|t-s|))] with z = x - y and M the Kummer
    function, from integrating the spectral form term by term (see the module
    docstring).  Symmetric, depends on x, y only through |x - y|, zero when
    either time is 0, and v_covariance(t,x,t,x) = C_H * c_1H * t^H exactly.
    Entry (0, 3) of covariance_matrix((t, s), (x, y), hurst), with its checks.
    """
    return float(covariance_matrix((t, s), (x, y), hurst)[0, 3])


def make_grid(box: AnisotropicBox, nt: int, nx: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Time and space axes of nt by nx evenly spaced points over the box.

    An axis with b == a is the one point a: repeated points add nothing to
    the grid supremum and would make the covariance exactly singular.
    """
    import numpy as np

    if nt < 1 or nx < 1:
        raise ValueError("grid sizes must be positive")
    return (
        tuple(np.linspace(box.a1, box.b1, nt if box.b1 > box.a1 else 1).tolist()),
        tuple(np.linspace(box.a2, box.b2, nx if box.b2 > box.a2 else 1).tolist()),
    )


def covariance_matrix(times: Sequence[float], xs: Sequence[float], hurst: float) -> np.ndarray:
    """Dense covariance matrix of V over the product grid times x xs.

    Point (times[i], xs[a]) has index i * len(xs) + a: points run in t-major
    order.  The kernel depends on the times only through t + s and |t - s|,
    and on the space points through |x - y|.  It is tabulated over (nt, nt,
    n_dist) for the time pairs and the distinct distances between the xs,
    and the matrix is gathered from that table: entry (i, a), (j, b) is
    table[i, j, index of |x_a - x_b|].
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
    m = len(times) * len(xs)
    dists, d_idx = np.unique(np.abs(np.subtract.outer(xs, xs)), return_inverse=True)
    d_idx = d_idx.reshape(len(xs), len(xs))  # flat before NumPy 2
    # t + s and |t - s| are exactly symmetric in t and s under IEEE rounding.
    # Past |x - y| ~ 1e154 the squared distance overflows and the Kummer terms
    # give inf - inf: a table that is not finite raises instead of warning.
    with np.errstate(over="ignore", invalid="ignore"):
        sums, gaps = np.add.outer(times, times), np.abs(np.subtract.outer(times, times))
        table = _v_table(sums, gaps, dists, hurst)
    if not np.isfinite(table).all():
        raise ValueError(f"covariance is not finite on this grid: its largest |x - y| is "
                         f"{float(dists[-1])!r} and its largest time {float(times.max())!r}")
    return table[:, :, d_idx].transpose(0, 2, 1, 3).reshape(m, m)


def factor_covariance(cov: np.ndarray) -> np.ndarray:
    """Lower-triangular L with L L^T = cov exactly, by Cholesky.

    A PSD matrix is zero in every row and column whose variance is 0, as
    those of V at t = 0 are.  Such rows stay zero in L, and Cholesky factors
    the block of positive variances.  Raises FactorizationError if a
    variance is negative, a zero-variance row is not all zero, or the
    Cholesky of that block fails.
    """
    import numpy as np

    var = cov.diagonal()
    try:
        if var.min() > 0.0:
            return np.linalg.cholesky(cov)
        pos = var > 0.0
        if var.min() < 0.0 or np.any(cov[~pos]):
            raise FactorizationError(
                f"covariance not PSD: min variance {var.min()}, or a nonzero row of variance 0"
            )
        block = np.ix_(pos, pos)
        chol = np.zeros_like(cov)
        chol[block] = np.linalg.cholesky(cov[block])
        return chol
    except np.linalg.LinAlgError as exc:
        raise FactorizationError(
            f"covariance not positive definite on its positive variances: {exc}"
        ) from exc


# Replicas per block.  Block b draws its normals from the stream (seed, b),
# so this constant is part of the output bytes.
SAMPLE_BLOCK = 512


def _each_block(chol: np.ndarray, n: int, seed: int, workers: int, shape: tuple, consume) -> np.ndarray:
    """An array of the given shape, filled by consume(out, lo, hi, chol z^T) for each block.

    Block b holds replicas [lo, hi) = [b*SAMPLE_BLOCK, min((b+1)*SAMPLE_BLOCK, n)),
    and z their normals, one standard_normal draw from the stream (seed, b).
    n and seed are checked before the array is allocated.  The blocks run
    serially or on up to min(workers, os.cpu_count()) threads, since the
    pool starts a thread per block submitted while its threads are busy.
    """
    import numpy as np

    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if seed is None:
        raise ValueError("a seed is required for reproducible sampling")
    out = np.empty(shape)

    def run(lo: int) -> None:
        hi = min(lo + SAMPLE_BLOCK, n)
        key = np.random.SeedSequence(seed, spawn_key=(lo // SAMPLE_BLOCK,))
        consume(out, lo, hi, chol @ np.random.default_rng(key).standard_normal((hi - lo, len(chol))).T)

    blocks = range(0, n, SAMPLE_BLOCK)
    if workers <= 1:
        list(map(run, blocks))
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=min(workers, os.cpu_count() or 1)) as pool:
            list(pool.map(run, blocks))
    return out


def sample_fields(chol: np.ndarray, n: int, seed: int, workers: int = 1) -> np.ndarray:
    """n i.i.d. zero-mean Gaussian vectors with covariance chol chol^T, (n, m).

    Replica i is chol z_i, with chol the factor from ``factor_covariance``.
    The z_i of replicas [b*SAMPLE_BLOCK, (b+1)*SAMPLE_BLOCK) are the rows of
    one standard_normal draw from the stream (seed, b), whatever n or the
    worker count, so serial and threaded runs produce identical bytes and a
    shorter run is a prefix of a longer one.  The result is the transpose of
    an (m, n) C-ordered buffer, so each grid point's samples are contiguous.
    """

    def store(out, lo, hi, block):
        out[:, lo:hi] = block

    return _each_block(chol, n, seed, workers, (len(chol), n), store).T


def sample_sups(chol: np.ndarray, n: int, seed: int, workers: int = 1) -> np.ndarray:
    """Grid supremum max |V| of each of n replicas, shape (n,).

    The replicas are those of ``sample_fields`` with the same arguments, and
    each block is reduced to its suprema as soon as it is drawn, so memory is
    O(m^2 + threads * m * SAMPLE_BLOCK + n) instead of O(m * n).
    """
    import numpy as np

    def reduce(out, lo, hi, block):
        np.abs(block, out=block).max(axis=0, out=out[lo:hi])

    return _each_block(chol, n, seed, workers, (n,), reduce)


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
