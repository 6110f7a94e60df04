"""Point-set routes for the covariance and the fields: oracles for suptail.sim.

``sim.covariance_matrix`` gathers the matrix from a table over the two grid
axes, and ``sim.sample_sups`` reduces each block of replicas to its suprema
as it is drawn.  The routes here work on a list of (t, x) points instead: the
covariance keys (min(t,s), max(t,s), |x-y|) of all m^2 pairs are sorted with
np.unique, the kernel is evaluated once per key and scattered back, and the
sampler stores every replica in an (m, n) array.  Both call the same Kummer
term and the same Cholesky factor as the library and draw block b's normals
from the stream (seed, b), so their values must agree with the library's to
the byte.
"""

import math

import numpy as np

from suptail import sim
from suptail.heat import noise_constant


def covariance_from_points(points, hurst: float) -> np.ndarray:
    """Dense covariance over the (t, x) points, one kernel call per distinct key."""
    m = len(points)
    t, x = np.asarray(points, dtype=float).T
    times, t_idx = np.unique(t, return_inverse=True)
    xs, x_idx = np.unique(x, return_inverse=True)
    dists, d_idx = np.unique(np.abs(np.subtract.outer(xs, xs)), return_inverse=True)
    d_idx = d_idx.reshape(len(xs), -1)[x_idx[:, None], x_idx]
    lo = np.minimum.outer(t_idx, t_idx)
    hi = np.maximum.outer(t_idx, t_idx)
    code = (lo * len(times) + hi) * len(dists) + d_idx
    uniq, inverse = np.unique(code, return_inverse=True)
    pair, d = np.divmod(uniq, len(dists))
    vals = v_kernel(times[pair // len(times)], times[pair % len(times)], dists[d], hurst)
    return vals[inverse].reshape(m, m)


def v_kernel(lo, hi, dist, hurst: float) -> np.ndarray:
    """Cov V elementwise from min(t,s), max(t,s) and |x-y|, one Kummer term per entry."""
    z2 = dist * dist / 4.0
    scale = noise_constant(hurst) * math.gamma(1.0 - hurst) / (2.0 * hurst)
    return scale * (sim._kummer_term(lo + hi, z2, hurst) - sim._kummer_term(hi - lo, z2, hurst))


def fields_from_points(points, hurst: float, n: int, seed: int, workers: int = 1) -> np.ndarray:
    """n replicas over the points, (n, m), each block filled on its own thread."""
    from concurrent.futures import ThreadPoolExecutor

    m = len(points)
    chol = sim.factor_covariance(covariance_from_points(points, hurst))
    out = np.empty((m, n))

    def fill(lo: int) -> None:
        hi = min(lo + sim.SAMPLE_BLOCK, n)
        key = np.random.SeedSequence(seed, spawn_key=(lo // sim.SAMPLE_BLOCK,))
        out[:, lo:hi] = chol @ np.random.default_rng(key).standard_normal((hi - lo, m)).T

    with ThreadPoolExecutor(max_workers=workers) as pool:
        list(pool.map(fill, range(0, n, sim.SAMPLE_BLOCK)))
    return out.T
