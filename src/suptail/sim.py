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

Sampling draws i.i.d. Gaussian vectors through the lower-triangular Cholesky
factor of the covariance matrix, with escalating diagonal jitter where the
matrix is singular or slightly indefinite.  Replicas come in fixed blocks of
SAMPLE_BLOCK, and block b's normals are drawn from the stream (seed, b), so
serial and threaded runs agree to the byte.  The samples are stored replica
axis last, so the per-replica supremum of the empirical tail reduces over
contiguous rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .curves import TailCurve
from .heat import noise_constant
from .metric import AnisotropicBox


class FactorizationError(RuntimeError):
    """Covariance matrix not positive semidefinite within the jitter budget."""


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


def _v_kernel(lo: np.ndarray, hi: np.ndarray, dist: np.ndarray, hurst: float) -> np.ndarray:
    """Cov V elementwise from min(t,s), max(t,s) and |x-y| (module docstring).

    At lo = 0 both terms coincide, so the covariance is exactly 0.
    """
    z2 = dist * dist / 4.0
    scale = noise_constant(hurst) * math.gamma(1.0 - hurst) / (2.0 * hurst)
    return scale * (_kummer_term(lo + hi, z2, hurst) - _kummer_term(hi - lo, z2, hurst))


def v_covariance(t: float, x: float, s: float, y: float, hurst: float) -> float:
    """Covariance of the stochastic convolution V at (t,x), (s,y), in closed form.

    C_H Gamma(1-H)/(2H) [(t+s)^H M(-H; 1/2; -z^2/(4(t+s)))
    - |t-s|^H M(-H; 1/2; -z^2/(4|t-s|))] with z = x - y and M the Kummer
    function, from integrating the spectral form term by term (see the module
    docstring).  Symmetric, depends on x, y only through |x - y|, zero when
    either time is 0, and v_covariance(t,x,t,x) = C_H * c_1H * t^H exactly.
    """
    import numpy as np

    if t < 0 or s < 0:
        raise ValueError("times must be nonnegative")
    lo, hi, dist = (np.array([v]) for v in (min(t, s), max(t, s), abs(x - y)))
    return float(_v_kernel(lo, hi, dist, hurst)[0])


@dataclass(frozen=True)
class GaussianFieldModel:
    """The stochastic convolution V with Hurst index hurst on a fixed grid.

    Grid points are (t, x) pairs with t >= 0, inside the box if one is given.
    """

    grid: tuple[tuple[float, float], ...]
    hurst: float
    box: Optional[AnisotropicBox] = None

    def __post_init__(self) -> None:
        if not self.grid:
            raise ValueError("grid must be nonempty")
        for t, x in self.grid:
            if t < 0:
                raise ValueError(f"grid times must be nonnegative, got {t}")
            if self.box is not None:
                if not (self.box.a1 <= t <= self.box.b1 and self.box.a2 <= x <= self.box.b2):
                    raise ValueError(f"grid point ({t}, {x}) outside the declared box")


def make_grid(box: AnisotropicBox, nt: int, nx: int) -> tuple[tuple[float, float], ...]:
    """Product grid of nt time points by nx space points over the box."""
    import numpy as np

    if nt < 1 or nx < 1:
        raise ValueError("grid sizes must be positive")
    ts = np.linspace(box.a1, box.b1, nt)
    xs = np.linspace(box.a2, box.b2, nx)
    return tuple((float(t), float(x)) for t in ts for x in xs)


def covariance_matrix(model: GaussianFieldModel) -> np.ndarray:
    """Dense covariance matrix over the model grid.

    The kernel depends on (min(t,s), max(t,s), |x-y|): the distinct keys are
    evaluated in one array call and scattered back.
    """
    import numpy as np

    pts = model.grid
    m = len(pts)
    t, x = np.asarray(pts, dtype=float).T
    # Each key component is replaced by the index of its value among the
    # distinct values, so a key is one integer: np.unique over rows of
    # floats (axis=0) sorts void views and is ten times slower at 24x24.
    # The distances are sorted between distinct x values (nx^2 of them, not
    # m^2) and mapped back through x's index.
    times, t_idx = np.unique(t, return_inverse=True)
    xs, x_idx = np.unique(x, return_inverse=True)
    dists, d_idx = np.unique(np.abs(np.subtract.outer(xs, xs)), return_inverse=True)
    d_idx = d_idx.reshape(len(xs), -1)[x_idx[:, None], x_idx]
    lo = np.minimum.outer(t_idx, t_idx)
    hi = np.maximum.outer(t_idx, t_idx)
    code = (lo * len(times) + hi) * len(dists) + d_idx
    uniq, inverse = np.unique(code, return_inverse=True)
    pair, d = np.divmod(uniq, len(dists))
    vals = _v_kernel(times[pair // len(times)], times[pair % len(times)], dists[d], model.hurst)
    return vals[inverse].reshape(m, m)


_JITTER_LADDER = (0.0, 1e-12, 1e-11, 1e-10, 1e-9, 1e-8)


def factor_covariance(cov: np.ndarray) -> np.ndarray:
    """Lower-triangular L with L L^T = cov + jitter I, by Cholesky.

    Jitter levels are relative to the largest variance: the first rung of
    _JITTER_LADDER at which np.linalg.cholesky succeeds is used.  If the last
    rung fails, raises FactorizationError rather than regularizing further.
    An all-zero matrix has the all-zero factor; any other matrix without a
    positive variance cannot be PSD and raises.
    """
    import numpy as np

    scale = float(cov.diagonal().max())
    if scale <= 0.0:
        if not np.any(cov):
            return np.zeros_like(cov)
        raise FactorizationError(
            f"covariance not PSD: nonzero matrix with max variance {scale}"
        )
    for level in _JITTER_LADDER:
        # rung 0 factors cov itself, with no jittered copy
        jittered = cov + (level * scale) * np.eye(len(cov)) if level else cov
        try:
            return np.linalg.cholesky(jittered)
        except np.linalg.LinAlgError:
            pass
    raise FactorizationError(
        f"covariance not PSD within jitter budget: Cholesky fails at jitter "
        f"cap {_JITTER_LADDER[-1]} x max variance {scale}"
    )


# Replicas per block.  Block b draws its normals from the stream (seed, b),
# so this constant is part of the output bytes.
SAMPLE_BLOCK = 512


def sample_fields(
    model: GaussianFieldModel,
    n: int,
    seed: int,
    workers: int = 1,
) -> np.ndarray:
    """n i.i.d. zero-mean Gaussian vectors with the model covariance, (n, m).

    Replica i is L z_i with L the Cholesky factor of ``factor_covariance``.
    The z_i of replicas [b*SAMPLE_BLOCK, (b+1)*SAMPLE_BLOCK) are the rows of
    one standard_normal draw from the stream (seed, b), whatever n or the
    worker count, so serial and threaded runs produce identical bytes and a
    shorter run is a prefix of a longer one.  The result is the transpose of
    an (m, n) C-ordered buffer, so each grid point's samples are contiguous.
    """
    import numpy as np

    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if seed is None:
        raise ValueError("a seed is required for reproducible sampling")
    m = len(model.grid)
    chol = factor_covariance(covariance_matrix(model))
    out = np.empty((m, n))

    def fill(lo: int) -> None:
        hi = min(lo + SAMPLE_BLOCK, n)
        key = np.random.SeedSequence(seed, spawn_key=(lo // SAMPLE_BLOCK,))
        out[:, lo:hi] = chol @ np.random.default_rng(key).standard_normal((hi - lo, m)).T

    blocks = range(0, n, SAMPLE_BLOCK)
    if workers <= 1:
        for lo in blocks:
            fill(lo)
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(fill, blocks))
    return out.T


# Two-sided confidence level of the Clopper-Pearson limits.
CONFIDENCE = 0.99


def clopper_pearson(k: int, n: int) -> tuple[float, float]:
    """Two-sided Clopper-Pearson interval at level CONFIDENCE for a binomial proportion."""
    from scipy.special import betaincinv

    if not (0 <= k <= n) or n <= 0:
        raise ValueError(f"need 0 <= k <= n with n > 0, got k={k}, n={n}")
    alpha = 1.0 - CONFIDENCE
    lo = 0.0 if k == 0 else float(betaincinv(k, n - k + 1, alpha / 2.0))
    hi = 1.0 if k == n else float(betaincinv(k + 1, n - k, 1.0 - alpha / 2.0))
    return lo, hi


def empirical_sup_tail(fields: np.ndarray, u_grid: Sequence[float]) -> TailCurve:
    """Empirical tail of the grid supremum: fraction of replicas with max |field| > u.

    Carries two-sided Clopper-Pearson limits at level CONFIDENCE.
    """
    import numpy as np

    fields = np.asarray(fields)
    if fields.ndim != 2 or fields.shape[0] == 0:
        raise ValueError("fields must be a nonempty (n, m) array")
    n = fields.shape[0]
    sups = np.max(np.abs(fields), axis=1)
    us, values, lows, highs = [], [], [], []
    for u in u_grid:
        k = int(np.sum(sups > u))
        lo, hi = clopper_pearson(k, n)
        us.append(float(u))
        values.append(k / n)
        lows.append(lo)
        highs.append(hi)
    return TailCurve(
        u=tuple(us),
        value=tuple(values),
        ci_lo=tuple(lows),
        ci_hi=tuple(highs),
        n_samples=n,
    )


@dataclass(frozen=True)
class VerifyReport:
    """Per-u comparison of an empirical sup-tail against a theoretical bound.

    A PASS says the bound is not contradicted (lower confidence limit at or
    below the bound).  The grid supremum underestimates the true supremum, so
    PASS is necessary-condition evidence only, never proof.
    """

    u: tuple[float, ...]
    empirical: tuple[float, ...]
    ci_lo: tuple[float, ...]
    ci_hi: tuple[float, ...]
    bound: tuple[float, ...]
    verdict: tuple[str, ...]
    n_samples: Optional[int]
    note: str = field(
        default="grid supremum underestimates the true supremum; PASS is "
        "necessary-condition evidence only"
    )

    @property
    def n_fail(self) -> int:
        return sum(v == "FAIL" for v in self.verdict)

    @property
    def passed(self) -> bool:
        return self.n_fail == 0


def verify_bound(empirical: TailCurve, theoretical: TailCurve) -> VerifyReport:
    """PASS iff the empirical lower confidence limit is <= the bound at each u.

    Entries where the theoretical curve is nan (below its validity threshold)
    get verdict INVALID and do not count as failures.
    """
    if empirical.u != theoretical.u:
        raise ValueError("curves must share the same u grid")
    if empirical.ci_lo is None:
        raise ValueError("empirical curve must carry confidence limits")
    verdicts = []
    for lo, b in zip(empirical.ci_lo, theoretical.value):
        if math.isnan(b):
            verdicts.append("INVALID")
        elif lo <= b:
            verdicts.append("PASS")
        else:
            verdicts.append("FAIL")
    return VerifyReport(
        u=empirical.u,
        empirical=empirical.value,
        ci_lo=empirical.ci_lo,
        ci_hi=empirical.ci_hi,
        bound=theoretical.value,
        verdict=tuple(verdicts),
        n_samples=empirical.n_samples,
    )
