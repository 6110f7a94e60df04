"""Rate-of-growth bounds over the strip [0, inf) x [-A, A].

The weighted supremum sup |X(t1,t2)| / f(t1) is controlled through two series
over a partition of the time axis into cells [b_k, b_{k+1}] x [-A, A]:

    C = sum_k eps_k / f_k,
    S = sum_k eps_k^(1 - 1/(gamma*beta)) * c1(k) / f_k,

with c1(k) the entropy constant ``entropy.c1_constant`` of cell k, the same
one the bounded-box bound uses.  A spec's closures take and return scalars,
and a series term maps an index array to a float array, one scalar term per
index.  ``series_c_sum`` and ``series_s_sum`` sum them with a certified
remainder; a partition point b_k that overflows fails the sum, since the
terms past it would be unknown.  ``theta_sup`` raises where the ratio
gamma_k / eps_k still falls over its probed cells.  The tail bound at fixed
theta, its closed-form optimum over theta and the auto-theta form take C, S
and the theta cap min(1, ``theta_sup``) from the caller, who computes each
once; the first two share their formulas with ``supbound``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .entropy import HolderProfile, c1_constant
from .metric import AnisotropicBox
from .orlicz import PhiFamily, rv_tail_bound
from .supbound import _optimal_theta, _tail_at_theta


class SeriesError(RuntimeError):
    """Series summation failed to certify convergence."""


@dataclass(frozen=True)
class GrowthSpec:
    """Inputs for the growth bounds.

    partition(k) = b_k must be nondecreasing to infinity with b_0 >= 0;
    weight is the normalizing f evaluated at partition points and must be
    positive there; cell_sup(k) bounds the field's Orlicz norm on cell k;
    cell_holder(k) is the Holder scale c_k of the increment modulus
    c_k * h^gamma on cell k.  h1/h2 are the metric exponents, halfwidth the
    strip half-width A.
    """

    partition: Callable[[int], float]
    weight: Callable[[float], float]
    halfwidth: float
    cell_sup: Callable[[int], float]
    cell_holder: Callable[[int], float]
    gamma: float
    h1: float
    h2: float
    fam: PhiFamily

    def __post_init__(self) -> None:
        if not (0.0 < self.gamma <= 1.0):
            raise ValueError(f"gamma must lie in (0, 1], got {self.gamma}")
        if not (0.0 < self.h1 <= 1.0 and 0.0 < self.h2 <= 1.0):
            raise ValueError("metric exponents must lie in (0, 1]")
        if self.halfwidth < 0:
            raise ValueError(f"halfwidth must be >= 0, got {self.halfwidth}")

    @property
    def gamma_beta(self) -> float:
        return self.gamma * self.fam.beta

    def cell_length(self, k: int) -> float:
        l_k = self.partition(k + 1) - self.partition(k)
        if not l_k > 0:
            raise ValueError(f"partition must be strictly increasing; l_{k} = {l_k}")
        return l_k


def cell_inputs(k: int, spec: GrowthSpec) -> tuple[AnisotropicBox, HolderProfile]:
    """Cell k as a box [b_k, b_{k+1}] x [-A, A] with the modulus c_k h^gamma."""
    spec.cell_length(k)  # rejects a cell of length <= 0
    a, w = spec.partition(k), spec.halfwidth
    box = AnisotropicBox(a, spec.partition(k + 1), -w, w, spec.h1, spec.h2)
    return box, HolderProfile.power(spec.cell_holder(k), spec.gamma)


def cell_constant(k: int, spec: GrowthSpec) -> float:
    """Entropy constant c1(k) = ``c1_constant`` of cell k's box and modulus."""
    return c1_constant(*cell_inputs(k, spec), spec.fam)


@dataclass(frozen=True)
class SeriesSum:
    """Certified partial sum: |value - true sum| <= remainder."""

    value: float
    remainder: float
    n_terms: int


def _probe(term, k: int) -> float:
    """Term k, or nan where it cannot be evaluated (SeriesError)."""
    try:
        return float(term(np.array([k]))[0])
    except SeriesError:
        return math.nan


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


def _safe_eval(f, arg):
    """Evaluate a closure, mapping float overflow at far tail probes to inf."""
    try:
        return f(arg)
    except OverflowError:
        return math.inf


def _term_pieces(spec: GrowthSpec, k: int) -> tuple[float, float]:
    """cell_sup and weight at cell k; negative norms and nonpositive weights raise.

    Underflow of cell_sup to exact 0 and overflow of the weight to inf at a
    finite b_k are allowed: both send the term to 0, which is its true limit.
    A partition point b_k that overflows raises SeriesError: the term there is
    unknown, and reading it as 0 would drop the rest of the series.
    """
    e_k = _safe_eval(spec.cell_sup, k)
    if e_k < 0:
        raise ValueError(f"cell_sup must be nonnegative, got {e_k} at k = {k}")
    b_k = _safe_eval(spec.partition, k)
    if not math.isfinite(b_k):
        raise SeriesError(f"partition point b_k overflows at k = {k}")
    w_k = _safe_eval(spec.weight, b_k)
    if w_k <= 0:
        raise ValueError(f"weight must be positive at partition points; got {w_k} at k = {k}")
    return e_k, w_k


def _per_index(one):
    """Series term over an index array from ``one``, the term at a single index."""
    return lambda ks: np.array([one(int(k)) for k in ks], dtype=float)


def _series_c_term(spec: GrowthSpec):
    def one(k: int) -> float:
        e_k, w_k = _term_pieces(spec, k)
        return e_k / w_k

    return _per_index(one)


def _series_s_term(spec: GrowthSpec):
    gb = spec.gamma_beta

    def one(k: int) -> float:
        e_k, w_k = _term_pieces(spec, k)
        c1k = _safe_eval(lambda kk: cell_constant(kk, spec), k)
        return e_k ** (1.0 - 1.0 / gb) * c1k / w_k

    return _per_index(one)


def series_c_sum(spec: GrowthSpec, tol: float = 1e-9, k_max: int = 10 ** 6) -> SeriesSum:
    return sum_series(_series_c_term(spec), tol=tol, k_max=k_max)


def series_s_sum(spec: GrowthSpec, tol: float = 1e-9, k_max: int = 10 ** 6) -> SeriesSum:
    if spec.gamma_beta <= 1.0:
        raise ValueError(f"series S requires gamma*beta > 1, got {spec.gamma_beta}")
    return sum_series(_series_s_term(spec), tol=tol, k_max=k_max)


# Cells over which theta_sup reads inf_k gamma_k / eps_k.
_THETA_PROBE = 512


def theta_sup(spec: GrowthSpec) -> float:
    """inf_k gamma_k / eps_k, read from the first _THETA_PROBE cells.

    gamma_k = sigma_k(diam_d of cell k), with the box and modulus of
    ``cell_inputs``, so a cell of length <= 0 raises.  Probing ends early only
    where a partition point or a norm overflows (b_k = e^k does at k = 710).
    The probed minimum is the infimum only if the ratio has stopped falling,
    so ValueError is raised when the later half of the probed cells falls
    below the earlier half's minimum by more than rounding: a cap above the
    infimum would assert the growth bounds at theta the theorem does not cover.
    """
    ratios = []
    for k in range(_THETA_PROBE):
        b_next, e_k = _safe_eval(spec.partition, k + 1), _safe_eval(spec.cell_sup, k)
        if not (math.isfinite(b_next) and math.isfinite(e_k)):
            break
        if e_k < 0:
            raise ValueError(f"cell_sup must be nonnegative, got {e_k} at k = {k}")
        box, prof = cell_inputs(k, spec)
        g_k = prof.sigma(box.diameter)
        ratios.append(g_k / e_k if e_k > 0 else math.inf)
    half = len(ratios) // 2
    early = min(ratios[:half], default=math.inf)
    late = min(ratios[half:], default=math.inf)
    if not math.isfinite(min(early, late)):
        raise ValueError("could not evaluate theta_sup on any cell")
    if late < early * (1.0 - 1e-12):
        raise ValueError(
            f"gamma_k / eps_k still falls over the {len(ratios)} probed cells: the "
            f"later half's minimum {late!r} is below the earlier half's {early!r}"
        )
    return min(early, late)


def growth_tail_bound(
    u: float, theta: float, spec: GrowthSpec, c_value: float, s_value: float, theta_cap: float
) -> float:
    """Bound on P{sup |X(t1,t2)|/f(t1) > u}: the clamped tail ``rv_tail_bound``
    of a variable of norm C at level

        u*(1-theta) - 2*S*theta^(-1/(gamma*beta))

    for theta in (0, theta_cap) and u > 2S/((1-theta) theta^(1/(gamma*beta))),
    with C = c_value, S = s_value and theta_cap = min(1, theta_sup(spec)).
    """
    if not (0.0 < theta < min(1.0, theta_cap)):
        raise ValueError(f"theta must lie in (0, min(1, theta_cap = {theta_cap})), got {theta}")
    return _tail_at_theta(u, theta, s_value, c_value, spec.gamma_beta, spec.fam)


def auto_theta_bound(
    u: float, spec: GrowthSpec, c_value: float, s_value: float, theta_cap: float
) -> float:
    """Growth bound at the closed-form choice theta = u^(-gamma*beta/(gamma*beta+1)):
    the clamped tail of a variable of norm C at level

        u - u^(1/(gamma*beta+1)) (1+2S),

    asserted for u > (1+2S)^(gamma*beta/(gamma*beta+1)) and theta < theta_cap.
    Equals ``growth_tail_bound`` at the substituted theta wherever both apply.
    """
    gb = spec.gamma_beta
    threshold = (1.0 + 2.0 * s_value) ** (gb / (gb + 1.0))
    if u <= threshold:
        raise ValueError(f"u = {u} is below validity threshold {threshold}")
    theta = u ** (-gb / (gb + 1.0))
    if theta >= theta_cap:
        raise ValueError(f"theta = u^(-gb/(gb+1)) = {theta} is not below theta_cap = {theta_cap}")
    arg = u - u ** (1.0 / (gb + 1.0)) * (1.0 + 2.0 * s_value)
    if arg <= 0.0:
        return 1.0  # exponent argument not yet positive; only the trivial bound holds
    return rv_tail_bound(arg, c_value, spec.fam)


def optimize_theta_growth(
    u: float, spec: GrowthSpec, c_value: float, s_value: float, theta_cap: float
) -> tuple[float, float]:
    """Minimize the growth tail bound over theta for precomputed (C, S), in closed form.

    The bound decreases in arg(theta) = u*(1-theta) - 2*S*theta^(-1/(gamma*beta)),
    which ``supbound._optimal_theta`` maximizes with k = S and scale C below
    theta_cap = min(1, theta_sup(spec)).
    """
    return _optimal_theta(u, s_value, c_value, spec.gamma_beta, theta_cap, spec.fam)
