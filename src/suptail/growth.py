"""Rate-of-growth bounds for the heat field V over the strip [1, inf) x [-A, A].

The weighted supremum sup |V(t,x)| / f(t), f(t) = (t^(H/2) (log t)^p) v 1, is
controlled through two series over the cells [e^k, e^(k+1)] x [-A, A]:

    C~ = sum_k eps_k / f_k,
    S~ = sum_k eps_k^(1 - 1/(gamma*beta)) * c1(k) / f_k,

with eps_k = A(H) e^((k+1)H/2) the norm bound of cell k and c1(k) its entropy
constant ``entropy.c1_constant``, the same one the bounded-box bound uses.
The factors e^(kH/2) of eps_k and f_k = e^(kH/2) k^p (f_0 = 1) cancel, so
both series are closed forms in zeta(p) and Li_p(e^(-H/4)):
``series_c_sum`` and ``series_s_sum`` return them with remainders that bound
tail and rounding error, and ``theta_sup`` returns inf_k gamma_k / eps_k.
The growth bound is ``supbound.TailBound`` with cap min(1, ``theta_sup``),
and k = S~ and scale C~ each taken at its value plus its remainder: the
bound is nondecreasing in both, so these upper ends certify it with no
tolerance on the remainders.  The caller builds it once, and
``optimize_theta_growth`` evaluates it at the closed-form theta*, as the box
bound is, with nan where it is not asserted.

NumPy is imported by ``_polylog`` at its first call, not with this module, so
``bound-growth`` loads it when it sums Li_p, and nothing else here loads
it.  Nothing here uses SciPy.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple

from .supbound import TailBound, _theta_star, sup_tail_bound


class SeriesSum(namedtuple("SeriesSum", "value remainder n_terms")):
    """Named tuple: certified partial sum, |value - true sum| <= remainder, of n_terms terms."""

    __slots__ = ()


_EPS = sys.float_info.epsilon
_POLYLOG_MAX_TERMS = 2 ** 24
# Relative rounding bound on the products and sums that combine zeta(p) and
# Li_p with the model constants; the series' own errors are their remainders.
_CLOSED_FORM_RTOL = 16.0 * _EPS

# Euler-Maclaurin summation of zeta(p) from k = _ZETA_N, with the Bernoulli
# numbers B_2 .. B_22 as (numerator, denominator); B_22 gives the first
# omitted term, which bounds the truncation error.
_ZETA_N = 12
_BERNOULLI = (
    (1, 6), (-1, 30), (1, 42), (-1, 30), (5, 66), (-691, 2730), (7, 6),
    (-3617, 510), (43867, 798), (-174611, 330), (854513, 138),
)
_BERNOULLI_OVER_FACTORIAL = tuple(
    num / (den * math.factorial(2 * j)) for j, (num, den) in enumerate(_BERNOULLI, start=1)
)


def _zeta(p: float) -> SeriesSum:
    """Riemann zeta(p) for real p > 1 by Euler-Maclaurin summation:

        zeta(p) = sum_{k<N} k^-p + N^(1-p)/(p-1) + N^-p/2
                  + sum_{j=1}^{10} B_2j/(2j)! (p)_(2j-1) N^(-p-2j+1) + R

    with N = 12 and (p)_m the rising factorial.  All derivatives of k^-p
    have constant sign, so R lies between 0 and the first omitted (j = 11)
    term.  The remainder adds to |R| a rounding bound of eps times the value
    per term, as _polylog does for its sum.
    """
    n = _ZETA_N
    terms = [k ** -p for k in range(1, n)]
    terms += [n ** (1.0 - p) / (p - 1.0), 0.5 * n ** -p]
    scale = p * n ** (-p - 1.0)  # (p)_(2j-1) N^(-p-2j+1), kept as one factor
    for j, ratio in enumerate(_BERNOULLI_OVER_FACTORIAL, start=1):
        terms.append(ratio * scale)
        scale = scale * (p + 2 * j - 1) / n * (p + 2 * j) / n
    omitted = abs(terms.pop())
    value = math.fsum(terms)
    return SeriesSum(value, omitted + len(terms) * _EPS * value, len(terms))


def _polylog(p: float, ln_x: float) -> SeriesSum:
    """Li_p(x) = sum_{k>=1} x^k / k^p for 0 < x < 1, given ln x < 0.

    Terms exp(a_k), a_k = k ln x - p ln k, are summed in doubling chunks until
    the geometric tail bound x^(n+1) / ((n+1)^p (1-x)) falls below the
    rounding of the sum, or for at most 2^24 terms.  The remainder adds to that
    tail a rounding bound: a_k is off by at most 3 ulps of |a_k|, largest at
    the last term that did not underflow to 0, and summing n terms loses at
    most n ulps of the sum, which also covers the underflowed terms (each
    below 5e-324, against a sum of at least x).
    """
    import numpy as np

    total, n, chunk, a_max = 0.0, 0, 1024, 0.0
    while True:
        ks = np.arange(n + 1, n + chunk + 1, dtype=float)
        args = ks * ln_x - p * np.log(ks)
        terms = np.exp(args)
        total += float(np.sum(terms))
        n += chunk
        live = np.count_nonzero(terms)  # the terms decrease, so the nonzero ones lead
        if live:
            a_max = -float(args[live - 1])
        rounding = (n + 3.0 * a_max + 2.0) * _EPS * total
        tail = math.exp((n + 1) * ln_x - p * math.log(n + 1)) / -math.expm1(ln_x)
        if tail <= rounding or n >= _POLYLOG_MAX_TERMS:
            return SeriesSum(total, tail + rounding, n)
        chunk = min(2 * chunk, 2 ** 20, _POLYLOG_MAX_TERMS - n)


def series_c_sum(eps0: float, p: float) -> SeriesSum:
    """C~ = eps_0 (1 + zeta(p)), since eps_k / f_k = eps_0 k^-p for k >= 1.

    No term is summed (n_terms 0); the remainder is eps_0 times zeta's plus
    the rounding of the product.
    """
    zeta_p = _zeta(p)
    value = eps0 * (1.0 + zeta_p.value)
    return SeriesSum(value, _CLOSED_FORM_RTOL * value + eps0 * zeta_p.remainder, 0)


def series_s_sum(time_axis: float, space_axis: float, p: float, hurst: float) -> SeriesSum:
    """S~ = T (1 + zeta(p)) + X (1 + Li_p(e^(-H/4))).

    T + X = sqrt(eps_0) c1(0), split by axis.  Cell k >= 1 adds
    (T + X e^(-kH/4)) k^-p, since its time axis and sqrt(eps_k) each grow as
    e^(kH/4) and its space axis does not.  n_terms counts the Li_p terms summed.
    """
    zeta_p = _zeta(p)
    li = _polylog(p, -hurst / 4.0)
    value = time_axis * (1.0 + zeta_p.value) + space_axis * (1.0 + li.value)
    error = time_axis * zeta_p.remainder + space_axis * li.remainder
    return SeriesSum(value, _CLOSED_FORM_RTOL * value + error, li.n_terms)


def theta_sup(c_v: float, a_h: float, hurst: float) -> float:
    """inf_k gamma_k / eps_k over the cells of V, in closed form.

    With the metric exponents (H/2, H), gamma_k = c_V ((e^k (e-1))^(H/2) +
    (2A)^H) and eps_k = A(H) e^((k+1)H/2), so

        gamma_k / eps_k = (c_V / A(H)) (((e-1)/e)^(H/2) + (2A)^H e^(-(k+1)H/2))

    decreases to its k -> inf limit (c_V / A(H)) ((e-1)/e)^(H/2), which no
    cell attains.
    """
    return c_v / a_h * ((math.e - 1.0) / math.e) ** (hurst / 2.0)


def optimize_theta_growth(u: float, bound: TailBound) -> tuple[float, float]:
    """Minimize the growth tail bound over theta, in closed form, as
    ``supbound.optimize_theta`` does for the box bound: (theta*, nan) where no
    theta asserts a bound.  A function of its own so that a trace times and
    counts the two bounds' optimizations apart."""
    theta = _theta_star(u, bound)
    return theta, sup_tail_bound(u, theta, bound)
