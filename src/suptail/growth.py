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

``_polylog`` sums Li_p over one array of a closed-form length, its tail capped
by zeta(p), and imports NumPy at its first call, not with this module, so
``bound-growth`` loads it when it sums Li_p.  Nothing here uses SciPy.
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


def _polylog(p: float, ln_x: float, ceiling: float) -> SeriesSum:
    """Li_p(x) = sum_{k>=1} x^k / k^p for 0 < x < 1, given ln x < 0 and ceiling >= zeta(p).

    The terms exp(a_k), a_k = k ln x - p ln k, are summed for k <= n, the least
    of ln(eps x (1-x)) / ln x, (eps x (1-x))^(-1/(p+1)), ((p-1) eps x / p)^(-1/p)
    and 2^20, taken in log space.  The tail is int_n^m t^-p dt + x^m m^-p / (1-x),
    m = max(n, 1/(1-x)), or ceiling minus the sum where smaller: past the first
    count it is below eps x, past the second or third below eps n x.  The
    remainder adds the rounding to it and is at least that: eps n times the
    sum, for the additions and underflowed terms, plus eps t_k (3 |a_k| + 1)
    for each term, whose a_k is off by 3 ulps.
    """
    import numpy as np

    one_minus_x = -math.expm1(ln_x)
    ln_target = math.log(_EPS) + ln_x + math.log(one_minus_x)  # ln(eps x (1-x))
    ln_power = math.log(_EPS) + ln_x + math.log((p - 1.0) / p)  # ln((p-1) eps x / p)
    ln_count = min(-ln_target / (p + 1.0), -ln_power / p, 14.0)  # e^14 > 2^20
    n = math.ceil(min(ln_target / ln_x, math.exp(ln_count), 2.0 ** 20))
    ks = np.arange(1, n + 1, dtype=float)
    args = ks * ln_x - p * np.log(ks)  # a_k <= 0
    terms = np.exp(args)
    total = float(np.sum(terms))
    rounding = _EPS * (n * total + float(terms @ (1.0 - 3.0 * args)))
    m = max(n, 1.0 / one_minus_x)  # inf where 1 - x is below 1/DBL_MAX
    tail = (n ** (1.0 - p) * -math.expm1((1.0 - p) * math.log(m / n)) / (p - 1.0)
            + math.exp(m * ln_x - p * math.log(m)) / one_minus_x)
    return SeriesSum(total, min(tail + rounding, max(ceiling - total, rounding)), n)


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
    li = _polylog(p, -hurst / 4.0, zeta_p.value + zeta_p.remainder)
    value = time_axis * (1.0 + zeta_p.value) + space_axis * (1.0 + li.value)
    error = time_axis * zeta_p.remainder + space_axis * li.remainder
    return SeriesSum(value, _CLOSED_FORM_RTOL * value + error, li.n_terms)


def theta_sup(hurst: float) -> float:
    """inf_k gamma_k / eps_k over the cells of V, in closed form.

    With the metric exponents (H/2, H), gamma_k = c_V ((e^k (e-1))^(H/2) +
    (2A)^H) and eps_k = A(H) e^((k+1)H/2), so

        gamma_k / eps_k = (c_V / A(H)) (((e-1)/e)^(H/2) + (2A)^H e^(-(k+1)H/2))

    decreases to its k -> inf limit (c_V / A(H)) ((e-1)/e)^(H/2), which no
    cell attains.  c_V^2 / A(H)^2 = 3 (c_1H + c_2H) / c_1H = 3 * 2^(1-H), so the
    limit depends on H alone, and it is above 1.8 for H in (0, 1/2].
    """
    return math.sqrt(3.0 * 2.0 ** (1.0 - hurst)) * ((math.e - 1.0) / math.e) ** (hurst / 2.0)


def optimize_theta_growth(u: float, bound: TailBound) -> tuple[float, float]:
    """Minimize the growth tail bound over theta, in closed form, as
    ``supbound.optimize_theta`` does for the box bound: (theta*, nan) where no
    theta asserts a bound.  A function of its own so that a trace times and
    counts the two bounds' optimizations apart."""
    theta = _theta_star(u, bound)
    return theta, sup_tail_bound(u, theta, bound)
