"""Known answers for the generic supremum bound: exact Gaussian tails, in log space.

``ln_gauss_tail_lower(u, var)`` is a lower bound on ln P(|Z| > u) for
Z ~ N(0, var).  With x = u / sqrt(2 var), P(|Z| > u) = erfc(x) =
(2/sqrt(pi)) int_x^inf e^(-t^2) dt, and Abramowitz & Stegun 7.1.13 gives, for
x >= 0,

    e^(x^2) int_x^inf e^(-t^2) dt > 1 / (x + sqrt(x^2 + 2)),

so ln P(|Z| > u) > ln(2/sqrt(pi)) - x^2 - ln(x + sqrt(x^2 + 2)).  The log form
does not underflow where the tail itself does.  Only ``math`` is used.
"""

import math


def ln_gauss_tail_lower(u: float, var: float) -> float:
    """Lower bound on ln P(|Z| > u), Z ~ N(0, var), for u >= 0 (A&S 7.1.13)."""
    x = u / math.sqrt(2.0 * var)
    return math.log(2.0 / math.sqrt(math.pi)) - x * x - math.log(x + math.sqrt(x * x + 2.0))
