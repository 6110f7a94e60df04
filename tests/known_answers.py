"""Known answers: exact Gaussian tails, for the generic bound and the sampled supremum.

``ln_gauss_tail_lower(u, var)`` is a lower bound on ln P(|Z| > u) for
Z ~ N(0, var).  With x = u / sqrt(2 var), P(|Z| > u) = erfc(x) =
(2/sqrt(pi)) int_x^inf e^(-t^2) dt, and Abramowitz & Stegun 7.1.13 gives, for
x >= 0,

    e^(x^2) int_x^inf e^(-t^2) dt > 1 / (x + sqrt(x^2 + 2)),

so ln P(|Z| > u) > ln(2/sqrt(pi)) - x^2 - ln(x + sqrt(x^2 + 2)).  The log form
does not underflow where the tail itself does.

``equicorrelated_max_tail(u, m, rho, nodes)`` is P(max_i |X_i| > u) for m
standard Gaussians of covariance rho 11^T + (1 - rho) I, 0 <= rho < 1.  With
X_i = sqrt(rho) Z + sqrt(1 - rho) Y_i and Z, Y_i independent N(0, 1), the X_i
are independent given Z, so

    P(max_i |X_i| <= u) = int phi(z) [Phi((u - sqrt(rho) z) / sqrt(1 - rho))
                                      - Phi((-u - sqrt(rho) z) / sqrt(1 - rho))]^m dz,

which at rho = 0 is erf(u / sqrt 2)^m.  The integral is the trapezoidal rule
on [-10, 10] with ``nodes`` intervals: the integrand is smooth and below
phi(10) < 1e-21 outside, so the rule converges geometrically, and the caller
bounds its error by comparing two node counts.  Only ``math`` is used.
"""

import math


def ln_gauss_tail_lower(u: float, var: float) -> float:
    """Lower bound on ln P(|Z| > u), Z ~ N(0, var), for u >= 0 (A&S 7.1.13)."""
    x = u / math.sqrt(2.0 * var)
    return math.log(2.0 / math.sqrt(math.pi)) - x * x - math.log(x + math.sqrt(x * x + 2.0))


def equicorrelated_max_tail(u: float, m: int, rho: float, nodes: int = 400) -> float:
    """P(max_i |X_i| > u) for m standard Gaussians of pairwise correlation rho in [0, 1)."""
    if rho == 0.0:
        return 1.0 - math.erf(u / math.sqrt(2.0)) ** m
    a, b = math.sqrt(rho), math.sqrt(2.0 * (1.0 - rho))
    step = 20.0 / nodes
    inside = 0.0
    for i in range(nodes + 1):
        z = -10.0 + i * step
        # Phi(s) - Phi(r) = (erf(s / sqrt 2) - erf(r / sqrt 2)) / 2
        cell = 0.5 * (math.erf((u - a * z) / b) - math.erf((-u - a * z) / b))
        weight = 0.5 if i in (0, nodes) else 1.0
        inside += weight * math.exp(-0.5 * z * z) * cell ** m
    return 1.0 - inside * step / math.sqrt(2.0 * math.pi)
