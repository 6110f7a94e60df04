"""Power Orlicz family |x|^alpha/alpha: its conjugate and the tail bound it gives."""

from __future__ import annotations

import math
from collections import namedtuple

from .metric import check_positive_finite


class PhiFamily(namedtuple("PhiFamily", "alpha")):
    """Named tuple of the convex pair phi(x) = |x|^alpha/alpha, phi*(x) = |x|^beta/beta.

    alpha is restricted to (1, 2]; the conjugate exponent beta = alpha/(alpha-1)
    satisfies 1/alpha + 1/beta = 1 and beta >= 2, with beta = 2 exactly in the
    Gaussian case alpha = 2.  The constants of the closed-form supremum bounds
    are derived under this range, so alpha = 1 and alpha > 2 are rejected.
    """

    __slots__ = ()

    def __new__(cls, alpha: float) -> PhiFamily:
        if not (1.0 < alpha <= 2.0):
            raise ValueError(f"alpha must lie in (1, 2], got {alpha}")
        return super().__new__(cls, alpha)

    @property
    def beta(self) -> float:
        return self.alpha / (self.alpha - 1.0)


def phi_conjugate(x: float, fam: PhiFamily) -> float:
    """Young-Fenchel conjugate phi*(x) = sup_y (xy - phi(y)) = |x|^beta / beta;
    inf where |x|^beta exceeds the float range."""
    try:
        return abs(x) ** fam.beta / fam.beta
    except OverflowError:
        return math.inf


def rv_tail_bound(u: float, tau: float, fam: PhiFamily) -> float:
    """Two-sided tail bound min(1, 2*exp(-phi*(u/tau))) for a variable of norm tau.

    Nonincreasing in u, nondecreasing in tau.  Clamped to [0, 1]: the raw
    expression exceeds 1 for small u.
    """
    check_positive_finite("tau", tau)
    if not u >= 0:  # also rejects nan
        raise ValueError(f"u must be nonnegative, got {u}")
    return min(1.0, 2.0 * math.exp(-phi_conjugate(u / tau, fam)))
