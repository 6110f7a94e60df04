"""Supremum tail bounds over a bounded box and the strip, and their optimal theta.

The bounded-box bound and the rate-of-growth bound are one inequality,
``TailBound``: for 0 < theta < cap,

    P{sup |X| > u} <= rv_tail_bound(u*(1-theta) - 2 k theta^(-1/(gamma*beta)), scale, fam),

asserted where that level is positive, i.e. u above ``u_threshold``; below
it ``sup_tail_bound`` returns nan, the value that marks an unasserted bound.
The box bound (``field_bound``) has k = I(eps0) = c1 eps0^q, the closed-form
entropy integral with q = 1 - 1/(gamma*beta), and scale eps0; the growth
bound of ``suptail.heat.she_growth_envelope`` has k = S~ and scale C~.

The bound decreases in the level, which is concave in theta, so the optimal
theta is its maximizer (2k / (gamma*beta u))^(gamma*beta/(gamma*beta+1)).  The
threshold 2 k theta^(-1/(gamma*beta)) / (1-theta) is log-convex in theta and
smallest at theta = 1/(gamma*beta+1) (``min_threshold``).  The inequality
holds at every theta in (0, cap), and theta* only picks the best one, so one
theta rule keeps every theta in (0, cap) and gives each u a bound or nan,
never an error.  Where cap binds, min_threshold and theta* take
``_below_cap``: cap (1 - 1e-12), whose margin keeps theta eps0 < gamma0 in
floating point, or the next double below a subnormal cap.  theta* divides 2k
by gamma*beta and then by u, so no product overflows, and reads a ratio that
underflows to 0 as 5e-324.  ``optimize_theta`` evaluates both bounds at
theta*, and the entropy term is 2k / theta^(1/(gamma*beta)) at every theta.

Separability of the field on the box is a modeling assumption the caller must
supply; it is not checkable numerically.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .entropy import HolderProfile, c1_constant, entropy_integral_closed
from .metric import AnisotropicBox, check_positive_finite
from .orlicz import PhiFamily, rv_tail_bound


class TailBound(namedtuple("TailBound", "k scale gamma_beta cap fam")):
    """Named tuple of the tail bound above: entropy term k, norm scale, modulus exponent times
    beta (gamma_beta > 1), the exclusive upper end cap of theta, and the family."""

    __slots__ = ()


def field_bound(
    eps0: float, box: AnisotropicBox, prof: HolderProfile, fam: PhiFamily, inputs: str = ""
) -> TailBound:
    """The bound for a field of Orlicz norm at most eps0 and modulus prof on box.

    k = c1 eps0^q with c1 computed once; gamma0 = prof.sigma(box diameter)
    keeps theta*eps0 < gamma0, so the cap is min(1, gamma0/eps0).  The caps
    0 and 5e-324 leave no theta in (0, cap) and raise ValueError, as does a c1 past
    the float range, naming ``inputs``, what c1 is built from (default: box and prof).
    """
    check_positive_finite("eps0", eps0)
    c1 = c1_constant(box, prof, fam)
    inputs = inputs or f"box {tuple(box)!r} and profile {tuple(prof)!r}"
    check_positive_finite(f"entropy constant c1 of {inputs}", c1)
    k = entropy_integral_closed(eps0, c1, prof, fam)
    diameter = box.diameter
    cap = min(1.0, prof.sigma(diameter) / eps0)
    check_positive_finite(f"cap min(1, gamma0/eps0) for eps0 = {eps0!r}, profile scale {prof.scale!r} "
                          f"and box diameter {diameter!r}", _below_cap(cap))
    return TailBound(k=k, scale=eps0, gamma_beta=prof.exponent * fam.beta, cap=cap, fam=fam)


def _entropy(theta: float, bound: TailBound) -> float:
    """2 k / theta^(1/(gamma*beta)), whose power lies in [theta, 1) and so neither
    overflows nor rounds to 0; raises unless 0 < theta < cap."""
    if not 0.0 < theta < bound.cap:
        raise ValueError(f"theta = {theta} is not in (0, theta_cap) = (0, {bound.cap})")
    return 2.0 * bound.k / theta ** (1.0 / bound.gamma_beta)


def u_threshold(theta: float, bound: TailBound) -> float:
    """Smallest u (exclusive) for which the bound at theta is asserted:

        2 k theta^(-1/(gamma*beta)) / (1-theta).
    """
    return _entropy(theta, bound) / (1.0 - theta)


def _below_cap(cap: float) -> float:
    """The theta just below cap, in (0, cap) where cap > 5e-324: min_threshold and
    theta* share it, so no u below min_threshold gets a bound."""
    return min(cap * (1.0 - 1e-12), math.nextafter(cap, 0.0))


def min_threshold(bound: TailBound) -> float:
    """Smallest ``u_threshold`` over the valid theta, at theta = 1/(gamma*beta+1)
    capped just below cap."""
    theta = min(1.0 / (bound.gamma_beta + 1.0), _below_cap(bound.cap))
    return u_threshold(theta, bound)


def sup_tail_bound(u: float, theta: float, bound: TailBound) -> float:
    """Tail bound on P{sup |X| > u} at theta; raises unless 0 < theta < cap.

    nan where the level is not positive, i.e. u <= u_threshold(theta), where
    no bound is asserted.  Strictly decreasing in u on the valid range,
    clamped to [0, 1].
    """
    level = u * (1.0 - theta) - _entropy(theta, bound)
    return rv_tail_bound(level, bound.scale, bound.fam) if level > 0.0 else math.nan


def optimize_theta(u: float, bound: TailBound) -> tuple[float, float]:
    """Minimize the tail bound over valid theta, in closed form: (theta*, bound).

    theta* maximizes the level u*(1-theta) - 2 k theta^(-1/gb) over (0, cap):
    its derivative -u + (2k/gb) theta^(-1/gb - 1) vanishes at
    (2k / (gb u))^(gb/(gb+1)), up to which the level increases, so that root
    capped just below cap is the constrained maximizer; for u <= 0, where the
    level is negative at every theta, the cap is taken.  The bound is nan if
    the level at theta* is not positive: then no theta has u > u_threshold(theta).
    """
    gb = bound.gamma_beta
    ratio = 2.0 * bound.k / gb / u if u > 0.0 else math.inf
    theta = min((ratio or math.ulp(0.0)) ** (gb / (gb + 1.0)), _below_cap(bound.cap))
    return theta, sup_tail_bound(u, theta, bound)
