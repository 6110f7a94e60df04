"""Supremum tail bound over a bounded anisotropic box and its optimal theta.

The bound is the clamped tail ``orlicz.rv_tail_bound`` of a variable of norm
eps0 at level eps0 * z(theta), with

    z(theta) = (u*(1-theta) - (2/theta) * I(theta*eps0)) / eps0,

I(eps) = c1 eps^q the closed-form entropy integral, q = 1 - 1/(gamma*beta).
It is asserted only for z > 0, i.e. u above ``u_threshold``; it decreases in
z, so the optimal theta maximizes z.  ``_tail_at_theta`` evaluates the bound
and ``_optimal_theta`` gives that maximizer in closed form; the growth bounds
of ``suptail.growth`` share both.  The
threshold 2 c1 eps0^q theta^(q-1) / (1-theta) is log-convex in theta and
smallest at theta = (1-q)/(2-q), capped just below theta_cap.

Separability of the field on the box is a modeling assumption the caller must
supply; it is not checkable numerically.
"""

from __future__ import annotations

from dataclasses import dataclass

from .entropy import HolderProfile, c1_constant, entropy_integral_closed
from .metric import AnisotropicBox
from .orlicz import PhiFamily, rv_tail_bound


@dataclass(frozen=True)
class FieldBoundInputs:
    """Everything the bounded-domain bounds need.

    eps0 is the supremum of the field's Orlicz norm over the box; gamma0 (the
    modulus at the box diameter) caps the usable theta range via
    theta*eps0 < gamma0.
    """

    eps0: float
    box: AnisotropicBox
    prof: HolderProfile
    fam: PhiFamily

    def __post_init__(self) -> None:
        if self.eps0 <= 0:
            raise ValueError(f"eps0 must be positive, got {self.eps0}")

    @property
    def gamma0(self) -> float:
        return self.prof.sigma(self.box.diameter)

    @property
    def c1(self) -> float:
        return c1_constant(self.box, self.prof, self.fam)

    @property
    def q(self) -> float:
        """Exponent of the closed-form entropy integral c1 eps^q: 1 - 1/(gamma*beta)."""
        return 1.0 - 1.0 / (self.prof.exponent * self.fam.beta)

    @property
    def tail_terms(self) -> tuple[float, float, float]:
        """(k, scale, gamma*beta) of ``_tail_at_theta``: k = c1 eps0^q, scale eps0."""
        return self.c1 * self.eps0 ** self.q, self.eps0, self.prof.exponent * self.fam.beta

    @property
    def theta_cap(self) -> float:
        """Upper end of the valid theta range, min(1, gamma0/eps0)."""
        return min(1.0, self.gamma0 / self.eps0)

    def entropy_closed(self, eps: float) -> float:
        return entropy_integral_closed(eps, self.c1, self.prof, self.fam)


def _check_theta(theta: float, inputs: FieldBoundInputs) -> None:
    if not (0.0 < theta < 1.0):
        raise ValueError(f"theta must lie in (0, 1), got {theta}")
    te = theta * inputs.eps0
    if te >= inputs.gamma0:
        raise ValueError(
            f"theta*eps0 = {te} exceeds gamma0 = {inputs.gamma0}; bound not valid"
        )


def u_threshold(theta: float, inputs: FieldBoundInputs) -> float:
    """Smallest u (exclusive) for which the closed-form tail bound is asserted:

        2/(theta*(1-theta)) * I(theta*eps0),  I the closed-form entropy integral.
    """
    _check_theta(theta, inputs)
    itil = inputs.entropy_closed(theta * inputs.eps0)
    return 2.0 / (theta * (1.0 - theta)) * itil


def _tail_at_theta(
    u: float, theta: float, k: float, scale: float, gb: float, fam: PhiFamily
) -> float:
    """rv_tail_bound(arg, scale, fam) at arg = u*(1-theta) - 2 k theta^(-1/gb).

    Raises unless u exceeds the threshold 2 k theta^(-1/gb) / (1-theta), where
    arg turns positive.  The bounded-box bound has k = c1 eps0^q and scale
    eps0; the growth bound has k = S and scale C.
    """
    entropy = 2.0 * k * theta ** (-1.0 / gb)
    threshold = entropy / (1.0 - theta)
    if u <= threshold:
        raise ValueError(f"u = {u} is below validity threshold {threshold}")
    return rv_tail_bound(u * (1.0 - theta) - entropy, scale, fam)


def sup_tail_bound(u: float, theta: float, inputs: FieldBoundInputs) -> float:
    """Closed-form tail bound on P{sup |X| > u}; requires u > u_threshold(theta).

    Strictly decreasing in u on the valid range, clamped to [0, 1].
    """
    _check_theta(theta, inputs)
    return _tail_at_theta(u, theta, *inputs.tail_terms, inputs.fam)


def _optimal_theta(
    u: float, k: float, scale: float, gb: float, cap: float, fam: PhiFamily
) -> tuple[float, float]:
    """Maximize arg(theta) = u*(1-theta) - 2 k theta^(q-1), q = 1 - 1/gb, below cap.

    arg is concave, and d arg/d theta = -u + 2(1-q) k theta^(q-2) vanishes at

        theta* = (2(1-q) k / u)^(1/(2-q)).

    arg increases up to theta*, so theta* capped just below cap is the
    constrained maximizer.  Returns theta and the clamped tail
    rv_tail_bound(arg, scale, fam), which decreases in arg.  Raises if
    arg(theta) <= 0: then no theta gives a valid bound.
    """
    if u <= 0.0:
        raise ValueError(f"no valid theta: u = {u} is below every validity threshold")
    q = 1.0 - 1.0 / gb
    theta = min((2.0 * (1.0 - q) * k / u) ** (1.0 / (2.0 - q)), cap * (1.0 - 1e-12))
    arg = u * (1.0 - theta) - 2.0 * k * theta ** (q - 1.0)
    if arg <= 0.0:
        raise ValueError(f"no valid theta: u = {u} is below every validity threshold")
    return theta, rv_tail_bound(arg, scale, fam)


def optimize_theta(u: float, inputs: FieldBoundInputs) -> tuple[float, float]:
    """Minimize the closed-form tail bound over valid theta, in closed form.

    eps0 * z(theta) = u*(1-theta) - 2 c1 eps0^q theta^(q-1), so this is
    ``_optimal_theta`` on ``tail_terms`` (k = c1 eps0^q, scale eps0) below
    theta_cap.  Returns (theta_star, bound).  Raises if z(theta_star) <= 0, i.e. no theta
    satisfies u > u_threshold(theta) ("no valid theta").
    """
    return _optimal_theta(u, *inputs.tail_terms, inputs.theta_cap, inputs.fam)
