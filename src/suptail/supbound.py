"""Supremum bounds over a bounded anisotropic box: MGF bound, tail bound, optimal theta.

All bounds share the structure 2*exp(-phi*(z(theta))) with

    z(theta) = (u*(1-theta) - (2/theta) * I(theta*eps0)) / eps0,

I the entropy integral (closed form or numeric).  The bound is asserted only
for z > 0, i.e. u above ``u_threshold``; it is decreasing in z, so the optimal
theta maximizes z.  With the closed-form integral I(eps) = c1 eps^q,
q = 1 - 1/(gamma*beta), z is a concave power function of theta, and
dz/dtheta = 0 gives the explicit maximizer

    theta* = (2(1-q) c1 eps0^q / u)^(1/(2-q)),

used by ``optimize_theta`` after capping it just below theta_cap.  The
threshold 2 c1 eps0^q theta^(q-1) / (1-theta) is log-convex in theta and
smallest at theta = (1-q)/(2-q), again capped.

Separability of the field on the box is a modeling assumption the caller must
supply; it is not checkable numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .entropy import HolderProfile, c1_constant, entropy_integral_closed, entropy_integral_numeric
from .metric import AnisotropicBox
from .orlicz import PhiFamily, phi_conjugate, phi_value


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
    def theta_cap(self) -> float:
        """Upper end of the valid theta range, min(1, gamma0/eps0)."""
        return min(1.0, self.gamma0 / self.eps0)

    def entropy_closed(self, eps: float) -> float:
        return entropy_integral_closed(eps, self.c1, self.prof, self.fam)

    def entropy_numeric(self, eps: float, tol: float = 1e-8) -> float:
        return entropy_integral_numeric(eps, self.box, self.prof, self.fam, tol=tol)


def _check_theta(theta: float, inputs: FieldBoundInputs, strict: bool) -> None:
    if not (0.0 < theta < 1.0):
        raise ValueError(f"theta must lie in (0, 1), got {theta}")
    te = theta * inputs.eps0
    # Strict < for the closed form, <= for the numeric route; the difference
    # is a measure-zero boundary.
    if (strict and te >= inputs.gamma0) or (not strict and te > inputs.gamma0):
        raise ValueError(
            f"theta*eps0 = {te} exceeds gamma0 = {inputs.gamma0}; bound not valid"
        )


def u_threshold(theta: float, inputs: FieldBoundInputs) -> float:
    """Smallest u (exclusive) for which the closed-form tail bound is asserted:

        2/(theta*(1-theta)) * I(theta*eps0),  I the closed-form entropy integral.
    """
    _check_theta(theta, inputs, strict=True)
    itil = inputs.entropy_closed(theta * inputs.eps0)
    return 2.0 / (theta * (1.0 - theta)) * itil


def _tail_from_entropy(u: float, theta: float, inputs: FieldBoundInputs, itil: float) -> float:
    threshold = 2.0 / (theta * (1.0 - theta)) * itil
    if u <= threshold:
        raise ValueError(f"u = {u} is below validity threshold {threshold}")
    z = (u * (1.0 - theta) - 2.0 / theta * itil) / inputs.eps0
    return min(1.0, 2.0 * math.exp(-phi_conjugate(z, inputs.fam)))


def sup_tail_bound(u: float, theta: float, inputs: FieldBoundInputs) -> float:
    """Closed-form tail bound on P{sup |X| > u}; requires u > u_threshold(theta).

    Strictly decreasing in u on the valid range, clamped to [0, 1].
    """
    _check_theta(theta, inputs, strict=True)
    itil = inputs.entropy_closed(theta * inputs.eps0)
    return _tail_from_entropy(u, theta, inputs, itil)


def sup_tail_bound_numeric(
    u: float, theta: float, inputs: FieldBoundInputs, tol: float = 1e-8
) -> float:
    """Tail bound using the numeric entropy integral.

    The numeric integral never exceeds the closed form, so at identical
    (u, theta) this bound never exceeds ``sup_tail_bound``.
    """
    _check_theta(theta, inputs, strict=False)
    itil = inputs.entropy_numeric(theta * inputs.eps0, tol=tol)
    return _tail_from_entropy(u, theta, inputs, itil)


def sup_mgf_bound(lam: float, theta: float, inputs: FieldBoundInputs) -> float:
    """Bound on E exp(lam * sup |X|):

        2*exp( phi(lam*eps0/(1-theta)) + 2*lam/(theta*(1-theta)) * I(theta*eps0) ).
    """
    if lam <= 0:
        raise ValueError(f"lam must be positive, got {lam}")
    _check_theta(theta, inputs, strict=True)
    itil = inputs.entropy_closed(theta * inputs.eps0)
    exponent = phi_value(lam * inputs.eps0 / (1.0 - theta), inputs.fam)
    exponent += 2.0 * lam / (theta * (1.0 - theta)) * itil
    return 2.0 * math.exp(exponent)


def optimize_theta(u: float, inputs: FieldBoundInputs) -> tuple[float, float]:
    """Minimize the closed-form tail bound over valid theta, in closed form.

    With I(eps) = c1 eps^q, q = 1 - 1/(gamma*beta) in (0, 1),

        z(theta) = (u*(1-theta) - 2 c1 eps0^q theta^(q-1)) / eps0

    is concave in theta, and dz/dtheta = (-u + 2(1-q) c1 eps0^q theta^(q-2)) / eps0
    vanishes at

        theta* = (2(1-q) c1 eps0^q / u)^(1/(2-q)).

    The bound decreases in z, so the optimum over the valid range is theta*
    capped just below theta_cap (z increases up to theta*, so the cap is the
    constrained maximizer when theta* lies beyond it).

    Returns (theta_star, bound).  Raises if z(theta_star) <= 0, i.e. no theta
    satisfies u > u_threshold(theta) ("no valid theta").
    """
    if u <= 0.0:
        raise ValueError(f"no valid theta: u = {u} is below every validity threshold")
    c1 = inputs.c1
    eps0 = inputs.eps0
    q = inputs.q
    theta = min(
        (2.0 * (1.0 - q) * c1 * eps0 ** q / u) ** (1.0 / (2.0 - q)),
        inputs.theta_cap * (1.0 - 1e-12),
    )
    itil = entropy_integral_closed(theta * eps0, c1, inputs.prof, inputs.fam)
    z = (u * (1.0 - theta) - 2.0 / theta * itil) / eps0
    if z <= 0.0:
        raise ValueError(f"no valid theta: u = {u} is below every validity threshold")
    return theta, min(1.0, 2.0 * math.exp(-phi_conjugate(z, inputs.fam)))
