"""Entropy integrals for a Holder modulus over an anisotropic box.

Two routes are provided: the closed-form power-law bound c1 * eps^(1 - 1/(gamma*beta))
and direct quadrature of the kernel Psi(ln Nbar(sigma^(-1)(u))).  The closed form
drops a factor alpha^(-1/alpha) <= 1 from the kernel and bounds the covering
logarithm by a power, so the numeric integral never exceeds it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .metric import AnisotropicBox, covering_upper_bound
from .orlicz import PhiFamily, psi_kernel


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance."""


# Absolute tolerance of the numeric entropy integral.
_QUAD_TOL = 1e-8


@dataclass(frozen=True)
class HolderProfile:
    """Power modulus sigma(h) = scale * h^exponent, exponent in (0, 1], bounding
    the field's Orlicz-norm increments."""

    scale: float
    exponent: float

    def __post_init__(self) -> None:
        if not self.scale > 0:
            raise ValueError(f"scale must be positive, got {self.scale}")
        if not (0.0 < self.exponent <= 1.0):
            raise ValueError(f"exponent must lie in (0, 1], got {self.exponent}")

    @classmethod
    def power(cls, scale: float, exponent: float) -> "HolderProfile":
        return cls(scale, exponent)

    def sigma(self, h: float) -> float:
        if h < 0:
            raise ValueError(f"sigma requires h >= 0, got {h}")
        return self.scale * h ** self.exponent

    def sigma_inv(self, u: float) -> float:
        if u < 0:
            raise ValueError(f"sigma_inv requires u >= 0, got {u}")
        return (u / self.scale) ** (1.0 / self.exponent)


def _gamma_beta(prof: HolderProfile, fam: PhiFamily) -> float:
    gb = prof.exponent * fam.beta
    if gb <= 1.0:
        raise ValueError(
            f"entropy integral diverges / closed form invalid: gamma*beta = {gb} <= 1"
        )
    return gb


def c1_axis_terms(
    box: AnisotropicBox, prof: HolderProfile, fam: PhiFamily
) -> tuple[float, float]:
    """Time- and space-axis terms c1_1, c1_2 of the closed-form entropy constant
    c1 = c1_1 + c1_2, with

        c1_i = 2^(1/beta) c^(1/(gamma*beta)) / (1 - 1/(gamma*beta))
               * (1/h_i) (T_i/2)^(h_i/beta)

    and c1_i = 0 for a degenerate axis.  Requires gamma*beta > 1; otherwise the entropy
    integral diverges at 0 and the closed form is invalid.
    """
    gb = _gamma_beta(prof, fam)
    if box.diameter == 0.0:
        raise ValueError("box is a single point; entropy constant undefined")
    front = 2.0 ** (1.0 / fam.beta) * prof.scale ** (1.0 / gb) / (1.0 - 1.0 / gb)
    time_axis, space_axis = (
        front * (t_i / 2.0) ** (h_i / fam.beta) / h_i if t_i > 0 else 0.0
        for t_i, h_i in ((box.t1, box.h1), (box.t2, box.h2))
    )
    return time_axis, space_axis


def c1_constant(box: AnisotropicBox, prof: HolderProfile, fam: PhiFamily) -> float:
    """Closed-form entropy constant c1, the sum of ``c1_axis_terms``."""
    time_axis, space_axis = c1_axis_terms(box, prof, fam)
    return time_axis + space_axis


def entropy_integral_closed(
    eps: float, c1: float, prof: HolderProfile, fam: PhiFamily
) -> float:
    """Closed-form entropy integral bound c1 * eps^(1 - 1/(gamma*beta))."""
    gb = _gamma_beta(prof, fam)
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    if c1 <= 0:
        raise ValueError(f"c1 must be positive, got {c1}")
    return c1 * eps ** (1.0 - 1.0 / gb)


def entropy_integral_numeric(
    eps: float, box: AnisotropicBox, prof: HolderProfile, fam: PhiFamily
) -> float:
    """Quadrature of the entropy integrand Psi(ln Nbar(sigma^(-1)(u))) on (0, eps].

    Nbar is the analytic covering bound, replaced by 1 once sigma^(-1)(u)
    reaches the box diameter (a single ball suffices there), so the integrand
    vanishes beyond gamma0 = sigma(diameter) and the integral is flat past it.
    The integrable log-power singularity at u -> 0 is left to adaptive
    subdivision.
    """
    # scipy.integrate costs ~0.25 s to import and only this numeric route needs it.
    from scipy.integrate import quad

    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    diam = box.diameter
    if diam == 0.0:
        return 0.0
    gamma0 = prof.sigma(diam)
    upper = min(eps, gamma0)
    if upper <= 0.0:
        return 0.0

    def integrand(u: float) -> float:
        eps_d = prof.sigma_inv(u)
        if eps_d >= diam:
            return 0.0
        nbar = covering_upper_bound(box, eps_d)
        return psi_kernel(math.log(nbar), fam)

    value, err = quad(integrand, 0.0, upper, epsabs=_QUAD_TOL, epsrel=1e-10, limit=300)
    if err > 10.0 * _QUAD_TOL:
        raise QuadratureError(
            f"entropy quadrature did not converge: estimate {value!r}, "
            f"error {err!r}, requested tol {_QUAD_TOL!r}, interval (0, {upper!r}]"
        )
    return value
