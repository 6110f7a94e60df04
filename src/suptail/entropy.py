"""Entropy integrals for a Holder modulus over an anisotropic box.

The entropy integral of the kernel Psi(ln Nbar(sigma^(-1)(u))) on (0, eps],
with Psi(v) = v / phi^(-1)(v) and Nbar ``metric.covering_upper_bound``, is
bounded in closed form by the power law c1 * eps^(1 - 1/(gamma*beta)).  The
bound drops a factor alpha^(-1/alpha) <= 1 from the kernel and bounds the
covering logarithm by a power, so the integral never exceeds it.
"""

from __future__ import annotations

from collections import namedtuple

from .metric import AnisotropicBox, check_positive_finite
from .orlicz import PhiFamily


class HolderProfile(namedtuple("HolderProfile", "scale exponent")):
    """Named tuple: power modulus sigma(h) = scale * h^exponent, scale finite and
    positive and exponent in (0, 1], bounding the field's Orlicz-norm increments."""

    __slots__ = ()

    def __new__(cls, scale: float, exponent: float) -> HolderProfile:
        check_positive_finite("scale", scale)
        if not (0.0 < exponent <= 1.0):
            raise ValueError(f"exponent must lie in (0, 1], got {exponent}")
        return super().__new__(cls, scale, exponent)

    def sigma(self, h: float) -> float:
        if not h >= 0:  # also rejects nan
            raise ValueError(f"sigma requires h >= 0, got {h}")
        return self.scale * h ** self.exponent


def _gamma_beta(prof: HolderProfile, fam: PhiFamily) -> float:
    gb = prof.exponent * fam.beta
    if gb <= 1.0:
        raise ValueError(f"the entropy integral diverges: profile exponent {prof.exponent!r} times "
                         f"beta = {fam.beta!r} of alpha = {fam.alpha!r} is gamma*beta = {gb!r} <= 1")
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
    check_positive_finite("eps", eps)
    check_positive_finite("c1", c1)
    return c1 * eps ** (1.0 - 1.0 / gb)

