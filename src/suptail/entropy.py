"""Entropy integrals for a Holder modulus over an anisotropic box.

Two routes are provided: the closed-form power-law bound c1 * eps^(1 - 1/(gamma*beta))
and direct quadrature of the kernel Psi(ln Nbar(sigma^(-1)(u))).  The closed form
drops a factor alpha^(-1/alpha) <= 1 from the kernel and bounds the covering
logarithm by a power, so the numeric integral never exceeds it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .metric import AnisotropicBox, covering_upper_bound
from .orlicz import PhiFamily, psi_kernel


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance."""


@dataclass(frozen=True)
class HolderProfile:
    """Monotone modulus sigma(h) bounding the field's Orlicz-norm increments.

    Either the power form sigma(h) = scale * h^exponent with exponent in (0, 1],
    or a tabulated strictly increasing modulus inverted by bisection.
    """

    scale: float | None = None
    exponent: float | None = None
    table_h: tuple[float, ...] | None = None
    table_sigma: tuple[float, ...] | None = None

    @classmethod
    def power(cls, scale: float, exponent: float) -> "HolderProfile":
        if scale <= 0:
            raise ValueError(f"scale must be positive, got {scale}")
        if not (0.0 < exponent <= 1.0):
            raise ValueError(f"exponent must lie in (0, 1], got {exponent}")
        return cls(scale=scale, exponent=exponent)

    @classmethod
    def tabulated(cls, hs, sigmas) -> "HolderProfile":
        hs = tuple(float(h) for h in hs)
        sigmas = tuple(float(s) for s in sigmas)
        if len(hs) != len(sigmas) or len(hs) < 2:
            raise ValueError("tabulated profile needs two equal-length tables")
        if any(b <= a for a, b in zip(hs, hs[1:])) or any(
            b <= a for a, b in zip(sigmas, sigmas[1:])
        ):
            raise ValueError("tabulated profile must be strictly increasing")
        if hs[0] < 0 or sigmas[0] < 0:
            raise ValueError("tabulated profile must be nonnegative")
        return cls(table_h=hs, table_sigma=sigmas)

    @property
    def is_power(self) -> bool:
        return self.scale is not None

    def sigma(self, h: float) -> float:
        if h < 0:
            raise ValueError(f"sigma requires h >= 0, got {h}")
        if self.is_power:
            return self.scale * h ** self.exponent
        return float(np.interp(h, self.table_h, self.table_sigma))

    def sigma_inv(self, u: float) -> float:
        """Inverse modulus; bisection to 1e-12 for tabulated profiles."""
        if u < 0:
            raise ValueError(f"sigma_inv requires u >= 0, got {u}")
        if self.is_power:
            return (u / self.scale) ** (1.0 / self.exponent)
        lo, hi = self.table_h[0], self.table_h[-1]
        if u <= self.table_sigma[0]:
            return lo
        if u >= self.table_sigma[-1]:
            return hi
        while hi - lo > 1e-12 * max(1.0, hi):
            mid = 0.5 * (lo + hi)
            if self.sigma(mid) < u:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)


def _gamma_beta(prof: HolderProfile, fam: PhiFamily) -> float:
    if not prof.is_power:
        raise ValueError("closed-form entropy constants require a power profile")
    return prof.exponent * fam.beta


def c1_constant(box: AnisotropicBox, prof: HolderProfile, fam: PhiFamily) -> float:
    """Closed-form entropy constant

        c1 = 2^(1/beta) c^(1/(gamma*beta)) / (1 - 1/(gamma*beta))
             * sum_i (1/h_i) (T_i/2)^(h_i/beta).

    Requires gamma*beta > 1; otherwise the entropy integral diverges at 0 and
    the closed form is invalid.
    """
    gb = _gamma_beta(prof, fam)
    if gb <= 1.0:
        raise ValueError(
            f"entropy integral diverges / closed form invalid: gamma*beta = {gb} <= 1"
        )
    if box.diameter == 0.0:
        raise ValueError("box is a single point; entropy constant undefined")
    axis_sum = 0.0
    for t_i, h_i in ((box.t1, box.h1), (box.t2, box.h2)):
        if t_i > 0:
            axis_sum += (t_i / 2.0) ** (h_i / fam.beta) / h_i
    return 2.0 ** (1.0 / fam.beta) * prof.scale ** (1.0 / gb) / (1.0 - 1.0 / gb) * axis_sum


def entropy_integral_closed(
    eps: float, c1: float, prof: HolderProfile, fam: PhiFamily
) -> float:
    """Closed-form entropy integral bound c1 * eps^(1 - 1/(gamma*beta))."""
    gb = _gamma_beta(prof, fam)
    if gb <= 1.0:
        raise ValueError(
            f"entropy integral diverges / closed form invalid: gamma*beta = {gb} <= 1"
        )
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    if c1 <= 0:
        raise ValueError(f"c1 must be positive, got {c1}")
    return c1 * eps ** (1.0 - 1.0 / gb)


def entropy_integral_numeric(
    eps: float,
    box: AnisotropicBox,
    prof: HolderProfile,
    fam: PhiFamily,
    tol: float = 1e-8,
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

    value, err = quad(integrand, 0.0, upper, epsabs=tol, epsrel=1e-10, limit=300)
    if err > 10.0 * max(tol, 1e-14):
        raise QuadratureError(
            f"entropy quadrature did not converge: estimate {value!r}, "
            f"error {err!r}, requested tol {tol!r}, interval (0, {upper!r}]"
        )
    return value
