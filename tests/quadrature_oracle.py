"""Adaptive quadrature routes kept as oracles for the package's closed forms.

* ``entropy_integral_numeric`` integrates the entropy kernel; the closed-form
  bound ``entropy.entropy_integral_closed`` must dominate it.
* ``spectral_density_moment`` integrates the moments of an even spectral
  density; for the rational family sigma2 / (1 + lambda^2)^(2a) they have the
  Beta-function closed form sigma2 B(eps + 1/2, 2a - eps - 1/2).

Each raises ``QuadratureError`` when QUADPACK's error estimate exceeds ten
times its tolerance, or when QUADPACK warns (a divergent integral can come
back as a finite value with a small error estimate and only a warning).
"""

import math
import warnings

import numpy as np
from scipy.integrate import IntegrationWarning
from scipy.integrate import quad

from suptail.metric import covering_upper_bound


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance."""


# Absolute tolerance of the numeric entropy integral.
_ENTROPY_TOL = 1e-8
# Absolute tolerance of the numeric spectral integrals.
_SPECTRAL_TOL = 1e-10


def _quad(f, a, b, **kwargs):
    """scipy's quad with its IntegrationWarning raised as QuadratureError."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", IntegrationWarning)
        try:
            return quad(f, a, b, **kwargs)
        except IntegrationWarning as exc:
            raise QuadratureError(f"QUADPACK: {exc}") from None


def entropy_integral_numeric(eps, box, prof, fam):
    """Quadrature of the entropy integrand Psi(ln Nbar(sigma^(-1)(u))) on (0, eps].

    Psi(v) = v / phi^(-1)(v) with phi^(-1)(v) = (alpha v)^(1/alpha), read as 0
    at v = 0, and sigma^(-1)(u) = (u / scale)^(1/exponent).  Nbar is the
    analytic covering bound, replaced by 1 once sigma^(-1)(u) reaches the box
    diameter (a single ball suffices there), so the integrand vanishes beyond
    gamma0 = sigma(diameter) and the integral is flat past it.  The integrable
    log-power singularity at u -> 0 is left to adaptive subdivision.
    """
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    diam = box.diameter
    if diam == 0.0:
        return 0.0
    upper = min(eps, prof.sigma(diam))
    if upper <= 0.0:
        return 0.0

    def integrand(u):
        eps_d = (u / prof.scale) ** (1.0 / prof.exponent)
        if eps_d >= diam:
            return 0.0
        v = math.log(covering_upper_bound(box, eps_d))
        return v / (fam.alpha * v) ** (1.0 / fam.alpha) if v > 0.0 else 0.0

    value, err = _quad(integrand, 0.0, upper, epsabs=_ENTROPY_TOL, epsrel=1e-10, limit=300)
    if err > 10.0 * _ENTROPY_TOL:
        raise QuadratureError(
            f"entropy quadrature did not converge: estimate {value!r}, "
            f"error {err!r}, requested tol {_ENTROPY_TOL!r}, interval (0, {upper!r}]"
        )
    return value


def spectral_density_moment(density, eps_exp):
    """int_R lambda^(2 eps) density(lambda) dlambda for an even density,
    as 2 int_0^inf split at 1."""

    def f(lam):
        return lam ** (2.0 * eps_exp) * density(lam)

    tol = _SPECTRAL_TOL
    core, e1 = _quad(f, 0.0, 1.0, epsabs=tol / 2, epsrel=1e-12, limit=200)
    tail, e2 = _quad(f, 1.0, np.inf, epsabs=tol / 2, epsrel=1e-12, limit=200)
    if e1 + e2 > 10.0 * tol:
        raise QuadratureError(f"spectral quadrature error {e1 + e2} exceeds tolerance {tol}")
    return 2.0 * (core + tail)
