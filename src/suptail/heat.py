"""Stochastic-heat-equation layer: explicit constants, field bounds, growth envelope.

The mild solution on (0,T] x R driven by noise that is white in time and
fractional in space (Hurst index H <= 1/2) splits into the smoothed initial
condition omega(t,x) and the stochastic convolution V(t,x).  This module
computes every constant of their second-moment bounds in closed form (with
quadrature only where no closed form exists), maps both fields onto the
generic bounded-domain supremum bounds, and builds the almost-sure growth
envelope of V over the strip [0, inf) x [-A, A] from the zeta and polylog
closed forms of its series.  Gamma and Beta values come from the math module
and zeta(p) from a short Euler-Maclaurin sum, so nothing here loads SciPy
except the numeric spectral quadrature, at its first call.

Conventions fixed here:

* each constant has one formula, its public function below; ``SheModel``
  stores only the three that its bounds read (a_h, c_v, c_omega).
* ``variance_coefficient`` is the exact value Gamma(1-H) 2^(H-1) / H of the
  time-integrated spectral integral, so Var V(t,x) = C_H * c_1H * t^H is an
  identity (cross-checked against space-time white noise at H = 1/2).
* ``time_increment_coefficient`` is the exact value
  c_2H = (1/2) int_R (1 - e^(-u^2))^2 |u|^(-1-2H) du = Gamma(1-H) (2 - 2^H) / (2H),
  with the even integrand read through |u|.
* the supremum tail bounds are :func:`suptail.supbound.sup_tail_bound` on
  ``omega_bound_inputs`` or ``v_bound_inputs``, with the minus sign of the
  generic bound's exponent argument.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from .curves import TailCurve
from .entropy import HolderProfile, QuadratureError, c1_axis_terms
from .growth import GrowthSpec, SeriesError, SeriesSum, auto_theta_bound, cell_inputs
from .metric import AnisotropicBox
from .orlicz import PhiFamily
from . import supbound


def _check_hurst(hurst: float) -> None:
    if not (0.0 < hurst <= 0.5):
        raise ValueError(f"Hurst index must lie in (0, 1/2], got {hurst}")


def noise_constant(hurst: float) -> float:
    """Spectral-density coefficient of the fractional space noise:

        C_H = Gamma(2H+1) sin(pi H) / (2 pi).
    """
    _check_hurst(hurst)
    return math.gamma(2.0 * hurst + 1.0) * math.sin(math.pi * hurst) / (2.0 * math.pi)


def variance_coefficient(hurst: float) -> float:
    """Coefficient c_1H in the variance identity Var V(t,x) = C_H * c_1H * t^H.

    Exact value of int_0^t int_R exp(-2 s xi^2) |xi|^(1-2H) dxi ds at t = 1:

        c_1H = Gamma(1-H) * 2^(H-1) / H.
    """
    _check_hurst(hurst)
    return math.gamma(1.0 - hurst) * 2.0 ** (hurst - 1.0) / hurst


def time_increment_coefficient(hurst: float) -> float:
    """Coefficient c_2H of the |t-s|^H increment term,

        c_2H = (1/2) int_R (1 - exp(-u^2))^2 / |u|^(1+2H) du
             = int_0^inf (1 - exp(-u^2))^2 / u^(1+2H) du
             = Gamma(1-H) (2 - 2^H) / (2H).

    With v = u^2, (1 - e^-v)^2 = -2 (e^-v - 1) + (e^-2v - 1), and
    int_0^inf (e^-av - 1) v^(-H-1) dv = Gamma(-H) a^H gives the closed form.
    At H = 1/2 it is 2*sqrt(pi) - sqrt(2*pi).
    """
    _check_hurst(hurst)
    return math.gamma(1.0 - hurst) * (2.0 - 2.0 ** hurst) / (2.0 * hurst)


def space_increment_coefficient(hurst: float) -> float:
    """Coefficient c_3H of the |x-y|^(2H) increment term:

        c_3H = int_0^inf (1 - cos x) x^(-1-2H) dx
             = Gamma(1-2H) cos(pi H) / (2H)   for H < 1/2,
               pi/2                           for H = 1/2.
    """
    _check_hurst(hurst)
    if hurst == 0.5:
        return math.pi / 2.0
    return math.gamma(1.0 - 2.0 * hurst) * math.cos(math.pi * hurst) / (2.0 * hurst)


def increment_constant(hurst: float) -> float:
    """c_V = sqrt(3 C_H max(c_1H + c_2H, c_3H)); the Holder scale of V in

        ||V(t,x) - V(s,y)||_2 <= c_V (|t-s|^(H/2) + |x-y|^H).
    """
    time_part = variance_coefficient(hurst) + time_increment_coefficient(hurst)
    space_part = space_increment_coefficient(hurst)
    return math.sqrt(3.0 * noise_constant(hurst) * max(time_part, space_part))


def sup_norm_coefficient(hurst: float) -> float:
    """A(H) = sqrt(C_H c_1H); gives ||V(t,x)||_2 = A(H) t^(H/2) exactly."""
    return math.sqrt(noise_constant(hurst) * variance_coefficient(hurst))


def kernel_moment_constant(rho: float) -> float:
    """Absolute 2*rho-moment scale of the heat kernel:

        int_R G_h(y) |y|^(2 rho) dy = C_1 h^rho,   C_1 = 4^rho Gamma(rho + 1/2) / sqrt(pi).
    """
    if not (0.0 < rho <= 1.0):
        raise ValueError(f"rho must lie in (0, 1], got {rho}")
    return 4.0 ** rho / math.sqrt(math.pi) * math.gamma(rho + 0.5)


def omega_holder_constant(holder_const: float, rho: float) -> float:
    """c_omega = sqrt(2 L max(C_1, L)); the Holder scale of omega in

        ||omega(t,x) - omega(s,y)||_2 <= c_omega (|t-s|^(rho/2) + |x-y|^rho).
    """
    if holder_const <= 0:
        raise ValueError(f"holder_const must be positive, got {holder_const}")
    c = 2.0 * holder_const * max(kernel_moment_constant(rho), holder_const)
    return math.sqrt(c)


@dataclass(frozen=True)
class SheModel:
    """Heat-equation instance with the derived constants its bounds read.

    hurst: spatial noise index H in (0, 1/2].
    rho: Holder exponent of the initial condition, in (0, 1].
    holder_const: its L2 Holder constant L.
    init_sup: uniform L2 bound c_0 on the initial condition.
    det_const: determining constant c_phi of the initial condition's
        sub-Gaussian family (1.0 for Gaussian).
    alpha: Orlicz exponent of that family.

    a_h, c_v and c_omega are ``sup_norm_coefficient``, ``increment_constant``
    and ``omega_holder_constant``; those also validate hurst, rho, holder_const.
    """

    hurst: float
    rho: float = 1.0
    holder_const: float = 1.0
    init_sup: float = 1.0
    det_const: float = 1.0
    alpha: float = 2.0
    a_h: float = field(init=False)
    c_v: float = field(init=False)
    c_omega: float = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "a_h", sup_norm_coefficient(self.hurst))
        object.__setattr__(self, "c_v", increment_constant(self.hurst))
        object.__setattr__(self, "c_omega", omega_holder_constant(self.holder_const, self.rho))
        for name in ("init_sup", "det_const"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")

    @property
    def fam(self) -> PhiFamily:
        return PhiFamily(self.alpha)

    def constants(self) -> dict[str, float]:
        return {
            "noise_constant": noise_constant(self.hurst),
            "variance_coefficient": variance_coefficient(self.hurst),
            "time_increment_coefficient": time_increment_coefficient(self.hurst),
            "space_increment_coefficient": space_increment_coefficient(self.hurst),
            "increment_constant": self.c_v,
            "sup_norm_coefficient": self.a_h,
            "kernel_moment_constant": kernel_moment_constant(self.rho),
            "omega_holder_constant": self.c_omega,
        }


def omega_bound_inputs(box: AnisotropicBox, model: SheModel) -> supbound.FieldBoundInputs:
    """Bounded-domain inputs for the smoothed-initial-condition field omega.

    eps0 = c_0 c_phi, modulus sigma(h) = c_omega c_phi h over the metric with
    exponents (rho/2, rho); the box's own exponents are replaced.
    """
    mapped = replace(box, h1=model.rho / 2.0, h2=model.rho)
    return supbound.FieldBoundInputs(
        eps0=model.init_sup * model.det_const,
        box=mapped,
        prof=HolderProfile.power(model.c_omega * model.det_const, 1.0),
        fam=model.fam,
    )


def v_bound_inputs(box: AnisotropicBox, model: SheModel) -> supbound.FieldBoundInputs:
    """Bounded-domain inputs for the Gaussian stochastic convolution V.

    eps0 = A(H) b1^(H/2) with b1 the right endpoint of the time axis, modulus
    sigma(h) = c_V h over the metric with exponents (H/2, H), alpha = 2.
    """
    if box.a1 < 0:
        raise ValueError("time axis of the box must be nonnegative")
    mapped = replace(box, h1=model.hurst / 2.0, h2=model.hurst)
    return supbound.FieldBoundInputs(
        eps0=model.a_h * box.b1 ** (model.hurst / 2.0),
        box=mapped,
        prof=HolderProfile.power(model.c_v, 1.0),
        fam=PhiFamily(2.0),
    )


# ---------------------------------------------------------------------------
# Stationary initial condition via a spectral measure
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpectralMeasure:
    """Spectral measure of a stationary initial condition.

    Either a density callable lambda -> F'(lambda) >= 0, or the rational
    family f(lambda) = sigma2 / (1 + lambda^2)^(2 alpha_m), whose moments
    have Beta-function closed forms.
    """

    density: Optional[Callable[[float], float]] = None
    sigma2: Optional[float] = None
    alpha_m: Optional[float] = None

    @classmethod
    def matern(cls, sigma2: float, alpha_m: float) -> "SpectralMeasure":
        if sigma2 <= 0:
            raise ValueError(f"sigma2 must be positive, got {sigma2}")
        if alpha_m <= 0.25:
            raise ValueError(f"alpha_m must exceed 1/4 for a finite measure, got {alpha_m}")
        return cls(sigma2=sigma2, alpha_m=alpha_m)

    @classmethod
    def from_density(cls, density: Callable[[float], float]) -> "SpectralMeasure":
        return cls(density=density)

    @property
    def is_matern(self) -> bool:
        return self.sigma2 is not None

    def density_at(self, lam: float) -> float:
        if self.is_matern:
            return self.sigma2 / (1.0 + lam * lam) ** (2.0 * self.alpha_m)
        return self.density(lam)


def _beta(a: float, b: float) -> float:
    """Beta function B(a, b) = Gamma(a) Gamma(b) / Gamma(a + b) for a, b > 0.

    Gamma(a + b) overflows past 171.6, so larger arguments go through lgamma.
    """
    if a + b < 170.0:
        return math.gamma(a) * math.gamma(b) / math.gamma(a + b)
    return math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))


# Absolute tolerance of the numeric spectral integrals.
_SPECTRAL_TOL = 1e-10


def _improper_even_integral(f) -> float:
    """2 * int_0^inf f, split at 1, with an error check."""
    from scipy.integrate import quad

    tol = _SPECTRAL_TOL
    core, e1 = quad(f, 0.0, 1.0, epsabs=tol / 2, epsrel=1e-12, limit=200)
    tail, e2 = quad(f, 1.0, np.inf, epsabs=tol / 2, epsrel=1e-12, limit=200)
    if e1 + e2 > 10.0 * tol:
        raise QuadratureError(f"spectral quadrature error {e1 + e2} exceeds tolerance {tol}")
    return 2.0 * (core + tail)


def spectral_moment(measure: SpectralMeasure, eps_exp: float) -> float:
    """c^2(eps) = int_R lambda^(2 eps) F(dlambda).

    For the rational family: sigma2 * B(eps + 1/2, 2 alpha_m - eps - 1/2),
    requiring 2 alpha_m - eps - 1/2 > 0.  Generic densities are integrated
    numerically.
    """
    if not (0.0 < eps_exp <= 0.5):
        raise ValueError(f"eps_exp must lie in (0, 1/2], got {eps_exp}")
    if measure.is_matern:
        second = 2.0 * measure.alpha_m - eps_exp - 0.5
        if second <= 0.0:
            raise ValueError(
                f"moment constraint violated: 2*alpha_m - eps - 1/2 = {second} <= 0"
            )
        return measure.sigma2 * _beta(eps_exp + 0.5, second)
    return _improper_even_integral(lambda lam: lam ** (2.0 * eps_exp) * measure.density_at(lam))


def omega_spectral_sup_norm(measure: SpectralMeasure) -> float:
    """Uniform L2 bound (int_R F(dlambda))^(1/2) on the stationary omega field."""
    if measure.is_matern:
        mass = measure.sigma2 * _beta(0.5, 2.0 * measure.alpha_m - 0.5)
    else:
        mass = _improper_even_integral(measure.density_at)
    return math.sqrt(mass)


def omega_spectral_increment_bound(
    t: float, x: float, s: float, y: float, measure: SpectralMeasure, eps_exp: float
) -> float:
    """L2 increment bound c(eps) (4^(1-eps) |x-y|^(2 eps) + |t-s|^eps)^(1/2)."""
    c_eps = math.sqrt(spectral_moment(measure, eps_exp))
    inner = 4.0 ** (1.0 - eps_exp) * abs(x - y) ** (2.0 * eps_exp) + abs(t - s) ** eps_exp
    return c_eps * math.sqrt(inner)


# ---------------------------------------------------------------------------
# Growth envelope of V over the strip
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EnvelopeResult:
    """Envelope tail curve plus the series values and spec behind it."""

    curve: TailCurve
    c_tilde: SeriesSum
    s_tilde: SeriesSum
    theta_cap: float
    spec: GrowthSpec


def growth_spec_for_v(model: SheModel, p: float, halfwidth: float) -> GrowthSpec:
    """Growth spec for |V(t,x)| <= (t^(H/2) (log t)^p v 1) * xi over the strip.

    Partition b_k = e^k, weight f(t) = (t^(H/2) (log t)^p) v 1, per-cell norm
    sup A(H) b_{k+1}^(H/2), Holder scale c_V, metric exponents (H/2, H),
    Gaussian family.  ``she_growth_envelope`` sums its series in closed form.
    """
    if not p > 1.0:  # also rejects nan
        raise ValueError(f"p must exceed 1 for the envelope series to converge, got {p}")
    if halfwidth <= 0:
        raise ValueError(f"halfwidth must be positive, got {halfwidth}")
    hurst = model.hurst
    a_h = model.a_h
    c_v = model.c_v

    def weight(t: float) -> float:
        return max(t ** (hurst / 2.0) * math.log(t) ** p, 1.0) if t > 0 else 1.0

    def cell_sup(k: int) -> float:
        return a_h * math.exp((k + 1) * hurst / 2.0)

    return GrowthSpec(
        partition=math.exp,
        weight=weight,
        halfwidth=halfwidth,
        cell_sup=cell_sup,
        cell_holder=lambda k: c_v,
        gamma=1.0,
        h1=hurst / 2.0,
        h2=hurst,
        fam=PhiFamily(2.0),
    )


_EPS = float(np.finfo(float).eps)
_POLYLOG_MAX_TERMS = 2 ** 24
# Relative rounding bound on the products and sums that combine zeta(p) and
# Li_p with the model constants; the series' own errors are their remainders.
_CLOSED_FORM_RTOL = 16.0 * _EPS

# Euler-Maclaurin summation of zeta(p) from k = _ZETA_N, with the Bernoulli
# numbers B_2 .. B_22 as (numerator, denominator); B_22 gives the first
# omitted term, which bounds the truncation error.
_ZETA_N = 12
_BERNOULLI = (
    (1, 6), (-1, 30), (1, 42), (-1, 30), (5, 66), (-691, 2730), (7, 6),
    (-3617, 510), (43867, 798), (-174611, 330), (854513, 138),
)
_BERNOULLI_OVER_FACTORIAL = tuple(
    num / (den * math.factorial(2 * j)) for j, (num, den) in enumerate(_BERNOULLI, start=1)
)


def _zeta(p: float) -> SeriesSum:
    """Riemann zeta(p) for real p > 1 by Euler-Maclaurin summation:

        zeta(p) = sum_{k<N} k^-p + N^(1-p)/(p-1) + N^-p/2
                  + sum_{j=1}^{10} B_2j/(2j)! (p)_(2j-1) N^(-p-2j+1) + R

    with N = 12 and (p)_m the rising factorial.  All derivatives of k^-p
    have constant sign, so R lies between 0 and the first omitted (j = 11)
    term.  The remainder adds to |R| a rounding bound of eps times the value
    per term, as _polylog does for its sum.
    """
    n = _ZETA_N
    terms = [k ** -p for k in range(1, n)]
    terms += [n ** (1.0 - p) / (p - 1.0), 0.5 * n ** -p]
    scale = p * n ** (-p - 1.0)  # (p)_(2j-1) N^(-p-2j+1), kept as one factor
    for j, ratio in enumerate(_BERNOULLI_OVER_FACTORIAL, start=1):
        terms.append(ratio * scale)
        scale = scale * (p + 2 * j - 1) / n * (p + 2 * j) / n
    omitted = abs(terms.pop())
    value = math.fsum(terms)
    return SeriesSum(value, omitted + len(terms) * _EPS * value, len(terms))


def _polylog(p: float, ln_x: float) -> SeriesSum:
    """Li_p(x) = sum_{k>=1} x^k / k^p for 0 < x < 1, given ln x < 0.

    Terms exp(a_k), a_k = k ln x - p ln k, are summed in doubling chunks until
    the geometric tail bound x^(n+1) / ((n+1)^p (1-x)) falls below the
    rounding of the sum, or for at most 2^24 terms.  The remainder adds to that
    tail a rounding bound: a_k is off by at most 3 ulps of |a_k|, largest at
    the last term that did not underflow to 0, and summing n terms loses at
    most n ulps of the sum, which also covers the underflowed terms (each
    below 5e-324, against a sum of at least x).
    """
    total, n, chunk, a_max = 0.0, 0, 1024, 0.0
    while True:
        ks = np.arange(n + 1, n + chunk + 1, dtype=float)
        args = ks * ln_x - p * np.log(ks)
        terms = np.exp(args)
        total += float(np.sum(terms))
        n += chunk
        live = np.count_nonzero(terms)  # the terms decrease, so the nonzero ones lead
        if live:
            a_max = -float(args[live - 1])
        rounding = (n + 3.0 * a_max + 2.0) * _EPS * total
        tail = math.exp((n + 1) * ln_x - p * math.log(n + 1)) / -math.expm1(ln_x)
        if tail <= rounding or n >= _POLYLOG_MAX_TERMS:
            return SeriesSum(total, tail + rounding, n)
        chunk = min(2 * chunk, 2 ** 20, _POLYLOG_MAX_TERMS - n)


def she_growth_envelope(
    model: SheModel,
    p: float,
    u_grid,
    halfwidth: float = 1.0,
    series_tol: float = 1e-6,
) -> EnvelopeResult:
    """Almost-sure growth envelope of V: tail curve of xi in |V| <= f(t) xi.

    On b_k = e^k the factors e^(kH/2) of eps_k and f_k = e^(kH/2) k^p (f_0 = 1)
    cancel, so with T + X = sqrt(eps_0) c1(0) split by axis and x = e^(-H/4)

        C~ = A(H) e^(H/2) (1 + zeta(p)),   S~ = T (1 + zeta(p)) + X (1 + Li_p(x)).

    Remainders bound tail and rounding, n_terms counts the Li_p terms summed,
    and SeriesError is raised when a remainder exceeds series_tol.  theta_cap
    = min(1, inf_k gamma_k / eps_k) is exactly 1.  Envelope tail entries below
    the validity threshold are nan.
    """
    spec = growth_spec_for_v(model, p, halfwidth)
    zeta_p = _zeta(p)
    c_front = spec.cell_sup(0)  # eps_0 = A(H) e^(H/2)
    c_value = c_front * (1.0 + zeta_p.value)
    c_sum = SeriesSum(c_value, _CLOSED_FORM_RTOL * c_value + c_front * zeta_p.remainder, 0)
    time_axis, space_axis = (
        math.sqrt(c_front) * term for term in c1_axis_terms(*cell_inputs(0, spec), spec.fam)
    )
    li = _polylog(p, -model.hurst / 4.0)
    s_value = time_axis * (1.0 + zeta_p.value) + space_axis * (1.0 + li.value)
    s_error = time_axis * zeta_p.remainder + space_axis * li.remainder
    s_sum = SeriesSum(s_value, _CLOSED_FORM_RTOL * s_value + s_error, li.n_terms)
    for name, res in (("C~", c_sum), ("S~", s_sum)):
        if res.remainder > series_tol:
            raise SeriesError(
                f"{name} remainder {res.remainder:.3g} exceeds series_tol = {series_tol}"
            )
    # gamma_k / eps_k = (c_V / A) (((e-1)/e)^(H/2) + (2A)^H e^(-(k+1)H/2))
    # decreases to its k -> inf limit (c_V / A) ((e-1)/e)^(H/2), which is
    # >= sqrt(3) ((e-1)/e)^(1/4) > 1 since c_V^2 >= 3 A^2, so the cap is 1.
    theta_cap = 1.0
    us = tuple(float(u) for u in u_grid)
    values = []
    for u in us:
        try:
            values.append(auto_theta_bound(u, spec, c_value, s_value, theta_cap))
        except ValueError:
            values.append(math.nan)
    return EnvelopeResult(TailCurve(us, tuple(values)), c_sum, s_sum, theta_cap, spec)
