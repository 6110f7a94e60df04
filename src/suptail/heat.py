"""Stochastic-heat-equation layer: explicit constants, field bounds, growth envelope.

The mild solution on (0,T] x R driven by noise that is white in time and
fractional in space (Hurst index H <= 1/2) splits into the smoothed initial
condition omega(t,x) and the stochastic convolution V(t,x).  This module
computes every constant of their second-moment bounds in closed form, maps
both fields onto the generic bounded-domain supremum bounds through one metric
builder, ``_heat_metric``, and builds the growth bound of V over the strip
[1, inf) x [-A, A] from its first cell, a box with V's ``_heat_metric``, and
the series of ``suptail.growth``.  Gamma values come from the math module, so
nothing here loads SciPy.

Conventions fixed here:

* each constant has one formula, its public function below; ``SheModel``
  has only the three that its bounds read (a_h, c_v, c_omega), as properties.
* ``variance_coefficient`` is the exact value Gamma(1-H) 2^(H-1) / H of the
  time-integrated spectral integral, so Var V(t,x) = C_H * c_1H * t^H is an
  identity (cross-checked against space-time white noise at H = 1/2).
* ``time_increment_coefficient`` is exact too, with the even integrand of
  c_2H read through |u|; its docstring derives the closed form.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .entropy import HolderProfile, c1_axis_terms
from .growth import SeriesSum, series_c_sum, series_s_sum, theta_sup
from .metric import AnisotropicBox, check_positive_finite
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

        c_3H = int_0^inf (1 - cos x) x^(-1-2H) dx = Gamma(1-2H) cos(pi H) / (2H)
             = pi / (2 Gamma(2H+1) sin(pi H))

    by the reflection formula Gamma(1-2H) Gamma(2H) = pi / sin(2 pi H), with
    2H Gamma(2H) = Gamma(2H+1) and sin(2 pi H) = 2 sin(pi H) cos(pi H).  The
    second form has no branch (it is pi/2 at H = 1/2), and it cancels no pole
    of Gamma(1-2H) against the zero of cos(pi H), which loses precision near
    H = 1/2.
    """
    _check_hurst(hurst)
    return math.pi / (2.0 * math.gamma(2.0 * hurst + 1.0) * math.sin(math.pi * hurst))


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
    check_positive_finite("holder_const", holder_const)
    c_omega = math.sqrt(2.0 * holder_const * max(kernel_moment_constant(rho), holder_const))
    check_positive_finite(f"c_omega for holder_const = {holder_const!r} and rho = {rho!r}", c_omega)
    return c_omega


class SheModel(namedtuple("SheModel", "hurst rho holder_const init_sup det_const alpha")):
    """Heat-equation instance with the derived constants its bounds read.

    hurst: spatial noise index H in (0, 1/2].
    rho: Holder exponent of the initial condition, in (0, 1].
    holder_const: its L2 Holder constant L.
    init_sup: uniform L2 bound c_0 on the initial condition.
    det_const: determining constant c_phi of the initial condition's
        sub-Gaussian family (1.0 for Gaussian).
    alpha: Orlicz exponent of that family.

    An immutable named tuple of these six inputs.  The read-only properties
    a_h, c_v and c_omega are ``sup_norm_coefficient``, ``increment_constant``
    and ``omega_holder_constant``.  ``__post_init__`` validates every input,
    alpha through ``PhiFamily`` whether or not a bound reads it, and rejects
    a tiny hurst or a huge holder_const, whose a_h, c_v or c_omega is not finite.
    """

    __slots__ = ()

    def __new__(cls, hurst: float, rho: float = 1.0, holder_const: float = 1.0,
                init_sup: float = 1.0, det_const: float = 1.0, alpha: float = 2.0) -> SheModel:
        self = super().__new__(cls, hurst, rho, holder_const, init_sup, det_const, alpha)
        self.__post_init__()  # looked up on the class, where a tracer may wrap it
        return self

    def __post_init__(self) -> None:
        _check_hurst(self.hurst)
        if not (math.isfinite(self.a_h) and math.isfinite(self.c_v)):  # hurst near 0
            raise ValueError(
                f"hurst = {self.hurst!r} is too small: its constants a_h = {self.a_h} "
                f"and c_v = {self.c_v} are not finite"
            )
        omega_holder_constant(self.holder_const, self.rho)  # validates holder_const, rho and c_omega
        PhiFamily(self.alpha)
        check_positive_finite("init_sup", self.init_sup)
        check_positive_finite("det_const", self.det_const)

    a_h = property(lambda self: sup_norm_coefficient(self.hurst))
    c_v = property(lambda self: increment_constant(self.hurst))
    c_omega = property(lambda self: omega_holder_constant(self.holder_const, self.rho))

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


def _heat_metric(
    box: AnisotropicBox, exponent: float, scale: float, alpha: float
) -> tuple[AnisotropicBox, HolderProfile, PhiFamily]:
    """A heat field's metric on box: the box with exponents (exponent/2, exponent)
    in place of its own, the modulus sigma(h) = scale h and the family of alpha.
    Both heat fields live at t >= 0."""
    if box.a1 < 0:
        raise ValueError("time axis of the box must be nonnegative")
    box = AnisotropicBox(box.a1, box.b1, box.a2, box.b2, exponent / 2.0, exponent)
    return box, HolderProfile(scale, 1.0), PhiFamily(alpha)


def omega_bound_inputs(box: AnisotropicBox, model: SheModel) -> supbound.TailBound:
    """Bounded-domain bound for the smoothed-initial-condition field omega:
    eps0 = c_0 c_phi on ``_heat_metric`` with exponent rho, scale c_omega c_phi
    and the family of alpha."""
    eps0, scale = model.init_sup * model.det_const, model.c_omega * model.det_const
    check_positive_finite("omega's eps0 = init_sup * det_const", eps0)
    check_positive_finite(f"omega's scale c_omega * det_const for holder_const = {model.holder_const!r} "
                          f"and rho = {model.rho!r}", scale)
    return supbound.field_bound(eps0, *_heat_metric(box, model.rho, scale, model.alpha))


def v_bound_inputs(box: AnisotropicBox, model: SheModel) -> supbound.TailBound:
    """Bounded-domain bound for the Gaussian stochastic convolution V.

    eps0 = A(H) b1^(H/2) with b1 the right endpoint of the time axis, on
    ``_heat_metric`` with exponent H, scale c_V and the Gaussian family.  A box
    with b1 = 0 lies at t = 0, where V is 0, and is rejected.
    """
    metric = _heat_metric(box, model.hurst, model.c_v, 2.0)
    if box.b1 == 0:  # b1 >= a1 >= 0
        raise ValueError("box 'b1' must be positive for V: the box lies at t = 0, where V is 0")
    return supbound.field_bound(model.a_h * box.b1 ** (model.hurst / 2.0), *metric)


# ---------------------------------------------------------------------------
# Growth envelope of V over the strip
# ---------------------------------------------------------------------------


def she_growth_envelope(
    model: SheModel, p: float, halfwidth: float = 1.0
) -> tuple[supbound.TailBound, SeriesSum, SeriesSum]:
    """Almost-sure growth envelope of V: the bound on the tail of xi in |V| <= f(t) xi.

    f(t) = (t^(H/2) (log t)^p) v 1 over the cells [e^k, e^(k+1)] x [-A, A],
    A = halfwidth.  Cell 0 is the box [1, e] x [-A, A] with V's metric and
    eps_0 = A(H) e^(H/2); T + X = sqrt(eps_0) c1(0) split by axis give

        C~ = eps_0 (1 + zeta(p)),   S~ = T (1 + zeta(p)) + X (1 + Li_p(e^(-H/4)))

    (``growth.series_c_sum``, ``growth.series_s_sum``).  Returns the growth
    bound and the certified sums C~ and S~.  The bound has k = S~ and scale
    C~, each its value plus its remainder, an upper end of the true sum; the
    bound is nondecreasing in both, so it holds whatever the remainders.  Its
    cap is min(1, ``growth.theta_sup``), which is exactly 1.
    ``growth.optimize_theta_growth`` evaluates the bound at each u.
    """
    if not p > 1.0:  # also rejects nan
        raise ValueError(f"p must exceed 1 for the envelope series to converge, got {p}")
    if p == math.inf:
        raise ValueError(f"p must be finite, got {p}")
    check_positive_finite("halfwidth", halfwidth)
    check_positive_finite(f"strip width 2 * halfwidth for halfwidth = {halfwidth!r}", 2.0 * halfwidth)
    box, prof, fam = _heat_metric(AnisotropicBox(1.0, math.e, -halfwidth, halfwidth),
                                  model.hurst, model.c_v, 2.0)
    # exp(H/2), not v_bound_inputs' math.e ** (H/2), which can differ in the last bit
    eps0 = model.a_h * math.exp(model.hurst / 2.0)
    c_sum = series_c_sum(eps0, p)
    time_axis, space_axis = (math.sqrt(eps0) * term for term in c1_axis_terms(box, prof, fam))
    s_sum = series_s_sum(time_axis, space_axis, p, model.hurst)
    # c_V^2 >= 3 A(H)^2, so theta_sup >= sqrt(3) ((e-1)/e)^(1/4) > 1
    cap = min(1.0, theta_sup(model.c_v, model.a_h, model.hurst))
    k, scale = s_sum.value + s_sum.remainder, c_sum.value + c_sum.remainder
    return supbound.TailBound(k, scale, prof.exponent * fam.beta, cap, fam), c_sum, s_sum
