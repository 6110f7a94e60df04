"""Explicit supremum tail bounds for sub-Gaussian-type random fields.

Generic layer: power Orlicz families, anisotropic box metrics, the
closed-form entropy-integral bound, and bounded-domain / growth-rate supremum
tail bounds, which are one ``TailBound`` value with one validity check and
one closed-form theta optimum, and nan below the validity threshold.
Application layer: the stochastic heat equation with fractional spatial
noise, the closed-form zeta/polylog series of its growth envelope, plus
exact-covariance Monte Carlo to verify the bounds empirically.  Importing
the package loads no SciPy; the sampler loads ``scipy.special`` at first use.
"""

from .entropy import HolderProfile, c1_axis_terms, c1_constant, entropy_integral_closed
from .growth import SeriesSum, auto_theta_bound, optimize_theta_growth, series_c_sum, series_s_sum, theta_sup
from .heat import SheModel, she_growth_envelope
from .metric import AnisotropicBox, covering_oracle, covering_upper_bound
from .orlicz import PhiFamily, phi_conjugate, rv_tail_bound
from .sim import FactorizationError, covariance_matrix, empirical_sup_tail, factor_covariance, make_grid, sample_fields, v_covariance, verdicts
from .supbound import TailBound, field_bound, min_threshold, optimize_theta, sup_tail_bound, u_threshold

__version__ = "0.1.0"
