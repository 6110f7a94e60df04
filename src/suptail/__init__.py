"""Explicit supremum tail bounds for sub-Gaussian-type random fields.

Generic layer: power Orlicz families (``orlicz``), anisotropic box metrics
(``metric``), the closed-form entropy-integral bound (``entropy``), and the
one inequality ``supbound.TailBound`` of the bounded-domain and the growth-rate
supremum tail bounds (``supbound``).
Application layer: the stochastic heat equation with fractional spatial noise
(``heat``), the series of its field V's growth bound (``growth``) and
exact-covariance Monte Carlo to verify its bounds (``sim``).
The package exposes these modules, as ``from suptail import heat``, and no
top-level names.  Importing it loads no NumPy or SciPy.
"""

__version__ = "0.1.0"
