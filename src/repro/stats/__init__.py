"""Statistical tools for forecast comparison and uncertainty.

The paper reports point estimates of MSE improvement; this package adds
the machinery to put error bars and significance levels on them:

* :func:`diebold_mariano` — the standard test for equal predictive
  accuracy of two forecast series.
* :func:`improvement_ci` — a moving-block-bootstrap CI for the paper's
  MSE-decrease percentage (daily forecast errors are autocorrelated, so
  it resamples contiguous blocks rather than single days).
* autocorrelation / Ljung-Box helpers used by the simulator validation
  tests.
"""

from .bootstrap import improvement_ci
from .diagnostics import acf, ljung_box
from .tests import diebold_mariano

__all__ = [
    "acf",
    "diebold_mariano",
    "improvement_ci",
    "ljung_box",
]
