"""Double-precision normal CDF/quantile/density helpers.

Backed by scipy.special's erfc-based routines, which keep relative accuracy
~1e-15 in the body and better than 1e-12 in the tails out to |z| = 8 and
beyond.  Factor thresholds in the credit module reach z > 8, so plain
``0.5*(1+erf)`` style formulas are not good enough.
"""

import numpy as np
from scipy.special import erfcx, ndtr, ndtri

_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)
_SQRT_2 = np.sqrt(2.0)


def norm_cdf(z):
    """P[Z <= z] for standard normal Z (scalar or array)."""
    return ndtr(z)


def norm_sf(z):
    """P[Z > z], computed as the CDF of -z to preserve tail accuracy."""
    return ndtr(np.negative(z))


def norm_ppf(q):
    """Quantile of the standard normal distribution."""
    return ndtri(q)


def norm_cdf_scaled(z):
    """P[Z <= z] * exp(z^2/2) from the scaled erfc: finite for z <= 0, where
    the CDF underflows and the exponential overflows."""
    return 0.5 * erfcx(np.negative(z) / _SQRT_2)


def norm_pdf(z):
    z = np.asarray(z, dtype=float)
    return _INV_SQRT_2PI * np.exp(-0.5 * z * z)
