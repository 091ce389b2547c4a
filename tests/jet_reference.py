"""The hyperbolic jets composed from lifts, as the tau chart once built them.

sinh and cosh come from exp(x) and exp(-x), tanh from one E = exp(-2 sgn x);
sinh(s t)/(s t) is its 35-term even series where |s t| < 1 and sinh(u) * (1/u)
elsewhere, and (s t)/sinh(s t) is its reciprocal.  Past s t ~ 355 the
reciprocal of an overflowing sinh turns into NaN, so these serve as an
independent route to compare ``jets.sinh_ratio_jet`` and the tau chart with
where they are finite.  ``derivative`` reads the m-th derivative off a jet.
"""

import math

import numpy as np

from casimir_harmonic.jets import Jet, jet_lift_and_compose as lift


def derivative(jet, m):
    """m-th derivative of the underlying function at the base point."""
    if m > jet.order:
        raise ValueError(f"jet of order {jet.order} cannot give derivative {m}")
    return math.factorial(m) * jet.coeffs[m]


def sinh_cosh(x):
    """(sinh x, cosh x) of the jet x."""
    ep, em = lift("exp", x), lift("exp", -x)
    return (ep - em) * 0.5, (ep + em) * 0.5


def tanh(x):
    """tanh of the jet x as sgn (1 - E)/(1 + E), E = exp(-2 sgn x), so that a
    huge base point underflows gracefully."""
    sgn = np.where(np.asarray(x.coeffs[0]) >= 0.0, 1.0, -1.0)
    e = lift("exp", x * sgn * (-2.0))
    return (1.0 - e) / (1.0 + e) * sgn


def sinhc(t, order, scale=1.0):
    """Jet of sinh(s t)/(s t) in t at the nodes t."""
    t = np.asarray(t, dtype=float)
    small = np.abs(scale * t) < 1.0
    ts = np.where(small, t, 0.0)
    series = np.array([sum(scale ** (2 * j) * math.comb(2 * j, m) / math.factorial(2 * j + 1)
                           * ts ** (2 * j - m) for j in range((m + 1) // 2, 35))
                       for m in range(order + 1)])
    u = Jet.variable(np.where(small, 1.0 / scale, t), order) * scale
    large = (sinh_cosh(u)[0] * lift("reciprocal", u)).coeffs
    return Jet(np.where(small, series, large))


def ratio(t, order, scale=1.0):
    """Jet of (s t)/sinh(s t) in t at the nodes t, as the reciprocal of sinhc."""
    return lift("reciprocal", sinhc(t, order, scale))
