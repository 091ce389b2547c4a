"""Heat-kernel data for the isotropic harmonic background.

The oscillator heat kernel factorizes into 1d Mehler kernels; everything
downstream only needs a small set of hyperbolic functions of the
diagonal-time variable tau, assembled here as Taylor jets.  In the tau
chart the powers of 2 tau / sinh 2 tau are ``jets.sinh_ratio_jet``, so
they, and every integrand built from them, stay finite at any tau.

``bracket_factors`` gives the integrand coefficient of one stress-tensor
component: a shared prefactor (1/8)(4 pi)^(-d/2) (2 tau / sinh 2 tau)^(d/2)
e^(-r^2 tanh tau) times a bracket that is affine in the
analytic-continuation variable u and (for the u^0 part) linear in r^2.
The angular component is the reduced one, i.e. with the metric factor
(r/k)^2 stripped off.

Every bracket is linear in the coupling vector (one, xi): a float xi
stands for (1.0, xi), and ``XI_SLOPE`` = (0.0, 1.0) gives the exact
xi-slope of anything built from the brackets.
"""

import math
from dataclasses import dataclass

import numpy as np

from .jets import Jet, jet_lift_and_compose as lift, sinh_ratio_jet

# In d = 1, "theta1theta1_reduced" is the formal contraction with a unit
# vector orthogonal to x; it is not a component of the d = 1 tensor.
COMPONENTS = ("tt", "rr", "theta1theta1_reduced")

XI_SLOPE = (0.0, 1.0)


def xi_conformal(d):
    """Conformal coupling (d-1)/(4d) for d spatial dimensions."""
    if d < 1:
        raise ValueError("need d >= 1")
    return (d - 1.0) / (4.0 * d)


def part_coupling(d, xi, part):
    """The coupling whose profile is the given part of a component at xi."""
    couplings = {"diamond": xi_conformal(d), "square": XI_SLOPE, "raw": xi}
    if part not in couplings:
        raise ValueError("part must be 'diamond', 'square', or 'raw'")
    return couplings[part]


@dataclass
class HarmonicConfig:
    """Problem configuration: dimension, trap scale k, subtraction scale kappa, coupling xi."""
    d: int
    k: float = 1.0
    kappa: float = 1.0
    xi: float = 0.0

    def __post_init__(self):
        if self.d not in (1, 2, 3):
            raise ValueError("stress-tensor pipelines are implemented for d in {1, 2, 3}")
        if not all(math.isfinite(v) for v in (self.k, self.kappa, self.xi)):
            raise ValueError("k, kappa and xi must be finite")
        if self.k <= 0.0 or self.kappa <= 0.0:
            raise ValueError("scales k and kappa must be positive")
        try:
            scale = float(self.k) ** (self.d + 1)
        except OverflowError:
            scale = math.inf
        if not 0.0 < scale < math.inf:
            raise ValueError("k^(d+1), the scale of every stress value, must be a "
                             "positive finite float")
        # 2 kappa/k is the argument of the log in M = gamma_E + 2 ln(2 kappa/k)
        if not 0.0 < 2.0 * self.kappa_over_k < math.inf:
            raise ValueError("2 kappa/k, the argument of the log-scale constant, must be a "
                             "positive finite float")

    @property
    def kappa_over_k(self):
        return self.kappa / self.k


def mehler_kernel_1d(tau, x, y, k=1.0):
    """1d harmonic-oscillator heat kernel at rescaled time tau = k^2 t."""
    s2 = np.sinh(2.0 * tau)
    c2 = np.cosh(2.0 * tau)
    norm = k / np.sqrt(2.0 * np.pi * s2)
    return norm * np.exp(-0.5 * k * k * ((x * x + y * y) * c2 - 2.0 * x * y) / s2)


def heat_trace(tau, d):
    """Trace of the d-dimensional oscillator heat semigroup at tau = k^2 t."""
    return (2.0 * np.sinh(tau)) ** (-float(d))


class HyperbolicJets:
    """The hyperbolic building blocks as jets, in either of two charts.

    from_tau: jets in tau at positive nodes; the covariant derivative is
    plain d/dtau.  from_tanh: jets in v = tanh(tau); d/dtau becomes
    (1 - v^2) d/dv. The same bracket-assembly code runs in both charts.
    """

    def __init__(self, tau, th, ratio, ratio_pow, inv_cosh2, deriv):
        self.tau = tau                # tau itself
        self.th = th                  # tanh(tau)
        self.ratio = ratio            # 2 tau / sinh(2 tau)
        self._ratio_pow = ratio_pow   # p -> ratio^p
        self.inv_cosh2 = inv_cosh2    # 1 / cosh(tau)^2
        self.deriv = deriv            # jet -> jet, one order lower

    def ratio_power(self, p):
        """ratio^p as a jet in the chart; p = 1 is the ratio itself."""
        return self.ratio if p == 1 else self._ratio_pow(p)

    @staticmethod
    def from_tau(tau, order):
        """The tau chart at the nodes tau, to the given order."""
        tau = np.asarray(tau, dtype=float)
        tau_jet = Jet.variable(tau, order)
        # coefficient m in tau is 2^m times coefficient m in x = 2 tau
        scale = 2.0 ** np.arange(order + 1).reshape((-1,) + (1,) * tau.ndim)

        def ratio_pow(p):
            return Jet(sinh_ratio_jet(order, p)(2.0 * tau).coeffs * scale)

        # tanh and sech^2 from one E = exp(-2 sgn tau) and R = 1/(1 + E):
        # tanh = sgn (1 - E) R, and sech^2 = 4 E R^2 in exponential form,
        # since 1 - tanh^2 cancels to exactly zero past tau ~ 19.
        sgn = np.where(tau >= 0.0, 1.0, -1.0)
        e = lift("exp", tau_jet * (-2.0 * sgn))
        rec = lift("reciprocal", 1.0 + e)
        th = (1.0 - e) * rec * sgn
        inv_cosh2 = 4.0 * e * rec * rec
        return HyperbolicJets(tau_jet, th, ratio_pow(1), ratio_pow, inv_cosh2,
                              lambda j: j.derivative_jet())

    @staticmethod
    def from_tanh(v_jet):
        tau = lift("arcth", v_jet)
        vsq = v_jet * v_jet
        one_minus = 1.0 - vsq
        if np.all(np.abs(np.asarray(v_jet.coeffs[0])) < 1e-14):
            tau_over_v = tau.divide_by_increment()
        else:
            tau_over_v = tau / v_jet
        ratio = tau_over_v * one_minus
        def deriv(j):
            dj = j.derivative_jet()
            scale = Jet(v_jet.coeffs[: dj.order + 1].copy())
            return dj * (1.0 - scale * scale)
        return HyperbolicJets(tau, v_jet, ratio, lambda p: lift("pow", ratio, p),
                              one_minus, deriv)


def bracket_factors(d, comp, basis, xi):
    """Exponential-stripped factorization of the integrand coefficient.

    Returns (w, b0, b1, c) with
      H(u; r) = w * e^(-r^2 tanh tau) * [ (b0 + b1 r^2) + u * c ],
    w = (1/8)(4 pi)^(-d/2) ratio^(d/2); all four are jets in the basis chart.
    xi is a float coupling or a pair (one, xi); b0, b1 and c are linear in
    the pair, so XI_SLOPE yields their exact xi-slopes.
    """
    if d not in (1, 2, 3):
        raise ValueError("bracket_factors implemented for d in {1, 2, 3}")
    if comp not in COMPONENTS:
        raise ValueError(f"unknown component {comp!r}")
    one, xi = xi if isinstance(xi, tuple) else (1.0, xi)
    ratio = basis.ratio
    w = basis.ratio_power(0.5 * d) * (0.125 * (4.0 * np.pi) ** (-0.5 * d))

    # cosh(2 tau) enters only as cosh(2 tau) sech^2(tau) = 2 - sech^2(tau) and as
    # ratio cosh(2 tau) = 2 tau coth(2 tau) = ratio + 2 tau tanh(tau); the latter
    # makes the rr and theta-theta b0 one expression
    if comp == "tt":
        b0 = (one - 4.0 * xi) * float(d) * ratio - (one + 4.0 * xi)
        # ratio * sinh(4 tau)/(2 cosh(tau)^2) collapses to 2 tau cosh(2 tau)/cosh(tau)^2
        b1 = basis.tau * (2.0 - basis.inv_cosh2) * (2.0 * (one - 4.0 * xi))
        c = one + 4.0 * xi
    else:
        b0 = ratio * ((2.0 - d) * one + 4.0 * d * xi) + (basis.tau * basis.th) * (8.0 * xi) \
            - (one - 4.0 * xi)
        b1 = basis.tau * (basis.inv_cosh2 if comp == "rr" else 2.0 - basis.inv_cosh2) \
            * (-2.0 * (one - 4.0 * xi))
        c = one - 4.0 * xi
    return w, b0, b1, c
