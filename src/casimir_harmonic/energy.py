"""Renormalized bulk energy of the trap, by two routes that share no code.

Route one stays numerical: after n integrations by parts the energy is a
single weighted half-line integral of the n-th derivative of
(tau/sinh tau)^d, convergent once n >= d+1; the derivative is the top
coefficient of ``jets.sinh_ratio_jet``, the integral from the weighted
half-line rule.  Route two is
arithmetic: the hyperbolic moments I_n(s) = int tau^(s-1) sinh^-n(tau) dtau
reduce to Riemann zeta values for n in {1, 2} and climb to any n by a
two-step recursion that stays valid off the convergent region, and the
energy is the one continued moment -I_d(-1/2) / (2^(d+2) sqrt pi).
The two routes agreeing to ten digits is the library's main self-check.

Two supporting diagnostics live here as well: a degeneracy-weighted sum over
the oscillator spectrum (an oracle that bypasses every integral in the
package), and the scan of would-be surface terms over growing enclosing balls.
"""

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .jets import sinh_ratio_jet
from .quadrature import integrate_semiaxis
from .specfun import gamma, riemann_zeta


@dataclass(frozen=True)
class EnergyResult:
    """One bulk-energy figure E/k, tagged with the route that produced it."""
    value_per_k: float
    method: str
    err_estimate: float


# -- route one: integration-by-parts quadrature ------------------------


def bulk_energy_quadrature(d, n=None, tol=1e-10):
    """E/k for the d-dimensional trap by direct weighted quadrature.

    n is the number of integrations by parts; any n >= d+1 gives a
    convergent weight exponent n-d-3/2 > -1 and the same value.
    """
    if int(d) != d or d < 1:
        raise ValueError("dimension d must be a positive integer")
    d = int(d)
    if n is None:
        n = d + 1
    if int(n) != n or n < d + 1:
        raise ValueError("need n >= d+1 parts for a convergent weight exponent")
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError("tol must be finite and positive")
    n = int(n)
    pref = -1.0 / (2.0 ** (d + 2 - n) * math.sqrt(math.pi))
    for i in range(n):
        pref /= 2.0 * (d - i) + 1.0
    # the n-th derivative of (tau/sinh tau)^d is n! times the top coefficient of its jet
    top = sinh_ratio_jet(n, d, top_only=True)
    value, err = integrate_semiaxis(lambda tau: math.factorial(n) * top(tau), n - d - 1.5, tol)
    return EnergyResult(pref * value, "quadrature", abs(pref) * err)


# -- route two: hyperbolic moments and zeta values ---------------------


def In_quadrature(n, s, tol=1e-11):
    """int_0^inf tau^(s-1) / sinh^n(tau) dtau in the convergent region s > n."""
    if int(n) != n or n < 1:
        raise ValueError("n must be a positive integer")
    if not math.isfinite(s):
        raise ValueError("s must be finite")
    if s <= n:
        raise ValueError("integral diverges at tau = 0 for s <= n; use In_zeta")
    n = int(n)

    value, _ = integrate_semiaxis(sinh_ratio_jet(0, n, top_only=True), s - 1.0 - n, tol)
    return value


def In_zeta(n, s):
    """The same moment by meromorphic continuation, valid for any good s.

    Base cases are Riemann zeta forms; higher n comes from the two-step
    recursion, which needs the moment at s and at s-2 two n-steps down.
    """
    if int(n) != n or n < 1:
        raise ValueError("n must be a positive integer")
    if not math.isfinite(s):
        raise ValueError("s must be finite")
    n = int(n)
    if n <= 2:
        if abs(s - round(s)) < 1e-12 and round(s) <= 0:
            raise ValueError(f"gamma factor of I_{n} has a pole at s = {s}")
        if abs(s - (1.0 if n == 1 else 2.0)) < 1e-12:
            raise ValueError(f"zeta factor of I_{n} has a pole at s = {s}")
        if n == 1:
            val = 2.0 * (1.0 - 2.0 ** (-s)) * gamma(s) * riemann_zeta(s)
        else:
            val = 2.0 ** (2.0 - s) * gamma(s) * riemann_zeta(s - 1.0)
        if not math.isfinite(val):
            raise ValueError(f"I_{n}({s}) evaluates through a pole")
        return val
    m = n - 2
    return (-(m / (m + 1.0)) * In_zeta(m, s)
            + (s - 1.0) * (s - 2.0) / (m * (m + 1.0)) * In_zeta(m, s - 2.0))


def bulk_energy_zeta(d):
    """E/k = -I_d(-1/2) / (2^(d+2) sqrt(pi)), d in {1, 2, 3}.

    Route one, pref * int tau^(n-d-3/2) f^(n) dtau with f = (tau/sinh tau)^d,
    integrated back by parts n times, is pref (-1)^n prod_{i<n} (n-d-3/2-i)
    int tau^(-d-3/2) f dtau = -I_d(-1/2) / (2^(d+2) sqrt(pi)), for every n.
    """
    if d not in (1, 2, 3):
        raise ValueError("closed zeta forms cover d in {1, 2, 3}")
    val = -In_zeta(d, -0.5) / (2.0 ** (d + 2) * math.sqrt(math.pi))
    return EnergyResult(val, "zeta", 1e-12)


# -- diagnostics: spectral sum and boundary scan -----------------------


@functools.lru_cache(maxsize=8)
def _spectral_levels(d, terms):
    """Read-only levels x = 2m + d (m < terms), their degeneracies, and binom(m+d-1, d-1) as a
    polynomial in x, prod_{j<d} (x + 2j - d) / (2^(d-1) (d-1)!), highest power first; built once."""
    roots = [float(d - 2 * j) for j in range(1, d)]
    c = (np.poly(roots) if roots else np.array([1.0])) / (2.0 ** (d - 1) * math.factorial(d - 1))
    x = 2.0 * np.arange(terms, dtype=float) + d
    degeneracy = np.polyval(c, x)
    x.flags.writeable = degeneracy.flags.writeable = c.flags.writeable = False
    return x, degeneracy, c


def spectral_trace_oracle(d, s, terms=20000, tol=1e-12):
    """Sum of binom(m+d-1, d-1) (2m+d)^-s over the oscillator levels.

    Computed head-on from the spectrum (no integrals anywhere), with an
    Euler-Maclaurin completion of the tail past `terms`; warns when the
    completion's own error term exceeds tol.
    """
    if int(d) != d or d < 1:
        raise ValueError("dimension d must be a positive integer")
    if int(terms) != terms or terms < 1:
        raise ValueError("terms must be a positive integer")
    d, terms = int(d), int(terms)
    if not d < s < math.inf:
        raise ValueError("spectral sum converges only for finite s > d")
    x, degeneracy, c = _spectral_levels(d, terms)
    powers = np.arange(len(c) - 1, -1, -1, dtype=float)
    head = float(np.sum(degeneracy * x ** (-s)))
    xM = 2.0 * terms + d
    integral = float(np.sum(c * xM ** (powers - s + 1.0) / (2.0 * (s - powers - 1.0))))
    f0 = float(np.sum(c * xM ** (powers - s)))
    f1 = float(np.sum(c * 2.0 * (powers - s) * xM ** (powers - s - 1.0)))
    f3 = float(np.sum(c * 8.0 * (powers - s) * (powers - s - 1.0)
                      * (powers - s - 2.0) * xM ** (powers - s - 3.0)))
    err = abs(f3) / 720.0
    if err > tol:
        warnings.warn(f"spectral tail error term {err:.2e} exceeds tol {tol:.2e};"
                      " raise terms", RuntimeWarning)
    return head + integral + 0.5 * f0 - f1 / 12.0


def _tanh_over_tau(tau):
    out = np.ones_like(tau)
    nz = tau != 0.0
    out[nz] = np.tanh(tau[nz]) / tau[nz]
    return out


def boundary_energy_scan(d, u, ell_values, tol=1e-10):
    """Surface-term integrals over balls of growing rescaled radius ell.

    Returns one integral per ell.  The weight exponent (u+1-d)/2 must
    exceed -1, i.e. u > d-3.  At ell = 0 the ell^d prefactor kills the
    integrand, so the value is exactly zero.

    A word on trends: the small-tau mass of the integrand scales like
    ell^(2d-3-u), so the scan decays with ell only for u > 2d-3; below
    that the surface term of the finite ball genuinely grows, and the
    vanishing of the renormalized surface energy is a statement about
    continuation in u, not about any single scan at small u.
    """
    if int(d) != d or d < 1:
        raise ValueError("dimension d must be a positive integer")
    d = int(d)
    if not d - 3 < u < math.inf:
        raise ValueError("weight exponent needs finite u > d-3")
    lam = 0.5 * (u + 1.0 - d)
    ell = np.array([float(e) for e in ell_values])[:, None]
    if not np.all((ell >= 0.0) & (ell < np.inf)):
        raise ValueError("ball radius must be finite and nonnegative")

    weight = sinh_ratio_jet(0, 0.5 * d, top_only=True)

    def smooth(tau):
        tau = np.asarray(tau, dtype=float)
        return (ell ** d * 2.0 ** (-0.5 * d) * _tanh_over_tau(tau) * weight(2.0 * tau)
                * np.exp(-ell * ell * np.tanh(tau)))

    values, _ = integrate_semiaxis(smooth, lam, tol)
    return list(values)
