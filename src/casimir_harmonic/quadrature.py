"""Adaptive quadrature for endpoint-weighted integrands.

Two entry points:

* ``integrate_unit_interval(f, lam, tol)`` -- int_0^1 x^lam f(x) dx by a
  tanh-sinh (double-exponential) rule.  The weight x^lam (lam > -1) is
  applied analytically in log space, so f only ever sees interior nodes;
  integrable endpoint blow-ups of f itself are also absorbed by the
  double-exponential clustering.

* ``integrate_semiaxis(WeightedIntegrand, tol)`` -- int_0^inf
  tau^alpha f(tau) dtau, split at tau = 1: the unit piece goes through the
  tanh-sinh rule, the tail through Gauss-Legendre panels on doubling
  intervals [1,2], [2,4], ... truncated once the panel bound drops below
  the tolerance.

f may return shape (..., nodes): each leading entry is an integral of its
own on the same nodes, with its own stopping rule and error estimate, so
it gets exactly the value of a call on that entry alone.

Both return ``(value, err_estimate)`` with a deliberately conservative
estimate (observed true error stays below it on the golden integrals).
"""

from dataclasses import dataclass

import numpy as np


class QuadratureError(RuntimeError):
    """Raised when a rule fails to reach the requested tolerance."""


@dataclass
class WeightedIntegrand:
    """tau^alpha * smooth_part(tau) on (0, inf)."""
    alpha: float
    smooth_part: object

    def __post_init__(self):
        if self.alpha <= -1.0:
            raise ValueError("weight exponent must satisfy alpha > -1")


_TMAX = 6.0  # tanh-sinh truncation; keeps |2u| < 700 so nothing underflows


def _ts_nodes(h, odd_only):
    j = np.arange(1, int(np.floor(_TMAX / h)) + 1)
    if odd_only:
        j = j[j % 2 == 1]
    t = j * h
    u = 0.5 * np.pi * np.sinh(t)
    # x = sigma(2u) in stable form, together with ln x and ln(1-x)
    ln_x_pos = -np.log1p(np.exp(-2.0 * u))     # ln sigma(+2u), the x -> 1 branch
    ln_x_neg = -2.0 * u + ln_x_pos             # ln sigma(-2u), the x -> 0 branch
    # dx/dt = (pi/4) cosh(t) sech^2(u), kept in log form so negative weight
    # exponents cannot overflow before the product is assembled
    ln_jac = np.log(0.25 * np.pi) + np.log(np.cosh(t)) + 2.0 * (np.log(2.0) - u - np.log1p(np.exp(-2.0 * u)))
    return ln_x_pos, ln_x_neg, ln_jac


def _ts_sum(f, lam, h, odd_only):
    """Sum of weighted integrand over tanh-sinh nodes (center excluded unless level 0)."""
    ln_xp, ln_xn, ln_jac = _ts_nodes(h, odd_only)
    total = 0.0
    for ln_x in (ln_xp, ln_xn):
        x = np.exp(ln_x)
        w = np.exp(lam * ln_x + ln_jac)
        vals = w * np.asarray(f(x), dtype=float)
        total += np.sum(vals, axis=-1)
    return total


_MAX_LEVEL = 11  # halvings of the tanh-sinh step after the first level


def integrate_unit_interval(f, lam, tol=1e-12):
    """int_0^1 x^lam f(x) dx, lam > -1; f vectorized over node arrays."""
    if lam <= -1.0:
        raise ValueError("weight exponent must satisfy lam > -1")
    h = 0.5
    # center node t = 0 -> x = 1/2
    f_half = (np.asarray(f(np.array([0.5])), dtype=float) * np.ones(1))[..., 0]
    center = 0.5 ** lam * f_half * 0.25 * np.pi
    acc = center + _ts_sum(f, lam, h, odd_only=False)
    value = h * acc
    # err holds the last level difference until an entry stops, then its estimate
    err = np.full(np.shape(value), np.inf)
    active = np.ones(np.shape(value), dtype=bool)
    for _ in range(_MAX_LEVEL):
        if not active.any():
            break
        h *= 0.5
        acc = acc + _ts_sum(f, lam, h, odd_only=True)
        new_value = h * acc
        if not np.isfinite(new_value[active]).all():
            raise QuadratureError("unit-interval rule hit a non-finite integrand value")
        delta = abs(new_value - value)
        floor = 1e-16 * abs(new_value)
        done = active & (delta <= np.maximum(tol, floor)) & (err < np.inf)
        value = np.where(active, new_value, value)
        err = np.where(done, np.maximum(delta, floor), np.where(active, delta, err))
        active &= ~done
    if np.any(active & (err > np.maximum(tol * 100.0, 1e-13 * abs(value)))):
        raise QuadratureError(f"unit-interval rule stalled at error ~{np.max(err[active]):.2e}")
    return value[()], err[()]


_GL_HI = np.polynomial.legendre.leggauss(40)
_GL_LO = np.polynomial.legendre.leggauss(20)


def _gl_rule(g, a, b, rule):
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    xi, w = rule
    vals = np.asarray(g(mid + half * xi), dtype=float)
    # one dot product per entry: a matrix-vector product rounds differently,
    # and every entry must equal the call on that entry alone
    rows = vals.reshape(-1, vals.shape[-1])
    return half * np.array([np.dot(w, row) for row in rows]).reshape(vals.shape[:-1])


def integrate_semiaxis(integrand, tol=1e-11):
    """Weighted integral over (0, inf); see module docstring."""
    alpha, f = integrand.alpha, integrand.smooth_part
    unit_val, unit_err = integrate_unit_interval(f, alpha, 0.5 * tol)

    def tail_g(x):
        return x ** alpha * np.asarray(f(x), dtype=float)

    tail_val, tail_err, prev_mag = 0.0, 0.0, np.inf
    active = np.ones(np.shape(unit_val), dtype=bool)
    a = 1.0
    while a < 16384.0 and active.any():
        b = 2.0 * a
        hi, lo = _gl_rule(tail_g, a, b, _GL_HI), _gl_rule(tail_g, a, b, _GL_LO)
        if not np.isfinite(hi[active]).all():
            raise QuadratureError(f"semiaxis panel [{a:g}, {b:g}] hit a non-finite integrand value")
        mag = abs(hi)
        done = active & (mag < 0.01 * tol) & (mag < prev_mag)
        # geometric continuation bound for everything past this panel
        ratio = np.where(prev_mag < np.inf, mag / prev_mag, 0.5)
        bound = np.where(done, mag * ratio / np.maximum(1.0 - ratio, 0.5), 0.0)
        tail_val = np.where(active, tail_val + hi, tail_val)
        tail_err = np.where(active, tail_err + abs(hi - lo) + bound, tail_err)
        active &= ~done
        prev_mag = np.where(mag > 0.0, mag, prev_mag)
        a = b
    if active.any():
        raise QuadratureError("semiaxis tail did not decay below tolerance by tau = 16384")
    return (unit_val + tail_val)[()], (unit_err + tail_err)[()]
