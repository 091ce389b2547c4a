"""Adaptive quadrature for endpoint-weighted integrands.

Two entry points:

* ``integrate_unit_interval(f, lam, tol)`` -- int_0^1 x^lam f(x) dx by a
  tanh-sinh (double-exponential) rule.  The weight x^lam (lam > -1) is
  applied analytically in log space, so f only ever sees interior nodes;
  integrable endpoint blow-ups of f itself are also absorbed by the
  double-exponential clustering.

* ``integrate_semiaxis(f, alpha, tol)`` -- int_0^inf tau^alpha f(tau) dtau
  (alpha > -1), split at tau = 1: the unit piece goes through the tanh-sinh
  rule at 0.5 * tol, the tail through Gauss-Legendre panels on doubling
  intervals [1,2], [2,4], ... truncated once the panel bound drops below
  the tolerance.

f is elementwise along the node axis: its value at a node depends on that
node alone, whatever other nodes share the call.  Every integrand in the
package is.  f may return shape (..., nodes): each leading entry is an
integral of its own on the same nodes, with its own stopping rule and
error estimate, so it gets exactly the value of a call on that entry
alone.  A scalar return value is constant along the nodes.

Call schedule.  The first integrand call is wide: it holds the centre
x = 1/2, the two branches of tanh-sinh levels 0-3 and, for
``integrate_semiaxis``, the six tail panels [1, 2] ... [32, 64], both
Gauss-Legendre rules.  Most integrals stop within it (an entry's error is
inf until level 1, so none stops before level 2), and a rule reads a
level's or panel's values only once it reaches it: the values past the
point where every entry stops are dropped unread.  Then the tanh-sinh rule
runs to its end, calling f once per further branch, x -> 1 then x -> 0,
and after it the tail rule, once per further panel.  So most integrals
take one integrand call, and f must accept every node of the first call,
up to tau = 64, whether or not the rules go that far.  Branch sums, panel
dot products, accumulation order and stopping rules are those of each rule
run on its own, so values and errors do not depend on the schedule.

Errors.  A rule that fails raises ``QuadratureError``.  The tail rule of
``integrate_semiaxis`` runs only once the unit-interval rule has finished,
so when both would fail, the unit-interval error is raised.  An exception
raised by f itself propagates from the call that raised it.

Both return ``(value, err_estimate)`` with a deliberately conservative
estimate (observed true error stays below it on the golden integrals).
"""

import functools

import numpy as np


class QuadratureError(RuntimeError):
    """Raised when a rule fails to reach the requested tolerance."""


_TMAX = 6.0  # tanh-sinh truncation; keeps |2u| < 700 so nothing underflows


@functools.lru_cache(maxsize=32)
def _ts_nodes(h, odd_only):
    """Read-only (ln x, x -> 1 branch; ln x, x -> 0 branch; ln dx/dt) of the
    tanh-sinh nodes of step h; they depend on h alone, so each is built once."""
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
    for a in (ln_x_pos, ln_x_neg, ln_jac):
        a.flags.writeable = False
    return ln_x_pos, ln_x_neg, ln_jac


def _ts_branches(lam, h, odd_only):
    """(x, w) of the x -> 1 and the x -> 0 branch of one tanh-sinh level."""
    ln_xp, ln_xn, ln_jac = _ts_nodes(h, odd_only)
    return [(np.exp(ln_x), np.exp(lam * ln_x + ln_jac)) for ln_x in (ln_xp, ln_xn)]


_MAX_LEVEL = 11  # halvings of the tanh-sinh step after the first level
_FIRST_LEVEL = 3  # the first call holds tanh-sinh levels 0.._FIRST_LEVEL
_FIRST_PANELS = 6  # the first call holds the tail panels [1, 2] ... [32, 64]


def _call(f, nodes):
    """f's values on each array of nodes, from one call on all of them."""
    x = np.concatenate(nodes)
    vals = np.asarray(f(x), dtype=float)
    if vals.shape[-1:] != x.shape:      # a scalar f is constant along the nodes
        vals = np.broadcast_to(vals, vals.shape[:-1] + x.shape)
    ends = np.cumsum([n.size for n in nodes]).tolist()
    return [vals[..., end - n.size:end] for n, end in zip(nodes, ends)]


def _unit_rule(f, lam, tol, center, first):
    """Tanh-sinh rule for int_0^1 x^lam f(x) dx.  center holds f(1/2) and
    first the (w, f(x)) of each branch of levels 0.._FIRST_LEVEL, x -> 1
    then x -> 0; f is called once per further branch."""

    def level_sum(level, h):
        total = 0.0
        if level <= _FIRST_LEVEL:
            for w, v in first[2 * level:2 * level + 2]:
                total += np.sum(w * v, axis=-1)
        else:
            for x, w in _ts_branches(lam, h, odd_only=True):
                total += np.sum(w * _call(f, [x])[0], axis=-1)
        return total

    h = 0.5
    acc = 0.5 ** lam * center[..., 0] * 0.25 * np.pi + level_sum(0, h)
    value = h * acc
    # err holds the last level difference until an entry stops, then its estimate
    err = np.full(np.shape(value), np.inf)
    active = np.ones(np.shape(value), dtype=bool)
    for level in range(1, _MAX_LEVEL + 1):
        if not active.any():
            break
        h *= 0.5
        acc = acc + level_sum(level, h)
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


def _gl_sum(half, w, vals):
    # one dot product per entry: a matrix-vector product rounds differently,
    # and every entry must equal the call on that entry alone
    rows = vals.reshape(-1, vals.shape[-1])
    return half * np.array([np.dot(w, row) for row in rows]).reshape(vals.shape[:-1])


@functools.lru_cache(maxsize=16)
def _gl_panel(a):
    """(half width, 40-point nodes, 20-point nodes) of [a, 2a]; shared, never written."""
    b = 2.0 * a
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return half, mid + half * _GL_HI[0], mid + half * _GL_LO[0]


def _tail_rule(f, alpha, tol, first):
    """Gauss-Legendre panels of int_1^inf tau^alpha f(tau) dtau.  first holds
    f's values on the 40- and 20-point nodes of each of the first call's
    panels; f is called once per further panel."""
    tail_val, tail_err, prev_mag, active = 0.0, 0.0, np.inf, None
    a, panel = 1.0, 0
    while a < 16384.0 and (active is None or active.any()):
        b = 2.0 * a
        half, x_hi, x_lo = _gl_panel(a)
        v_hi, v_lo = first[panel] if panel < len(first) else _call(f, [x_hi, x_lo])
        hi = _gl_sum(half, _GL_HI[1], x_hi ** alpha * v_hi)
        lo = _gl_sum(half, _GL_LO[1], x_lo ** alpha * v_lo)
        if active is None:
            active = np.ones(np.shape(hi), dtype=bool)
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
        a, panel = b, panel + 1
    if active.any():
        raise QuadratureError("semiaxis tail did not decay below tolerance by tau = 16384")
    return tail_val, tail_err


def _first_call(f, lam, panels):
    """(f(1/2), the (w, f(x)) of each first-level branch, the (40-point,
    20-point) values of the first `panels` tail panels) from one call of f."""
    if lam <= -1.0:
        raise ValueError("weight exponent must satisfy lam > -1")
    branches = [b for level in range(_FIRST_LEVEL + 1)
                for b in _ts_branches(lam, 0.5 ** (level + 1), level > 0)]
    tail = [x for i in range(panels) for x in _gl_panel(2.0 ** i)[1:]]
    center, *vals = _call(f, [np.array([0.5])] + [x for x, _ in branches] + tail)
    tail = vals[len(branches):]
    return center, [(w, v) for (_, w), v in zip(branches, vals)], list(zip(tail[::2], tail[1::2]))


def integrate_unit_interval(f, lam, tol=1e-12):
    """int_0^1 x^lam f(x) dx, lam > -1; f elementwise over node arrays."""
    center, first, _ = _first_call(f, lam, 0)
    return _unit_rule(f, lam, tol, center, first)


def integrate_semiaxis(integrand, alpha, tol=1e-11):
    """int_0^inf tau^alpha integrand(tau) dtau, alpha > -1; see module docstring."""
    center, first, tail = _first_call(integrand, alpha, _FIRST_PANELS)
    unit_val, unit_err = _unit_rule(integrand, alpha, 0.5 * tol, center, first)
    tail_val, tail_err = _tail_rule(integrand, alpha, tol, tail)
    return (unit_val + tail_val)[()], (unit_err + tail_err)[()]
