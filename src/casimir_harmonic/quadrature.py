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

Step schedule.  Each rule runs as a generator that yields the nodes of its
next step and receives f's values on them; ``_step_together`` joins the
nodes of every rule still running and calls f once per step.  The first
step is wide: the tanh-sinh rule asks for the centre and levels 0-3, the
tail for its six panels [1, 2] ... [32, 64], both Gauss-Legendre rules.
Most integrals stop within that step (an entry's error is inf until level
1, so none stops before level 2), and a rule reads a level's or panel's
values only once it reaches it: the values past the point where every
entry stops are dropped unread.  Each later step holds one branch of the
next tanh-sinh level, x -> 1 then x -> 0, and one tail panel, while the
rules run.  So ``integrate_semiaxis`` makes one integrand call for most
integrands, and f must accept every node of the first step, up to
tau = 64, whether or not the rules go that far.  Branch sums, panel dot
products, accumulation order and stopping rules are those of each rule run
on its own, so values and errors are the same bit for bit.

Errors.  A rule that fails raises ``QuadratureError``.  When both rules of
``integrate_semiaxis`` fail, the unit-interval rule's error is raised, as
if the unit piece were integrated first; a tail failure is raised once
the unit rule has finished without one.  An exception raised by f itself
propagates from the call that raised it.

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
_FIRST_LEVEL = 3  # the first step holds tanh-sinh levels 0.._FIRST_LEVEL
_FIRST_PANELS = 6  # the first step holds the tail panels [1, 2] ... [32, 64]


def _unit_rule(lam, tol):
    """Step generator of the tanh-sinh rule for int_0^1 x^lam f(x) dx."""
    if lam <= -1.0:
        raise ValueError("weight exponent must satisfy lam > -1")
    first = [_ts_branches(lam, 0.5 ** (level + 1), level > 0) for level in range(_FIRST_LEVEL + 1)]
    # the centre t = 0 -> x = 1/2, then the first levels, two branches each;
    # a branch's values are read only once the rule reaches its level
    center, *pending = yield [np.array([0.5])] + [x for level in first for x, _ in level]

    def level_sum(level, h):
        total = 0.0
        branches = first[level] if level <= _FIRST_LEVEL else _ts_branches(lam, h, odd_only=True)
        for x, w in branches:
            v = pending.pop(0) if pending else (yield [x])[0]
            total += np.sum(w * v, axis=-1)
            del v       # the step's values must not outlive it
        return total

    h = 0.5
    acc = 0.5 ** lam * center[..., 0] * 0.25 * np.pi + (yield from level_sum(0, h))
    del center
    value = h * acc
    # err holds the last level difference until an entry stops, then its estimate
    err = np.full(np.shape(value), np.inf)
    active = np.ones(np.shape(value), dtype=bool)
    for level in range(1, _MAX_LEVEL + 1):
        if not active.any():
            break
        h *= 0.5
        acc = acc + (yield from level_sum(level, h))
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


def _gl_panel(a):
    """(half width, 40-point nodes, 20-point nodes) of the panel [a, 2a]."""
    b = 2.0 * a
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return half, mid + half * _GL_HI[0], mid + half * _GL_LO[0]


def _tail_rule(alpha, tol):
    """Step generator of the Gauss-Legendre panels of int_1^inf tau^alpha f(tau) dtau."""
    first = [_gl_panel(2.0 ** i) for i in range(_FIRST_PANELS)]
    # a panel's values are read only once the rule reaches it
    pending = yield [x for _, x_hi, x_lo in first for x in (x_hi, x_lo)]
    tail_val, tail_err, prev_mag, active = 0.0, 0.0, np.inf, None
    a = 1.0
    while a < 16384.0 and (active is None or active.any()):
        b = 2.0 * a
        half, x_hi, x_lo = first.pop(0) if first else _gl_panel(a)
        v_hi, v_lo = (pending.pop(0), pending.pop(0)) if pending else (yield [x_hi, x_lo])
        hi = _gl_sum(half, _GL_HI[1], x_hi ** alpha * v_hi)
        lo = _gl_sum(half, _GL_LO[1], x_lo ** alpha * v_lo)
        del v_hi, v_lo      # the step's values must not outlive it
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
        a = b
    if active.any():
        raise QuadratureError("semiaxis tail did not decay below tolerance by tau = 16384")
    return tail_val, tail_err


def _step_together(f, rules):
    """Run step generators side by side, calling f once per step.

    Each step concatenates the nodes that the running rules yield and
    sends each rule f's values on its own nodes.  Returns the rules'
    results in order.  A rule's ``QuadratureError`` is raised once no
    earlier rule is running, so an earlier rule's error wins.
    """
    asks = {i: next(rule) for i, rule in enumerate(rules)}
    results, failed = [None] * len(rules), {}
    while asks:
        x = np.concatenate([nodes for ask in asks.values() for nodes in ask])
        vals = np.asarray(f(x), dtype=float)
        if vals.shape[-1:] != x.shape:      # a scalar f is constant along the nodes
            vals = np.broadcast_to(vals, vals.shape[:-1] + x.shape)
        start = 0
        for i, ask in list(asks.items()):
            parts = []
            for nodes in ask:
                parts.append(vals[..., start:start + nodes.size])
                start += nodes.size
            try:
                asks[i] = rules[i].send(parts)
            except StopIteration as stop:
                results[i] = stop.value
                del asks[i]
            except QuadratureError as exc:
                failed[i] = exc
                del asks[i]
        del vals, parts     # free this step's values before the next call of f
        if failed and min(failed) < min(asks, default=len(rules)):
            raise failed[min(failed)]
    return results


def integrate_unit_interval(f, lam, tol=1e-12):
    """int_0^1 x^lam f(x) dx, lam > -1; f elementwise over node arrays."""
    (result,) = _step_together(f, [_unit_rule(lam, tol)])
    return result


def integrate_semiaxis(integrand, alpha, tol=1e-11):
    """int_0^inf tau^alpha integrand(tau) dtau, alpha > -1; see module docstring."""
    (unit_val, unit_err), (tail_val, tail_err) = _step_together(
        integrand, [_unit_rule(alpha, 0.5 * tol), _tail_rule(alpha, tol)])
    return (unit_val + tail_val)[()], (unit_err + tail_err)[()]
