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
inf until level 1, so none stops before level 2).  Then the tanh-sinh rule
runs to its end, calling f once per further branch, x -> 1 then x -> 0,
and after it the tail rule, once per further panel.  Each rule takes its
steps in blocks: the first call's levels 1-3 are one block and its six
panels another, each further level or panel a block of one.  Over a block
a rule finds each entry's stop at once; the values past it are never
read, and arithmetic on them raises no warning.  So most integrals take
one integrand call, and f must accept every node of the first call, up to
tau = 64, whether or not the rules go that far.  Branch sums, panel dot
products (one ``np.vecdot`` per block, which takes a BLAS dot per row as
``np.dot`` does), accumulation order and stopping rules are those of each
rule run on its own, a level or a panel at a time, so values and errors do
not depend on the schedule.

Errors.  A weight exponent that is not finite and > -1, or a tolerance
that is not finite and positive, raises ``ValueError`` before f is called;
so does a tol whose hundredth, the tail rule's threshold, underflows to 0.
A rule that fails raises ``QuadratureError``.  The tail rule of
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
_FIRST_H = 0.5 ** np.arange(1, _FIRST_LEVEL + 2)    # the steps of levels 0.._FIRST_LEVEL


def _call(f, x):
    """f's values on the node array x, shape (..., *x.shape), from one call."""
    vals = np.asarray(f(x.ravel()), dtype=float)
    if vals.shape[-1:] != (x.size,):    # a scalar f is constant along the nodes
        vals = np.broadcast_to(vals, vals.shape[:-1] + (x.size,))
    return vals.reshape(vals.shape[:-1] + x.shape)


def _unit_rule(f, lam, tol, accs):
    """Tanh-sinh rule for int_0^1 x^lam f(x) dx, an entry per row of accs, the
    running sums of levels 0.._FIRST_LEVEL; f is called once per further
    branch.  Levels 1.._FIRST_LEVEL are one block, each later level another;
    each entry stops at its first done level, as if the levels came one by one."""
    rows, seq = np.arange(len(accs)), _FIRST_H * accs    # seq: the value before a block, then its levels
    value, acc, h, level = seq[:, 0], accs[:, -1], _FIRST_H[-1], _FIRST_LEVEL
    # err holds the last level difference until an entry stops, then its estimate
    err, active = np.full(len(rows), np.inf), np.ones(len(rows), dtype=bool)
    while True:
        with np.errstate(all="ignore"):     # past an entry's stop, values may be anything
            delta = abs(seq[:, 1:] - seq[:, :-1])
            floor = 1e-16 * abs(seq[:, 1:])
            last = np.concatenate([err[:, None], delta[:, :-1]], axis=1)    # err before each level
            done = (delta <= np.maximum(tol, floor)) & (last < np.inf)
            stopped = done.any(axis=1)
            stop = np.where(stopped, done.argmax(axis=1), delta.shape[1] - 1)
            # inactive entries keep finite values; a non-finite level value stays so
            value = np.where(active, seq[rows, stop + 1], value)
            if not np.isfinite(value).all():
                raise QuadratureError("unit-interval rule hit a non-finite integrand value")
            est = delta[rows, stop]
            err = np.where(active, np.where(stopped, np.maximum(est, floor[rows, stop]), est), err)
        active &= ~stopped
        if level == _MAX_LEVEL and np.any(active & (err > np.maximum(tol * 100.0, 1e-13 * abs(value)))):
            raise QuadratureError(f"unit-interval rule stalled at error ~{np.max(err[active]):.2e}")
        if level == _MAX_LEVEL or not active.any():
            return value, err
        level, h, total = level + 1, 0.5 * h, 0.0
        for x, w in _ts_branches(lam, h, odd_only=True):
            total += np.sum(w * _call(f, x), axis=-1)
        acc = acc + np.reshape(total, -1)
        seq = np.stack([value, h * acc], axis=1)


def _gl_rule(nodes, weights):
    """Read-only (nodes, weights) of a Gauss-Legendre rule on [-1, 1] from the
    ascending positive half of each; the rule is symmetric about 0."""
    x = np.concatenate([-np.array(nodes[::-1]), nodes])
    w = np.concatenate([weights[::-1], weights])
    x.flags.writeable = w.flags.writeable = False
    return x, w


# Bit for bit np.polynomial.legendre.leggauss(40) and (20), as a test checks;
# literals keep numpy.polynomial and its eigensolve out of every import.
_GL_HI = _gl_rule(
    [0.038772417506050816, 0.11608407067525521, 0.1926975807013711, 0.2681521850072537,
     0.3419940908257585, 0.413779204371605, 0.4830758016861787, 0.5494671250951282,
     0.6125538896679802, 0.6719566846141796, 0.7273182551899271, 0.7783056514265194,
     0.8246122308333117, 0.8659595032122595, 0.9020988069688742, 0.9328128082786765,
     0.9579168192137917, 0.9772599499837743, 0.990726238699457, 0.9982377097105591],
    [0.07750594797842451, 0.07703981816424763, 0.07611036190062598, 0.07472316905796794,
     0.07288658239580377, 0.07061164739128656, 0.06791204581523368, 0.06480401345660076,
     0.061306242492928834, 0.05743976909939129, 0.0532278469839367, 0.04869580763507193,
     0.04387090818567321, 0.03878216797447219, 0.03346019528254789, 0.027937006980023434,
     0.022245849194166653, 0.016421058381906828, 0.010498284531153814, 0.004521277098536349])
_GL_LO = _gl_rule(
    [0.07652652113349734, 0.22778585114164507, 0.37370608871541955, 0.5108670019508271,
     0.636053680726515, 0.7463319064601508, 0.8391169718222188, 0.912234428251326,
     0.9639719272779138, 0.993128599185095],
    [0.15275338713072628, 0.14917298647260424, 0.1420961093183824, 0.1316886384491769,
     0.1181945319615186, 0.1019301198172407, 0.08327674157670471, 0.06267204833410879,
     0.040601429800386446, 0.017614007139150893])


def _gl_sum(half, w, vals):
    # vecdot takes one BLAS dot per row, as np.dot(w, row) does: a matrix-vector
    # product rounds differently, and every entry must equal its own call
    return half * np.vecdot(vals, w)


@functools.lru_cache(maxsize=16)
def _gl_block(p, count):
    """(half widths, nodes) of `count` tail panels from [2^p, 2^(p+1)] on, a
    row per panel: 40-point nodes, then 20-point nodes.  Shared, never written."""
    a = 2.0 ** np.arange(p, p + count, dtype=float)
    b = 2.0 * a
    mid, half = 0.5 * (a + b)[:, None], 0.5 * (b - a)
    x = np.concatenate([mid + half[:, None] * _GL_HI[0], mid + half[:, None] * _GL_LO[0]], axis=1)
    half.flags.writeable = x.flags.writeable = False
    return half, x


def _tail_rule(f, alpha, tol, vals):
    """Gauss-Legendre panels of int_1^inf tau^alpha f(tau) dtau, an entry per
    row of vals, f's values on the first call's panels: they are one block,
    each further panel another, from its own call of f.  Each entry stops at
    its first done panel, as if the panels came one by one."""
    rows, p = np.arange(len(vals)), 0
    val, err, prev = np.zeros(len(rows)), np.zeros(len(rows)), np.full(len(rows), np.inf)
    active = np.ones(len(rows), dtype=bool)
    while True:
        count = vals.shape[1]
        half, x = _gl_block(p, count)
        with np.errstate(all="ignore"):     # past an entry's stop, values may be anything
            g = x ** alpha * vals
            hi = _gl_sum(half, _GL_HI[1], g[..., :40])
            lo = _gl_sum(half, _GL_LO[1], g[..., 40:])
            # each panel's previous magnitude: the last positive one before it
            m = np.concatenate([prev[:, None], abs(hi)], axis=1)
            m_pos = m[rows[:, None], np.maximum.accumulate(np.where(m > 0.0, np.arange(count + 1), 0), axis=1)]
            mag, prev_mag = m[:, 1:], m_pos[:, :-1]
            done = (mag < 0.01 * tol) & (mag < prev_mag)
            # geometric continuation bound for everything past the stopping panel
            ratio = np.where(prev_mag < np.inf, mag / prev_mag, 0.5)
            bound = np.where(done, mag * ratio / np.maximum(1.0 - ratio, 0.5), 0.0)
            stopped = done.any(axis=1)
            read = active[:, None] & (np.arange(count) <= np.where(stopped, done.argmax(axis=1), count - 1)[:, None])
            bad = read & ~np.isfinite(hi)
            if bad.any():
                a = 2.0 ** (p + bad.any(axis=0).argmax())
                raise QuadratureError(f"semiaxis panel [{a:g}, {2.0 * a:g}] hit a non-finite integrand value")
            # sequential sums through each entry's stop: a panel past it, or an
            # inactive entry, adds +0.0, and none of these sums is ever -0.0
            val = np.add.accumulate(np.concatenate([val[:, None], np.where(read, hi, 0.0)], axis=1), axis=1)[:, -1]
            steps = np.where(read[..., None], np.stack([abs(hi - lo), bound], axis=-1), 0.0)
            steps = np.concatenate([err[:, None], steps.reshape(len(rows), 2 * count)], axis=1)
            err = np.add.accumulate(steps, axis=1)[:, -1]
        prev = m_pos[:, -1]
        active &= ~stopped
        p += count
        if not active.any():
            return val, err
        if 2.0 ** p >= 16384.0:
            raise QuadratureError("semiaxis tail did not decay below tolerance by tau = 16384")
        vals = _call(f, _gl_block(p, 1)[1]).reshape(len(rows), 1, -1)


@functools.lru_cache(maxsize=1)
def _first_levels():
    """Read-only (ln x, ln dx/dt) of the branches of levels 0.._FIRST_LEVEL, x -> 1
    then x -> 0 per level, concatenated; each level's (start, branch length)."""
    levels = [_ts_nodes(0.5 ** (level + 1), level > 0) for level in range(_FIRST_LEVEL + 1)]
    ln_x = np.concatenate([ln_x for *ln_xs, _ in levels for ln_x in ln_xs])
    ln_jac = np.concatenate([ln_jac for *_, ln_jac in levels for _ in "+-"])
    ln_x.flags.writeable = ln_jac.flags.writeable = False
    sizes = [ln_jac.size for *_, ln_jac in levels]
    return ln_x, ln_jac, [(2 * sum(sizes[:level]), n) for level, n in enumerate(sizes)]


@functools.lru_cache(maxsize=2)
def _first_nodes(panels):
    """The first call's nodes, read-only: the centre, each branch of levels
    0.._FIRST_LEVEL, then the rows of the first `panels` tail panels."""
    x = np.concatenate([[0.5], np.exp(_first_levels()[0]), _gl_block(0, panels)[1].ravel()])
    x.flags.writeable = False
    return x


def _first_call(f, lam, tol, panels):
    """(the shape of f's values; a row per entry of the running sums of levels
    0.._FIRST_LEVEL, and of f's values on the first `panels` tail panels)."""
    if not -1.0 < lam < np.inf:
        raise ValueError("weight exponent must be finite and satisfy lam > -1")
    if not 0.0 < tol < np.inf:
        raise ValueError("tol must be finite and positive")
    if panels and 0.01 * tol == 0.0:    # the tail rule stops below 0.01 tol
        raise ValueError(f"tol {tol!r} is too small: the tail threshold 0.01 tol underflows to 0")
    vals = _call(f, _first_nodes(panels))
    shape, vals = vals.shape[:-1], vals.reshape(-1, vals.shape[-1])
    ln_x, ln_jac, spans = _first_levels()
    w = np.exp(lam * ln_x + ln_jac)
    with np.errstate(all="ignore"):     # levels past an entry's stop may hold anything
        wv = w * vals[:, 1:1 + w.size]
        # the branch sums, x -> 1 then x -> 0, one reduction per level
        s = np.concatenate([np.add.reduce(wv[:, a:a + 2 * n].reshape(len(wv), 2, n), axis=2)
                            for a, n in spans], axis=1)
        sums = np.concatenate([(0.5 ** lam * vals[:, 0] * 0.25 * np.pi)[:, None],
                               (0.0 + s[:, 0::2]) + s[:, 1::2]], axis=1)
        accs = np.add.accumulate(sums, axis=1)[:, 1:]
    return shape, accs, vals[:, 1 + w.size:].reshape((len(vals),) + _gl_block(0, panels)[1].shape)


def integrate_unit_interval(f, lam, tol=1e-12):
    """int_0^1 x^lam f(x) dx, lam > -1; f elementwise over node arrays."""
    shape, accs, _ = _first_call(f, lam, tol, 0)
    value, err = _unit_rule(f, lam, tol, accs)
    return value.reshape(shape)[()], err.reshape(shape)[()]


def integrate_semiaxis(integrand, alpha, tol=1e-11):
    """int_0^inf tau^alpha integrand(tau) dtau, alpha > -1; see module docstring."""
    shape, accs, tail = _first_call(integrand, alpha, tol, _FIRST_PANELS)
    unit_val, unit_err = _unit_rule(integrand, alpha, 0.5 * tol, accs)
    tail_val, tail_err = _tail_rule(integrand, alpha, tol, tail)
    return (unit_val + tail_val).reshape(shape)[()], (unit_err + tail_err).reshape(shape)[()]
