"""Adaptive quadrature for endpoint-weighted integrands on the half-line.

``integrate_semiaxis(f, alpha, tol)`` is int_0^inf tau^alpha f(tau) dtau by
the exp-sinh rule, tau = exp(pi/2 sinh t) (Takahasi & Mori, Publ. RIMS 9
(1974) 721): trapezoidal sums in t on nested levels, from tau = e^-634 up to
tau = 64 or, where the tail has not decayed, by doublings up to 16384.  The
weight (exponent > -1) is applied in log space, so f sees interior nodes
only and integrable blow-ups of f at tau -> 0 are absorbed too.  It is the
package's one rule: an integral over a finite interval is mapped onto the
half-line by its caller.

f is elementwise along the node axis: its value at a node depends on that
node alone, whatever other nodes share the call.  Every integrand in the
package is.  f may return shape (..., nodes): each leading entry is an
integral of its own on the same nodes, with its own stop and error, so it
gets exactly the value of a call on that entry alone (a scalar is constant).

Call schedule.  Level 0 has step 1/2; each further level halves the step.
The first call holds levels 0-4 up to tau = 64, and f must accept all its
nodes.  An entry's error is the difference of its last two levels, and it
stops at the first level from 2 on where that is within tol or 1e-16 of the
value (see ``_levels``); values past the stop are never read and raise no
warning.  The rule then extends, one call per doubling, each entry whose top
doubling of tau, (32, 64] at first, holds TAIL_SHARE * tol or more, and adds
that doubling's magnitude to its error.  Each further level is one call.

Errors.  A weight exponent that is not finite and > -1, a tolerance that is
not finite and positive, or one whose tail threshold TAIL_SHARE * tol
underflows raises ``ValueError`` before f is called.  The rule raises
``QuadratureError`` on a non-finite value at a level it reads or in a top
doubling, on a tail not decayed by tau = 16384, or when its last level's
error exceeds 100 tol and 1e-13 of the value; what f raises propagates.  It
returns ``(value, err_estimate)``; the estimate includes the mass below the
lowest node, |f| there times tau^(alpha + 1) / (alpha + 1) at tau = e^-634.
"""

import functools

import numpy as np


class QuadratureError(RuntimeError):
    """Raised when the rule fails to reach the requested tolerance."""


TAIL_SHARE = 0.01  # the tail threshold, as a share of tol
_MAX_LEVEL = 11  # halvings of the step after level 0
_FIRST_LEVEL = 4  # the first call holds levels 0.._FIRST_LEVEL
# piece k = 0 holds tau <= 64, piece k >= 1 the doubling (64 * 2^(k-1), 64 * 2^k]
_ES_TOPS = np.arcsinh(np.log(64.0 * 2.0 ** np.arange(9)) / (0.5 * np.pi))    # t at tau = 64 ... 16384
# t at the lower end, tau = e^-633.7 = exp(-pi sinh 6): tau stays a normal
# double (above e^-708), and the mass below it, |f| tau^(alpha+1)/(alpha+1),
# is under 1e-12 |f| down to alpha = -0.95 and under 1e-137 |f| from -0.5 on
_ES_LOW = -6.693142572397141
_LN_LOW = 0.5 * np.pi * np.sinh(_ES_LOW)


@functools.lru_cache(maxsize=None)
def _es_table(keys):
    """Read-only (tau, ln tau, ln dtau/dt) of the nodes new at each (level, k)
    of `keys` with t in (_ES_TOPS[k - 1], _ES_TOPS[k]], from _ES_LOW for k = 0,
    one piece after the other, and the bounds of each piece."""
    ts = []
    for level, k in keys:
        h = 0.5 ** (level + 1)
        j = np.arange(np.floor((_ES_TOPS[k - 1] if k else _ES_LOW) / h) + 1, np.floor(_ES_TOPS[k] / h) + 1)
        ts.append(h * (j[j % 2 == 1] if level else j))
    t = np.concatenate(ts)
    ln_x = 0.5 * np.pi * np.sinh(t)
    out = np.exp(ln_x), ln_x, np.log(0.5 * np.pi * np.cosh(t)) + ln_x
    for a in out:
        a.flags.writeable = False
    return out + (np.cumsum([0] + [len(t) for t in ts]),)


def _sums(f, lam, table):
    """(a row per entry of its weighted sum on each piece of a node table; its
    weighted values; f's values; their leading shape), from one call of f."""
    x, ln_x, ln_jac, bounds = table
    vals = np.asarray(f(x), dtype=float)
    if vals.shape[-1:] != x.shape:    # a scalar f is constant along the nodes
        vals = np.broadcast_to(vals, vals.shape[:-1] + x.shape)
    shape, vals = vals.shape[:-1], vals.reshape(-1, x.size)
    with np.errstate(all="ignore"):     # values past an entry's stop may be anything
        wv = np.exp(lam * ln_x + ln_jac) * vals
        sums = np.stack([np.add.reduce(wv[:, a:b], axis=-1) for a, b in zip(bounds[:-1], bounds[1:])], axis=-1)
    return sums, wv, vals, shape


def _levels(step, accs, tol):
    """The nested-level rule for an entry per row of accs, the running sums of
    the first call's levels; step(level, active) gives each entry's sum on the
    nodes new at a further level.  Each entry stops at its first done level,
    but only once the difference before the last is within 8 tol or 1/32 of
    the one before it: double-exponential differences fall ever faster, a
    kink's by about 4 a level, and its levels can agree by chance."""
    hs = 0.5 ** np.arange(1, accs.shape[1] + 1)
    rows, seq = np.arange(len(accs)), hs * accs    # seq: the value before a block, then its levels
    value, acc, h, level = seq[:, 0], accs[:, -1], hs[-1], accs.shape[1] - 1
    # err holds the last level difference until an entry stops, then its estimate
    err, active = np.full(len(rows), np.inf), np.ones(len(rows), dtype=bool)
    diffs = np.full((len(rows), 2), np.inf)     # the two level differences before a block
    while True:
        with np.errstate(all="ignore"):     # past an entry's stop, values may be anything
            delta = abs(seq[:, 1:] - seq[:, :-1])
            thr = np.maximum(tol, 1e-16 * abs(seq[:, 1:]))
            diffs = np.concatenate([diffs, delta], axis=1)
            last, before = diffs[:, 1:-1], diffs[:, :-2]    # the differences before each level's
            done = (delta <= thr) & (last < np.inf) & \
                ((last <= 8.0 * thr) | ((before < np.inf) & (before >= 32.0 * last)))
            stopped = done.any(axis=1)
            stop = np.where(stopped, done.argmax(axis=1), delta.shape[1] - 1)
            # inactive entries keep finite values; a non-finite level value stays so
            value = np.where(active, seq[rows, stop + 1], value)
            if not np.isfinite(value).all():
                raise QuadratureError("semiaxis rule hit a non-finite integrand value")
            est = delta[rows, stop]
            err = np.where(active, np.where(stopped, np.maximum(est, 1e-16 * abs(value)), est), err)
            diffs = diffs[rows[:, None], stop[:, None] + np.array([1, 2])]
        active &= ~stopped
        if level == _MAX_LEVEL and np.any(active & (err > np.maximum(tol * 100.0, 1e-13 * abs(value)))):
            raise QuadratureError(f"semiaxis rule stalled at error ~{np.max(err[active]):.2e}")
        if level == _MAX_LEVEL or not active.any():
            return value, err
        level, h = level + 1, 0.5 * h
        acc = acc + step(level, active)
        seq = np.stack([value, h * acc], axis=1)


def _through_top(sums, top):
    """Each entry's sum of its pieces (the last axis of sums) through its top,
    added in order from 0.0, so other entries' tops change none of its bits."""
    total = 0.0 + sums[..., 0]
    with np.errstate(all="ignore"):
        for k in range(1, sums.shape[-1]):
            total = total + np.where(k <= top, sums[..., k], 0.0)
    return total


def integrate_semiaxis(integrand, alpha, tol=1e-11):
    """int_0^inf tau^alpha integrand(tau) dtau, alpha > -1; see module docstring."""
    if not -1.0 < alpha < np.inf:
        raise ValueError("weight exponent must be finite and satisfy lam > -1")
    if not 0.0 < tol < np.inf:
        raise ValueError("tol must be finite and positive")
    if TAIL_SHARE * tol == 0.0:
        raise ValueError(f"tol {tol!r} is too small: the tail threshold {TAIL_SHARE:g} tol underflows to 0")
    levels, h = range(_FIRST_LEVEL + 1), 0.5 ** (_FIRST_LEVEL + 1)
    table = _es_table(tuple((level, 0) for level in levels))
    s, wv, vals, shape = _sums(integrand, alpha, table)
    sums, top = [s], np.zeros(len(s), dtype=int)
    mag = h * np.add.reduce(abs(wv[:, table[0] > 32.0]), axis=-1)     # of the top doubling, (32, 64]
    for k in range(len(_ES_TOPS)):
        if not np.isfinite(mag[top == k]).all():
            raise QuadratureError(f"semiaxis panel [{32 << k}, {64 << k}] hit a non-finite integrand value")
        grow = (top == k) & ~(mag < TAIL_SHARE * tol)
        if not grow.any():
            break
        if k + 1 == len(_ES_TOPS):
            raise QuadratureError("semiaxis tail did not decay below tolerance by tau = 16384")
        s, wv, _, _ = _sums(integrand, alpha, _es_table(tuple((level, k + 1) for level in levels)))
        mag = np.where(grow, h * np.add.reduce(abs(wv), axis=-1), mag)
        sums, top = sums + [s], np.where(grow, k + 1, top)
    accs = np.add.accumulate(_through_top(np.stack(sums, axis=-1), top[:, None]), axis=1)

    def step(level, active):
        table = _es_table(tuple((level, k) for k in range(top[active].max() + 1)))
        return _through_top(_sums(integrand, alpha, table)[0], top)

    value, err = _levels(step, accs, tol)
    # the mass below the lowest node, with f read at the lowest node of level 0, which every entry reads
    err = err + mag + abs(vals[:, 0]) * (np.exp((alpha + 1.0) * _LN_LOW) / (alpha + 1.0))
    return value.reshape(shape)[()], err.reshape(shape)[()]
