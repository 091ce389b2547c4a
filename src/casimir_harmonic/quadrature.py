"""Adaptive quadrature for endpoint-weighted integrands.

Two double-exponential rules, trapezoidal sums in t on nested levels, with
the weight (exponent > -1) applied in log space, so f sees interior nodes
only and integrable endpoint blow-ups of f are absorbed too:

* ``integrate_unit_interval(f, lam, tol)`` -- int_0^1 x^lam f(x) dx by
  tanh-sinh, x = (1 + tanh(pi/2 sinh t)) / 2 for |t| <= 6;
* ``integrate_semiaxis(f, alpha, tol)`` -- int_0^inf tau^alpha f(tau) dtau
  by exp-sinh, tau = exp(pi/2 sinh t) (Takahasi & Mori, Publ. RIMS 9 (1974)
  721), from tau = e^-634, as deep as tanh-sinh reaches, up to tau = 64 or,
  where the tail has not decayed, by doublings up to 16384.

f is elementwise along the node axis: its value at a node depends on that
node alone, whatever other nodes share the call.  Every integrand in the
package is.  f may return shape (..., nodes): each leading entry is an
integral of its own on the same nodes, with its own stop and error, so it
gets exactly the value of a call on that entry alone (a scalar is constant).

Call schedule.  Level 0 has step 1/2; each further level halves the step.
The first call holds levels 0-3 of tanh-sinh, or levels 0-4 of exp-sinh up
to tau = 64, and f must accept all its nodes.  An entry's error is the
difference of its last two levels, and it stops at the first level from 2
on where that is within tol or 1e-16 of the value (for exp-sinh see
``_levels``); values past the stop are never read and raise no warning.
Exp-sinh then extends, one call per doubling, each entry whose top doubling
of tau, (32, 64] at first, holds TAIL_SHARE * tol or more, and adds that
doubling's magnitude to its error.  Each further level is one call.

Errors.  A weight exponent that is not finite and > -1, a tolerance that
is not finite and positive, or a semiaxis tol whose tail threshold
TAIL_SHARE * tol underflows raises ``ValueError`` before f is called.  A
rule raises ``QuadratureError`` on a non-finite value at a level it reads
or in a top doubling, on a tail not decayed by tau = 16384, or when its
last level's error exceeds 100 tol and 1e-13 of the value; what f raises
propagates.  Both return ``(value, err_estimate)``; the estimate leaves
out the mass below the lowest node.
"""

import functools

import numpy as np


class QuadratureError(RuntimeError):
    """Raised when a rule fails to reach the requested tolerance."""


TAIL_SHARE = 0.01  # the semiaxis tail threshold, as a share of tol
_TMAX = 6.0  # tanh-sinh truncation; keeps |2u| < 700 so nothing underflows
_MAX_LEVEL = 11  # halvings of the step after level 0
_FIRST_LEVEL = 3  # the first tanh-sinh call holds levels 0.._FIRST_LEVEL, exp-sinh one more
# exp-sinh piece k = 0 holds tau <= 64, piece k >= 1 the doubling (64 * 2^(k-1), 64 * 2^k]
_ES_TOPS = np.arcsinh(np.log(64.0 * 2.0 ** np.arange(9)) / (0.5 * np.pi))    # t at tau = 64 ... 16384
_ES_LOW = -np.arcsinh(2.0 * np.sinh(_TMAX))    # t at tau = e^-634, where tanh-sinh ends


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


def _table(parts):
    """Read-only (x, ln x, ln dx/dt) of pieces given as (ln x, ln dx/dt) pairs,
    one after the other, and the bounds of each piece."""
    ln_x, ln_jac = (np.concatenate(a) for a in zip(*parts))
    out = np.exp(ln_x), ln_x, ln_jac
    for a in out:
        a.flags.writeable = False
    return out + (np.cumsum([0] + [len(ln_x) for ln_x, _ in parts]),)


@functools.lru_cache(maxsize=None)
def _ts_table(levels):
    """The x -> 1 and the x -> 0 branch of each tanh-sinh level in `levels`,
    only its new nodes from level 1 on; level -1 is the centre x = 1/2."""
    parts = []
    for level in levels:
        if level < 0:
            parts.append((np.log([0.5]), np.log([0.25 * np.pi])))   # exp(ln 0.5) is 0.5
        else:
            ln_xp, ln_xn, ln_jac = _ts_nodes(0.5 ** (level + 1), level > 0)
            parts += [(ln_xp, ln_jac), (ln_xn, ln_jac)]
    return _table(parts)


@functools.lru_cache(maxsize=None)
def _es_table(keys):
    """For each (level, k) of `keys`, the exp-sinh nodes new at that level with
    t in (_ES_TOPS[k - 1], _ES_TOPS[k]], from _ES_LOW for k = 0."""
    parts = []
    for level, k in keys:
        h = 0.5 ** (level + 1)
        j = np.arange(np.floor((_ES_TOPS[k - 1] if k else _ES_LOW) / h) + 1, np.floor(_ES_TOPS[k] / h) + 1)
        t = h * (j[j % 2 == 1] if level else j)
        ln_x = 0.5 * np.pi * np.sinh(t)
        parts.append((ln_x, np.log(0.5 * np.pi * np.cosh(t)) + ln_x))
    return _table(parts)


def _check(lam, tol):
    if not -1.0 < lam < np.inf:
        raise ValueError("weight exponent must be finite and satisfy lam > -1")
    if not 0.0 < tol < np.inf:
        raise ValueError("tol must be finite and positive")


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


def _levels(step, accs, tol, rule, steep=False):
    """The nested-level rule for an entry per row of accs, the running sums of
    the first call's levels; step(level, active) gives each entry's sum on the
    nodes new at a further level.  Each entry stops at its first done level;
    if steep, only once the difference before the last is within 8 tol or
    1/32 of the one before it: double-exponential differences fall ever
    faster, a kink's by about 4 a level, and its levels can agree by chance."""
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
            done = (delta <= thr) & (last < np.inf)
            if steep:
                done &= (last <= 8.0 * thr) | ((before < np.inf) & (before >= 32.0 * last))
            stopped = done.any(axis=1)
            stop = np.where(stopped, done.argmax(axis=1), delta.shape[1] - 1)
            # inactive entries keep finite values; a non-finite level value stays so
            value = np.where(active, seq[rows, stop + 1], value)
            if not np.isfinite(value).all():
                raise QuadratureError(f"{rule} hit a non-finite integrand value")
            est = delta[rows, stop]
            err = np.where(active, np.where(stopped, np.maximum(est, 1e-16 * abs(value)), est), err)
            diffs = diffs[rows[:, None], stop[:, None] + np.array([1, 2])]
        active &= ~stopped
        if level == _MAX_LEVEL and np.any(active & (err > np.maximum(tol * 100.0, 1e-13 * abs(value)))):
            raise QuadratureError(f"{rule} stalled at error ~{np.max(err[active]):.2e}")
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


def integrate_unit_interval(f, lam, tol=1e-12):
    """int_0^1 x^lam f(x) dx, lam > -1; f elementwise over node arrays."""
    _check(lam, tol)
    s, _, vals, shape = _sums(f, lam, _ts_table(tuple(range(-1, _FIRST_LEVEL + 1))))
    with np.errstate(all="ignore"):     # levels past an entry's stop may hold anything
        sums = np.concatenate([(0.5 ** lam * vals[:, 0] * 0.25 * np.pi)[:, None],     # the centre, then the levels
                               _through_top(s[:, 1:].reshape(len(s), -1, 2), 1)], axis=1)
        accs = np.add.accumulate(sums, axis=1)[:, 1:]

    def step(level, active):
        return _through_top(_sums(f, lam, _ts_table((level,)))[0], 1)

    value, err = _levels(step, accs, tol, "unit-interval rule")
    return value.reshape(shape)[()], err.reshape(shape)[()]


def integrate_semiaxis(integrand, alpha, tol=1e-11):
    """int_0^inf tau^alpha integrand(tau) dtau, alpha > -1; see module docstring."""
    _check(alpha, tol)
    if TAIL_SHARE * tol == 0.0:
        raise ValueError(f"tol {tol!r} is too small: the tail threshold {TAIL_SHARE:g} tol underflows to 0")
    levels, h = range(_FIRST_LEVEL + 2), 0.5 ** (_FIRST_LEVEL + 2)
    table = _es_table(tuple((level, 0) for level in levels))
    s, wv, _, shape = _sums(integrand, alpha, table)
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

    value, err = _levels(step, accs, tol, "semiaxis rule", steep=True)
    return value.reshape(shape)[()], (err + mag).reshape(shape)[()]
