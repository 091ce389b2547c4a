"""The exp-sinh rule of ``integrate_semiaxis`` written out level by level.

Each piece of each level is its own call of f: the nodes new at a level
with t in one piece, where piece 0 reaches from tau = e^-634 up to tau = 64
and piece k >= 1 is the doubling (64 * 2^(k-1), 64 * 2^k].  The rule in the
package makes one wide first call and one call per further level or tail
doubling; as f is elementwise, it must return these values and errors bit
for bit, and raise the same errors.  Each error includes the mass below the
lowest node, |f| at level 0's lowest node times tau^(alpha+1)/(alpha+1) at
tau = e^-634.
"""

import numpy as np

from casimir_harmonic.quadrature import QuadratureError

MAX_LEVEL = 11
FIRST_LEVEL = 4     # the package's first call holds levels 0-4
TOPS = np.arcsinh(np.log(64.0 * 2.0 ** np.arange(9)) / (0.5 * np.pi))     # t at tau = 64 ... 16384
LOW = -np.arcsinh(2.0 * np.sinh(6.0))     # t at tau = e^-634
LN_LOW = 0.5 * np.pi * np.sinh(LOW)


def piece_t(level, k):
    """The t of the nodes new at `level` in piece k."""
    h = 0.5 ** (level + 1)
    j = np.arange(np.floor((TOPS[k - 1] if k else LOW) / h) + 1, np.floor(TOPS[k] / h) + 1)
    return h * (j[j % 2 == 1] if level else j)


def piece_terms(f, alpha, level, k):
    """(tau, weighted values of f, values of f; a row per entry) on one piece of a level."""
    t = piece_t(level, k)
    ln_x = 0.5 * np.pi * np.sinh(t)
    x = np.exp(ln_x)
    vals = np.asarray(f(x), dtype=float)
    if vals.shape[-1:] != x.shape:
        vals = np.broadcast_to(vals, vals.shape[:-1] + x.shape)
    vals = vals.reshape(int(np.prod(vals.shape[:-1])), x.size)
    with np.errstate(all="ignore"):
        return x, np.exp(alpha * ln_x + (np.log(0.5 * np.pi * np.cosh(t)) + ln_x)) * vals, vals


def semiaxis(f, alpha, tol):
    """(value, err, the last level run, each entry's top piece)."""
    lead = np.asarray(f(np.array([1.0, 2.0])), dtype=float).shape[:-1]
    h = 0.5 ** (FIRST_LEVEL + 1)
    terms = {}
    for level in range(FIRST_LEVEL + 1):
        x, terms[level, 0], vals = piece_terms(f, alpha, level, 0)
        terms["top", level] = terms[level, 0][:, x > 32.0]
        if level == 0:
            with np.errstate(all="ignore"):
                low = abs(vals[:, 0]) * (np.exp((alpha + 1.0) * LN_LOW) / (alpha + 1.0))
    with np.errstate(all="ignore"):
        mag = h * np.add.reduce(abs(np.concatenate([terms["top", level] for level in range(FIRST_LEVEL + 1)],
                                                   axis=1)), axis=-1)
    top = np.zeros(len(mag), dtype=int)
    for k in range(len(TOPS)):
        if not np.isfinite(mag[top == k]).all():
            raise QuadratureError(f"semiaxis panel [{32 * 2 ** k}, {64 * 2 ** k}] hit a non-finite integrand value")
        grow = (top == k) & ~(mag < 0.01 * tol)
        if not grow.any():
            break
        if k + 1 == len(TOPS):
            raise QuadratureError("semiaxis tail did not decay below tolerance by tau = 16384")
        for level in range(FIRST_LEVEL + 1):
            terms[level, k + 1] = piece_terms(f, alpha, level, k + 1)[1]
        ext = np.concatenate([terms[level, k + 1] for level in range(FIRST_LEVEL + 1)], axis=1)
        with np.errstate(all="ignore"):
            mag = np.where(grow, h * np.add.reduce(abs(ext), axis=-1), mag)
        top = np.where(grow, k + 1, top)

    def level_sum(level):
        total = 0.0
        for k in range(top.max() + 1):
            if (level, k) not in terms:
                terms[level, k] = piece_terms(f, alpha, level, k)[1]
            with np.errstate(all="ignore"):
                total = total + np.where(k <= top, np.add.reduce(terms[level, k], axis=-1), 0.0)
        return total

    h = 0.5
    acc = level_sum(0)
    value = h * acc
    err = np.full(len(mag), np.inf)     # the last difference until an entry stops
    before = np.full(len(mag), np.inf)  # the difference before it
    active = np.ones(len(mag), dtype=bool)
    level = 0
    for level in range(1, MAX_LEVEL + 1):
        if not active.any():
            level -= 1
            break
        h *= 0.5
        acc = acc + level_sum(level)
        new_value = h * acc
        if not np.isfinite(new_value[active]).all():
            raise QuadratureError("semiaxis rule hit a non-finite integrand value")
        with np.errstate(all="ignore"):
            delta = abs(new_value - value)
            floor = 1e-16 * abs(new_value)
        thr = np.maximum(tol, floor)
        with np.errstate(all="ignore"):
            # a stop needs the difference before the last within 8 tol, or 1/32 of the one before it
            steep = (err <= 8.0 * thr) | ((before < np.inf) & (before >= 32.0 * err))
        done = active & (delta <= thr) & (err < np.inf) & steep
        value = np.where(active, new_value, value)
        before = np.where(active, err, before)
        err = np.where(done, np.maximum(delta, floor), np.where(active, delta, err))
        active &= ~done
    if np.any(active & (err > np.maximum(tol * 100.0, 1e-13 * abs(value)))):
        raise QuadratureError(f"semiaxis rule stalled at error ~{np.max(err[active]):.2e}")
    return tuple(a.reshape(lead)[()] for a in (value, err + mag + low)) + (level, top.reshape(lead)[()])
