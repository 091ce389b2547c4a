"""Truncated Taylor-jet arithmetic.

A ``Jet`` stores the Taylor coefficients (not derivatives) of a function
of one variable up to a chosen order; the base point is the value of the
variable jet the function was built from.  ``coeffs[m]`` may be a scalar
or an ndarray, so a single jet can carry the expansion at a whole grid of
base points at once; all operations broadcast over that trailing shape,
as does an ndarray operand: (C, 1) times a jet on N nodes stacks C jets.

Elementary functions are applied through ``jet_lift_and_compose`` using
the standard power-series recurrences; ``arcth`` is built from the log
lift rather than a bespoke recurrence.

``sinh_ratio_jet`` is the package's one (x/sinh x)^p, the Mehler weight
behind the stress kernels and the bulk energy alike.

The kernels work on whole Taylor orders at once, yet return bit for bit
what the textbook double loops return: every coefficient is the same
products, summed left to right in the same order from the same start.  A
sum the loop starts from 0.0 starts from +0.0 here too, which turns a
lone -0.0 into +0.0 as the loop does.  No numpy reduction is used, since
``np.sum`` may add pairwise.  Where a sum runs from the oldest coefficient
(the product, reciprocal, log and pow) each coefficient is added to the
sums of all later orders in one operation as soon as it is known; where it
runs from the newest (exp) each order forms all its products in
one operation and adds them one by one.  Only a NaN may differ, in its
sign bit.
"""

import functools
import math

import numpy as np


def _pad(c, ndim):
    """Coefficients c with unit axes after the order axis, up to ndim axes."""
    return c.reshape(c.shape[:1] + (1,) * (ndim - c.ndim) + c.shape[1:])


class Jet:
    __slots__ = ("order", "coeffs")
    __array_ufunc__ = None      # ndarray + - * Jet call the reflected Jet operators

    def __init__(self, coeffs):
        coeffs = np.asarray(coeffs, dtype=float)
        self.coeffs = coeffs
        self.order = coeffs.shape[0] - 1

    # -- construction -------------------------------------------------

    @staticmethod
    def variable(base_point, order):
        """The identity function as a jet: value base_point, slope 1."""
        base = np.asarray(base_point, dtype=float)
        coeffs = np.zeros((order + 1,) + base.shape)
        coeffs[0] = base
        if order >= 1:
            coeffs[1] = 1.0
        return Jet(coeffs)

    # -- ring operations ----------------------------------------------

    def _aligned(self, other):
        k = min(self.order, other.order)
        return self.coeffs[: k + 1], other.coeffs[: k + 1], k

    def __add__(self, other):
        if isinstance(other, Jet):
            a, b, k = self._aligned(other)
            return Jet(a + b)
        if isinstance(other, np.ndarray) and other.ndim:
            # a copy spread over other's shape: x * 1.0 keeps every bit of x
            c = _pad(self.coeffs, other.ndim + 1) * np.ones_like(other)
        else:
            c = self.coeffs.copy()
        c[0] = c[0] + other
        return Jet(c)

    __radd__ = __add__

    def __neg__(self):
        return Jet(-self.coeffs)

    def __sub__(self, other):
        return self + (-other if isinstance(other, Jet) else -np.asarray(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Jet):
            a, b, k = self._aligned(other)
            if b.ndim < a.ndim:
                # pad b to a's trailing rank, so that b's order axis never
                # meets a trailing axis of a
                b = _pad(b, a.ndim)
            # coefficient m sums a[j] * b[m - j] over j = 0..m in order,
            # starting from +0.0
            out = a[0] * b + 0.0
            for j in range(1, k + 1):
                out[j:] += a[j] * b[: k + 1 - j]
            return Jet(out)
        if isinstance(other, np.ndarray) and other.ndim:
            return Jet(_pad(self.coeffs, other.ndim + 1) * other)
        return Jet(self.coeffs * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return self * jet_lift_and_compose("reciprocal", other)
        return Jet(self.coeffs / other)

    def __rtruediv__(self, other):
        return jet_lift_and_compose("reciprocal", self) * other

    # -- calculus ------------------------------------------------------

    def derivative_jet(self):
        """d/dx of this jet, one order lower."""
        if self.order < 1:
            raise ValueError("cannot differentiate an order-0 jet")
        m = np.arange(1, self.order + 1).reshape((-1,) + (1,) * (self.coeffs.ndim - 1))
        return Jet(self.coeffs[1:] * m)

    def divide_by_increment(self):
        """Divide by the increment of the variable; requires a vanishing
        constant term."""
        if np.any(np.abs(self.coeffs[0]) > 1e-14):
            raise ValueError("divide_by_increment needs coeffs[0] == 0")
        return Jet(self.coeffs[1:].copy())

    def value(self):
        return self.coeffs[0]


def _weighted(a):
    """The rows j * a[j], each an int times a row."""
    return np.arange(a.shape[0]).reshape((-1,) + (1,) * (a.ndim - 1)) * a


def _lift_exp(a):
    # c[m] = (sum_{j=1..m} j a[j] c[m-j]) / m
    k = a.shape[0] - 1
    ja = _weighted(a)
    c = np.empty_like(a)
    c[0] = np.exp(a[0])
    for m in range(1, k + 1):
        terms = ja[1: m + 1] * c[m - 1::-1]
        acc = terms[0] + 0.0
        for term in terms[1:]:
            acc += term
        c[m] = acc / m
    return c


def _lift_log(a):
    # c[m] = (m a[m] - sum_{j=1..m-1} j c[j] a[m-j]) / (m a[0])
    k = a.shape[0] - 1
    c = np.empty_like(a)
    c[0] = np.log(a[0])
    acc = _weighted(a)
    for m in range(1, k + 1):
        c[m] = acc[m] / (m * a[0])
        if m < k:
            acc[m + 1:] -= (m * c[m]) * a[1: k + 1 - m]
    return c


def _lift_pow(a, alpha):
    # c[m] = (sum_{j=0..m-1} (alpha (m-j) - j) a[m-j] c[j]) / (m a[0])
    k = a.shape[0] - 1
    m = np.arange(k + 1.0)
    w = (alpha * (m[:, None] - m) - m).reshape((k + 1, k + 1) + (1,) * (a.ndim - 1))
    c = np.empty_like(a)
    c[0] = a[0] ** alpha
    acc = np.zeros_like(a)
    for j in range(k + 1):
        if j > 0:
            c[j] = acc[j] / (j * a[0])
        if j < k:
            acc[j + 1:] += w[j + 1:, j] * a[1: k + 1 - j] * c[j]
    return c


def _lift_reciprocal(a):
    # c[m] = -(sum_{j=0..m-1} c[j] a[m-j]) / a[0]
    k = a.shape[0] - 1
    c = np.empty_like(a)
    c[0] = 1.0 / a[0]
    acc = c[0] * a + 0.0             # acc[m] = 0 + c[0] a[m] for m >= 1
    for m in range(1, k + 1):
        c[m] = -acc[m] / a[0]
        if m < k:
            acc[m + 1:] += c[m] * a[1: k + 1 - m]
    return c


@functools.lru_cache(maxsize=256)
def _sinh_ratio_table(p, rows):
    """Read-only T, highest power first and zero-padded in front, with
    x^(m % 2) T[i](x^2) the Taylor coefficient m = rows[i] of (x/sinh x)^p:
    jet arithmetic on 2m + 40 terms of sinh(x)/x in x^2, each row cut after
    its last term >= 1e-18 of its largest at x = 1."""
    k = 2.0 * np.arange(1, 2 * max(rows) + 40)
    series = _lift_pow(np.cumprod(np.r_[1.0, 1.0 / (k * (k + 1.0))]), -p)
    polys = []
    for m in rows:
        c = np.array([series[i] * math.comb(2 * i, m) for i in range((m + 1) // 2, len(series))])
        polys.append(c[np.flatnonzero(abs(c) >= 1e-18 * abs(c).max())[-1]::-1])
    width = max(map(len, polys))
    table = np.array([np.r_[np.zeros(width - len(c)), c] for c in polys])
    table.flags.writeable = False
    return table


@functools.lru_cache(maxsize=16)
def _log_sinh_ratio_table(order):
    """Read-only (c, P) with c[m] x^-m + sum_k P[m, k] r^k, r = e^-2x / (1 -
    e^-2x), the Taylor coefficient m >= 1 of log(x/sinh x) = log 2x - x -
    log(1 - e^-2x); row 0 is zero.  log(1 + h/x) gives c[m] = (-1)^(m+1)/m,
    -x gives -1 at m = 1, and -log(1 - e^(-2x-2h)) = sum_j e^(-2j(x+h))/j
    gives (-2)^m/m! Li_(1-m)(e^-2x), a polynomial in r with nonnegative
    coefficients: Li_0 = r and Li_(-n-1) = r (1 + r) d/dr Li_(-n)."""
    m = np.arange(order + 1)
    c = np.r_[0.0, (-1.0) ** (m[1:] + 1) / m[1:]]
    P, li = np.zeros((order + 1, order + 1)), np.eye(order + 1, k=1)[0]
    for k in m[1:]:
        P[k] = (-2.0) ** k / math.factorial(k) * li
        slope = np.r_[li[1:] * m[1:], 0.0]
        li = np.r_[0.0, slope[:-1]] + np.r_[0.0, 0.0, slope[:-2]]
    P[m == 1, 0] = -1.0
    c.flags.writeable = P.flags.writeable = False
    return c, P


def _sinh_ratio_large(x, p, c, P):
    """The jet at the nodes x > 0, from ``_log_sinh_ratio_table``'s (c, P):
    its value (2x / (1 - e^-2x))^p e^(-px) times the exp lift of p times
    the jet of log(x/sinh x) less its value.  Nothing is divided by a jet's
    value, so a factor that underflows to 0 is harmless.  The log jet's
    terms ~ x^-m cancel to ~ pi^-m, so its rounding grows like (pi/x)^m
    toward 0: it serves from x = 1, the value alone at any x."""
    gap = -np.expm1(-2.0 * x)
    value = (2.0 * x / gap) ** p * np.exp(-p * x)
    if len(c) == 1:
        return value[None]
    r = np.exp(-2.0 * x) / gap
    log_jet = np.zeros((len(c), len(x)))
    for column in P.T[::-1, :, None]:
        log_jet *= r
        log_jet += column
    log_jet += c[:, None] * (1.0 / x) ** np.arange(len(c) + 0.0)[:, None]
    return (jet_lift_and_compose("exp", Jet(log_jet) * p) * value).coeffs


def sinh_ratio_jet(order, p, top_only=False):
    """The function x -> jet of (x/sinh x)^p at the nodes x, to the given
    order; with top_only, x -> the ndarray of coefficient ``order`` alone.
    Its tables are looked up here, once for all its calls.

    Below |x| = 1 the coefficients are Horner's rule in x^2 on a Taylor
    table, one sum per row; from 1 on, and for the value alone at every
    x > 0, they come from ``_sinh_ratio_large``, finite at any x.  A
    negative node takes the jet at |x| with its odd coefficients negated.
    """
    rows = (order,) if top_only else tuple(range(order + 1))
    polys = [row[np.flatnonzero(row)[0]:].tolist() for row in _sinh_ratio_table(p, rows)]
    log_table = _log_sinh_ratio_table(order)
    odd = slice(1 - rows[0] % 2, None, 2)        # the rows of odd m

    def series(t):
        out, t2 = np.zeros((len(rows), len(t))), t * t
        for acc, poly in zip(out, polys):
            for c in poly:
                acc *= t2
                acc += c
        out[odd] *= t
        return out

    def jet(x):
        x = np.asarray(x, dtype=float)
        t = np.abs(x).ravel()
        small = t < 1.0 if order else t == 0.0
        with np.errstate(under="ignore"):     # near 0 and far out, terms underflow to 0
            if small.all():
                out = series(t)
            elif not small.any():
                out = _sinh_ratio_large(t, p, *log_table)[-len(rows):]
            else:
                out = np.empty((len(rows), len(t)))
                out[:, small] = series(t[small])
                out[:, ~small] = _sinh_ratio_large(t[~small], p, *log_table)[-len(rows):]
        out = out.reshape((len(rows),) + x.shape)
        out[odd] *= np.sign(x)
        return out[0] if top_only else Jet(out)

    return jet


def jet_lift_and_compose(tag, inner, exponent=None):
    """Apply an elementary function to a jet.

    tag is one of ``exp``, ``log``, ``arcth``, ``reciprocal``, or ``pow``
    (with ``exponent``).
    """
    a = inner.coeffs
    if tag == "exp":
        return Jet(_lift_exp(a))
    if tag == "log":
        return Jet(_lift_log(a))
    if tag == "pow":
        if exponent is None:
            raise ValueError("pow lift needs an exponent")
        return Jet(_lift_pow(a, exponent))
    if tag == "reciprocal":
        return Jet(_lift_reciprocal(a))
    if tag == "arcth":
        half = jet_lift_and_compose("log", 1.0 + inner) - jet_lift_and_compose("log", 1.0 - inner)
        return half * 0.5
    raise ValueError(f"unknown lift tag: {tag}")
