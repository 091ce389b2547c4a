"""Truncated Taylor-jet arithmetic.

A ``Jet`` stores the Taylor coefficients (not derivatives) of a function
of one variable up to a chosen order; the base point is the value of the
variable jet the function was built from.  ``coeffs[m]`` may be a scalar
or an ndarray, so a single jet can carry the expansion at a whole grid of
base points at once; all operations broadcast over that trailing shape,
as does an ndarray operand: (C, 1) times a jet on N nodes stacks C jets.

Elementary functions are applied through ``jet_lift_and_compose`` using
the standard power-series recurrences; ``tanh`` and ``arcth`` are built
from the exp/log lifts rather than bespoke recurrences.

The kernels work on whole Taylor orders at once, yet return bit for bit
what the textbook double loops return: every coefficient is the same
products, summed left to right in the same order from the same start.  A
sum the loop starts from 0.0 starts from +0.0 here too, which turns a
lone -0.0 into +0.0 as the loop does.  No numpy reduction is used, since
``np.sum`` may add pairwise.  Where a sum runs from the oldest coefficient
(the product, reciprocal, log and pow) each coefficient is added to the
sums of all later orders in one operation as soon as it is known; where it
runs from the newest (exp, sinh/cosh) each order forms all its products in
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

    @staticmethod
    def const(value, order):
        value = np.asarray(value, dtype=float)
        coeffs = np.zeros((order + 1,) + value.shape)
        coeffs[0] = value
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

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("integer powers only; use the pow lift otherwise")
        out = Jet.const(np.ones(np.shape(self.coeffs[0])), self.order)
        for _ in range(n):
            out = out * self
        return out

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


def derivative(jet, m):
    """m-th derivative of the underlying function at the base point."""
    if m > jet.order:
        raise ValueError(f"jet of order {jet.order} cannot give derivative {m}")
    return math.factorial(m) * jet.coeffs[m]


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
    w = np.array([[alpha * (m - j) - j for j in range(k + 1)] for m in range(k + 1)],
                 dtype=float).reshape((k + 1, k + 1) + (1,) * (a.ndim - 1))
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


def _lift_sinh_cosh(a):
    # s[m] = (sum_{j=1..m} j a[j] c[m-j]) / m, and c[m] likewise from s;
    # sc[0] is s and sc[1] is c, so sc[::-1] pairs each with the other
    k = a.shape[0] - 1
    ja = _weighted(a)
    sc = np.empty((2,) + a.shape)
    sc[0, 0] = np.sinh(a[0])
    sc[1, 0] = np.cosh(a[0])
    for m in range(1, k + 1):
        terms = ja[1: m + 1] * sc[::-1, m - 1::-1]
        acc = terms[:, 0] + 0.0
        for j in range(1, m):
            acc += terms[:, j]
        sc[:, m] = acc / m
    return sc[0], sc[1]


_SINHC_TERMS = 35


@functools.lru_cache(maxsize=64)
def _sinhc_table(order, scale, scale_type):
    """Read-only table[j, m] = scale^(2j) C(2j, m) / (2j+1)!, the factor of
    t^(2j-m) in the m-th Taylor coefficient of sinh(s t)/(s t); zero where
    2j < m.  scale_type keeps 2 and 2.0, which hash alike, apart."""
    table = np.zeros((_SINHC_TERMS, order + 1))
    for m in range(order + 1):
        for j in range((m + 1) // 2, _SINHC_TERMS):
            table[j, m] = scale ** (2 * j) * math.comb(2 * j, m) / math.factorial(2 * j + 1)
    table.flags.writeable = False
    return table


def _sinhc_series(t, order, scale):
    """Taylor coefficients of sinh(s t)/(s t) at t from its even series.

    Coefficient m sums table[j, m] * t^(2j - m) over ascending j.  Each
    power is computed once, and at most order + 1 of them are alive at a
    time.

    The sum stops at the first j with 2j >= order whose terms leave every
    partial sum unchanged, so the result is that of all _SINHC_TERMS terms
    bit for bit: for |s t| < 1 and 2j >= m, term j+1 of coefficient m is
    term j times (st)^2 (2j+1) / ((2j+2-m)(2j+1-m)(2j+3)) < 1/2, of the
    same sign, and rounding is monotone.  A partial sum is never -0.0
    (it starts at +0.0), so adding a zero term leaves its bits alone.
    """
    table = _sinhc_table(order, scale, type(scale))
    table = table.reshape(table.shape + (1,) * t.ndim)
    fc = np.zeros((order + 1,) + t.shape)
    powers = []                      # powers[m] = t^(2j - m)
    for j in range(_SINHC_TERMS):
        top = min(order, 2 * j)
        fresh = min(top, 1) + 1      # t^(2j), and t^(2j-1) once order >= 1
        del powers[top + 1 - fresh:]
        powers[:0] = [t ** (2 * j - m) for m in range(fresh)]
        terms = np.array(powers)
        terms *= table[j, : top + 1]
        if 2 * j < order:
            fc[: top + 1] += terms
            continue
        terms += fc
        if (terms == fc).all():
            break
        fc = terms
    return fc


def sinhc_jet(t, order, scale=1.0):
    """Jet of sinh(s*t)/(s*t) in the variable t at the nodes t, elementwise
    stable.

    Dividing a sinh jet by the variable goes through intermediate
    coefficients of size ~ 1/t^m, which overflow at the double-
    exponentially small nodes the exp-sinh quadrature produces.
    Wherever |s*t| < 1 the (entire) even Taylor series of the function
    itself is used instead.  Each branch runs only on the nodes that take
    it, and the two are scattered back into place.
    """
    t = np.asarray(t, dtype=float)
    small = np.abs(scale * t) < 1.0
    if small.all():
        return Jet(_sinhc_series(t, order, scale))
    if not small.any():
        return Jet(_sinhc_large(t, order, scale))
    out = np.empty((order + 1,) + t.shape)
    out[:, small] = _sinhc_series(t[small], order, scale)
    out[:, ~small] = _sinhc_large(t[~small], order, scale)
    return Jet(out)


def _sinhc_large(t, order, scale):
    """Coefficients of sinhc_jet as sinh(u) * (1/u), u = s*t, for |s*t| >= 1."""
    u = Jet.variable(t, order) * scale
    return (jet_lift_and_compose("sinh", u) * jet_lift_and_compose("reciprocal", u)).coeffs


def jet_lift_and_compose(tag, inner, exponent=None):
    """Apply an elementary function to a jet.

    tag is one of ``exp``, ``log``, ``sinh``, ``cosh``, ``tanh``,
    ``arcth``, ``sqrt``, ``reciprocal``, or ``pow`` (with ``exponent``).
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
    if tag == "sqrt":
        return Jet(_lift_pow(a, 0.5))
    if tag == "reciprocal":
        return Jet(_lift_reciprocal(a))
    if tag == "sinh":
        return Jet(_lift_sinh_cosh(a)[0])
    if tag == "cosh":
        return Jet(_lift_sinh_cosh(a)[1])
    if tag == "tanh":
        # tanh(x) = sgn * (1 - E)/(1 + E), E = exp(-2 sgn x): the argument of
        # exp is kept non-positive so huge base points underflow gracefully.
        sgn = np.where(np.asarray(a[0]) >= 0.0, 1.0, -1.0)
        b = inner * sgn
        e = jet_lift_and_compose("exp", b * (-2.0))
        t = (1.0 - e) / (1.0 + e)
        return t * sgn
    if tag == "arcth":
        half = jet_lift_and_compose("log", 1.0 + inner) - jet_lift_and_compose("log", 1.0 - inner)
        return half * 0.5
    raise ValueError(f"unknown lift tag: {tag}")
