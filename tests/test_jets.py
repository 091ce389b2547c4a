"""Truncated-Taylor arithmetic against closed-form derivatives."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from casimir_harmonic.jets import (Jet, derivative, jet_lift_and_compose,
                                   sinhc_jet)


@pytest.fixture(autouse=True, scope="module")
def _mpmath_precision():
    """Run this module's mpmath oracles at 30 digits, whatever the global
    precision is."""
    with mpmath.workdps(30):
        yield


def test_variable_jet_layout():
    j = Jet.variable(2.0, 3)
    assert list(j.coeffs) == [2.0, 1.0, 0.0, 0.0]
    assert j.order == 3


def test_polynomial_derivatives():
    # f(x) = x^3 - 2x at x = 1.5: f'' = 6x, f''' = 6
    x = Jet.variable(1.5, 3)
    f = x * x * x - 2.0 * x
    assert derivative(f, 0) == pytest.approx(1.5 ** 3 - 3.0)
    assert derivative(f, 1) == pytest.approx(3 * 1.5 ** 2 - 2.0)
    assert derivative(f, 2) == pytest.approx(9.0)
    assert derivative(f, 3) == pytest.approx(6.0)


def test_division_matches_series():
    x = Jet.variable(0.3, 5)
    q = 1.0 / (1.0 + x)
    for m in range(6):
        want = (-1.0) ** m * math.factorial(m) / (1.3) ** (m + 1)
        assert derivative(q, m) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("tag,f,fprime3", [
    ("exp", math.exp, math.exp),
    ("sinh", math.sinh, math.cosh),
    ("cosh", math.cosh, math.sinh),
])
def test_lift_third_derivatives(tag, f, fprime3):
    x = Jet.variable(0.8, 3)
    lifted = jet_lift_and_compose(tag, x)
    assert derivative(lifted, 0) == pytest.approx(f(0.8), rel=1e-14)
    assert derivative(lifted, 3) == pytest.approx(fprime3(0.8), rel=1e-13)


def test_log_and_pow_lifts():
    x = Jet.variable(2.5, 4)
    lg = jet_lift_and_compose("log", x)
    assert derivative(lg, 1) == pytest.approx(1 / 2.5)
    assert derivative(lg, 2) == pytest.approx(-1 / 2.5 ** 2)
    pw = jet_lift_and_compose("pow", x, exponent=-1.5)
    assert derivative(pw, 1) == pytest.approx(-1.5 * 2.5 ** -2.5, rel=1e-13)


def test_tanh_lift_matches_mpmath_jet():
    x = Jet.variable(1.1, 5)
    th = jet_lift_and_compose("tanh", x)
    for m in range(6):
        want = float(mpmath.diff(mpmath.tanh, 1.1, m))
        assert derivative(th, m) == pytest.approx(want, rel=1e-11, abs=1e-13)


def test_derivative_requires_enough_order():
    with pytest.raises(ValueError):
        derivative(Jet.variable(1.0, 2), 3)


def test_divide_by_increment():
    # (f(x) - f(a))/(x - a) for f = exp about a: coefficients shift down
    x = Jet.variable(0.4, 4)
    e = jet_lift_and_compose("exp", x)
    shifted = (e - math.exp(0.4)).divide_by_increment()
    assert derivative(shifted, 0) == pytest.approx(math.exp(0.4), rel=1e-14)


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=-4.0, max_value=4.0,
                 allow_nan=False, allow_infinity=False))
def test_exp_log_roundtrip(a):
    x = Jet.variable(a, 4)
    back = jet_lift_and_compose("log", jet_lift_and_compose("exp", x))
    for m in range(5):
        want = a if m == 0 else (1.0 if m == 1 else 0.0)
        assert derivative(back, m) == pytest.approx(want, abs=1e-9)


def test_sinhc_jet_small_and_large_nodes():
    """sinh(t)/t jets stay finite and accurate from 1e-300 up to 300."""
    for t in (1e-300, 1e-20, 1e-3, 0.5, 40.0, 300.0):
        j = sinhc_jet(t, 2)
        got = derivative(j, 0)
        want = float(mpmath.sinh(t) / t) if t > 1e-280 else 1.0
        assert np.isfinite(got)
        assert got == pytest.approx(want, rel=7e-14)
        if t >= 1e-3:
            want1 = float(mpmath.diff(lambda u: mpmath.sinh(u) / u, t, 1))
            assert derivative(j, 1) == pytest.approx(want1, rel=7e-14)


def test_sinhc_jet_scaled():
    # sinh(st)/(st) with the scale folded in
    t, s = 0.7, 3.0
    j = sinhc_jet(t, 3, scale=s)
    want = float(mpmath.diff(lambda u: mpmath.sinh(s * u) / (s * u), t, 3))
    assert derivative(j, 3) == pytest.approx(want, rel=1e-12)


def test_reciprocal_composed_with_sinhc():
    # t/sinh(t) via reciprocal(sinhc): third derivative against mpmath
    t = 1.3
    j = jet_lift_and_compose("reciprocal", sinhc_jet(t, 3))
    want = float(mpmath.diff(lambda u: u / mpmath.sinh(u), t, 3))
    assert derivative(j, 3) == pytest.approx(want, rel=1e-12)


# -- bit-exact references ------------------------------------------------
#
# The kernels work on whole Taylor orders at once but must keep every bit
# of the textbook double loops below: the same products, summed in the
# same order from the same start.  Coefficients here are finite, mixed in
# magnitude, and include exact zeros of both signs.

def _ref_mul(a, b):
    k = min(a.shape[0], b.shape[0]) - 1
    a, b = a[: k + 1], b[: k + 1]
    out = np.zeros((k + 1,) + np.broadcast_shapes(a.shape[1:], b.shape[1:]))
    for m in range(k + 1):
        for j in range(m + 1):
            out[m] += a[j] * b[m - j]
    return out


def _ref_exp(a):
    c = np.zeros_like(a)
    c[0] = np.exp(a[0])
    for m in range(1, a.shape[0]):
        for j in range(1, m + 1):
            c[m] += j * a[j] * c[m - j]
        c[m] /= m
    return c


def _ref_log(a):
    c = np.zeros_like(a)
    c[0] = np.log(a[0])
    for m in range(1, a.shape[0]):
        acc = m * a[m].copy()
        for j in range(1, m):
            acc -= j * c[j] * a[m - j]
        c[m] = acc / (m * a[0])
    return c


def _ref_pow(a, alpha):
    c = np.zeros_like(a)
    c[0] = a[0] ** alpha
    for m in range(1, a.shape[0]):
        acc = np.zeros_like(a[0])
        for j in range(m):
            acc += (alpha * (m - j) - j) * a[m - j] * c[j]
        c[m] = acc / (m * a[0])
    return c


def _ref_reciprocal(a):
    c = np.zeros_like(a)
    c[0] = 1.0 / a[0]
    for m in range(1, a.shape[0]):
        acc = np.zeros_like(a[0])
        for j in range(m):
            acc += c[j] * a[m - j]
        c[m] = -acc / a[0]
    return c


def _ref_sinh_cosh(a):
    s, c = np.zeros_like(a), np.zeros_like(a)
    s[0], c[0] = np.sinh(a[0]), np.cosh(a[0])
    for m in range(1, a.shape[0]):
        for j in range(1, m + 1):
            s[m] += j * a[j] * c[m - j]
            c[m] += j * a[j] * s[m - j]
        s[m] /= m
        c[m] /= m
    return s, c


def _ref_sinhc(inner, scale):
    """sinh(s t)/(s t) of the jet with coefficients ``inner``: the 35-term
    even series composed by Horner where |s t| < 1, sinh(u) / u elsewhere.
    For the variable jet the composition is the identity."""
    k = inner.shape[0] - 1
    t0 = inner[0]
    small = np.abs(scale * t0) < 1.0
    t_ser = np.where(small, t0, 0.0)
    fc = np.zeros((k + 1,) + t_ser.shape)
    for m in range(k + 1):
        acc = np.zeros_like(t_ser)
        for j in range((m + 1) // 2, 35):
            c = scale ** (2 * j) * math.comb(2 * j, m) / math.factorial(2 * j + 1)
            acc += c * t_ser ** (2 * j - m)
        fc[m] = acc
    dx = inner.copy()
    dx[0] = np.zeros_like(dx[0])
    ser = np.zeros((k + 1,) + fc.shape[1:])
    ser[0] = fc[k]
    for m in range(k - 1, -1, -1):
        ser = _ref_mul(ser, dx)
        ser[0] = ser[0] + fc[m]
    safe = inner.copy()
    safe[0] = np.where(small, 1.0 / scale, t0)
    u = safe * scale
    big = _ref_mul(_ref_sinh_cosh(u)[0], _ref_reciprocal(u))
    return np.where(small, ser, big)


def _bits_equal(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert np.isfinite(want).all()
    return got.shape == want.shape and np.array_equal(
        got.view(np.int64), want.view(np.int64))


def _coeffs(rng, order, shape, positive_value=False):
    c = rng.standard_normal((order + 1,) + shape)
    c *= 10.0 ** rng.integers(-3, 4, c.shape)
    c[rng.random(c.shape) < 0.25] = 0.0
    c[rng.random(c.shape) < 0.15] = -0.0
    if positive_value:
        c[0] = rng.uniform(0.25, 4.0, shape)
    return c


@pytest.mark.parametrize("order", range(9))
def test_product_keeps_every_bit(order):
    rng = np.random.default_rng(order)
    # N = order + 1 - j is where an order axis meeting a node axis of the
    # same length would broadcast silently instead of raising
    sizes = sorted({order + 1 - j for j in range(order + 1)} | {7})
    pairs = [((), ())]
    for n in sizes:
        pairs += [((n,), (n,)), ((n,), ()), ((), (n,)),
                  ((2, n), (2, n)), ((2, n), (n,)), ((n,), (2, n)),
                  ((2, n), ()), ((), (2, n))]
    for sa, sb in pairs:
        a, b = _coeffs(rng, order, sa), _coeffs(rng, order + 1, sb)
        got = (Jet(a) * Jet(b)).coeffs
        assert _bits_equal(got, _ref_mul(a, b)), (sa, sb)


@pytest.mark.parametrize("order", range(9))
@pytest.mark.parametrize("shape", [(), (6,), (2, 6)])
def test_lifts_keep_every_bit(order, shape):
    rng = np.random.default_rng(100 + order)
    for _ in range(4):
        a = _coeffs(rng, order, shape, positive_value=True)
        x = Jet(a)
        s, c = _ref_sinh_cosh(a)
        expected = {"exp": _ref_exp(a), "log": _ref_log(a),
                    "reciprocal": _ref_reciprocal(a), "sinh": s, "cosh": c,
                    "sqrt": _ref_pow(a, 0.5)}
        for tag, want in expected.items():
            assert _bits_equal(jet_lift_and_compose(tag, x).coeffs, want), tag
        for alpha in (-1.5, -1, 2, 0.25, -0.75):
            got = jet_lift_and_compose("pow", x, exponent=alpha).coeffs
            assert _bits_equal(got, _ref_pow(a, alpha)), alpha
        # the reciprocal of a negative value too
        a[0] = -a[0]
        assert _bits_equal(jet_lift_and_compose("reciprocal", Jet(a)).coeffs,
                           _ref_reciprocal(a))


@pytest.mark.parametrize("order", range(9))
@pytest.mark.parametrize("scale", [1.0, 2.0])
def test_sinhc_jet_keeps_every_bit(order, scale):
    rng = np.random.default_rng(200 + order)
    nodes = {
        "small": rng.uniform(1e-3, 0.999, 40) / scale,
        "large": rng.uniform(1.0, 60.0, 40) / scale,
        "mixed": rng.uniform(1e-3, 3.0, 40),
        "tiny": 10.0 ** rng.uniform(-300.0, -1.0, 40),
        "scalar small": np.float64(0.37) / scale,
        "scalar large": np.float64(4.2),
    }
    for name, t in nodes.items():
        got = sinhc_jet(t, order, scale).coeffs
        assert _bits_equal(got, _ref_sinhc(Jet.variable(t, order).coeffs, scale)), name


@pytest.mark.parametrize("shape", [(), (7,), (5, 7)])
def test_array_operand_stacks_jets_keeping_every_bit(shape):
    # an ndarray operand broadcasts over the trailing shape: a (C, 1) operand
    # stacks C jets, entry i the jet (or its entry i) with the scalar a[i, 0]
    rng = np.random.default_rng(300 + len(shape))
    coeffs = _coeffs(rng, 4, shape)
    a = np.array([[1.5], [-0.0], [0.0], [-3.25e-3], [1.0]])
    ops = {"jet + a": lambda j, x: j + x, "a + jet": lambda j, x: x + j,
           "jet - a": lambda j, x: j - x, "a - jet": lambda j, x: x - j,
           "jet * a": lambda j, x: j * x, "a * jet": lambda j, x: x * j}
    for name, op in ops.items():
        got = op(Jet(coeffs), a)
        assert isinstance(got, Jet), name
        assert got.coeffs.shape == (5,) + np.broadcast_shapes(shape, a.shape), name
        for i, scalar in enumerate(a[:, 0]):
            want = op(Jet(coeffs[:, i] if len(shape) == 2 else coeffs), float(scalar)).coeffs
            assert _bits_equal(got.coeffs[:, i].reshape(want.shape), want), (name, i)
