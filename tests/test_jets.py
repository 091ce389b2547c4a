"""Truncated-Taylor arithmetic against closed-form derivatives."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import jet_reference as ref
from casimir_harmonic.jets import (Jet, _sinh_ratio_table, jet_lift_and_compose,
                                   sinh_ratio_jet)
from jet_reference import derivative


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


# sinh and cosh have no lift of their own; the reference composes them from exp
COMPOSED = {"exp": lambda x: jet_lift_and_compose("exp", x),
            "sinh": lambda x: ref.sinh_cosh(x)[0], "cosh": lambda x: ref.sinh_cosh(x)[1]}


@pytest.mark.parametrize("tag,f,fprime3", [
    ("exp", math.exp, math.exp),
    ("sinh", math.sinh, math.cosh),
    ("cosh", math.cosh, math.sinh),
])
def test_lift_third_derivatives(tag, f, fprime3):
    x = Jet.variable(0.8, 3)
    lifted = COMPOSED[tag](x)
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
    # tanh has no lift of its own; the reference's exponential form is the
    # tau chart's th bit for bit
    x = Jet.variable(1.1, 5)
    th = ref.tanh(x)
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


# sinhc is sinh(x)/x; its reciprocal power (x/sinh x)^p is sinh_ratio_jet, which
# these tests check, and the reciprocal of the reference's sinhc is the route
# the package once took to x/sinh x.

def test_sinhc_jet_small_and_large_nodes():
    """x/sinh x jets stay finite and accurate from 1e-300 up to 1e4, far past
    where sinh overflows."""
    for t in (1e-300, 1e-20, 1e-3, 0.5, 40.0, 300.0, 1e4):
        j = sinh_ratio_jet(2, 1)(t)
        got = derivative(j, 0)
        want = float(t / mpmath.sinh(t))
        assert np.isfinite(j.coeffs).all()
        assert got == pytest.approx(want, rel=1e-15, abs=1e-300)
        if t >= 1e-3:
            want1 = float(mpmath.diff(lambda u: u / mpmath.sinh(u), t, 1))
            assert derivative(j, 1) == pytest.approx(want1, rel=1e-14, abs=1e-300)


def test_sinhc_jet_scaled():
    # (st/sinh st)^(3/2) in t: coefficient m in t is s^m times coefficient m in x = s t
    t, s = 0.7, 3.0
    j = sinh_ratio_jet(3, 1.5)(s * t)
    want = float(mpmath.diff(lambda u: (s * u / mpmath.sinh(s * u)) ** 1.5, t, 3))
    assert derivative(j, 3) * s ** 3 == pytest.approx(want, rel=1e-13)


def test_reciprocal_composed_with_sinhc():
    # the reference route t/sinh(t) = 1/sinhc(t): third derivative against
    # mpmath on both of its branches
    for t in (0.4, 1.3):
        j = ref.ratio(t, 3)
        want = float(mpmath.diff(lambda u: u / mpmath.sinh(u), t, 3))
        assert derivative(j, 3) == pytest.approx(want, rel=1e-12)


# both sides of the switch at x = 1, next to it, far out, and the 269 nodes of a
# first quadrature call (levels 0-4 up to 64)
RATIO_NODES = np.concatenate([
    [1e-300, 1e-6, 0.05, 0.3, 0.6, 0.9, 0.99, 1.0 - 1e-9, np.nextafter(1.0, 0.0), 1.0,
     1.0 + 1e-9, 1.01, 1.05, 1.5, 2.5, 5.0, 12.0, 40.0, 300.0, 800.0],
    np.exp(0.5 * np.pi * np.sinh(np.arange(-214, 55) / 32.0))])
RATIO_POWERS = (0.5, 1, 1.5, 2, 3)


@pytest.fixture(scope="module")
def mp_ratio_taylor():
    """p -> Taylor coefficients 0..5 of (x/sinh x)^p at RATIO_NODES, rows by order,
    by mpmath at 40 digits."""
    with mpmath.workdps(40):
        return {p: np.array([[float(c) for c in mpmath.taylor(
                    lambda x: (x / mpmath.sinh(x)) ** p, mpmath.mpf(x), 5)]
                    for x in RATIO_NODES]).T for p in RATIO_POWERS}


@pytest.mark.parametrize("p", RATIO_POWERS)
def test_sinh_ratio_jet_matches_mpmath(p, mp_ratio_taylor):
    want = mp_ratio_taylor[p]
    for order in range(6):
        got = sinh_ratio_jet(order, p)(RATIO_NODES).coeffs
        err = abs(got - want[: order + 1]) / np.maximum(1.0, abs(want[: order + 1]))
        assert err.max() <= 1e-15, (order, RATIO_NODES[err.max(axis=0).argmax()], err.max())
        top = sinh_ratio_jet(order, p, top_only=True)(RATIO_NODES)
        assert np.array_equal(top, got[order])


def test_sinh_ratio_jet_is_even():
    x = np.array([0.3, 0.999, 1.0, 2.5, 40.0])
    for p in RATIO_POWERS:
        pos, neg = sinh_ratio_jet(5, p)(x).coeffs, sinh_ratio_jet(5, p)(-x).coeffs
        sign = (-1.0) ** np.arange(6)[:, None]
        assert np.array_equal(neg, sign * pos), p


def test_sinh_ratio_table_is_read_only_and_converged():
    for p in RATIO_POWERS:
        table = _sinh_ratio_table(p, tuple(range(9)))
        assert not table.flags.writeable
        for m, row in enumerate(table):
            # the last term kept is below 1e-17 of the largest at the switch, x = 1
            assert abs(row[np.flatnonzero(row)[0]]) <= 1e-17 * abs(row).max(), (p, m)


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
        expected = {"exp": _ref_exp(a), "log": _ref_log(a),
                    "reciprocal": _ref_reciprocal(a)}
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
    """sinh_ratio_jet on many nodes at once, x = scale * t as the tau chart
    takes it, returns bit for bit what it returns on each node alone, a
    0-d node, and top_only its top row: the branches scatter back without
    a trace."""
    rng = np.random.default_rng(200 + order)
    nodes = {
        "small": rng.uniform(1e-3, 0.999, 40) / scale,
        "large": rng.uniform(1.0, 60.0, 40) / scale,
        "mixed": rng.uniform(1e-3, 3.0, 40),
        "tiny": 10.0 ** rng.uniform(-300.0, -1.0, 40),
        "huge": rng.uniform(355.0, 16384.0, 40),
        "stacked": rng.uniform(1e-3, 3.0, (2, 20)),
    }
    for p in (1, 1.5):
        for name, t in nodes.items():
            x = scale * t
            jet = sinh_ratio_jet(order, p)
            got = jet(x).coeffs
            want = np.stack([jet(v).coeffs for v in x.reshape(-1)], axis=-1)
            assert _bits_equal(got, want.reshape(got.shape)), (p, name)
            top = sinh_ratio_jet(order, p, top_only=True)(x)
            assert _bits_equal(top, got[order]), (p, name)


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
