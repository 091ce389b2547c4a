"""Endpoint-weighted quadrature rules against analytic integrals."""

import math
import warnings

import numpy as np
import pytest

from casimir_harmonic.quadrature import (_GL_HI, _GL_LO, QuadratureError, _gl_sum,
                                         integrate_semiaxis, integrate_unit_interval)
from casimir_harmonic.specfun import gamma


def test_unit_interval_polynomial():
    value, err = integrate_unit_interval(lambda x: x * x, 0.0)
    assert value == pytest.approx(1.0 / 3.0, abs=1e-14)
    assert err < 1e-12


@pytest.mark.parametrize("lam", [-0.5, -0.9, 0.0, 1.5])
def test_unit_interval_weight(lam):
    # int_0^1 x^lam dx = 1/(lam+1), weight applied analytically
    value, _ = integrate_unit_interval(lambda x: np.ones_like(x), lam)
    assert value == pytest.approx(1.0 / (lam + 1.0), rel=1e-12)


def test_unit_interval_log_endpoint():
    # int_0^1 ln(x) dx = -1: integrable blow-up absorbed by the de rule
    value, _ = integrate_unit_interval(np.log, 0.0)
    assert value == pytest.approx(-1.0, abs=1e-11)


def test_weighted_integrand_validation():
    # alpha <= -1 is rejected before the integrand is called once
    calls = []

    def counted(t):
        calls.append(len(t))
        return np.exp(-t)

    for alpha in (-1.0, -1.5):
        with pytest.raises(ValueError):
            integrate_semiaxis(counted, alpha, tol=1e-10)
    assert calls == []


@pytest.mark.parametrize("alpha,s", [(0.5, 1.5), (0.0, 1.0), (2.3, 3.3)])
def test_semiaxis_gamma(alpha, s):
    # int_0^inf t^alpha e^-t dt = Gamma(alpha+1)
    value, err = integrate_semiaxis(lambda t: np.exp(-t), alpha, tol=1e-12)
    assert value == pytest.approx(gamma(s), rel=1e-12)
    assert abs(value - gamma(s)) <= max(err, 1e-13)


def test_semiaxis_log_weight():
    # int_0^inf ln(t) e^-t dt = -euler_gamma
    value, _ = integrate_semiaxis(lambda t: np.log(t) * np.exp(-t), 0.0, tol=1e-12)
    assert value == pytest.approx(-0.5772156649015329, abs=1e-12)


def test_semiaxis_log_weight_shifted():
    # int_0^inf t^(1/2) ln(t) e^-t dt = Gamma'(3/2)
    want = gamma(1.5) * (2.0 - 0.5772156649015329 - 2.0 * math.log(2.0))
    value, _ = integrate_semiaxis(lambda t: np.log(t) * np.exp(-t), 0.5, tol=1e-12)
    assert value == pytest.approx(want, rel=1e-11)


def test_semiaxis_slow_gaussian_tail():
    # sharp-but-smooth tail: int_0^inf e^(-t^2/9) dt = 3 sqrt(pi)/2
    value, _ = integrate_semiaxis(lambda t: np.exp(-(t / 3.0) ** 2), 0.0, tol=1e-11)
    assert value == pytest.approx(1.5 * math.sqrt(math.pi), rel=1e-11)


def test_semiaxis_rejects_nan():
    def bad(t):
        out = np.exp(-t)
        out[t > 2.0] = np.nan
        return out

    with pytest.raises(QuadratureError):
        integrate_semiaxis(bad, 0.0, tol=1e-10)


def test_error_estimate_is_conservative():
    value, err = integrate_semiaxis(lambda t: np.exp(-2.0 * t), 1.0, tol=1e-12)
    assert abs(value - 0.25) <= max(err, 1e-14)


_STACK = (lambda t: np.exp(-t), lambda t: np.log(t) * np.exp(-t),
          lambda t: t ** 2.3 * np.exp(-t), lambda t: np.exp(-(t / 3.0) ** 2))


@pytest.mark.parametrize("alpha", [0.0, -0.5, 1.5])
def test_stacked_entries_equal_scalar_calls(alpha):
    # each entry keeps its own stopping rule, so it gets the scalar value
    # and error bit for bit
    def stacked(t):
        return np.stack([f(t) for f in _STACK])

    values, errs = integrate_semiaxis(stacked, alpha, tol=1e-11)
    assert values.shape == errs.shape == (len(_STACK),)
    for f, value, err in zip(_STACK, values, errs):
        assert (value, err) == integrate_semiaxis(f, alpha, tol=1e-11)
    values, errs = integrate_unit_interval(stacked, alpha, tol=1e-12)
    for f, value, err in zip(_STACK, values, errs):
        assert (value, err) == integrate_unit_interval(f, alpha, tol=1e-12)


def test_stacked_nan_entry_raises():
    def stacked(t):
        bad = np.exp(-t)
        bad[t > 2.0] = np.nan
        return np.stack([np.exp(-t), bad])

    with pytest.raises(QuadratureError):
        integrate_semiaxis(stacked, 0.0, tol=1e-10)


# -- the rules with no shared first call ------------------------------------
# Each rule calls f on its own, once per tanh-sinh branch and once per
# Gauss-Legendre rule.  The rules with their wide first call must return
# these values and errors bit for bit.  Both references also return how far
# they ran: the last tanh-sinh level and the number of tail panels.

_REF_MAX_LEVEL = 11
_REF_GL_HI = np.polynomial.legendre.leggauss(40)
_REF_GL_LO = np.polynomial.legendre.leggauss(20)


def _ref_ts_nodes(h, odd_only):
    j = np.arange(1, int(np.floor(6.0 / h)) + 1)
    if odd_only:
        j = j[j % 2 == 1]
    t = j * h
    u = 0.5 * np.pi * np.sinh(t)
    ln_x_pos = -np.log1p(np.exp(-2.0 * u))
    ln_x_neg = -2.0 * u + ln_x_pos
    ln_jac = np.log(0.25 * np.pi) + np.log(np.cosh(t)) + 2.0 * (np.log(2.0) - u - np.log1p(np.exp(-2.0 * u)))
    return ln_x_pos, ln_x_neg, ln_jac


def _ref_ts_sum(f, lam, h, odd_only):
    ln_xp, ln_xn, ln_jac = _ref_ts_nodes(h, odd_only)
    total = 0.0
    for ln_x in (ln_xp, ln_xn):
        x = np.exp(ln_x)
        w = np.exp(lam * ln_x + ln_jac)
        vals = w * np.asarray(f(x), dtype=float)
        total += np.sum(vals, axis=-1)
    return total


def _ref_unit(f, lam, tol):
    h = 0.5
    f_half = (np.asarray(f(np.array([0.5])), dtype=float) * np.ones(1))[..., 0]
    center = 0.5 ** lam * f_half * 0.25 * np.pi
    acc = center + _ref_ts_sum(f, lam, h, odd_only=False)
    value = h * acc
    err = np.full(np.shape(value), np.inf)
    active = np.ones(np.shape(value), dtype=bool)
    level = 0
    for level in range(1, _REF_MAX_LEVEL + 1):
        if not active.any():
            level -= 1
            break
        h *= 0.5
        acc = acc + _ref_ts_sum(f, lam, h, odd_only=True)
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
    return value[()], err[()], level


def _ref_gl_rule(g, a, b, rule):
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    xi, w = rule
    vals = np.asarray(g(mid + half * xi), dtype=float)
    rows = vals.reshape(-1, vals.shape[-1])
    return half * np.array([np.dot(w, row) for row in rows]).reshape(vals.shape[:-1])


def _ref_semiaxis(alpha, f, tol):
    unit_val, unit_err, level = _ref_unit(f, alpha, 0.5 * tol)

    def tail_g(x):
        return x ** alpha * np.asarray(f(x), dtype=float)

    tail_val, tail_err, prev_mag, panels = 0.0, 0.0, np.inf, 0
    active = np.ones(np.shape(unit_val), dtype=bool)
    a = 1.0
    while a < 16384.0 and active.any():
        b = 2.0 * a
        hi, lo = _ref_gl_rule(tail_g, a, b, _REF_GL_HI), _ref_gl_rule(tail_g, a, b, _REF_GL_LO)
        panels += 1
        if not np.isfinite(hi[active]).all():
            raise QuadratureError(f"semiaxis panel [{a:g}, {b:g}] hit a non-finite integrand value")
        mag = abs(hi)
        done = active & (mag < 0.01 * tol) & (mag < prev_mag)
        ratio = np.where(prev_mag < np.inf, mag / prev_mag, 0.5)
        bound = np.where(done, mag * ratio / np.maximum(1.0 - ratio, 0.5), 0.0)
        tail_val = np.where(active, tail_val + hi, tail_val)
        tail_err = np.where(active, tail_err + abs(hi - lo) + bound, tail_err)
        active &= ~done
        prev_mag = np.where(mag > 0.0, mag, prev_mag)
        a = b
    if active.any():
        raise QuadratureError("semiaxis tail did not decay below tolerance by tau = 16384")
    return (unit_val + tail_val)[()], (unit_err + tail_err)[()], level, panels


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


def _same_bits(got, want):
    return all(np.shape(g) == np.shape(w) and np.array_equal(_bits(g), _bits(w))
               for g, w in zip(got, want))


# at tol 1e-9 a smooth entry stops at a middle level, the kink at 1/3 runs
# to the last level, the zero entry stops at level 2, the first level that
# can stop, and the oscillating entry's tail runs longer than its unit rule
_TOL = 1e-9
_ENTRIES = {"smooth": lambda t: np.exp(-t) / (1.0 + 100.0 * (t - 0.4) ** 2),
            "kink": lambda t: np.abs(t - 1.0 / 3.0) * np.exp(-t),
            "zero": lambda t: 0.0 * t,
            "oscillating": lambda t: np.exp(-t) * np.cos(20.0 * t)}


def _stacked(t):
    return np.stack([f(t) for f in _ENTRIES.values()])


_INTEGRANDS = dict(_ENTRIES, stacked=_stacked, constant=lambda t: 0.0)


@pytest.mark.parametrize("alpha", [-0.5, 0.0, 2.5])
def test_reference_covers_every_stopping_level(alpha):
    levels = {name: _ref_unit(f, alpha, _TOL)[2] for name, f in _ENTRIES.items()}
    assert 2 < levels["smooth"] < _REF_MAX_LEVEL
    assert (levels["kink"], levels["zero"]) == (_REF_MAX_LEVEL, 2)
    _, _, level, panels = _ref_semiaxis(alpha, _ENTRIES["oscillating"], _TOL)
    assert panels - 1 > 2 * (level - 2)


@pytest.mark.parametrize("name", sorted(_INTEGRANDS))
@pytest.mark.parametrize("alpha", [-0.5, 0.0, 2.5])
def test_stepped_rules_keep_every_bit(name, alpha):
    f = _INTEGRANDS[name]
    got = integrate_unit_interval(f, alpha, _TOL)
    assert _same_bits(got, _ref_unit(f, alpha, _TOL)[:2])
    got = integrate_semiaxis(f, alpha, _TOL)
    assert _same_bits(got, _ref_semiaxis(alpha, f, _TOL)[:2])


@pytest.mark.parametrize("odd_only", [False, True])
def test_tanh_sinh_nodes_are_built_once_and_read_only(odd_only):
    from casimir_harmonic.quadrature import _ts_nodes

    h = 0.5 ** 4
    first = _ts_nodes(h, odd_only)
    assert _ts_nodes(h, odd_only) is first
    for got, want in zip(first, _ref_ts_nodes(h, odd_only)):
        assert not got.flags.writeable
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("got, want", [(_GL_HI, _REF_GL_HI), (_GL_LO, _REF_GL_LO)],
                         ids=["40-point", "20-point"])
def test_gauss_legendre_tables_are_leggauss_and_read_only(got, want):
    for table, ref in zip(got, want):
        assert not table.flags.writeable
        assert [v.hex() for v in table.tolist()] == [v.hex() for v in ref.tolist()]


@pytest.mark.parametrize("name", sorted(_INTEGRANDS))
@pytest.mark.parametrize("alpha", [-0.5, 0.0, 2.5])
def test_one_integrand_call_per_step(name, alpha):
    calls = []

    def counted(t):
        calls.append(len(t))
        return _INTEGRANDS[name](t)

    _, _, level, panels = _ref_semiaxis(alpha, _INTEGRANDS[name], _TOL)
    integrate_semiaxis(counted, alpha, _TOL)
    assert len(calls) <= 1 + max(2 * (level - 2), panels - 1)
    # one wide first call (levels 0-3, panels up to tau = 64), then one call
    # per further tanh-sinh branch and, once that rule ends, per further panel
    assert len(calls) == 1 + 2 * max(level - 3, 0) + max(panels - 6, 0)
    calls.clear()
    integrate_unit_interval(counted, alpha, _TOL)
    assert len(calls) <= 1 + 2 * (_ref_unit(_INTEGRANDS[name], alpha, _TOL)[2] - 2)
    level = _ref_unit(_INTEGRANDS[name], alpha, _TOL)[2]
    assert len(calls) == 1 + 2 * max(level - 3, 0)


def _kink_unit_then(tail):
    # the kink makes the unit rule stall at tol 1e-14; tail(t) takes over at t >= 1
    def f(t):
        return np.where(t < 1.0, np.abs(t - 1.0 / 3.0), tail(t))
    return f


@pytest.mark.parametrize("tail", [lambda t: np.where(t > 2.0, np.nan, 1.0),
                                  lambda t: np.ones_like(t)])
def test_unit_failure_wins_over_tail_failure(tail):
    f = _kink_unit_then(tail)
    with pytest.raises(QuadratureError, match="unit-interval rule stalled") as caught:
        integrate_semiaxis(f, 0.0, 1e-14)
    with pytest.raises(QuadratureError) as want:
        _ref_semiaxis(0.0, f, 1e-14)
    assert str(caught.value) == str(want.value)


@pytest.mark.parametrize("f,message", [
    (lambda t: np.where(t > 2.0, np.nan, np.exp(-t)),
     "semiaxis panel [2, 4] hit a non-finite integrand value"),
    (lambda t: np.ones_like(t),
     "semiaxis tail did not decay below tolerance by tau = 16384"),
    (lambda t: np.where(t < 0.5, np.nan, np.exp(-t)),
     "unit-interval rule hit a non-finite integrand value"),
])
def test_failure_messages(f, message):
    with pytest.raises(QuadratureError) as caught:
        integrate_semiaxis(f, 0.0, 1e-10)
    assert str(caught.value) == message


# -- the tail rule's blocks ---------------------------------------------------
# The first call's six panels [1, 2] ... [32, 64] are one block, each later
# panel a block of one.  At tol 1e-9, exp(-a t) with a = 38 / 2^k first has
# |panel sum| < 0.01 tol on panel k, the panel [2^k, 2^(k+1)].

def _stops_at(k):
    return lambda t: np.exp(-38.0 / 2.0 ** k * t)


_BLOCK_EDGES = [_stops_at(k) for k in range(6)]
# tail 0 on [2, 4] and [4, 8] between nonzero panels: the zero panel stops
# the entry, and the magnitude carried past it skips the zeros
_ZERO_GAP = lambda t: np.exp(-t) * ((t < 2.0) | (t > 8.0))   # noqa: E731


@pytest.mark.parametrize("k", [0, 1, 2, 3, 4, 5, 7])   # 7: in a one-panel block
def test_entry_stops_at_each_block_edge(k):
    f = _stops_at(k)
    want = _ref_semiaxis(0.5, f, _TOL)
    assert want[3] == k + 1
    assert _same_bits(integrate_semiaxis(f, 0.5, _TOL), want[:2])


@pytest.mark.parametrize("alpha", [-0.5, 0.0, 2.5])
def test_stacked_entries_stop_at_every_block_edge(alpha):
    # six first-call stops, a zero gap and a stop at [128, 256], past tau = 64
    entries = _BLOCK_EDGES + [_ZERO_GAP, _stops_at(7)]

    def stacked(t):
        return np.stack([f(t) for f in entries])

    assert [_ref_semiaxis(alpha, f, _TOL)[3] for f in entries] in (
        [1, 2, 3, 4, 5, 6, 2, 8], [1, 2, 3, 4, 5, 6, 2, 9])
    got = integrate_semiaxis(stacked, alpha, _TOL)
    assert _same_bits(got, _ref_semiaxis(alpha, stacked, _TOL)[:2])
    for f, value, err in zip(entries, *got):
        assert _same_bits((value, err), _ref_semiaxis(alpha, f, _TOL)[:2])


def test_block_past_a_stop_raises_no_warning():
    # inf on the first call's panels past tau = 9, which the entry never reaches
    def f(t):
        return np.where(t > 9.0, np.inf, np.exp(-8.0 * t))

    want = _ref_semiaxis(0.5, f, 1e-6)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = integrate_semiaxis(f, 0.5, 1e-6)
    assert _same_bits(got, want[:2])


def test_non_finite_check_stops_at_each_entry():
    # entry 0 stops at [2, 4] and is NaN past 4; entry 1 runs on and is NaN
    # past 16: the first panel read while non-finite is [16, 32]
    def f(t):
        return np.stack([np.where(t > 4.0, np.nan, _stops_at(1)(t)),
                         np.where(t > 16.0, np.nan, np.exp(-t))])

    with pytest.raises(QuadratureError) as want:
        _ref_semiaxis(0.0, f, _TOL)
    with pytest.raises(QuadratureError) as caught:
        integrate_semiaxis(f, 0.0, _TOL)
    assert str(caught.value) == str(want.value) == (
        "semiaxis panel [16, 32] hit a non-finite integrand value")


# -- the unit rule's blocks ---------------------------------------------------
# The first call's tanh-sinh levels 1-3 are one block, each later level a
# block of one.  At tol 1e-9 exp(-t) stops at level 2 and the peak at 0.4 at
# level 3, on the unit interval and in the unit piece of the semiaxis.

_STOPS_AT_LEVEL = {2: lambda t: np.exp(-t),
                   3: lambda t: np.exp(-t) / (1.0 + 2.0 * (t - 0.4) ** 2)}


def _got_and_want(f, alpha):
    """(got, want) of the unit-interval rule, then of the semiaxis rule."""
    return [(integrate_unit_interval(f, alpha, _TOL), _ref_unit(f, alpha, _TOL)[:2]),
            (integrate_semiaxis(f, alpha, _TOL), _ref_semiaxis(alpha, f, _TOL)[:2])]


@pytest.mark.parametrize("level", [2, 3])
@pytest.mark.parametrize("alpha", [-0.5, 0.0, 2.5])
def test_unit_entry_stops_inside_the_first_call(level, alpha):
    f = _STOPS_AT_LEVEL[level]
    assert _ref_unit(f, alpha, _TOL)[2] == _ref_semiaxis(alpha, f, _TOL)[2] == level
    for got, want in _got_and_want(f, alpha):
        assert _same_bits(got, want)


@pytest.mark.parametrize("alpha", [-0.5, 0.0, 2.5])
def test_unit_stops_inside_the_first_call_stacked_with_a_long_entry(alpha):
    entries = [_STOPS_AT_LEVEL[2], _STOPS_AT_LEVEL[3], _ENTRIES["kink"]]

    def stacked(t):
        return np.stack([f(t) for f in entries])

    for i, (got, want) in enumerate(_got_and_want(stacked, alpha)):
        assert _same_bits(got, want)
        for f, value, err in zip(entries, *got):
            assert _same_bits((value, err), _got_and_want(f, alpha)[i][1])


def _spike_at_level(level, spike, f):
    # spike on the x -> 0 branch of tanh-sinh level `level` (on the x -> 1
    # branch several levels share the node x = 1), or at the centre if level
    # is None, and f elsewhere
    x = [0.5] if level is None else np.exp(_ref_ts_nodes(0.5 ** (level + 1), level > 0)[1])
    return lambda t: np.where(np.isin(t, x), spike, f(t))


@pytest.mark.parametrize("alpha", [-0.5, 0.0])   # at 2.5 the spike's weights are too small
def test_unit_entry_never_stops_at_level_1(alpha):
    # 0 on levels 0 and 1, so their values agree, but not on level 2
    f = _spike_at_level(2, 1e-8, lambda t: 0.0 * t)
    assert _ref_unit(f, alpha, _TOL)[2] > 2
    for got, want in _got_and_want(f, alpha):
        assert _same_bits(got, want)


@pytest.mark.parametrize("bad", [math.inf, math.nan])
@pytest.mark.parametrize("alpha", [-0.5, 0.0, 2.5])
def test_unit_block_past_a_stop_raises_no_warning(bad, alpha):
    # level 3 is in the first call, but an entry that stops at level 2 never
    # reads it, alone or stacked with an entry that runs on
    f = _spike_at_level(3, bad, _STOPS_AT_LEVEL[2])

    def stacked(t):
        return np.stack([f(t), _ENTRIES["kink"](t)])

    rules = (integrate_unit_interval, integrate_semiaxis)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        alone = [integrate(f, alpha, _TOL) for integrate in rules]
        together = [integrate(stacked, alpha, _TOL) for integrate in rules]
    for got, got_stacked, (_, want), (_, want_kink) in zip(
            alone, together, _got_and_want(f, alpha), _got_and_want(_ENTRIES["kink"], alpha)):
        assert _same_bits(got, want)
        assert _same_bits(got_stacked, np.stack([want, want_kink], axis=-1))


@pytest.mark.parametrize("stop,level", [(2, None), (2, 0), (2, 1), (2, 2), (3, 3)])
@pytest.mark.parametrize("bad", [math.inf, math.nan])
@pytest.mark.parametrize("alpha", [0.0, 2.5])
def test_unit_non_finite_value_up_to_the_stop_raises(stop, level, bad, alpha):
    f = _spike_at_level(level, bad, _STOPS_AT_LEVEL[stop])
    message = "^unit-interval rule hit a non-finite integrand value$"
    for integrate in (lambda: _ref_unit(f, alpha, _TOL), lambda: integrate_unit_interval(f, alpha, _TOL),
                      lambda: integrate_semiaxis(f, alpha, _TOL)):
        with pytest.raises(QuadratureError, match=message), np.errstate(invalid="ignore"):
            integrate()     # the reference's weights of 0 times inf warn


# -- panel sums ---------------------------------------------------------------

def _dot_rows(w, vals):
    rows = vals.reshape(-1, vals.shape[-1])
    return np.array([np.dot(w, row) for row in rows]).reshape(vals.shape[:-1])


@pytest.mark.parametrize("shape", [(1,), (3, 7), (2, 5, 6), (3, 4000)])
def test_panel_sums_keep_the_bits_of_one_dot_per_row(shape):
    # 12000 rows in the last case, as on a 4000-radius stress grid
    rng = np.random.default_rng(19)
    vals = rng.standard_normal(shape + (60,)) * np.exp(rng.uniform(-40.0, 40.0, shape + (60,)))
    for w, part in ((_GL_HI[1], vals[..., :40]), (_GL_LO[1], vals[..., 40:]),
                    (_GL_LO[1], vals[..., ::3])):   # the last is inner-strided
        assert np.array_equal(_bits(_gl_sum(1.5, w, part)), _bits(1.5 * _dot_rows(w, part)))


def test_tol_whose_tail_threshold_underflows_is_rejected_before_any_call():
    calls = []

    def counted(t):
        calls.append(len(t))
        return np.exp(-t)

    # 0.01 tol is 0 up to 2.4e-322; the unit-interval rule has no such threshold
    for tol in (5e-324, 2.4e-322):
        with pytest.raises(ValueError, match=f"^tol {tol!r} is too small: the tail threshold"):
            integrate_semiaxis(counted, 0.3, tol)
    assert calls == []
    value, _ = integrate_semiaxis(counted, 0.3, 2.47e-322)
    assert value == pytest.approx(gamma(1.3), rel=1e-14)
    value, _ = integrate_unit_interval(counted, 0.3, 5e-324)
    assert math.isfinite(value)


_BAD_INPUTS = [(math.nan, 1e-9), (math.inf, 1e-9), (-1.0, 1e-9),
               (0.5, math.nan), (0.5, math.inf), (0.5, 0.0), (0.5, -1e-9)]


@pytest.mark.parametrize("weight,tol", _BAD_INPUTS)
@pytest.mark.parametrize("integrate", [integrate_unit_interval, integrate_semiaxis])
def test_bad_weight_or_tolerance_is_rejected_before_any_call(integrate, weight, tol):
    calls = []

    def counted(t):
        calls.append(len(t))
        return np.exp(-t)

    with pytest.raises(ValueError):
        integrate(counted, weight, tol)
    assert calls == []
