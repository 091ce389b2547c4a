"""Endpoint-weighted quadrature rules against analytic integrals."""

import math
import warnings

import mpmath
import numpy as np
import pytest
import quadrature_reference as ref

from casimir_harmonic.quadrature import (_LN_LOW, QuadratureError, _es_table, _sums,
                                         integrate_semiaxis)
from casimir_harmonic.specfun import gamma


def _unit_interval(f, lam, tol=1e-12):
    # int_0^1 x^lam f(x) dx on the semiaxis through x = e^-s, the map of the
    # large-r tail integrals: x -> 0 moves to s -> inf, and the weight and the
    # Jacobian become the integrand's factor e^(-(lam + 1) s)
    return integrate_semiaxis(lambda s: np.exp(-(lam + 1.0) * s) * f(np.exp(-s)), 0.0, tol)


def test_unit_interval_polynomial():
    value, err = _unit_interval(lambda x: x * x, 0.0)
    assert value == pytest.approx(1.0 / 3.0, abs=1e-14)
    assert err < 1e-12


@pytest.mark.parametrize("lam", [-0.5, -0.9, 0.0, 1.5])
def test_unit_interval_weight(lam):
    # int_0^1 x^lam dx = 1/(lam+1); at lam = -0.9 the integrand e^(-0.1 s)
    # takes tail doublings up to s = 1024
    value, _ = _unit_interval(lambda x: np.ones_like(x), lam)
    assert value == pytest.approx(1.0 / (lam + 1.0), rel=1e-12)


def test_unit_interval_log_endpoint():
    # int_0^1 ln(x) dx = -1: the blow-up at x = 0 becomes the factor -s
    value, _ = _unit_interval(np.log, 0.0)
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


def test_stacked_nan_entry_raises():
    def stacked(t):
        bad = np.exp(-t)
        bad[t > 2.0] = np.nan
        return np.stack([np.exp(-t), bad])

    with pytest.raises(QuadratureError):
        integrate_semiaxis(stacked, 0.0, tol=1e-10)


# -- references -----------------------------------------------------------------
# ``quadrature_reference.semiaxis`` is the exp-sinh rule with one call of f per
# piece of each level.  The rule in the package, with its wide first call, must
# return its values and errors bit for bit.  The reference also returns how far
# it ran: the last level and each entry's top piece.


def _ref_semiaxis(alpha, f, tol):
    return ref.semiaxis(f, alpha, tol)


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


def _same_bits(got, want):
    return all(np.shape(g) == np.shape(w) and np.array_equal(_bits(g), _bits(w))
               for g, w in zip(got, want))


# at tol 1e-9 a smooth entry stops at a middle level, the kink at 1/3 runs
# to level 10 or 11, the zero entry stops
# at level 2, the first level that can stop, and the oscillating entry runs
# past the first call
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
    levels = {name: _ref_semiaxis(alpha, f, _TOL)[2] for name, f in _ENTRIES.items()}
    assert 2 < levels["smooth"] < levels["oscillating"] < ref.MAX_LEVEL
    assert (levels["kink"] >= ref.MAX_LEVEL - 1, levels["zero"]) == (True, 2)
    assert levels["oscillating"] > ref.FIRST_LEVEL


@pytest.mark.parametrize("name", sorted(_INTEGRANDS))
@pytest.mark.parametrize("alpha", [-0.5, 0.0, 2.5])
def test_stepped_rules_keep_every_bit(name, alpha):
    f = _INTEGRANDS[name]
    got = integrate_semiaxis(f, alpha, _TOL)
    assert _same_bits(got, _ref_semiaxis(alpha, f, _TOL)[:2])


def test_exp_sinh_nodes_are_built_once_and_read_only():
    keys = tuple((level, k) for level in range(6) for k in range(3))
    first = _es_table(keys)
    assert _es_table(keys) is first
    t = np.concatenate([ref.piece_t(level, k) for level, k in keys])
    assert np.array_equal(first[0], np.exp(0.5 * np.pi * np.sinh(t)))
    assert all(not a.flags.writeable for a in first[:3])
    # the pieces tile each level's grid from tau = e^-634 up to 256, and a
    # level holds only the odd multiples of its step
    for level in range(6):
        h = 0.5 ** (level + 1)
        t = np.concatenate([ref.piece_t(level, k) for k in range(3)])
        assert np.all(np.diff(t) == (h if level == 0 else 2 * h))
        assert t[0] - (h if level == 0 else 2 * h) <= ref.LOW < t[0]
        assert 0.5 * np.pi * np.sinh(ref.LOW) == pytest.approx(-np.pi * np.sinh(6.0))
    assert np.exp(0.5 * np.pi * np.sinh(ref.TOPS)) == pytest.approx(64.0 * 2.0 ** np.arange(9))


@pytest.mark.parametrize("name", sorted(_INTEGRANDS))
@pytest.mark.parametrize("alpha", [-0.5, 0.0, 2.5])
def test_one_integrand_call_per_step(name, alpha):
    calls = []

    def counted(t):
        calls.append(len(t))
        return _INTEGRANDS[name](t)

    _, _, level, top = _ref_semiaxis(alpha, _INTEGRANDS[name], _TOL)
    integrate_semiaxis(counted, alpha, _TOL)
    # one wide first call (levels 0-4 up to tau = 64), one call per tail
    # doubling past it, then one call per further level
    assert len(calls) == 1 + np.max(top) + max(level - ref.FIRST_LEVEL, 0)


@pytest.mark.parametrize("f,message", [
    (lambda t: np.where(t > 40.0, np.nan, np.exp(-t)),
     "semiaxis panel [32, 64] hit a non-finite integrand value"),
    (lambda t: np.ones_like(t),
     "semiaxis tail did not decay below tolerance by tau = 16384"),
    (lambda t: np.where(t < 0.5, np.nan, np.exp(-t)),
     "semiaxis rule hit a non-finite integrand value"),
])
def test_failure_messages(f, message):
    with pytest.raises(QuadratureError) as caught:
        integrate_semiaxis(f, 0.0, 1e-10)
    assert str(caught.value) == message


# -- the tail doublings -------------------------------------------------------
# The first call reaches tau = 64; an entry whose top doubling (32, 64] still
# holds 0.01 tol or more takes the doubling (64, 128], and so on.  At tol 1e-9,
# exp(-a t) with a = 38 / (32 * 2^k) stops at the doubling ending at 64 * 2^k.

def _stops_at(k):
    return lambda t: np.exp(-38.0 / (32.0 * 2.0 ** k) * t)


_BLOCK_EDGES = [_stops_at(k) for k in range(6)]


@pytest.mark.parametrize("k", [0, 1, 2, 3, 4, 5, 7])   # 0: inside the first call
def test_entry_stops_at_each_block_edge(k):
    f = _stops_at(k)
    want = _ref_semiaxis(0.5, f, _TOL)
    assert want[3] == k
    assert _same_bits(integrate_semiaxis(f, 0.5, _TOL), want[:2])


@pytest.mark.parametrize("alpha", [-0.5, 0.0, 2.5])
def test_stacked_entries_stop_at_every_block_edge(alpha):
    # six tops from the first call's on, a zero entry and a top at 8192
    entries = _BLOCK_EDGES + [_ENTRIES["zero"], _stops_at(7)]

    def stacked(t):
        return np.stack([f(t) for f in entries])

    assert [_ref_semiaxis(alpha, f, _TOL)[3] for f in entries] in (
        [0, 1, 2, 3, 4, 5, 0, 7], [0, 1, 2, 3, 5, 6, 0, 8])
    got = integrate_semiaxis(stacked, alpha, _TOL)
    assert _same_bits(got, _ref_semiaxis(alpha, stacked, _TOL)[:2])
    for f, value, err in zip(entries, *got):
        assert _same_bits((value, err), _ref_semiaxis(alpha, f, _TOL)[:2])


def test_first_call_evaluates_no_node_past_tau_64():
    calls = []

    def stacked(t):
        calls.append(t.max())
        return np.stack([f(t) for f in _BLOCK_EDGES + [_stops_at(7)]])

    integrate_semiaxis(stacked, 0.5, _TOL)
    assert calls[0] <= 64.0
    # one further call per doubling up to tau = 64 * 2^7, then the levels
    assert [c > 64.0 * 2.0 ** k for k, c in enumerate(calls[1:8])] == [True] * 7
    calls.clear()
    integrate_semiaxis(lambda t: calls.append(t.max()) or np.exp(-t), 0.5, _TOL)
    assert max(calls) <= 64.0


@pytest.mark.parametrize("f", [lambda t: np.ones_like(t), lambda t: 1.0 / (1.0 + t),
                               lambda t: np.exp(-t / 2000.0)], ids=["one", "power", "slow"])
def test_non_decaying_integrand_raises_at_16384(f):
    tops = []

    def counted(t):
        tops.append(t.max())
        return f(t)

    with pytest.raises(QuadratureError, match=r"^semiaxis tail did not decay below tolerance by tau = 16384$"):
        integrate_semiaxis(counted, 0.0, 1e-9)
    assert 8192.0 < max(tops) <= 16384.0


def test_block_past_a_stop_raises_no_warning():
    # inf on the nodes new at levels 3 and 4 below tau = 32, which an entry
    # that stops at level 2 never reads
    x = np.concatenate([np.exp(0.5 * np.pi * np.sinh(ref.piece_t(level, 0))) for level in (3, 4)])

    def f(t):
        return np.where(np.isin(t, x[x <= 32.0]), np.inf, np.exp(-8.0 * t))

    want = _ref_semiaxis(0.5, f, 1e-6)
    assert want[2] == 2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = integrate_semiaxis(f, 0.5, 1e-6)
    assert _same_bits(got, want[:2])


def test_non_finite_check_stops_at_each_entry():
    # entry 0 stops at tau = 64 and is NaN past it; entry 1 runs on and is NaN
    # past 160: the first doubling read while non-finite is [128, 256]
    def f(t):
        return np.stack([np.where(t > 64.0, np.nan, np.exp(-t)),
                         np.where(t > 160.0, np.nan, _stops_at(4)(t))])

    with pytest.raises(QuadratureError) as want:
        _ref_semiaxis(0.0, f, _TOL)
    with pytest.raises(QuadratureError) as caught:
        integrate_semiaxis(f, 0.0, _TOL)
    assert str(caught.value) == str(want.value) == (
        "semiaxis panel [128, 256] hit a non-finite integrand value")


# -- the contract's accuracy ----------------------------------------------------

@pytest.mark.parametrize("lam", [-0.95, -0.9, -0.5, 0.0, 2.0])
def test_gamma_integrals_meet_tol(lam):
    # int_0^inf t^lam e^-t dt = Gamma(lam + 1); near lam = -1 the mass below
    # the lowest node, tau = e^-634, is e^(-634 (lam + 1)) / (lam + 1)
    with mpmath.workdps(30):
        want = mpmath.gamma(lam + 1)
    value, err = integrate_semiaxis(lambda t: np.exp(-t), lam, 1e-12)
    assert abs(value - float(want)) <= 1e-12
    assert err <= 1e-12


def test_error_covers_the_mass_below_the_lowest_node():
    # at lam = -0.95 the levels agree to 1.2e-13, but the rule misses
    # int_0^(e^-634) t^-0.95 dt ~ 3.5e-13; from lam = -0.5 on that mass is
    # below 1e-137 |f|, so it changes no error of the package's integrals
    with mpmath.workdps(30):
        want = float(mpmath.gamma(0.05))
    value, err = integrate_semiaxis(lambda t: np.exp(-t), -0.95, 1e-12)
    assert abs(value - want) <= err <= 1e-12
    assert math.exp(0.5 * _LN_LOW) / 0.5 <= 1e-137


def test_weight_next_to_minus_one_meets_tol_or_raises():
    try:
        value, _ = integrate_semiaxis(lambda t: np.exp(-t), -0.99, 1e-12)
    except QuadratureError as exc:
        assert str(exc).startswith("semiaxis rule stalled")
    else:
        with mpmath.workdps(30):
            assert abs(value - float(mpmath.gamma(0.01))) <= 1e-12


def _kinked_tail():
    # int_0^inf |sin t| e^(-a t) dt = coth(a pi / 2) / (1 + a^2); the kinks at
    # every multiple of pi reach far into the tail
    a = 0.3
    with mpmath.workdps(30):
        want = float(mpmath.coth(a * mpmath.pi / 2) / (1 + a * a))
    return lambda t: np.abs(np.sin(t)) * np.exp(-a * t), want


def test_kinked_tail_meets_tol_or_raises():
    f, want = _kinked_tail()
    try:
        value, _ = integrate_semiaxis(f, 0.0, 1e-9)
    except QuadratureError as exc:
        assert str(exc).startswith("semiaxis rule stalled")
    else:
        assert abs(value - want) <= 1e-9


def test_kinked_tail_error_covers_what_a_loose_tol_accepts():
    # the last level's error is within 100 tol, so the rule returns it
    f, want = _kinked_tail()
    value, err = integrate_semiaxis(f, 0.0, 1e-7)
    assert 1e-7 < err <= 1e-5
    assert abs(value - want) <= err


@pytest.mark.parametrize("a", [1.6, 3.3])
def test_kink_whose_levels_agree_by_chance_meets_tol(a):
    # int_0^inf |t - a| e^-t dt = a - 1 + 2 e^-a.  At tol 1e-7 two levels agree
    # by chance (level 7 against level 6) while the ones before still fall by
    # about 4 a level, as a kink's do; stopping there would miss by 18-20 tol
    want = a - 1.0 + 2.0 * math.exp(-a)
    value, err = integrate_semiaxis(lambda t: np.abs(t - a) * np.exp(-t), 0.0, 1e-7)
    assert abs(value - want) <= min(err, 1e-7)
    assert _ref_semiaxis(0.0, lambda t: np.abs(t - a) * np.exp(-t), 1e-7)[2] > 7


# -- the nested levels ---------------------------------------------------------
# The first call's levels are one block, each later level a block of one.  At
# tol 1e-9 exp(-t) and the peak at 0.4 both stop at level 3 or 4, inside the
# first call.

_STOPS_AT_LEVEL = {2: lambda t: np.exp(-t),
                   3: lambda t: np.exp(-t) / (1.0 + 2.0 * (t - 0.4) ** 2)}


def _got_and_want(f, alpha):
    return integrate_semiaxis(f, alpha, _TOL), _ref_semiaxis(alpha, f, _TOL)[:2]


@pytest.mark.parametrize("level", [2, 3])
@pytest.mark.parametrize("alpha", [-0.5, 0.0, 2.5])
def test_unit_entry_stops_inside_the_first_call(level, alpha):
    f = _STOPS_AT_LEVEL[level]
    assert 2 < _ref_semiaxis(alpha, f, _TOL)[2] <= ref.FIRST_LEVEL
    assert _same_bits(*_got_and_want(f, alpha))


@pytest.mark.parametrize("alpha", [-0.5, 0.0, 2.5])
def test_unit_stops_inside_the_first_call_stacked_with_a_long_entry(alpha):
    entries = [_STOPS_AT_LEVEL[2], _STOPS_AT_LEVEL[3], _ENTRIES["kink"]]

    def stacked(t):
        return np.stack([f(t) for f in entries])

    got, want = _got_and_want(stacked, alpha)
    assert _same_bits(got, want)
    for f, value, err in zip(entries, *got):
        assert _same_bits((value, err), _got_and_want(f, alpha)[1])


def _level_nodes(level):
    """The nodes new at `level` up to tau = 32, or the node tau = 1 if level is None."""
    if level is None:
        return np.array([1.0])
    x = np.exp(0.5 * np.pi * np.sinh(ref.piece_t(level, 0)))
    return x[x <= 32.0]


def _spike_at_level(level, spike, f):
    # spike on the nodes new at `level`, and f elsewhere
    x = _level_nodes(level)
    return lambda t: np.where(np.isin(t, x), spike, f(t))


@pytest.mark.parametrize("alpha", [-0.5, 0.0])   # at 2.5 the spike's weights are too small
def test_unit_entry_never_stops_at_level_1(alpha):
    # 0 on levels 0 and 1, so their values agree, but not on level 2
    f = _spike_at_level(2, 1e-8, lambda t: 0.0 * t)
    assert _ref_semiaxis(alpha, f, _TOL)[2] > 2
    assert _same_bits(*_got_and_want(f, alpha))


@pytest.mark.parametrize("bad", [math.inf, math.nan])
@pytest.mark.parametrize("alpha", [-0.5, 0.0, 2.5])
def test_unit_block_past_a_stop_raises_no_warning(bad, alpha):
    # level 4 is in the first call, but an entry that stops before it never
    # reads it, alone or stacked with an entry that runs on: exp(-t) at tol
    # 1e-3 stops at level 2 or 3
    f = _spike_at_level(4, bad, _STOPS_AT_LEVEL[2])

    def stacked(t):
        return np.stack([f(t), _ENTRIES["kink"](t)])

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        alone, together = integrate_semiaxis(f, alpha, 1e-3), integrate_semiaxis(stacked, alpha, 1e-3)
    want, want_kink = _ref_semiaxis(alpha, f, 1e-3)[:2], _ref_semiaxis(alpha, _ENTRIES["kink"], 1e-3)[:2]
    assert _same_bits(alone, want)
    assert _same_bits(together, np.stack([want, want_kink], axis=-1))


@pytest.mark.parametrize("stop,level", [(2, None), (2, 0), (2, 1), (2, 2), (3, 3)])
@pytest.mark.parametrize("bad", [math.inf, math.nan])
@pytest.mark.parametrize("alpha", [0.0, 2.5])
def test_unit_non_finite_value_up_to_the_stop_raises(stop, level, bad, alpha):
    f = _spike_at_level(level, bad, _STOPS_AT_LEVEL[stop])
    for integrate in (lambda: _ref_semiaxis(alpha, f, _TOL), lambda: integrate_semiaxis(f, alpha, _TOL)):
        with pytest.raises(QuadratureError, match="^semiaxis rule hit a non-finite integrand value$"):
            integrate()


# -- piece sums ---------------------------------------------------------------

@pytest.mark.parametrize("shape", [(1,), (3, 7), (2, 5, 6), (3, 4000)])
def test_piece_sums_keep_the_bits_of_one_sum_per_row(shape):
    # 12000 rows in the last case, as on a 4000-radius stress grid: each row
    # of a stacked call gets the sums of a call on that row alone
    rng = np.random.default_rng(19)
    scale = rng.standard_normal(shape) * np.exp(rng.uniform(-40.0, 40.0, shape))
    rate = rng.uniform(0.1, 3.0, shape)
    table = _es_table(tuple((level, k) for level in range(5) for k in range(2)))
    sums = _sums(lambda t: scale[..., None] * np.exp(-rate[..., None] * t), 0.5, table)[0]
    for row, index in enumerate(np.ndindex(*shape)):
        want = _sums(lambda t: scale[index] * np.exp(-rate[index] * t), 0.5, table)[0]
        assert np.array_equal(_bits(sums[row]), _bits(want[0]))


def test_tol_whose_tail_threshold_underflows_is_rejected_before_any_call():
    calls = []

    def counted(t):
        calls.append(len(t))
        return np.exp(-t)

    # 0.01 tol is 0 up to 2.4e-322
    for tol in (5e-324, 2.4e-322):
        with pytest.raises(ValueError, match=f"^tol {tol!r} is too small: the tail threshold"):
            integrate_semiaxis(counted, 0.3, tol)
    assert calls == []
    value, _ = integrate_semiaxis(counted, 0.3, 2.47e-322)
    assert value == pytest.approx(gamma(1.3), rel=1e-14)


_BAD_INPUTS = [(math.nan, 1e-9), (math.inf, 1e-9), (-1.0, 1e-9),
               (0.5, math.nan), (0.5, math.inf), (0.5, 0.0), (0.5, -1e-9)]


@pytest.mark.parametrize("weight,tol", _BAD_INPUTS)
@pytest.mark.parametrize("integrate", [integrate_semiaxis])
def test_bad_weight_or_tolerance_is_rejected_before_any_call(integrate, weight, tol):
    calls = []

    def counted(t):
        calls.append(len(t))
        return np.exp(-t)

    with pytest.raises(ValueError):
        integrate(counted, weight, tol)
    assert calls == []
