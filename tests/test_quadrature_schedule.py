"""The quadrature step schedule against the one-panel-per-step rules.

The reference below is the stepped driver as it ran with a first step of
tanh-sinh levels 0-2 and tail panel [1, 2], then one branch and one panel
per step.  The rules ask for levels 0-3 and the panels up to tau = 64
in their first step; values, errors and failures must stay those of the
reference bit for bit, whatever the integrand, weight and tolerance.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from casimir_harmonic import energy
from casimir_harmonic.quadrature import (_GL_HI, _GL_LO, QuadratureError, _gl_sum,
                                         _ts_branches, integrate_semiaxis,
                                         integrate_unit_interval)

# -- the one-panel-per-step rules --------------------------------------------


def _ref_unit_rule(lam, tol):
    if lam <= -1.0:
        raise ValueError("weight exponent must satisfy lam > -1")
    first = [_ts_branches(lam, 0.5 ** (level + 1), level > 0) for level in range(3)]
    vals = yield [np.array([0.5])] + [x for level in first for x, _ in level]
    center = 0.5 ** lam * vals[0][..., 0] * 0.25 * np.pi
    sums = []
    for i, level in enumerate(first):
        total = 0.0
        for (_, w), v in zip(level, vals[1 + 2 * i: 3 + 2 * i]):
            total += np.sum(w * v, axis=-1)
        sums.append(total)
    h = 0.5
    acc = center + sums[0]
    value = h * acc
    err = np.full(np.shape(value), np.inf)
    active = np.ones(np.shape(value), dtype=bool)
    for level in range(1, 12):
        if not active.any():
            break
        h *= 0.5
        if level < len(first):
            total = sums[level]
        else:
            total = 0.0
            for x, w in _ts_branches(lam, h, odd_only=True):
                v, = yield [x]
                total += np.sum(w * v, axis=-1)
        acc = acc + total
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
    return value[()], err[()]


def _ref_tail_rule(alpha, tol):
    tail_val, tail_err, prev_mag, active = 0.0, 0.0, np.inf, None
    a = 1.0
    while a < 16384.0 and (active is None or active.any()):
        b = 2.0 * a
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        x_hi, x_lo = mid + half * _GL_HI[0], mid + half * _GL_LO[0]
        v_hi, v_lo = yield [x_hi, x_lo]
        hi = _gl_sum(half, _GL_HI[1], x_hi ** alpha * v_hi)
        lo = _gl_sum(half, _GL_LO[1], x_lo ** alpha * v_lo)
        if active is None:
            active = np.ones(np.shape(hi), dtype=bool)
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
    return tail_val, tail_err


def _ref_step_together(f, rules):
    asks = {i: next(rule) for i, rule in enumerate(rules)}
    results, failed = [None] * len(rules), {}
    while asks:
        x = np.concatenate([nodes for ask in asks.values() for nodes in ask])
        vals = np.asarray(f(x), dtype=float)
        if vals.shape[-1:] != x.shape:
            vals = np.broadcast_to(vals, vals.shape[:-1] + x.shape)
        start = 0
        for i, ask in list(asks.items()):
            parts = []
            for nodes in ask:
                parts.append(vals[..., start:start + nodes.size])
                start += nodes.size
            try:
                asks[i] = rules[i].send(parts)
            except StopIteration as stop:
                results[i] = stop.value
                del asks[i]
            except QuadratureError as exc:
                failed[i] = exc
                del asks[i]
        if failed and min(failed) < min(asks, default=len(rules)):
            raise failed[min(failed)]
    return results


def _ref_unit_interval(f, lam, tol):
    (result,) = _ref_step_together(f, [_ref_unit_rule(lam, tol)])
    return result


def _ref_semiaxis(f, alpha, tol):
    (unit_val, unit_err), (tail_val, tail_err) = _ref_step_together(
        f, [_ref_unit_rule(alpha, 0.5 * tol), _ref_tail_rule(alpha, tol)])
    return (unit_val + tail_val)[()], (unit_err + tail_err)[()]


# -- drawn integrands ---------------------------------------------------------


def _outcome(integrate, f, weight, tol):
    """('value', bits of value and error) or ('error', message) of one call."""
    try:
        value, err = integrate(f, weight, tol)
    except QuadratureError as exc:
        return "error", str(exc)
    return "value", [np.asarray(x, dtype=float).view(np.int64).tolist() for x in (value, err)]


# c tau^p exp(-a tau), at least one term per entry and one entry per integral
_TERM = st.tuples(st.floats(-5.0, 5.0), st.floats(0.0, 4.0), st.floats(0.1, 8.0))
_ENTRIES = st.lists(st.lists(_TERM, min_size=1, max_size=3), min_size=1, max_size=4)
_ALPHA = st.floats(-1.0, 3.0, exclude_min=True)
_TOL = st.floats(-12.0, -4.0).map(lambda e: 10.0 ** e)
# inside the first step (tau <= 64), past it, or in the unit interval
_NAN_TAU = st.one_of(st.floats(0.05, 1.0), st.floats(1.0, 64.0), st.floats(64.0, 4096.0))


def _sum_of_exponentials(entries):
    def f(t):
        return np.stack([sum(c * t ** p * np.exp(-a * t) for c, p, a in terms)
                         for terms in entries])
    return f


def _nan_past(f, tau, entry):
    def g(t):
        out = f(t)
        out[entry, t > tau] = np.nan
        return out
    return g


_PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)


@_PROPERTY
@given(entries=_ENTRIES, alpha=_ALPHA, tol=_TOL)
def test_schedule_keeps_every_bit(entries, alpha, tol):
    f = _sum_of_exponentials(entries)
    for integrate, reference in ((integrate_semiaxis, _ref_semiaxis),
                                 (integrate_unit_interval, _ref_unit_interval)):
        assert _outcome(integrate, f, alpha, tol) == _outcome(reference, f, alpha, tol)


@_PROPERTY
@given(entries=_ENTRIES, alpha=_ALPHA, tol=_TOL, tau=_NAN_TAU, data=st.data())
def test_nan_past_a_node_fails_as_before(entries, alpha, tol, tau, data):
    # values past the panel or level where every entry stops are never read
    entry = data.draw(st.integers(0, len(entries) - 1))
    f = _nan_past(_sum_of_exponentials(entries), tau, entry)
    for integrate, reference in ((integrate_semiaxis, _ref_semiaxis),
                                 (integrate_unit_interval, _ref_unit_interval)):
        assert _outcome(integrate, f, alpha, tol) == _outcome(reference, f, alpha, tol)


@_PROPERTY
@given(tau=st.floats(1.0, 16384.0), decays=st.booleans(), alpha=_ALPHA)
def test_unit_failure_still_wins(tau, decays, alpha):
    # the kink at 1/3 stalls the unit rule at tol 1e-14; past tau = 1 the
    # tail hits a NaN or never decays
    def f(t):
        tail = np.where(t > tau, np.nan, np.exp(-t) if decays else 1.0)
        return np.where(t < 1.0, np.abs(t - 1.0 / 3.0), tail)

    got = _outcome(integrate_semiaxis, f, alpha, 1e-14)
    assert got == _outcome(_ref_semiaxis, f, alpha, 1e-14)
    assert got[0] == "error" and got[1].startswith("unit-interval rule")


def test_values_past_where_every_entry_stops_are_never_read():
    # a zero integrand stops at tanh-sinh level 2 and after panel [1, 2], so
    # the first step's level-3 and later-panel values may be anything
    def nodes(level):
        return np.concatenate([x for x, _ in _ts_branches(0.0, 0.5 ** (level + 1), level > 0)])

    # near x = 1 the levels share nodes that round to 1.0
    level3 = np.setdiff1d(nodes(3), np.concatenate([nodes(level) for level in range(3)]))

    def f(t):
        return np.where(np.isin(t, level3) | (t > 2.0), np.nan, 0.0)

    assert integrate_semiaxis(f, 0.5, 1e-10) == (0.0, 0.0)
    assert integrate_unit_interval(f, 0.5, 1e-10) == (0.0, 0.0)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_bulk_energy_makes_at_most_two_integrand_calls(monkeypatch, d):
    calls = []

    def counted(integrand, alpha, tol):
        def f(t):
            calls.append(t.size)
            return integrand(t)
        return integrate_semiaxis(f, alpha, tol)

    monkeypatch.setattr(energy, "integrate_semiaxis", counted)
    energy.bulk_energy_quadrature(d, n=d + 1)
    assert 1 <= len(calls) <= 2
