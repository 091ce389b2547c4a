"""The quadrature call schedule against rules that call f step by step.

The tanh-sinh reference is the stepped rule as it ran with a first step
of levels 0-2, then one branch per step; the rule asks for levels 0-3 in
its first call and then for both branches of a level at once.  The
exp-sinh reference (``quadrature_reference``) calls f once per piece of
each level; the rule asks for levels 0-4 up to tau = 64 in its first call,
then for one tail doubling or one level per call.  Values, errors and
failures must stay those of the references bit for bit, whatever the
integrand, weight and tolerance.
"""

import numpy as np
import pytest
import quadrature_reference as ref
from hypothesis import given, settings
from hypothesis import strategies as st

from casimir_harmonic import energy
from casimir_harmonic.quadrature import (QuadratureError, _ts_nodes, integrate_semiaxis,
                                         integrate_unit_interval)

# -- the one-branch-per-step tanh-sinh rule ----------------------------------


def _ts_branches(lam, h, odd_only):
    ln_xp, ln_xn, ln_jac = _ts_nodes(h, odd_only)
    return [(np.exp(ln_x), np.exp(lam * ln_x + ln_jac)) for ln_x in (ln_xp, ln_xn)]


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


def _ref_unit_interval(f, lam, tol):
    # one call of f per step the rule asks for
    rule = _ref_unit_rule(lam, tol)
    ask = next(rule)
    while True:
        x = np.concatenate(ask)
        vals = np.asarray(f(x), dtype=float)
        if vals.shape[-1:] != x.shape:
            vals = np.broadcast_to(vals, vals.shape[:-1] + x.shape)
        bounds = np.cumsum([0] + [nodes.size for nodes in ask])
        try:
            ask = rule.send([vals[..., a:b] for a, b in zip(bounds[:-1], bounds[1:])])
        except StopIteration as stop:
            return stop.value


def _ref_semiaxis(f, alpha, tol):
    return ref.semiaxis(f, alpha, tol)[:2]


# -- drawn integrands ---------------------------------------------------------


def _outcome(integrate, f, weight, tol):
    """('value', bits of value and error) or ('error', message) of one call."""
    try:
        value, err = integrate(f, weight, tol)[:2]
    except QuadratureError as exc:
        return "error", str(exc)
    return "value", [np.asarray(x, dtype=float).view(np.int64).tolist() for x in (value, err)]


# c tau^p exp(-a tau), at least one term per entry and one entry per integral
_TERM = st.tuples(st.floats(-5.0, 5.0), st.floats(0.0, 4.0), st.floats(0.1, 8.0))
_ENTRIES = st.lists(st.lists(_TERM, min_size=1, max_size=3), min_size=1, max_size=4)
_ALPHA = st.floats(-1.0, 3.0, exclude_min=True)
_TOL = st.floats(-12.0, -4.0).map(lambda e: 10.0 ** e)
# below tau = 1, inside the first call (tau <= 64) or past it
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
    # values past the doubling or level where every entry stops are never read
    entry = data.draw(st.integers(0, len(entries) - 1))
    f = _nan_past(_sum_of_exponentials(entries), tau, entry)
    for integrate, reference in ((integrate_semiaxis, _ref_semiaxis),
                                 (integrate_unit_interval, _ref_unit_interval)):
        assert _outcome(integrate, f, alpha, tol) == _outcome(reference, f, alpha, tol)


def test_values_past_where_every_entry_stops_are_never_read():
    # a zero integrand stops at level 2 and, its top doubling (32, 64] being
    # 0, takes no tail doubling: the first call's level-3 nodes, and on the
    # semiaxis its level-4 nodes up to tau = 32, may hold anything
    def nodes(level):
        return np.concatenate([x for x, _ in _ts_branches(0.0, 0.5 ** (level + 1), level > 0)])

    # near x = 1 the levels share nodes that round to 1.0
    level3 = np.setdiff1d(nodes(3), np.concatenate([nodes(level) for level in range(3)]))
    x = np.exp(0.5 * np.pi * np.sinh(np.concatenate([ref.piece_t(level, 0) for level in (3, 4)])))

    def f(t):
        return np.where(np.isin(t, level3) | np.isin(t, x[x <= 32.0]), np.nan, 0.0)

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
