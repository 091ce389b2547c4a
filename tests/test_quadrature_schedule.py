"""The quadrature call schedule against a rule that calls f step by step.

The exp-sinh reference (``quadrature_reference``) calls f once per piece of
each level; the rule asks for levels 0-4 up to tau = 64 in its first call,
then for one tail doubling or one level per call.  Values, errors and
failures must stay those of the reference bit for bit, whatever the
integrand, weight and tolerance.
"""

import numpy as np
import pytest
import quadrature_reference as ref
from hypothesis import given, settings
from hypothesis import strategies as st

from casimir_harmonic import energy
from casimir_harmonic.quadrature import QuadratureError, integrate_semiaxis


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
    assert _outcome(integrate_semiaxis, f, alpha, tol) == _outcome(_ref_semiaxis, f, alpha, tol)


@_PROPERTY
@given(entries=_ENTRIES, alpha=_ALPHA, tol=_TOL, tau=_NAN_TAU, data=st.data())
def test_nan_past_a_node_fails_as_before(entries, alpha, tol, tau, data):
    # values past the doubling or level where every entry stops are never read
    entry = data.draw(st.integers(0, len(entries) - 1))
    f = _nan_past(_sum_of_exponentials(entries), tau, entry)
    assert _outcome(integrate_semiaxis, f, alpha, tol) == _outcome(_ref_semiaxis, f, alpha, tol)


def test_values_past_where_every_entry_stops_are_never_read():
    # a zero integrand stops at level 2 and, its top doubling (32, 64] being
    # 0, takes no tail doubling: the first call's level-3 and level-4 nodes
    # up to tau = 32 may hold anything
    x = np.exp(0.5 * np.pi * np.sinh(np.concatenate([ref.piece_t(level, 0) for level in (3, 4)])))

    def f(t):
        return np.where(np.isin(t, x[x <= 32.0]), np.nan, 0.0)

    assert integrate_semiaxis(f, 0.5, 1e-10) == (0.0, 0.0)


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
