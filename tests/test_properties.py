"""Properties of the public stress API over drawn dimension, component, radius
and coupling (derandomized, so every run draws the same cases)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from casimir_harmonic import (COMPONENTS, HarmonicConfig, minimal_derivative_count,
                              stress_component, stress_profiles)

_PROPERTY = settings(max_examples=100, deadline=None, derandomize=True, database=None)
_D = st.sampled_from((1, 2, 3))
_COMP = st.sampled_from(COMPONENTS)
_R = st.floats(min_value=0.0, max_value=6.0)
_XI = st.floats(min_value=-1.0, max_value=1.0)


@_PROPERTY
@given(d=_D, comp=_COMP, r=_R, xi1=_XI, xi2=_XI)
def test_vev_is_affine_in_the_coupling(d, comp, r, xi1, xi2):
    lo, hi, mid = (stress_component(HarmonicConfig(d=d, xi=xi), comp, r).vev
                   for xi in (xi1, xi2, 0.5 * (xi1 + xi2)))
    assert abs(mid - 0.5 * (lo + hi)) <= 1e-12 * max(1.0, abs(lo), abs(hi))


@_PROPERTY
@given(d=_D, comp=_COMP, r=_R, xi=_XI, power=st.integers(-3, 3),
       kappa=st.floats(min_value=0.25, max_value=4.0))
def test_vev_scales_as_k_to_the_d_plus_1_bit_for_bit(d, comp, r, xi, power, kappa):
    k = 2.0 ** power
    unit = stress_component(HarmonicConfig(d=d, kappa=kappa, xi=xi), comp, r).vev
    scaled = stress_component(HarmonicConfig(d=d, k=k, kappa=k * kappa, xi=xi), comp, r).vev
    assert scaled == k ** (d + 1) * unit


@_PROPERTY
@given(d=_D, comp=_COMP, r=_R, xi=_XI)
def test_profiles_do_not_depend_on_the_derivative_count(d, comp, r, xi):
    cfg = HarmonicConfig(d=d, xi=xi)
    n = minimal_derivative_count(d)
    at_n = np.array(stress_profiles(cfg, comp, r, n=n))
    at_n_plus_1 = np.array(stress_profiles(cfg, comp, r, n=n + 1))
    assert np.max(np.abs(at_n - at_n_plus_1)) <= 1e-8


@_PROPERTY
@given(d=_D, comp=_COMP, r=_R, xi=_XI)
def test_pinned_and_generic_pipelines_agree(d, comp, r, xi):
    cfg = HarmonicConfig(d=d, xi=xi)
    pinned = np.array(stress_profiles(cfg, comp, r, pipeline="pinned"))
    generic = np.array(stress_profiles(cfg, comp, r, pipeline="generic"))
    assert np.max(np.abs(pinned - generic)) <= 1e-10
