"""Renormalized stress-tensor components.

Each component is assembled from two scale-free radial profiles:

    <T>_ren = k^(d+1) [ t0(r) + M(kappa, k) t1(r) ],
    M(kappa, k) = gamma_E + 2 ln(2 kappa / k),

with t0, t1 given by tau-integrals of the continued polynomials from
``continuation``.  t1 vanishes identically in even d, so the renormalized
tensor is subtraction-scale independent there.  ``conformal_split``
separates every component into its value at the conformal coupling and
its exact xi-slope, the profiles at the coupling ``XI_SLOPE``.
"""

import math
from dataclasses import dataclass

import numpy as np

from .continuation import build_P_polynomials, renorm_scale_constant
from .kernels import COMPONENTS, part_coupling
from .quadrature import TAIL_SHARE, integrate_semiaxis


@dataclass
class StressValue:
    comp: str
    r: float
    t0: float
    t1: float
    vev: float


def stress_profiles(cfg, comp, r, tol=1e-9, n=None, pipeline=None, coupling=None):
    """The pair (t0, t1) for one component at dimensionless radius r.

    r may be an array of radii, and t0, t1 take its shape: one quadrature
    call serves every radius, coupling and all three profile integrals.
    coupling replaces cfg.xi by any coupling ``build_P_polynomials`` takes:
    XI_SLOPE for the exact xi-slopes, or a stack of C that adds a leading
    axis of length C.  In d = 1, "theta1theta1_reduced" is the formal
    contraction with a unit vector orthogonal to x, not a d = 1 component.
    """
    if comp not in COMPONENTS:
        raise ValueError(f"unknown component {comp!r}")
    r = np.asarray(r, dtype=float)
    if not np.all(np.isfinite(r) & (r >= 0.0)):
        raise ValueError("radius must be finite and >= 0")
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError("tol must be finite and positive")
    # each of the three profile integrals gets a third, and the quadrature's
    # tail threshold is TAIL_SHARE of that
    if TAIL_SHARE * (tol / 3.0) == 0.0:
        part = "a third of it" if tol / 3.0 == 0.0 else f"{TAIL_SHARE:g} of a third of it"
        raise ValueError(f"tol {tol!r} is too small: {part} underflows to 0")
    xi = cfg.xi if coupling is None else coupling
    poly = build_P_polynomials(cfg.d, comp, xi, n=n, pipeline=pipeline)
    r_col = r[..., None]

    def smooth(tau_nodes):
        p0, p1 = np.exp(-r_col * r_col * np.tanh(tau_nodes)) * poly.values(tau_nodes, r)
        return np.stack([p0, np.log(tau_nodes) * p1, p1])

    t0, t0_log, t1 = integrate_semiaxis(smooth, poly.lam, tol / 3.0)[0]
    return t0 + t0_log, t1


def _stress_value(cfg, comp, r, profiles):
    t0, t1 = profiles
    scale = cfg.k ** (cfg.d + 1)
    with np.errstate(over="ignore"):    # an overflow is the ValueError below
        vev = scale * (t0 + renorm_scale_constant(cfg.kappa_over_k) * t1)
    if not np.isfinite(vev).all():
        raise ValueError("the stress value k^(d+1) (t0 + M t1) overflows the float range")
    return StressValue(comp=comp, r=r, t0=t0, t1=t1, vev=vev)


def stress_component(cfg, comp, r, tol=1e-9):
    """Renormalized <T_comp> at radius r (in units of 1/k, or an array) for cfg."""
    return _stress_value(cfg, comp, r, stress_profiles(cfg, comp, r, tol))


def conformal_split(cfg, comp, r, tol=1e-9):
    """Split into conformal value ('diamond') and exact xi-slope ('square').

    The brackets are linear in the coupling (one, xi), so the square part is
    the component evaluated at XI_SLOPE, and the value at any xi is
    diamond + (xi - xi_c) * square; 'raw' is the value at cfg.xi.  One
    stress_profiles call serves all three.  r may be an array of radii.
    """
    parts = ("diamond", "square", "raw")
    pairs = [part_coupling(cfg.d, cfg.xi, part) for part in parts]
    t0, t1 = stress_profiles(cfg, comp, r, tol, coupling=tuple(np.transpose(
        [pair if isinstance(pair, tuple) else (1.0, pair) for pair in pairs])))
    return {part: _stress_value(cfg, comp, r, (t0[i], t1[i])) for i, part in enumerate(parts)}

