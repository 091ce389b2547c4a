"""Analytic continuation of the proper-time integrals.

The raw stress integrands diverge at small proper time; integrating by
parts n times trades the divergence for a ratio of shifted poles in the
continuation variable u.  The surviving finite data are polynomials in
r^2 whose coefficients are hyperbolic functions of tau, produced here by
the conjugated-derivative ladder

    e^(r^2 h) d^n/dtau^n [e^(-r^2 h) M]  =  (D - r^2 h')^n M,

with h = tanh.  Two independent prefactor routes are kept side by side:

* pipeline "pinned": the per-dimension printed constants (minimal n only);
* pipeline "generic": the u-jet of
      N(u) = (kappa/k)^u (-1)^n / (Gamma((u+1)/2) prod_j ((u-d-3)/2 + j)),
  valid for any admissible derivative count n.

They must agree to quadrature accuracy; the test suite asserts exactly
that and never collapses one into the other.
"""

import math

import numpy as np

from .jets import Jet
from .kernels import COMPONENTS, HyperbolicJets, bracket_factors
from .specfun import EULER_GAMMA


def minimal_derivative_count(d):
    """Smallest n that both clears the small-tau divergence and, for odd d,
    isolates the u = 0 pole: n = ceil((d+3)/2) - adjusted per dimension."""
    return {1: 2, 2: 2, 3: 3}[d]


def weight_exponent(d, n):
    """Exponent of the tau weight left over after n integrations by parts."""
    return n - 0.5 * (d + 3)


class RSquarePoly:
    """Polynomial in r^2 with tau-dependent coefficients.

    ``coeff_fn(tau_nodes)`` must return an array of shape
    (..., degree+1, len(tau_nodes)); leading axes stack polynomials that
    share one evaluation.
    """

    def __init__(self, degree, coeff_fn, lam):
        self.degree = degree
        self.coeff_fn = coeff_fn
        self.lam = lam  # companion tau-weight exponent

    def coefficient_values(self, tau_nodes):
        return self.coeff_fn(np.asarray(tau_nodes, dtype=float))

    def values(self, tau_nodes, r):
        """Shape (..., *shape(r), nodes): r is a radius or an array of radii."""
        c = np.moveaxis(self.coefficient_values(tau_nodes), -2, 0)
        c = c.reshape(c.shape[:-1] + (1,) * np.ndim(r) + c.shape[-1:])
        r2 = np.reshape(r * r, np.shape(r) + (1,))
        out = c[self.degree].copy()
        for i in range(self.degree - 1, -1, -1):
            out = out * r2 + c[i]
        return out


class _PPair(RSquarePoly):
    """P0 and P1 stacked on a leading axis; unpacks as (P0, P1)."""

    def __iter__(self):
        return (RSquarePoly(self.degree, lambda t, i=i: self.coeff_fn(t)[i], self.lam)
                for i in (0, 1))


def conjugated_ladder(basis, poly, n):
    """Apply (D - r^2 h')^n to a polynomial-in-r^2 with jet coefficients.

    ``poly`` is a list of jets (index = power of r^2) in the given chart;
    h' = 1/cosh^2 is taken from the chart.  Each application costs one jet
    order and raises the degree by one.
    """
    hp = basis.inv_cosh2
    cur = list(poly)
    for _ in range(n):
        nxt = []
        new_order = cur[0].order - 1
        for i in range(len(cur) + 1):
            term = None
            if i < len(cur):
                term = basis.deriv(cur[i])
            if i > 0:
                prod = hp * cur[i - 1]
                down = Jet(prod.coeffs[: new_order + 1] * (-1.0))
                term = down if term is None else term + down
            nxt.append(term)
        cur = nxt
    return cur


def u_affine_ladder(basis, d, comp, xi, n):
    """Conjugated n-th derivative of both u-orders of the bracket pair.

    Returns (main_jets, slope_jets): lists of jets, index = power of r^2,
    for the u^0 and u^1 parts respectively.  xi is any coupling that
    ``bracket_factors`` takes, XI_SLOPE included.
    """
    w, b0, b1, c = bracket_factors(d, comp, basis, xi)
    main = conjugated_ladder(basis, [w * b0, w * b1], n)
    slope = conjugated_ladder(basis, [w * c], n)
    return main, slope


def _generic_prefactors(d, n):
    """u-jet data of N(u) around u = 0.

    Odd d: N(u) = (2/u)(W0 + u W1 + ...); returns ("pole", W0, S) with
    S the sum of reciprocal non-pole factors.  Even d: N regular; returns
    ("regular", N0, S).
    """
    shift = 0.5 * (d + 3)
    js = list(range(1, n + 1))
    pole_j = None
    for j in js:
        if abs(j - shift) < 1e-12:
            pole_j = j
    prod = 1.0
    sum_inv = 0.0
    for j in js:
        if j == pole_j:
            continue
        prod *= (j - shift)
        sum_inv += 1.0 / (j - shift)
    c0 = (-1.0) ** n / (math.sqrt(math.pi) * prod)
    kind = "pole" if pole_j is not None else "regular"
    return kind, c0, sum_inv


# printed per-dimension prefactor combinations (minimal n only):
# P0 = a_main * G0 + a_slope * G1,  P1 = b_main * G0
_PINNED_CONSTANTS = {
    1: {"a_main": -1.0 / math.sqrt(math.pi), "a_slope": -2.0 / math.sqrt(math.pi),
        "b_main": -1.0 / math.sqrt(math.pi)},
    2: {"a_main": 4.0 / (3.0 * math.sqrt(math.pi)), "a_slope": 0.0, "b_main": 0.0},
    3: {"a_main": -3.0 / (4.0 * math.sqrt(math.pi)), "a_slope": -1.0 / math.sqrt(math.pi),
        "b_main": -1.0 / (2.0 * math.sqrt(math.pi))},
}


def p_constants(d, n=None, pipeline=None):
    """Scalar weights (a_main, a_slope, b_main) combining the ladder outputs
    into (P0, P1): P0 = a_main G0 + a_slope G1, P1 = b_main G0."""
    n_min = minimal_derivative_count(d)
    if n is None:
        n = n_min
    if pipeline is None:
        pipeline = "pinned" if n == n_min else "generic"
    if pipeline == "pinned":
        if n != n_min:
            raise ValueError("the printed-constant pipeline exists only at minimal n")
        c = _PINNED_CONSTANTS[d]
        return c["a_main"], c["a_slope"], c["b_main"], n
    if pipeline != "generic":
        raise ValueError(f"unknown pipeline {pipeline!r}")
    if n < n_min:
        raise ValueError(f"need n >= {n_min} for d={d}")
    kind, c0, sum_inv = _generic_prefactors(d, n)
    if kind == "pole":
        # finite part of (2/u)(W0 + u W1) J(u) with the scale term split off
        return -c0 * sum_inv, 2.0 * c0, c0, n
    return c0, 0.0, 0.0, n


def p_from_ladder(main, slope, a_main, a_slope, b_main):
    """Rows of P0 = a_main G0 + a_slope G1 and P1 = b_main G0 from the
    ladder's u^0 and u^1 rows (G1 has one row fewer than G0)."""
    p0 = [a_main * g0 + a_slope * g1 for g0, g1 in zip(main, slope)]
    p0.append(a_main * main[-1])
    return p0, [b_main * g0 for g0 in main]


def build_P_polynomials(d, comp, xi, n=None, pipeline=None):
    """The two integrand polynomials (P0, P1) for one stress component.

    The renormalized component is
        k^(d+1)  [ int tau^lam e^(-r^2 tanh) (P0 + ln tau P1)
                   + M(kappa,k) int tau^lam e^(-r^2 tanh) P1 ],
    with lam = weight_exponent(d, n).  P1 vanishes identically for even d.
    xi is a float coupling or a pair (one, xi); XI_SLOPE gives the exact
    xi-slopes of P0 and P1.  The result is P0 and P1 stacked on a leading
    axis, from one ladder pass per node set; it unpacks as (P0, P1).  A pair
    of 1-d arrays stacks C couplings: the shape is then (2, C, degree+1, N).
    """
    if comp not in COMPONENTS:
        raise ValueError(f"unknown component {comp!r}")
    a_main, a_slope, b_main, n = p_constants(d, n, pipeline)
    if isinstance(xi, tuple) and np.ndim(xi[0]):
        xi = tuple(np.reshape(v, (-1, 1)) for v in xi)     # shape (C, 1), over the nodes

    def coeffs(tau_nodes):
        basis = HyperbolicJets.from_tau(tau_nodes, n)
        main, slope = u_affine_ladder(basis, d, comp, xi, n)
        return np.array([np.stack([row.value() for row in rows], axis=-1 - np.ndim(tau_nodes))
                         for rows in p_from_ladder(main, slope, a_main, a_slope, b_main)])

    return _PPair(n + 1, coeffs, weight_exponent(d, n))


def renorm_scale_constant(kappa_over_k):
    """The additive constant multiplying the log-scale integral:
    gamma_E + 2 ln(2 kappa / k)."""
    return EULER_GAMMA + 2.0 * math.log(2.0 * kappa_over_k)
