"""Small- and large-radius expansions of the stress profiles.

Each expansion is a ``SeriesExpansion`` whose ``remainder_bound(r)`` bounds
|profile(r) - evaluate(r)| wherever ``remainder["validity"]`` holds, so the
partial sums come with a hard inequality rather than an asymptotic promise.

Small radius: the Gaussian factor is expanded about r = 0, giving a pure
power series in r^2 whose coefficients are tau-integrals.  The bound is a
Taylor-remainder constant times the first dropped power plus each
coefficient's quadrature error times its power.

Large radius: substituting v = tanh(tau) turns each profile into a
Laplace-type integral int_0^1 e^{-r^2 v} v^lam (q0(v) + ln v q1(v)) dv.
Taylor-expanding the q's at v = 0 on (0, v0] and letting the incomplete
gammas of the Taylor rows run to infinity gives a series in inverse powers
of r with ln r^2 companions.  Its bound adds the Taylor and past-v0
remainders, folded into constants multiplying one power of r, to the
completed incomplete-gamma tails.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .continuation import p_constants, p_from_ladder, u_affine_ladder, weight_exponent
from .jets import Jet, jet_lift_and_compose as lift
from .kernels import COMPONENTS, HyperbolicJets, part_coupling
from .quadrature import integrate_semiaxis
from .specfun import digamma, gamma, upper_gamma
from .stress import stress_profiles


@dataclass
class Row:
    r_power: float
    has_log: bool
    coefficient: float


@dataclass
class SeriesExpansion:
    rows: list
    remainder: dict = field(default_factory=dict)

    def evaluate(self, r):
        return sum(row.coefficient * r ** row.r_power
                   * (math.log(r * r) if row.has_log else 1.0) for row in self.rows)

    def coefficient(self, r_power, has_log=False):
        for row in self.rows:
            if row.has_log == has_log and abs(row.r_power - r_power) < 1e-9:
                return row.coefficient
        return 0.0

    def remainder_bound(self, r):
        """Bound on |profile(r) - evaluate(r)| where remainder["validity"] holds."""
        c = self.remainder
        bound = c["F"] * r ** c["r_power"]
        if "G" in c:
            bound += c["G"] * abs(math.log(r * r)) * r ** c["r_power"]
        if "entries" in c:
            bound += _gamma_tail_bound(c["entries"], c["lam"], c["v0"], r)
        for i, e in enumerate(c.get("coefficient_errors", ())):
            bound += e * r ** (2 * i)
        return bound


_NOISE = 64.0 * np.finfo(float).eps


def _is_noise(x, size, err=0.0):
    """Whether x, a sum of terms whose magnitudes add up to size, is no
    larger than its error estimate err plus the rounding of that sum."""
    return abs(x) <= err + _NOISE * size


# ---------------------------------------------------------------------------
# small radius
# ---------------------------------------------------------------------------

def small_r_expansion(poly, n_terms, tol=1e-9):
    """Power series sum_i a_i r^(2i) of a profile integral, with remainder.

    poly is an RSquarePoly multiplying 1, or -- as ``build_P_polynomials``
    returns (P0, P1) -- a pair stacked on a leading axis whose second entry
    multiplies ln(tau).  Each node set evaluates its coefficients once per
    quadrature.  A coefficient no larger than its quadrature error plus the
    rounding of its sum is 0.0.  The remainder dict carries F and each
    coefficient's quadrature error e_i, and |profile(r) - partial sum| <=
    F r^(2(n_terms+1)) + sum_i e_i r^(2i) on the stated validity range.
    """
    lam = poly.lam
    deg = poly.degree

    def main_and_log(t):
        c = poly.coefficient_values(t)
        return (c[0], c[1]) if c.ndim == 3 else (c, None)

    # every moment int tau^lam c_j tanh^(i-j) in one call, then with ln tau
    terms = [(i, j) for i in range(n_terms + 1) for j in range(min(i, deg) + 1)]

    def moments(t):
        c, c_log = main_and_log(t)
        th = np.tanh(t)
        rows = [c[j] * th ** (i - j) for i, j in terms]
        if c_log is not None:
            ln = np.log(t)
            rows += [ln * (c_log[j] * th ** (i - j)) for i, j in terms]
        return np.array(rows)

    values, errors = integrate_semiaxis(moments, lam, tol)
    acc, acc_err, acc_size = ([0.0] * (n_terms + 1) for _ in range(3))
    for m, (i, j) in enumerate(terms):
        sign = (-1.0) ** (i - j) / math.factorial(i - j)
        for v, e in zip(values[m::len(terms)], errors[m::len(terms)]):
            acc[i] += sign * v
            acc_err[i] += abs(sign) * e
            acc_size[i] += abs(sign * v)

    # remainder constant: Taylor tail of exp(-r^2 tanh) per r^2-coefficient
    big_n = n_terms
    kept = range(min(big_n + 1, deg) + 1)

    def abs_moments(t):
        m, c_log = main_and_log(t)
        if c_log is not None:
            m = m + np.log(t) * c_log
        th = np.tanh(t)
        return np.array([np.abs(m[i]) * th ** (big_n + 1 - i) for i in kept])

    values, errors = integrate_semiaxis(abs_moments, lam, _REMAINDER_TOL)
    c_rem = 0.0
    for i, v, e in zip(kept, values, errors):
        c_rem += (v + e) / math.factorial(big_n + 1 - i)
    validity = "r > 0" if deg <= big_n + 1 else "0 < r <= 1"

    rows = [Row(2.0 * i, False, 0.0 if _is_noise(c, size, err) else c)
            for i, (c, size, err) in enumerate(zip(acc, acc_size, acc_err))]
    remainder = {"r_power": 2.0 * (big_n + 1), "F": c_rem, "validity": validity,
                 "coefficient_errors": acc_err}
    return SeriesExpansion(rows, remainder)


# ---------------------------------------------------------------------------
# large radius
# ---------------------------------------------------------------------------

_DEFAULT_DEPTH = {1: 3, 2: 5, 3: 4}


class VChartFamily:
    """The v-chart coefficient functions q0_i, q1_i of the t0 profile.

    The t0 integrand carries ln tau, which splits into ln v + a regular
    piece here.  xi is any coupling ``bracket_factors`` takes; XI_SLOPE
    gives the exact xi-slope.  Families with equal (d, comp, xi) are equal,
    so the large-r expansion computes what they share once.
    """

    def __init__(self, d, comp, xi):
        if comp not in COMPONENTS:
            raise ValueError(f"unknown component {comp!r}")
        self.d, self.comp, self.xi = d, comp, xi
        self.a_main, self.a_slope, self.b_main, self.n = p_constants(d)
        self.lam = weight_exponent(d, self.n)
        self.degree = self.n + 1

    def __eq__(self, other):
        return isinstance(other, VChartFamily) and \
            (self.d, self.comp, self.xi) == (other.d, other.comp, other.xi)

    def __hash__(self):
        return hash((self.d, self.comp))     # xi may be an unhashable 0-d array

    def jets(self, v_jet):
        basis = HyperbolicJets.from_tanh(v_jet)
        main, slope = u_affine_ladder(basis, self.d, self.comp, self.xi, self.n)
        one_minus = 1.0 - v_jet * v_jet
        pref = lift("pow", basis.ratio, self.lam) * \
            lift("pow", one_minus, -(1.0 + self.lam))
        ln_reg = lift("log", basis.ratio) - lift("log", one_minus)
        p0, p1 = p_from_ladder(main, slope, self.a_main, self.a_slope, self.b_main)
        return ([pref * (a + ln_reg * b) for a, b in zip(p0, p1)],
                [pref * b for b in p1])


def _gamma_tail_bound(entries, lam, v0, r):
    """Bound at r on the error of the limit form's completed incomplete gammas."""
    z0 = v0 * r * r
    lg2 = abs(math.log(r * r))
    total = 0.0
    for i, m, q0, q1 in entries:
        s = m + lam + 1.0
        p = 2.0 * (i - m) - 2.0 * lam - 2.0
        ug = upper_gamma(s, z0)
        bracket = abs(q0) * ug
        if q1 != 0.0:
            bracket += abs(q1) * (_abs_log_tail_bound(s, z0, ug) + lg2 * ug)
        total += bracket * r ** p
    return total


def _abs_log_tail_bound(s, z, upper):
    """Closed-form upper bound on int_z^inf w^(s-1) e^(-w) |ln w| dw, given
    upper = Gamma(s, z).

    For w >= z >= 1, 0 <= ln w <= ln z + (w - z)/z, the tangent of ln at z,
    and int_z^inf w^s e^(-w) dw = s Gamma(s, z) + z^s e^(-z).  For z < 1 the
    integral splits at 1: |ln w| <= |ln z| below it, the tangent at 1 above.
    """
    if z >= 1.0:
        return (math.log(z) + s / z - 1.0) * upper + math.exp((s - 1.0) * math.log(z) - z)
    at_one = upper_gamma(s, 1.0)
    return (s - 1.0) * at_one + math.exp(-1.0) - math.log(z) * (upper - at_one)


def _supremum_nodes(v0):
    return np.linspace(v0 / 513.0, v0, 513)


def _power_rows(entries, lam):
    """Rows of the limit form, leading power first: entry (i, m, q0, q1) adds
    Gamma(s) (q0 + psi(s) q1) r^p and -Gamma(s) q1 r^p ln r^2, s = m + lam + 1,
    p = 2(i - m) - 2 lam - 2.  Of rounding noise, a plain row is 0.0, a log row is dropped."""
    by_power = {}
    for i, m, q0, q1 in entries:
        s = m + lam + 1.0
        p = 2.0 * (i - m) - 2.0 * lam - 2.0
        gs = gamma(s)
        a, b = gs * (q0 + digamma(s) * q1), -gs * q1
        slot = by_power.setdefault(round(p * 2), [p, 0.0, 0.0, 0.0, 0.0])
        slot[1] += a
        slot[2] += abs(a)
        slot[3] += b
        slot[4] += abs(b)
    rows = []
    for key in sorted(by_power, reverse=True):
        p, a, a_size, b, b_size = by_power[key]
        rows.append(Row(p, False, 0.0 if _is_noise(a, a_size) else a))
        if not _is_noise(b, b_size):
            rows.append(Row(p, True, b))
    return rows


def large_r_expansion(family, depth=None, v0=0.5):
    """The limit form of a v-chart family: a SeriesExpansion in inverse powers
    of r, whose remainder_bound holds for r >= 1.

    depth is the number of Taylor rows kept for the i = 0 coefficient
    (row i keeps depth + i of them, so all contributions down to the
    common remainder power are present).  The remainder keeps those Taylor
    entries (i, m, q0, q1), lam and v0 for its incomplete-gamma tails.
    """
    if depth is None:
        depth = _DEFAULT_DEPTH[family.d]
    lam = family.lam
    entries, f_const, g_const = _large_r_constants(family, depth, v0)
    remainder = {"r_power": -2.0 * (depth + lam + 1.0), "F": f_const, "G": g_const,
                 "validity": "r >= 1", "entries": entries, "lam": lam, "v0": v0}
    return SeriesExpansion(_power_rows(entries, lam), remainder)


# An asympt request asks for the expansion at two depths, equal in d = 1;
# the v-chart samples and the tail integrals serve both.
@functools.lru_cache(maxsize=8)
def _large_r_constants(family, depth, v0):
    """(Taylor entries (i, m, q0, q1), F, G) of the expansion at depth."""
    lam, deg = family.lam, family.degree
    # a jet's leading coefficients do not depend on its order, bit for bit,
    # so every depth up to the default reads one sampling
    order = max(depth, _DEFAULT_DEPTH[family.d]) + deg + family.n + 1
    (taylor0, taylor1), (samp0, samp1) = _v_chart_samples(family, v0, order)
    entries = []
    for i in range(deg + 1):
        for m in range(depth + i):
            q0 = float(taylor0[i].coeffs[m])
            q1 = float(taylor1[i].coeffs[m])
            entries.append((i, m, q0, q1))

    # Taylor-remainder suprema of the (depth+i)-th v-derivatives on (0, v0]
    tails = _tail_integrals(family, v0)
    f_const, g_const = 0.0, 0.0
    for i in range(deg + 1):
        mi = depth + i            # first dropped Taylor index
        s0 = math.factorial(mi) * 1.1 * float(np.max(np.abs(samp0[i].coeffs[mi])))
        s1 = math.factorial(mi) * 1.1 * float(np.max(np.abs(samp1[i].coeffs[mi])))
        sigma = mi + lam + 1.0
        f_const += s0 * gamma(sigma) / math.factorial(mi)
        f_const += s1 / (math.factorial(mi) * sigma * sigma)
        g_const += s1 * gamma(sigma) / math.factorial(mi)
        # integral tail past v0, folded with e^(-z) <= (p/(e z))^p
        f_const += tails[i] * (sigma / (math.e * v0)) ** sigma
    return tuple(entries), f_const, g_const


@functools.lru_cache(maxsize=8)
def _v_chart_samples(family, v0, order):
    """The family's jets of the given order at v = 0 and on the supremum nodes."""
    return (family.jets(Jet.variable(0.0, order)),
            family.jets(Jet.variable(_supremum_nodes(v0), order)))


# The |.| integrands of the envelopes kink where a coefficient changes sign,
# so the exp-sinh rule converges there only at deep levels.  Each
# result enters a bound as value + error, an upper estimate at any
# tolerance, so these integrals run only as accurately as a bound needs.
_REMAINDER_TOL = 1e-6      # small-r remainder integrals of |m_i(tau)|
_TAIL_TOL = 1e-4           # large-r tail integrals of |q_i(v)| past v0


@functools.lru_cache(maxsize=8)
def _tail_integrals(family, v0):
    """int_{v0}^{1} v^lam (|q0_i| + |ln v| |q1_i|) dv for every row i, upper estimates.

    The semiaxis rule takes 1 - v = (1 - v0) e^-s, s in [0, inf), with the
    Jacobian (1 - v0) e^-s in the integrand.  v is held at 1 - (1 - v0) 1e-12
    at most, short of v = 1, where 1 - v^2 and the q's are singular; past
    s = ln 1e12 the integrand decays as e^-s, so no node past s = 64 is needed."""
    lam = family.lam

    def f(s):
        x = np.exp(-s)
        v = 1.0 - (1.0 - v0) * np.maximum(x, 1e-12)
        q0, q1 = family.jets(Jet.variable(v, family.n + 1))
        a = np.abs([q.coeffs[0] for q in q0])
        b = np.abs([q.coeffs[0] for q in q1])
        return v ** lam * (a - np.log(v) * b) * (1.0 - v0) * x

    value, err = integrate_semiaxis(f, 0.0, _TAIL_TOL)
    return tuple((value + err) * 1.001)


_REPORT_DEPTH = {1: 3, 2: 4, 3: 3}


def asymptotic_match_report(cfg, comp, part, r_values, tol=1e-10):
    """Numeric-vs-series comparison table for one conformal part.

    The comparison object is the limit form truncated at the displayed
    row depth per dimension (slightly shallower than the default
    expansion depth), so the slope column shows the decay of the first
    surviving omitted row.  Note the inverse powers advance in steps of
    four, so that row sits two powers below the last kept one; a slope
    steeper than the remainder-order power of the kept truncation is
    expected, not a defect.  Empty r_values gives an empty table.  When
    every |numeric| is <= tol the profile vanishes to within tol:
    "vanishes" is True and every slope is NaN.
    """
    d = cfg.d
    depth = _REPORT_DEPTH[d]
    coupling = part_coupling(d, cfg.xi, part)
    limit = large_r_expansion(VChartFamily(d, comp, coupling), depth=depth)

    radii = [float(r) for r in r_values]
    numerics = stress_profiles(cfg, comp, np.array(radii), tol, coupling=coupling)[0]
    rows = []
    for r, numeric in zip(radii, numerics):
        series = limit.evaluate(r)
        diff = abs(numeric - series)
        bound = limit.remainder_bound(r)
        rows.append({"r": r, "numeric": numeric, "series": series,
                     "abs_diff": diff, "bound": bound,
                     "within_bound": diff <= bound})
    # the residuals of a profile that vanishes to within tol are rounding noise
    vanishes = bool(rows) and all(abs(row["numeric"]) <= tol for row in rows)
    slopes = []
    for lo, hi in zip(rows, rows[1:]):
        if lo["abs_diff"] > 0.0 and hi["abs_diff"] > 0.0 and not vanishes:
            slopes.append(math.log(hi["abs_diff"] / lo["abs_diff"])
                          / math.log(hi["r"] / lo["r"]))
        else:
            slopes.append(math.nan)
    return {"component": comp, "part": part, "depth": depth,
            "remainder_power": limit.remainder["r_power"],
            "rows": rows, "slopes": slopes, "vanishes": vanishes}
