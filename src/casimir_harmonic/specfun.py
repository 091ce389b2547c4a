"""Real special functions needed by the zeta-regularized pipelines.

Scalar math on the standard library's ``math`` module alone:

* ``gamma`` (``math.gamma`` behind a pole check), ``digamma``,
* ``lower_gamma``, ``upper_gamma`` -- incomplete gamma pair,
* ``g_log_gamma`` -- the s-derivative of the lower incomplete gamma,
  obtained by term-wise differentiation (never by numerical differencing),
* ``riemann_zeta``, ``hurwitz_zeta`` -- Euler-Maclaurin sums, continued to
  negative argument through the functional equation (Riemann) or directly
  (Hurwitz).

Measured against 30-digit mpmath: gamma within 1e-15 relative on (-4, 60),
g_log_gamma within 4e-14 of max(1, |value|) for s <= 30 and z <= 2000, the
rest within 1e-12 (z up to a few hundred, zeta down to s = -3).  The direct
Euler-Maclaurin Hurwitz sum loses digits to cancellation for deeper s < 0.
"""

import math

EULER_GAMMA = 0.5772156649015328606065120900824024

# B_2, B_4, ..., B_24
_BERNOULLI_EVEN = (
    1.0 / 6.0,
    -1.0 / 30.0,
    1.0 / 42.0,
    -1.0 / 30.0,
    5.0 / 66.0,
    -691.0 / 2730.0,
    7.0 / 6.0,
    -3617.0 / 510.0,
    43867.0 / 798.0,
    -174611.0 / 330.0,
    854513.0 / 138.0,
    -236364091.0 / 2730.0,
)


def gamma(s):
    """Gamma function for real s (poles at 0, -1, -2, ... raise)."""
    if s <= 0.0 and s == math.floor(s):
        raise ValueError(f"gamma pole at s={s}")
    return math.gamma(s)


def digamma(s):
    """Logarithmic derivative of Gamma, real s away from the poles."""
    if s <= 0.0 and s == math.floor(s):
        raise ValueError(f"digamma pole at s={s}")
    if s < 0.0:
        # psi(s) = psi(1-s) - pi cot(pi s)
        return digamma(1.0 - s) - math.pi / math.tan(math.pi * s)
    acc = 0.0
    while s < 10.0:
        acc -= 1.0 / s
        s += 1.0
    inv2 = 1.0 / (s * s)
    tail = 0.0
    p = inv2
    for b2k_over_2k in (1.0 / 12.0, -1.0 / 120.0, 1.0 / 252.0, -1.0 / 240.0,
                        1.0 / 132.0, -691.0 / 32760.0, 1.0 / 12.0):
        tail += b2k_over_2k * p
        p *= inv2
    return acc + math.log(s) - 0.5 / s - tail


def _lower_series(s, z):
    """gamma(s,z) by the ascending series, good for z < s + 1."""
    term = 1.0 / s
    total = term
    k = 0
    while True:
        k += 1
        term *= z / (s + k)
        total += term
        if abs(term) < 1e-17 * abs(total) or k > 500:
            break
    return math.exp(s * math.log(z) - z) * total


def _upper_cf(s, z):
    """Gamma(s,z) by the Lentz continued fraction, good for z >= max(1, s+1)."""
    tiny = 1e-300
    b = z + 1.0 - s
    c = 1.0 / tiny
    d = 1.0 / b if b != 0.0 else 1.0 / tiny
    h = d
    for i in range(1, 400):
        an = -i * (i - s)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    return math.exp(s * math.log(z) - z) * h


def _e1_series(z):
    """E1(z) = Gamma(0,z) by the alternating series, good for z <= 1."""
    total = -EULER_GAMMA - math.log(z)
    term = 1.0
    for k in range(1, 60):
        term *= -z / k
        total -= term / k
        if abs(term / k) < 1e-18:
            break
    return total


def lower_gamma(s, z):
    """Lower incomplete gamma(s, z), s > 0, z > 0."""
    if s <= 0.0:
        raise ValueError("lower_gamma needs s > 0")
    if z < 0.0:
        raise ValueError("lower_gamma needs z >= 0")
    if z == 0.0:
        return 0.0
    if z < s + 1.0:
        return _lower_series(s, z)
    return gamma(s) - _upper_cf(s, z)


def upper_gamma(s, z):
    """Upper incomplete Gamma(s, z) for any real s, z > 0."""
    if z <= 0.0:
        raise ValueError("upper_gamma needs z > 0")
    if z >= max(1.0, s + 1.0):
        return _upper_cf(s, z)
    if s > 0.0:
        return gamma(s) - _lower_series(s, z)
    # z < 1 and s <= 0: walk down from a positive (or zero) order
    m = int(math.ceil(-s))
    s_top = s + m  # in (0, 1]
    if s_top == 0.0 or s == math.floor(s):
        # integer chain anchored at Gamma(0,z) = E1(z)
        m = int(-s)
        g = _e1_series(z)
        s_j = 0.0
    else:
        g = gamma(s_top) - _lower_series(s_top, z)
        s_j = s_top
    emz = math.exp(-z)
    for _ in range(m):
        s_j -= 1.0
        g = (g - emz * z ** s_j) / s_j
    return g


def g_log_gamma(s, z):
    """d/ds of lower_gamma(s, z), s > 0, z > 0.

    For z <= 700 the term-wise derivative of the ascending series (about 1000
    terms at z = 700); past that the tail int_z^inf w^(s-1) e^(-w) ln w dw is
    below double precision of Gamma(s) psi(s) wherever Gamma(s) is finite.
    """
    if s <= 0.0 or z <= 0.0:
        raise ValueError("g_log_gamma needs s > 0, z > 0")
    if z > 700.0:
        return gamma(s) * digamma(s)
    lz = math.log(z)
    # z^s e^-z as a product: exp(s ln z - z) carries up to 6e-14 of rounding
    pre = z ** s * math.exp(-z) if s * lz < 700.0 else math.exp(s * lz - z)
    c = pre / s          # running series term
    hsum = 1.0 / s       # running sum_{j<=k} 1/(s+j)
    total_c = c
    total_ch = c * hsum
    for k in range(1, 2001):
        c *= z / (s + k)
        hsum += 1.0 / (s + k)
        total_c += c
        total_ch += c * hsum
        if abs(c) * (1.0 + hsum) <= 1e-17 * (abs(total_ch) + abs(total_c)):
            break
    return lz * total_c - total_ch


def _zeta_em(s, a):
    """Euler-Maclaurin Hurwitz zeta(s, a) with the 12 corrections B_2..B_24;
    valid for s > -23, s != 1."""
    # For s < 0 the head terms grow like (n+a)^|s| and cancel against the
    # integral term; a short head keeps that cancellation mild.
    n_terms = 25 if s >= 0.0 else 8
    pieces = [(n + a) ** (-s) for n in range(n_terms)]
    na = n_terms + a
    pieces.append(na ** (1.0 - s) / (s - 1.0))
    pieces.append(0.5 * na ** (-s))
    # correction sum: B_2k / (2k)! * s(s+1)...(s+2k-2) * na^(-s-2k+1)
    poch = 1.0
    fact = 1.0
    for k, bernoulli in enumerate(_BERNOULLI_EVEN, 1):
        poch *= (s + 2 * k - 3) * (s + 2 * k - 2) if k > 1 else s
        fact *= (2 * k - 1) * (2 * k)
        pieces.append(bernoulli / fact * poch
                      * na ** (-s - 2 * k + 1.0))
    return math.fsum(pieces)


def riemann_zeta(s):
    """Riemann zeta for real s != 1."""
    if s == 1.0:
        raise ValueError("zeta pole at s=1")
    if s >= 0.5:
        return _zeta_em(s, 1.0)
    # functional equation down to the s < 1/2 half-line
    return (2.0 ** s * math.pi ** (s - 1.0) * math.sin(0.5 * math.pi * s)
            * gamma(1.0 - s) * _zeta_em(1.0 - s, 1.0))


def hurwitz_zeta(s, a):
    """Hurwitz zeta(s, a) for real s != 1 (continued), a > 0."""
    if s == 1.0:
        raise ValueError("hurwitz zeta pole at s=1")
    if a <= 0.0:
        raise ValueError("hurwitz_zeta needs a > 0")
    if s < -20.0:
        raise ValueError("hurwitz_zeta implemented for s > -20")
    return _zeta_em(s, a)
