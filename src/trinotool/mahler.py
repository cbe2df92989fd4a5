"""Mahler measure of trinomials by three routes, the large-n limit in closed
form for every regime, and the exact coefficient series with its
contour-integral oracle.

The measure of P = a0 * prod (z - alpha_j) is M(P) = |a0| * prod max(1, |alpha_j|),
equivalently exp of the mean of log|P| over the unit circle (Jensen).  For
z^n + a z^m + b with |a| - |b| >= 1 and gcd(m, n) = 1 there is an exact series

    log M = log|a| - sum_{k>=1} (1/(k m)) (-1)^(k n) C(kn-1, km-1) Re(b^(-km) (b/a)^(kn)),

whose terms arise from contour integrals I_k = integral_0^{2pi} e^{inkt}
(-a e^{imt} - b)^(-k) dt via a residue at infinity; residue_term exposes both
sides so they can be cross-checked numerically.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from math import comb, factorial, gcd, lgamma
from typing import Union

from . import polycore
from .errors import CoprimalityViolated, DivergenceDetected, DominanceViolated
from .polycore import IntPolynomial, LimitRegime, RootSet, TrinomialSpec, np, require_float
from .quadrature import DEFAULT_TOL, integrate

_EPS = math.ulp(1.0)
_MAX_TERMS = 10000  # series terms summed before the series stops with its tail bound


@dataclass(frozen=True)
class MeasureResult:
    """A Mahler measure value with its method tag and error estimate."""

    value: float
    log_value: float
    method: str  # "roots" | "jensen" | "series" | "closed-form"
    error_bound: float
    terms: tuple["SeriesTerm", ...] | None = None


@dataclass(frozen=True)
class LimitCase:
    """Which large-n regime (a, b) falls in.

    gamma is set only when oscillatory, that is when 1, |a| and |b| form a
    triangle.  It is pi - alpha, the sum of the angles opposite |a| and |b|,
    where alpha is the angle opposite the side 1: the upper limit of the
    integral (1/2pi) integral_0^gamma log(|a|^2 + 2|ab| cos t + |b|^2) dt,
    which equals log M.  At (1, 1) every angle is pi/3 and gamma is 2pi/3.
    """

    case: LimitRegime
    gamma: float | None = None


@dataclass(frozen=True)
class SeriesTerm:
    """One series term.

    From series_measure, ``closed_form`` is the k-th displayed summand s_k in
    log M = log|a| - sum s_k.  From residue_term, ``closed_form`` is the raw
    contour-index contribution -(1/(2 pi k)) Re(I_k) to log M - log|a| (zero
    unless m | k); ``i_k`` holds the contour integral when the quadrature
    oracle was requested.
    """

    k: int
    closed_form: float
    i_k: complex | None = None


def _from_log(log_value: float, log_error: float, method: str, summed: int,
              terms: tuple[SeriesTerm, ...] | None = None) -> MeasureResult:
    """M = exp(log_value) where |log M - log_value| <= log_error.

    The bound adds a rounding floor of (2 summed + 8) eps max(1, |log_value|)
    for a log summed from ``summed`` parts, then turns the log error into
    value * expm1(error): infinite from an error >= 1, and NaN stays NaN.
    """
    err = log_error + (2 * summed + 8) * _EPS * max(1.0, abs(log_value))
    value = math.exp(log_value)
    bound = math.inf if err >= 1 else value * math.expm1(err)
    return MeasureResult(value, log_value, method, bound, terms)


def measure_from_roots(p: Union[TrinomialSpec, IntPolynomial]) -> MeasureResult:
    """M(P) = |leading| * prod max(1, |root|) from the roots that
    polycore.all_roots solves, certified or not: the error bound comes from
    their residual bound either way."""
    rs = polycore.all_roots(p)  # first: it refuses the zero polynomial
    return measure_from_root_set(rs, abs(p.coeffs[-1]) if isinstance(p, IntPolynomial) else 1.0)


def measure_from_root_set(rs: RootSet, lead: float = 1.0) -> MeasureResult:
    """M(P) from an already solved root set of P, |leading coefficient| = lead."""
    log_value = math.log(lead)
    for r in rs.roots:
        mod = abs(r)
        if mod > 1.0:
            log_value += math.log(mod)
    return _from_log(log_value, len(rs.roots) * rs.residual_bound, "roots", len(rs.roots))


def house(p: Union[TrinomialSpec, IntPolynomial]) -> float:
    """Largest root modulus."""
    return polycore.all_roots(p).max_modulus()


def _circle_modulus(spec: TrinomialSpec, t, scale: float = 1.0):
    """scale |P(e^it)| for P = z^n + a z^m + b, elementwise over the array t."""
    return np.abs(scale * np.exp(1j * spec.n * t) + scale * spec.a * np.exp(1j * spec.m * t)
                  + scale * spec.b)


def _circle_breakpoints(spec: TrinomialSpec, scale: float = 1.0) -> tuple[float, ...]:
    """Uniform angles plus the 2n angles t = (arg b +- acos c + 2 pi k) / n where
    |e^int + b| = |a|, c = (|a|^2 - 1 - |b|^2) / (2|b|) clamped to [-1, 1].
    |P(e^it)| >= ||e^int + b| - |a||, so every zero on the circle is one of these;
    for |c| > 1 they are the closest approach.  Kept where that bound is < 0.75.
    The moduli are taken of scale P, so that |a| + |b| does not overflow."""
    n, ra, rb = spec.n, scale * float(abs(spec.a)), scale * float(abs(spec.b))
    c = ((ra - rb) * (ra + rb) - scale * scale) / (2.0 * scale * rb)
    phi = cmath.phase(spec.b) + math.acos(min(1.0, max(-1.0, c))) * np.array([[1.0], [-1.0]])
    dips = ((phi + 2 * math.pi * np.arange(n)) / n % (2 * math.pi)).ravel()
    dips = dips[np.abs(np.abs(scale * np.exp(1j * n * dips) + scale * spec.b) - ra)
                < 0.75 * scale]
    uniform = np.linspace(0.0, 2 * math.pi, max(9, n + 1))[1:-1]
    return tuple(sorted(set(dips.tolist()) | set(uniform.tolist())))


def measure_jensen(spec: TrinomialSpec, tol: float = DEFAULT_TOL) -> MeasureResult:
    """M via adaptive quadrature of (1/2pi) integral log|P(e^it)| dt.

    Zeros on the unit circle are log singularities at _circle_breakpoints.  A
    breakpoint theta with |P| within rounding of 0 is a confirmed zero.  Beside
    one, P(e^it) = sum c_k e^(ik theta) 2i e^(ikd/2) sin(kd/2), d = t - theta in
    (-pi, pi] from the nearest such theta: this does not cancel at a double zero.

    For real a and b, |P(e^-it)| = |P(e^it)|, so the integral is that of
    2 log|P(e^it)| over [0, pi], with the breakpoints below pi; the confirmed
    zeros still come from all of them, so a zero at pi has its formula at
    that endpoint.  Complex a or b takes the whole circle.

    |P| <= 1 + |a| + |b|.  Where that sum overflows, near the top of the double
    range, every modulus is taken of P / 4 and log 4 is added back to log M.

    integrate refines to tol and on to tol/10, and its error adds the gap
    between the two values to the finer panel estimate: on a sharp dip of |P|
    without a zero the panel estimate alone can understate the error.
    """
    require_float(spec.a, spec.b)
    scale = 1.0 if math.isfinite(1 + abs(spec.a) + abs(spec.b)) else 0.25
    bps = _circle_breakpoints(spec, scale)
    theta = np.array(bps)
    floor = 8 * _EPS * (scale + scale * abs(spec.a) + scale * abs(spec.b))
    zeros = theta[_circle_modulus(spec, theta, scale) <= floor]

    def modulus(t):
        if not zeros.size:
            return _circle_modulus(spec, t, scale)
        d = math.pi - (math.pi - (t[:, None] - zeros)) % (2 * math.pi)
        near = np.argmin(np.abs(d), axis=1)
        d = d[np.arange(len(t)), near]
        mid = zeros[near] + 0.5 * d
        return 2 * np.abs(scale * np.exp(1j * spec.n * mid) * np.sin(0.5 * spec.n * d)
                          + scale * spec.a * np.exp(1j * spec.m * mid) * np.sin(0.5 * spec.m * d))

    # the half circle of real coefficients counts twice; integrate keeps the
    # breakpoints inside [0, hi]
    real = complex(spec.a).imag == complex(spec.b).imag == 0
    weight, hi = (2.0, math.pi) if real else (1.0, 2 * math.pi)

    def integrand(t):
        return weight * np.log(np.maximum(modulus(t), 1e-300))

    res = integrate(integrand, 0.0, hi, tol, breakpoints=bps)
    return _from_log(res.value / (2 * math.pi) - math.log(scale), res.error / (2 * math.pi),
                     "jensen", res.panels)


def limit_case(a: complex, b: complex) -> LimitCase:
    """Classify (a, b) into the four large-n regimes (they partition the plane)."""
    require_float(a, b)
    if a == 0 or b == 0:
        raise ValueError("a and b must be nonzero")
    regime, _ = polycore._regime(a, b)
    if regime is not LimitRegime.OSCILLATORY:
        return LimitCase(regime)
    sides = sorted((1.0, abs(a), abs(b)), reverse=True)
    angles = list(_triangle_angles(*sides))
    del angles[sides.index(1.0)]
    return LimitCase(LimitRegime.OSCILLATORY, gamma=angles[0] + angles[1])


def _triangle_angles(x: float, y: float, z: float) -> tuple[float, float, float]:
    """The angles opposite the sides x >= y >= z of a triangle, each within
    8 eps relative (derivation in limit_measure's docstring).

    Since y > x / 2, x - y is exact, and p = x + (y + z), q = z - (x - y),
    r = z + (x - y), t = x + (y - z) are 2s, 2(s - x), 2(s - y), 2(s - z) for
    s the half perimeter, each within 2 eps relative (Kahan's needle-safe
    factors).  The half-angle tangents are sqrt(rt / pq), sqrt(qt / pr) and
    sqrt(qr / pt), taken as products of two square roots of ratios so that
    nothing overflows.  Above x = 2^1020, p and t could overflow: the sides are
    first divided by 4, exactly, which leaves the angles and z >= 1/4 normal."""
    if x > 2.0 ** 1020:
        x, y, z = x / 4, y / 4, z / 4
    p, q, r, t = x + (y + z), z - (x - y), z + (x - y), x + (y - z)

    def angle(n1, d1, n2, d2):
        return 2.0 * math.atan(math.sqrt(n1 / d1) * math.sqrt(n2 / d2))

    return angle(r, q, t, p), angle(q, r, t, p), angle(q, p, r, t)


@functools.cache
def _clausen_coefficients() -> tuple[float, ...]:
    """c_k = |B_2k| / (2k (2k+1)!) for k = 1..30, the coefficients of the
    Clausen series, from the exact Bernoulli numbers: sum_{j<=m} C(m+1, j)
    B_j = 0 for m >= 1, where B_j = 0 at odd j >= 3.  Built on first use, with
    fractions imported here: start-up pays for neither."""
    from fractions import Fraction

    bernoulli = {0: Fraction(1), 1: Fraction(-1, 2)}
    for m in range(2, 61, 2):
        bernoulli[m] = -sum(comb(m + 1, j) * b for j, b in bernoulli.items()) / (m + 1)
    return tuple(float(abs(bernoulli[2 * k]) / (2 * k * factorial(2 * k + 1)))
                 for k in range(1, 31))


def _lobachevsky(theta: float) -> tuple[float, float]:
    """Lobachevsky's function L(theta) = -integral_0^theta log|2 sin t| dt =
    Cl2(2 theta) / 2 for 0 < theta <= pi/2, with a bound on its absolute error.

    Cl2(phi) = phi - phi log phi + sum_k c_k phi^(2k+1) (Lewin, Polylogarithms
    and Associated Functions, 1981).  As |B_2k| = 2 (2k)! zeta(2k) / (2 pi)^(2k),
    the ratio of successive terms is (phi / 2pi)^2 (zeta(2k+2) / zeta(2k))
    2k (2k+1) / ((2k+2) (2k+3)) < 1/4 for phi = 2 theta <= pi, so the tail after
    the last term t_K is below t_K / 3.  The sum stops at the first term below
    2^-60, a test on the term alone: Cl2(pi) = 0, so a relative test would not
    stop there.  Rounding, with every operation and log within eps relative:
    term k is 2k + 2 roundings from exact, which over the terms' decay sums to
    below 7 eps S for S the series part; phi log phi is within 2 eps of exact,
    and fsum adds eps |Cl2|.
    """
    phi = 2.0 * theta
    phi2 = phi * phi
    power = phi
    terms = []
    for c in _clausen_coefficients():
        power *= phi2
        terms.append(c * power)
        if terms[-1] < 2.0 ** -60:
            break
    main = phi * math.log(phi)
    cl2 = math.fsum([phi, -main, *terms])
    error = _EPS * (abs(cl2) + 2 * abs(main) + 7 * math.fsum(terms)) + terms[-1] / 3
    return cl2 / 2, error / 2


def limit_measure(a: complex, b: complex) -> MeasureResult:
    """Large-n limit of M(z^n + a z^m + b), in closed form for every regime.

    By Boyd and Lawton the limit is the measure of the linear form x + a y + b.
    When 1, |a| and |b| form no triangle (every regime but the oscillatory one)
    that is the largest of them: exact, or within one rounding, eps times the
    value, when it is the modulus of a complex a or b.  On a triangle with
    angle theta_s opposite the side s, Cassaigne and Maillot (Maillot, Mem.
    Soc. Math. Fr. 80, 2000) give pi log M = sum_s theta_s log s +
    sum_s L(theta_s), L as in _lobachevsky.  The angles sum to pi, so with x
    the largest side M = x exp(C / pi), C = sum_s theta_s log(s / x) +
    sum_s L(theta_s): C stays of order 1 however large x is.

    Angles: sort the sides x >= y >= z and take _triangle_angles, half-angle
    tangents on Kahan's factors of the area.  With every operation, sqrt and
    atan within eps relative, each angle is within 8 eps relative, also in a
    needle; a law-of-cosines angle is not, where two long sides are close.
    L(theta) for theta > pi/2 is -L(pi - theta), and only the largest angle
    can exceed pi/2: its supplement is summed from the other two, within
    9 eps, not taken from pi.

    Error of C, first order in eps:
    - each angle enters theta log(s / x) with 8 eps, and log(s / x) is within
      eps + eps |log(s / x)|, which with the product gives
      eps (10 theta |log(s / x)| + theta);
    - each argument of L is within 9 eps relative, and
      |theta L'(theta)| = theta |log(2 sin theta)| <= (pi/2) log 2 < 1.1 on
      (0, pi/2]: 10 eps for each of the three;
    - the three L values carry _lobachevsky's bounds, and fsum adds eps |C|.
    Dividing by pi adds 2 eps |C| / pi, and |a| and |b| are each within eps
    of the true moduli, which moves log M by at most eps (d log M / d log s =
    theta_s / pi).  _from_log's floor covers exp and the product by x.
    """
    case = limit_case(a, b)
    x, y, z = sorted((1.0, float(abs(a)), float(abs(b))), reverse=True)
    if case.case is not LimitRegime.OSCILLATORY:
        # x is exact when it is 1 or equals a real |a| or |b|; otherwise it
        # is |a| or |b| rounded once (a complex modulus or a huge int)
        exact = x == 1.0 or any(x == abs(v) for v in (a, b) if not isinstance(v, complex))
        return MeasureResult(x, math.log(x), "closed-form", 0.0 if exact else _EPS * x)

    big, mid, small = _triangle_angles(x, y, z)
    lob_mid, err_mid = _lobachevsky(mid)
    lob_small, err_small = _lobachevsky(small)
    if big <= math.pi / 2:
        lob_big, err_big = _lobachevsky(big)
    else:
        lob_big, err_big = _lobachevsky(mid + small)
        lob_big = -lob_big
    log_y, log_z = math.log(y / x), math.log(z / x)
    c = math.fsum([mid * log_y, small * log_z, lob_big, lob_mid, lob_small])
    err = (_EPS * (abs(c) + 10 * (mid * abs(log_y) + small * abs(log_z)) + mid + small + 30)
           + err_big + err_mid + err_small)
    scaled = _from_log(c / math.pi, (err + 2 * _EPS * abs(c)) / math.pi + _EPS,
                       "closed-form", 0)
    return MeasureResult(x * scaled.value, math.log(x) + scaled.log_value, scaled.method,
                         x * scaled.error_bound)


def _check_series_domain(n: int, m: int, a: complex, b: complex) -> None:
    TrinomialSpec(n, m, a, b)
    if gcd(m, n) != 1:
        raise CoprimalityViolated(f"gcd({m}, {n}) = {gcd(m, n)} != 1")
    require_float(a, b)
    if polycore._regime(a, b)[0] is not LimitRegime.DOMINANT_A:
        raise DominanceViolated(f"series requires |a| - |b| >= 1, got {abs(a) - abs(b)!r}")


def _sign_power(x: float, e: int) -> float:
    return -1.0 if (x < 0 and e % 2) else 1.0


def _term_parts(k: int, n: int, m: int, a: complex, b: complex) -> tuple[float, float]:
    """(envelope, cos factor) of (-1)^(kn) C(kn-1, km-1) Re(b^(-km) (b/a)^(kn)).

    The binomial is combined with the power magnitudes in log space before
    exponentiating; small terms survive where the raw binomial would overflow.
    """
    ln_binom = lgamma(k * n) - lgamma(k * m) - lgamma(k * (n - m) + 1)
    ln_mag = -k * m * math.log(abs(b)) + k * n * (math.log(abs(b)) - math.log(abs(a)))
    envelope = math.exp(ln_binom + ln_mag)
    sign = -1.0 if (k * n) % 2 else 1.0
    if isinstance(a, complex) or isinstance(b, complex):
        phase = -k * m * cmath.phase(complex(b)) + k * n * (
            cmath.phase(complex(b)) - cmath.phase(complex(a)))
        return envelope, sign * math.cos(phase)
    return envelope, sign * _sign_power(b, k * (n - m)) * _sign_power(a, k * n)


def series_measure(n: int, m: int, a: complex, b: complex,
                   tol: float = 1e-12) -> MeasureResult:
    """Exact-series evaluation of log M, truncated at |term| < tol or after
    _MAX_TERMS terms.

    Requires gcd(m, n) = 1, |a| - |b| >= 1 and 0 <= tol < inf.  With N = kn,
    K = km, L = k(n-m) and theta = m^m (n-m)^(n-m) / n^n, Robbins' Stirling
    bounds (Amer. Math. Monthly 62 (1955)) put C(N, K) theta^k between
    exp(1/(12N+1) - 1/(12K) - 1/(12L)) and exp(1/(12N) - 1/(12K+1) - 1/(12L+1))
    times sqrt(n / (2 pi k m (n-m))).  The k-th term is at most
    t_k = C(N, K) theta^k rho^k / N with rho = n^n |b|^(n-m) / (m^m (n-m)^(n-m) |a|^n),
    so t_(k+1) / t_k < rho (k/(k+1))^(3/2) exp(1/(6k)) < rho for every k >= 1,
    and the tail after K terms is at most t_K rho / (1 - rho).  In the domain
    rho <= 1, with equality only at |a| = n/m, |b| = (n-m)/m, where the terms
    decay like k^(-3/2): a rho of 1 to rounding raises DivergenceDetected.
    """
    _check_series_domain(n, m, a, b)
    if not 0 <= tol < math.inf:
        raise ValueError(f"tol must be finite and >= 0, got {tol!r}")
    parts = (n * math.log(n), -m * math.log(m), -(n - m) * math.log(n - m),
             (n - m) * math.log(abs(b)), -n * math.log(abs(a)))
    log_rho = sum(parts)
    if log_rho >= -4 * _EPS * sum(map(abs, parts)):
        raise DivergenceDetected(
            f"series term ratio tends to rho = {math.exp(log_rho):.17g}, which is 1 "
            f"to rounding: the terms decay like k^(-3/2)")
    total = 0.0
    terms: list[SeriesTerm] = []
    for k in range(1, _MAX_TERMS + 1):
        env, cosf = _term_parts(k, n, m, a, b)
        s_k = env * cosf / (k * m)
        terms.append(SeriesTerm(k=k, closed_form=s_k))
        total += s_k
        if env / (k * m) < tol:
            break
    rho = math.exp(log_rho)
    tail = env / (k * m) * rho / -math.expm1(log_rho)
    return _from_log(math.log(abs(a)) - total, tail, "series", k, tuple(terms))


def residue_term(k: int, n: int, m: int, a: complex, b: complex,
                 with_quadrature: bool = False) -> SeriesTerm:
    """Closed form of the k-th contour term, optionally with its quadrature oracle.

    closed_form = -(1/(2 pi k)) Re(I_k) where I_k = -2 pi * res_at_infinity of
    z^(kn-1) (-a z^m - b)^(-k); the residue vanishes unless m | k.  With the
    oracle enabled, i_k is integral_0^{2pi} e^{inkt} (-a e^{imt} - b)^(-k) dt
    by adaptive quadrature.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    _check_series_domain(n, m, a, b)

    if k % m != 0:
        closed = 0.0
    else:
        j = k // m
        # residue at infinity = -(-1)^(jn) C(jn-1, k-1) b^(j(n-m)) a^(-jn)
        env, cosf = _term_parts(j, n, m, a, b)
        closed = -(1.0 / k) * env * cosf

    i_k = None
    if with_quadrature:
        def integrand(t):
            return np.exp(1j * n * k * t) * (-a * np.exp(1j * m * t) - b) ** (-k)

        splits = np.linspace(0.0, 2 * math.pi, max(17, 2 * k * m + 1))[1:-1]
        res = integrate(integrand, 0.0, 2 * math.pi,
                        breakpoints=tuple(splits.tolist()))
        i_k = res.value

    return SeriesTerm(k=k, closed_form=closed, i_k=i_k)
