"""Mahler measure of trinomials by three routes, limit regimes, and the exact
coefficient series with its contour-integral oracle.

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
import math
from dataclasses import dataclass
from enum import Enum
from math import gcd, lgamma
from typing import Union

from . import polycore
from .errors import CoprimalityViolated, DivergenceDetected, DominanceViolated
from .polycore import IntPolynomial, RootSet, TrinomialSpec, np, require_float
from .quadrature import DEFAULT_TOL, QuadResult, integrate

_EPS = math.ulp(1.0)

__all__ = [
    "MeasureResult",
    "LimitRegime",
    "LimitCase",
    "SeriesTerm",
    "measure_from_roots",
    "measure_from_root_set",
    "measure_jensen",
    "house",
    "limit_case",
    "limit_measure",
    "series_measure",
    "residue_term",
]


@dataclass(frozen=True)
class MeasureResult:
    """A Mahler measure value with its method tag and error estimate."""

    value: float
    log_value: float
    method: str  # "roots" | "jensen" | "series" | "closed-form"
    error_bound: float
    terms: tuple["SeriesTerm", ...] | None = None


class LimitRegime(Enum):
    DOMINANT_A = "dominant-a"
    DOMINANT_B = "dominant-b"
    SUB_UNIT = "sub-unit"
    OSCILLATORY = "oscillatory"


@dataclass(frozen=True)
class LimitCase:
    """Which large-n regime (a, b) falls in; gamma is set only when oscillatory."""

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
    lead = abs(p.coeffs[-1]) if isinstance(p, IntPolynomial) else 1.0
    return measure_from_root_set(polycore.all_roots(p), lead)


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


def _circle_modulus(spec: TrinomialSpec, t):
    """|P(e^it)| for P = z^n + a z^m + b, elementwise over the array t."""
    return np.abs(np.exp(1j * spec.n * t) + spec.a * np.exp(1j * spec.m * t) + spec.b)


def _jensen_result(res: QuadResult, spread: float = 0.0) -> MeasureResult:
    """M from a quadrature of log|P| over the unit circle: exp(integral / 2pi),
    with the integral's error estimate widened by spread."""
    return _from_log(res.value / (2 * math.pi), (res.error + spread) / (2 * math.pi),
                     "jensen", res.panels)


def _circle_breakpoints(spec: TrinomialSpec) -> tuple[float, ...]:
    """Uniform angles plus the 2n angles t = (arg b +- acos c + 2 pi k) / n where
    |e^int + b| = |a|, c = (|a|^2 - 1 - |b|^2) / (2|b|) clamped to [-1, 1].
    |P(e^it)| >= ||e^int + b| - |a||, so every zero on the circle is one of these;
    for |c| > 1 they are the closest approach.  Kept where that bound is < 0.75."""
    n, ra, rb = spec.n, float(abs(spec.a)), float(abs(spec.b))
    c = ((ra - rb) * (ra + rb) - 1.0) / (2.0 * rb)
    phi = cmath.phase(spec.b) + math.acos(min(1.0, max(-1.0, c))) * np.array([[1.0], [-1.0]])
    dips = ((phi + 2 * math.pi * np.arange(n)) / n % (2 * math.pi)).ravel()
    dips = dips[np.abs(np.abs(np.exp(1j * n * dips) + spec.b) - ra) < 0.75]
    uniform = np.linspace(0.0, 2 * math.pi, max(9, n + 1))[1:-1]
    return tuple(sorted(set(dips.tolist()) | set(uniform.tolist())))


def measure_jensen(spec: TrinomialSpec, tol: float = DEFAULT_TOL) -> MeasureResult:
    """M via adaptive quadrature of (1/2pi) integral log|P(e^it)| dt.

    Zeros on the unit circle are log singularities at _circle_breakpoints.  A
    breakpoint theta with |P| within rounding of 0 is a confirmed zero.  Beside
    one, P(e^it) = sum c_k e^(ik theta) 2i e^(ikd/2) sin(kd/2), d = t - theta in
    (-pi, pi] from the nearest such theta: this does not cancel at a double zero.

    The integral is taken twice, at tol and at tol/10.  The finer value is
    returned, with log error (fine error + |fine - coarse|) / 2pi: on a sharp
    dip of |P| without a zero the panel estimate alone can understate the error.
    """
    require_float(spec.a, spec.b)
    bps = _circle_breakpoints(spec)
    theta = np.array(bps)
    floor = 8 * _EPS * (1 + abs(spec.a) + abs(spec.b))
    zeros = theta[_circle_modulus(spec, theta) <= floor]

    def modulus(t):
        if not zeros.size:
            return _circle_modulus(spec, t)
        d = math.pi - (math.pi - (t[:, None] - zeros)) % (2 * math.pi)
        near = np.argmin(np.abs(d), axis=1)
        d = d[np.arange(len(t)), near]
        mid = zeros[near] + 0.5 * d
        return 2 * np.abs(np.exp(1j * spec.n * mid) * np.sin(0.5 * spec.n * d)
                          + spec.a * np.exp(1j * spec.m * mid) * np.sin(0.5 * spec.m * d))

    def integrand(t):
        return np.log(np.maximum(modulus(t), 1e-300))

    coarse = integrate(integrand, 0.0, 2 * math.pi, tol, breakpoints=bps)
    fine = integrate(integrand, 0.0, 2 * math.pi, tol / 10, breakpoints=bps)
    return _jensen_result(fine, abs(fine.value - coarse.value))


def limit_case(a: complex, b: complex) -> LimitCase:
    """Classify (a, b) into the four large-n regimes (they partition the plane)."""
    require_float(a, b)
    if a == 0 or b == 0:
        raise ValueError("a and b must be nonzero")
    ra, rb = abs(a), abs(b)
    if ra - rb >= 1.0:
        return LimitCase(LimitRegime.DOMINANT_A)
    if rb - ra >= 1.0:
        return LimitCase(LimitRegime.DOMINANT_B)
    if ra + rb <= 1.0:
        return LimitCase(LimitRegime.SUB_UNIT)
    arg = (1.0 - ra * ra - rb * rb) / (2.0 * ra * rb)
    gamma = math.acos(min(1.0, max(-1.0, arg)))
    return LimitCase(LimitRegime.OSCILLATORY, gamma=gamma)


def limit_measure(a: complex, b: complex, tol: float = DEFAULT_TOL) -> MeasureResult:
    """Large-n limit of M(z^n + a z^m + b) per regime.

    Dominant-a: |a| (limit).  Dominant-b: |b|, exact for every n.  Sub-unit: 1,
    exact.  Oscillatory: exp((1/2pi) integral_0^gamma log(|a|^2 + 2|ab| cos t
    + |b|^2) dt) by adaptive quadrature.
    """
    case = limit_case(a, b)
    ra, rb = float(abs(a)), float(abs(b))
    if case.case is LimitRegime.DOMINANT_A:
        return MeasureResult(ra, math.log(ra), "closed-form", 0.0)
    if case.case is LimitRegime.DOMINANT_B:
        return MeasureResult(rb, math.log(rb), "closed-form", 0.0)
    if case.case is LimitRegime.SUB_UNIT:
        return MeasureResult(1.0, 0.0, "closed-form", 0.0)

    c2 = ra * ra + rb * rb
    c1 = 2.0 * ra * rb

    def integrand(t):
        return np.log(np.maximum(c2 + c1 * np.cos(t), 1e-300))

    return _jensen_result(integrate(integrand, 0.0, case.gamma, tol))


def _check_series_domain(n: int, m: int, a: complex, b: complex) -> None:
    if not 0 < m < n:
        raise ValueError(f"need 0 < m < n, got m={m}, n={n}")
    if gcd(m, n) != 1:
        raise CoprimalityViolated(f"gcd({m}, {n}) = {gcd(m, n)} != 1")
    require_float(a, b)
    if a == 0 or b == 0:
        raise ValueError("a and b must be nonzero")
    if abs(a) - abs(b) < 1.0:
        raise DominanceViolated(
            f"series requires |a| - |b| >= 1, got {abs(a) - abs(b):.6g}"
        )


def _sign_power(x: float, e: int) -> float:
    return -1.0 if (x < 0 and e % 2) else 1.0


def _term_parts(k: int, n: int, m: int, a: complex, b: complex) -> tuple[float, float]:
    """(envelope, cos factor) of C(kn-1, km-1) * Re(b^(-km) (b/a)^(kn)).

    The binomial is combined with the power magnitudes in log space before
    exponentiating; small terms survive where the raw binomial would overflow.
    """
    ln_binom = lgamma(k * n) - lgamma(k * m) - lgamma(k * (n - m) + 1)
    ln_mag = -k * m * math.log(abs(b)) + k * n * (math.log(abs(b)) - math.log(abs(a)))
    envelope = math.exp(ln_binom + ln_mag)
    if isinstance(a, complex) or isinstance(b, complex):
        phase = -k * m * cmath.phase(complex(b)) + k * n * (
            cmath.phase(complex(b)) - cmath.phase(complex(a)))
        cosf = math.cos(phase)
    else:
        cosf = _sign_power(b, k * (n - m)) * _sign_power(a, k * n)
    return envelope, cosf


def series_measure(n: int, m: int, a: complex, b: complex,
                   tol: float = 1e-12, k_max: int = 10000) -> MeasureResult:
    """Exact-series evaluation of log M, truncated at |term| < tol or k_max.

    Requires gcd(m, n) = 1, |a| - |b| >= 1 and k_max >= 1.  With N = kn,
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
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    _check_series_domain(n, m, a, b)
    parts = (n * math.log(n), -m * math.log(m), -(n - m) * math.log(n - m),
             (n - m) * math.log(abs(b)), -n * math.log(abs(a)))
    log_rho = sum(parts)
    if log_rho >= -4 * _EPS * sum(map(abs, parts)):
        raise DivergenceDetected(
            f"series term ratio tends to rho = {math.exp(log_rho):.17g}, which is 1 "
            f"to rounding: the terms decay like k^(-3/2)")
    total = 0.0
    terms: list[SeriesTerm] = []
    for k in range(1, k_max + 1):
        env, cosf = _term_parts(k, n, m, a, b)
        sign = -1.0 if (k * n) % 2 else 1.0
        s_k = sign * env * cosf / (k * m)
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
        sign = -1.0 if (j * n) % 2 else 1.0
        closed = -(1.0 / k) * sign * env * cosf

    i_k = None
    if with_quadrature:
        def integrand(t):
            return np.exp(1j * n * k * t) * (-a * np.exp(1j * m * t) - b) ** (-k)

        splits = np.linspace(0.0, 2 * math.pi, max(17, 2 * k * m + 1))[1:-1]
        res = integrate(integrand, 0.0, 2 * math.pi,
                        breakpoints=tuple(splits.tolist()))
        i_k = res.value

    return SeriesTerm(k=k, closed_form=closed, i_k=i_k)
