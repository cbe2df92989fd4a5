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

import numpy as np

from . import polycore
from .errors import CoprimalityViolated, DivergenceDetected, DominanceViolated
from .polycore import IntPolynomial, RootSet, TrinomialSpec, require_float
from .quadrature import DEFAULT_TOL, QuadResult, integrate

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


def measure_from_roots(p: Union[TrinomialSpec, IntPolynomial]) -> MeasureResult:
    """M(P) = |leading| * prod max(1, |root|) from a certified root set."""
    lead = abs(p.coeffs[-1]) if isinstance(p, IntPolynomial) else 1.0
    return measure_from_root_set(polycore.all_roots(p), lead)


def measure_from_root_set(rs: RootSet, lead: float = 1.0) -> MeasureResult:
    """M(P) from an already solved root set of P, |leading coefficient| = lead."""
    log_value = math.log(lead)
    for r in rs.roots:
        mod = abs(r)
        if mod > 1.0:
            log_value += math.log(mod)
    value = math.exp(log_value)
    return MeasureResult(
        value=value,
        log_value=log_value,
        method="roots",
        error_bound=value * len(rs.roots) * rs.residual_bound,
    )


def house(p: Union[TrinomialSpec, IntPolynomial]) -> float:
    """Largest root modulus."""
    return polycore.all_roots(p).max_modulus()


def _circle_modulus(spec: TrinomialSpec, t):
    """|P(e^it)| for P = z^n + a z^m + b, elementwise over the array t."""
    return np.abs(np.exp(1j * spec.n * t) + spec.a * np.exp(1j * spec.m * t) + spec.b)


def _jensen_result(res: QuadResult) -> MeasureResult:
    """M from a quadrature of log|P| over the unit circle: exp(integral / 2pi)."""
    log_value = res.value / (2 * math.pi)
    value = math.exp(log_value)
    return MeasureResult(
        value=value,
        log_value=log_value,
        method="jensen",
        error_bound=value * math.expm1(res.error / (2 * math.pi)),
    )


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
    """
    require_float(spec.a, spec.b)
    bps = _circle_breakpoints(spec)
    theta = np.array(bps)
    floor = 8 * np.finfo(float).eps * (1 + abs(spec.a) + abs(spec.b))
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

    return _jensen_result(integrate(integrand, 0.0, 2 * math.pi, tol, breakpoints=bps))


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


_RATIO_WINDOW = 10
_RATIO_LIMIT = 1.0 - 1e-6


def series_measure(n: int, m: int, a: complex, b: complex,
                   tol: float = 1e-12, k_max: int = 10000) -> MeasureResult:
    """Exact-series evaluation of log M, truncated at |term| < tol or k_max.

    Requires gcd(m, n) = 1, |a| - |b| >= 1 and k_max >= 1.  A persistent
    envelope ratio >= 1 - 1e-6 over ten consecutive terms raises
    DivergenceDetected instead of returning a value (the boundary
    |a| - |b| = 1 can be marginal).  A sum cut at k_max before any term ratio
    was seen has no tail estimate and reports an infinite error bound.
    """
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    _check_series_domain(n, m, a, b)
    total = 0.0
    terms: list[SeriesTerm] = []
    prev_env = None
    high_ratio_run = 0
    last_ratio = None
    for k in range(1, k_max + 1):
        env, cosf = _term_parts(k, n, m, a, b)
        sign = -1.0 if (k * n) % 2 else 1.0
        s_k = sign * env * cosf / (k * m)
        terms.append(SeriesTerm(k=k, closed_form=s_k))
        total += s_k
        env_scaled = env / (k * m)
        if prev_env is not None and prev_env > 0.0:
            last_ratio = env_scaled / prev_env
            if last_ratio >= _RATIO_LIMIT:
                high_ratio_run += 1
                if high_ratio_run >= _RATIO_WINDOW:
                    raise DivergenceDetected(
                        f"series terms stopped decaying near k={k} "
                        f"(ratio {last_ratio:.8f})"
                    )
            else:
                high_ratio_run = 0
        prev_env = env_scaled
        if env_scaled < tol:
            rho = min(max(last_ratio or 0.0, 0.0), 0.99)
            tail = env_scaled * rho / (1.0 - rho)
            break
    else:
        if last_ratio is None:
            tail = math.inf
        else:
            rho = min(max(last_ratio, 0.0), 0.999999)
            tail = prev_env * rho / (1.0 - rho)

    log_value = math.log(abs(a)) - total
    value = math.exp(log_value)
    return MeasureResult(
        value=value,
        log_value=log_value,
        method="series",
        error_bound=value * (math.expm1(tail) if tail < 1 else float("inf")),
        terms=tuple(terms),
    )


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
        ln_binom = lgamma(j * n) - lgamma(k) - lgamma(j * n - k + 1)
        ln_mag = j * (n - m) * math.log(abs(b)) - j * n * math.log(abs(a))
        env = math.exp(ln_binom + ln_mag)
        if isinstance(a, complex) or isinstance(b, complex):
            phase = j * (n - m) * cmath.phase(complex(b)) - j * n * cmath.phase(complex(a))
            cosf = math.cos(phase)
        else:
            cosf = _sign_power(b, j * (n - m)) * _sign_power(a, j * n)
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
