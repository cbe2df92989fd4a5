"""Trinomial and dense-polynomial primitives.

A trinomial is z^n + a z^m + b with 0 < m < n and a, b nonzero (possibly
complex).  Dense integer polynomials are stored as tuples of coefficients in
ascending degree order: [c0, c1, ..., cn] is c0 + c1 z + ... + cn z^n, with a
nonzero leading coefficient unless the polynomial is zero (empty tuple).

Sign-normalised families, obtained from integer trinomials with b = +/-1 by an
optional z -> -z substitution:

    R:  z^n - a z^m + 1   (a > 0, m odd, n even)
    S:  z^n + a z^m - 1   (a > 0, n odd)
    T:  z^n - a z^m - 1   (a > 0)

``_SIGNS`` holds each family's (middle, constant) sign pattern; the parity
rules live only in ``FamilyForm``.  z -> -z, times (-1)^n to stay monic, maps
the pattern (s, t) to (s (-1)^(n+m), t (-1)^n) (``_reflect``); ``normalize``
and ``classify_real_roots`` are derived from these two rules.  ``_reflect``
only multiplies by +/-1, so it maps integer coefficients (a, b) as well, and
``scan`` reads its orbits' cells off it.

Complex roots are found by Aberth-Ehrlich simultaneous iteration, followed by
one Newton polish and residual-based certification.  A trinomial's start
points lie on the root circles of the upper Newton polygon of (0, log|b|),
(m, log|a|), (n, 0) (Bini 1996, section 3), one evenly spaced ring per edge:
with (m, log|a|) above the chord, m on (|b|/|a|)^(1/m) and n - m on
|a|^(1/(n-m)); on or below it, n on |b|^(1/n).  The rings are turned by a
fixed offset, except that with |a| > |b| + 1 the two rings sit at the angles
of the proto-roots of a z^m + b and z^(n-m) + a, so the seeds are those roots.
The boundary |a| = |b| + 1, where the repeated roots on the unit circle live,
and dense input start on one generic circle instead: seeding the boundary on
its hull moves the computed pair at the double root of (z +/- 1)^2 by up to
9e-9, and dense input stays the independent side of the cross-check.  The
iteration stops once every relative correction is below ``_ABERTH_TOL``, gives
up after ``_MAX_ITER`` iterations, and certifies a root set whose residual
bound is at most ``_CERT_TOL``; none of the three is a parameter.

``_eval_terms`` is the one evaluator at a point (Horner's rule over the nonzero
terms, each gap's power by squaring).  ``mahler._circle_modulus`` is kept apart:
it evaluates by angle, exp(i n t); through ``evaluate`` at e^(it), Jensen took
1.2-1.4x as long on the 200 seed-3001 benchmark ``measure`` specs and moved by
up to 2e-14 relative on 143 of them.
"""

from __future__ import annotations

import cmath
import importlib.util
import math
import sys
from array import array
from dataclasses import dataclass
from itertools import chain
from math import gcd
from typing import Iterable, Sequence, Union

from .errors import (
    ClassificationMismatch,
    ConvergenceFailure,
    NonIntegerCoefficient,
    NotRepresentable,
    ParityViolated,
)


def _lazy_import(name: str):
    """The module ``name``, loaded at its first attribute access rather than
    now (the ``importlib.util.LazyLoader`` recipe), or the module itself when
    it is already loaded.  Once loaded it is a plain module, so later access
    costs nothing extra."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


# Importing numpy takes longer than the integer commands (factor, irreducible,
# series, compare-bounds, a cached scan) take to run, and they never use it;
# mahler and quadrature take their np from here.
np = _lazy_import("numpy")

__all__ = [
    "TrinomialSpec",
    "FamilyForm",
    "IntPolynomial",
    "RootSet",
    "evaluate",
    "to_dense",
    "normalize",
    "all_roots",
    "classify_real_roots",
    "is_reciprocal",
]


def require_finite(*coeffs) -> None:
    """Raise ValueError for a float or complex coefficient that is not finite.

    Python ints of any size stay legal: the factorizer needs them exact.
    """
    for c in coeffs:
        if isinstance(c, (float, complex)) and not cmath.isfinite(c):
            raise ValueError(f"coefficients must be finite, got {c!r}")


def require_float(*coeffs) -> None:
    """require_finite, and refuse an int too large for floating point."""
    require_finite(*coeffs)
    try:
        for c in coeffs:
            complex(c)
    except OverflowError:
        raise ValueError("coefficient too large for floating point") from None


def _as_int(x) -> int:
    """x as an int: an int (not a bool), or a float or a complex with zero
    imaginary part whose value is an integer."""
    real = x.real if isinstance(x, complex) and x.imag == 0 else x
    if (isinstance(real, int) and not isinstance(real, bool)
            or isinstance(real, float) and real.is_integer()):
        return int(real)
    raise NonIntegerCoefficient(f"expected an integer coefficient, got {x!r}")


@dataclass(frozen=True)
class TrinomialSpec:
    """The trinomial z^n + a z^m + b."""

    n: int
    m: int
    a: complex
    b: complex

    def __post_init__(self):
        if not (isinstance(self.n, int) and isinstance(self.m, int)):
            raise TypeError("n and m must be integers")
        if not 0 < self.m < self.n:
            raise ValueError(f"need 0 < m < n, got m={self.m}, n={self.n}")
        require_finite(self.a, self.b)
        if self.a == 0 or self.b == 0:
            raise ValueError("a and b must be nonzero")

    @property
    def gcd_mn(self) -> int:
        return gcd(self.m, self.n)


_SIGNS = {"R": (-1, 1), "S": (1, -1), "T": (-1, -1)}  # (middle, constant) signs
_FAMILY_OF = {signs: family for family, signs in _SIGNS.items()}


def _reflect(n: int, m: int, signs: tuple[int, int]) -> tuple[int, int]:
    """Sign pattern, or coefficients (a, b), after z -> -z, multiplied by
    (-1)^n to stay monic."""
    return signs[0] * (-1 if (n + m) % 2 else 1), signs[1] * (-1 if n % 2 else 1)


@dataclass(frozen=True)
class FamilyForm:
    """One of the sign-normalised forms R, S, T with positive real coefficient
    a, kept as given: an int a stays exact in ``as_trinomial`` and in every
    record that echoes it.  A complex a is refused, even with zero imaginary
    part."""

    family: str
    n: int
    m: int
    a: int | float

    def __post_init__(self):
        if self.family not in ("R", "S", "T"):
            raise ValueError(f"family must be 'R', 'S' or 'T', got {self.family!r}")
        if not 0 < self.m < self.n:
            raise ValueError(f"need 0 < m < n, got m={self.m}, n={self.n}")
        if isinstance(self.a, complex):
            raise ValueError(f"a must be real, got {self.a!r}")
        require_float(self.a)
        if not self.a > 0:
            raise ValueError("a must be positive")
        if self.family == "R" and (self.m % 2 == 0 or self.n % 2 == 1):
            raise ParityViolated("R form requires m odd and n even")
        if self.family == "S" and self.n % 2 == 0:
            raise ParityViolated("S form requires n odd")

    @property
    def gcd_mn(self) -> int:
        return gcd(self.m, self.n)

    def require_hypotheses(self) -> None:
        """Raise ValueError unless a >= 2 and gcd(m, n) = 1: the hypotheses of
        the house bounds, the extremality check and the real-root
        classification."""
        if not self.a >= 2:
            raise ValueError(f"the {self.family} form results require a >= 2, got {self.a!r}")
        if self.gcd_mn != 1:
            raise ValueError(f"the {self.family} form results require gcd(m, n) = 1")

    def signs(self) -> tuple[int, int]:
        """Return (sign of middle coefficient, sign of constant term)."""
        return _SIGNS[self.family]

    def as_trinomial(self) -> TrinomialSpec:
        sa, sb = self.signs()
        return TrinomialSpec(self.n, self.m, sa * self.a, sb)


# unsigned array typecodes by item size ("L" is left out: it is 8 bytes on
# most platforms but 4 on Windows), and each digit's byte count rounded up to
# one of those sizes
_UNSIGNED = {array(code).itemsize: code for code in "BHIQ"}
_WORD = (1, 1, 2, 4, 4, 8, 8, 8, 8)


def _packed(coeffs: Sequence[int], code: str) -> int:
    """The coefficients as the digits of one int, each an array item."""
    return int.from_bytes(array(code, coeffs).tobytes(), sys.byteorder)


def dense_mul(f: Sequence[int], g: Sequence[int]) -> list[int]:
    """Product of two ascending integer coefficient sequences over Z.

    The package's one dense product: IntPolynomial.__mul__ and the modular
    arithmetic of the factorizer (which reduces the result) both call it.
    The result has exactly len(f) + len(g) - 1 entries, untrimmed inputs
    included, and every entry is a plain int.

    An operand of one or two terms is a scaled shift-add, one comprehension.
    Otherwise the product is taken by Kronecker substitution: each operand
    is packed into one Python int as its value at x = 2^k, the two ints are
    multiplied once (in C), and the product's k-bit digits are its
    coefficients.  With every product coefficient c below 2^b in absolute
    value, b = bits(max|f|) + bits(max|g|) + bits(min(len f, len g)), the
    digits take one of two paths:

    - no negative coefficient (every reduced modular operand) and k >= b of
      1, 2, 4 or 8 bytes: each operand is packed and the product unpacked
      through one array of unsigned C integers in native byte order;
    - otherwise (a negative coefficient, as in IntPolynomial products, or
      digits past 8 bytes: large Hensel moduli, huge coefficients): k is a
      whole number of bytes at least b + 1, 2^(k-1) is added to every
      digit of the product so that each lies in [0, 2^k) without borrows,
      and each digit is read back from its own byte slice less 2^(k-1).
    """
    if not f or not g:
        return []
    if len(f) < len(g):
        f, g = g, f
    if len(g) == 1:
        return [g[0] * x for x in f]
    if len(g) == 2:
        c0, c1 = g
        return [c0 * x + c1 * y for x, y in zip(chain(f, (0,)), chain((0,), f))]
    n = len(f) + len(g) - 1
    f_low, g_low = min(f), min(g)
    bits = (max(max(f), -f_low).bit_length() + max(max(g), -g_low).bit_length()
            + len(g).bit_length())
    size = (bits + 7) >> 3  # bytes, rounded up
    if size <= 8 and f_low >= 0 and g_low >= 0:
        size = _WORD[size]
        code = _UNSIGNED[size]
        product = _packed(f, code) * _packed(g, code)
        return array(code, product.to_bytes(size * n, sys.byteorder)).tolist()
    width = (bits + 8) >> 3
    k = width << 3
    packed_f = packed_g = 0
    for c in reversed(f):
        packed_f = (packed_f << k) + c
    for c in reversed(g):
        packed_g = (packed_g << k) + c
    half = 1 << (k - 1)
    bias = int.from_bytes((bytes(width - 1) + b"\x80") * n, "little")  # 2^(k-1) per digit
    data = (packed_f * packed_g + bias).to_bytes(width * n, "little")
    return [int.from_bytes(data[i:i + width], "little") - half
            for i in range(0, width * n, width)]


@dataclass(frozen=True)
class IntPolynomial:
    """Dense integer polynomial, coefficients ascending, trimmed."""

    coeffs: tuple[int, ...]

    def __post_init__(self):
        if any(not isinstance(c, int) or isinstance(c, bool) for c in self.coeffs):
            raise NonIntegerCoefficient("all coefficients must be Python ints")
        if self.coeffs and self.coeffs[-1] == 0:
            raise ValueError("leading coefficient must be nonzero (use IntPolynomial.of)")

    @classmethod
    def of(cls, coeffs: Iterable[int]) -> "IntPolynomial":
        """Build from an ascending coefficient iterable, trimming leading zeros."""
        cs = [_as_int(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        return cls(tuple(cs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        return IntPolynomial(tuple(dense_mul(self.coeffs, other.coeffs)))

    def nonzero_terms(self) -> list[tuple[int, int]]:
        """(exponent, coefficient) pairs for nonzero coefficients."""
        return [(k, c) for k, c in enumerate(self.coeffs) if c]


@dataclass(frozen=True)
class RootSet:
    """All complex roots of a polynomial with a residual-based error bound.

    ``residual_bound`` is max over roots of deg * (|P(z)| + noise) / |P'(z)|,
    a first-order estimate of the distance to the true root; the noise term is
    the float evaluation floor of P, which keeps the estimate honest at
    multiple roots.  ``certified`` is set when the bound is at most
    ``_CERT_TOL``.
    """

    roots: tuple[complex, ...]
    residual_bound: float
    certified: bool
    iterations: int

    def __len__(self) -> int:
        return len(self.roots)

    def max_modulus(self) -> float:
        """The largest |root|, NaN if any root is NaN."""
        return _moduli_extreme(max, self.roots)

    def min_modulus(self) -> float:
        """The smallest |root|, NaN if any root is NaN."""
        return _moduli_extreme(min, self.roots)


def _moduli_extreme(pick, roots: tuple[complex, ...]) -> float:
    """pick (max or min) of the root moduli, or NaN if any is NaN: Python's max
    and min keep a NaN only when it comes first."""
    moduli = [abs(r) for r in roots]
    return math.nan if any(map(math.isnan, moduli)) else pick(moduli)


_ABERTH_TOL = 1e-14  # relative correction size at which the iteration stops
_MAX_ITER = 512  # Aberth iterations before an unconverged solve is judged
_CERT_TOL = 1e-6  # residual bound at or below which a root set is certified


# ----------------------------------------------------------------------------
# evaluation / conversion

def _pow_by_squaring(z, e: int):
    """z^e for e >= 1 by left-to-right binary powering: one squaring per bit
    of e after the first and one product by z per further set bit.  Works
    elementwise on numpy arrays, where ``**`` is less accurate."""
    acc = z
    for bit in bin(e)[3:]:
        acc = acc * acc
        if bit == "1":
            acc = acc * z
    return acc


def _eval_terms(exps: Sequence[int], coeffs: Sequence, z):
    """sum coeffs[k] z^exps[k] for ascending exps: Horner's rule across the
    gaps between exponents, each gap's power by squaring.  A trinomial is
    evaluated as (z^(n-m) + a) z^m + b; a polynomial with no zero
    coefficient as plain Horner.  z may be a scalar or a numpy array."""
    acc = coeffs[-1]
    for k in range(len(exps) - 1, 0, -1):
        acc = acc * _pow_by_squaring(z, exps[k] - exps[k - 1]) + coeffs[k - 1]
    return acc * _pow_by_squaring(z, exps[0]) if exps[0] else acc


def evaluate(spec: TrinomialSpec, z: complex) -> complex:
    """Evaluate z^n + a z^m + b as (z^(n-m) + a) z^m + b."""
    return _eval_terms(*_terms(spec), z)


def to_dense(spec: TrinomialSpec) -> IntPolynomial:
    """Dense integer coefficient vector of the trinomial.

    Raises NonIntegerCoefficient unless a and b are integers.
    """
    a = _as_int(spec.a)
    b = _as_int(spec.b)
    coeffs = [0] * (spec.n + 1)
    coeffs[0] = b
    coeffs[spec.m] = a
    coeffs[spec.n] = 1
    return IntPolynomial(tuple(coeffs))


def normalize(n: int, m: int, a: int, b: int) -> tuple[FamilyForm, bool]:
    """Rewrite z^n + a z^m + b (integer a != 0, b = +/-1) as an R/S/T form.

    Returns the form and whether a z -> -z substitution was applied.  The
    substitution negates the roots, so measures and the house are unchanged.
    """
    a = _as_int(a)
    b = _as_int(b)
    if a == 0 or b not in (-1, 1):
        raise ValueError("need a nonzero integer a and b = +/-1")
    if not 0 < m < n:
        raise ValueError(f"need 0 < m < n, got m={m}, n={n}")
    signs = (1 if a > 0 else -1, b)
    for flipped, pattern in ((False, signs), (True, _reflect(n, m, signs))):
        if pattern in _FAMILY_OF:
            try:
                return FamilyForm(_FAMILY_OF[pattern], n, m, abs(a)), flipped
            except ParityViolated:  # the family's parity rule excludes (n, m)
                pass
    raise NotRepresentable(f"z^{n} + {a} z^{m} + {b} matches none of the R/S/T forms")


# ----------------------------------------------------------------------------
# complex roots

def _terms(p: Union[IntPolynomial, TrinomialSpec]) -> tuple[list[int], list[complex]]:
    """Ascending exponents and complex coefficients of the nonzero terms."""
    terms = ([(0, p.b), (p.m, p.a), (p.n, 1)] if isinstance(p, TrinomialSpec)
             else p.nonzero_terms())
    require_float(*(c for _, c in terms))
    return [k for k, _ in terms], [complex(c) for _, c in terms]


_SEED_PHASE = 0.39996  # angle offset of the seeds not at proto-roots, so none is real


def _ring(radius: float, k: int, phase: float) -> np.ndarray:
    """k points spaced evenly on the circle |z| = radius, the first at angle phase."""
    return radius * np.exp(1j * (2 * math.pi * np.arange(k) / k + phase))


def _initial_points(p: Union[IntPolynomial, TrinomialSpec], coeffs: list[complex],
                    n: int) -> np.ndarray:
    """Aberth start points: a trinomial off the boundary |a| = |b| + 1 starts
    on the root circles of its upper Newton polygon, one ring per edge of the
    hull (module docstring); the boundary and dense input start on one
    generic circle.  With |a| > |b| + 1, which always lies above the chord,
    the two rings sit at the proto-roots' angles: turned by the fixed offset,
    the 672 such ``measure`` benchmark specs of seeds 3001-3010 took 8675
    iterations, not 5672.  Elsewhere the proto-root angles of a real
    polynomial would be real and keep its iterates real (z^2 - 2z + 3), so
    the rings are turned by _SEED_PHASE, the outer one by pi/n more, or at
    m = n - m the two rings of equal radius would coincide."""
    if isinstance(p, TrinomialSpec) and abs(p.a) != abs(p.b) + 1:
        m, d = p.m, p.n - p.m
        log_a, log_b = math.log(abs(p.a)), math.log(abs(p.b))
        if log_a <= log_b * d / n:  # (m, log|a|) on or below the chord: one edge
            return _ring(math.exp(log_b / n), n, _SEED_PHASE)
        if abs(p.a) > abs(p.b) + 1:
            inner, outer = cmath.phase(-p.b / p.a) / m, cmath.phase(-complex(p.a)) / d
        else:
            inner, outer = _SEED_PHASE, _SEED_PHASE + math.pi / n
        return np.concatenate((_ring(math.exp((log_b - log_a) / m), m, inner),
                               _ring(math.exp(log_a / d), d, outer)))
    # the generic circle.  The boundary stays here: its repeated roots on the
    # unit circle, the double root of (z +/- 1)^2, move by up to 9e-9 when it
    # starts on its hull.  Dense input stays here as the independent side of
    # the cross-check against the trinomial seeds.  coeffs[0] is the nonzero
    # constant term
    mags = [abs(c) for c in coeffs]
    hi = 1.0 + max(mags[:-1]) / mags[-1]
    lo = mags[0] / (mags[0] + max(mags[1:]))
    radius = math.sqrt(max(lo, 1e-6) * hi)
    angles = 2 * math.pi * np.arange(n) / n + 0.7 / n + _SEED_PHASE
    radii = radius * (1.0 + 0.06 * np.cos(3.7 * np.arange(n)))
    return radii * np.exp(1j * angles)


def all_roots(p: Union[IntPolynomial, TrinomialSpec]) -> RootSet:
    """All complex roots by Aberth-Ehrlich iteration plus one Newton polish.

    Deterministic for fixed input.  Raises ConvergenceFailure (carrying the
    best iterate) if _MAX_ITER iterations pass without convergence while the
    residual bound is still above _CERT_TOL.

    The Aberth loop, the polish and the residual run under one np.errstate
    that silences overflow, invalid and divide warnings: once |z|^n leaves
    the double range (z^30 - 1e15 z^29 - 1) the iterates turn NaN.  The loop
    stops at the first step where every root is NaN, and the solve returns
    an all-NaN, uncertified RootSet with a NaN residual bound, which the CLI
    and convergence_table refuse as ConvergenceFailure.
    """
    exps, coeffs = _terms(p)
    if not exps or exps[-1] < 1:
        raise ValueError("degree must be at least 1")

    zero_count = exps[0]  # roots at the origin split off exactly
    exps = [e - zero_count for e in exps]
    n = exps[-1]
    roots: list[complex] = [0.0j] * zero_count
    iterations = 0
    residual = 0.0

    if n == 1:
        roots.append(-coeffs[0] / coeffs[1])
    elif n > 1:
        dexps = [e - 1 for e in exps if e]
        dcoeffs = [e * c for e, c in zip(exps, coeffs) if e]
        z = _initial_points(p, coeffs, n)
        pair = np.empty((n, n), dtype=complex)  # 1 / (z_i - z_j), refilled in place
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            converged = False
            for it in range(_MAX_ITER):
                iterations = it + 1
                pv = _eval_terms(exps, coeffs, z)
                dv = _eval_terms(dexps, dcoeffs, z)
                dv = np.where(dv == 0, 1e-300, dv)
                w = pv / dv
                np.subtract(z[:, None], z[None, :], out=pair)
                np.fill_diagonal(pair, np.inf)
                np.divide(1.0, pair, out=pair)
                s = pair.sum(axis=1)
                denom = 1.0 - w * s
                denom = np.where(denom == 0, 1e-300, denom)
                corr = w / denom
                z = z - corr
                if np.isnan(z).all():  # one NaN root spreads to all via the pair sums
                    break
                if np.max(np.abs(corr) / (1.0 + np.abs(z))) < _ABERTH_TOL:
                    converged = True
                    break
            # terminal Newton pass, kept only where it reduces |P|
            pv = _eval_terms(exps, coeffs, z)
            dv = _eval_terms(dexps, dcoeffs, z)
            dv = np.where(dv == 0, 1e-300, dv)
            z_new = z - pv / dv
            pv_new = _eval_terms(exps, coeffs, z_new)
            better = np.abs(pv_new) <= np.abs(pv)
            z = np.where(better, z_new, z)
            # |P(z)| computed in floats is only trustworthy down to the evaluation
            # noise floor; without it, cancellation at multiple roots reports
            # spuriously tiny residuals and over-certifies the cluster
            pv = np.abs(np.where(better, pv_new, pv))
            noise = 2.3e-16 * _eval_terms(exps, [abs(c) for c in coeffs], np.abs(z))
            dv = np.maximum(np.abs(_eval_terms(dexps, dcoeffs, z)), 1e-300)
            residual = float(np.max(n * (pv + noise) / dv))
        if not converged and residual > _CERT_TOL:
            raise ConvergenceFailure(
                f"root iteration did not converge in {_MAX_ITER} iterations "
                f"(residual bound {residual:.3e})",
                roots=tuple(sorted(map(complex, z), key=lambda r: (r.real, r.imag))),
                residual_bound=residual,
            )
        roots.extend(map(complex, z))

    roots.sort(key=lambda r: (r.real, r.imag))
    return RootSet(
        roots=tuple(roots),
        residual_bound=residual,
        certified=residual <= _CERT_TOL,
        iterations=iterations,
    )


# ----------------------------------------------------------------------------
# real-root classification

def _bisect(f, lo: float, hi: float) -> float:
    """The root of f in [lo, hi], where f changes sign, to one unit in the last
    place: the bracket is halved until its ends are adjacent doubles.  Signs
    are compared, not multiplied, so values near the ends of the double range
    neither underflow to 0 nor overflow to inf."""
    flo = f(lo)
    fhi = f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo < 0) == (fhi < 0):
        raise ClassificationMismatch(
            f"no sign change on [{lo}, {hi}] where one was expected"
        )
    while True:
        mid = lo + 0.5 * (hi - lo)  # lo + hi can overflow
        if mid == lo or mid == hi:
            return mid
        fmid = f(mid)
        if fmid == 0.0:
            return mid
        if (fmid < 0) == (flo < 0):
            lo = mid
        else:
            hi = mid


def _positive_roots(n: int, m: int, a: float, sigma: int, tau: int,
                    boundary: bool) -> list[float]:
    """Descending positive roots of x^n + sigma a x^m + tau, a >= 2.  By Descartes:
    (-,+) one in (0, 1) and one in (1, hi), one of them exactly 1 when a = 2;
    (+,-) one in (0, 1); (-,-) one in (1, hi); (+,+) none."""
    def p(x: float) -> float:
        value = _eval_terms((0, m, n), (tau, sigma * a, 1), x)
        if math.isnan(value):  # inf * 0 after an overflow; +/-inf keeps its sign
            raise ClassificationMismatch(f"the polynomial overflowed to NaN at x = {x!r}")
        return value

    hi = a ** (1.0 / (n - m)) + 1.0  # value at hi dominates the middle term
    if sigma > 0:
        return [_bisect(p, 0.0, 1.0)] if tau < 0 else []
    if tau < 0:
        return [_bisect(p, 1.0, hi)]
    if not boundary:
        return [_bisect(p, 1.0, hi), _bisect(p, 0.0, 1.0)]
    if n == 2 * m:  # degenerate (n, m) = (2, 1): (x-1)^2, double root at 1
        return [1.0, 1.0]
    side = -1.0 if m < n / 2 else 1.0  # the other root's side of 1
    delta = 1e-3
    for _ in range(12):  # step off 1 to where p < 0, between the two roots
        c = 1.0 + side * delta
        if p(c) < 0:
            return [1.0, _bisect(p, 0.0, c)] if side < 0 else [_bisect(p, c, hi), 1.0]
        delta *= 0.1
    raise ClassificationMismatch("could not establish the expected sign of the polynomial near 1")


def classify_real_roots(f: FamilyForm) -> dict[str, float]:
    """The real roots of an R/S/T form (a >= 2, gcd(m, n) = 1) as a dict from
    label (r1, r2, s1..s3, t1..t3) to root, in descending order: its positive
    roots, then the negated positive roots of its z -> -z reflection, each
    bisected to adjacent doubles.  Roots at +/-1 (exactly when a = 2) are set,
    not bisected."""
    f.require_hypotheses()
    n, m, a = f.n, f.m, f.a
    boundary = a == 2  # P(+/-1) = 0 exactly
    roots = _positive_roots(n, m, a, *f.signs(), boundary)
    roots += [-y for y in _positive_roots(n, m, a, *_reflect(n, m, f.signs()), boundary)]
    roots.sort(reverse=True)

    expected = {"R": 2, "S": 1 if m % 2 else 3, "T": 2 if n % 2 == 0 else (3 if m % 2 else 1)}
    if len(roots) != expected[f.family]:
        raise ClassificationMismatch(
            f"found {len(roots)} labelled roots, expected {expected[f.family]}"
        )
    return {f"{f.family.lower()}{k}": x for k, x in enumerate(roots, 1)}


def is_reciprocal(p: IntPolynomial) -> bool:
    """True iff the coefficient vector is palindromic (z^n P(1/z) = P(z))."""
    if p.is_zero:
        raise ValueError("the zero polynomial has no reciprocal notion here")
    return p.coeffs == p.coeffs[::-1]
