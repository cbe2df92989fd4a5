"""Every measure route's error bound against an mpmath oracle at 40 digits.

The specs come from four generators aimed at the edges of the routes: the
dominance boundary |a| - |b| = 1, |a| from 1e3 to 1e12, complex a and b, and
small integers.  Truth is M and the house from all roots: numpy's roots polished
by Newton's method in mpmath, or mpmath.polyroots when polishing does not give
n distinct roots.  Draws are derandomized, so every run sees the same specs.
Known defects are strict xfails that name their ROADMAP item.
"""

import cmath
import math

import numpy as np
import pytest

from conftest import coprime_pairs
from trinotool import polycore
from trinotool.errors import DivergenceDetected, DominanceViolated, TrinotoolError
from trinotool.mahler import (
    house,
    limit_case,
    limit_measure,
    measure_from_roots,
    measure_jensen,
    series_measure,
)
from trinotool.polycore import LimitRegime, TrinomialSpec

mpmath = pytest.importorskip("mpmath")
hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

DPS = 40
_SETTINGS = hypothesis.settings(max_examples=40, derandomize=True, database=None, deadline=None)


def mp_measure(n, m, a, b):
    """(M, house) of z^n + a z^m + b from all roots to DPS digits."""
    with mpmath.workdps(DPS):
        am, bm = mpmath.mpc(a), mpmath.mpc(b)
        # roots of P(s w) / s^n, scaled so that huge |a| keeps the outer roots
        s = max(1.0, abs(a) ** (1.0 / (n - m)), abs(b) ** (1.0 / n))
        coeffs = np.zeros(n + 1, dtype=complex)  # descending for np.roots
        coeffs[0], coeffs[n - m], coeffs[n] = 1, a * s ** (m - n), b * s ** -n
        roots = []
        for z0 in s * np.roots(coeffs):
            if not z0 and m > 1:  # b s^-n underflowed to a seed at 0, where P' = 0
                roots.append(None)
                continue
            z = mpmath.mpc(complex(z0))
            for _ in range(60):
                step = (z**n + am * z**m + bm) / (n * z**(n - 1) + m * am * z**(m - 1))
                z -= step
                if abs(step) <= mpmath.mpf(10) ** (5 - DPS) * max(1, abs(z)):
                    break
            else:
                z = None
            roots.append(z)
        distinct = None not in roots and all(
            abs(roots[i] - roots[j]) > 1e-6 * max(1, abs(roots[i]))
            for i in range(n) for j in range(i))
        if not distinct:
            # the same P(s w) / s^n, whose coefficients cannot underflow in mpmath
            sm = mpmath.mpf(s)
            dense = [mpmath.mpc(0)] * (n + 1)  # descending
            dense[0], dense[n - m], dense[n] = mpmath.mpc(1), am * sm ** (m - n), bm * sm ** -n
            roots = [sm * w for w in mpmath.polyroots(dense, maxsteps=500, extraprec=400)]
        return (float(mpmath.fprod(max(1, abs(z)) for z in roots)),
                float(max(abs(z) for z in roots)))


@st.composite
def specs(draw, kind):
    n, m = draw(st.sampled_from(coprime_pairs(24)))
    sign = st.sampled_from((-1, 1))
    if kind == "boundary":
        rb = draw(st.floats(0.05, 6.0))
        a = draw(sign) * (rb + draw(st.sampled_from((1.0, 1.0 + 1e-9))))
        b = draw(sign) * rb
    elif kind == "huge":
        a = draw(sign) * 10.0 ** draw(st.floats(3.0, 12.0))
        b = draw(sign) * draw(st.floats(0.05, 8.0))
    elif kind == "complex":
        a = cmath.rect(draw(st.floats(0.1, 8.0)), draw(st.floats(-math.pi, math.pi)))
        b = cmath.rect(draw(st.floats(0.1, 6.0)), draw(st.floats(-math.pi, math.pi)))
    else:
        a = draw(st.integers(-6, 6).filter(bool))
        b = draw(st.integers(-4, 4).filter(bool))
    return n, m, a, b


def check_routes(n, m, a, b):
    """Each route's value lies within its own error bound of the truth, and the
    house within 1e-9 relative; the series may refuse only outside its domain
    or where its term ratio tends to 1."""
    true_m, true_house = mp_measure(n, m, a, b)
    spec = TrinomialSpec(n, m, a, b)
    results = {"roots": measure_from_roots(spec), "jensen": measure_jensen(spec)}
    try:
        results["series"] = series_measure(n, m, a, b)
    except DominanceViolated:
        assert abs(a) - abs(b) < 1.0
    except DivergenceDetected:
        assert math.isclose(abs(a), n / m, rel_tol=1e-12)
    for name, r in results.items():
        assert abs(r.value - true_m) <= r.error_bound, (name, r, true_m)
    assert abs(house(spec) - true_house) <= 1e-9 * true_house


@pytest.mark.parametrize("kind", ["boundary", "huge", "complex", "small"])
def test_measure_routes_within_bounds(kind):
    @_SETTINGS
    @hypothesis.given(specs(kind))
    def run(spec):
        check_routes(*spec)

    run()


@pytest.mark.parametrize("spec", [(30, 13, 2.376, 1.376), (30, 7, -4, 3)])
def test_boundary_series_bound_misses_fixed(spec):
    # at |a| - |b| = 1 the term ratio rises toward rho, so a tail taken from the
    # last observed ratio missed by 2.19e-10 against a bound of 2.17e-10 here
    check_routes(*spec)


_UNIT = st.one_of(st.sampled_from([1.0, -1.0]),
                  st.floats(0.0, 2 * math.pi).map(lambda t: cmath.exp(1j * t)))
_GAP = st.builds(lambda e, f: f * 10.0**e, st.integers(-15, -3), st.floats(1.0, 10.0))


@st.composite
def limit_pairs(draw):
    """(a, b) over the plane; at the three edges of the triangle 1, |a|, |b|
    (|a| - |b| -> 1, |b| - |a| -> 1 and |a| + |b| -> 1, by gaps of 1e-15 to
    1e-2); and with |a| ~ |b| up to 1e6.  Edge and long draws take a sign or
    a phase each, so a and b are complex too."""
    kind = draw(st.sampled_from(["plane", "edge", "long"]))
    if kind == "plane":
        return tuple(draw(st.complex_numbers(min_magnitude=0.05, max_magnitude=4.0))
                     for _ in "ab")
    if kind == "edge":
        side, gap, edge = draw(st.floats(0.05, 4.0)), draw(_GAP), draw(st.integers(0, 2))
        ra, rb = [(side + 1 - gap, side), (side, side + 1 - gap),
                  (side / 4.2, 1 - side / 4.2 + gap)][edge]
    else:
        ra = 10.0 ** draw(st.floats(0.0, 6.0))
        rb = ra + draw(st.floats(-0.999, 0.999))
    return ra * draw(_UNIT), rb * draw(_UNIT)


@hypothesis.settings(_SETTINGS, max_examples=120)
@hypothesis.given(limit_pairs())
def test_limit_within_bound(pair):
    a, b = pair
    case = limit_case(a, b)
    r = limit_measure(a, b)
    assert r.method == "closed-form"
    if case.gamma is None:
        if isinstance(a, complex) or isinstance(b, complex):
            # the modulus of a complex a or b is rounded once
            with mpmath.workdps(DPS):
                miss = abs(max(1, abs(mpmath.mpc(a)), abs(mpmath.mpc(b))) - r.value)
            assert miss <= r.error_bound <= math.ulp(1.0) * r.value
        else:
            assert (r.value, r.error_bound) == (max(1.0, abs(a), abs(b)), 0.0)
        return
    with mpmath.workdps(DPS):
        ra, rb = mpmath.mpf(abs(a)), mpmath.mpf(abs(b))
        gamma = mpmath.acos((1 - ra**2 - rb**2) / (2 * ra * rb))
        val = mpmath.quad(lambda t: mpmath.log(ra**2 + 2 * ra * rb * mpmath.cos(t) + rb**2),
                          [0, gamma])
        miss = abs(mpmath.exp(val / (2 * mpmath.pi)) - r.value)
    assert miss <= r.error_bound <= 1e-14 * r.value


@st.composite
def int_pairs(draw):
    """Nonzero int pairs at and beside |a| = |b| + 1 and |b| = |a| + 1, up to
    2^70, where a float would round."""
    rb = draw(st.integers(1, 2**70))
    ra = rb + draw(st.integers(-2, 2))
    hypothesis.assume(ra > 0)
    sign = st.sampled_from((-1, 1))
    return draw(sign) * ra, draw(sign) * rb


@st.composite
def ulp_pairs(draw):
    """Float pairs within two ulps of |a| = |b| + 1 or |b| = |a| + 1, where
    fl(|a| - |b|) and fl(|b| + 1) can round apart."""
    small, steps = draw(st.floats(1e-3, 4.0)), draw(st.integers(-2, 2))
    big = small + 1.0
    for _ in range(abs(steps)):
        big = math.nextafter(big, math.copysign(math.inf, steps))
    return (big, small) if draw(st.booleans()) else (small, -big)


@hypothesis.settings(_SETTINGS, max_examples=200)
@hypothesis.given(st.one_of(limit_pairs(), int_pairs(), ulp_pairs()))
def test_one_regime_and_the_boundary_only_dominant_a(pair):
    a, b = pair
    regime, boundary = polycore._regime(a, b)
    ra, rb = abs(a), abs(b)
    holds = {LimitRegime.DOMINANT_A: ra - rb >= 1, LimitRegime.DOMINANT_B: rb - ra >= 1,
             LimitRegime.SUB_UNIT: abs(ra - rb) < 1 and ra + rb <= 1,
             LimitRegime.OSCILLATORY: abs(ra - rb) < 1 < ra + rb}
    assert [r for r, held in holds.items() if held] == [regime]
    assert limit_case(a, b).case is regime
    assert boundary is (ra - rb == 1)
    assert regime is LimitRegime.DOMINANT_A or not boundary
    if isinstance(a, int) and isinstance(b, int):
        assert boundary is (ra == rb + 1)


@pytest.mark.parametrize("a, b", [(1e308, 1e308), (9e307, -9e307), (1.7e308, 1.7e308j),
                                  (8.9e307, 8.9e307)], ids=str)
def test_limit_near_the_double_range_top(a, b):
    # unscaled, Kahan's factor x + (y + z) overflows here and the smallest
    # angle comes out 0.  Oracle: M(x + a y + b) = exp((1/2pi) integral log max(|a|, |e^it + |b||)),
    # kinked where |e^it + |b|| = |a|; the law-of-cosines integrand of
    # test_limit_within_bound cancels to 0 at these sizes
    case, r = limit_case(a, b), limit_measure(a, b)
    assert case.gamma == math.pi
    with mpmath.workdps(DPS):
        ra, rb = mpmath.mpf(abs(a)), mpmath.mpf(abs(b))
        kink = mpmath.acos(((ra - rb) * (ra + rb) - 1) / (2 * rb))
        val = mpmath.quad(lambda t: mpmath.log(max(ra, abs(mpmath.expj(t) + rb))),
                          [-mpmath.pi, -kink, kink, mpmath.pi])
        miss = abs(mpmath.exp(val / (2 * mpmath.pi)) - r.value)
    assert miss <= r.error_bound <= 1e-14 * r.value


@pytest.mark.parametrize("n, m, a, b", [(3, 1, 9e307, 9e307), (3, 1, 1e308, 1e308),
                                        (3, 1, 1e308j, 1e308), (4, 1, -1.2e308, 6e307j),
                                        (5, 2, -1.2e308, 6e307j)],
                         ids=str)
def test_jensen_near_the_double_range_top(n, m, a, b):
    # 1 + |a| + |b| overflows here: unscaled, the zero floor was infinite, so
    # every breakpoint read as a zero, and (3, 1, 9e307, 9e307) gave 1.3e307
    r = measure_jensen(TrinomialSpec(n, m, a, b))
    assert abs(mp_measure(n, m, a, b)[0] - r.value) <= r.error_bound <= 1e-9 * r.value


def test_limit_at_one_one_is_smyths_constant():
    # m(1 + x + y) = (3 sqrt 3 / 4 pi) L(chi_-3, 2) (Smyth, Bull. Austral. Math.
    # Soc. 23 (1981)), with L(chi_-3, 2) = (zeta(2, 1/3) - zeta(2, 2/3)) / 9
    r = limit_measure(1, 1)
    with mpmath.workdps(DPS):
        l_chi = (mpmath.zeta(2, mpmath.mpf(1) / 3) - mpmath.zeta(2, mpmath.mpf(2) / 3)) / 9
        miss = abs(mpmath.exp(3 * mpmath.sqrt(3) / (4 * mpmath.pi) * l_chi) - r.value)
    assert miss <= r.error_bound


@pytest.mark.parametrize("a, b", [(0.5, 0.5000001), (2, 1.0000001), (0.8, 0.7j)])
def test_limit_gamma_within_two_angles_rounding(a, b):
    # gamma is the sum of the half-angle angles opposite |a| and |b|, each
    # within 8 eps relative.  The first two points are triangles 1e-7 from
    # degenerate, where acos of the law of cosines loses up to 7.9e-11
    with mpmath.workdps(DPS):
        ra, rb = mpmath.mpf(abs(a)), mpmath.mpf(abs(b))
        gamma = mpmath.acos((1 - ra**2 - rb**2) / (2 * ra * rb))
        assert abs(limit_case(a, b).gamma - gamma) <= 9 * math.ulp(1.0) * gamma


@pytest.mark.parametrize("a", [6, -6])
def test_jensen_sharp_dip_within_bound(a):
    # |P| has no zero on the circle but dips to 1.4e-3; a single pass at the
    # default tol estimated 9.9e-11 for an error of 4.3e-10
    true_m, _ = mp_measure(120, 77, a, -5)
    r = measure_jensen(TrinomialSpec(120, 77, a, -5))
    assert abs(r.value - true_m) <= r.error_bound


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 2, NaN roots: all_roots returns a NaN root set at |a| = 1e300 "
    "and the roots route reports M = 1.0 with a NaN error bound"))
def test_roots_huge_coefficient_within_bound_or_refused():
    # four roots of modulus ~1e75 and three of ~1e-100: M = 1e300 to double precision
    try:
        r = measure_from_roots(TrinomialSpec(7, 3, 1e300, 1))
    except TrinotoolError:
        return
    assert abs(r.value - 1e300) <= r.error_bound
