import inspect
import math
import random

import numpy as np
import pytest

from conftest import THETA0, coprime_pairs
from trinotool import mahler
from trinotool.errors import CoprimalityViolated, DivergenceDetected, DominanceViolated
from trinotool.mahler import (
    LimitRegime,
    house,
    limit_case,
    limit_measure,
    measure_from_root_set,
    measure_from_roots,
    measure_jensen,
    residue_term,
    series_measure,
)
from trinotool.polycore import (
    IntPolynomial,
    TrinomialSpec,
    all_roots,
    classify_real_roots,
    is_reciprocal,
    normalize,
    to_dense,
)
from trinotool.quadrature import DEFAULT_TOL, integrate


def random_spec(rng, n_max=20, a_abs_max=8, a_abs_min=1):
    n, m = rng.choice(coprime_pairs(n_max))
    a = rng.choice([x for x in range(-a_abs_max, a_abs_max + 1)
                    if abs(x) >= a_abs_min])
    b = rng.choice([-1, 1])
    return TrinomialSpec(n, m, a, b)


# -------------------------------------------------------- measure_from_roots

def test_measure_from_roots_examples():
    assert measure_from_roots(TrinomialSpec(3, 1, -1, -1)).value == pytest.approx(THETA0, abs=1e-10)
    # |b| - |a| = 2 >= 1 forces the measure to equal |b| exactly
    assert measure_from_roots(TrinomialSpec(4, 1, 1, -3)).value == pytest.approx(3.0, abs=1e-9)
    assert measure_from_roots(TrinomialSpec(2, 1, 1, 1)).value == pytest.approx(1.0, abs=1e-12)


def test_measure_result_invariants():
    r = measure_from_roots(TrinomialSpec(5, 2, 3, 1))
    assert r.value == pytest.approx(math.exp(r.log_value), rel=1e-15)
    assert r.value >= 1.0 and r.method == "roots"


def test_measure_leading_coefficient_factor():
    # 2(z - 3)(z + 1) has measure 2 * 3 * 1
    p = IntPolynomial.of([-6, -4, 2])
    assert measure_from_roots(p).value == pytest.approx(6.0, abs=1e-9)


# -------------------------------------------------------- measure_jensen

def test_measure_jensen_examples():
    roots_val = measure_from_roots(TrinomialSpec(3, 1, -1, -1)).value
    jens = measure_jensen(TrinomialSpec(3, 1, -1, -1))
    assert abs(jens.value - roots_val) < 1e-8
    # zeros on the unit circle: the integrand is log-singular yet integrable
    assert measure_jensen(TrinomialSpec(2, 1, 1, 1)).value == pytest.approx(1.0, abs=1e-8)
    ref = measure_from_roots(TrinomialSpec(5, 2, 3, 1)).value
    assert abs(measure_jensen(TrinomialSpec(5, 2, 3, 1)).value - ref) < 1e-8


@pytest.mark.parametrize("spec, angles", [
    # z^2 + z + 1 divides each: zeros at the primitive cube roots of unity
    ((2, 1, 1, 1), (2 * math.pi / 3, 4 * math.pi / 3)),
    ((5, 1, 1, 1), (2 * math.pi / 3, 4 * math.pi / 3)),
    ((7, 2, 1, 1), (2 * math.pi / 3, 4 * math.pi / 3)),
    # at z = e^(+-i pi/3): z^11 = e^(-+i pi/3) and -z^4 = e^(+-i pi/3) sum to 1
    ((11, 4, -1, -1), (math.pi / 3, 5 * math.pi / 3)),
])
def test_circle_breakpoints_hit_unit_circle_zeros(spec, angles):
    # none of these angles is a uniform point: the closed-form dip angles supply them
    bps = mahler._circle_breakpoints(TrinomialSpec(*spec))
    for t in angles:
        assert min(abs(bp - t) for bp in bps) < 1e-9, t


def test_circle_breakpoints_without_dips_are_uniform():
    bps = mahler._circle_breakpoints(TrinomialSpec(5, 2, 7, 1))
    assert bps == tuple(2 * math.pi * k / 8 for k in range(1, 8))


@pytest.mark.parametrize("spec, expected", [
    ((3, 1, -3, 2), 2.0),  # (z - 1)^2 (z + 2)
    ((6, 2, -3, 2), 2.0),  # (z^2 - 1)^2 (z^2 + 2)
    ((2, 1, -2, 1), 1.0),  # (z - 1)^2
])
def test_measure_jensen_repeated_unit_circle_zeros(spec, expected):
    r = measure_jensen(TrinomialSpec(*spec))
    assert abs(r.value - expected) <= r.error_bound


def test_measure_jensen_bound_holds_between_close_dips():
    # truth from mpmath roots at 30 digits; the roots route agrees within 4.3e-12
    r = measure_jensen(TrinomialSpec(120, 37, 2.244623910109541, 2.110423599145506))
    assert abs(r.value - 2.5233247412280035) <= r.error_bound


def _jensen_full_circle(spec):
    # the integrand over the whole circle, as measure_jensen took it for every
    # a and b: the oracle of its half circle for real ones
    bps = mahler._circle_breakpoints(spec)
    theta = np.array(bps)
    floor = 8 * mahler._EPS * (1 + abs(spec.a) + abs(spec.b))
    zeros = theta[mahler._circle_modulus(spec, theta) <= floor]

    def integrand(t):
        if not zeros.size:
            return np.log(np.maximum(mahler._circle_modulus(spec, t), 1e-300))
        d = math.pi - (math.pi - (t[:, None] - zeros)) % (2 * math.pi)
        near = np.argmin(np.abs(d), axis=1)
        d = d[np.arange(len(t)), near]
        mid = zeros[near] + 0.5 * d
        modulus = 2 * np.abs(np.exp(1j * spec.n * mid) * np.sin(0.5 * spec.n * d)
                             + spec.a * np.exp(1j * spec.m * mid) * np.sin(0.5 * spec.m * d))
        return np.log(np.maximum(modulus, 1e-300))

    res = integrate(integrand, 0.0, 2 * math.pi, DEFAULT_TOL, bps)
    return mahler._from_log(res.value / (2 * math.pi), res.error / (2 * math.pi),
                            "jensen", res.panels)


@pytest.mark.parametrize("spec", [
    (9, 4, -0.5, -0.5),  # P(1) = 0: a zero at the endpoint 0
    (3, 1, -3, 2),  # (z - 1)^2 (z + 2): a double zero at 0
    (7, 2, 0.5, 0.5),  # P(-1) = 0: a zero at the endpoint pi
    (6, 2, -3, 2),  # (z^2 - 1)^2 (z^2 + 2): double zeros at 0 and pi
    (8, 3, 3, 2),  # P(-1) = 0 on the boundary |a| - |b| = 1
    (31, 10, -2, 1),  # the boundary, with P(1) = 0
    (60, 17, 3, 2),  # the boundary
    (120, 37, 2.244623910109541, 2.110423599145506),  # close dips
    (240, 151, -1.827, -0.827),
    (240, 119, 3, -1),
], ids=str)
def test_measure_jensen_half_circle_matches_the_full_circle(spec):
    spec = TrinomialSpec(*spec)
    half, full = measure_jensen(spec), _jensen_full_circle(spec)
    assert abs(half.value - full.value) <= half.error_bound + full.error_bound


@pytest.mark.parametrize("a, b, hi", [
    (3, 1, math.pi), (-2.5, 0.5, math.pi), (3 + 0j, 1.0, math.pi),
    (3 + 1j, 1, 2 * math.pi), (3, 1j, 2 * math.pi), (0.8, 0.7j, 2 * math.pi),
], ids=str)
def test_measure_jensen_takes_the_half_circle_for_real_coefficients(a, b, hi, monkeypatch):
    spans = []

    def spy(f, lo, hi, tol, breakpoints=()):
        spans.append((lo, hi))
        return integrate(f, lo, hi, tol, breakpoints)

    monkeypatch.setattr(mahler, "integrate", spy)
    measure_jensen(TrinomialSpec(30, 7, a, b))
    assert spans == [(0.0, hi)]


def test_measure_jensen_complex_zero_imaginary_parts_are_real():
    assert measure_jensen(TrinomialSpec(60, 23, 3 + 0j, 1)) == measure_jensen(
        TrinomialSpec(60, 23, 3, 1))


@pytest.mark.parametrize("spec", [(30, 7, 2.000000001, 1), (7, 3, 1e300, 1e300)],
                         ids=["near-tangent", "huge"])
def test_circle_breakpoints_closed_form_edges(spec):
    spec = TrinomialSpec(*spec)
    n, ra, rb = spec.n, abs(spec.a), abs(spec.b)
    uniform = set(np.linspace(0.0, 2 * math.pi, max(9, n + 1))[1:-1].tolist())
    dips = np.array([t for t in mahler._circle_breakpoints(spec) if t not in uniform])
    assert dips.size
    # ||e^int + b| - |a|| over max(1, |a|) sits at its minimum over the circle,
    # which is 0 unless |c| > 1; scaling first keeps |a|^2 out of the check
    s = max(1.0, ra)
    gap = np.abs(np.abs(np.exp(1j * n * dips) / s + spec.b / s) - ra / s)
    closest = max(0.0, ra / s - 1 / s - rb / s, abs(1 / s - rb / s) - ra / s)
    assert np.all(gap - closest <= 1e-12)
    jensen = measure_jensen(spec)
    assert math.isfinite(jensen.value) and math.isfinite(jensen.error_bound)
    rs = all_roots(spec)
    if rs.certified:
        roots = measure_from_root_set(rs)
        assert abs(jensen.value - roots.value) <= jensen.error_bound + roots.error_bound


def test_cross_method_agreement_random():
    rng = random.Random(12345)
    for _ in range(200):
        spec = random_spec(rng)
        mr = measure_from_roots(spec).value
        mj = measure_jensen(spec).value
        assert abs(mr - mj) <= 1e-6, spec
        if abs(spec.a) - abs(spec.b) >= 1 and spec.gcd_mn == 1:
            ms = series_measure(spec.n, spec.m, spec.a, spec.b).value
            assert abs(mr - ms) <= 1e-6, spec


# -------------------------------------------------------- house

def test_house_examples():
    assert house(TrinomialSpec(3, 1, -1, -1)) == pytest.approx(THETA0, abs=1e-10)
    assert house(IntPolynomial.of([-2, 0, 0, 0, 0, 1])) == pytest.approx(2 ** 0.2, abs=1e-10)
    assert house(IntPolynomial.of([-1, -2, 0, 1])) == pytest.approx((1 + 5**0.5) / 2, abs=1e-10)


# -------------------------------------------------------- limit regimes

def test_limit_case_examples():
    assert limit_case(3, 1).case is LimitRegime.DOMINANT_A
    c = limit_case(1, 1)
    assert c.case is LimitRegime.OSCILLATORY
    assert c.gamma == pytest.approx(2 * math.pi / 3, abs=1e-12)
    assert limit_case(0.4, 0.5).case is LimitRegime.SUB_UNIT
    assert limit_case(1, 3).case is LimitRegime.DOMINANT_B


def test_limit_case_partitions_plane(rng):
    for _ in range(300):
        a = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        b = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        if a == 0 or b == 0:
            continue
        c = limit_case(a, b)
        ra, rb = abs(a), abs(b)
        matches = [
            ra - rb >= 1,
            rb - ra >= 1,
            ra + rb <= 1,
            abs(ra - rb) < 1 < ra + rb,
        ]
        assert sum(matches) == 1
        expected = [LimitRegime.DOMINANT_A, LimitRegime.DOMINANT_B,
                    LimitRegime.SUB_UNIT, LimitRegime.OSCILLATORY][matches.index(True)]
        assert c.case is expected
        if c.case is LimitRegime.OSCILLATORY:
            assert 0 < c.gamma <= math.pi


def test_limit_measure_examples():
    assert limit_measure(3, 1).value == 3.0
    assert limit_measure(0.4, 0.5).value == 1.0
    assert limit_measure(1, 3).value == 3.0
    # two-variable measure of 1 + x + y
    assert limit_measure(1, 1).value == pytest.approx(1.381356, abs=1e-5)


def test_limit_measure_matches_large_n():
    lim = limit_measure(2, 2).value  # oscillatory: ||a|-|b|| = 0 < 1 < 4
    big = measure_from_roots(TrinomialSpec(301, 1, 2, 2)).value
    assert abs(lim - big) < 1e-2


# -------------------------------------------------------- series

def test_series_measure_examples():
    ref = measure_from_roots(TrinomialSpec(5, 2, 3, 1)).value
    assert series_measure(5, 2, 3, 1).value == pytest.approx(ref, abs=1e-8)
    # complex-sign handling through Re(b^(-km) (b/a)^(kn)) with both negative
    ref = measure_from_roots(TrinomialSpec(4, 1, -3, -1)).value
    assert series_measure(4, 1, -3, -1).value == pytest.approx(ref, abs=1e-8)


def test_series_first_term_large_a():
    r = series_measure(3, 1, 100, 1)
    # k = 1 displayed summand: (1/1)(-1)^3 C(2,0) Re(100^-3) = -1e-6
    assert r.terms[0].closed_form == pytest.approx(-1e-6, rel=1e-12)
    # so log M = log 100 + 1e-6 - O(1e-11) tail
    assert r.log_value - math.log(100) == pytest.approx(1e-6, abs=1e-10)


def test_series_complex_coefficients():
    # genuinely complex (a, b) exercise the phase factor of Re(b^-km (b/a)^kn)
    rng = random.Random(5150)
    cases = 0
    while cases < 20:
        n = rng.randint(2, 12)
        m = rng.randint(1, n - 1)
        if math.gcd(m, n) != 1:
            continue
        a = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
        b = complex(rng.uniform(-1.2, 1.2), rng.uniform(-1.2, 1.2))
        if b == 0 or abs(a) - abs(b) < 1.05:
            continue
        spec = TrinomialSpec(n, m, a, b)
        ref = measure_from_roots(spec).value
        assert series_measure(n, m, a, b).value == pytest.approx(ref, abs=1e-8)
        assert measure_jensen(spec).value == pytest.approx(ref, abs=1e-8)
        cases += 1


def test_residue_complex_coefficients():
    rng = random.Random(616)
    cases = 0
    while cases < 8:
        n = rng.randint(3, 7)
        m = rng.randint(1, n - 1)
        if math.gcd(m, n) != 1:
            continue
        a = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
        b = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        if b == 0 or abs(a) - abs(b) < 1.05:
            continue
        for k in (1, 2, 3, 4):
            t = residue_term(k, n, m, a, b, with_quadrature=True)
            assert t.closed_form == pytest.approx(
                -t.i_k.real / (2 * math.pi * k), abs=1e-9)
        cases += 1


def test_measure_jensen_budget_propagates(monkeypatch):
    from trinotool import quadrature
    from trinotool.errors import QuadratureBudgetExceeded

    monkeypatch.setattr(quadrature, "_MAX_EVALS", 200)
    with pytest.raises(QuadratureBudgetExceeded):
        measure_jensen(TrinomialSpec(2, 1, 1, 1), tol=0.0)


@pytest.mark.parametrize("tol", [math.nan, -1.0, math.inf])
def test_tol_outside_zero_to_infinity_is_refused(tol):
    # tol = 0 stays legal: it refines until the budget is spent
    for call in (lambda: integrate(np.log, 0.0, 1.0, tol=tol),
                 lambda: measure_jensen(TrinomialSpec(5, 2, 3, 1), tol=tol),
                 lambda: series_measure(5, 2, 3, 1, tol=tol)):
        with pytest.raises(ValueError, match="tol must be finite and >= 0"):
            call()


def test_series_preconditions():
    with pytest.raises(CoprimalityViolated):
        series_measure(4, 2, 3, 1)
    with pytest.raises(DominanceViolated):
        series_measure(3, 1, -1, -1)
    with pytest.raises(ValueError):
        series_measure(3, 4, 3, 1)


def test_from_log_bound_keeps_nan_and_adds_rounding_floor():
    # a NaN log error is a defect to report, not an infinite bound to hide it
    assert math.isnan(mahler._from_log(0.0, math.nan, "roots", 3).error_bound)
    assert mahler._from_log(0.0, 1.0, "roots", 3).error_bound == math.inf
    r = mahler._from_log(math.log(1e12), 0.0, "series", 1)
    assert r.value == pytest.approx(1e12, rel=1e-15)
    assert r.error_bound == pytest.approx(1e12 * 10 * 2.0**-52 * math.log(1e12), rel=1e-12)


def test_series_divergence_at_unit_limit_ratio():
    # |a| = n/m and |b| = (n-m)/m give rho = 1: the terms decay only like
    # k^(-3/2), and 10 000 of them gave 1.00566 +- 0.00189 for M(z^2 - 2z + 1) = 1
    for spec in [(2, 1, 2, 1), (2, 1, -2, 1), (3, 1, -3, 2)]:
        with pytest.raises(DivergenceDetected):
            series_measure(*spec)


def test_series_term_envelope_decreasing():
    r = series_measure(7, 2, 4, 1)
    mags = [abs(t.closed_form) for t in r.terms if t.closed_form != 0.0]
    assert all(x >= y for x, y in zip(mags[2:], mags[3:]))


def test_series_short_cut_bound_covers_error(monkeypatch):
    # the first term ratios of z^5 + 3z^2 + 1 are still rising toward rho, so a
    # tail taken from the last observed ratio under-covered at K = 2 and 3 terms
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        true = float(mpmath.fprod(max(1, abs(z)) for z in mpmath.polyroots([1, 0, 0, 3, 0, 1])))
    for k in (1, 2, 3):
        monkeypatch.setattr(mahler, "_MAX_TERMS", k)
        r = series_measure(5, 2, 3, 1)
        assert len(r.terms) == k
        assert abs(r.value - true) <= r.error_bound < 1e-2


_HUGE = 10**400  # a legal exact int that no float can hold


@pytest.mark.parametrize("route", [
    lambda: limit_measure(_HUGE, 1),
    lambda: house(TrinomialSpec(5, 2, _HUGE, 1)),
    lambda: measure_from_roots(TrinomialSpec(5, 2, _HUGE, 1)),
    lambda: measure_jensen(TrinomialSpec(5, 2, _HUGE, 1)),
    lambda: series_measure(5, 2, _HUGE, 1),
    lambda: classify_real_roots(normalize(5, 2, _HUGE, 1)[0]),
], ids=["limit", "house", "roots", "jensen", "series", "classify"])
def test_float_routes_refuse_ints_too_large_for_float(route):
    with pytest.raises(ValueError, match="too large for floating point"):
        route()


# -------------------------------------------------------- residue terms

def test_residue_term_zero_when_m_does_not_divide_k():
    t = residue_term(3, 5, 2, 3, 1, with_quadrature=True)
    assert t.closed_form == 0.0
    assert abs(t.i_k) < 1e-9


def test_residue_term_hand_value():
    # I_1 for (n, m, a, b) = (3, 1, 2, 1) equals 2*pi*(-1)^3*C(2,0)*2^-3 = -pi/4
    t = residue_term(1, 3, 1, 2, 1, with_quadrature=True)
    assert t.i_k.real == pytest.approx(-math.pi / 4, abs=1e-9)
    assert abs(t.i_k.imag) < 1e-9
    assert t.closed_form == pytest.approx(1 / 8, rel=1e-12)


def test_residue_term_oracle_agreement():
    t = residue_term(2, 5, 2, 3, 1, with_quadrature=True)
    assert t.closed_form == pytest.approx(-t.i_k.real / (4 * math.pi), abs=1e-9)


def test_residue_terms_sum_to_series():
    # raw-index contributions collapse onto the displayed series at k = j*m
    n, m, a, b = 5, 2, 3, 1
    total = sum(residue_term(k, n, m, a, b).closed_form for k in range(1, 41))
    r = series_measure(n, m, a, b)
    assert math.log(abs(a)) + total == pytest.approx(r.log_value, abs=1e-10)


def test_config_parameters_only_where_callers_set_them():
    from trinotool import bounds, cli, factor, polycore, quadrature, scan

    with_tol = set()
    for module in (bounds, cli, factor, mahler, polycore, quadrature, scan):
        for name, fn in inspect.getmembers(module, inspect.isfunction):
            if fn.__module__ != module.__name__:
                continue
            params = inspect.signature(fn).parameters
            assert "config" not in params, name
            if "tol" in params:
                with_tol.add(fn)
    assert with_tol == {quadrature.integrate, measure_jensen, series_measure}


# -------------------------------------------------------- global invariants

def test_multiplicativity(rng):
    for _ in range(100):
        p = IntPolynomial.of([rng.randint(-5, 5) for _ in range(rng.randint(1, 5))] + [rng.randint(1, 4)])
        q = IntPolynomial.of([rng.randint(-5, 5) for _ in range(rng.randint(1, 5))] + [rng.randint(1, 4)])
        if p.degree < 1 or q.degree < 1 or p.coeffs[0] == 0 or q.coeffs[0] == 0:
            continue
        mp = measure_from_roots(p).value
        mq = measure_from_roots(q).value
        mpq = measure_from_roots(p * q).value
        assert mpq == pytest.approx(mp * mq, rel=1e-8)


def test_smyth_bound_non_reciprocal(rng):
    for _ in range(150):
        spec = random_spec(rng, n_max=14, a_abs_max=5)
        dense = to_dense(spec)
        if is_reciprocal(dense):
            continue
        assert measure_from_roots(dense).value >= THETA0 - 1e-9, spec


def test_scaling_invariance(rng):
    for _ in range(60):
        spec = random_spec(rng, n_max=10, a_abs_max=6)
        base = measure_from_roots(spec).value
        for k in (2, 3):
            scaled = TrinomialSpec(k * spec.n, k * spec.m, spec.a, spec.b)
            assert measure_from_roots(scaled).value == pytest.approx(base, abs=1e-8)


def test_dominant_b_exact_for_every_n(rng):
    for _ in range(100):
        n, m = rng.choice(coprime_pairs(16))
        a = rng.choice([-1, 1]) * rng.randint(1, 3)
        b = rng.choice([-1, 1]) * (abs(a) + rng.randint(1, 5))
        assert measure_from_roots(TrinomialSpec(n, m, a, b)).value == pytest.approx(abs(b), abs=1e-9)


def test_convergence_to_dominant_a_limit():
    # the gap |M - 3| shrinks with n until it hits the double-precision floor
    gaps = [abs(measure_from_roots(TrinomialSpec(n, 1, 3, 1)).value - 3.0)
            for n in (10, 20, 40, 80)]
    for g0, g1 in zip(gaps, gaps[1:]):
        assert g1 < g0 or g1 < 1e-12
    assert all(g >= 0 for g in gaps)
