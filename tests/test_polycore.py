import cmath
import math
import random
import sys
import warnings

import numpy as np
import pytest

from conftest import THETA0, bisect_root, coprime_pairs, expand_from_roots
from trinotool import polycore
from trinotool.errors import (
    ClassificationMismatch,
    NonIntegerCoefficient,
    NotRepresentable,
    ParityViolated,
    TrinotoolError,
)
from trinotool.polycore import (
    FamilyForm,
    IntPolynomial,
    RootSet,
    TrinomialSpec,
    all_roots,
    classify_real_roots,
    evaluate,
    is_reciprocal,
    normalize,
    to_dense,
)

PHI = (1 + math.sqrt(5)) / 2  # roots of z^2 - z - 1, by the quadratic formula
PHI_CONJ = (1 - math.sqrt(5)) / 2
EPS4 = 4 * sys.float_info.epsilon  # relative bound on a real root bisected to adjacent doubles


# ---------------------------------------------------------------- types

def test_trinomial_spec_validates():
    with pytest.raises(ValueError):
        TrinomialSpec(3, 3, 1, 1)
    with pytest.raises(ValueError):
        TrinomialSpec(3, 0, 1, 1)
    with pytest.raises(ValueError):
        TrinomialSpec(3, 1, 0, 1)
    with pytest.raises(ValueError):
        TrinomialSpec(3, 1, 1, 0)


def test_trinomial_gcd_accessor():
    assert TrinomialSpec(6, 4, 1, 1).gcd_mn == 2


def test_family_form_parity():
    FamilyForm("R", 4, 1, 3.0)
    FamilyForm("S", 5, 2, 2.0)
    FamilyForm("T", 6, 1, 2.0)
    with pytest.raises(ParityViolated):
        FamilyForm("R", 4, 2, 3.0)  # m even
    with pytest.raises(ParityViolated):
        FamilyForm("R", 5, 1, 3.0)  # n odd
    with pytest.raises(ParityViolated):
        FamilyForm("S", 4, 1, 3.0)  # n even
    with pytest.raises(ValueError):
        FamilyForm("T", 4, 1, -1.0)  # a <= 0
    with pytest.raises(ValueError):
        FamilyForm("X", 4, 1, 3.0)


@pytest.mark.parametrize("a", [3 + 1j, 3 + 0j])
def test_family_form_refuses_a_complex_a(a):
    # a is real in every R/S/T result, so a complex one is an input error
    with pytest.raises(ValueError, match="a must be real"):
        FamilyForm("R", 4, 1, a)


def test_family_form_as_trinomial():
    assert FamilyForm("R", 4, 1, 3).as_trinomial() == TrinomialSpec(4, 1, -3, 1)
    assert FamilyForm("S", 3, 1, 2).as_trinomial() == TrinomialSpec(3, 1, 2, -1)
    assert FamilyForm("T", 3, 1, 2).as_trinomial() == TrinomialSpec(3, 1, -2, -1)

    # 10**20 + 1 is not a double: a trip through float would move it by one
    big = 10**20 + 1
    assert FamilyForm("R", 6, 1, big).as_trinomial() == TrinomialSpec(6, 1, -big, 1)
    assert FamilyForm("S", 5, 2, big).as_trinomial() == TrinomialSpec(5, 2, big, -1)
    assert FamilyForm("T", 5, 2, big).as_trinomial() == TrinomialSpec(5, 2, -big, -1)
    assert normalize(5, 2, big, 1) == (FamilyForm("T", 5, 2, big), True)


def test_int_polynomial_basics():
    p = IntPolynomial.of([1, 0, 0, 2, 0, 0, 0])  # trims leading zeros
    assert p.coeffs == (1, 0, 0, 2)
    assert p.degree == 3
    assert p(2) == 17
    q = IntPolynomial.of([-1, 1]) * IntPolynomial.of([1, 1])
    assert q.coeffs == (-1, 0, 1)
    with pytest.raises(NonIntegerCoefficient):
        IntPolynomial.of([0.5, 1])


# ---------------------------------------------------------------- evaluate

def test_evaluate_examples():
    assert evaluate(TrinomialSpec(3, 1, -1, -1), 1) == -1
    assert evaluate(TrinomialSpec(2, 1, 2, 1), -1) == 0
    # real zero of z^3 - z - 1 to the printed precision
    assert abs(evaluate(TrinomialSpec(3, 1, -1, -1), 1.324717)) < 1e-5


def test_evaluate_matches_dense_horner(rng):
    for n_lo, n_hi in ((2, 24), (25, 300)):
        for _ in range(100):
            n = rng.randint(n_lo, n_hi)
            m = rng.randint(1, n - 1)
            a = rng.choice([x for x in range(-6, 7) if x != 0])
            b = rng.choice([-1, 1])
            spec = TrinomialSpec(n, m, a, b)
            dense = to_dense(spec)
            z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            assert evaluate(spec, z) == pytest.approx(dense(z), rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------- to_dense

def test_to_dense_examples():
    assert to_dense(TrinomialSpec(3, 1, -1, -1)).coeffs == (-1, -1, 0, 1)
    assert to_dense(TrinomialSpec(8, 3, 3, -1)).coeffs == (-1, 0, 0, 3, 0, 0, 0, 0, 1)
    with pytest.raises(NonIntegerCoefficient):
        to_dense(TrinomialSpec(2, 1, 0.5, 1))


def test_to_dense_has_three_nonzero_terms(rng):
    for _ in range(50):
        n = rng.randint(2, 30)
        m = rng.randint(1, n - 1)
        p = to_dense(TrinomialSpec(n, m, rng.randint(1, 9), -1))
        assert len(p.nonzero_terms()) == 3


# ---------------------------------------------------------------- normalize

def test_normalize_examples():
    assert normalize(4, 1, -3, 1) == (FamilyForm("R", 4, 1, 3), False)
    assert normalize(3, 1, 2, -1) == (FamilyForm("S", 3, 1, 2), False)
    assert normalize(4, 1, 3, 1) == (FamilyForm("R", 4, 1, 3), True)


def test_normalize_not_representable_for_even_even():
    # z -> -z fixes both exponents, and no form has +a z^m with b = +1
    with pytest.raises(NotRepresentable):
        normalize(4, 2, 3, -1)


def _valid_forms(a_values):
    for n, m in coprime_pairs(30):
        for a in a_values:
            for family in "RST":
                try:
                    yield FamilyForm(family, n, m, a)
                except ParityViolated:
                    pass


def test_normalize_round_trips_every_form():
    for form in _valid_forms((2, 3, 7)):
        n, m = form.n, form.m
        sa, sb = form.signs()
        assert normalize(n, m, sa * form.a, sb) == (form, False)
        # the z -> -z image, times (-1)^n to stay monic
        image = (sa * form.a * (-1) ** (n + m), sb * (-1) ** n)
        assert normalize(n, m, *image) == (form, True)


def test_normalize_preserves_house(rng):
    from trinotool.mahler import house

    for _ in range(80):
        n, m = rng.choice(coprime_pairs(14))
        a = rng.choice([x for x in range(-9, 10) if x != 0])
        b = rng.choice([-1, 1])
        form, flipped = normalize(n, m, a, b)
        h_in = house(TrinomialSpec(n, m, a, b))
        h_out = house(form.as_trinomial())
        assert h_in == pytest.approx(h_out, abs=1e-10)
        # the substitution parity is reported faithfully
        sa, sb = form.signs()
        if not flipped:
            assert sa * form.a == a and sb == b


# ---------------------------------------------------------------- all_roots

def test_all_roots_contains_smallest_pisot_root():
    # oracle: bisection on z^3 - z - 1 over [1, 2]
    theta = bisect_root(lambda x: x**3 - x - 1, 1.0, 2.0)
    assert theta == pytest.approx(THETA0, abs=1e-12)
    rs = all_roots(TrinomialSpec(3, 1, -1, -1))
    assert rs.certified and rs.residual_bound < 1e-10
    assert min(abs(r - theta) for r in rs.roots) < 1e-10


def test_all_roots_roots_of_unity():
    rs = all_roots(IntPolynomial.of([-1, 0, 0, 0, 1]))
    expected = [1, -1, 1j, -1j]
    for e in expected:
        assert min(abs(r - e) for r in rs.roots) < 1e-10


def test_all_roots_derived_cubic():
    # z^3 - 2z - 1 = (z + 1)(z^2 - z - 1), solved by hand
    rs = all_roots(IntPolynomial.of([-1, -2, 0, 1]))
    for e in (PHI, PHI_CONJ, -1.0):
        assert min(abs(r - e) for r in rs.roots) < 1e-10


def test_all_roots_degree_one_and_zero_roots():
    rs = all_roots(IntPolynomial.of([6, 3]))
    assert rs.roots == (-2 + 0j,)
    rs = all_roots(IntPolynomial.of([0, 0, 1, 1]))  # z^2 (z + 1)
    assert sorted(r.real for r in rs.roots) == pytest.approx([-1, 0, 0])
    rs = all_roots(IntPolynomial.of([0, 0, 0, -2, 0, 0, 0, 0, 0, 0, 1]))  # z^3 (z^7 - 2)
    assert rs.roots.count(0j) == 3
    nonzero = [r for r in rs.roots if r != 0]
    assert len(nonzero) == 7
    assert [abs(r) for r in nonzero] == pytest.approx([2 ** (1 / 7)] * 7, abs=1e-12)
    with pytest.raises(ValueError):
        all_roots(IntPolynomial.of([5]))


def test_all_roots_round_trip(rng):
    # re-expanding prod (z - root) must reproduce the coefficients
    for _ in range(200):
        deg = rng.randint(1, 18)
        coeffs = [rng.randint(-9, 9) for _ in range(deg)] + [1]
        p = IntPolynomial.of(coeffs)
        if p.degree < 1:
            continue
        rs = all_roots(p)
        assert len(rs) == p.degree
        expanded = expand_from_roots(rs.roots)
        scale = 1.0 + max(abs(c) for c in p.coeffs)
        for k, c in enumerate(p.coeffs):
            assert abs(expanded[k] - c) <= 1e-6 * scale


def test_all_roots_trinomial_matches_dense_input():
    # dense input starts on one generic circle.  A trinomial off the boundary
    # starts on its Newton-polygon root circles: |a| > |b| + 1 on the exact
    # proto-roots, |a| < |b| + 1 (the second list) on one or two rings.  On
    # the boundary |a| = |b| + 1 (a = +/-2, b = +/-1) both start on the
    # generic circle, so those entries only check that the two inputs agree
    cases = [(a, b) for a in (2, -2, 3, -3, 5) for b in (1, -1)]
    cases += [(a, b) for a in (1, -1, 2, -2) for b in (3, -3, 4, -5)]
    for n, m in coprime_pairs(30):
        for a, b in cases:
            spec = TrinomialSpec(n, m, a, b)
            unmatched = list(all_roots(to_dense(spec)).roots)
            for r in all_roots(spec).roots:
                nearest = min(unmatched, key=lambda s: abs(s - r))
                assert abs(nearest - r) <= 1e-9 * max(1.0, abs(r)), (spec, r)
                unmatched.remove(nearest)


@pytest.mark.parametrize("n, m, a, b", [
    (2, 1, -2, 3),  # real, complex roots: real seeds would stay real
    (2, 1, -3, 5),
    (2, 1, 2 - 1j, 5),  # (m, log|a|) on the chord with m = n - m: the
    (12, 6, 2 - 1j, 5),  # two rings must not coincide
])
def test_all_roots_hull_seeds_leave_the_real_axis_and_the_chord(n, m, a, b):
    rs = all_roots(TrinomialSpec(n, m, a, b))
    assert rs.certified and all(np.isfinite(r) for r in rs.roots)
    dense = np.zeros(n + 1, dtype=complex)  # descending, for numpy.roots
    dense[0], dense[n - m], dense[n] = 1, a, b
    unmatched = list(np.roots(dense))
    for r in rs.roots:
        nearest = min(unmatched, key=lambda s: abs(s - r))
        assert abs(nearest - r) <= 1e-9 * max(1.0, abs(r)), r
        unmatched.remove(nearest)


@pytest.mark.parametrize("n, m, a, b, most", [
    (240, 77, 0.5, 4, 10),  # below the chord: one ring
    (240, 151, 0.3, 0.4, 10),
    (240, 119, 1 + 1j, 2 - 2j, 10),
    (240, 77, 2.5, 3, 20),  # above the chord with |a| < |b| + 1: two rings
])
def test_all_roots_hull_seeds_converge_fast(n, m, a, b, most):
    # on one generic circle these took 84, 56, 57 and 48 iterations
    rs = all_roots(TrinomialSpec(n, m, a, b))
    assert rs.certified and rs.iterations <= most


def test_initial_points_follow_the_newton_polygon():
    def moduli(n, m, a, b):
        spec = TrinomialSpec(n, m, a, b)
        return sorted(abs(z) for z in polycore._initial_points(spec, [], n))

    # |a| > |b| + 1 and above the chord with |a| < |b| + 1: m seeds on
    # (|b|/|a|)^(1/m), n - m on |a|^(1/(n-m))
    for a, b in ((5, 2), (2.5, 3)):
        assert moduli(9, 4, a, b) == pytest.approx(
            [(b / a) ** (1 / 4)] * 4 + [a ** (1 / 5)] * 5)
    # on or below the chord: n seeds on |b|^(1/n)
    assert moduli(9, 4, 0.5, 4) == pytest.approx([4 ** (1 / 9)] * 9)
    assert moduli(8, 4, 2, 4) == pytest.approx([4 ** (1 / 8)] * 8)
    # the boundary |a| = |b| + 1 and dense input: the generic circle
    for p in (TrinomialSpec(9, 4, 3, 2), to_dense(TrinomialSpec(9, 4, 5, 2))):
        _, coeffs = polycore._terms(p)
        assert len(set(abs(z) for z in polycore._initial_points(p, coeffs, 9))) > 2


def _proto_root_residuals(n, m, a, b):
    """Largest relative residuals of the first m seeds in a z^m + b and of
    the other n - m seeds in z^(n-m) + a."""
    seeds = [complex(z) for z in polycore._initial_points(TrinomialSpec(n, m, a, b), [], n)]
    return (max(abs(a * w ** m + b) for w in seeds[:m]) / abs(b),
            max(abs(w ** (n - m) + a) for w in seeds[m:]) / abs(a))


@pytest.mark.parametrize("n, m, a, b", [
    (24, 5, -4, 1),
    (120, 41, -9, 1),
    (240, 7, 1e15, 1),
    (30, 7, 5, 1e-8),
    (31, 30, 2 + 3j, -0.5j),
    (240, 77, 7.5, 0.3 + 0.2j),
    (7, 3, 1e300, 1),
])
def test_dominant_a_seeds_are_the_proto_roots(n, m, a, b):
    # |a| > |b| + 1: both rings sit at the angles of the proto-roots
    assert max(_proto_root_residuals(n, m, a, b)) <= 1e-12


@pytest.mark.parametrize("b", [1e-300, 0.3, 1.0, 1e300])
def test_dominant_a_is_above_the_chord_at_its_edge(b):
    # the least float |a| > |b| + 1, or 2|b| where |b| + 1 rounds to |b|,
    # still takes the two rings above the chord, at the proto-roots
    a = 2 * b if b + 1 == b else math.nextafter(b + 1, math.inf)
    for n, m in ((3, 1), (3, 2), (240, 7), (240, 233)):
        assert max(_proto_root_residuals(n, m, a, b)) <= 1e-12, (n, m)


def test_dominant_a_seeds_converge_fast():
    # 3 + 3 + 4 + 3 iterations; with the rings turned by the fixed offset
    # instead of set at the proto-roots, 9 + 17 + 9 + 5
    specs = [(24, 5, -4, 1), (120, 41, -9, 1), (30, 7, 5.5, -2.25), (240, 77, 7.5, 0.3 + 0.2j)]
    assert sum(all_roots(TrinomialSpec(*s)).iterations for s in specs) <= 15


def test_all_roots_deterministic():
    p = IntPolynomial.of([1, 0, 3, 0, 0, 1])
    assert all_roots(p) == all_roots(p)


def test_all_roots_convergence_failure_reports_best_iterate(monkeypatch):
    from trinotool import polycore
    from trinotool.errors import ConvergenceFailure

    monkeypatch.setattr(polycore, "_MAX_ITER", 1)
    monkeypatch.setattr(polycore, "_CERT_TOL", 1e-14)
    with pytest.raises(ConvergenceFailure) as err:
        all_roots(IntPolynomial.of([1, 3, 0, 0, 2, 1]))
    assert len(err.value.roots) == 5
    assert err.value.residual_bound > 1e-14


@pytest.mark.parametrize("spec", [
    (7, 3, 1e300, 1), (60, 59, -10**6, -1),
    # the overflowing specs of the measure benchmark, seeds 3001-3010
    (30, 29, -10**15, -1), (240, 233, 10**14, -1), (30, 29, 10**12, 1), (60, 59, -10**8, 1),
    (60, 59, -10**14, 1), (120, 119, -10**7, -1), (60, 59, 10**6, 1),
])
def test_all_roots_overflow_ends_early_as_all_nan(spec):
    # |z|^n leaves the double range: the solve stops at the first all-NaN
    # step, silently, and reports an uncertified set with a NaN bound
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rs = all_roots(TrinomialSpec(*spec))
    assert len(rs) == spec[0] and all(cmath.isnan(r) for r in rs.roots)
    assert math.isnan(rs.residual_bound) and not rs.certified
    assert rs.iterations <= 3


@pytest.mark.parametrize("where", range(4))
def test_root_set_extremes_are_nan_when_any_root_is(where):
    # Python's max and min keep a NaN only when it comes first; three roots
    # near 1e-100 and one NaN root, at every position, must give NaN both ways
    roots = [complex(1e-100, k * 1e-101) for k in range(3)]
    roots.insert(where, complex(math.nan, math.nan))
    rs = RootSet(roots=tuple(roots), residual_bound=0.0, certified=True, iterations=1)
    assert math.isnan(rs.max_modulus()) and math.isnan(rs.min_modulus())
    finite = RootSet(roots=(2j, -0.5, 1 + 1j), residual_bound=0.0, certified=True, iterations=1)
    assert (finite.max_modulus(), finite.min_modulus()) == (2.0, 0.5)


# ------------------------------------------------- classify_real_roots

def test_classify_r413_against_bisection_oracle():
    r1 = bisect_root(lambda x: x**4 - 3 * x + 1, 1.0, 2.0)
    r2 = bisect_root(lambda x: x**4 - 3 * x + 1, 0.0, 1.0)
    assert r1 == pytest.approx(1.3074861009619814, abs=1e-12)
    got = classify_real_roots(FamilyForm("R", 4, 1, 3))
    assert tuple(got) == ("r1", "r2")
    assert got["r1"] == pytest.approx(r1, rel=EPS4, abs=0)
    assert got["r2"] == pytest.approx(r2, rel=EPS4, abs=0)
    assert 1 < got["r1"] < 2 and 0 < got["r2"] < 1


def test_classify_t312_explicit_factorization():
    # z^3 - 2z - 1 = (z + 1)(z^2 - z - 1)
    got = classify_real_roots(FamilyForm("T", 3, 1, 2))
    assert got["t1"] == pytest.approx(PHI, rel=EPS4, abs=0)
    assert got["t2"] == pytest.approx(PHI_CONJ, rel=EPS4, abs=0)
    assert got["t3"] == -1.0  # boundary root, exact


def test_classify_s323_three_roots():
    got = classify_real_roots(FamilyForm("S", 3, 2, 3))
    assert tuple(got) == ("s1", "s2", "s3")
    assert got["s3"] <= -1
    # z = y - 1 gives y^3 - 3y + 1, so the roots are 2 cos(2k pi/9) - 1 for
    # k = 1, 7, 4; the doubles nearest them, from mpmath at 40 digits
    assert got["s1"] == pytest.approx(0.532088886237956, rel=EPS4, abs=0)
    assert got["s2"] == pytest.approx(-0.6527036446661393, rel=EPS4, abs=0)
    assert got["s3"] == pytest.approx(-2.879385241571817, rel=EPS4, abs=0)


def test_classify_boundary_a_equals_two():
    got = classify_real_roots(FamilyForm("R", 4, 1, 2))
    assert got["r1"] == 1.0  # exact boundary root
    assert 0 < got["r2"] < 1
    # m > n/2 places the boundary root at the inner label instead
    got = classify_real_roots(FamilyForm("S", 3, 2, 2))
    assert got["s2"] == -1.0
    assert got["s3"] == pytest.approx(-PHI, rel=EPS4, abs=0)
    got = classify_real_roots(FamilyForm("T", 5, 3, 2))
    assert got["t2"] == -1.0
    assert got["t3"] < -1
    # degenerate double root: z^2 - 2z + 1
    got = classify_real_roots(FamilyForm("R", 2, 1, 2))
    assert tuple(got.values()) == (1.0, 1.0)


def test_classify_t_family_case_split():
    assert tuple(classify_real_roots(FamilyForm("T", 4, 1, 3))) == ("t1", "t2")
    assert tuple(classify_real_roots(FamilyForm("T", 5, 2, 3))) == ("t1",)
    assert tuple(classify_real_roots(FamilyForm("T", 5, 3, 3))) == ("t1", "t2", "t3")


def test_classify_labels_are_descending_real_roots():
    for form in _valid_forms((2, 3, 7, 2.5)):
        got = classify_real_roots(form)
        values = tuple(got.values())
        assert all(x >= y for x, y in zip(values, values[1:])), form
        letter = form.family.lower()
        assert tuple(got) == tuple(f"{letter}{k}" for k in range(1, len(got) + 1))


def test_classify_overflow_to_nan_is_a_typed_error():
    # x^59 overflows to inf while x - 1e6 is exactly 0 at a bisection point
    with pytest.raises(TrinotoolError):
        classify_real_roots(FamilyForm("T", 60, 59, 1e6))
    # an overflow to -inf keeps its sign, and the bisection still converges
    got = classify_real_roots(FamilyForm("R", 52, 51, 1e6))
    assert got["r1"] == pytest.approx(1e6, rel=1e-12)
    assert got["r2"] == pytest.approx(0.7627, abs=1e-4)


def test_classify_rejects_invalid():
    with pytest.raises(ValueError):
        classify_real_roots(FamilyForm("T", 6, 2, 3))  # gcd > 1
    with pytest.raises(ValueError):
        classify_real_roots(FamilyForm("T", 3, 1, 1.5))  # a < 2


def _int_power(xs, k):
    """xs**k for an integer k >= 1 by repeated squaring on the array; numpy's
    elementwise power with a general integer exponent is several times slower."""
    acc = None
    base = xs
    while True:
        if k & 1:
            acc = base if acc is None else acc * base
        k >>= 1
        if not k:
            return acc
        base = base * base


def _grid_forms():
    """500 seeded forms at coprime n <= 30, with a kept off the a = 2 boundary
    where roots sit exactly at +/-1."""
    rng = random.Random(424242)
    samples = 0
    while samples < 500:
        n = rng.randint(3, 30)
        m = rng.randint(1, n - 1)
        if math.gcd(m, n) != 1:
            continue
        fam = rng.choice(["R", "S", "T"])
        if fam == "R" and (m % 2 == 0 or n % 2 == 1):
            continue
        if fam == "S" and n % 2 == 0:
            continue
        yield FamilyForm(fam, n, m, rng.uniform(2.05, 10.0))
        samples += 1


def test_classify_count_matches_grid_scan():
    # dense sign-change scan over [-1-a, 1+a] as an independent count oracle
    for f in _grid_forms():
        labelled = classify_real_roots(f)
        a = f.a
        xs = np.linspace(-1 - a, 1 + a, 300_000)
        sa, sb = f.signs()
        vals = _int_power(xs, f.m) * (_int_power(xs, f.n - f.m) + sa * a) + sb
        signs = np.sign(vals)
        changes = int(np.sum(signs[:-1] * signs[1:] < 0))
        assert changes == len(labelled), f


def _mp_real_roots(f):
    """The real roots of a family form in descending order, by
    mpmath.polyroots at 50 digits; numpy's roots are only its start points."""
    mpmath = pytest.importorskip("mpmath")
    sa, sb = f.signs()
    coeffs = [0] * (f.n + 1)  # descending degree, as both solvers take them
    coeffs[0], coeffs[f.n - f.m], coeffs[f.n] = 1, sa * f.a, sb
    with mpmath.workdps(50):
        # polyroots stops on an absolute correction below 1e-50, which roots
        # as large as 1e7 reach only with the extra digits
        roots = mpmath.polyroots(coeffs, extraprec=100, roots_init=list(np.roots(coeffs)))
        return sorted((r for r in roots if mpmath.im(r) == 0), reverse=True)


# roots near 1e-15 and up to 1e7, where any absolute stopping width is either
# far too coarse or never met, and two moderate forms
_HARD_FORMS = [FamilyForm("S", 3, 1, 1e15), FamilyForm("R", 4, 1, 1e14),
               FamilyForm("T", 4, 1, 1e13), FamilyForm("S", 5, 2, 1e20),
               FamilyForm("S", 3, 1, 1e6), FamilyForm("R", 4, 1, 3)]


def test_classify_labels_within_four_eps_of_mpmath():
    for f in [*_HARD_FORMS, *_grid_forms()]:
        got = classify_real_roots(f)
        truth = _mp_real_roots(f)
        assert len(truth) == len(got), f
        for (name, value), root in zip(got.items(), truth):
            assert abs(value - root) <= EPS4 * abs(root), (f, name, value, root)


def test_classified_roots_satisfy_their_intervals(rng):
    for _ in range(200):
        n = rng.randint(3, 24)
        m = rng.randint(1, n - 1)
        if math.gcd(m, n) != 1:
            continue
        fam = rng.choice(["R", "S", "T"])
        try:
            f = FamilyForm(fam, n, m, rng.uniform(2.05, 12.0))
        except ParityViolated:
            continue
        got = classify_real_roots(f)
        for name, value in got.items():
            # |f| at a root bisected to adjacent doubles scales with |f'| there
            sa, _ = f.signs()
            x, n, m, a = value, f.n, f.m, f.a
            dfdx = abs(x) ** (m - 1) * (
                abs(m * (x ** (n - m) + sa * a)) + (n - m) * abs(x) ** (n - m)
            )
            assert abs(evaluate(f.as_trinomial(), value)) <= 1e-9 * (1.0 + dfdx)
            if name in ("r1", "t1"):
                assert value >= 1
            elif name in ("r2", "s1"):
                assert 0 < value < 1
            elif name in ("s2", "t2"):
                assert -1 <= value < 0
            else:
                assert value <= -1


# ---------------------------------------------------------------- reciprocal

def test_is_reciprocal_examples():
    assert is_reciprocal(IntPolynomial.of([1, 3, 1]))
    assert not is_reciprocal(IntPolynomial.of([-1, -1, 0, 1]))
    # z^10 + z^9 - z^7 - z^6 - z^5 - z^4 - z^3 + z + 1 (measure 1.176280...)
    lehmer = IntPolynomial.of([1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1])
    assert is_reciprocal(lehmer)


def test_reciprocal_roots_closed_under_inversion(rng):
    for _ in range(40):
        half = [rng.randint(-4, 4) for _ in range(rng.randint(1, 5))]
        while half[0] == 0:
            half[0] = rng.randint(1, 4)
        mid = [rng.randint(-4, 4)] if rng.random() < 0.5 else []
        coeffs = half + mid + half[::-1]
        p = IntPolynomial.of(coeffs)
        if p.degree < 1 or p.coeffs != tuple(coeffs):
            continue
        assert is_reciprocal(p)
        rs = all_roots(p)
        # closure holds to the reported residual accuracy; multiple-root
        # clusters carry an honestly large bound
        tol = max(1e-6, 10 * rs.residual_bound)
        for r in rs.roots:
            inv = 1 / r
            assert min(abs(inv - s) for s in rs.roots) < tol
