import random
from itertools import chain, combinations
from math import factorial, isqrt, prod

import pytest

from conftest import coprime_pairs
from trinotool import factor
from trinotool.errors import CoprimalityViolated, GcdNotOne, InternalVerificationFailure
from trinotool.factor import (
    _FactorTree,
    _choose_prime,
    _gf_edf,
    _gf_factors,
    _gf_frobenius,
    _gf_gcd,
    _gf_is_squarefree,
    _gf_pow_mod,
    _is_prime,
    _mignotte_bound,
    _mod,
    _mod_divmod,
    _mod_mul,
    _mod_sub,
    _monic,
    factorize,
    integer_kth_root,
    is_irreducible,
    schinzel_conditions,
    threshold_irreducible,
)
from trinotool.polycore import IntPolynomial, TrinomialSpec, dense_mul, to_dense


def tri(n, m, a, b):
    return to_dense(TrinomialSpec(n, m, a, b))


# -------------------------------------------------------- integer roots

def test_integer_kth_root():
    assert integer_kth_root(0, 3) == (0, True)
    assert integer_kth_root(64, 3) == (4, True)
    assert integer_kth_root(63, 3) == (3, False)
    assert integer_kth_root(10**30, 5) == (10**6, True)
    big = 123456789**7
    assert integer_kth_root(big, 7) == (123456789, True)
    assert integer_kth_root(big - 1, 7) == (123456788, False)
    # beyond float range: exact integer arithmetic, no OverflowError
    assert integer_kth_root(10**400, 2) == (10**200, True)
    assert integer_kth_root(10**400 - 1, 2) == (10**200 - 1, False)
    assert integer_kth_root(10**400, 5) == (10**80, True)
    assert integer_kth_root(3**1001, 7) == (3**143, True)
    assert integer_kth_root(3**1001 + 1, 7) == (3**143, False)
    # k much larger than the bit length of x
    assert integer_kth_root(3, 100) == (1, False)
    assert integer_kth_root(2**100, 100) == (2, True)
    assert integer_kth_root(2**100 - 1, 100) == (1, False)


# -------------------------------------------------------- schinzel conditions

def test_schinzel_all_false_means_irreducible():
    r = schinzel_conditions(1, 5, 1, 3, 1)
    # (a): 5 <= 1*1 + 1 fails; (b): 5 <= 4/log 4 ~ 2.885 fails; (c), (d): gcd = 1
    assert (r.cond_a, r.cond_b, r.cond_c, r.cond_d) == (False, False, False, False)
    assert not r.any_condition
    assert is_irreducible(tri(3, 1, 5, 1)).verdict == "irreducible"


def test_schinzel_equality_case_of_a():
    r = schinzel_conditions(1, 2, -1, 5, 2)
    assert r.cond_a  # 2 <= 1*1 + 1


def test_schinzel_cond_c_via_common_factor():
    r = schinzel_conditions(1, 67, 1, 33, 11)
    assert r.m1 == 1 and r.n1 == 3
    assert r.cond_c and not r.cond_a and not r.cond_d
    # the input is genuinely reducible
    assert is_irreducible(tri(33, 11, 67, 1)).reducible


def test_schinzel_gcd_not_one():
    with pytest.raises(GcdNotOne):
        schinzel_conditions(2, 4, 2, 5, 2)


def test_schinzel_huge_coefficient_condition_b():
    # 10^400 = (10^80)^5 enables (b), whose bound 10^160 w/log w is far
    # beyond float range on the way; it must still be evaluated
    r = schinzel_conditions(10**400, 3, 1, 5, 2)
    assert r.cond_a and r.cond_b
    r = schinzel_conditions(1, 10**400, 10**400 - 1, 5, 2)  # 10^400 - 1 is no 5th power
    assert not r.cond_b


def test_schinzel_cond_c_sign_clause():
    # q = 2 needs (-1)^(n1) A C > 0: for x^6 + 5x^2 + 4 -> A=1, C=4, n1=3 odd
    r = schinzel_conditions(1, 5, 4, 6, 2)
    assert not r.cond_c  # AC > 0 but n1 odd
    r = schinzel_conditions(1, 5, -4, 6, 2)
    assert r.cond_c  # AC < 0 and n1 odd
    # q = 2 is skipped when |A| or |C| is not a square, so cond_c stays
    # False; sympy finds all three irreducible
    for A, C in [(1, 3), (1, -3), (2, 1)]:
        assert not schinzel_conditions(A, 5, C, 6, 2).cond_c, (A, C)


# -------------------------------------------------------- threshold

def test_threshold_examples():
    v = threshold_irreducible(5, 2, 9)
    assert v is not None and v.certificate == "threshold"
    assert threshold_irreducible(8, 3, 3) is None  # 3 < 64/3, and indeed reducible
    assert is_irreducible(tri(8, 3, 3, -1)).reducible
    v = threshold_irreducible(3, 1, 3)
    assert v is not None and v.verdict == "irreducible"


def test_threshold_preconditions():
    with pytest.raises(CoprimalityViolated):
        threshold_irreducible(6, 2, 12)
    with pytest.raises(ValueError):
        threshold_irreducible(2, 1, 5)
    with pytest.raises(ValueError):
        threshold_irreducible(5, 2, 0)


def test_threshold_boundary_is_exact():
    # 3|a| >= n^2 must be an exact integer comparison: n = 5, a = 8 has
    # 24 < 25 (inconclusive), a = 9 has 27 >= 25
    assert threshold_irreducible(5, 2, 8) is None
    assert threshold_irreducible(5, 2, -9) is not None


# -------------------------------------------------------- factorize

def test_factorize_degree8_conjecture_member():
    f = factorize(tri(8, 3, 3, -1))
    assert len(f.factors) == 2
    assert sorted(p.degree for p, _ in f.factors) == [3, 5]
    assert f.expand() == tri(8, 3, 3, -1)


def test_factorize_bremner_degree33():
    f = factorize(tri(33, 11, 67, 1))
    assert any(p.coeffs == (1, 1, 0, 1) for p, _ in f.factors)  # x^3 + x + 1
    assert f.expand() == tri(33, 11, 67, 1)


def test_factorize_bremner_mu2_identity():
    f = factorize(tri(6, 2, 56, -1))
    assert [p.coeffs for p, _ in f.factors] == [(-1, 8, -4, 1), (1, 8, 4, 1)]
    assert f.expand() == tri(6, 2, 56, -1)


def test_factorize_content_sign_and_zero_roots():
    # -6x^3 + 6x = -6 x (x - 1)(x + 1)
    f = factorize(IntPolynomial.of([0, 6, 0, -6]))
    assert f.content == -6
    assert [p.coeffs for p, _ in f.factors] == [(-1, 1), (0, 1), (1, 1)]
    assert f.expand() == IntPolynomial.of([0, 6, 0, -6])


def test_factorize_multiplicities():
    p = IntPolynomial.of([1, 0, 1]) * IntPolynomial.of([1, 0, 1]) * IntPolynomial.of([-1, 1])
    f = factorize(p)
    assert ((IntPolynomial.of([1, 0, 1]), 2) in f.factors)
    assert f.expand() == p


def test_factorize_random_products(rng):
    for _ in range(60):
        g = IntPolynomial.of([rng.randint(-4, 4) for _ in range(rng.randint(1, 4))] + [1])
        h = IntPolynomial.of([rng.randint(-4, 4) for _ in range(rng.randint(1, 4))] + [1])
        if g.degree < 1 or h.degree < 1:
            continue
        prod = g * h
        f = factorize(prod)
        assert f.expand() == prod
        assert sum(p.degree * mult for p, mult in f.factors) == prod.degree
        # a product of two positive-degree polynomials must actually split
        assert sum(mult for _, mult in f.factors) >= 2


def test_factorize_deterministic_and_ordered():
    a = factorize(tri(14, 5, 4, -1))
    b = factorize(tri(14, 5, 4, -1))
    assert a == b
    keyed = [(p.degree, p.coeffs) for p, _ in a.factors]
    assert keyed == sorted(keyed)


# -------------------------------------------------------- (Z/m)[x] kernel

def _schoolbook(f, g):
    """Reference Z product by the nested loop, independent of dense_mul."""
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


def test_dense_mul_matches_schoolbook(rng):
    assert dense_mul([], [1, 2]) == [] and dense_mul([3], []) == [] and dense_mul([], []) == []
    for bound in (1, 9, 2**63, 2**64 + 5, 10**300):
        for _ in range(40):
            f = [rng.randint(-bound, bound) for _ in range(rng.randint(1, 30))]
            g = [rng.randint(-bound, bound) for _ in range(rng.randint(1, 30))]
            if rng.random() < 0.3:
                f += [0] * rng.randint(1, 3)  # untrimmed: the length is kept
            assert dense_mul(f, g) == _schoolbook(f, g), (f, g)
            assert dense_mul(g, f) == _schoolbook(f, g)
    # length-1 operands, extreme coefficients of either sign, zero inputs
    for c in (0, 1, -1, 2**64 - 1, -(2**64), 10**300, -(10**300)):
        g = [2**64 - 1, -(2**63), 10**300, 0, -1]
        assert dense_mul([c], g) == [c * x for x in g]
        assert dense_mul(g, [c]) == [c * x for x in g]
    assert dense_mul([0, 0], [0, 0, 0]) == [0, 0, 0, 0]
    # 64 + 64 + bits(255) is a whole number of bytes, so the sign bit is
    # what forces the next byte: the middle coefficient 255 (2^64 - 1)^2
    # needs 136 bits without its sign
    f = [2**64 - 1] * 255
    for g in (f, [-c for c in f]):
        assert dense_mul(f, g) == _schoolbook(f, g)
    # digit widths at each boundary of the 1-, 2-, 4- and 8-byte array paths
    # and the byte-slice path past them: bits(max|f|) + bits(max|g|)
    # + bits(shorter length), plus one bit with a negative coefficient, is
    # exactly 8, 16, 32, 64 or 72 bits, or one bit more.  Mixed signs take
    # the byte-slice path at every width, with its sign bit as the extra one
    for total in (8, 9, 16, 17, 32, 33, 64, 65, 72, 73):
        for signed in (False, True):
            for len_f, len_g in ((3, 3), (5, 17), (30, 4)):
                spare = total - signed - min(len_f, len_g).bit_length()
                top_f, top_g = 2**(spare // 2) - 1, 2**(spare - spare // 2) - 1
                low = -1 if signed else 0
                f = [top_f] * len_f
                g = [rng.randint(low * top_g, top_g) for _ in range(len_g - 1)] + [top_g]
                if signed:
                    f[rng.randrange(len_f)] = -top_f
                for a, b in ((f, g), (g, f), (tuple(f), tuple(g)), (f + [0, 0], g)):
                    out = dense_mul(a, b)
                    assert out == _schoolbook(a, b), (total, signed, a, b)
                    assert all(type(c) is int for c in out)
    # 1- and 2-term operands on either side, as lists or tuples, untrimmed
    for short in ([5], [-3], [0], [2, -7], [0, 4], [9, 0], [2**70, -1]):
        for long in ([1, -2, 3], [2**64 - 1, 0, 7, 0, 0], [0, 0, 0, 0]):
            for a, b in ((short, long), (long, short), (tuple(short), tuple(long))):
                out = dense_mul(a, b)
                assert out == _schoolbook(a, b) and all(type(c) is int for c in out)


def _poly_sum(*terms):
    """Coefficient-wise sum of signed (sign, coefficients) terms over Z."""
    out = [0] * max(len(c) for _, c in terms)
    for sign, c in terms:
        for i, x in enumerate(c):
            out[i] += sign * x
    return out


def _eval_mod(c, x, m):
    acc = 0
    for coef in reversed(c):
        acc = (acc * x + coef) % m
    return acc


@pytest.mark.parametrize("p", [7, 13])
@pytest.mark.parametrize("k", [1, 4])
def test_mod_divmod_identity(rng, p, k):
    m = p**k
    for lead in (1, 2, p - 1, p + 3):  # monic, then non-monic unit leads
        for _ in range(20):
            g = [rng.randrange(m) for _ in range(rng.randint(0, 6))] + [lead]
            f = [rng.randrange(-m, m) for _ in range(rng.randint(0, 14))]
            q, r = _mod_divmod(f, g, m)
            assert _mod(_poly_sum((1, dense_mul(q, g)), (1, r), (-1, f)), m) == []
            assert len(r) < len(g)
            assert all(0 <= c < m for c in q + r)
    # a sparse divisor: the monic trinomial x^n + a x^s + b
    for _ in range(20):
        n = rng.randint(2, 40)
        g = [0] * (n + 1)
        g[0], g[rng.randint(1, n - 1)], g[n] = rng.randrange(1, m), rng.randrange(1, m), 1
        f = [rng.randrange(-m, m) for _ in range(rng.randint(0, 3 * n))]
        q, r = _mod_divmod(f, g, m)
        assert _mod(_poly_sum((1, dense_mul(q, g)), (1, r), (-1, f)), m) == []
        assert len(r) < len(g)
        assert all(0 <= c < m for c in q + r)


def _long_division(f, g, m):
    """Reference (q, r) over Z/m: schoolbook long division, every coefficient
    reduced as it is formed, independent of _mod_divmod."""
    inv = pow(g[-1], -1, m)
    r = [c % m for c in f]
    q = [0] * max(len(f) - len(g) + 1, 0)
    for shift in reversed(range(len(q))):
        q[shift] = r[shift + len(g) - 1] * inv % m
        for i, c in enumerate(g):
            r[shift + i] = (r[shift + i] - q[shift] * c) % m
    r = r[:len(g) - 1]
    while q and q[-1] == 0:
        q.pop()
    while r and r[-1] == 0:
        r.pop()
    return q, r


@pytest.mark.parametrize("m", [5, 7, 5**8, 2**64 + 13])
def test_mod_divmod_matches_long_division(rng, m):
    for quotient_len in range(4):
        for _ in range(60):
            dg = rng.randint(0, 12)
            lead = rng.choice([1, 2, m - 1])  # monic, then non-monic unit leads
            if rng.random() < 0.5 and dg > 1:  # sparse: a trinomial divisor
                g = [0] * dg + [lead]
                g[0], g[rng.randrange(1, dg)] = rng.randrange(1, m), rng.randrange(1, m)
            else:
                g = [rng.randrange(m) for _ in range(dg)] + [lead]
            f = [rng.randrange(-m * m, m * m) for _ in range(dg + quotient_len)]
            if f and rng.random() < 0.3:
                f[-1] = m * rng.randint(-2, 2)  # top coefficient 0 mod m
            assert _mod_divmod(f, g, m) == _long_division(f, g, m), (f, g, m)


def test_gf_pow_mod_matches_repeated_products(rng):
    p = 7
    for mod in ([3, 0, 0, 5, 0, 0, 0, 1], [rng.randrange(p) for _ in range(9)] + [1]):
        base = [rng.randrange(p) for _ in range(12)]
        expected = _mod_divmod(base, mod, p)[1]
        for e in range(1, 40):
            assert _gf_pow_mod(base, e, mod, p) == expected, e
            expected = _mod_divmod(_schoolbook(expected, base), mod, p)[1]


def test_mod_divmod_rejects_non_unit_lead():
    with pytest.raises(ValueError):
        _mod_divmod([1, 2, 3, 4], [1, 7], 7**4)
    with pytest.raises(ZeroDivisionError):
        _mod_divmod([1, 2], [], 7)


@pytest.mark.parametrize("m", [7, 7**4])
def test_mod_mul_is_reduced_z_product(rng, m):
    for _ in range(30):
        f = [rng.randrange(-m, m) for _ in range(rng.randint(0, 9))]
        g = [rng.randrange(-m, m) for _ in range(rng.randint(0, 9))]
        prod = _mod_mul(f, g, m)
        assert prod == _mod(dense_mul(f, g), m)
        # independent of the kernel: (f g)(x) = f(x) g(x) mod m
        for x in range(-3, 4):
            assert _eval_mod(prod, x, m) == _eval_mod(f, x, m) * _eval_mod(g, x, m) % m


# -------------------------------------------------------- is_irreducible

def test_is_irreducible_examples():
    assert is_irreducible(IntPolynomial.of([-1, -1, 0, 1])).verdict == "irreducible"
    v = is_irreducible(tri(14, 5, 4, -1))
    assert v.reducible and v.witness is not None
    # witness divides the input: re-multiply the cofactor
    quotient = factorize(tri(14, 5, 4, -1))
    assert quotient.expand() == tri(14, 5, 4, -1)
    # the verdict carries the factorization it was decided by
    assert v.factorization == quotient
    assert is_irreducible(tri(5, 2, 9, 1)).certificate == "threshold"
    assert is_irreducible(tri(5, 2, 9, 1)).factorization is None


def test_every_certificate_is_listed():
    # scan's cache reader accepts exactly these names
    cells = [(3, 1, -30, -1), (4, 2, -30, -1), (3, 1, -1, -1), (3, 1, -2, -1)]
    certificates = tuple(is_irreducible(tri(*cell)).certificate for cell in cells)
    assert certificates == factor.CERTIFICATES


def test_is_irreducible_huge_coefficients():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    cases = [
        IntPolynomial((1, 0, 3, 0, 0, 10**400)),  # 10^400 x^5 + 3 x^2 + 1
        IntPolynomial((10**400 - 1, 0, 0, 1)),
        # (1 + 10^200 x)(10^150 - x^3), reducible
        IntPolynomial((10**150, 10**350, 0, -1, -(10**200))),
    ]
    for poly in cases:
        verdict = is_irreducible(poly)
        expr = sum(c * x**k for k, c in enumerate(poly.coeffs))
        assert verdict.reducible == (not sympy.Poly(expr, x).is_irreducible), poly.coeffs
        assert verdict.factorization.expand() == poly
        mine = sorted(f.degree for f, _ in verdict.factorization.factors)
        theirs = sorted(int(sympy.degree(f, x)) for f, _ in sympy.factor_list(expr)[1])
        assert mine == theirs


def test_is_irreducible_requires_primitive():
    with pytest.raises(ValueError):
        is_irreducible(IntPolynomial.of([2, 0, 2]))


def test_threshold_agreement_with_factorizer():
    # near-threshold slice of the full agreement grid (the acceptance suite
    # runs all n <= 10): every certified input must be a single factor
    for n, m in coprime_pairs(7, n_min=3):
        lo = -(-n * n // 3)  # ceil(n^2/3)
        for a_abs in (lo, lo + 5):
            for a in (a_abs, -a_abs):
                for b in (-1, 1):
                    assert threshold_irreducible(n, m, a) is not None
                    assert factorize(tri(n, m, a, b)).is_irreducible


def test_schinzel_contrapositive_random(rng):
    # all four conditions false must imply a single irreducible factor
    checked = 0
    while checked < 60:
        n, m = rng.choice(coprime_pairs(10, n_min=3))
        a = rng.choice([x for x in range(-30, 31) if x != 0])
        b = rng.choice([-1, 1])
        r = schinzel_conditions(1, a, b, n, m)
        if r.any_condition:
            continue
        assert factorize(tri(n, m, a, b)).is_irreducible, (n, m, a, b)
        checked += 1


def test_schinzel_contrapositive_on_threshold_grid():
    for n, m in coprime_pairs(8, n_min=3):
        lo = -(-n * n // 3)
        for a in (lo, -(lo + 3)):
            for b in (-1, 1):
                if not schinzel_conditions(1, a, b, n, m).any_condition:
                    assert factorize(tri(n, m, a, b)).is_irreducible, (n, m, a, b)


def test_mod_p_consistency(rng):
    # a full-degree irreducible reduction at a good prime certifies
    # irreducibility over Q; the engine's verdict must agree
    checked = 0
    while checked < 40:
        coeffs = [rng.randint(-6, 6) for _ in range(rng.randint(2, 8))] + [1]
        p = IntPolynomial.of(coeffs)
        if p.degree < 2 or p.coeffs[0] == 0:
            continue
        for prime in (5, 7, 11, 13):
            f = _mod(list(p.coeffs), prime)
            if len(f) != len(p.coeffs) or not _gf_is_squarefree(f, prime):
                continue
            if len(_gf_factors(f, prime)) == 1:
                assert is_irreducible(p).verdict == "irreducible", (p.coeffs, prime)
                checked += 1
                break
        else:
            continue


def test_factor_mod_prime_matches_sympy_degrees(rng):
    # _gf_factors, as the deleted factor_mod_prime ran it: p prime, p not
    # dividing the leading coefficient and f squarefree mod p
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    checked = 0
    while checked < 12:
        n = rng.randint(30, 120)
        m = rng.randint(1, n - 1)
        a, b = rng.choice([-4, -3, -2, 2, 3, 4, 5]), rng.choice([-1, 1, 2])
        poly = tri(n, m, a, b)
        for p in (5, 7, 11):
            fp = _mod(list(poly.coeffs), p)
            if len(fp) != len(poly.coeffs) or not _gf_is_squarefree(fp, p):
                continue
            factors = _gf_factors(fp, p)
            expr = x**n + a * x**m + b
            _, theirs = sympy.Poly(expr, x, modulus=p).factor_list()
            assert sorted(len(g) - 1 for g in factors) == sorted(
                f.degree() for f, mult in theirs for _ in range(mult)), (n, m, a, b, p)
            checked += 1


def test_lift_rejects_non_divisor():
    # x + 1 does not divide x^2 + 1 mod 7 (remainder 2)
    with pytest.raises(InternalVerificationFailure):
        _FactorTree([1, 0, 1], [[1, 1], [1, 1]], 7)


def _sympy_factorization(sympy, x, poly):
    """(content, factors) from sympy.factor_list in factorize's normal form:
    each factor primitive with positive leading coefficient, sorted by
    (degree, ascending coefficients)."""
    content, s_factors = sympy.factor_list(
        sum(c * x**k for k, c in enumerate(poly.coeffs)), x)
    factors = []
    for f, mult in s_factors:
        coeffs = [int(c) for c in reversed(sympy.Poly(f, x).all_coeffs())]
        if coeffs[-1] < 0:
            coeffs = [-c for c in coeffs]
            content *= (-1) ** mult
        factors.append((tuple(coeffs), mult))
    return int(content), sorted(factors, key=lambda fm: (len(fm[0]), fm[0]))


def test_factorize_against_sympy_oracle(rng):
    # independent engine check; skipped when sympy is not installed.  Random
    # polynomials are mostly irreducible, so products of 4-8 small factors
    # with repeats and x^n - 1 add lifts of many modular factors, where a wrong
    # lift or a factor decided too early would leave a coarser but still exact
    # factorization.  Phi_105, a factor of x^105 - 1, has a coefficient -2
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    polys = []
    while len(polys) < 150:
        deg = rng.randint(1, 12)
        coeffs = [rng.randint(-9, 9) for _ in range(deg + 1)]
        if coeffs[-1] != 0:
            polys.append(IntPolynomial(tuple(coeffs)))
    for _ in range(40):
        pool = [IntPolynomial(tuple(rng.randint(-4, 4) for _ in range(rng.randint(1, 3)))
                              + (rng.choice([1, 2, 3, -1]),)) for _ in range(6)]
        product = IntPolynomial((1,))
        for _ in range(rng.randint(4, 8)):
            product = product * rng.choice(pool)
        polys.append(product)
    polys += [IntPolynomial((-1,) + (0,) * (n - 1) + (1,)) for n in (24, 30, 42, 60, 105)]
    for p in polys:
        result = factorize(p)
        mine = (result.content, [(f.coeffs, mult) for f, mult in result.factors])
        assert mine == _sympy_factorization(sympy, x, p), p.coeffs


# -------------------------------------------------------- half-degree bound and blocked split

# the perfbench `factor` set (x^n + a x^m + c as {n: 1, m: a, 0: c})
FACTOR_SET = (
    {63: 1, 4: -3, 0: 1}, {93: 1, 58: 8, 0: 1}, {124: 1, 27: -6, 0: -1},
    {71: 1, 40: -5, 0: -1}, {66: 1, 1: 2, 0: 1}, {112: 1, 55: 2, 0: 1},
    {68: 1, 19: 1, 0: 1}, {122: 1, 97: 1, 0: 1}, {60: 1, 30: -3, 0: 2},
    {96: 1, 48: -3, 0: 2},
)


def _sparse(terms):
    coeffs = [0] * (max(terms) + 1)
    for k, c in terms.items():
        coeffs[k] = c
    return IntPolynomial(tuple(coeffs))


def _grid(n_max=24):
    """The scan grid: x^n + a x^m + b, gcd(m, n) = 1, |a| in 2..4, b = +-1."""
    return [(n, m, a, b) for n, m in coprime_pairs(n_max, n_min=3)
            for a in (-4, -3, -2, 2, 3, 4) for b in (-1, 1)]


def test_recombination_finds_a_factor_of_most_modular_factors(monkeypatch):
    # f = g h: g = x^3 - 2x^2 - x + 1 is irreducible over Q but three linears
    # mod 13, h is irreducible of degree 9 mod 13.  The smaller factor g is the
    # product of 3 of the 4 modular factors, more than half of them, and h,
    # above half the degree, is not covered by the bound
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    g = [1, -1, -2, 1]
    h = [-1, -3, -2, 2, 3, 0, -3, 42, 1, 1]
    f = dense_mul(g, h)
    assert _choose_prime(f) == 13
    assert [len(c) - 1 for c in _gf_factors(f, 13)] == [1, 1, 1, 9]
    # the tightest valid bound for g's degree is g's largest coefficient, 2;
    # it lifts to 13 only, and h's 42 lies outside the symmetric range mod 13
    monkeypatch.setattr(factor, "_mignotte_bound", lambda c, d: max(map(abs, g)))
    poly = IntPolynomial(tuple(f))
    result = factorize(poly)
    mine = (result.content, [(c.coeffs, mult) for c, mult in result.factors])
    assert mine == _sympy_factorization(sympy, x, poly)
    # every candidate divided out is of at most half the current degree
    divisions = []
    exact = factor._divmod_exact

    def recording(a, b):
        divisions.append((len(a) - 1, len(b) - 1))
        return exact(a, b)

    monkeypatch.setattr(factor, "_divmod_exact", recording)
    assert sorted(factor._zassenhaus_squarefree(f)) == sorted([g, h])
    assert divisions and all(2 * dc <= df for df, dc in divisions), divisions


def test_choose_prime_refuses_input_not_squarefree():
    # (x + 1)^2 and (x^2 - 2)^2 (x + 3) are squarefree mod no prime
    with pytest.raises(ValueError, match="not squarefree"):
        _choose_prime([1, 2, 1])
    with pytest.raises(ValueError, match="not squarefree"):
        _choose_prime(dense_mul(dense_mul([-2, 0, 1], [-2, 0, 1]), [3, 1]))
    # x^2 - N^2 with N = 5 * 7 * ... * 23 fails at every prime below 29
    n_sq = (5 * 7 * 11 * 13 * 17 * 19 * 23) ** 2
    assert _choose_prime([-n_sq, 0, 1]) == 29


def _per_degree_factor_squarefree(f, p, rng):
    """The distinct-degree split with one gcd per degree d: the reference
    for the blocked split."""
    out = []
    h = [0, 1]
    v = list(f)
    d = 0
    while len(v) - 1 >= 2 * (d + 1):
        d += 1
        h = _gf_pow_mod(h, p, f, p)
        g = _gf_gcd(_mod_sub(h, [0, 1], p), v, p)
        if len(g) > 1:
            out.extend(_gf_edf(g, d, p, rng))
            v = _monic(_mod_divmod(v, g, p)[0], p)
            if len(v) == 1:
                break
    if len(v) > 1:
        out.append(v)
    return out


def _per_degree_gf_factors(f, p):
    # the monic irreducible factors are unique, so the sorted list does not
    # depend on the equal-degree split's random draws
    factors = _per_degree_factor_squarefree(_monic(_mod(f, p), p), p, random.Random(0))
    return sorted(factors, key=lambda c: (len(c), tuple(c)))


def test_blocked_split_matches_per_degree_on_grid():
    # B = isqrt(n) <= 4 here, so block edges and the stop at deg(v)/2 are
    # met at many places.  Both splits see only f mod p, so each residue
    # class of cells is checked once
    residues = {(p, tuple(_mod(list(tri(*cell).coeffs), p))): cell
                for cell in _grid() for p in (5, 7, 11, 13)}
    checked = 0
    for (p, f), cell in residues.items():
        if _gf_is_squarefree(list(f), p):
            assert _gf_factors(list(f), p) == _per_degree_gf_factors(f, p), (cell, p)
            checked += 1
    assert checked > 5000


def test_frobenius_by_substitution_matches_pow_mod_on_grid():
    # the chain x, x^p, x^(p^2), ... that the distinct-degree split walks,
    # on every residue class of the n <= 24 grid, against binary powering
    residues = {(p, tuple(_mod(list(tri(*cell).coeffs), p)))
                for cell in _grid() for p in (5, 7, 11, 13)}
    for p, f in residues:
        f = list(f)
        h = [0, 1]
        for _ in range(3):
            expected = _gf_pow_mod(h, p, f, p)
            assert _gf_frobenius(h, f, p) == expected, (f, p, h)
            h = expected
    assert len(residues) > 5000


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_frobenius_by_substitution_matches_pow_mod_on_dense_moduli(rng, p):
    for _ in range(200):
        d = rng.randint(1, 40)
        f = [rng.randrange(p) for _ in range(d)] + [rng.randrange(1, p)]
        h = factor._trim([rng.randrange(p) for _ in range(rng.randint(0, d))])
        assert _gf_frobenius(h, f, p) == _gf_pow_mod(h, p, f, p), (f, h)


def _lift_levels(monkeypatch):
    """Counts the levels of every _FactorTree lift while in effect."""
    levels = []
    lift = _FactorTree.lift

    def counting(tree):
        levels.append(tree.modulus)
        lift(tree)

    monkeypatch.setattr(_FactorTree, "lift", counting)
    return levels


def _full_levels(f, p):
    bound, modulus, k = 2 * _mignotte_bound(f, (len(f) - 1) // 2) + 1, p, 0
    while modulus < bound:
        modulus, k = modulus * modulus, k + 1
    return k


@pytest.mark.parametrize("terms, levels", zip(FACTOR_SET, (1, 1, 0, 3, 2, 1, 1, 2, 2, 3)),
                         ids=[f"n{max(terms)}" for terms in FACTOR_SET])
def test_factor_set_lift_levels(monkeypatch, terms, levels):
    # an irreducible input stops once no subset passes; a reducible one once
    # each of its factors is decided at the level that covers its own degree,
    # below the full half-degree lift
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    poly = _sparse(terms)
    f = list(poly.coeffs)
    counted = _lift_levels(monkeypatch)
    result = factorize(poly)
    mine = (result.content, [(c.coeffs, mult) for c, mult in result.factors])
    assert mine == _sympy_factorization(sympy, x, poly)
    assert len(counted) == levels
    if len(result.factors) > 1:
        assert levels < _full_levels(f, _choose_prime(f))


# -------------------------------------------------------- recombination

def _subsets(remaining, degs, limit, size):
    """The reference walk's stream: the subsets of remaining of at least
    size elements whose degrees sum to at most limit, by size and then in
    combinations order.  remaining is sorted by degree, so remaining[:s] is
    the lightest subset of size s."""
    while size <= len(remaining) and sum(degs[i] for i in remaining[:size]) <= limit:
        for subset in combinations(remaining, size):
            if sum(map(degs.__getitem__, subset)) <= limit:
                yield subset
        size += 1


def _passing(subsets, lifted, f, modulus):
    """The reference walk's test, one subset at a time: the constant term of
    lc(f) prod(lifted[subset]), taken as a symmetric residue mod modulus,
    divides lc(f) f(0)."""
    lc = f[-1]
    target = lc * f[0]
    half = modulus // 2
    consts = [c[0] for c in lifted]
    for subset in subsets:
        tc = lc * prod(map(consts.__getitem__, subset)) % modulus
        if tc > half:
            tc -= modulus
        if tc and target % tc == 0:
            yield subset


def test_factor_small_by_trial_division(rng):
    for x in [720720, -65536] + [rng.choice([1, -1]) * rng.randint(1, 10**4) for _ in range(200)]:
        factors = factor._factor_small(x)
        assert prod(q**e for q, e in factors) == abs(x)
        assert [q for q, _ in factors] == sorted(q for q, _ in factors)
        assert all(_is_prime(q) and e >= 1 for q, e in factors)
    # a cofactor below (2^16)^2 with no factor up to 2^16 is prime
    assert factor._factor_small(4294967291) == [(4294967291, 1)]
    assert factor._factor_small(6 * 65537) == [(2, 1), (3, 1), (65537, 1)]
    # 30! has 2 332 800 divisors; they are counted, not listed
    assert factor._factor_small(factorial(30))[:3] == [(2, 26), (3, 14), (5, 7)]
    # a cofactor above it may not be prime: the factorization is unknown
    assert factor._factor_small(65537 * 65539) is None
    assert factor._factor_small(2 * 65537 * 65539) is None


@pytest.mark.parametrize("p", [5, 7, 13])
def test_recombination_matches_the_reference_walk(rng, p):
    # random unit constants mod M = p^k > 2 |lc f(0)|, degrees sorted as the
    # modular factors are, and targets with many divisors or with none
    # listed.  Every size's matches equal the reference walk's passing
    # subsets, in its order, from any resume point
    targets = [1, 2, 12, 720, 2520, 27720, 65537 * 65539]
    matched = 0
    for _ in range(150):
        r = rng.randint(1, 12)
        degs = sorted(rng.randint(1, 6) for _ in range(r))
        remaining = sorted(rng.sample(range(r), rng.randint(1, r)))
        limit = rng.randint(1, sum(degs))
        lc = rng.choice([d for d in (1, 2, 3, 4, 6) if d % p])
        target = rng.choice(targets)
        while target % p == 0:
            target //= p
        target *= lc * rng.choice([-1, 1])
        k = 1
        while p**k <= 2 * abs(target):
            k += 1
        modulus = p ** (k + rng.randint(0, 2))
        consts = [rng.randrange(1, modulus) for _ in range(r)]
        consts = [c if c % p else c + 1 for c in consts]
        # plant a subset within the degree limit that passes
        planted = []
        for i in rng.sample(remaining, len(remaining)):
            if sum(degs[j] for j in planted) + degs[i] <= limit:
                planted.append(i)
        if planted:
            rest = lc * prod(consts[i] for i in planted[1:]) % modulus
            v = rng.choice([-1, 1]) * rng.choice([d for d in range(1, 100) if target % d == 0])
            consts[planted[0]] = v * pow(rest, -1, modulus) % modulus
        f = [target // lc] + [0] * (2 * limit - 1) + [lc]
        lifted = [[c, 1] for c in consts]
        want = list(_passing(_subsets(remaining, degs, limit, 1), lifted, f, modulus))
        factors = factor._factor_small(target)
        walk = factor._Recombination(remaining, degs, consts, f, factors, modulus)
        assert list(walk.passing(1)) == want, (remaining, degs, consts, target, modulus)
        for start in rng.sample(want, min(3, len(want))):
            resumed = factor._Recombination(remaining, degs, consts, f, factors, modulus)
            assert list(resumed.passing(len(start), start)) == want[want.index(start):]
        matched += bool(want)
    assert matched > 100


def test_lift_continues_while_a_subset_passes(monkeypatch):
    # f = g h with g = x^2 + 1, two linears mod 5, and h = x^3 - 6x - 2,
    # irreducible mod 5; 5 already exceeds 2 |lc(f) f(0)| = 4.  One linear
    # factor alone passes the trailing-coefficient test mod 5 and is no
    # factor, and g passes at every level, so the lift must run to the level
    # that covers g's degree, 2, here the full half-degree bound, and find g
    g, h = [1, 0, 1], [-2, -6, 0, 1]
    f = dense_mul(g, h)
    assert _choose_prime(f) == 5
    modular = _gf_factors(f, 5)
    assert [len(c) - 1 for c in modular] == [1, 1, 3]
    assert next(_passing(_subsets([0, 1, 2], [1, 1, 3], 2, 1), modular, f, 5)) == (0,)
    walk = factor._Recombination([0, 1, 2], [1, 1, 3], [c[0] for c in modular], f,
                                 factor._factor_small(f[-1] * f[0]), 5)
    assert next(walk.passing(1)) == (0,)
    levels = _lift_levels(monkeypatch)
    assert sorted(factor._zassenhaus_squarefree(f)) == sorted([g, h])
    assert len(levels) == _full_levels(f, 5) >= 2


def test_irreducible_input_stops_before_the_full_lift(monkeypatch):
    # x^71 - 5x^40 - 1 (the benchmark's 15 factors mod 5) is irreducible; no
    # subset passes at some level below the bound, and none is yielded twice
    # beyond the one subset carried from each level to the next.  The
    # reference walk tests over a thousand subsets one by one; the matched
    # walk yields only the few that pass, and builds each half's table rows
    # at most once per level
    f = list(_sparse({71: 1, 40: -5, 0: -1}).coeffs)
    p = _choose_prime(f)
    modular = _gf_factors(f, p)
    degs = [len(c) - 1 for c in modular]
    stream_length = sum(1 for _ in _subsets(list(range(len(modular))), degs, 35, 1))
    levels = _lift_levels(monkeypatch)
    yielded = []
    passing = factor._Recombination.passing

    def recording(walk, size, start=()):
        for subset in passing(walk, size, start):
            yielded.append(subset)
            yield subset

    rows = []
    grow = factor._Recombination._grow

    def counting(walk, size):
        before = sum(map(len, chain(*walk.rows)))
        grow(walk, size)
        rows.append(sum(map(len, chain(*walk.rows))) - before)

    monkeypatch.setattr(factor._Recombination, "passing", recording)
    monkeypatch.setattr(factor._Recombination, "_grow", counting)
    assert factor._zassenhaus_squarefree(f) == [f]
    assert len(modular) == 15 and stream_length > 1000
    assert 1 <= len(levels) < _full_levels(f, p)
    assert len(yielded) <= len(set(yielded)) + len(levels)
    assert len(yielded) < stream_length // 100
    assert sum(rows) <= (len(levels) + 1) * (2**8 + 2**7) < stream_length


@pytest.mark.parametrize("g, h", [
    ([-7, 1], [1, 1, 1]),  # monic, f(0) = -7: the factor's constant is -7
    ([7, 3], [1, 1, 1]),  # lc(f) = 3: lc(f) g(0) / lc(g) = 7
])
def test_early_stop_waits_for_the_modulus_to_pass_the_constant(g, h):
    # mod 5 the true factor's constant reads as a residue of absolute value
    # at most 2 that does not divide lc(f) f(0), so a test at a modulus below
    # 2 |lc(f) f(0)| would drop the only candidate and call f irreducible
    f = dense_mul(g, h)
    p = _choose_prime(f)
    assert p == 5 and 5 < 2 * abs(f[-1] * f[0])
    modular = _gf_factors(f, p)
    assert [len(c) - 1 for c in modular] == [1, 2]
    assert list(_passing([(0,)], modular, f, p)) == []
    assert sorted(factor._zassenhaus_squarefree(f)) == sorted([g, h])
    result = factorize(IntPolynomial(tuple(f)))
    assert [c.coeffs for c, _ in result.factors] == [tuple(g), tuple(h)]


_PRIMORIAL_97 = prod(q for q in range(2, 98) if _is_prime(q))


_RECOMBINATION_CASES = [
    # irreducible with 22 factors mod 5: 2.28 M subsets for the reference walk
    ({62: 1, 37: -5, 0: -1}, 5, 22),
    # f is squarefree mod 5, but 5 divides f(0), and f is not squarefree
    # mod 7: the prime is 11, where every lifted constant is a unit
    ({27: 1, 1: -3, 0: 5}, 11, 2),
    # (x^6 - 1)(x^6 - b), b = 65537 * 65539: the divisors of b are not known
    # and every pair of the tables takes the direct test
    ({12: 1, 6: -(65537 * 65539 + 1), 0: 65537 * 65539}, 5, 7),
    # (x^12 - 1)(x^12 - b), b = 30! with 2 332 800 divisors and
    # b = 2 3 5 ... 97 with 2^25: far more than the tables have rows, so
    # every pair takes the direct test and the divisors are never listed
    ({24: 1, 12: -(factorial(30) + 1), 0: factorial(30)}, 31, 15),
    ({24: 1, 12: -(_PRIMORIAL_97 + 1), 0: _PRIMORIAL_97}, 101, 11),
]


@pytest.mark.parametrize("terms, p, r", _RECOMBINATION_CASES)
def test_recombination_cases_against_sympy(monkeypatch, terms, p, r):
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    poly = _sparse(terms)
    f = list(poly.coeffs)
    assert _choose_prime(f) == p and len(_gf_factors(f, p)) == r
    if abs(f[0]) > 2**32:
        monkeypatch.setattr(factor._Recombination, "_keys", None)
    result = factorize(poly)
    mine = (result.content, [(c.coeffs, mult) for c, mult in result.factors])
    assert mine == _sympy_factorization(sympy, x, poly)


def test_choose_prime_divides_neither_end(rng):
    # the least prime p >= 5 with f squarefree mod p that divides neither
    # lc(f) nor f(0), so that every lifted constant is a unit mod p^k.  The
    # m = 1 draws x^n + a x + b, with b 13-smooth and a multiple of 5, 7, 11
    # or 13, often have f squarefree mod a prime that divides b
    polys = [list(_sparse(terms).coeffs) for terms, _, _ in _RECOMBINATION_CASES]
    smooth = [b for b in range(5, 721) if factor._factor_small(b)[-1][0] in (5, 7, 11, 13)]
    while len(polys) < 300:
        n = rng.randint(3, 30)
        f = ([rng.choice([-1, 1]) * rng.choice(smooth), rng.choice([-6, -3, -1, 1, 2, 4])]
             + [0] * (n - 2) + [rng.choice([1, 5, 7, 35])])
        if factor._yun_squarefree(f) == [(f, 1)]:
            polys.append(f)
    passed_over = 0
    for f in polys:
        p = _choose_prime(f)
        assert f[-1] * f[0] % p and _gf_is_squarefree(_mod(f, p), p), (f, p)
        below = [q for q in range(5, p) if _is_prime(q)]
        assert not any(f[-1] * f[0] % q and _gf_is_squarefree(_mod(f, q), q)
                       for q in below), (f, p)
        passed_over += any(f[-1] % q and _gf_is_squarefree(_mod(f, q), q) for q in below)
    assert passed_over > 50


def _random_irreducible(rng, d, p):
    while True:
        c = [rng.randrange(p) for _ in range(d)] + [1]
        if c[0] and _gf_is_squarefree(c, p) and len(_per_degree_gf_factors(c, p)) == 1:
            return c


@pytest.mark.parametrize("p", [5, 7])
@pytest.mark.parametrize("degrees", [[3, 4, 1, 1], [4, 5, 5, 2], [4, 4, 5, 3],
                                     [5, 6, 6, 5, 3, 1], [6, 7, 7, 6, 10]])
def test_blocked_split_at_block_edges(rng, p, degrees):
    block = isqrt(sum(degrees))
    assert block in degrees and block + 1 in degrees
    for _ in range(3):
        factors = []
        for d in degrees:
            c = _random_irreducible(rng, d, p)
            while c in factors:
                c = _random_irreducible(rng, d, p)
            factors.append(c)
        f = [1]
        for c in factors:
            f = _mod_mul(f, c, p)
        assert _gf_factors(f, p) == _per_degree_gf_factors(f, p)
        assert _gf_factors(f, p) == sorted(factors, key=lambda c: (len(c), tuple(c)))


def _factors_within_bound(sympy, x, poly):
    coeffs = list(poly.coeffs)
    bound = _mignotte_bound(coeffs, poly.degree // 2)
    _, s_factors = sympy.factor_list(sum(c * x**k for k, c in enumerate(coeffs)), x)
    checked = 0
    for g, _ in s_factors:
        g = [int(c) for c in reversed(sympy.Poly(g, x).all_coeffs())]
        if 2 * (len(g) - 1) > poly.degree:
            continue
        # lc(f) g / lc(g) is integral: lc(g) divides lc(f)
        scaled = [c * coeffs[-1] // g[-1] for c in g]
        assert [c * g[-1] for c in scaled] == [c * coeffs[-1] for c in g]
        # the bound of g's own degree, which is at most the half-degree one
        assert max(map(abs, scaled)) <= _mignotte_bound(coeffs, len(g) - 1) <= bound, (
            poly.coeffs, g)
        checked += 1
    return checked


def test_half_degree_bound_bounds_small_factors():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    # Phi_105, a factor of x^105 - 1, has a coefficient -2
    polys = [IntPolynomial((-1,) + (0,) * (n - 1) + (1,)) for n in (24, 30, 105)]
    polys += [_sparse(terms) for terms in FACTOR_SET]
    polys += [tri(*cell) for cell in _grid() if is_irreducible(tri(*cell)).reducible]
    assert sum(_factors_within_bound(sympy, x, poly) for poly in polys) > len(polys)
