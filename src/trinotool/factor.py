"""Irreducibility over Q and a complete integer polynomial factorization engine.

Pipeline: content/primitive split -> squarefree decomposition (Yun) -> modular
factorization at a good prime, one that divides neither lc(f) nor f(0)
(blocked distinct-degree then Cantor-Zassenhaus equal-degree splitting) ->
one loop of quadratic Hensel lifting over a balanced factor tree, one level
(p^k to p^2k, one step per inner node) at a time, and recombination.
Candidate subsets of the modular factors, of at most half the degree, are
walked in order of size and then in combinations order; a larger factor is
what is left over.  Once the modulus exceeds 2 |lc(f) f(0)|, the walk takes
only the subsets that pass the trailing-coefficient test, which no true
factor fails, trial-divides each whose own degree's coefficient bound the
modulus covers, and resumes at the first one it does not cover at the next
level.  A walk that ends stops the lift, often below the half-degree bound
(the early tests of Abbott, Shoup and Zimmermann, ISSAC 2000).  The passing
subsets of each size are found by meet in the middle (_Recombination): the
constant products of the subsets of one half of the modular factors, all
units mod p^k, are matched against those of the other half through the
divisors of lc(f) f(0).  The divisors are counted from a factorization by
trial division, taken once per cofactor left to split, and listed only
where an index repays them; every pair is tested directly where they are
more than the rows or not known.  Every factorization is verified by exact
re-expansion.

Two cheap certificates run before the engine: the large-middle-coefficient
threshold (|a| >= n^2/3 forces x^n + a x^m +/- 1 irreducible when gcd(m,n)=1)
and the four-condition necessary test for reducibility of A x^n + B x^m + C
(if none of the conditions holds, the trinomial is irreducible).

Dense polynomials are plain lists of Python ints in ascending degree order
throughout this module; the public API wraps them in IntPolynomial.  All modular
work (the GF(p) splitting in _gf_factors, as well as Hensel lifting mod p^k)
runs on one (Z/m)[x] kernel:
_mod, _mod_mul, _mod_sub, _mod_divmod and _monic, with products taken by
polycore.dense_mul over Z and reduced once.  dense_mul is one big-int product by
Kronecker substitution whose operands are packed and unpacked through array
buffers of C integers, so no Python loop runs per coefficient while the digits
fit in 8 bytes (reduced operands modulo any m < 2^28 with fewer than 256
terms).  _mod_divmod finds a quotient of one or two terms, as in nearly every
Euclid step of _gf_gcd and _gf_gcdext, with the remainder in one fused pass; a
longer quotient subtracts only the divisor's nonzero terms, and the
distinct-degree split keeps x^(p^d) reduced modulo the input polynomial, a
sparse trinomial for scan inputs, rather than modulo the shrinking cofactor, so
the products of x^(p^d) - x over a block of sqrt(deg) consecutive d that share
one gcd reduce in O(deg) per product.  Each Frobenius power is taken by
substitution, h(x)^p = h(x^p) over GF(p), at one reduction of O(p deg) by the
trinomial (von zur Gathen and Shoup, 1992).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import chain
from math import comb, exp, gcd, isqrt, log, log1p, prod
from random import Random

from .errors import (
    CoprimalityViolated,
    GcdNotOne,
    InternalVerificationFailure,
)
from .polycore import IntPolynomial, TrinomialSpec, dense_mul


@dataclass(frozen=True)
class SchinzelReport:
    """Which of the four necessary-for-reducibility conditions fire.

    m1 = m/gcd(m,n), n1 = n/gcd(m,n).  If all four are false the trinomial
    A x^n + B x^m + C is irreducible over Q.  Condition (c) is evaluated for
    q prime and q = 4 (the source text truncates the clause after "q a prime
    or q="; context fixes q = 4 as the other case).
    """

    m1: int
    n1: int
    cond_a: bool
    cond_b: bool
    cond_c: bool
    cond_d: bool

    @property
    def any_condition(self) -> bool:
        return self.cond_a or self.cond_b or self.cond_c or self.cond_d


@dataclass(frozen=True)
class FactorizationResult:
    """content * prod(factor^multiplicity) == input, factors irreducible,
    primitive, positive leading coefficient, canonically ordered."""

    content: int
    factors: tuple[tuple[IntPolynomial, int], ...]

    def expand(self) -> IntPolynomial:
        acc = IntPolynomial((self.content,)) if self.content else IntPolynomial(())
        for poly, mult in self.factors:
            for _ in range(mult):
                acc = acc * poly
        return acc

    @property
    def is_irreducible(self) -> bool:
        return len(self.factors) == 1 and self.factors[0][1] == 1


# every certificate is_irreducible gives
CERTIFICATES = ("threshold", "schinzel-none", "factorizer", "witness")


@dataclass(frozen=True)
class IrreducibilityVerdict:
    """``factorization`` is set whenever the factorizer ran (certificates
    "factorizer" and "witness"), so callers need not factor again."""

    verdict: str  # "irreducible" | "reducible"
    certificate: str  # one of CERTIFICATES
    witness: IntPolynomial | None = None
    factorization: FactorizationResult | None = None

    @property
    def reducible(self) -> bool:
        return self.verdict == "reducible"


# ----------------------------------------------------------------------------
# integer utilities

def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


def integer_kth_root(x: int, k: int) -> tuple[int, bool]:
    """Floor k-th root of x >= 0 and whether it is exact."""
    if x < 0 or k < 1:
        raise ValueError("need x >= 0 and k >= 1")
    if x in (0, 1) or k == 1:
        return x, True
    # exact integer Newton iteration, decreasing from 2^ceil(bits/k) > root
    r = 1 << -(-x.bit_length() // k)
    while True:
        s = ((k - 1) * r + x // r ** (k - 1)) // k
        if s >= r:
            return r, r**k == x
        r = s


def _is_kth_power(x: int, k: int) -> bool:
    return integer_kth_root(x, k)[1]


# ----------------------------------------------------------------------------
# dense integer polynomial arithmetic (ascending coefficient lists)

def _trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _deg(c: list[int]) -> int:
    return len(c) - 1


def _add(f: list[int], g: list[int]) -> list[int]:
    if len(f) < len(g):
        f, g = g, f
    return _trim(list(map(operator.add, f, g)) + f[len(g):])


def _sub(f: list[int], g: list[int]) -> list[int]:
    tail = f[len(g):] if len(f) >= len(g) else list(map(operator.neg, g[len(f):]))
    return _trim(list(map(operator.sub, f, g)) + tail)


def _divmod_exact(f: list[int], g: list[int]) -> tuple[list[int] | None, list[int]]:
    """Long division over Z with early exit when a step is not exact."""
    if not g:
        raise ZeroDivisionError("division by the zero polynomial")
    r = _trim(list(f))
    dg = _deg(g)
    q = [0] * max(len(f) - dg, 0)
    lg = g[-1]
    while len(r) > dg:
        coef, rem = divmod(r[-1], lg)
        if rem:
            return None, r
        shift = len(r) - 1 - dg
        q[shift] = coef
        for i, c in enumerate(g):
            r[shift + i] -= coef * c
        _trim(r)
    return _trim(q), r


def _content(c: list[int]) -> int:
    g = 0
    for x in c:
        g = gcd(g, x)
    return g


def _primitive(c: list[int]) -> tuple[int, list[int]]:
    """(signed content, primitive part with positive leading coefficient)."""
    if not c:
        return 0, []
    cont = _content(c)
    if c[-1] < 0:
        cont = -cont
    return cont, [x // cont for x in c]


def _derivative(c: list[int]) -> list[int]:
    return _trim([k * c[k] for k in range(1, len(c))])


def _zz_gcd(f: list[int], g: list[int]) -> list[int]:
    """Primitive-PRS gcd, returned primitive with positive leading coefficient."""
    a = _primitive(f)[1]
    b = _primitive(g)[1]
    while b:
        # scaling by lc(b)^(d+1) makes every long-division step exact
        d = max(_deg(a) - _deg(b), 0)
        r = _divmod_exact([x * b[-1] ** (d + 1) for x in a], b)[1]
        a, b = b, _primitive(r)[1]
    return a


def _yun_squarefree(f: list[int]) -> list[tuple[list[int], int]]:
    """Squarefree decomposition of a primitive polynomial (Yun's algorithm)."""
    out: list[tuple[list[int], int]] = []
    df = _derivative(f)
    g = _zz_gcd(f, df)
    if _deg(g) == 0:
        return [(list(f), 1)]
    w, _ = _divmod_exact(f, g)
    y, _ = _divmod_exact(df, g)
    z = _sub(y, _derivative(w))
    i = 1
    while _deg(w) > 0:
        h = _zz_gcd(w, z)
        if _deg(h) > 0:
            out.append((h, i))
        w, _ = _divmod_exact(w, h)
        y, _ = _divmod_exact(z, h)
        z = _sub(y, _derivative(w))
        i += 1
    return out


# ----------------------------------------------------------------------------
# (Z/m)[x] arithmetic (ascending lists of ints in [0, m)); GF(p)[x] is m = p.
# Products and differences are the Z routines followed by one reduction.

def _mod(c: list[int], m: int) -> list[int]:
    return _trim([x % m for x in c])


def _mod_mul(f: list[int], g: list[int], m: int) -> list[int]:
    return _mod(dense_mul(f, g), m)


def _mod_sub(f: list[int], g: list[int], m: int) -> list[int]:
    return _mod(_sub(f, g), m)


def _mod_divmod(f: list[int], g: list[int], m: int) -> tuple[list[int], list[int]]:
    """(q, r) with f = q g + r over Z/m and deg r < deg g.

    g's leading coefficient must be a unit mod m; pow raises ValueError
    otherwise.  A quotient of one or two terms, as in nearly every Euclid
    step, is found first and the remainder in one fused pass,
    r_i = (f_i - q1 g_(i-1) - q0 g_i) mod m.  A longer quotient takes one
    pass from the top: only g's nonzero lower terms are subtracted, and a
    coefficient is reduced mod m only where it becomes the next quotient
    coefficient, plus once at the end, so dividing by a sparse g (the input
    trinomial) costs O(deg f) rather than O(deg f * deg g).
    """
    if not g:
        raise ZeroDivisionError("division by the zero polynomial")
    inv = pow(g[-1], -1, m)
    dg = len(g) - 1
    if dg < len(f) <= dg + 2:
        q1 = f[dg + 1] * inv % m if len(f) > dg + 1 else 0
        q0 = (f[dg] - q1 * g[dg - 1]) * inv % m if dg else f[dg] * inv % m
        return _trim([q0, q1]), _trim([(a - q1 * b - q0 * c) % m
                                       for a, b, c in zip(f, chain((0,), g), g[:dg])])
    lower = [(i, c) for i, c in enumerate(g[:-1]) if c]
    r = list(f)
    q = [0] * max(len(r) - dg, 0)
    for shift in range(len(q) - 1, -1, -1):
        coef = r[shift + dg] * inv % m
        if coef:
            q[shift] = coef
            for i, c in lower:
                r[shift + i] -= coef * c
    return _trim(q), _mod(r[:dg], m)


def _monic(f: list[int], m: int) -> list[int]:
    """f scaled by the inverse of its leading coefficient mod m."""
    if not f:
        return []
    inv = pow(f[-1], -1, m)
    return _mod([c * inv for c in f], m)


def _gf_gcd(f: list[int], g: list[int], p: int) -> list[int]:
    a, b = f, g
    while b:
        a, b = b, _mod_divmod(a, b, p)[1]
    return _monic(a, p)


def _gf_gcdext(f: list[int], g: list[int], p: int) -> tuple[list[int], list[int], list[int]]:
    """(d, s, t) with s f + t g = d = monic gcd, for nonzero f and g."""
    r0, r1 = list(f), list(g)
    s0, s1 = [1], []
    t0, t1 = [], [1]
    while r1:
        q, r = _mod_divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _mod_sub(s0, dense_mul(q, s1), p)
        t0, t1 = t1, _mod_sub(t0, dense_mul(q, t1), p)
    inv = pow(r0[-1], -1, p)
    return _monic(r0, p), _mod([x * inv for x in s0], p), _mod([x * inv for x in t0], p)


def _gf_pow_mod(base: list[int], e: int, mod: list[int], p: int) -> list[int]:
    """base^e modulo mod over GF(p) for e >= 1, by left-to-right binary
    powering: one squaring per bit of e after the first and one product by
    base per further set bit (x^5 takes three products)."""
    b = _mod_divmod(base, mod, p)[1]
    acc = b
    for bit in bin(e)[3:]:
        acc = _mod_divmod(dense_mul(acc, acc), mod, p)[1]
        if bit == "1":
            acc = _mod_divmod(dense_mul(acc, b), mod, p)[1]
    return acc


def _gf_frobenius(h: list[int], f: list[int], p: int) -> list[int]:
    """h^p modulo f over GF(p), for h reduced mod p: h(x)^p = h(x^p), so h's
    coefficients are spread to every p-th exponent and reduced once by f.
    Against a sparse f (the input trinomial) that costs O(p deg f), where
    binary powering takes about log2 p products and reductions."""
    spread = [0] * (p * (len(h) - 1) + 1)
    spread[::p] = h
    return _mod_divmod(spread, f, p)[1]


def _gf_is_squarefree(f: list[int], p: int) -> bool:
    d = _mod(_derivative(f), p)
    if not d:
        return _deg(f) == 0
    return _deg(_gf_gcd(f, d, p)) == 0


def _gf_edf(f: list[int], d: int, p: int, rng: Random) -> list[list[int]]:
    """Cantor-Zassenhaus split of a monic product of degree-d irreducibles."""
    n = _deg(f)
    if n == d:
        return [f]
    exponent = (p**d - 1) // 2
    while True:
        u = [rng.randrange(p) for _ in range(n)]
        u = _trim(u)
        if _deg(u) < 1:
            continue
        w = _gf_pow_mod(u, exponent, f, p)
        w = _mod_sub(w, [1], p)
        g = _gf_gcd(w, f, p)
        if 0 < _deg(g) < n:
            break
    return _gf_edf(g, d, p, rng) + _gf_edf(_mod_divmod(f, g, p)[0], d, p, rng)


def _gf_factor_squarefree(f: list[int], p: int, rng: Random) -> list[list[int]]:
    """Monic irreducible factors of a squarefree monic f via distinct-degree
    splitting followed by equal-degree splitting.

    h = x^(p^d) is kept reduced modulo f itself, which stays sparse when f is
    a trinomial, and not modulo the shrinking cofactor v: since v divides f,
    gcd(h - x, v) is the same either way.  Each next h = h^p is taken by
    substitution, h(x^p) reduced once by f (_gf_frobenius), rather than by
    binary powering.  Degrees are taken in blocks of
    B = isqrt(deg f) (the interval step of von zur Gathen and Shoup): one gcd
    of v with the product of the block's h - x finds whether any degree in it
    has factors, and only a block with a nontrivial gcd g is split by degree,
    with gcd(h - x, g) in increasing d.  The last block stops at deg(v)/2,
    past which what is left of v is irreducible."""
    out: list[list[int]] = []
    block = isqrt(_deg(f))  # >= 1 whenever the loop runs
    h = [0, 1]  # x
    v = list(f)
    d = 0
    while _deg(v) >= 2 * (d + 1):
        top = min(d + block, _deg(v) // 2)
        diffs = []
        acc = [1]
        for _ in range(d, top):
            h = _gf_frobenius(h, f, p)
            diffs.append(_mod_sub(h, [0, 1], p))
            acc = _mod_divmod(dense_mul(acc, diffs[-1]), f, p)[1]
        g = _gf_gcd(acc, v, p)
        if _deg(g) > 0:
            v = _mod_divmod(v, g, p)[0]  # monic, as a quotient of monics
            for e, diff in enumerate(diffs, d + 1):
                ge = _gf_gcd(diff, g, p)
                if _deg(ge) > 0:
                    out.extend(_gf_edf(ge, e, p, rng))
                    g = _mod_divmod(g, ge, p)[0]
                    if _deg(g) == 0:
                        break
        d = top
    if _deg(v) > 0:
        out.append(v)
    return out


def _gf_factors(f: list[int], p: int) -> list[list[int]]:
    """Monic irreducible factors mod p of f (squarefree mod p, p not dividing
    the leading coefficient), sorted by (degree, coefficients)."""
    monic = _monic(_mod(f, p), p)
    factors = _gf_factor_squarefree(monic, p, Random(0))
    return sorted(factors, key=lambda c: (len(c), tuple(c)))


# ----------------------------------------------------------------------------
# Hensel lifting

def _hensel_step(f: list[int], g: list[int], h: list[int],
                 s: list[int], t: list[int], m: int):
    """One quadratic lift: from f = g h (mod m), s g + t h = 1 (mod m), h monic,
    to the same congruences mod m^2 (h stays monic, degrees are preserved)."""
    m2 = m * m
    e = _mod_sub(f, dense_mul(g, h), m2)
    q, r = _mod_divmod(dense_mul(s, e), h, m2)
    g2 = _mod(_add(g, _add(dense_mul(t, e), dense_mul(q, g))), m2)
    h2 = _mod(_add(h, r), m2)
    b = _mod_sub(_add(dense_mul(s, g2), dense_mul(t, h2)), [1], m2)
    c, d = _mod_divmod(dense_mul(s, b), h2, m2)
    s2 = _mod_sub(s, d, m2)
    t2 = _mod_sub(t, _add(dense_mul(t, b), dense_mul(c, g2)), m2)
    return g2, h2, s2, t2


class _FactorTree:
    """The monic, pairwise coprime mod-p factors of f on a balanced factor
    tree, lifted one quadratic Hensel level at a time.

    Each inner node splits its polynomial as g h, h monic and the product of
    the second half of its factors, and keeps (g, h, s, t) with s g + t h = 1
    at the current modulus.  lift() takes the modulus m to m^2 by one
    _hensel_step per inner node, top down, so that every node lifts against
    its parent's new g or h.  Hensel lifts are unique: after k levels the
    factors are those that a lift straight to p^(2^k) gives."""

    def __init__(self, f: list[int], monic_factors: list[list[int]], p: int):
        self.f = f
        self.modulus = p
        self.root = self._build(f, monic_factors, p)

    @classmethod
    def _build(cls, f: list[int], monic_factors: list[list[int]], p: int):
        """[g, h, s, t, g's subtree, h's subtree] mod p; None for a leaf."""
        if len(monic_factors) == 1:
            return None
        half = len(monic_factors) // 2
        hbar = [1]
        for c in monic_factors[half:]:
            hbar = _mod_mul(hbar, c, p)
        gbar, rem = _mod_divmod(f, hbar, p)
        if rem:
            raise InternalVerificationFailure(f"hbar does not divide f mod {p}")
        _, s, t = _gf_gcdext(gbar, hbar, p)
        return [gbar, hbar, s, t, cls._build(gbar, monic_factors[:half], p),
                cls._build(hbar, monic_factors[half:], p)]

    def lift(self) -> None:
        m = self.modulus
        stack = [(self.f, self.root)]
        while stack:
            f, node = stack.pop()
            if node is not None:
                node[:4] = _hensel_step(f, *node[:4], m)
                stack += [(node[0], node[4]), (node[1], node[5])]
        self.modulus = m * m

    def factors(self) -> list[list[int]]:
        """The monic lifted factors mod the current modulus, in the order of
        the mod-p factors the tree was built from."""
        out = []
        stack = [(self.f, self.root)]
        while stack:
            f, node = stack.pop()
            if node is None:
                out.append(_monic(f, self.modulus))
            else:
                stack += [(node[1], node[5]), (node[0], node[4])]
        return out


# ----------------------------------------------------------------------------
# Zassenhaus

def _symmetric(x: int, m: int) -> int:
    x %= m
    return x - m if x > m // 2 else x


def _mignotte_bound(f: list[int], d: int) -> int:
    """Coefficient bound for a factor of degree d.

    For every factor g of f over Z with deg g = d, the coefficients of
    lc(f) g / lc(g) are at most this bound in absolute value: by Mignotte's
    inequality |g_j| <= binom(d, j) |lc(g) / lc(f)| ||f||_2, and binom(d, j)
    <= binom(d, d // 2) (Beauzamy, Trevisan and Wang, JSC 15, 1993); the
    factor |lc(f)| is a margin.  The bound grows with d, so a modulus that
    covers a subset of modular factors covers every subset of it.  It is
    binom(d, d // 2) times its value at d = 0, which holds all of its
    dependence on f."""
    l2 = isqrt(sum(c * c for c in f)) + 1
    return comb(d, d // 2) * l2 * abs(f[-1])


def _choose_prime(f: list[int]) -> int:
    """The least prime p >= 5 with f squarefree mod p and p dividing neither
    lc(f) nor f(0), which must be nonzero (factorize splits off x first).

    Every lifted modular factor then has a unit constant, as the
    trailing-coefficient test of _Recombination needs.  A squarefree f fails
    only at primes dividing lc(f) f(0) disc(f), and there are at most
    log2 |lc(f) f(0) disc(f)| of them, with |disc(f)| <= n^n ||f||_2^(2n-2)
    (Mahler, 1964) for n = deg f.  More failures than that prove f is not
    squarefree over Z, and raise ValueError."""
    n = _deg(f)
    ends = f[-1] * f[0]
    allowed = (abs(ends).bit_length() + n * n.bit_length()
               + (n - 1) * sum(c * c for c in f).bit_length())
    p = 5
    while allowed >= 0:
        if _is_prime(p):
            if ends % p != 0 and _gf_is_squarefree(_mod(f, p), p):
                return p
            allowed -= 1
        p += 2
    raise ValueError("polynomial is not squarefree over Z")


def _factor_small(x: int) -> list[tuple[int, int]] | None:
    """The prime factorization of x != 0 as (prime, exponent) pairs, or
    None when it is unknown.

    Trial division by d <= 2^16 leaves a cofactor that is 1 or a prime
    whenever d passes its square root; only a cofactor with no factor up to
    2^16 and above 2^32 may be composite, and then None."""
    x = abs(x)
    out = []
    d = 2
    while d * d <= x:
        if d > 1 << 16:
            return None
        if x % d == 0:
            e = 0
            while x % d == 0:
                x //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if x > 1:
        out.append((x, 1))
    return out


class _Recombination:
    """The subsets of the remaining modular factors that pass the
    trailing-coefficient test at one modulus M = p^k > 2 |lc f(0)|, found by
    meet in the middle rather than one test per subset.

    remaining is split by position into a low and a high half.  Each half's
    subsets of degree at most limit are tabulated by size, size k from size
    k - 1 and only when the walk reaches k, with their products of lifted
    constants mod M, times lc on the low side.  p divides neither lc(f) nor
    f(0) (_choose_prime), so every such product is a unit mod M.  A subset
    passes when b_low a_high is congruent mod M to some v = +-d, d | lc f(0);
    each v is its own symmetric residue, since M > 2 |lc f(0)|.  So the high
    rows are indexed by residue, and each low row looks up v b_low^-1 for
    every v.  factors is the prime factorization of lc f(0) (_factor_small),
    which counts the values v before any is listed.  Tables too small to
    repay an index, and all tables when factors is None or the values
    outnumber the high rows, take the direct test pair by pair, and then the
    values are never listed."""

    def __init__(self, remaining: list[int], degs: list[int], consts: list[int],
                 f: list[int], factors: list[tuple[int, int]] | None, modulus: int):
        self.remaining, self.degs, self.consts = remaining, degs, consts
        self.modulus, self.factors = modulus, factors
        self.limit = _deg(f) // 2
        self.target = f[-1] * f[0]
        cut = (len(remaining) + 1) // 2
        self.halves = (remaining[:cut], remaining[cut:])
        # rows as (subset, product, degree, position of the next element)
        self.rows = ([[((), f[-1], 0, 0)]], [[((), 1, 0, 0)]])
        self.keys: list[list[list[int]]] = []
        self.index: dict[int, dict[int, list]] = {}
        self.count = None if factors is None else 2 * prod(e + 1 for _, e in factors)

    def passing(self, size: int, start: tuple[int, ...] = ()):
        """The passing subsets of at least size elements, by size and then
        in combinations order, from start on within the first size."""
        remaining, degs = self.remaining, self.degs
        lightest = sum(degs[i] for i in remaining[:size - 1])
        for i in remaining[size - 1:]:
            lightest += degs[i]
            if lightest > self.limit:
                return
            for subset in self._matches(size):
                if subset >= start:
                    yield subset
            size, start = size + 1, ()

    def _grow(self, size: int) -> None:
        """Builds both halves' rows up to size elements."""
        degs, consts, m, limit = self.degs, self.consts, self.modulus, self.limit
        for rows, half in zip(self.rows, self.halves):
            for _ in range(len(rows), min(size, len(half)) + 1):
                grown = []
                for subset, a, d, nxt in rows[-1]:
                    for pos in range(nxt, len(half)):
                        i = half[pos]
                        e = d + degs[i]
                        if e > limit:
                            break  # the half is sorted by degree
                        grown.append((subset + (i,), a * consts[i] % m, e, pos + 1))
                rows.append(grown)

    def _keys(self, k: int) -> list[list[int]]:
        """For each low row of k elements, the residues mod M of the high
        products that complete it to a pass."""
        m = self.modulus
        if not self.keys:
            divs = [1]
            for q, e in self.factors:
                divs = [d * q**i for d in divs for i in range(e + 1)]
            self.values = divs + [-d for d in divs]
        while len(self.keys) <= k:
            keyed = []
            for _, b, _, _ in self.rows[0][len(self.keys)]:
                inv = pow(b, -1, m)
                keyed.append([v * inv % m for v in self.values])
            self.keys.append(keyed)
        return self.keys[k]

    def _high(self, k: int) -> dict[int, list[tuple[tuple[int, ...], int]]]:
        """The high rows of k elements by residue mod M."""
        if k not in self.index:
            index: dict[int, list] = {}
            for subset, a, d, _ in self.rows[1][k]:
                index.setdefault(a, []).append((subset, d))
            self.index[k] = index
        return self.index[k]

    def _matches(self, size: int) -> list[tuple[int, ...]]:
        out = []
        self._grow(size)
        low, high = self.rows
        m, limit, target = self.modulus, self.limit, self.target
        for j in range(max(0, size - len(low) + 1), min(size, len(high) - 1) + 1):
            lows, highs = low[size - j], high[j]
            # one test per pair, or per low row a lookup per value after one
            # index entry per high row, whichever is less work
            if (self.count is None
                    or len(lows) * len(highs) <= len(lows) * self.count + len(highs)):
                for tl, b, dl, _ in lows:
                    for th, a, dh, _ in highs:
                        tc = b * a % m
                        if tc > m // 2:
                            tc -= m
                        if dl + dh <= limit and target % tc == 0:
                            out.append(tl + th)
                continue
            index = self._high(j)
            for (tl, _, dl, _), keys in zip(lows, self._keys(size - j)):
                for key in keys:
                    for th, dh in index.get(key, ()):
                        if dl + dh <= limit:
                            out.append(tl + th)
        out.sort()
        return out


def _zassenhaus_squarefree(f: list[int]) -> list[list[int]]:
    """Irreducible factors of a primitive squarefree f with positive leading
    coefficient and nonzero constant term.

    One loop lifts and recombines (see the module docstring).  A lift
    resumes the walk at the subset that asked for it, and a factor found
    restarts it on what remains, at the same size.  The walk runs by size,
    and every proper sub-subset of a subset comes before it with no larger
    bound, so a divisor found is irreducible and a covered subset that does
    not divide is no factor; a walk that ends leaves what remains
    irreducible."""
    if _deg(f) == 1:
        return [list(f)]
    p = _choose_prime(f)
    modular = _gf_factors(f, p)
    if len(modular) == 1:
        return [list(f)]

    stop = 2 * abs(f[-1] * f[0])
    tree = _FactorTree(f, modular, p)
    while tree.modulus <= stop:
        tree.lift()
    degs = [_deg(c) for c in modular]
    remaining = list(range(len(modular)))
    out: list[list[int]] = []
    current = list(f)
    factors = _factor_small(f[-1] * f[0])
    unit_bound = 2 * _mignotte_bound(f, 0)
    size, start = 1, ()
    while True:
        modulus = tree.modulus
        lifted = tree.factors()
        walk = _Recombination(remaining, degs, [c[0] for c in lifted], current, factors,
                              modulus)
        for subset in walk.passing(size, start):
            d = sum(degs[i] for i in subset)
            if modulus <= comb(d, d // 2) * unit_bound:
                size, start = len(subset), subset
                tree.lift()
                break
            cand = [current[-1]]
            for i in subset:
                cand = _mod_mul(cand, lifted[i], modulus)
            cand = [_symmetric(c, modulus) for c in cand]
            cand = _primitive(cand)[1]
            q, r = _divmod_exact(current, cand)
            if q is not None and not r:
                out.append(cand)
                current = q
                factors = _factor_small(current[-1] * current[0])
                remaining = [i for i in remaining if i not in subset]
                size, start = len(subset), ()
                break
        else:
            return out + [current]


def factorize(poly: IntPolynomial) -> FactorizationResult:
    """Complete factorization into irreducibles over Q (degree >= 1 required).

    The result is verified by exact re-expansion; a mismatch raises
    InternalVerificationFailure (a bug trap, never expected).
    """
    if poly.degree < 1:
        raise ValueError("factorize requires degree >= 1")
    coeffs = list(poly.coeffs)

    # split off roots at the origin
    zero_mult = 0
    while coeffs[0] == 0:
        zero_mult += 1
        coeffs.pop(0)

    content, prim = _primitive(coeffs)
    collected: list[tuple[IntPolynomial, int]] = []
    if zero_mult:
        collected.append((IntPolynomial((0, 1)), zero_mult))

    if _deg(prim) >= 1:
        for part, mult in _yun_squarefree(prim):
            for irr in _zassenhaus_squarefree(part):
                collected.append((IntPolynomial(tuple(irr)), mult))

    # Yun's parts are pairwise coprime and prime to x: no factor appears twice
    factors = tuple(sorted(collected, key=lambda fm: (fm[0].degree, fm[0].coeffs)))

    result = FactorizationResult(content=content, factors=factors)
    if result.expand() != poly:
        raise InternalVerificationFailure(
            f"re-expansion mismatch for {poly.coeffs}"
        )
    return result


# ----------------------------------------------------------------------------
# certificates

def schinzel_conditions(A: int, B: int, C: int, n: int, m: int) -> SchinzelReport:
    """Evaluate the four necessary conditions for A x^n + B x^m + C reducible.

    Exact integer arithmetic throughout except condition (b)'s transcendental
    bound, evaluated in floating point with a +1e-9 margin toward "condition
    holds" so the test stays sound as an irreducibility certificate.
    """
    if A == 0 or B == 0 or C == 0:
        raise ValueError("A, B, C must be nonzero")
    if not 0 < m < n:
        raise ValueError(f"need 0 < m < n, got m={m}, n={n}")
    if gcd(gcd(A, B), C) != 1:
        raise GcdNotOne(f"gcd({A}, {B}, {C}) != 1")

    g = gcd(m, n)
    m1, n1 = m // g, n // g
    aA, aB, aC = abs(A), abs(B), abs(C)

    cond_a = aB <= aA**m1 * aC ** (n1 - m1) + 1

    cond_b = False
    if min(aA, aC) == 1:
        mx = max(aA, aC)
        root_ok = any(
            _is_kth_power(mx, q)
            for q in range(2, n1 + 1)
            if _is_prime(q) and n1 % q == 0
        )
        if root_ok:
            # aB <= bound + 1e-9 (1 + bound) with bound = w/log(w) aA^(m/n)
            # aC^((n-m)/n), compared in logs so that no huge int meets a float
            w = 2 * m1 * (n1 - m1)
            log_bound = log(w / log(w)) + (m / n) * log(aA) + ((n - m) / n) * log(aC)
            cond_b = log(aB) <= log_bound + log1p(1e-9 * (1.0 + exp(-log_bound)))

    cond_c = False
    qs = [q for q in range(2, g + 1) if g % q == 0 and (_is_prime(q) or q == 4)]
    for q in qs:
        if not (_is_kth_power(aA, q) and _is_kth_power(aC, q)):
            continue
        if q == 2 and not ((A * C > 0) == (n1 % 2 == 0)):
            # (-1)^(n1) A C > 0
            continue
        if q == 4 and not (A * C > 0 and n1 % 2 == 0):
            continue
        cond_c = True
        break

    cond_d = False
    if g % 4 == 0 and A * C > 0 and n1 % 2 == 1:
        cond_d = (_is_kth_power(aA, 4) and _is_kth_power(4 * aC, 4)) or (
            _is_kth_power(4 * aA, 4) and _is_kth_power(aC, 4)
        )

    return SchinzelReport(m1=m1, n1=n1, cond_a=cond_a, cond_b=cond_b,
                          cond_c=cond_c, cond_d=cond_d)


def threshold_irreducible(n: int, m: int, a: int) -> IrreducibilityVerdict | None:
    """Large-coefficient certificate for x^n + a x^m +/- 1.

    Returns an irreducible verdict when 3|a| >= n^2 (exact integer check,
    certificate for both signs of the constant term); None when inconclusive.
    Never claims reducibility.
    """
    TrinomialSpec(n, m, a, 1)
    if n < 3:
        raise ValueError(f"need n >= 3, got n={n}")
    if gcd(m, n) != 1:
        raise CoprimalityViolated(f"gcd({m}, {n}) != 1")
    if 3 * abs(a) >= n * n:
        return IrreducibilityVerdict(verdict="irreducible", certificate="threshold")
    return None


def _trinomial_shape(poly: IntPolynomial) -> tuple[int, int, int, int, int] | None:
    """(A, B, C, n, m) when poly is A x^n + B x^m + C with 0 < m < n, else None."""
    terms = poly.nonzero_terms()
    if len(terms) != 3 or terms[0][0] != 0:
        return None
    (_, C), (m, B), (n, A) = terms
    return A, B, C, n, m


def is_irreducible(poly: IntPolynomial) -> IrreducibilityVerdict:
    """Irreducibility over Q with the cheapest certificate available.

    Requires a primitive input of degree >= 1.  Reducible verdicts always
    carry a witness factor verified to divide the input exactly.
    """
    if poly.degree < 1:
        raise ValueError("is_irreducible requires degree >= 1")
    if abs(_content(list(poly.coeffs))) != 1:
        raise ValueError("is_irreducible requires a primitive polynomial")

    shape = _trinomial_shape(poly)
    if shape is not None:
        A, B, C, n, m = shape
        if A == 1 and abs(C) == 1 and n >= 3 and gcd(m, n) == 1:
            verdict = threshold_irreducible(n, m, B)
            if verdict is not None:
                return verdict
        report = schinzel_conditions(A, B, C, n, m)
        if not report.any_condition:
            return IrreducibilityVerdict(verdict="irreducible",
                                         certificate="schinzel-none")

    result = factorize(poly)
    if result.is_irreducible:
        return IrreducibilityVerdict(verdict="irreducible", certificate="factorizer",
                                     factorization=result)
    witness = result.factors[0][0]
    q, r = _divmod_exact(list(poly.coeffs), list(witness.coeffs))
    if q is None or r:
        raise InternalVerificationFailure("witness does not divide the input")
    return IrreducibilityVerdict(verdict="reducible", certificate="witness",
                                 witness=witness, factorization=result)
