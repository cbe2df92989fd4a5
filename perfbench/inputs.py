"""Seeded inputs for the four workloads.

Every function here is a pure function of the seed (random.Random(seed)), so
the parent (which runs the oracle) and the measuring child (which runs the
program) rebuild identical inputs without passing them around.  Nothing here
imports trinotool: specs are plain (n, m, a, b) tuples and polynomials are
ascending coefficient tuples.
"""

from __future__ import annotations

import random
from math import gcd

from common import SCAN_A, SCAN_N_MAX, SCAN_SIGNS

# --------------------------------------------------------------------------
# scan: the grid is fixed (the seed does not change it)


def scan_cells(n_max: int = SCAN_N_MAX) -> list[tuple[int, int, int, int]]:
    return [(n, m, a, b)
            for n in range(3, n_max + 1)
            for m in range(1, n) if gcd(m, n) == 1
            for a in SCAN_A for b in SCAN_SIGNS]


# --------------------------------------------------------------------------
# measure: 200 specs over n = 30, 60, 120, 240

# (n, specs).  Unequal counts put the op-latency median inside the n = 60
# stratum and the 90th percentile inside the n = 240 stratum rather than on
# a boundary between two strata, where it would jump with the draw.
MEASURE_DEGREES = ((30, 35), (60, 80), (120, 50), (240, 35))
# (regime, weight); each degree's specs are split over the regimes in these
# proportions (largest remainder)
MEASURE_REGIMES = (
    ("dominant-a-int", 6),   # integer a, b = +-1, |a| >= 2: also runs the bounds
    ("boundary", 3),         # |a| - |b| = 1 exactly
    ("dominant-a", 3),       # real a, b with |a| - |b| > 1
    ("dominant-b", 4),
    ("sub-unit", 4),
    ("oscillatory", 5),
    ("complex", 4),          # complex a and b, any regime
    ("huge-a", 1),           # |a| = 10^6 .. 10^15, b = +-1
)


def _coprime_m(rng: random.Random, n: int) -> int:
    while True:
        m = rng.randrange(1, n)
        if gcd(m, n) == 1:
            return m


def _sign(rng: random.Random) -> int:
    return rng.choice((-1, 1))


def _draw_ab(rng: random.Random, regime: str):
    if regime == "dominant-a-int":
        return _sign(rng) * rng.randint(2, 9), _sign(rng)
    if regime == "boundary":
        if rng.random() < 0.5:
            k = rng.randint(1, 5)  # integer boundary, k = 1 is a = +-2, b = +-1
            return _sign(rng) * (k + 1), _sign(rng) * k
        rb = round(rng.uniform(0.2, 4.0), 3)
        return _sign(rng) * (rb + 1.0), _sign(rng) * rb
    if regime == "dominant-a":
        rb = rng.uniform(0.2, 5.0)
        return _sign(rng) * (rb + rng.uniform(1.2, 6.0)), _sign(rng) * rb
    if regime == "dominant-b":
        ra = rng.uniform(0.2, 5.0)
        return _sign(rng) * ra, _sign(rng) * (ra + rng.uniform(1.2, 6.0))
    if regime == "sub-unit":
        ra = rng.uniform(0.05, 0.9)
        return _sign(rng) * ra, _sign(rng) * rng.uniform(0.05, 1.0 - ra)
    if regime == "oscillatory":
        while True:
            ra, rb = rng.uniform(0.1, 3.0), rng.uniform(0.1, 3.0)
            if abs(ra - rb) < 0.95 and ra + rb > 1.05:
                return _sign(rng) * ra, _sign(rng) * rb
    if regime == "complex":
        return (complex(rng.uniform(-4, 4), rng.uniform(-4, 4)),
                complex(rng.uniform(-4, 4), rng.uniform(-4, 4)))
    if regime == "huge-a":
        return _sign(rng) * 10 ** rng.randint(6, 15), _sign(rng)
    raise ValueError(regime)


def _regime_counts(total: int) -> list[int]:
    weights = [w for _, w in MEASURE_REGIMES]
    exact = [w * total / sum(weights) for w in weights]
    counts = [int(x) for x in exact]
    by_remainder = sorted(range(len(exact)), key=lambda i: counts[i] - exact[i])
    for i in by_remainder[:total - sum(counts)]:
        counts[i] += 1
    return counts


def measure_specs(seed: int, toy: bool = False) -> list[tuple[int, int, complex, complex, str]]:
    """(n, m, a, b, regime); a and b are int, float or complex.  ``toy``
    keeps one spec per regime at n = 30 (for the self-test)."""
    rng = random.Random(seed)
    specs = []
    for n, total in MEASURE_DEGREES[:1] if toy else MEASURE_DEGREES:
        counts = [1] * len(MEASURE_REGIMES) if toy else _regime_counts(total)
        for (regime, _), count in zip(MEASURE_REGIMES, counts):
            for _ in range(count):
                a, b = _draw_ab(rng, regime)
                specs.append((n, _coprime_m(rng, n), a, b, regime))
    return specs


def bounds_applicable(a, b) -> bool:
    """Integer a with |a| >= 2 and b = +-1: the op also runs the house bound
    and the extremality check (when the spec normalises to R/S/T)."""
    return (isinstance(a, int) and not isinstance(a, bool) and abs(a) >= 2
            and isinstance(b, int) and b in (-1, 1))


# Seed-state defects (ROADMAP item 3).  They run after the timed passes of
# every measure run, outside the timed region, and are reported as baseline
# counts.  (route, n, m, a, b, true M)
KNOWN_DEFECTS = (
    # z^3 - 3z + 2 = (z-1)^2 (z+2): M = 2; Jensen exhausts its budget
    ("jensen", 3, 1, -3, 2, 2.0),
    # z^6 - 3z^2 + 2 = (z^2-1)^2 (z^2+2): M = sqrt(2)^2 = 2; same failure
    ("jensen", 6, 2, -3, 2, 2.0),
    # four roots of modulus ~1e75, three of ~1e-100: M = 1e300 to double
    # precision; the root finder returns NaN roots and M = 1.0
    ("roots", 7, 3, 1e300, 1, 1e300),
    # boundary |a| - |b| = 1 at n = 3: 2.0065 with error bound 0.0022
    ("series", 3, 1, -3, 2, 2.0),
)


# --------------------------------------------------------------------------
# factor: a fixed set of 10 integer trinomials at n = 60..124, four classes
#
# The set is fixed and the seed only orders it.  Factorizer cost at one
# degree varies 20-60x with the number of modular factors at the chosen
# prime (x^62 - 5x^37 - 1 has 22 factors mod 5 and takes 16 s;
# x^63 - 3x^4 + 1 has 3 and takes 0.15 s), so a seeded draw of ten would
# make wall_s spread far wider than any bound.


def _poly(terms: dict[int, int]) -> tuple[int, ...]:
    coeffs = [0] * (max(terms) + 1)
    for k, c in terms.items():
        coeffs[k] = c
    return tuple(coeffs)


FACTOR_SET = (
    # irreducible, dominant a, no cheap certificate: full factorizer
    ("irreducible", {63: 1, 4: -3, 0: 1}),
    ("irreducible", {93: 1, 58: 8, 0: 1}),
    ("irreducible", {124: 1, 27: -6, 0: -1}),
    # irreducible with 15 factors mod 5: subset recombination up to size 7
    ("irreducible", {71: 1, 40: -5, 0: -1}),
    # a root at x = -1 or x = 1
    ("root-pm1", {66: 1, 1: 2, 0: 1}),
    ("root-pm1", {112: 1, 55: 2, 0: 1}),
    # x^n + x^m + 1 with n = 2, m = 1 (mod 3): divisible by x^2 + x + 1
    ("cyclotomic", {68: 1, 19: 1, 0: 1}),
    ("cyclotomic", {122: 1, 97: 1, 0: 1}),
    # x^(2k) - 3x^k + 2 = (x^k - 1)(x^k - 2): many modular factors
    ("many-modular", {60: 1, 30: -3, 0: 2}),
    ("many-modular", {96: 1, 48: -3, 0: 2}),
)
TOY_FACTOR_SET = (
    ("irreducible", {13: 1, 4: -3, 0: 1}),
    ("root-pm1", {14: 1, 3: -2, 0: 1}),
    ("cyclotomic", {14: 1, 13: 1, 0: 1}),
    ("many-modular", {12: 1, 6: -3, 0: 2}),
)


def factor_polys(seed: int, toy: bool = False) -> list[tuple[str, tuple[int, ...]]]:
    """(class, ascending coefficients) in seeded order."""
    polys = [(cls, _poly(terms)) for cls, terms in (TOY_FACTOR_SET if toy else FACTOR_SET)]
    random.Random(seed).shuffle(polys)
    return polys


# --------------------------------------------------------------------------
# cli: the README single-shot commands plus a warm `scan --cache`

CACHE_TOKEN = "{cache}"


def cli_commands(n_max: int = SCAN_N_MAX) -> tuple[tuple[str, ...], ...]:
    """argv tails (without the interpreter and ``-m trinotool``); the scan
    command reads a complete cache of the n <= n_max scan grid."""
    return tuple(tuple(str(n_max) if tok == N_MAX_TOKEN else tok for tok in cmd)
                 for cmd in CLI_COMMANDS)


N_MAX_TOKEN = "{n_max}"
CLI_COMMANDS = (
    ("measure", "3", "1", "-1", "-1", "--method", "all"),
    ("house", "3", "1", "-2", "-1"),
    ("roots", "4", "1", "-3", "1", "--classify"),
    ("factor", "33", "11", "67", "1"),
    ("irreducible", "14", "5", "4", "-1"),
    ("limit", "1", "1"),
    ("series", "5", "2", "3", "1", "--trace"),
    ("bounds", "4", "1", "3", "--family", "R"),
    ("compare-bounds", "10"),
    ("extremal", "3", "1", "2", "--family", "T"),
    ("scan", "--n-max", N_MAX_TOKEN, "--a", ",".join(map(str, SCAN_A)),
     "--cache", CACHE_TOKEN),
    ("converge", "--a", "3", "--b", "1", "--n", "10,20,40,80", "--m-rule", "fixed:1"),
)
CLI_CYCLES = 9  # 9 x 12 = 108 invocations


def cli_sequence(seed: int, toy: bool = False) -> list[int]:
    """Indices into CLI_COMMANDS: every command once per cycle, each cycle in
    its own seeded order."""
    rng = random.Random(seed)
    seq = []
    for _ in range(1 if toy else CLI_CYCLES):
        order = list(range(len(CLI_COMMANDS)))
        rng.shuffle(order)
        seq.extend(order)
    return seq
