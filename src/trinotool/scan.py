"""Exhaustive reducibility scanning over integer trinomials x^n + a x^m +/- 1,
convergence tables against the large-n measure limits, and a crash-safe
JSON-lines results cache.

The unit of work is an orbit of pending cells under two maps that send such a
trinomial P to another one with the same factor degrees:

- z -> -z: (n, m, a, b) -> (n, m, a (-1)^(n+m), b (-1)^n), the polynomial
  (-1)^n P(-z) (``polycore._reflect``);
- reversal: (n, m, a, b) -> (n, n - m, ab, b), the polynomial b z^n P(1/z).

They commute, so an orbit has 1, 2 or 4 cells; only the cells that are
pending in this scan belong to it, so it may have 3.  The orbit's leader is
the least cell (as a tuple) of the whole orbit, pending or not, so every
record is a function of its own cell alone, whatever else is pending.  The
leader is factored with ``factor.is_irreducible`` and its roots are solved
with ``polycore.all_roots``, once per orbit.  Every cell gets that
factorization mapped factor by factor (g(z) -> g(-z), g -> its coefficient
reversal, each with a positive leading coefficient, sorted canonically) and
checked by exact re-expansion against its own polynomial; a mismatch is that
cell's ``InternalVerificationFailure`` record.  The certificate is the
leader's, and it is the one ``is_irreducible`` would give every cell, because
it reads P = x^n + B x^m + C (A = 1, |C| = 1) only through orbit invariants:

- ``threshold`` reads |B| = |a|, n and gcd(m, n) = gcd(n - m, n);
- the Schinzel conditions read |A| = |C| = 1, |B|, g = gcd(m, n) and
  n1 = n/g; (a) and (b) read m1 = m/g only through |A|^m1 |C|^(n1-m1) = 1,
  m1 (n1 - m1) and (m/n) log|A| + ((n-m)/n) log|C| = 0, all unchanged by
  m1 -> n1 - m1; (c) and (d) read the sign of A C = b only for q = 2 or 4
  dividing g, so when g is even, and then n is even and neither map
  changes b;
- the factorizer certificates follow from the factor degrees, which the maps
  keep.

The leader's roots give every cell its measure and house, because the maps
act on roots too:

- z -> -z negates every root, exactly in floating point, so it keeps both the
  measure and the house max|z|;
- the reversal of a monic P with |b| = 1 is monic with roots 1/z_i, so its
  measure is prod max(1, |z_i|) / prod |z_i| = M(P) / |b| = M(P), and its
  house is 1 / min|z_i|; 0 is never a root, since b = +/-1.

A cell's measure is therefore the leader's, and its house is max|z| or
1/min|z| over the leader's roots, as its move has no reversal or one.  An
error of the leader's factorization or solve is every cell's record.

Both moves keep n, so the scan goes one degree at a time, its orbits to a
process pool; records are appended to the cache one line at a time, and only
the reported ones are kept.  So runs are deterministic regardless of the worker
count, an interrupted scan resumes from the cache, and memory holds one or two
degrees' work plus the report.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import ExitStack
from dataclasses import dataclass, field
from functools import partial
from itertools import chain, pairwise
from math import gcd, isnan
from typing import Iterable, Iterator, Sequence

from . import factor, mahler, polycore
from .errors import ConvergenceFailure, InternalVerificationFailure
from .polycore import IntPolynomial, TrinomialSpec, to_dense

__all__ = [
    "ScanRecord",
    "ConvergenceRow",
    "scan_conjecture",
    "convergence_table",
    "compute_scan_record",
    "record_to_dict",
    "record_from_dict",
]


@dataclass(frozen=True)
class ScanRecord:
    """One scanned trinomial; unique per (n, m, a, b).

    ``factor_degrees`` sums to n; two or more entries iff reducible.
    ``elapsed`` (seconds) is the cell's own time: its check of the mapped
    factorization, plus, for the first pending cell of its orbit, the
    leader's ``is_irreducible`` call and root solve, which the orbit shares,
    so the elapsed times of a scan sum to its compute time.  It is
    informational and excluded from equality so that records survive cache
    round trips and thread-count changes unchanged.
    """

    n: int
    m: int
    a: int
    b: int
    reducible: bool
    factor_degrees: tuple[int, ...]
    certificate: str
    measure: float | None
    house: float | None
    elapsed: float = field(compare=False, default=0.0)
    error: str | None = None

    @property
    def key(self) -> tuple[int, int, int, int]:
        return (self.n, self.m, self.a, self.b)


@dataclass(frozen=True)
class ConvergenceRow:
    n: int
    m: int
    measure: float
    limit: float
    gap: float


def _orbit_moves(item: tuple[int, int, int, int]
                 ) -> dict[tuple[int, int, int, int], tuple[bool, bool]]:
    """Every cell of item's orbit, item first, with the (negate, reverse) move
    that maps item's polynomial to it, read off the tuple: the reversal takes
    (n, m, a, b) to (n, n - m, ab, b), and z -> -z takes (a, b) to
    ``polycore._reflect(n, m, (a, b))``.  The two moves commute, so the orbit
    has 1, 2 or 4 cells."""
    n, m, a, b = item
    moves: dict[tuple[int, int, int, int], tuple[bool, bool]] = {}
    for reverse, (k, c, d) in ((False, (m, a, b)), (True, (n - m, a * b, b))):
        moves.setdefault((n, k, c, d), (False, reverse))
        moves.setdefault((n, k, *polycore._reflect(n, k, (c, d))), (True, reverse))
    return moves


def _orbits(pending: list[tuple[int, int, int, int]]
            ) -> list[tuple[tuple[int, int, int, int], ...]]:
    """Group the pending cells by orbit, under its leader
    ``min(_orbit_moves(cell))``, each orbit in the order of its first cell in
    pending and its cells in pending order; an orbit holds only pending
    cells, so a resumed scan may split one."""
    orbits: dict[tuple[int, int, int, int], list[tuple[int, int, int, int]]] = {}
    for cell in pending:
        orbits.setdefault(min(_orbit_moves(cell)), []).append(cell)
    return [tuple(orbit) for orbit in orbits.values()]


def _map_factor(g: IntPolynomial, negate: bool, reverse: bool) -> IntPolynomial:
    c = list(g.coeffs)
    if reverse:
        c.reverse()
    if negate:
        c = [-x if k % 2 else x for k, x in enumerate(c)]
    if c[-1] < 0:
        c = [-x for x in c]
    return IntPolynomial(tuple(c))


def _factor_degrees(verdict: factor.IrreducibilityVerdict, move: tuple[bool, bool],
                    dense: IntPolynomial) -> tuple[int, ...]:
    """Factor degrees of the cell whose polynomial is dense, from the verdict
    of the orbit's leader mapped by move and checked by re-expansion."""
    found = verdict.factorization
    if found is None:
        return (dense.degree,)
    mapped = factor.FactorizationResult(
        content=found.content,
        factors=tuple(sorted(((_map_factor(g, *move), k) for g, k in found.factors),
                             key=lambda gk: (gk[0].degree, gk[0].coeffs))),
    )
    if mapped.expand() != dense:
        raise InternalVerificationFailure(
            f"mapped factorization does not expand to {dense.coeffs}")
    return tuple(sorted(g.degree for g, k in mapped.factors for _ in range(k)))


def _scan_orbit(orbit: Sequence[tuple[int, int, int, int]]) -> list[ScanRecord]:
    """The records of one orbit of cells (see the module docstring).  The
    leader is factored with one ``factor.is_irreducible`` call and solved
    with one root solve; each cell's record then holds the leader's verdict
    and measure, its own mapped factor degrees and its house, or, if the
    leader's work or the cell's own check failed, the error."""
    start = time.perf_counter()
    leader = min(_orbit_moves(orbit[0]))
    try:
        spec = TrinomialSpec(*leader)
        verdict = factor.is_irreducible(to_dense(spec))
        roots = polycore.all_roots(spec)
        measure = mahler.measure_from_root_set(roots).value
        houses = (roots.max_modulus(), 1 / roots.min_modulus())  # without, with the reversal
        failure = None
    except Exception as exc:  # every cell of the orbit reports it
        failure = exc
    moves = _orbit_moves(leader)
    records = []
    for item in orbit:
        try:
            if failure is not None:
                raise failure
            fields = dict(
                reducible=verdict.reducible,
                factor_degrees=_factor_degrees(verdict, moves[item],
                                               to_dense(TrinomialSpec(*item))),
                certificate=verdict.certificate,
                measure=measure,
                house=houses[moves[item][1]],
            )
        except Exception as exc:  # errored rows are reported, never dropped
            fields = dict(reducible=False, factor_degrees=(), certificate="error",
                          measure=None, house=None, error=f"{type(exc).__name__}: {exc}")
        records.append(ScanRecord(*item, **fields, elapsed=time.perf_counter() - start))
        start = time.perf_counter()
    return records


def compute_scan_record(item: tuple[int, int, int, int]) -> ScanRecord:
    """Factor one trinomial and attach its measure and house: the scan of a
    one-cell orbit."""
    return _scan_orbit((item,))[0]


def _degrees(n_max: int, a_values: Iterable[int], signs: Iterable[int],
             coprime_only: bool) -> Iterator[list[tuple[int, int, int, int]]]:
    """Each degree's cells in canonical order: by n, then m, then |a| with the
    negative a first, then b.  A degree's cells are built when it is reached."""
    if n_max < 3:
        raise ValueError("n_max must be >= 3")
    a_sorted = sorted(set(int(a) for a in a_values), key=lambda a: (abs(a), a))
    if not a_sorted or 0 in a_sorted:
        raise ValueError("a must be a nonempty set of nonzero integers")
    b_sorted = sorted(set(int(b) for b in signs))
    if not b_sorted or any(b not in (-1, 1) for b in b_sorted):
        raise ValueError("signs must be a nonempty set of +/-1")
    return ([(n, m, a, b) for m in range(1, n) if not coprime_only or gcd(m, n) == 1
             for a in a_sorted for b in b_sorted] for n in range(3, n_max + 1))


def record_to_dict(rec: ScanRecord, include_elapsed: bool = True) -> dict:
    out = {
        "n": rec.n, "m": rec.m, "a": rec.a, "b": rec.b,
        "reducible": rec.reducible,
        "factor_degrees": list(rec.factor_degrees),
        "certificate": rec.certificate,
        "measure": rec.measure,
        "house": rec.house,
    }
    if include_elapsed:
        out["elapsed"] = rec.elapsed
    if rec.error is not None:
        out["error"] = rec.error
    return out


def record_from_dict(d: dict) -> ScanRecord:
    """The record of one cache line, with every field of the JSON type that
    record_to_dict writes, else ValueError: a field of another type would
    read as another record (``bool("false")`` is True, and ``"35"`` would
    be the factor degrees (3, 5)).  n, m, a and b are integers with
    0 < m < n.  An errored cell has certificate "error", no factor degrees
    and an error message; any other cell has a known certificate and
    positive factor degrees summing to n, two or more iff it is reducible.
    measure and house are floats or null."""
    n, m, a, b = d["n"], d["m"], d["a"], d["b"]
    reducible, degrees, certificate = d["reducible"], d["factor_degrees"], d["certificate"]
    measure, house, error = d.get("measure"), d.get("house"), d.get("error")
    elapsed = d.get("elapsed", 0.0)
    valid = (type(n) is type(m) is type(a) is type(b) is int and 0 < m < n
             and type(reducible) is bool and type(degrees) is list
             and all(type(x) is int and x > 0 for x in degrees)
             and (measure is None or type(measure) is float)
             and (house is None or type(house) is float)
             and type(elapsed) in (int, float))
    if valid and certificate == "error":
        valid = not reducible and not degrees and type(error) is str
    elif valid:
        valid = (certificate in factor.CERTIFICATES and error is None
                 and sum(degrees) == n and reducible == (len(degrees) >= 2))
    if not valid:
        raise ValueError(f"not a scan record: {d}")
    return ScanRecord(n=n, m=m, a=a, b=b, reducible=reducible,
                      factor_degrees=tuple(degrees), certificate=certificate,
                      measure=measure, house=house, elapsed=float(elapsed), error=error)


def _load_cache(path: str) -> tuple[set[tuple[int, int, int, int]],
                                    dict[tuple[int, int, int, int], ScanRecord]]:
    """The keys of the cells cached in path, and the cached records that a
    scan reports: the reducible and the errored ones.  A cell's last line wins."""
    keys, reported = set(), {}
    if not os.path.exists(path):
        return keys, reported
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                rec = record_from_dict(json.loads(line))
            except (ValueError, KeyError, TypeError):
                continue  # a torn final line, or JSON that is not a record: recompute
            keys.add(rec.key)
            if rec.reducible or rec.error:
                reported[rec.key] = rec
            else:
                reported.pop(rec.key, None)
    return keys, reported


def scan_conjecture(n_max: int, a_values: Iterable[int], signs: Iterable[int] = (-1, 1),
                    coprime_only: bool = True, threads: int = 1,
                    cache_path: str | None = None) -> list[ScanRecord]:
    """Scan every (n <= n_max, 0 < m < n, a, b) cell and return the reducible
    (and errored) records in the canonical order (see _degrees), whatever the
    thread count or cache.  Degree n + 1 is queued before degree n is drained,
    so that a pool does not idle at a degree's end.

    All completed records, including irreducible ones, are appended to the
    cache file when one is given; a rerun with the same cache skips finished
    cells and reproduces the same record set.  ``threads`` is the number of
    worker processes (>= 1), capped at the pending orbits; one needs no pool.
    """
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    degrees = _degrees(n_max, a_values, signs, coprime_only)
    cached, reported = _load_cache(cache_path) if cache_path else (set(), {})
    # each degree's cells and its pending orbits
    work = ((cells, _orbits([c for c in cells if c not in cached])) for cells in degrees)
    # the pool size reads the pending orbits, counted only up to threads
    head, count = [], 0
    for cells, orbits in work:
        head.append((cells, orbits))
        count += len(orbits)
        if count >= threads:
            break
    workers = min(threads, count)
    hits: list[ScanRecord] = []

    with ExitStack() as stack:
        cache_fh = (stack.enter_context(open(cache_path, "a", encoding="utf-8"))
                    if cache_path else None)
        if workers > 1:
            from concurrent.futures import ProcessPoolExecutor

            # numpy loads on first use (polycore.np): load it here, once, so
            # the forked workers inherit it rather than each loading its own
            polycore.np.ndarray  # noqa: B018
            pool = stack.enter_context(ProcessPoolExecutor(max_workers=workers))
            run = partial(pool.map, _scan_orbit, chunksize=2)
        else:
            run = partial(map, _scan_orbit)
        queued = ((cells, run(orbits)) for cells, orbits in chain(head, work))
        # pairwise has queued degree n + 1 when degree n is drained
        for (cells, results), _ in pairwise(chain(queued, [None])):
            for rec in chain.from_iterable(results):
                if rec.reducible or rec.error:
                    reported[rec.key] = rec
                if cache_fh:
                    cache_fh.write(json.dumps(record_to_dict(rec)) + "\n")
                    cache_fh.flush()
            hits.extend(reported[c] for c in cells if c in reported)

    return hits


def _m_for_rule(n: int, m_rule: str) -> int:
    unknown = ValueError(f"unknown m rule {m_rule!r} (use fixed:<m>, last, or half)")
    if m_rule.startswith("fixed:"):
        try:
            m = int(m_rule.split(":", 1)[1])
        except ValueError:
            raise unknown from None
        if not 0 < m < n:
            raise ValueError(f"fixed m={m} invalid for n={n}")
        if gcd(m, n) != 1:
            raise ValueError(f"fixed m={m} is not coprime to n={n}")
        return m
    if m_rule == "last":
        return n - 1
    if m_rule == "half":
        coprime = [m for m in range(1, n) if gcd(m, n) == 1]
        if not coprime:
            raise ValueError(f"no m with 0 < m < n is coprime to n={n}")
        return min(coprime, key=lambda m: (abs(m - n / 2), m))
    raise unknown


def convergence_table(a: complex, b: complex, n_list: Sequence[int],
                      m_rule: str = "fixed:1") -> list[ConvergenceRow]:
    """Measure vs the large-n limit along a sequence of degrees.

    ``m_rule`` is one of fixed:<m>, last (m = n-1), or half (the coprime m
    closest to n/2).  Raises ConvergenceFailure at the first degree whose
    measure has a NaN error bound, as from roots that came out NaN; an
    infinite bound is kept, as in ``measure``.
    """
    limit = mahler.limit_measure(a, b).value
    rows = []
    for n in sorted(set(int(n) for n in n_list)):
        m = _m_for_rule(n, m_rule)
        result = mahler.measure_from_roots(TrinomialSpec(n, m, a, b))
        if isnan(result.error_bound):
            raise ConvergenceFailure(f"measure at n={n}, m={m} came out NaN")
        measure = result.value
        rows.append(ConvergenceRow(n=n, m=m, measure=measure, limit=limit,
                                   gap=abs(measure - limit)))
    return rows
