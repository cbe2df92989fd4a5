"""Exhaustive reducibility scanning over integer trinomials x^n + a x^m +/- 1,
convergence tables against the large-n measure limits, and a crash-safe
JSON-lines results cache.

Scan work items are independent (n, m, a, b) tuples dispatched to a process
pool; completed records are appended to the cache one line at a time and the
emitted output is sorted canonically, so runs are deterministic regardless of
the worker count and an interrupted scan resumes from the cache.
"""

from __future__ import annotations

import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack
from dataclasses import dataclass, field
from math import gcd
from typing import Iterable, Sequence

from . import factor, mahler, polycore
from .polycore import TrinomialSpec, to_dense

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
    ``elapsed`` (seconds) is informational and excluded from equality so that
    records survive cache round trips and thread-count changes unchanged.
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


def compute_scan_record(item: tuple[int, int, int, int]) -> ScanRecord:
    """Factor one trinomial and attach its measure and house."""
    n, m, a, b = item
    start = time.perf_counter()
    try:
        spec = TrinomialSpec(n, m, a, b)
        dense = to_dense(spec)
        verdict = factor.is_irreducible(dense)
        if verdict.factorization is not None:
            degrees = tuple(
                sorted(p.degree for p, mult in verdict.factorization.factors
                       for _ in range(mult))
            )
        else:
            degrees = (n,)
        roots = polycore.all_roots(spec)
        measure = mahler.measure_from_root_set(roots).value
        hse = roots.max_modulus()
        return ScanRecord(
            n=n, m=m, a=a, b=b,
            reducible=verdict.reducible,
            factor_degrees=degrees,
            certificate=verdict.certificate,
            measure=measure,
            house=hse,
            elapsed=time.perf_counter() - start,
        )
    except Exception as exc:  # errored rows are reported, never dropped
        return ScanRecord(
            n=n, m=m, a=a, b=b,
            reducible=False, factor_degrees=(), certificate="error",
            measure=None, house=None,
            elapsed=time.perf_counter() - start,
            error=f"{type(exc).__name__}: {exc}",
        )


def _sort_key(rec: ScanRecord):
    return (rec.n, rec.m, abs(rec.a), 0 if rec.a < 0 else 1, rec.b)


def _work_items(n_max: int, a_values: Iterable[int], signs: Iterable[int],
                coprime_only: bool) -> list[tuple[int, int, int, int]]:
    if n_max < 3:
        raise ValueError("n_max must be >= 3")
    a_sorted = sorted(set(int(a) for a in a_values), key=lambda a: (abs(a), a))
    if 0 in a_sorted:
        raise ValueError("a = 0 is not a trinomial")
    b_sorted = sorted(set(int(b) for b in signs))
    if any(b not in (-1, 1) for b in b_sorted):
        raise ValueError("signs must be +/-1")
    items = []
    for n in range(3, n_max + 1):
        for m in range(1, n):
            if coprime_only and gcd(m, n) != 1:
                continue
            for a in a_sorted:
                for b in b_sorted:
                    items.append((n, m, a, b))
    return items


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
    return ScanRecord(
        n=int(d["n"]), m=int(d["m"]), a=int(d["a"]), b=int(d["b"]),
        reducible=bool(d["reducible"]),
        factor_degrees=tuple(int(x) for x in d["factor_degrees"]),
        certificate=str(d["certificate"]),
        measure=d.get("measure"),
        house=d.get("house"),
        elapsed=float(d.get("elapsed", 0.0)),
        error=d.get("error"),
    )


def _load_cache(path: str) -> dict[tuple[int, int, int, int], ScanRecord]:
    cached: dict[tuple[int, int, int, int], ScanRecord] = {}
    if not path or not os.path.exists(path):
        return cached
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                rec = record_from_dict(json.loads(line))
            except (ValueError, KeyError):
                continue  # ignore a torn final line from an interrupted run
            cached[rec.key] = rec
    return cached


def scan_conjecture(n_max: int, a_values: Iterable[int], signs: Iterable[int] = (-1, 1),
                    coprime_only: bool = True, threads: int = 1,
                    cache_path: str | None = None) -> list[ScanRecord]:
    """Scan every (n <= n_max, 0 < m < n, a, b) cell and return the reducible
    (and errored) records, canonically sorted.

    All completed records, including irreducible ones, are appended to the
    cache file when one is given; a rerun with the same cache skips finished
    cells and reproduces the same record set.  ``threads`` is the number of
    worker processes (>= 1).
    """
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    items = _work_items(n_max, a_values, signs, coprime_only)
    cached = _load_cache(cache_path) if cache_path else {}
    pending = [it for it in items if it not in cached]

    records: dict[tuple[int, int, int, int], ScanRecord] = dict(cached)

    with ExitStack() as stack:
        cache_fh = (stack.enter_context(open(cache_path, "a", encoding="utf-8"))
                    if cache_path else None)
        if threads > 1 and len(pending) > 1:
            pool = stack.enter_context(ProcessPoolExecutor(max_workers=threads))
            results = pool.map(compute_scan_record, pending, chunksize=8)
        else:
            results = map(compute_scan_record, pending)
        for rec in results:
            records[rec.key] = rec
            if cache_fh:
                cache_fh.write(json.dumps(record_to_dict(rec)) + "\n")
                cache_fh.flush()

    wanted = [records[it] for it in items]
    hits = [r for r in wanted if r.reducible or r.error]
    hits.sort(key=_sort_key)
    return hits


def _m_for_rule(n: int, m_rule: str) -> int:
    if m_rule.startswith("fixed:"):
        m = int(m_rule.split(":", 1)[1])
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
    raise ValueError(f"unknown m rule {m_rule!r} (use fixed:<m>, last, or half)")


def convergence_table(a: complex, b: complex, n_list: Sequence[int],
                      m_rule: str = "fixed:1") -> list[ConvergenceRow]:
    """Measure vs the large-n limit along a sequence of degrees.

    ``m_rule`` is one of fixed:<m>, last (m = n-1), or half (the coprime m
    closest to n/2).
    """
    limit = mahler.limit_measure(a, b).value
    rows = []
    for n in sorted(set(int(n) for n in n_list)):
        m = _m_for_rule(n, m_rule)
        measure = mahler.measure_from_roots(TrinomialSpec(n, m, a, b)).value
        rows.append(ConvergenceRow(n=n, m=m, measure=measure, limit=limit,
                                   gap=abs(measure - limit)))
    return rows
