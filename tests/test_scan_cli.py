import argparse
import gc
import inspect
import json
import math
import os
import subprocess
import sys
import time
import weakref
from pathlib import Path

import pytest

import trinotool
from trinotool import factor, mahler, polycore, scan
from trinotool.cli import _num, _Output, cli_dispatch
from trinotool.errors import ConvergenceFailure, NonIntegerCoefficient
from trinotool.polycore import TrinomialSpec, to_dense
from trinotool.scan import (
    ConvergenceRow,
    ScanRecord,
    compute_scan_record,
    convergence_table,
    record_from_dict,
    record_to_dict,
    scan_conjecture,
)


# -------------------------------------------------------- scan core

def test_scan_degree8_hits():
    hits = scan_conjecture(8, [-3, 3])
    assert [(r.n, r.m, r.a, r.b) for r in hits] == [
        (8, 3, -3, -1), (8, 3, 3, -1), (8, 5, -3, -1), (8, 5, 3, -1),
    ]
    for r in hits:
        assert r.reducible
        assert sum(r.factor_degrees) == r.n and len(r.factor_degrees) >= 2
        assert r.measure is not None and r.house is not None


def test_scan_non_coprime_flag():
    # x^4 + 2x^2 + 1 = (x^2 + 1)^2 has gcd(m, n) = 2: skipped by default,
    # found when non-coprime cells are included
    coprime = scan_conjecture(4, [2], [1])
    assert (4, 2) not in [(r.n, r.m) for r in coprime]
    hits = scan_conjecture(4, [2], [1], coprime_only=False)
    extra = [r for r in hits if (r.n, r.m) == (4, 2)]
    assert len(extra) == 1 and extra[0].factor_degrees == (2, 2)
    assert [r for r in hits if math.gcd(r.m, r.n) == 1] == coprime


def test_scan_bremner_record_directly():
    rec = compute_scan_record((33, 11, 67, 1))
    assert rec.reducible
    assert 3 in rec.factor_degrees and sum(rec.factor_degrees) == 33


def test_scan_rejects_bad_input():
    with pytest.raises(ValueError):
        scan_conjecture(2, [3])
    with pytest.raises(ValueError):
        scan_conjecture(5, [0, 3])
    with pytest.raises(ValueError):
        scan_conjecture(5, [3], signs=[2])
    # an empty a or signs set scans no cell: refused, not reported complete
    with pytest.raises(ValueError):
        scan_conjecture(5, [])
    with pytest.raises(ValueError):
        scan_conjecture(5, [3], signs=[])


@pytest.mark.parametrize("a_values, signs", [
    ([2.5, -2.9], [1]), ([True], [1]), ([3], [1.7]), ([3], [True]), ([3 + 1j], [1]),
])
def test_scan_refuses_a_and_signs_that_are_not_integers(a_values, signs):
    # int() read 2.5 as 2 and True as 1, and scanned cells nobody asked for
    with pytest.raises(NonIntegerCoefficient):
        scan_conjecture(6, a_values, signs)


def test_scan_reads_integral_floats_as_integers():
    assert scan_conjecture(8.0, [-3.0, 3.0], [-1.0], threads=2.0) == (
        scan_conjecture(8, [-3, 3], [-1]))


@pytest.mark.parametrize("n_max", [6.5, "8", None])
def test_scan_refuses_a_degree_that_is_not_an_integer(n_max):
    with pytest.raises(ValueError, match=f"n_max must be an integer, got {n_max!r}"):
        scan_conjecture(n_max, [3])


@pytest.mark.parametrize("threads", [0, -3])
def test_scan_rejects_nonpositive_threads(threads):
    with pytest.raises(ValueError):
        scan_conjecture(5, [3], threads=threads)


@pytest.mark.parametrize("threads", [2.5, True, "2"])
def test_scan_refuses_threads_that_are_not_integers(tmp_path, threads):
    # 2.5 failed inside multiprocessing after the cache file was created,
    # "2" failed on a comparison, and True ran one worker
    cache = tmp_path / "cache.jsonl"
    with pytest.raises(ValueError, match=f"threads must be an integer, got {threads!r}"):
        scan_conjecture(9, [-3, 3], threads=threads, cache_path=str(cache))
    assert not cache.exists()


def test_scan_threads_default_to_one():
    assert inspect.signature(scan_conjecture).parameters["threads"].default == 1
    assert not hasattr(scan, "default_threads")


def test_scan_thread_counts_agree():
    one = scan_conjecture(9, [-3, 3], threads=1)
    many = scan_conjecture(9, [-3, 3], threads=4)
    assert one == many


def test_scan_cache_resume(tmp_path):
    cache = str(tmp_path / "cache.jsonl")
    full = scan_conjecture(8, [-3, 3], cache_path=cache)
    lines = open(cache).read().strip().splitlines()
    assert len(lines) == len({l for l in lines})
    # simulate an interruption: keep half the cache, rerun
    with open(cache, "w") as fh:
        fh.write("\n".join(lines[: len(lines) // 2]) + "\n")
    resumed = scan_conjecture(8, [-3, 3], cache_path=cache)
    assert resumed == full
    # a second full pass over the cache recomputes nothing
    again = scan_conjecture(8, [-3, 3], cache_path=cache)
    assert again == full
    cached_after = open(cache).read().strip().splitlines()
    assert len(cached_after) == len(lines)


@pytest.mark.parametrize("threads", [1, 2])
def test_scan_resumed_across_split_groups_is_byte_identical(tmp_path, threads):
    # every third line kept: most (n, {m, n - m}) groups have cells on both
    # sides, so the resumed scan's tasks are not the fresh scan's; the report
    # must still be byte-identical, and every record compute_scan_record's
    argv = ("scan", "--n-max", "12", "--a", "-4,-3,-2,2,3,4", "--threads", str(threads))
    cache = tmp_path / "cache.jsonl"
    rc, fresh = run_cli(tmp_path, *argv, "--cache", str(cache))
    assert rc == 0 and fresh
    lines = cache.read_text().splitlines()
    cache.write_text("\n".join(lines[::3]) + "\n")
    keys = [record_from_dict(json.loads(line)).key for line in lines]
    cached = set(keys[::3])
    sides = {}
    for n, m, a, b in keys:
        sides.setdefault((n, min(m, n - m)), set()).add((n, m, a, b) in cached)
    assert sum(seen == {True, False} for seen in sides.values()) > len(sides) // 2
    assert run_cli(tmp_path, *argv, "--cache", str(cache)) == (0, fresh)
    records = _cache_records(cache)
    assert len(records) == len(lines) and len({r.key for r in records}) == len(lines)
    for rec in records:
        assert compute_scan_record(rec.key) == rec


def _cells(n_max, a_values, signs, coprime_only):
    # the whole grid's cells in canonical order, one degree after another
    return [cell for cells in scan._degrees(n_max, a_values, signs, coprime_only)
            for cell in cells]


def _cache_records(cache):
    with open(cache) as fh:
        return [record_from_dict(json.loads(line)) for line in fh if line.strip()]


def _orbit_of(n, m, a, b):
    # z -> -z and the reversal b z^n P(1/z), written out independently of scan
    return frozenset({(n, m, a, b), (n, m, a * (-1) ** (n + m), b * (-1) ** n),
                      (n, n - m, a * b, b), (n, n - m, a * b * (-1) ** m, b * (-1) ** n)})


def _leader_values(key):
    # the orbit's least cell is solved once; a cell reached from it without
    # the reversal has its house max|z|, one reached with it 1/min|z|
    leader = min(_orbit_of(*key))
    n, m, a, b = leader
    roots = polycore.all_roots(TrinomialSpec(*leader))
    moduli = [abs(r) for r in roots.roots]
    unreversed = {leader, (n, m, a * (-1) ** (n + m), b * (-1) ** n)}
    house = max(moduli) if key in unreversed else 1 / min(moduli)
    return mahler.measure_from_root_set(roots).value, house


def test_scan_orbits_match_per_cell_factoring(tmp_path):
    # a in {-2, 1, 2, 3} with both signs and non-coprime cells gives orbits of
    # 1, 2, 3 and 4 pending cells; every record, irreducible ones too, must
    # have the factorization of that cell on its own, the measure and house of
    # the orbit leader's roots under the cell's move, and so, to rounding, the
    # measure and house of that cell's own roots.  At a repeated factor, as in
    # x^6 + 2x^3 + 1 = (x^3 + 1)^2, a float solve is good only to about
    # sqrt(eps), so there the two solves need agree only within the error
    # bounds of the cell's own solve
    args = (16, [-2, 1, 2, 3], (-1, 1))
    items = _cells(*args, coprime_only=False)
    assert {len(cells) for task in scan._tasks(items) for _, cells in task} == {1, 2, 3, 4}
    cache = str(tmp_path / "cache.jsonl")
    scan_conjecture(*args, coprime_only=False, cache_path=cache)
    records = _cache_records(cache)
    assert sorted(r.key for r in records) == sorted(items)
    for rec in records:
        spec = TrinomialSpec(*rec.key)
        verdict = factor.is_irreducible(to_dense(spec))
        found = verdict.factorization
        degrees = (tuple(sorted(g.degree for g, k in found.factors for _ in range(k)))
                   if found else (rec.n,))
        assert (rec.reducible, rec.factor_degrees, rec.certificate, rec.error) == (
            verdict.reducible, degrees, verdict.certificate, None), rec
        assert (rec.measure, rec.house) == _leader_values(rec.key), rec
        roots = polycore.all_roots(spec)
        own = mahler.measure_from_root_set(roots)
        if found is None or all(k == 1 for _, k in found.factors):
            assert rec.measure == pytest.approx(own.value, rel=1e-13, abs=0), rec
            assert rec.house == pytest.approx(roots.max_modulus(), rel=1e-13, abs=0), rec
        else:
            assert abs(rec.measure - own.value) <= own.error_bound, rec
            assert abs(rec.house - roots.max_modulus()) <= roots.residual_bound, rec


def test_orbit_cells_are_the_mapped_first_cell():
    # the cells of an orbit and the map of its factors follow one rule; on a
    # resumed pending list (every other cell) an orbit holds only its pending
    # cells, in pending order, all under its leader; the orbits come grouped
    # by the leader's (n, m), groups and orbits in the order of their first
    # cell, and a task holds one group's orbits
    items = _cells(24, [-4, -3, -2, -1, 1, 2, 3, 4], (-1, 1), coprime_only=False)
    for pending in (items, items[::2]):
        position = {cell: i for i, cell in enumerate(pending)}
        tasks = scan._tasks(pending)
        assert all(len({leader[:2] for leader, _ in task}) == 1 for task in tasks)
        orbits = [orbit for task in tasks for orbit in task]
        assert sorted(cell for _, cells in orbits for cell in cells) == sorted(pending)
        group_first = {}
        for leader, cells in orbits:
            group_first.setdefault(leader[:2], position[cells[0]])
        assert orbits == sorted(orbits, key=lambda orbit: (
            group_first[orbit[0][:2]], position[orbit[1][0]]))
        for leader, cells in orbits:
            moves = scan._orbit_moves(cells[0])
            assert set(moves) == _orbit_of(*cells[0])
            assert set(cells) == set(moves) & position.keys()
            assert list(cells) == sorted(cells, key=position.get)
            assert {min(scan._orbit_moves(cell)) for cell in cells} == {min(moves)} == {leader}
            first = to_dense(TrinomialSpec(*cells[0]))
            for cell in cells:
                assert scan._map_factor(first, *moves[cell]) == to_dense(TrinomialSpec(*cell))


def test_orbits_build_no_polynomial(monkeypatch):
    # the orbits are read off the cells' tuples: no dense polynomial is
    # built or mapped to find a cell
    items = _cells(16, [-3, -2, 2, 3], (-1, 1), coprime_only=False)

    def refuse(*args):
        raise AssertionError("a polynomial was built to find an orbit")

    monkeypatch.setattr(scan, "_map_factor", refuse)
    monkeypatch.setattr(scan, "to_dense", refuse)
    orbits = [cells for task in scan._tasks(items) for _, cells in task]
    assert len(orbits) == len({frozenset(orbit) for orbit in orbits})
    assert {frozenset(orbit) for orbit in orbits} == {_orbit_of(*item) for item in items}


def test_scan_factors_once_per_orbit(tmp_path, monkeypatch):
    calls = []
    factorize = factor.factorize

    def spy(poly):
        calls.append(poly)
        return factorize(poly)

    monkeypatch.setattr(factor, "factorize", spy)
    cache = str(tmp_path / "cache.jsonl")
    scan_conjecture(9, [-3, 3], cache_path=cache)
    factored = [r.key for r in _cache_records(cache)
                if r.certificate in ("factorizer", "witness")]
    orbits = {_orbit_of(*key) for key in factored}
    assert len(factored) == 4 * len(orbits)
    assert len(calls) == len(orbits)


def test_scan_solves_roots_once_per_orbit(tmp_path, monkeypatch):
    # one batched solve per (n, {m, n - m}) group of orbits, of the leaders
    # of that group alone; the scan makes no lone all_roots call
    batches = []
    all_roots_rows = polycore._all_roots_rows

    def spy(rows):
        batches.append(list(rows))
        return all_roots_rows(rows)

    def refuse(p):
        raise AssertionError("the scan solved one leader alone")

    monkeypatch.setattr(polycore, "_all_roots_rows", spy)
    monkeypatch.setattr(polycore, "all_roots", refuse)
    cache = str(tmp_path / "cache.jsonl")
    scan_conjecture(9, [-3, 3], cache_path=cache)
    orbits = {_orbit_of(*r.key) for r in _cache_records(cache)}
    solved = [leader for batch in batches for leader in batch]
    assert sorted(solved) == sorted(min(o) for o in orbits)
    assert all(len({leader[:2] for leader in batch}) == 1 for batch in batches)
    assert len(batches) == len({min(o)[:2] for o in orbits})


@pytest.mark.parametrize("a_values", [[3], [-4, -3, 1, 2]])
def test_scan_records_equal_one_cell_records(a_values):
    # with a of one sign, the leader of an orbit may lie outside the scanned
    # cells; every record is still compute_scan_record's, measure and house
    # bit for bit (record equality compares every field but elapsed)
    items = _cells(10, a_values, (-1, 1), coprime_only=True)
    if a_values == [3]:
        assert any(min(_orbit_of(*item)) not in items for item in items)
    records = {}
    for task in scan._tasks(items):
        records.update((r.key, r) for r in scan._scan_task(task))
    for item in items:
        assert compute_scan_record(item) == records[item]


@pytest.mark.parametrize("threads", [1, 2])
def test_scan_split_groups_match_the_unsplit_scan(tmp_path, monkeypatch, threads):
    # with _TASK_PAIRS = 64 a task holds at most max(1, 64 // n^2) orbits, so
    # one from n = 6 on, and most (n, {m, n - m}) groups span several tasks;
    # each task keeps one (n, m), and the records are the unsplit scan's
    args = (12, [-4, -3, -2, 2, 3, 4])
    whole = tmp_path / "whole.jsonl"
    hits = scan_conjecture(*args, cache_path=str(whole))
    tasks = []
    make_tasks = scan._tasks

    def spy(pending):
        made = make_tasks(pending)
        tasks.extend(made)
        return made

    monkeypatch.setattr(scan, "_TASK_PAIRS", 64)
    monkeypatch.setattr(scan, "_tasks", spy)
    split = tmp_path / "split.jsonl"
    assert scan_conjecture(*args, threads=threads, cache_path=str(split)) == hits
    assert _cache_records(split) == _cache_records(whole)
    assert len(tasks) > 2 * len({leader[:2] for task in tasks for leader, _ in task})
    for task in tasks:
        n = task[0][0][0]
        assert len(task) <= max(1, 64 // n ** 2)
        assert len({leader[:2] for leader, _ in task}) == 1


def test_scan_elapsed_is_each_orbits_time_shared_by_its_cells(tmp_path):
    # the pending cells of an orbit carry one equal, positive share of the
    # orbit's time, and the shares of a serial scan sum to at most its wall
    # time
    cache = tmp_path / "cache.jsonl"
    start = time.perf_counter()
    scan_conjecture(12, [-4, -3, -2, 2, 3, 4], cache_path=str(cache))
    wall = time.perf_counter() - start
    records = _cache_records(cache)
    shares = {}
    for rec in records:
        shares.setdefault(min(_orbit_of(*rec.key)), []).append(rec.elapsed)
    assert max(map(len, shares.values())) == 4
    assert all(len(set(orbit)) == 1 and orbit[0] > 0 for orbit in shares.values())
    assert sum(rec.elapsed for rec in records) <= wall


def test_scan_leader_solve_failure_is_every_cells_record(tmp_path, monkeypatch):
    # a root solve that fails on one leader errors its orbit's four cells;
    # the scan goes on and every other cell is computed as before
    failing = (8, 3, -3, -1)
    assert min(_orbit_of(*failing)) == failing
    all_roots_rows = polycore._all_roots_rows

    def flaky(rows):
        return [ConvergenceFailure("no convergence") if row == failing
                else roots for row, roots in zip(rows, all_roots_rows(rows))]

    clean = scan_conjecture(9, [-3, 3])
    monkeypatch.setattr(polycore, "_all_roots_rows", flaky)
    cache = str(tmp_path / "cache.jsonl")
    hits = scan_conjecture(9, [-3, 3], cache_path=cache)
    records = {r.key: r for r in _cache_records(cache)}
    assert len(records) == len(_cells(9, [-3, 3], (-1, 1), True))
    for key, rec in records.items():
        if key in _orbit_of(*failing):
            assert (rec.reducible, rec.factor_degrees, rec.certificate) == (False, (), "error")
            assert (rec.measure, rec.house) == (None, None)
            assert rec.error == "ConvergenceFailure: no convergence"
        else:
            assert rec.error is None and rec.measure is not None
    assert [r for r in hits if r.error is None] == [
        r for r in clean if r.key not in _orbit_of(*failing)]
    assert sorted(r.key for r in hits if r.error) == sorted(_orbit_of(*failing))


def test_scan_orbit_mapping_errors_are_records(monkeypatch):
    orbit = sorted(_orbit_of(8, 3, 3, -1))
    task = [(orbit[0], orbit)]  # the leader is the least cell
    good = scan._scan_task(task)
    assert [r.error for r in good] == [None] * 4
    assert all(r.factor_degrees == (3, 5) for r in good)
    # a wrong factor map (here: none) fails the re-expansion check of every
    # cell but the leader, whose move is the identity; the cells themselves
    # come from the tuples, not from _map_factor
    monkeypatch.setattr(scan, "_map_factor", lambda g, negate, reverse: g)
    bad = scan._scan_task(task)
    assert bad[0] == good[0]
    assert all(r.certificate == "error" and r.measure is None
               and r.error.startswith("InternalVerificationFailure") for r in bad[1:])

    # an error of the shared factorization is every cell's record
    def broken(poly):
        raise ValueError("boom")

    monkeypatch.setattr(factor, "is_irreducible", broken)
    assert [r.error for r in scan._scan_task(task)] == ["ValueError: boom"] * 4


@pytest.mark.parametrize("item, error", [
    ((5, 7, 3, 1), "ValueError: need 0 < m < n, got m=-2, n=5"),
    ((5, 2, 0, 1), "ValueError: a and b must be nonzero"),
    ((5, 2, 3.5, 1), "NonIntegerCoefficient: expected an integer coefficient, got -3.5"),
    ((5, 2, 10**400, 1), "ValueError: coefficient too large for floating point"),
])
def test_one_cell_record_of_a_cell_that_fails_is_an_error_record(item, error):
    rec = compute_scan_record(item)
    assert (rec.key, rec.certificate, rec.measure, rec.error) == (item, "error", None, error)


def test_scan_cache_resume_split_orbits(tmp_path):
    cache = str(tmp_path / "cache.jsonl")
    full = scan_conjecture(10, [-3, -2, 2, 3], cache_path=cache)
    lines = open(cache).read().strip().splitlines()
    # every other line kept: most orbits are split between cache and rerun
    with open(cache, "w") as fh:
        fh.write("\n".join(lines[::2]) + "\n")
    assert scan_conjecture(10, [-3, -2, 2, 3], cache_path=cache) == full
    keys = [r.key for r in _cache_records(cache)]
    assert len(keys) == len(set(keys)) == len(lines)


def test_scan_drops_each_degrees_irreducible_records(monkeypatch):
    # no orbit spans two degrees, so a degree's irreducible records are
    # dropped once it is done: when the first orbit of degree n is scanned,
    # none of degree n - 2 or lower is still alive (one of degree n - 1 may
    # be, in a loop variable)
    alive = []
    seen = set()
    scan_task = scan._scan_task

    def spy(task):
        n = task[0][0][0]  # the first leader's
        if n not in seen:
            seen.add(n)
            gc.collect()
            stale = [r.key for r in (ref() for ref in alive) if r and r.n <= n - 2]
            assert stale == []
        records = scan_task(task)
        alive.extend(weakref.ref(r) for r in records if not r.reducible and not r.error)
        return records

    monkeypatch.setattr(scan, "_scan_task", spy)
    hits = scan_conjecture(12, [-3, -2, 2, 3])
    assert seen == set(range(3, 13)) and len(alive) > 100
    assert hits and all(r.reducible for r in hits)


def test_record_json_round_trip():
    rec = compute_scan_record((8, 3, 3, -1))
    parsed = record_from_dict(json.loads(json.dumps(record_to_dict(rec))))
    assert parsed == rec  # elapsed is excluded from equality
    rec2 = ScanRecord(**{**record_to_dict(rec), "factor_degrees": rec.factor_degrees,
                         "elapsed": 123.0})
    assert rec2 == rec


def test_scan_pool_is_capped_at_the_task_count(tmp_path, monkeypatch):
    # a pool forks all its workers at once, so a scan asks for no more
    # workers than it has tasks, one per (n, {m, n - m}) group of orbits at
    # these degrees, each mapped alone; the fake pool maps serially and
    # starts none
    import concurrent.futures

    sizes, chunks = [], set()

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable, chunksize=1):
            chunks.add(chunksize)
            return map(fn, iterable)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    args = (9, [-3, 3])
    cache = tmp_path / "cache.jsonl"
    clean = scan_conjecture(*args, cache_path=str(cache))
    assert sizes == []
    orbits = {_orbit_of(*cell) for cell in _cells(*args, (-1, 1), True)}
    tasks = [task for cells in scan._degrees(*args, (-1, 1), True)
             for task in scan._tasks(cells)]
    assert len(tasks) == len({min(o)[:2] for o in orbits}) < len(orbits)
    assert scan_conjecture(*args, threads=2) == clean
    assert scan_conjecture(*args, threads=len(tasks) + 5) == clean
    assert sizes == [2, len(tasks)] and chunks == {1}
    # resumed with three tasks pending, then with one, which needs no pool
    for dropped, size in (([task[0] for task in tasks[:3]], [3]), (tasks[0][:1], [])):
        sizes.clear()
        drop = {cell for _, cells in dropped for cell in cells}
        cache.write_text("".join(
            line for line in cache.read_text().splitlines(keepends=True)
            if record_from_dict(json.loads(line)).key not in drop))
        assert scan_conjecture(*args, threads=8, cache_path=str(cache)) == clean
        assert sizes == size


def test_scan_cache_skips_json_that_is_not_a_record(tmp_path, capsys):
    # valid JSON lines that are not records are skipped like a torn line,
    # and their cells recomputed, and blank lines are skipped: the report is
    # a fresh scan's
    argv = ("scan", "--n-max", "9", "--a", "-3,3", "--format", "json")
    cache = tmp_path / "cache.jsonl"
    rc, fresh = run_cli(tmp_path, *argv)
    assert rc == 0 and fresh
    assert run_cli(tmp_path, *argv, "--cache", str(cache)) == (0, fresh)
    lines = cache.read_text().splitlines()
    hit = next(i for i, line in enumerate(lines) if json.loads(line)["reducible"])
    broken = {**json.loads(lines[hit]), "factor_degrees": None}
    lines[hit] = json.dumps(broken)
    cache.write_text("\n".join(["[]", "7", "", " \t ", *lines]) + "\n")
    capsys.readouterr()
    assert run_cli(tmp_path, *argv, "--cache", str(cache)) == (0, fresh)
    assert "scan" in json.loads(capsys.readouterr().err)
    # the one cell recomputed is the one whose record had no factor degrees
    *_, last = cache.read_text().splitlines()
    assert record_from_dict(json.loads(last)).key == tuple(broken[k] for k in "nmab")


@pytest.mark.parametrize("cell, edit", [
    # bool("false") is True: the irreducible cell would be a reducible hit
    ((9, 2, 3, 1), {"reducible": "false"}),
    # "35" would read as the factor degrees (3, 5) of a reducible hit
    ((9, 2, 3, 1), {"reducible": True, "factor_degrees": "35"}),
    # 8.5 would read as 8, and this irreducible record would then replace
    # the one of the reducible cell (8, 5, 3, -1)
    ((9, 5, 3, -1), {"n": 8.5}),
])
def test_scan_cache_recomputes_fields_of_the_wrong_type(tmp_path, cell, edit):
    argv = ("scan", "--n-max", "9", "--a", "-3,3", "--format", "json")
    cache = tmp_path / "cache.jsonl"
    rc, fresh = run_cli(tmp_path, *argv)
    assert rc == 0 and len(fresh.splitlines()) == 4
    assert run_cli(tmp_path, *argv, "--cache", str(cache)) == (0, fresh)
    lines = cache.read_text().splitlines()
    i = next(i for i, line in enumerate(lines)
             if tuple(json.loads(line)[k] for k in "nmab") == cell)
    edited = {**json.loads(lines.pop(i)), **edit}
    with pytest.raises(ValueError, match="not a scan record"):
        record_from_dict(edited)
    # last, so that a line read as a record would override the real one
    cache.write_text("\n".join([*lines, json.dumps(edited)]) + "\n")
    assert run_cli(tmp_path, *argv, "--cache", str(cache)) == (0, fresh)
    # the edited cell, and no other, is recomputed and appended
    *_, last = cache.read_text().splitlines()
    assert record_from_dict(json.loads(last)).key == cell
    assert len(cache.read_text().splitlines()) == len(lines) + 2


# -------------------------------------------------------- convergence

def test_convergence_gaps_shrink_for_dominant_a():
    rows = convergence_table(3, 1, [6, 10, 14], "fixed:1")
    assert [r.n for r in rows] == [6, 10, 14]
    assert all(r.limit == 3.0 for r in rows)
    gaps = [r.gap for r in rows]
    assert gaps[0] > gaps[1] > gaps[2] > 0


def test_convergence_exact_for_dominant_b():
    rows = convergence_table(1, 3, [5, 8, 11], "fixed:1")
    assert all(r.gap < 1e-9 for r in rows)


def test_convergence_oscillatory_limit_constant():
    rows = convergence_table(1, 1, [6, 10], "half")
    assert all(r.limit == pytest.approx(1.381356, abs=1e-5) for r in rows)
    assert all(math.gcd(r.m, r.n) == 1 for r in rows)


def test_convergence_m_rules():
    rows = convergence_table(3, 1, [7], "last")
    assert rows[0].m == 6
    rows = convergence_table(3, 1, [9], "half")
    assert rows[0].m == 4
    with pytest.raises(ValueError):
        convergence_table(3, 1, [6], "fixed:2")
    with pytest.raises(ValueError):
        convergence_table(3, 1, [6], "whatever")


def test_convergence_refuses_a_nan_measure():
    # the solve overflows from n = 56: its roots come out NaN and the measure
    # from them would read 1.0, where the true value is about 1e6
    assert convergence_table(10**6, -1, [52], "last")[0].measure == pytest.approx(1e6)
    with pytest.raises(ConvergenceFailure, match="n=56, m=55"):
        convergence_table(10**6, -1, [52, 56, 60], "last")
    with pytest.raises(ConvergenceFailure, match="n=10, m=1"):
        convergence_table(1e300, 1, [10], "fixed:1")


def test_convergence_refuses_a_degree_that_is_not_an_integer():
    # int() read 10.9 as 10 and reported a row for n = 10
    with pytest.raises(ValueError, match="n must be an integer, got 10.9"):
        convergence_table(3, 1, [10.9, 20.2])
    assert convergence_table(3, 1, [10.0]) == convergence_table(3, 1, [10])


def test_convergence_keeps_an_infinite_bound(monkeypatch):
    # as in `measure`, an infinite error bound is a bound, not a failure
    monkeypatch.setattr(mahler, "measure_from_roots", lambda spec: mahler.MeasureResult(
        3.5, math.log(3.5), "roots", math.inf))
    assert [r.measure for r in convergence_table(3, 1, [6, 10], "fixed:1")] == [3.5, 3.5]


# -------------------------------------------------------- CLI

def run_cli(tmp_path, *argv):
    out = tmp_path / "out.txt"
    rc = cli_dispatch([*argv, "--out", str(out)])
    return rc, out.read_text() if out.exists() else ""


def test_cli_measure_all_methods(tmp_path):
    rc, text = run_cli(tmp_path, "measure", "3", "1", "-1", "-1",
                       "--method", "all", "--format", "json")
    assert rc == 0
    env = json.loads(text)
    assert env["tool_version"]
    by_method = {r["method"]: r for r in env["records"]}
    assert by_method["roots"]["value"] == pytest.approx(1.3247179572, abs=1e-8)
    assert by_method["jensen"]["value"] == pytest.approx(1.3247179572, abs=1e-8)
    assert "DominanceViolated" in by_method["series"]["error"]


def test_cli_limit_json(tmp_path):
    rc, text = run_cli(tmp_path, "limit", "1", "1", "--format", "json")
    assert rc == 0
    rec = json.loads(text)["records"][0]
    assert rec["case"] == "oscillatory"
    assert rec["gamma"] == pytest.approx(2 * math.pi / 3, abs=1e-12)
    assert rec["value"] == pytest.approx(1.381356, abs=1e-5)


def test_cli_limit_at_the_double_range_top(tmp_path):
    # 1e308 + (1e308 + 1) overflows unless the triangle's sides are scaled down
    rc, text = run_cli(tmp_path, "limit", "1e308", "1e308", "--format", "json")
    assert rc == 0
    rec = json.loads(text)["records"][0]
    assert (rec["value"], rec["gamma"]) == (1e308, math.pi)
    rc, text = run_cli(tmp_path, "limit", "1e308", "1e308")
    assert rc == 0 and "value = 1e+308" in text


def test_cli_house_roots_factor_irreducible(tmp_path):
    rc, text = run_cli(tmp_path, "house", "3", "1", "-2", "-1", "--format", "json")
    assert rc == 0
    assert json.loads(text)["records"][0]["house"] == pytest.approx((1 + 5**0.5) / 2, abs=1e-9)

    rc, text = run_cli(tmp_path, "roots", "4", "1", "-3", "1",
                       "--classify", "--format", "json")
    assert rc == 0
    env = json.loads(text)
    assert env["config"]["family"] == "R" and env["config"]["certified"] is True
    labels = {r["label"]: r["value"] for r in env["records"] if "label" in r}
    assert labels["r1"] == pytest.approx(1.3074861009619814, rel=4 * sys.float_info.epsilon, abs=0)

    # a root near 1e-15, below any absolute stopping width, matches its root row
    rc, text = run_cli(tmp_path, "roots", "3", "1", "1000000000000000", "-1",
                       "--classify", "--format", "json")
    assert rc == 0
    records = json.loads(text)["records"]
    (row,) = [r["re"] for r in records if r.get("im") == 0.0]
    (s1,) = [r["value"] for r in records if r.get("label") == "s1"]
    assert s1 == pytest.approx(row, rel=4 * sys.float_info.epsilon, abs=0)

    # the Aberth iteration count rides in the envelope's config; on the
    # boundary |a| = |b| + 1 the roots start on the generic circle, off it on
    # the Newton-polygon rings
    for n, m, a, b in ((240, 77, 0.5, 4), (24, 5, 2, -1)):
        rc, text = run_cli(tmp_path, "roots", *map(str, (n, m, a, b)), "--format", "json")
        config = json.loads(text)["config"]
        assert rc == 0 and config["certified"] is True
        rs = polycore.all_roots(TrinomialSpec(n, m, a, b))
        assert config["iterations"] == rs.iterations > 0

    rc, text = run_cli(tmp_path, "factor", "6", "2", "56", "-1", "--format", "json")
    assert rc == 0
    recs = json.loads(text)["records"]
    assert [tuple(r["coeffs"]) for r in recs] == [(-1, 8, -4, 1), (1, 8, 4, 1)]

    rc, text = run_cli(tmp_path, "irreducible", "5", "2", "9", "1", "--format", "json")
    assert json.loads(text)["records"][0]["certificate"] == "threshold"


def test_cli_series_trace_and_bounds(tmp_path):
    rc, text = run_cli(tmp_path, "series", "5", "2", "3", "1", "--trace", "--format", "json")
    assert rc == 0
    recs = json.loads(text)["records"]
    assert recs[0]["method"] == "series"
    assert recs[1]["k"] == 1

    rc, text = run_cli(tmp_path, "bounds", "4", "1", "3", "--family", "R", "--format", "json")
    rec = json.loads(text)["records"][0]
    assert rec["satisfied"] is True and rec["bound"] == pytest.approx(1 + math.log(2) / 3)

    rc, text = run_cli(tmp_path, "compare-bounds", "10", "--format", "csv")
    assert rc == 0 and text.splitlines()[0].startswith("n,")

    rc, text = run_cli(tmp_path, "extremal", "3", "1", "2", "--family", "T", "--format", "json")
    rec = json.loads(text)["records"][0]
    assert rec["verdict"] == "not-extremal" and rec["sign_certificate"] < 0


def test_cli_scan_json_lines(tmp_path):
    rc, text = run_cli(tmp_path, "scan", "--n-max", "8", "--a", "-3,3", "--format", "json")
    assert rc == 0
    rows = [json.loads(line) for line in text.strip().splitlines()]
    assert len(rows) == 4
    assert all("elapsed" not in r for r in rows)
    assert rows == sorted(rows, key=lambda r: (r["n"], r["m"], abs(r["a"]), r["a"] > 0, r["b"]))


def test_cli_converge_csv(tmp_path):
    rc, text = run_cli(tmp_path, "converge", "--a", "3", "--b", "1",
                       "--n", "6,10", "--format", "csv")
    assert rc == 0
    lines = text.strip().splitlines()
    assert lines[0] == "n,m,measure,limit,gap"
    assert len(lines) == 3


def test_cli_exit_codes(tmp_path, capsys):
    # domain error -> 1 with a JSON error object on stderr in json mode
    rc = cli_dispatch(["measure", "3", "1", "0", "1", "--format", "json"])
    assert rc == 1
    # the real-root bisection overflows to NaN: a typed error, not OverflowError
    rc = cli_dispatch(["roots", "60", "59", "-1000000", "-1", "--classify",
                       "--format", "json"])
    assert rc == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"]["type"] == "ClassificationMismatch"
    # usage error -> 2
    assert cli_dispatch(["measure", "3"]) == 2
    assert cli_dispatch(["nope"]) == 2
    # missing required option
    assert cli_dispatch(["scan", "--a", "3"]) == 2


@pytest.mark.parametrize("argv", [
    ("scan", "--n-max", "5", "--a", ","),
    ("scan", "--n-max", "5", "--a", "3", "--signs", ","),
    ("scan", "--n-max", "5", "--a", " , "),
    ("converge", "--a", "3", "--b", "1", "--n", ","),
], ids=str)
def test_cli_refuses_an_empty_int_list(argv, tmp_path, capsys):
    # a list with no entry is a usage error, not an empty scan or table
    assert cli_dispatch([*argv, "--out", str(tmp_path / "out.txt")]) == 2
    assert "not a comma-separated int list" in capsys.readouterr().err
    assert not (tmp_path / "out.txt").exists()


@pytest.mark.parametrize("argv, rc", [
    (("measure", "3", "1", "nan", "1"), 1),
    (("house", "5", "2", "inf", "1"), 1),
    (("limit", "1", "inf"), 1),
    (("series", "5", "2", "inf", "1"), 1),
    (("bounds", "4", "1", "1e400", "--family", "R"), 1),
    # ints of any size stay legal: the factorizer needs them exact
    (("irreducible", "3", "1", str(10**400), "1"), 0),
])
def test_cli_refuses_non_finite_coefficients(argv, rc, tmp_path):
    assert run_cli(tmp_path, *argv)[0] == rc


def test_cli_converge_half_without_coprime_m(capsys):
    # n = 1 has no m with 0 < m < n
    assert cli_dispatch(["converge", "--a", "3", "--b", "1", "--n", "1",
                         "--m-rule", "half"]) == 1
    assert "coprime" in capsys.readouterr().err
    # nor is a fixed m outside 0 < m < n
    assert cli_dispatch(["converge", "--a", "3", "--b", "1", "--n", "4",
                         "--m-rule", "fixed:5"]) == 1
    assert capsys.readouterr().err == "error: fixed m=5 invalid for n=4\n"


@pytest.mark.parametrize("rule", ["fixed:x", "fixed:", "fixed:1.5"])
def test_cli_converge_names_a_malformed_fixed_rule(rule, capsys):
    assert cli_dispatch(["converge", "--a", "3", "--b", "1", "--n", "10",
                         "--m-rule", rule]) == 1
    assert capsys.readouterr().err == (
        f"error: unknown m rule {rule!r} (use fixed:<m>, last, or half)\n")


def test_cli_seed_flag_removed():
    assert cli_dispatch(["house", "3", "1", "-2", "-1", "--seed", "1"]) == 2
    assert cli_dispatch(["scan", "--n-max", "5", "--a", "3", "--seed", "1"]) == 2


@pytest.mark.parametrize("value", ["0", "-3", "x"])
def test_cli_scan_threads_must_be_positive(value, tmp_path):
    out = tmp_path / "scan.jsonl"
    assert cli_dispatch(["scan", "--n-max", "5", "--a", "3", "--threads", value,
                         "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("flag", [["--threads", "2"], ["--cache", "c.jsonl"]])
def test_cli_scan_flags_are_scan_only(flag):
    assert cli_dispatch(["house", "3", "1", "-2", "-1", *flag]) == 2


TOLERANCE_READERS = [
    ["measure", "5", "2", "3", "1", "--method", "all"],
    ["series", "5", "2", "3", "1"],
]
TOLERANCE_NON_READERS = [
    ["house", "5", "2", "3", "1"],
    ["limit", "1", "1"],
    ["roots", "5", "2", "3", "1"],
    ["factor", "5", "2", "3", "1"],
    ["irreducible", "5", "2", "3", "1"],
    ["bounds", "4", "1", "3", "--family", "R"],
    ["compare-bounds", "10"],
    ["extremal", "3", "1", "2", "--family", "T"],
    ["scan", "--n-max", "5", "--a", "3"],
    ["converge", "--a", "3", "--b", "1", "--n", "6"],
]


@pytest.mark.parametrize("argv", TOLERANCE_READERS, ids=lambda argv: argv[0])
def test_cli_tolerance_accepted_where_read(argv, tmp_path):
    rc, text = run_cli(tmp_path, *argv, "--tolerance", "1e-3", "--format", "json")
    assert rc == 0
    assert json.loads(text)["config"]["tolerance"] == 1e-3


@pytest.mark.parametrize("argv", TOLERANCE_NON_READERS, ids=lambda argv: argv[0])
def test_cli_tolerance_rejected_where_not_read(argv, tmp_path):
    out = tmp_path / "out.txt"
    assert cli_dispatch([*argv, "--tolerance", "1e-3", "--out", str(out)]) == 2
    assert not out.exists()


def test_cli_series_tolerance_reaches_the_sum(tmp_path, monkeypatch):
    def term_rows(*extra):
        rc, text = run_cli(tmp_path, "series", "5", "2", "3", "1", "--trace",
                           "--format", "json", *extra)
        assert rc == 0
        return len(json.loads(text)["records"]) - 1

    assert 0 < term_rows("--tolerance", "1e-3") < term_rows()
    # the old series-only --tol is gone, and no prefix of --tolerance stands in
    assert cli_dispatch(["series", "5", "2", "3", "1", "--tol", "1e-6"]) == 2

    # the quadrature readers get the same value
    from trinotool import mahler

    real, seen = mahler.integrate, []

    def spy(*args, **kwargs):
        seen.append(inspect.signature(real).bind(*args, **kwargs).arguments.get("tol"))
        return real(*args, **kwargs)

    monkeypatch.setattr(mahler, "integrate", spy)
    # Jensen integrates once, at tol: the quadrature goes on to tol/10 itself
    assert run_cli(tmp_path, "measure", "5", "2", "3", "1", "--method", "jensen",
                   "--tolerance", "1e-3")[0] == 0
    assert seen == [1e-3]


@pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
def test_cli_tolerance_must_be_positive_finite(value):
    assert cli_dispatch(["measure", "5", "2", "3", "1", "--method", "jensen",
                         "--tolerance", value]) == 2


# each value once stopped argparse with "the following arguments are required"
@pytest.mark.parametrize("argv, value", [
    (("house", "3", "1", "-1e3", "1"), "-1e3"),
    (("limit", "2", "-.5"), "-.5"),
    (("measure", "5", "2", "3", "-2.5E1", "--method", "jensen"), "-2.5E1"),
    (("converge", "--a", "-1e3", "--b", "1", "--n", "5"), "-1e3"),
    (("converge", "--a", "3", "--b", "-.5", "--n", "5"), "-.5"),
    # roots overflow here, a NaN refused with exit 1 however a is written
    (("measure", "60", "59", "-1e6", "-1", "--method", "jensen"), "-1e6"),
], ids=lambda x: x if isinstance(x, str) else x[0])
@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
def test_cli_reads_every_negative_number_form(argv, value, fmt, tmp_path):
    # a dash and a digit, or a dash, a dot and a digit, is a value: the
    # command prints what it prints for the float _num reads, in every format
    plain = [str(_num(value)) if arg == value else arg for arg in argv]
    assert plain != list(argv)
    rc, text = run_cli(tmp_path, *argv, "--format", fmt)
    assert rc == 0 and text
    assert run_cli(tmp_path, *plain, "--format", fmt) == (0, text)


def test_cli_refuses_a_negative_value_that_is_no_number(capsys):
    assert cli_dispatch(["house", "3", "1", "-1x", "1"]) == 2
    assert "not a number: '-1x'" in capsys.readouterr().err


@pytest.mark.parametrize("a, shown", [("3+1j", "(3+1j)"), ("3+0j", 3.0)])
def test_cli_json_writes_a_complex_coefficient(a, shown, tmp_path):
    # a complex with an imaginary part is its str; one without is its real part
    rc, text = run_cli(tmp_path, "measure", "5", "2", a, "1", "--format", "json")
    assert rc == 0
    a_out = json.loads(text)["config"]["a"]
    assert (type(a_out), a_out) == (type(shown), shown)


def test_cli_measure_all_reports_each_failed_route(tmp_path):
    # z^3 - 3z + 2 = (z-1)^2 (z+2) sits where the series term ratio tends to 1,
    # so the series route fails beside two that succeed
    rc, text = run_cli(tmp_path, "measure", "3", "1", "-3", "2",
                       "--method", "all", "--format", "json")
    assert rc == 0
    roots, jensen, series = json.loads(text)["records"]
    assert roots["method"] == "roots" and roots["value"] == pytest.approx(2.0)
    assert jensen["method"] == "jensen" and jensen["value"] == pytest.approx(2.0)
    assert series["method"] == "series"
    assert series["error"].startswith("DivergenceDetected")
    # a single route still fails the command
    assert cli_dispatch(["measure", "3", "1", "-3", "2", "--method", "series"]) == 1


def test_cli_text_format_default(tmp_path, capsys):
    rc = cli_dispatch(["house", "3", "1", "-1", "-1"])
    assert rc == 0
    captured = capsys.readouterr()
    assert "house = 1.3247179572447" in captured.out


# -------------------------------------------------------- start-up

# Runs the CLI in a fresh interpreter, then reports what it loaded.  numpy
# counts as loaded once any numpy.* submodule is (whatever loader put the
# numpy package itself in sys.modules); "modules" names the trinotool.*
# modules loaded.
_LOADED_AFTER = """
import json, sys
from trinotool.cli import cli_dispatch
rc = cli_dispatch(sys.argv[1:])
print(json.dumps({"rc": rc,
                  "numpy": any(m.startswith("numpy.") for m in sys.modules),
                  "pool": "concurrent.futures.process" in sys.modules,
                  "modules": sorted(m.removeprefix("trinotool.") for m in sys.modules
                                    if m.startswith("trinotool."))}))
"""

# cli loads errors and polycore; each command adds only the modules its
# handler calls: factor and irreducible none of mahler, quadrature, bounds or
# scan, limit and series none of factor, bounds or scan, and compare-bounds
# none of mahler or quadrature
_CLI = ["cli", "errors", "polycore"]
_MODULES = {
    "factor": sorted([*_CLI, "factor"]),
    "irreducible": sorted([*_CLI, "factor"]),
    "limit": sorted([*_CLI, "mahler", "quadrature"]),
    "series": sorted([*_CLI, "mahler", "quadrature"]),
    "compare-bounds": sorted([*_CLI, "bounds"]),
    "roots": _CLI,
    "scan": sorted([*_CLI, "factor", "mahler", "quadrature", "scan"]),
}


def run_python(code, *argv):
    """stdout of code run in a fresh interpreter that imports trinotool from
    this checkout."""
    src = str(Path(polycore.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          capture_output=True, text=True, timeout=120, check=True).stdout


def loaded_after(tmp_path, *argv):
    return json.loads(run_python(_LOADED_AFTER, *argv, "--out", str(tmp_path / "out.txt")))


@pytest.mark.parametrize("argv", [
    ("factor", "33", "11", "67", "1"),
    ("irreducible", "14", "5", "4", "-1"),
    ("series", "5", "2", "3", "1", "--trace"),
    ("compare-bounds", "10"),
], ids=lambda argv: argv[0])
def test_integer_commands_never_load_numpy(argv, tmp_path):
    assert loaded_after(tmp_path, *argv) == {
        "rc": 0, "numpy": False, "pool": False, "modules": _MODULES[argv[0]]}


@pytest.mark.parametrize("argv", [("limit", "1", "1"), ("limit", "0.8", "0.7j")],
                         ids=["integer", "complex"])
def test_closed_form_limit_never_loads_numpy(argv, tmp_path):
    assert loaded_after(tmp_path, *argv) == {
        "rc": 0, "numpy": False, "pool": False, "modules": _MODULES["limit"]}


def test_complete_cache_scan_loads_neither_numpy_nor_the_pool(tmp_path):
    argv = ("scan", "--n-max", "10", "--a", "-3,3", "--threads", "2",
            "--cache", str(tmp_path / "cache.jsonl"))
    assert run_cli(tmp_path, *argv)[0] == 0
    assert loaded_after(tmp_path, *argv) == {
        "rc": 0, "numpy": False, "pool": False, "modules": _MODULES["scan"]}


def test_roots_loads_numpy(tmp_path):
    # the positive control: the check above can see numpy
    loaded = loaded_after(tmp_path, "roots", "4", "1", "-3", "1")
    assert loaded["numpy"] is True and loaded["modules"] == _MODULES["roots"]


def test_pooled_scan_loads_numpy_in_the_parent(tmp_path):
    # the parent computes nothing itself: numpy is loaded there before the
    # workers fork, so that they inherit it
    assert loaded_after(tmp_path, "scan", "--n-max", "10", "--a", "-3,3",
                        "--threads", "2") == {
        "rc": 0, "numpy": True, "pool": True, "modules": _MODULES["scan"]}


def test_bare_import_loads_no_submodule():
    # dir() lists every public name without loading a module to find it
    loaded = json.loads(run_python(
        "import json, sys, trinotool; names = dir(trinotool); "
        "print(json.dumps({'dir': names, 'modules': sorted(sys.modules)}))"))
    assert [m for m in loaded["modules"] if m.startswith(("trinotool.", "numpy"))] == []
    assert set(trinotool.__all__) <= set(loaded["dir"])


# __all__ as the eager package built it from its imports, pinned so that the
# lazy name table neither drops nor adds a public name
_PUBLIC = [
    "ClassificationMismatch", "ComparisonBounds", "ConvergenceFailure", "ConvergenceRow",
    "CoprimalityViolated", "DivergenceDetected", "DominanceViolated", "ExtremalityVerdict",
    "FactorizationResult", "FamilyForm", "GcdNotOne", "HouseBoundReport", "IntPolynomial",
    "InternalVerificationFailure", "IrreducibilityVerdict", "LimitCase", "LimitRegime",
    "MeasureResult", "NonIntegerCoefficient", "NotRepresentable", "ParityViolated",
    "QuadResult", "QuadratureBudgetExceeded", "RootSet", "ScanRecord", "SchinzelReport",
    "SeriesTerm", "TrinomialSpec", "TrinotoolError", "all_roots", "bounds",
    "check_extremality", "classify_real_roots", "comparison_bounds", "convergence_table",
    "errors", "evaluate", "factor", "factorize", "house", "house_lower_bound", "integrate",
    "is_irreducible", "is_reciprocal", "limit_case", "limit_measure", "mahler",
    "measure_from_roots", "measure_jensen", "normalize", "polycore", "quadrature",
    "residue_term", "scan", "scan_conjecture", "schinzel_conditions", "series_measure",
    "threshold_irreducible", "to_dense",
]


def test_package_surface_is_unchanged():
    assert trinotool.__all__ == _PUBLIC
    for name in _PUBLIC:
        value = getattr(trinotool, name)
        if inspect.ismodule(value):
            assert value is sys.modules[f"trinotool.{name}"]
        else:
            assert value.__module__ == f"trinotool.{trinotool._MODULE_OF[name]}"
            assert value is getattr(sys.modules[value.__module__], name)
        assert name in dir(trinotool)
    # _EXPORTS is the one list of public names: no module keeps its own
    assert [m for m in trinotool._EXPORTS if "__all__" in vars(getattr(trinotool, m))] == []
    namespace = {}
    exec("from trinotool import *", namespace)
    assert namespace.keys() - {"__builtins__"} == set(_PUBLIC)
    with pytest.raises(AttributeError, match="no_such_name"):
        trinotool.no_such_name
    with pytest.raises(ImportError):
        exec("from trinotool import no_such_name", {})


# -------------------------------------------------------- NaN refusal

@pytest.mark.parametrize("argv", [
    ("roots", "60", "59", "-1000000", "-1"),
    ("measure", "7", "3", "1e300", "1"),
    ("house", "7", "3", "1e300", "1"),
    ("converge", "--a", "1000000", "--b", "-1", "--n", "52,56,60", "--m-rule", "last"),
], ids=lambda argv: argv[0])
@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
def test_cli_refuses_nan_output(argv, fmt, tmp_path, capsys):
    rc, text = run_cli(tmp_path, *argv, "--format", fmt)
    assert rc == 1 and text == ""
    err = capsys.readouterr().err.strip().splitlines()[-1]
    if fmt == "json":
        assert json.loads(err)["error"]["type"] == "ConvergenceFailure"
    assert "NaN" in err


def _partly_nan_roots(spec):
    # three roots near 1e-100 and four NaN roots, finite ones first: the
    # shape of a solve of (7, 3, 1e300, 1) that lost only some of its roots
    roots = (*(complex(1e-100, k * 1e-101) for k in range(3)),
             *(complex(math.nan, math.nan),) * 4)
    return polycore.RootSet(roots=roots, residual_bound=0.0, certified=True, iterations=1)


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_cli_house_refuses_a_partly_nan_root_set(fmt, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(polycore, "all_roots", _partly_nan_roots)
    rc, text = run_cli(tmp_path, "house", "7", "3", "1e300", "1", "--format", fmt)
    assert rc == 1 and text == ""
    err = capsys.readouterr().err.strip().splitlines()[-1]
    if fmt == "json":
        assert json.loads(err)["error"]["type"] == "ConvergenceFailure"
    assert "house came out NaN" in err


def test_scan_house_is_nan_when_any_root_is(monkeypatch):
    # with and without the reversal: max|z| and 1/min|z| both see the NaN
    monkeypatch.setattr(polycore, "_all_roots_rows",
                        lambda specs: [_partly_nan_roots(p) for p in specs])
    orbit = sorted(_orbit_of(7, 3, 3, 1))
    records = scan._scan_task([(orbit[0], orbit)])
    assert len(records) == 4
    assert all(math.isnan(r.house) for r in records), records


def test_cli_measure_all_nan_route_is_an_error_row(tmp_path):
    rc, text = run_cli(tmp_path, "measure", "7", "3", "1e300", "1",
                       "--method", "all", "--format", "json")
    assert rc == 0
    roots, jensen, series = json.loads(text)["records"]
    assert roots == {"method": "roots", "error": "ConvergenceFailure: error_bound came out NaN"}
    assert jensen["value"] == pytest.approx(1e300, rel=1e-9)
    assert series["value"] == pytest.approx(1e300, rel=1e-9)


def test_cli_prints_infinite_error_bounds(tmp_path):
    out = _Output(argparse.Namespace(format="json", out=str(tmp_path / "out.txt")))
    out.emit([{"value": 2.0, "error_bound": math.inf}])
    assert json.loads((tmp_path / "out.txt").read_text())["records"] == [
        {"value": 2.0, "error_bound": math.inf}]
    with pytest.raises(ConvergenceFailure):
        out.emit([{"root": complex(1.0, math.nan)}])
