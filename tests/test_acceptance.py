"""Acceptance suite: one test per criterion, each printing a PASS line with
its elapsed time.  Tolerances and runtime budgets are pinned here and nowhere
else.  Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import json
import math
import random
import time

import pytest

from conftest import coprime_pairs
from trinotool.bounds import check_extremality, house_lower_bound
from trinotool.cli import cli_dispatch
from trinotool.errors import DominanceViolated
from trinotool.factor import factorize, threshold_irreducible
from trinotool.mahler import (
    limit_case,
    limit_measure,
    measure_from_roots,
    residue_term,
    series_measure,
)
from trinotool.polycore import (
    FamilyForm,
    IntPolynomial,
    TrinomialSpec,
    classify_real_roots,
    is_reciprocal,
    to_dense,
)
from trinotool.scan import scan_conjecture

THETA0_10 = 1.3247179572  # printed target for criterion 1


def _report(number: int, description: str, started: float) -> None:
    print(f"ACCEPTANCE {number:2d} PASS: {description} "
          f"({time.perf_counter() - started:.2f}s)")


def test_criterion_01_theta0_reproduction(tmp_path):
    t0 = time.perf_counter()
    out = tmp_path / "m.json"
    rc = cli_dispatch(["measure", "3", "1", "-1", "-1", "--method", "all",
                       "--format", "json", "--out", str(out)])
    assert rc == 0
    by_method = {r["method"]: r for r in json.loads(out.read_text())["records"]}
    assert by_method["roots"]["value"] == pytest.approx(THETA0_10, abs=1e-8)
    assert by_method["jensen"]["value"] == pytest.approx(THETA0_10, abs=1e-8)
    # series is ineligible at |a| - |b| = 0 and must refuse, not crash
    assert "DominanceViolated" in by_method["series"]["error"]
    with pytest.raises(DominanceViolated):
        series_measure(3, 1, -1, -1)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(1, "theta0 via roots+jensen, series refuses at |a|-|b|=0", t0)


def test_criterion_02_limit_constants():
    t0 = time.perf_counter()
    assert limit_measure(1, 1).value == pytest.approx(1.381356, abs=1e-5)
    assert limit_measure(3, 1).value == 3.0
    assert limit_measure(0.4, 0.5).value == 1.0
    assert limit_case(1, 1).gamma == pytest.approx(2 * math.pi / 3, abs=1e-12)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(2, "limit constants and gamma(1,1)", t0)


def test_criterion_03_series_roots_agreement():
    t0 = time.perf_counter()
    cells = 0
    for n, m in coprime_pairs(9, n_min=2):
        for a in (-5, -4, -3, 3, 4, 5):
            for b in (-1, 1):
                roots_val = measure_from_roots(TrinomialSpec(n, m, a, b)).value
                series_val = series_measure(n, m, a, b).value
                assert abs(series_val - roots_val) <= 1e-8, (n, m, a, b)
                cells += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _report(3, f"series vs roots on {cells} cells at 1e-8", t0)


def test_criterion_04_residue_oracle():
    t0 = time.perf_counter()
    rng = random.Random(20240817)
    zero_cases = 0
    for _ in range(50):
        n, m = rng.choice([p for p in coprime_pairs(8, n_min=3) if p[1] > 1 or True])
        a = rng.choice([x for x in range(-6, 7) if abs(x) >= 2])
        b = rng.choice([-1, 1])
        for k in range(1, 9):
            term = residue_term(k, n, m, a, b, with_quadrature=True)
            # for real (a, b) the closed form reconstructs I_k = -2 pi k c_k
            closed_ik = -2 * math.pi * k * term.closed_form
            assert abs(term.i_k - closed_ik) <= 1e-8, (k, n, m, a, b)
            if k % m:
                assert term.closed_form == 0.0
                zero_cases += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report(4, f"closed-form vs quadrature I_k, {zero_cases} zero cases", t0)


# the complete list of reducible x^n + a x^m +/- 1 with |a| in {3, 4}
CONJECTURE_LIST = {
    (8, 3, 3, -1), (8, 3, -3, -1), (8, 5, 3, -1), (8, 5, -3, -1),
    (13, 4, 3, -1), (13, 4, -3, 1),
    (13, 6, -3, -1), (13, 6, 3, 1),
    (13, 7, 3, 1), (13, 7, 3, -1),
    (13, 9, -3, 1), (13, 9, -3, -1),
    (14, 5, 4, -1), (14, 5, -4, -1),
    (14, 9, 4, -1), (14, 9, -4, -1),
}


def test_criterion_05_conjecture_scan(tmp_path):
    t0 = time.perf_counter()
    out = tmp_path / "scan14.jsonl"
    rc = cli_dispatch(["scan", "--n-max", "14", "--a", "-4,-3,3,4",
                       "--threads", "4", "--format", "json", "--out", str(out)])
    assert rc == 0
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    assert all("error" not in r for r in rows)
    assert {(r["n"], r["m"], r["a"], r["b"]) for r in rows} == CONJECTURE_LIST
    assert len(rows) == 16
    none_expected = scan_conjecture(12, [-8, -7, -6, -5, 5, 6, 7, 8], (-1, 1),
                                    threads=4)
    assert none_expected == []
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    _report(5, "exactly the 16 listed reducible trinomials; none for |a| in 5..8", t0)


def test_every_height_scan_to_16():
    # every height at n <= 16: 3|a| >= n^2 = 256 certifies |a| >= 86
    # irreducible, so 2 <= |a| <= 85 covers every reducible x^n + a x^m +/- 1
    # with gcd(m, n) = 1.  Its |a| >= 3 rows are the listed ones; every row's
    # factor degrees are sympy's
    sympy = pytest.importorskip("sympy")
    t0 = time.perf_counter()
    rows = scan_conjecture(16, [a for a in range(-85, 86) if abs(a) >= 2], (-1, 1),
                           threads=2)
    assert len(rows) == 176
    assert {r.key for r in rows if abs(r.a) >= 3} == CONJECTURE_LIST
    x = sympy.Symbol("x")
    for r in rows:
        _, factors = sympy.factor_list(x**r.n + r.a * x**r.m + r.b, x)
        degrees = sorted(sympy.degree(g, x) for g, k in factors for _ in range(k))
        assert (r.reducible, r.error, list(r.factor_degrees)) == (True, None, degrees), r
    _report(5, "every height to n <= 16: 176 rows, the |a| >= 3 ones listed", t0)


def test_criterion_06_threshold_consistency():
    t0 = time.perf_counter()
    cells = 0
    for n, m in coprime_pairs(10, n_min=3):
        lo = math.ceil(n * n / 3)
        for a_abs in range(lo, lo + 6):
            for a in (a_abs, -a_abs):
                assert threshold_irreducible(n, m, a) is not None
                for b in (-1, 1):
                    dense = to_dense(TrinomialSpec(n, m, a, b))
                    assert factorize(dense).is_irreducible, (n, m, a, b)
                    cells += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    _report(6, f"threshold certificates confirmed by the factorizer on {cells} cells", t0)


def test_criterion_07_bremner_identities():
    t0 = time.perf_counter()
    f33 = factorize(to_dense(TrinomialSpec(33, 11, 67, 1)))
    assert any(p.coeffs == (1, 1, 0, 1) for p, _ in f33.factors)
    assert f33.expand() == to_dense(TrinomialSpec(33, 11, 67, 1))
    f6 = factorize(to_dense(TrinomialSpec(6, 2, 56, -1)))
    assert [p.coeffs for p, _ in f6.factors] == [(-1, 8, -4, 1), (1, 8, 4, 1)]
    _report(7, "x^33+67x^11+1 contains x^3+x+1; x^6+56x^2-1 splits exactly", t0)


def _sample_family(rng, fam, a_lo, a_hi, n_max, int_a=False):
    while True:
        n = rng.randint(3, n_max)
        m = rng.randint(1, n - 1)
        if math.gcd(m, n) != 1:
            continue
        if fam == "R" and (m % 2 == 0 or n % 2 == 1):
            continue
        if fam == "S" and (n % 2 == 0 or m % 2 == 1):
            continue
        a = rng.randint(int(a_lo), int(a_hi)) if int_a else rng.uniform(a_lo, a_hi)
        return FamilyForm(fam, n, m, a)


def test_criterion_08_house_bounds():
    t0 = time.perf_counter()
    rng = random.Random(88)
    labels = {"R": "r1", "S": "s3", "T": "t1"}
    for fam in ("R", "S", "T"):
        for _ in range(200):
            f = _sample_family(rng, fam, 2.0, 20.0, 40)
            root = abs(classify_real_roots(f)[labels[fam]])
            base = f.a if fam == "T" else f.a - 1
            bound = 1 + math.log(base) / (f.n - f.m)
            if fam == "T":
                assert root > bound - 1e-12, f
            else:
                assert root >= bound - 1e-10, f
            rep = house_lower_bound(f)
            assert rep.satisfied and rep.house >= root - 1e-10
            lhs = (1 + rep.t0) ** f.n
            rhs = base * (1 + rep.t0) ** f.m
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs)), f
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report(8, "house bounds and t0 identity on 200 samples per family", t0)


def test_criterion_09_extremality():
    t0 = time.perf_counter()
    rng = random.Random(99)
    for fam in ("R", "S", "T"):
        for _ in range(100):
            f = _sample_family(rng, fam, 3, 15, 30, int_a=True)
            assert check_extremality(f).verdict == "not-extremal", f
    for _ in range(100):
        f = _sample_family(rng, "T", 2, 15, 30, int_a=True)
        assert check_extremality(f).sign_certificate < 0, f
    _report(9, "a >= 3 never extremal; T sign certificate always negative", t0)


def test_criterion_10_cross_method_invariants():
    t0 = time.perf_counter()
    rng = random.Random(1010)

    for _ in range(100):  # multiplicativity
        p = IntPolynomial.of([rng.randint(-5, 5) for _ in range(rng.randint(1, 5))] + [rng.randint(1, 3)])
        q = IntPolynomial.of([rng.randint(-5, 5) for _ in range(rng.randint(1, 5))] + [rng.randint(1, 3)])
        if p.degree < 1 or q.degree < 1 or p.coeffs[0] == 0 or q.coeffs[0] == 0:
            continue
        assert measure_from_roots(p * q).value == pytest.approx(
            measure_from_roots(p).value * measure_from_roots(q).value, rel=1e-8)

    checked = 0  # Smyth bound on non-reciprocal samples
    while checked < 100:
        n, m = rng.choice(coprime_pairs(14))
        a = rng.choice([x for x in range(-6, 7) if x != 0])
        b = rng.choice([-1, 1])
        dense = to_dense(TrinomialSpec(n, m, a, b))
        if is_reciprocal(dense):
            continue
        assert measure_from_roots(dense).value >= 1.3247179572447460 - 1e-9
        checked += 1

    for _ in range(100):  # z -> z^k scaling invariance
        n, m = rng.choice(coprime_pairs(9))
        a = rng.choice([x for x in range(-6, 7) if x != 0])
        b = rng.choice([-1, 1])
        base = measure_from_roots(TrinomialSpec(n, m, a, b)).value
        k = rng.choice([2, 3])
        assert measure_from_roots(TrinomialSpec(k * n, k * m, a, b)).value == \
            pytest.approx(base, abs=1e-8)

    for _ in range(100):  # |b| - |a| >= 1 is exact for every n
        n, m = rng.choice(coprime_pairs(16))
        a = rng.choice([-1, 1]) * rng.randint(1, 3)
        b = rng.choice([-1, 1]) * (abs(a) + rng.randint(1, 5))
        assert measure_from_roots(TrinomialSpec(n, m, a, b)).value == \
            pytest.approx(abs(b), abs=1e-9)

    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _report(10, "multiplicativity, Smyth, scaling, exact dominant-b", t0)


def test_criterion_11_scan_determinism(tmp_path):
    t0 = time.perf_counter()
    outs = []
    for threads in ("1", "8"):
        path = tmp_path / f"scan{threads}.jsonl"
        rc = cli_dispatch(["scan", "--n-max", "12", "--a", "-3,3",
                           "--threads", threads, "--format", "json",
                           "--out", str(path)])
        assert rc == 0
        outs.append(path.read_bytes())
    assert outs[0] == outs[1] and outs[0]
    _report(11, "scan output byte-identical across --threads 1 and 8", t0)
