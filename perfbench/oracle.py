"""Independent checks of the program's outputs, run by the parent after the
timed region.

- Exact factorizations from ``sympy.factor_list``.
- Mahler measure and house from all roots at 30 digits (numpy's roots
  polished by Newton's method in mpmath, ``mpmath.polyroots`` for clustered
  roots), for n <= 40; above that,
  agreement between the program's routes within their own error bounds and
  the house from numpy's companion-matrix eigenvalues.
- The oscillatory limit from ``mpmath.quad`` of its closed-form integrand.
- The scan report against the pinned report in pinned_scan.json (itself
  checked once against sympy over every grid cell and mpmath for every hit).

Oracle values depend only on the inputs, so they are memoised in
.cache/oracle.json inside the benchmark directory.
"""

from __future__ import annotations

import json
import math
from math import gcd

import common

MP_DPS = 30
MP_MAX_DEGREE = 40
EPS = 2.220446049250313e-16
HOUSE_RTOL = 1e-8
PINNED_RTOL = 1e-9
# a measure within this relative distance of the truth is a right value even
# when it lies outside its own error bound (counted as a bound miss instead)
VALUE_RTOL = 1e-8


def _key(*parts) -> str:
    return repr(parts)


class Oracle:
    def __init__(self):
        self.path = common.CACHE_DIR / "oracle.json"
        try:
            with open(self.path, encoding="utf-8") as fh:
                self.memo = json.load(fh)
        except (OSError, ValueError):
            self.memo = {}
        self.dirty = False

    def save(self) -> None:
        if not self.dirty:
            return
        common.CACHE_DIR.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(".tmp")
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(self.memo, fh)
        tmp.replace(self.path)

    def _memo(self, section: str, key: str, compute):
        table = self.memo.setdefault(section, {})
        if key not in table:
            table[key] = compute()
            self.dirty = True
        return table[key]

    # -- polynomials over Z --------------------------------------------------

    def factorization(self, coeffs) -> list:
        """[content, sorted [[ascending coeffs], multiplicity] ...] by sympy."""
        def compute():
            import sympy
            x = sympy.Symbol("x")
            expr = sum(int(c) * x**k for k, c in enumerate(coeffs) if c)
            content, factors = sympy.factor_list(expr, x)
            out = []
            for f, mult in factors:
                asc = [int(c) for c in reversed(sympy.Poly(f, x).all_coeffs())]
                if asc[-1] < 0:  # primitive with positive leading coefficient
                    asc = [-c for c in asc]
                    content = content * (-1) ** mult
                out.append([asc, int(mult)])
            out.sort(key=lambda fm: (len(fm[0]), fm[0]))
            return [int(content), out]
        return self._memo("sympy", _key(tuple(coeffs)), compute)

    def factor_degrees(self, n, m, a, b) -> list[int]:
        coeffs = [0] * (n + 1)
        coeffs[0], coeffs[m], coeffs[n] = b, a, 1
        _, factors = self.factorization(coeffs)
        return sorted(len(f) - 1 for f, mult in factors for _ in range(mult))

    # -- trinomials over C ---------------------------------------------------

    def roots(self, n, m, a, b) -> dict:
        """Measure, house and roots of z^n + a z^m + b (n <= 40)."""
        return self._memo("mpmath-roots", _key(n, m, a, b), lambda: mp_roots(n, m, a, b))

    def house(self, n, m, a, b) -> float:
        """House of z^n + a z^m + b: mpmath for n <= 40, numpy above."""
        if n <= MP_MAX_DEGREE:
            return self.roots(n, m, a, b)["house"]
        return self._memo("numpy-house", _key(n, m, a, b), lambda: numpy_house(n, m, a, b))

    def limit(self, a, b) -> float:
        """exp((1/2pi) int_0^gamma log(|a|^2 + 2|ab| cos t + |b|^2) dt), or the
        closed-form regime value."""
        def compute():
            import mpmath
            ra, rb = abs(a), abs(b)
            if ra - rb >= 1:
                return float(ra)
            if rb - ra >= 1:
                return float(rb)
            if ra + rb <= 1:
                return 1.0
            with mpmath.workdps(MP_DPS):
                ra, rb = mpmath.mpf(ra), mpmath.mpf(rb)
                gamma = mpmath.acos((1 - ra**2 - rb**2) / (2 * ra * rb))
                val = mpmath.quad(lambda t: mpmath.log(ra**2 + 2 * ra * rb * mpmath.cos(t) + rb**2),
                                  [0, gamma])
                return float(mpmath.exp(val / (2 * mpmath.pi)))
        return self._memo("mpmath-limit", _key(a, b), compute)


def mp_roots(n, m, a, b) -> dict:
    """All roots of z^n + a z^m + b to 30 digits: numpy's roots polished by
    Newton's method in mpmath, or mpmath.polyroots when polishing does not
    give n distinct roots (clustered or repeated roots)."""
    import mpmath
    with mpmath.workdps(MP_DPS):
        am, bm = mpmath.mpc(a), mpmath.mpc(b)
        tol = mpmath.mpf(10) ** (3 - MP_DPS)

        def polish(z):
            for _ in range(60):
                slope = n * z**(n - 1) + m * am * z**(m - 1)
                if slope == 0:
                    return None
                step = (z**n + am * z**m + bm) / slope
                z -= step
                if abs(step) <= tol * max(1, abs(z)):
                    return z
            return None

        rts = [polish(mpmath.mpc(complex(z))) for z in numpy_roots(n, m, a, b)]
        distinct = None not in rts and all(
            abs(rts[i] - rts[j]) > 1e-8 * max(1, abs(rts[i]))
            for i in range(n) for j in range(i + 1, n))
        if not distinct:
            coeffs = [mpmath.mpc(0)] * (n + 1)  # descending
            coeffs[0], coeffs[n - m], coeffs[n] = mpmath.mpc(1), am, bm
            rts = mpmath.polyroots(coeffs, maxsteps=2000, extraprec=400)
        measure = mpmath.fprod(max(mpmath.mpf(1), abs(z)) for z in rts)
        return {"measure": float(measure),
                "house": float(max(abs(z) for z in rts)),
                "roots": [[float(z.real), float(z.imag)] for z in rts]}


def numpy_roots(n, m, a, b):
    """Roots from numpy's companion-matrix eigenvalues of P(s w) / s^n, with
    s the largest of |a|^(1/(n-m)), |b|^(1/n) and 1: the scaling keeps the
    outer roots accurate when |a| is huge."""
    import numpy as np
    s = max(1.0, abs(a) ** (1.0 / (n - m)), abs(b) ** (1.0 / n))
    coeffs = np.zeros(n + 1, dtype=complex)  # descending for np.roots
    coeffs[0] = 1
    coeffs[n - m] = a * math.exp((m - n) * math.log(s))
    coeffs[n] = b * math.exp(-n * math.log(s))
    return s * np.roots(coeffs)


def numpy_house(n, m, a, b) -> float:
    return float(max(abs(z) for z in numpy_roots(n, m, a, b)))


def _close(value, bound, truth, n) -> bool:
    """|value - truth| within the returned error bound plus float rounding of
    an n-factor product."""
    return abs(value - truth) <= bound + 8 * (n + 1) * EPS * abs(truth)


def _rel_close(value, truth, rtol) -> bool:
    return abs(value - truth) <= rtol * abs(truth)


def _grade(value, bound, truth, n) -> str | None:
    """None when the value is within its error bound; 'bound' when it is
    outside the bound but within VALUE_RTOL (the value is right, the bound
    understated); 'value' otherwise."""
    if _close(value, bound, truth, n):
        return None
    return "bound" if _rel_close(value, truth, VALUE_RTOL) else "value"


# --------------------------------------------------------------------------
# measure


def _is_value(entry) -> bool:
    return isinstance(entry, list) and len(entry) == 2 and isinstance(entry[0], (int, float))


def nan_roots(out: dict) -> bool:
    """The documented seed-state defect "NaN roots pass through": the root
    finder returned a non-finite root set without raising, so the roots
    route reports M = 1.0 with a NaN error bound and the house is NaN."""
    roots, house = out.get("roots"), out.get("house")
    return ((_is_value(roots) and not math.isfinite(roots[1]))
            or (isinstance(house, float) and not math.isfinite(house)))


def known_defect(out: dict, rejected: list[str]) -> bool:
    """Every rejection of this op is explained by a documented seed-state
    defect (today: only NaN roots, which taint every output built on the
    root set)."""
    return nan_roots(out) and all(
        "roots" in r or r in ("house", "house_bound", "extremality") for r in rejected)


def check_measure_op(oracle: Oracle, spec, out: dict) -> tuple[list[str], list[str]]:
    """(outputs the oracle rejects, values right but outside their own error
    bound) for one measure op."""
    n, m, a, b = spec
    bad, misses = [], []

    def grade(name, value, bound, truth, n):
        g = _grade(value, bound, truth, n)
        if g is not None:
            (bad if g == "value" else misses).append(name)

    values = {k: out[k] for k in ("roots", "jensen", "series") if _is_value(out.get(k))}
    house = oracle.house(n, m, a, b)
    if n <= MP_MAX_DEGREE:
        truth = oracle.roots(n, m, a, b)
        for k, (v, eb) in values.items():
            grade(k, v, eb, truth["measure"], n)
    else:
        # no oracle value: each pair of routes must agree within both bounds
        names = sorted(values)
        for i, k1 in enumerate(names):
            for k2 in names[i + 1:]:
                (v1, e1), (v2, e2) = values[k1], values[k2]
                grade(f"{k1}~{k2}", v1, e1 + e2, v2, n)
    series = out.get("series")
    if isinstance(series, list) and series[0] == "refused":
        in_domain = gcd(m, n) == 1 and abs(a) - abs(b) >= 1
        if in_domain:
            bad.append("series-refusal")
    if "house" in out and not _rel_close(out["house"], house, HOUSE_RTOL):
        bad.append("house")
    if _is_value(out.get("limit")):
        v, eb = out["limit"]
        grade("limit", v, eb, oracle.limit(a, b), 1)
    if "house_bound" in out:
        family, fn, fm, fa = out["family"]
        bound, rep_house, satisfied = out["house_bound"]
        if family == "S" and fm % 2 == 1:
            ok = bound is None and satisfied is None
        else:
            base = fa if family == "T" else fa - 1
            expected = 1.0 + math.log(base) / (fn - fm)
            ok = (bound is not None and _rel_close(bound, expected, 1e-12)
                  and satisfied is (house >= bound - 1e-10))
        if not ok or not _rel_close(rep_house, house, HOUSE_RTOL):
            bad.append("house_bound")
    if "extremality" in out:
        verdict, rep_house, threshold = out["extremality"]
        t = 2.0 ** (1.0 / n)
        ok = _rel_close(threshold, t, 1e-15) and _rel_close(rep_house, house, HOUSE_RTOL)
        if abs(house - t) > 1e-8:  # away from the threshold the verdict is decided
            ok = ok and verdict == ("not-extremal" if house > t else "undetermined")
        if not ok:
            bad.append("extremality")
    return bad, misses


def probe_outcome(spec, true_m, result) -> str:
    """'failed', 'wrong' or 'ok' for one documented defect input."""
    if result[0] == "error":
        return "failed"
    value, bound = result
    return "ok" if _close(value, bound, true_m, spec[0]) else "wrong"


# --------------------------------------------------------------------------
# factor


def check_factor_op(oracle: Oracle, coeffs, out: dict) -> tuple[list[str], list[str]]:
    if "error" in out:
        return [], []
    content, factors = oracle.factorization(coeffs)
    bad = []
    if [out["content"], sorted(out["factors"], key=lambda fm: (len(fm[0]), fm[0]))] != [content, factors]:
        bad.append("factorize")
    reducible = sum(mult for _, mult in factors) > 1
    if (out["verdict"] == "reducible") != reducible:
        bad.append("verdict")
    elif reducible and out["witness"] not in [f for f, _ in factors]:
        bad.append("witness")
    return bad, []


# --------------------------------------------------------------------------
# scan report


def pinned_report(n_max: int) -> list[dict]:
    with open(common.BENCH_DIR / "pinned_scan.json", encoding="utf-8") as fh:
        report = json.load(fh)["report"]
    return [r for r in report if r["n"] <= n_max]


def _same_record(got: dict, want: dict) -> bool:
    if set(got) != set(want):
        return False
    for k, v in want.items():
        if isinstance(v, float):
            if not (isinstance(got[k], (int, float)) and _rel_close(got[k], v, PINNED_RTOL)):
                return False
        elif got[k] != v:
            return False
    return True


def check_scan_report(oracle: Oracle, report: list[dict], n_max: int) -> list[str]:
    """Keys of records that are missing, extra, differ from the pinned
    report, or whose factor degrees sympy rejects."""
    want = {(r["n"], r["m"], r["a"], r["b"]): r for r in pinned_report(n_max)}
    got = {(r["n"], r["m"], r["a"], r["b"]): r for r in report}
    bad = []
    for key in sorted(set(want) | set(got)):
        g, w = got.get(key), want.get(key)
        if g is None or w is None or not _same_record(g, w):
            bad.append(str(key))
        elif g["factor_degrees"] != oracle.factor_degrees(*key):
            bad.append(f"{key}-sympy")
    if [(r["n"], r["m"], r["a"], r["b"]) for r in report] != sorted(
            got, key=lambda k: (k[0], k[1], abs(k[2]), 0 if k[2] < 0 else 1, k[3])):
        bad.append("order")
    return bad


# --------------------------------------------------------------------------
# cli


def _cli_measure_ok(oracle, n, m, a, b, rec) -> bool:
    truth = oracle.roots(n, m, a, b)["measure"]
    return _close(rec["value"], rec["error_bound"], truth, n)


def _cli_check(oracle: Oracle, cmd: tuple, stdout: str, n_max: int) -> bool:
    name = cmd[0]
    if name == "scan":
        report = [json.loads(line) for line in stdout.splitlines() if line.strip()]
        return not check_scan_report(oracle, report, n_max)
    envelope = json.loads(stdout)
    recs = envelope["records"]
    if name in ("measure", "house", "roots", "factor", "irreducible", "series",
                "bounds", "extremal"):
        n, m = int(cmd[1]), int(cmd[2])
    if name == "measure":  # z^3 - z - 1; the series route is outside its domain
        a, b = int(cmd[3]), int(cmd[4])
        by_method = {r["method"]: r for r in recs}
        return (set(by_method) == {"roots", "jensen", "series"}
                and all(_cli_measure_ok(oracle, n, m, a, b, by_method[k]) for k in ("roots", "jensen"))
                and "DominanceViolated" in by_method["series"].get("error", ""))
    if name == "house":
        truth = oracle.roots(n, m, int(cmd[3]), int(cmd[4]))["house"]
        return _rel_close(recs[0]["house"], truth, HOUSE_RTOL)
    if name == "roots":
        truth = [complex(*z) for z in oracle.roots(n, m, int(cmd[3]), int(cmd[4]))["roots"]]
        got = [complex(r["re"], r["im"]) for r in recs if "re" in r]
        labels = [r["value"] for r in recs if "label" in r]
        real = [z.real for z in truth if abs(z.imag) < 1e-12]
        return (len(got) == len(truth)
                and all(min(abs(g - t) for t in truth) < 1e-9 for g in got)
                and len(labels) == len(real)
                and all(min(abs(abs(v) - abs(r)) for r in real) < 1e-9 for v in labels))
    if name in ("factor", "irreducible"):
        coeffs = [0] * (n + 1)
        coeffs[0], coeffs[m], coeffs[n] = int(cmd[4]), int(cmd[3]), 1
        content, factors = oracle.factorization(coeffs)
        if name == "factor":
            got = sorted(([r["coeffs"], r["multiplicity"]] for r in recs),
                         key=lambda fm: (len(fm[0]), fm[0]))
            return envelope["config"]["content"] == content and got == factors
        reducible = sum(mult for _, mult in factors) > 1
        return recs[0]["verdict"] == ("reducible" if reducible else "irreducible")
    if name == "limit":
        a, b = int(cmd[1]), int(cmd[2])
        rec = recs[0]
        return rec["case"] == "oscillatory" and _close(rec["value"], rec["error_bound"],
                                                       oracle.limit(a, b), 1)
    if name == "series":
        return _cli_measure_ok(oracle, n, m, int(cmd[3]), int(cmd[4]), recs[0])
    if name in ("bounds", "extremal"):
        a = int(cmd[3])
        family = cmd[cmd.index("--family") + 1]
        sign_a, sign_b = {"R": (-1, 1), "S": (1, -1), "T": (-1, -1)}[family]
        house = oracle.roots(n, m, sign_a * a, sign_b)["house"]
        rec = recs[0]
        if not _rel_close(rec["house"], house, HOUSE_RTOL):
            return False
        if name == "bounds":
            base = a if family == "T" else a - 1
            return (_rel_close(rec["bound"], 1 + math.log(base) / (n - m), 1e-12)
                    and rec["satisfied"] is True)
        t = 2.0 ** (1.0 / n)
        return (_rel_close(rec["threshold"], t, 1e-15)
                and rec["verdict"] == ("not-extremal" if house > t else "undetermined"))
    if name == "compare-bounds":
        n = int(cmd[1])
        rec = recs[0]
        ln, lln = math.log(n), math.log(math.log(n))
        expected = {
            "dimitrov": 2 ** (1 / (4 * n)),
            "matveev": math.exp(math.log(n + 0.5) / n**2),
            "rhin_wu": math.exp(3 * math.log(n / (2 if n >= 13 else 3)) / n**2),
            "voutier": 1 + (lln / ln) ** 3 / (2 * n),
            "verger_gaugry": 1 + ln * (1 - lln / ln) / n,
            "smyth_boyd_house": 1.3247179572447460 ** (3 / (2 * n)),
            "trivial_mn": 2 ** (1 / n),
        }
        return all(_rel_close(rec[k], v, 1e-12) for k, v in expected.items())
    if name == "converge":
        a, b = int(cmd[cmd.index("--a") + 1]), int(cmd[cmd.index("--b") + 1])
        degrees = [int(t) for t in cmd[cmd.index("--n") + 1].split(",")]
        if [r["n"] for r in recs] != degrees:
            return False
        for r in recs:
            # only n <= 40 against mpmath; larger n against the series, which
            # converges fast here (|a| - |b| = 2)
            truth = (oracle.roots(r["n"], 1, a, b)["measure"] if r["n"] <= MP_MAX_DEGREE
                     else _series_truth(r["n"], 1, a, b))
            if not (_rel_close(r["measure"], truth, 1e-12) and r["limit"] == abs(a)
                    and _rel_close(r["gap"], abs(r["measure"] - abs(a)), 1e-9)):
                return False
        return True
    raise ValueError(f"no oracle for CLI command {name!r}")


def _series_truth(n, m, a, b) -> float:
    """log M = log|a| - sum_k (1/(km)) (-1)^(kn) C(kn-1, km-1) Re(b^(-km) (b/a)^(kn))
    summed in mpmath at 30 digits (valid for |a| - |b| >= 1, gcd(m, n) = 1)."""
    import mpmath
    with mpmath.workdps(MP_DPS):
        total = mpmath.mpf(0)
        for k in range(1, 400):
            term = (mpmath.mpf(-1) ** (k * n) * mpmath.binomial(k * n - 1, k * m - 1)
                    * mpmath.re(mpmath.mpc(b) ** (-k * m) * (mpmath.mpc(b) / a) ** (k * n)) / (k * m))
            total += term
            if abs(term) < mpmath.mpf(10) ** (-MP_DPS):
                break
        return float(mpmath.exp(mpmath.log(abs(a)) - total))


def check_cli_op(oracle: Oracle, cmd: tuple, out: dict, n_max: int) -> tuple[list[str], list[str]]:
    if out["rc"] != 0:
        return [], []  # counted as failed
    try:
        ok = _cli_check(oracle, cmd, out["out"], n_max)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"{cmd[0]}: unparsable output ({type(exc).__name__})"], []
    return ([] if ok else [cmd[0]]), []

