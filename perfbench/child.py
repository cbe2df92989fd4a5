"""Measuring child: imports the program from the checkout's src/, sets up one
workload, runs its timed passes (or its traced run) and writes the raw
timings and every output as JSON for the parent to check and summarise.

Kept apart from the parent so that the program's peak memory is not mixed
with the oracle's (sympy, mpmath) and so that set-up can be timed from a
fresh interpreter.

    python3 perfbench/child.py --workload W --seed N --seconds S --trace 0|1 --out FILE
    python3 perfbench/child.py --workload W --seed N --setup-only
    python3 perfbench/child.py --make-scan-cache FILE
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import shutil
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

import common
import inputs

sys.path.insert(0, str(common.SRC))

import trinotool  # noqa: E402  (the program under test, from the checkout)
from trinotool import bounds, cli, factor, mahler, polycore, scan  # noqa: E402
from trinotool.errors import (  # noqa: E402
    CoprimalityViolated,
    DominanceViolated,
    NotRepresentable,
)

import tracing  # noqa: E402

REFUSALS = (DominanceViolated, CoprimalityViolated)


class CalibrationSampler(threading.Thread):
    """Calibration samples every 0.25 s while the scan's pool keeps every
    core busy.  Kernel CPU time (not wall) is sampled, so the sampler's own
    wait for a core does not count, only how fast the core runs."""

    def __init__(self):
        super().__init__(daemon=True)
        self.samples: list[float] = []
        self.stop = threading.Event()

    def run(self) -> None:
        while not self.stop.wait(0.25):
            self.samples.append(common.calibrate(runs=1))


def run_scan(n_max: int, threads: int, cache_path: Path) -> dict:
    """One cold scan of the grid into a fresh cache file: the report as the
    CLI prints it, the wall time, every cell's ``elapsed`` and the median
    calibration sample from just before, during and just after it."""
    if cache_path.exists():
        cache_path.unlink()
    sampler = CalibrationSampler()
    samples = [common.calibrate() for _ in range(3)]
    sampler.start()
    t0 = perf_counter()
    try:
        hits = scan.scan_conjecture(n_max, common.SCAN_A, common.SCAN_SIGNS,
                                    coprime_only=True, threads=threads,
                                    cache_path=str(cache_path))
        wall = perf_counter() - t0
    finally:
        sampler.stop.set()
        sampler.join()
    samples += sampler.samples + [common.calibrate() for _ in range(3)]
    report = [scan.record_to_dict(r, include_elapsed=False) for r in hits]
    k = common.median(samples)
    with open(cache_path, encoding="utf-8") as fh:
        elapsed = [json.loads(line)["elapsed"] for line in fh if line.strip()]
    return {"wall": wall, "k": k, "report": report, "cell_s": elapsed}


# --------------------------------------------------------------------------
# set-up


class Setup:
    """Everything a workload needs before its first op."""

    def __init__(self, workload: str, seed: int, toy: bool, work: Path):
        self.workload, self.toy, self.work = workload, toy, work
        work.mkdir(parents=True, exist_ok=True)
        if workload == "scan":
            self.items = inputs.scan_cells(common.scan_n_max(toy))
        elif workload == "measure":
            self.items = [(polycore.TrinomialSpec(n, m, a, b), (n, m, a, b))
                          for n, m, a, b, _ in inputs.measure_specs(seed, toy)]
        elif workload == "factor":
            self.items = [polycore.IntPolynomial(coeffs)
                          for _, coeffs in inputs.factor_polys(seed, toy)]
        else:
            self.cache = work / "complete-scan.jsonl"
            shutil.copyfile(common.complete_cache_path(toy), self.cache)
            commands = [[str(self.cache) if tok == inputs.CACHE_TOKEN else tok for tok in cmd]
                        + ["--format", "json"]
                        for cmd in inputs.cli_commands(common.scan_n_max(toy))]
            self.items = [(idx, commands[idx]) for idx in inputs.cli_sequence(seed, toy)]


# --------------------------------------------------------------------------
# ops


def measure_op(spec, raw) -> tuple[dict, bool]:
    """Every measure route on one spec.  Returns (outputs, failed); a
    documented domain refusal is an outcome, anything else raised fails the op."""
    n, m, a, b = raw
    out: dict = {}
    failed = False

    def route(key, fn, *args, refusals=()):
        nonlocal failed
        try:
            return fn(*args)
        except refusals as exc:
            out[key] = ["refused", type(exc).__name__]
        except Exception as exc:  # recorded and counted, the run goes on
            out[key] = ["error", f"{type(exc).__name__}: {exc}"]
            failed = True
        return None

    for key, fn, args, refusals in (
        ("roots", mahler.measure_from_roots, (spec,), ()),
        ("jensen", mahler.measure_jensen, (spec,), ()),
        ("series", mahler.series_measure, (n, m, a, b), REFUSALS),
        ("limit", mahler.limit_measure, (a, b), ()),
    ):
        res = route(key, fn, *args, refusals=refusals)
        if res is not None:
            out[key] = [res.value, res.error_bound]
    res = route("house", mahler.house, spec)
    if res is not None:
        out["house"] = res
    if inputs.bounds_applicable(a, b):
        form = route("family", lambda: polycore.normalize(n, m, a, b)[0],
                     refusals=(NotRepresentable,))
        if form is not None:
            out["family"] = [form.family, form.n, form.m, form.a]
            rep = route("house_bound", bounds.house_lower_bound, form)
            if rep is not None:
                out["house_bound"] = [rep.bound, rep.house, rep.satisfied]
            ver = route("extremality", bounds.check_extremality, form)
            if ver is not None:
                out["extremality"] = [ver.verdict, ver.house, ver.threshold]
    return out, failed


def factor_op(poly) -> tuple[dict, bool]:
    try:
        verdict = factor.is_irreducible(poly)
        result = factor.factorize(poly)
    except Exception as exc:  # recorded and counted, the run goes on
        return {"error": f"{type(exc).__name__}: {exc}"}, True
    return {
        "verdict": verdict.verdict,
        "certificate": verdict.certificate,
        "witness": list(verdict.witness.coeffs) if verdict.witness is not None else None,
        "content": result.content,
        "factors": [[list(p.coeffs), mult] for p, mult in result.factors],
    }, False


def cli_subprocess_op(argv: list[str]) -> dict:
    proc = subprocess.run([sys.executable, "-m", "trinotool", *argv],
                          capture_output=True, text=True, env=common.child_env(),
                          cwd=common.ROOT, timeout=120)
    return {"rc": proc.returncode, "out": proc.stdout}


def cli_inprocess_op(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.cli_dispatch(list(argv))
    return {"rc": rc, "out": out.getvalue()}


# --------------------------------------------------------------------------
# passes: one pass runs the workload's full input set once


def timed_ops(items, op) -> dict:
    """Run every item once.  A calibration sample follows each op; the op's
    ``k`` is the mean of the samples on either side of it."""
    ops = []
    k_prev = common.calibrate()
    for item in items:
        t0 = perf_counter()
        out, failed = op(item)
        t = perf_counter() - t0
        k = common.calibrate()
        ops.append({"t": t, "k": 0.5 * (k_prev + k), "out": out, "failed": failed})
        k_prev = k
    return {"wall": sum(o["t"] for o in ops), "ops": ops}


def run_pass(setup: Setup, index: int, threads: int = common.SCAN_WORKERS,
             in_process_cli: bool = False) -> dict:
    w = setup.workload
    if w == "scan":
        return run_scan(common.scan_n_max(setup.toy), threads, setup.work / f"scan-{index}.jsonl")
    if w == "measure":
        return timed_ops(setup.items, lambda it: measure_op(*it))
    if w == "factor":
        return timed_ops(setup.items, factor_op)
    cli_op = cli_inprocess_op if in_process_cli else cli_subprocess_op

    def op(item):
        idx, argv = item
        res = cli_op(argv)
        res["cmd"] = idx
        return res, res["rc"] != 0
    return timed_ops(setup.items, op)


def known_defects() -> list[dict]:
    """Run the documented seed-state defect inputs once, untimed."""
    out = []
    for route, n, m, a, b, _ in inputs.KNOWN_DEFECTS:
        spec = polycore.TrinomialSpec(n, m, a, b)
        fn = {"jensen": lambda: mahler.measure_jensen(spec),
              "roots": lambda: mahler.measure_from_roots(spec),
              "series": lambda: mahler.series_measure(n, m, a, b)}[route]
        try:
            res = fn()
            result = [res.value, res.error_bound]
        except Exception as exc:  # the defect under observation
            result = ["error", type(exc).__name__]
        out.append({"route": route, "spec": [n, m, a, b], "result": result})
    return out


def peak_rss_mb() -> float:
    """Peak resident set of this process plus the largest of its finished
    children (pool workers, CLI subprocesses), in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


# --------------------------------------------------------------------------
# traced run


def median_subprocess_s(code: str) -> float:
    times = []
    for _ in range(common.PROBE_REPEATS):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", code], env=common.child_env(),
                       cwd=common.ROOT, check=True)
        times.append(perf_counter() - t0)
    return common.median(times)


def warm_resume_s(setup: Setup, cache_path: Path) -> float:
    times = []
    for _ in range(3):
        t0 = perf_counter()
        scan.scan_conjecture(common.scan_n_max(setup.toy), common.SCAN_A, common.SCAN_SIGNS,
                             coprime_only=True, threads=1, cache_path=str(cache_path))
        times.append(perf_counter() - t0)
    return common.median(times)


def calibrated_wall(p: dict) -> float:
    """A pass's wall time at the reference CPU speed (see common.calibrate)."""
    if "ops" in p:
        return sum(op["t"] / op["k"] for op in p["ops"]) * common.CALIBRATION_REF_S
    return p["wall"] / p["k"] * common.CALIBRATION_REF_S


def traced_run(setup: Setup, trace_path: Path) -> tuple[list[dict], dict]:
    """The workload traced in one process (scan on 1 worker), the same work
    untraced for the overhead, plus the layer probes that need no tracing."""
    tracer = tracing.Tracer()
    extra = {"scan.cell_p50_ms": 0.0, "scan.cell_p99_ms": 0.0,
             "scan.pool_efficiency": 0.0, "scan.warm_resume_s": 0.0}
    in_process = setup.workload == "cli"
    with tracer.installed():
        traced = run_pass(setup, 0, threads=1, in_process_cli=in_process)
    tracer.write(trace_path)
    plain = run_pass(setup, 1, threads=1, in_process_cli=in_process)
    passes = [traced, plain]
    cells = None
    if setup.workload == "scan":
        cells = plain["cell_s"]
        pooled = run_pass(setup, 2)
        passes.append(pooled)
        extra["scan.pool_efficiency"] = sum(pooled["cell_s"]) / (common.SCAN_WORKERS * pooled["wall"])
        extra["scan.warm_resume_s"] = warm_resume_s(setup, setup.work / "scan-2.jsonl")
    elif setup.workload == "cli":
        with open(setup.cache, encoding="utf-8") as fh:
            cells = [json.loads(line)["elapsed"] for line in fh if line.strip()]
        extra["scan.warm_resume_s"] = warm_resume_s(setup, setup.cache)
    if cells:
        extra["scan.cell_p50_ms"] = 1e3 * common.quantile(cells, 0.5)
        extra["scan.cell_p99_ms"] = 1e3 * common.quantile(cells, 0.99)

    totals = tracer.layer_totals()
    counts = tracer.counts
    metrics = {}
    for name in ("factor.factorize", "factor.is_irreducible", "polycore.all_roots",
                 "quadrature.integrate"):
        metrics[f"{name}.calls"] = totals[name]["calls"]
    for name in tracing.SPAN_NAMES:
        metrics[f"{name}.self_s"] = totals[name]["self_s"]
    for name in ("factor.cert.threshold", "factor.cert.schinzel-none",
                 "factor.cert.factorizer", "factor.cert.witness",
                 "polycore.all_roots.iterations", "polycore.all_roots.failed",
                 "quadrature.integrate.evals", "quadrature.integrate.panels",
                 "quadrature.integrate.failed", "mahler.series_measure.terms"):
        metrics[name] = counts[name]
    irr_calls = totals["factor.is_irreducible"]["calls"]
    cheap = counts["factor.cert.threshold"] + counts["factor.cert.schinzel-none"]
    metrics["factor.cheap_cert_share"] = cheap / irr_calls if irr_calls else 0.0
    # per scan cell on scan, per op elsewhere
    metrics["factor.factorize_per_cell"] = totals["factor.factorize"]["calls"] / len(setup.items)
    metrics.update(extra)
    metrics["cli.interpreter_s"] = median_subprocess_s("pass")
    metrics["cli.import_s"] = median_subprocess_s("import trinotool.cli")
    metrics["trace.overhead_share"] = calibrated_wall(traced) / calibrated_wall(plain) - 1.0
    return passes, metrics


# --------------------------------------------------------------------------


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=common.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--toy", action="store_true")
    ap.add_argument("--work")
    ap.add_argument("--out")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--make-scan-cache", metavar="FILE")
    args = ap.parse_args()

    if args.make_scan_cache:
        n_max = common.scan_n_max(args.toy)
        tmp = Path(args.make_scan_cache + ".partial")
        run_scan(n_max, common.SCAN_WORKERS, tmp)
        tmp.replace(args.make_scan_cache)
        return 0

    setup = Setup(args.workload, args.seed, args.toy, Path(args.work))
    if args.setup_only:
        return 0

    result: dict = {"version": trinotool.__version__}
    if args.trace:
        trace_path = common.CACHE_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        result["passes"], result["layers"] = traced_run(setup, trace_path)
        result["trace_file"] = str(trace_path.relative_to(common.ROOT))
    else:
        passes = []
        deadline = perf_counter() + args.seconds
        while True:
            passes.append(run_pass(setup, len(passes)))
            if perf_counter() >= deadline:
                break
        result["passes"] = passes
        result["peak_rss_mb"] = peak_rss_mb()
    if args.workload == "measure" and not args.trace and not args.toy:
        result["known_defects"] = known_defects()
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
