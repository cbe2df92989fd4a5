"""trinotool benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload scan|measure|factor|cli --seed N \
        --seconds S --trace 0|1 [--out FILE]

Run from the root of a checkout.  The program is imported from the
checkout's src/ (nothing is installed).  Set-up is timed SETUP_REPEATS times
in fresh interpreters (median reported); the workload then runs in a child
process, in full passes over its input set until ``--seconds`` have passed;
afterwards the parent checks every output against independent oracles.

The last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}: with --trace 0 the end-to-end
metrics of BENCHMARK.json, with --trace 1 its per-layer metrics.  The line
before it ("record: ...") is the full record: environment, pass count,
failed/wrong shares, oracle rejections and, on measure, the known-defect
baseline.  --out appends that record to FILE for perfbench/compare.py.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
from time import perf_counter

import common
import inputs
import oracle as oracle_mod

CHILD = str(common.BENCH_DIR / "child.py")
CHILD_TIMEOUT_S = 170


class ChildFailed(RuntimeError):
    pass


def _kill_group(proc: subprocess.Popen) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_child(args: list[str], timeout: float = CHILD_TIMEOUT_S) -> None:
    """Run child.py in its own process group and wait for it.  On timeout or
    interruption the whole group (pool workers, CLI subprocesses) is killed
    and reaped.  A blocking wait (no polling) keeps set-up timings exact."""
    proc = subprocess.Popen([sys.executable, CHILD, *args], env=common.child_env(),
                            cwd=common.ROOT, start_new_session=True,
                            stdout=subprocess.DEVNULL)
    watchdog = threading.Timer(timeout, _kill_group, (proc,))
    watchdog.start()
    try:
        proc.wait()
    except BaseException:
        _kill_group(proc)
        proc.wait()
        raise
    finally:
        watchdog.cancel()
    if proc.returncode != 0:
        raise ChildFailed(f"child.py {' '.join(args)} exited with {proc.returncode}")


def ensure_complete_cache(toy: bool) -> None:
    """The cli workload reads a complete cache of the scan grid.  It is
    written once per program version (by the program's own 2-worker scan)
    and copied into each run's work directory during set-up."""
    path = common.complete_cache_path(toy)
    if not path.exists():
        common.CACHE_DIR.mkdir(parents=True, exist_ok=True)
        run_child(["--make-scan-cache", str(path)] + (["--toy"] if toy else []))


def time_setups(base: list[str]) -> list[tuple[float, float]]:
    """(raw seconds, calibration) per fresh-interpreter set-up; calibration
    is the mean of the samples taken before and after it."""
    samples = []
    k_prev = common.calibrate()
    for _ in range(common.SETUP_REPEATS):
        t0 = perf_counter()
        run_child(base + ["--setup-only"])
        t = perf_counter() - t0
        k = common.calibrate()
        samples.append((t, 0.5 * (k_prev + k)))
        k_prev = k
    return samples


def environment(args) -> dict:
    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None
    git_rev = None
    if (common.ROOT / ".git").exists():
        try:
            git_rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=common.ROOT,
                                     capture_output=True, text=True, timeout=10).stdout.strip() or None
        except OSError:
            git_rev = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "sympy": version("sympy"),
        "mpmath": version("mpmath"),
        "git_rev": git_rev,
        "src_sha256": common.src_digest(),
        "seed": args.seed,
        "workers": common.SCAN_WORKERS if args.workload == "scan" else 1,
        "seconds": args.seconds,
    }


# --------------------------------------------------------------------------
# checking


def check(workload: str, seed: int, toy: bool, raw: dict) -> dict:
    """Count attempted, failed and oracle-rejected ops over every pass."""
    orc = oracle_mod.Oracle()
    attempted = failed = wrong = wrong_known = bound_misses = 0
    rejected: list[str] = []
    missed: list[str] = []
    n_max = common.scan_n_max(toy)
    try:
        if workload == "scan":
            cells = len(inputs.scan_cells(n_max))
            for p in raw["passes"]:
                attempted += cells
                failed += sum(1 for r in p["report"] if "error" in r)
                bad = oracle_mod.check_scan_report(orc, p["report"], n_max)
                wrong += len(bad)
                rejected += bad
        else:
            if workload == "measure":
                items = [s[:4] for s in inputs.measure_specs(seed, toy)]
                checker = oracle_mod.check_measure_op
            elif workload == "factor":
                items = [c for _, c in inputs.factor_polys(seed, toy)]
                checker = oracle_mod.check_factor_op
            else:
                commands = inputs.cli_commands(n_max)
                items = [commands[i] for i in inputs.cli_sequence(seed, toy)]

                def checker(orc, cmd, out):
                    return oracle_mod.check_cli_op(orc, cmd, out, n_max)
            for p in raw["passes"]:
                for item, op in zip(items, p["ops"]):
                    attempted += 1
                    failed += bool(op["failed"])
                    bad, misses = checker(orc, item, op["out"])
                    if bad:
                        wrong += 1
                        known = workload == "measure" and oracle_mod.known_defect(op["out"], bad)
                        wrong_known += known
                        rejected.append(f"{item}: {', '.join(bad)}" + (" (known defect)" if known else ""))
                    elif misses:
                        bound_misses += 1
                        missed.append(f"{item}: {', '.join(misses)}")
        defects = None
        if "known_defects" in raw:
            defects = {"failed": 0, "wrong": 0, "ok": 0, "items": []}
            for (route, n, m, a, b, true_m), got in zip(inputs.KNOWN_DEFECTS, raw["known_defects"]):
                verdict = oracle_mod.probe_outcome((n, m, a, b), true_m, got["result"])
                defects[verdict] += 1
                defects["items"].append({"route": route, "spec": [n, m, a, b],
                                         "result": got["result"], "true_m": true_m,
                                         "outcome": verdict})
    finally:
        orc.save()
    return {"attempted": attempted, "failed": failed, "wrong": wrong,
            "wrong_known": wrong_known, "bound_misses": bound_misses,
            "rejected": rejected, "missed": missed, "known_defects": defects}


# --------------------------------------------------------------------------
# metrics


def end_to_end(workload: str, raw: dict, setups: list[tuple[float, float]],
               scale: float) -> dict:
    """Medians over the run's passes, each time multiplied by
    ``scale`` / its calibration sample (scale = CALIBRATION_REF_S gives times
    at the reference CPU speed, scale = None raw times).

    An op is a measure spec, a factor polynomial or a CLI invocation; their
    percentiles are taken per pass (a fixed sample size, so each is a fixed
    blend of the same ops) and then the median across passes.  On scan an
    op is one whole scan, so its percentiles are over the passes (the
    per-cell distribution is the per-layer scan.cell_p50_ms / p99_ms)."""
    def norm(t, k):
        return t * scale / k if scale else t

    if workload == "scan":
        walls = [norm(p["wall"], p["k"]) for p in raw["passes"]]
        p50, p90 = common.quantile(walls, 0.5), common.quantile(walls, 0.9)
    else:
        per_pass = [[norm(op["t"], op["k"]) for op in p["ops"]] for p in raw["passes"]]
        walls = [sum(ops) for ops in per_pass]
        p50 = common.median([common.quantile(ops, 0.5) for ops in per_pass])
        p90 = common.median([common.quantile(ops, 0.9) for ops in per_pass])
    return {
        "setup_s": common.median([norm(t, k) for t, k in setups]),
        "wall_s": common.median(walls),
        "op_p50_ms": 1e3 * p50,
        "op_p90_ms": 1e3 * p90,
        "peak_rss_mb": raw["peak_rss_mb"],
    }


def load_spec() -> dict:
    with open(common.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=common.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="append the full record (one JSON line) to this file")
    ap.add_argument("--toy", action="store_true",
                    help="tiny inputs, for the self-test only")
    args = ap.parse_args()

    if not common.program_present():
        sys.stderr.write(f"perfbench: no program at {common.SRC / 'trinotool'}; "
                         "run from the root of a trinotool checkout\n")
        return 2
    spec = load_spec()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    common.WORK_DIR.mkdir(parents=True, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=common.WORK_DIR)
    try:
        base = ["--workload", args.workload, "--seed", str(args.seed), "--work", work]
        if args.toy:
            base.append("--toy")
        if args.workload == "cli":
            ensure_complete_cache(args.toy)
        setups = [] if args.trace else time_setups(base)
        raw_path = os.path.join(work, "raw.json")
        run_child(base + ["--seconds", str(args.seconds), "--trace", str(args.trace),
                          "--out", raw_path])
        with open(raw_path, encoding="utf-8") as fh:
            raw = json.load(fh)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    checked = check(args.workload, args.seed, args.toy, raw)
    if args.trace:
        values = raw["layers"]
        wanted = spec["per_layer"]
    else:
        values = end_to_end(args.workload, raw, setups, common.CALIBRATION_REF_S)
        raw_values = end_to_end(args.workload, raw, setups, None)
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise SystemExit(f"perfbench: metrics not produced: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    attempted, failed, wrong = checked["attempted"], checked["failed"], checked["wrong"]
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "env": environment(args),
        "passes": len(raw["passes"]),
        "attempted": attempted,
        "failed": failed,
        "wrong": wrong,
        "wrong_known": checked["wrong_known"],
        "failed_share": failed / attempted,
        "wrong_share": wrong / attempted,
        "bound_miss_share": checked["bound_misses"] / attempted,
        # a documented seed-state defect counts in wrong_share but does not
        # make the run incorrect; any other rejection does
        "correct": wrong == checked["wrong_known"],
        "metrics": metrics,
        "oracle_rejected": checked["rejected"][:20],
        "bound_missed": checked["missed"][:20],
    }
    if not args.trace:
        record["uncalibrated"] = {k: v for k, v in raw_values.items() if k != "peak_rss_mb"}
        record["calibration_ref_s"] = common.CALIBRATION_REF_S
        record["setup_samples"] = setups
    if "trace_file" in raw:
        record["trace_file"] = raw["trace_file"]
    if checked["known_defects"] is not None:
        record["known_defects"] = checked["known_defects"]

    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"passes={record['passes']} attempted={attempted} failed={failed} wrong={wrong} "
          f"(known defects: {checked['wrong_known']})")
    for name, m in metrics.items():
        print(f"  {name:<36} {m['value']:>14.6g} {m['unit']}")
    for line in checked["rejected"][:5]:
        print(f"  oracle rejected: {line}")
    for line in checked["missed"][:5]:
        print(f"  right value outside its error bound: {line}")
    if checked["known_defects"] is not None:
        kd = checked["known_defects"]
        print(f"  known defects (untimed): failed={kd['failed']} wrong={kd['wrong']} ok={kd['ok']}")
    print("record: " + json.dumps(record, sort_keys=True))
    if args.out:
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps({"correct": record["correct"], "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
