"""Fast self-test of the benchmark (about a minute on 2 cores).

    python3 perfbench/selftest.py

1. The trace wrappers replace every wrap site and restore each module
   attribute afterwards, also when the traced block raises.
2. Every workload runs end to end at toy size, untraced and traced, exits 0,
   passes its oracle and prints every metric BENCHMARK.json lists.
3. In a directory holding only BENCHMARK.json and the benchmark, run.py
   exits non-zero without printing a result.
"""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import common

sys.path.insert(0, str(common.SRC))


def check_wrappers_restore() -> None:
    import tracing
    import trinotool.cli  # noqa: F401  (cli is a wrap site)
    from trinotool import TrinomialSpec, polycore
    from trinotool import factor as factor_mod

    sites = [(importlib.import_module(mod), attr) for mod, attr, _, _ in tracing.SITES]
    before = [getattr(mod, attr) for mod, attr in sites]
    tracer = tracing.Tracer()
    try:
        with tracer.installed():
            for (mod, attr), orig in zip(sites, before):
                assert getattr(mod, attr) is not orig, f"{mod.__name__}.{attr} not wrapped"
            factor_mod.is_irreducible(polycore.to_dense(TrinomialSpec(9, 2, 3, 1)))
            importlib.import_module("trinotool.mahler").house(TrinomialSpec(5, 2, 3, 1))
            raise KeyError("leave the block by an exception")
    except KeyError:
        pass
    for (mod, attr), orig in zip(sites, before):
        assert getattr(mod, attr) is orig, f"{mod.__name__}.{attr} not restored"
    totals = tracer.layer_totals()
    assert totals["factor.is_irreducible"]["calls"] == 1
    assert totals["factor.factorize"]["calls"] == 1  # nested inside is_irreducible
    assert totals["polycore.all_roots"]["calls"] == 1
    parents = {name: parent for name, _, _, parent in tracer.spans}
    assert tracer.spans[parents["factor.factorize"]][0] == "factor.is_irreducible"
    print("ok  trace wrappers replace and restore all", len(sites), "sites")


def last_json_line(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def check_workloads() -> None:
    with open(common.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    for workload in common.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(common.BENCH_DIR / "run.py"), "--workload", workload,
                   "--seed", "7", "--seconds", "0", "--trace", str(trace), "--toy"]
            proc = subprocess.run(cmd, cwd=common.ROOT, capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, f"{workload} trace={trace}: rc {proc.returncode}\n{proc.stderr}"
            res = last_json_line(proc.stdout)
            assert set(res) == {"correct", "attempted", "failed", "metrics"}, res.keys()
            assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1, res
            names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
            assert list(res["metrics"]) == names, (workload, trace)
            print(f"ok  {workload:<8} trace={trace} attempted={res['attempted']}")


def check_refuses_without_program() -> None:
    common.WORK_DIR.mkdir(parents=True, exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=common.WORK_DIR))
    try:
        shutil.copy(common.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(common.BENCH_DIR, bare / common.BENCH_DIR.name,
                        ignore=shutil.ignore_patterns(".cache", ".work", "__pycache__"))
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "scan",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=60)
        assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok  refuses to run without src/trinotool")


if __name__ == "__main__":
    check_wrappers_restore()
    check_refuses_without_program()
    check_workloads()
    print("selftest passed")
