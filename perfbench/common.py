"""Paths, fixed workload parameters and small statistics shared by the
benchmark's parent process (run.py), its measuring child (child.py), the
oracle and the compare tool.  Importing this module imports nothing from
trinotool."""

from __future__ import annotations

import hashlib
import os
import statistics
from pathlib import Path
from time import thread_time

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
# per-checkout scratch: memoised oracle values and the complete scan cache
# (.cache), per-run temporary files (.work); both are git-ignored
CACHE_DIR = BENCH_DIR / ".cache"
WORK_DIR = BENCH_DIR / ".work"

WORKLOADS = ("scan", "measure", "factor", "cli")

# the scan grid: n <= 24, coprime m, a in {+-2, +-3, +-4}, b = +-1 (2136 cells)
SCAN_N_MAX = 24
SCAN_A = (-4, -3, -2, 2, 3, 4)
SCAN_SIGNS = (-1, 1)
SCAN_WORKERS = 2

# fresh-interpreter set-ups per run; setup_s is their median
SETUP_REPEATS = 5
# bare-interpreter and import probes per traced run
PROBE_REPEATS = 5


def scan_n_max(toy: bool) -> int:
    """The scan grid's n_max; the self-test's toy runs use n <= 8."""
    return 8 if toy else SCAN_N_MAX


def complete_cache_path(toy: bool) -> Path:
    """A complete scan cache of the grid, written once per program version."""
    return CACHE_DIR / f"complete-scan-n{scan_n_max(toy)}-{src_digest()[:16]}.jsonl"


def program_present() -> bool:
    return (SRC / "trinotool" / "__init__.py").is_file()


def child_env() -> dict:
    """Environment for every process that imports the program: the checkout's
    source tree first on the path, no inherited worker-count override."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("TRINOTOOL_THREADS", None)
    return env


def src_digest() -> str:
    """sha256 over the program's source files, to tie a result (and the
    memoised complete scan cache) to the code that produced it."""
    h = hashlib.sha256()
    for path in sorted((SRC / "trinotool").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


# --------------------------------------------------------------------------
# CPU-speed calibration
#
# The reference VM's CPU speed drifts by up to 2x over tens of seconds (the
# same 40 ms factorization, repeated for 100 s, has 1-second medians from
# 1.06x to 1.96x its minimum), and the drift slows interpreter-bound and
# numpy-bound code alike.  A fixed kernel that does not touch the program is
# timed next to every measurement, and times are reported at the reference
# speed: raw * CALIBRATION_REF_S / kernel time.  Timed next to the same
# factorization, the ratio's spread between 10 s windows falls from 20% to
# 1.4%.  Raw times stay in the record.

CALIBRATION_REF_S = 2.5e-3  # the kernel's time on an unloaded core of the reference VM


def _kernel() -> None:
    import numpy as np
    acc = 0
    table = {}
    for i in range(15000):
        acc = (acc * 1103515245 + i) & 0xFFFFFFFFFFFF
        table[i & 255] = acc
    a = np.arange(4096, dtype=float)
    for _ in range(30):
        a = np.sqrt(a * a + 1.0)


def calibrate(runs: int = 2) -> float:
    """One calibration sample: the fastest of ``runs`` kernel runs, in
    seconds of this thread's CPU time."""
    best = float("inf")
    for _ in range(runs):
        t0 = thread_time()
        _kernel()
        best = min(best, thread_time() - t0)
    return best


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile (q in [0, 1]) of a non-empty sample."""
    xs = sorted(values)
    if len(xs) == 1:
        return float(xs[0])
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return float(xs[lo] + (xs[hi] - xs[lo]) * (pos - lo))


def median(values) -> float:
    return float(statistics.median(values))


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    xs = list(values)
    if len(xs) < 2:
        return (float(xs[0]),) * 3
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3
