"""Compare two result sets of the benchmark.

    python3 perfbench/compare.py BASE NEW

BASE and NEW are files of full records: what ``run.py --out FILE`` appends,
or run.py's standard output (the ``record: ...`` lines are picked out).  For
every (metric, workload) present on both sides it prints each side's median
and quartiles, the pair win share (runs paired by seed; ties count for
neither side) and a verdict:

- improved: NEW wins at least 9/10 of the pairs and the medians differ by
  more than BASE's interquartile range;
- regressed: NEW's median is worse than BASE's by more than the bound;
- unresolved: either side's spread (IQR / median) is wider than the bound,
  unless every NEW run beats every BASE run;
- within bound: otherwise.

End-to-end metrics use their bound from BENCHMARK.json; per-layer metrics
have none and read "improved" or "no bound".
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict

import common


def load(path: str) -> dict:
    """{(workload, metric): {seed: value}}, plus the metric units."""
    table: dict = defaultdict(dict)
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line.startswith("record: "):
                line = line[len("record: "):]
            if not line.startswith("{"):
                continue
            rec = json.loads(line)
            if "workload" not in rec or "env" not in rec:
                continue
            for name, m in rec["metrics"].items():
                table[(rec["workload"], name)][rec["env"]["seed"]] = m["value"]
    return table


def verdict(base: list[float], new: list[float], pairs: list[tuple[float, float]],
            lower_better: bool, bound: float | None) -> tuple[str, float]:
    def better(x, y):
        return x < y if lower_better else x > y

    wins = sum(better(n, b) for b, n in pairs)
    win_share = wins / len(pairs) if pairs else float("nan")
    (q1b, mb, q3b), (q1n, mn, q3n) = common.quartiles(base), common.quartiles(new)
    iqr_b = q3b - q1b
    if pairs and win_share >= 0.9 and better(mn, mb) and abs(mn - mb) > iqr_b:
        return "improved", win_share
    if bound is None:
        return "no bound", win_share
    worse = (mn - mb) / mb if lower_better else (mb - mn) / mb
    spread = max(iqr_b / mb, (q3n - q1n) / mn)
    if spread > bound and not all(better(n, b) for n in new for b in base):
        return "unresolved", win_share
    if worse > bound:
        return "regressed", win_share
    return "within bound", win_share


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        sys.stderr.write(__doc__)
        return 2
    with open(common.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    base, new = load(argv[0]), load(argv[1])
    header = (f"{'workload':<8} {'metric':<34} {'base q1/med/q3':>30} "
              f"{'new q1/med/q3':>30} {'wins':>5}  verdict")
    print(header)
    for key in sorted(set(base) & set(new)):
        workload, name = key
        info = metrics.get(name, {"better": "lower"})
        b, n = base[key], new[key]
        pairs = [(b[s], n[s]) for s in sorted(set(b) & set(n))]
        bv, nv = list(b.values()), list(n.values())
        v, win_share = verdict(bv, nv, pairs, info["better"] == "lower", info.get("bound"))

        def q(xs):
            return "/".join(f"{x:.4g}" for x in common.quartiles(xs))
        print(f"{workload:<8} {name:<34} {q(bv):>30} {q(nv):>30} {win_share:>5.2f}  {v}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
