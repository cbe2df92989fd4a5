"""Span recording for the traced run, from outside the program.

Each wrap site replaces one public function at the name its caller looks up
(a module attribute) with a wrapper that records a span (name, start, end,
parent) in memory plus per-site counters, and restores every replaced
attribute when the ``installed`` block ends.  Nothing under src/ changes.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
from collections import Counter, defaultdict
from time import perf_counter


def _on_is_irreducible(counts, verdict):
    counts[f"factor.cert.{verdict.certificate}"] += 1


def _on_all_roots(counts, rs):
    counts["polycore.all_roots.iterations"] += rs.iterations


def _on_integrate(counts, res):
    counts["quadrature.integrate.evals"] += res.evals
    counts["quadrature.integrate.panels"] += res.panels


def _on_series(counts, res):
    counts["mahler.series_measure.terms"] += len(res.terms or ())


# (module, attribute, span name, result hook).  The four sites the layering
# depends on: scan and cli call factor.* through the module; mahler calls
# polycore.all_roots through the module; mahler binds integrate by name at
# import; bounds calls mahler.house through the module.  The rest are the
# public entry points the workloads (and cli) call through their modules;
# cli binds all_roots by name at import, so that name is wrapped too.
SITES = (
    ("trinotool.factor", "is_irreducible", "factor.is_irreducible", _on_is_irreducible),
    ("trinotool.factor", "factorize", "factor.factorize", None),
    ("trinotool.factor", "schinzel_conditions", "factor.schinzel_conditions", None),
    ("trinotool.polycore", "all_roots", "polycore.all_roots", _on_all_roots),
    ("trinotool.cli", "all_roots", "polycore.all_roots", _on_all_roots),
    ("trinotool.mahler", "integrate", "quadrature.integrate", _on_integrate),
    ("trinotool.mahler", "measure_from_roots", "mahler.measure_from_roots", None),
    ("trinotool.mahler", "measure_jensen", "mahler.measure_jensen", None),
    ("trinotool.mahler", "house", "mahler.house", None),
    ("trinotool.mahler", "series_measure", "mahler.series_measure", _on_series),
    ("trinotool.mahler", "limit_measure", "mahler.limit_measure", None),
    ("trinotool.bounds", "house_lower_bound", "bounds.house_lower_bound", None),
    ("trinotool.bounds", "check_extremality", "bounds.check_extremality", None),
    ("trinotool.scan", "compute_scan_record", "scan.compute_scan_record", None),
    ("trinotool.cli", "cli_dispatch", "cli.cli_dispatch", None),
)
SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name, _ in SITES))


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._replaced: list[tuple[object, str, object]] = []

    def _wrap(self, module, attr: str, name: str, hook) -> None:
        original = getattr(module, attr)
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = [name, perf_counter(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = original(*args, **kwargs)
            except BaseException:
                counts[f"{name}.failed"] += 1
                raise
            finally:
                span[2] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(counts, result)
            return result

        self._replaced.append((module, attr, original))
        setattr(module, attr, wrapper)

    @contextlib.contextmanager
    def installed(self):
        try:
            for module_name, attr, name, hook in SITES:
                self._wrap(importlib.import_module(module_name), attr, name, hook)
            yield self
        finally:
            for module, attr, original in reversed(self._replaced):
                setattr(module, attr, original)
            self._replaced.clear()

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls and self time (duration minus the part its
        direct child spans cover)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
        for (name, start, end, _), inner in zip(self.spans, child_time):
            totals[name]["calls"] += 1
            totals[name]["self_s"] += (end - start) - inner
        return {name: dict(totals[name]) for name in SPAN_NAMES}

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": self.spans}, fh)
