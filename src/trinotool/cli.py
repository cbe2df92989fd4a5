"""Command-line front end.

Output goes to stdout (or --out FILE) as JSON, CSV or text; diagnostics go to
stderr, which in json mode holds one JSON object: the error of a failing
command, or scan's summary {"scan": {...}}.  Every subcommand takes --format
and --out; --tolerance exists only on measure and series, the commands whose
quadrature or series reads it.  Each command returns its records and
cli_dispatch renders them: single-shot commands as an envelope
{tool_version, config, records} in JSON mode, scans as one JSON object per
line so they stream and diff cleanly.
Exit codes: 0 success, 1 domain error, 2 usage error.  No command prints
NaN: a NaN field is refused as ConvergenceFailure, exit 1.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import dataclasses
import io
import json
import math
import re
import sys

from . import __version__
from .errors import ConvergenceFailure, TrinotoolError
from .polycore import (
    FamilyForm,
    TrinomialSpec,
    all_roots,
    classify_real_roots,
    normalize,
    to_dense,
)

# a dash and a digit, or a dash, a dot and a digit, start a value ("-1e3",
# "-.5", "-4,-3,3,4", "-1+2j"), never an option name: its type parses it
_NEGATIVE_VALUE = re.compile(r"^-\.?\d")


def _num(text: str):
    """Parse an int, float, or complex command-line number."""
    for caster in (int, float, complex):
        try:
            return caster(text)
        except ValueError:
            continue
    raise argparse.ArgumentTypeError(f"not a number: {text!r}")


def _int_list(text: str) -> list[int]:
    """argparse type: one or more comma-separated ints; empty entries are
    skipped, and a list with none left is refused."""
    try:
        values = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        values = []
    if not values:
        raise argparse.ArgumentTypeError(f"not a comma-separated int list: {text!r}")
    return values


def _positive(cast):
    """argparse type: a positive finite number parsed by cast (int or float)."""
    def parse(text: str):
        try:
            value = cast(text)
        except ValueError:
            value = 0
        if not 0 < value < math.inf:
            raise argparse.ArgumentTypeError(
                f"not a positive finite {cast.__name__}: {text!r}")
        return value
    return parse


def _jsonable(value):
    if isinstance(value, complex):
        if value.imag == 0:
            return value.real
        return str(value)
    return value


def _clean(record: dict) -> dict:
    return {k: _jsonable(v) for k, v in record.items() if v is not None}


def _refuse_nan(record: dict) -> None:
    """Raise ConvergenceFailure on a NaN field: NaN is a number that was not
    computed, so no command prints one (an infinite error bound still prints)."""
    for key, value in record.items():
        if isinstance(value, (float, complex)) and cmath.isnan(value):
            raise ConvergenceFailure(f"{key} came out NaN")


class _Output:
    def __init__(self, args):
        self.fmt = args.format
        self.path = args.out
        self.config = {}

    def emit(self, records: list[dict], jsonl: bool = False) -> None:
        for r in (self.config, *records):
            _refuse_nan(r)
        records = [_clean(r) for r in records]
        if self.fmt == "json":
            if jsonl:
                text = "\n".join(json.dumps(r, sort_keys=True) for r in records)
                text += "\n" if records else ""
            else:
                envelope = {
                    "tool_version": __version__,
                    "config": {k: _jsonable(v) for k, v in self.config.items()},
                    "records": records,
                }
                text = json.dumps(envelope, indent=2, sort_keys=True) + "\n"
        elif self.fmt == "csv":
            # columns in order of first appearance; a field a record lacks is empty
            buf = io.StringIO()
            writer = csv.DictWriter(buf, fieldnames=list(dict.fromkeys(
                k for r in records for k in r)))
            writer.writeheader()
            writer.writerows(records)
            text = buf.getvalue()
        else:
            lines = []
            for r in records:
                lines.extend(f"{k} = {v}" for k, v in r.items())
                lines.append("")
            text = "\n".join(lines)
        if self.path:
            with open(self.path, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)


def _tol(args) -> dict:
    """{"tol": --tolerance} when the flag is given; otherwise {}, so each
    routine keeps its own default."""
    return {} if args.tolerance is None else {"tol": args.tolerance}


def _spec(args) -> TrinomialSpec:
    return TrinomialSpec(args.n, args.m, args.a, args.b)


def _fields(result) -> dict:
    """A result dataclass as one record in field order, a nested dataclass
    (the FamilyForm) flattened in its place to family, n, m, a."""
    record = {}
    for field in dataclasses.fields(result):
        value = getattr(result, field.name)
        record.update(_fields(value) if dataclasses.is_dataclass(value)
                      else {field.name: value})
    return record


def _measure_record(result) -> dict:
    """A mahler.MeasureResult as one record."""
    return {
        "method": result.method,
        "value": result.value,
        "log_value": result.log_value,
        "error_bound": result.error_bound,
    }


# Each _cmd_* handler takes the parsed args and the JSON envelope's config
# dict, adds any fields of its own to that dict, and returns its records;
# cli_dispatch renders them.  A handler imports the modules it calls, so a
# command compiles and runs only those (polycore and errors load here).

def _cmd_measure(args, envelope) -> list[dict]:
    from . import mahler

    spec = _spec(args)
    routes = {
        "roots": lambda: mahler.measure_from_roots(spec),
        "jensen": lambda: mahler.measure_jensen(spec, **_tol(args)),
        "series": lambda: mahler.series_measure(args.n, args.m, args.a, args.b,
                                                **_tol(args)),
    }
    records = []
    for method in routes if args.method == "all" else [args.method]:
        try:
            record = _measure_record(routes[method]())
            _refuse_nan(record)
            records.append(record)
        except TrinotoolError as exc:
            if args.method != "all":
                raise
            records.append({"method": method, "error": f"{type(exc).__name__}: {exc}"})
    return records


def _cmd_house(args, envelope) -> list[dict]:
    from . import mahler

    return [{"house": mahler.house(_spec(args))}]


def _cmd_roots(args, envelope) -> list[dict]:
    rs = all_roots(_spec(args))
    envelope.update(residual_bound=rs.residual_bound, certified=rs.certified,
                    iterations=rs.iterations)
    records = [
        {"re": r.real, "im": r.imag, "modulus": abs(r)} for r in rs.roots
    ]
    if args.classify:
        form, flipped = normalize(args.n, args.m, args.a, args.b)
        labelled = classify_real_roots(form)
        envelope.update(family=form.family, family_a=form.a, flipped=flipped)
        records.extend({"label": name, "value": value} for name, value in labelled.items())
    return records


def _cmd_factor(args, envelope) -> list[dict]:
    from . import factor

    result = factor.factorize(to_dense(_spec(args)))
    envelope.update(content=result.content)
    return [
        {"degree": p.degree, "coeffs": list(p.coeffs), "multiplicity": mult}
        for p, mult in result.factors
    ]


def _cmd_irreducible(args, envelope) -> list[dict]:
    from . import factor

    verdict = factor.is_irreducible(to_dense(_spec(args)))
    rec = {"verdict": verdict.verdict, "certificate": verdict.certificate}
    if verdict.witness is not None:
        rec["witness_coeffs"] = list(verdict.witness.coeffs)
        rec["witness_degree"] = verdict.witness.degree
    return [rec]


def _cmd_limit(args, envelope) -> list[dict]:
    from . import mahler

    case = mahler.limit_case(args.a, args.b)
    result = mahler.limit_measure(args.a, args.b)
    return [{
        "case": case.case.value,
        "gamma": case.gamma,
        "value": result.value,
        "log_value": result.log_value,
        "error_bound": result.error_bound,
    }]


def _cmd_series(args, envelope) -> list[dict]:
    from . import mahler

    result = mahler.series_measure(args.n, args.m, args.a, args.b, **_tol(args))
    records = [_measure_record(result)]
    if args.trace:
        records.extend(
            {"k": t.k, "closed_form": t.closed_form} for t in result.terms
        )
    return records


def _cmd_family_form(args, envelope) -> list[dict]:
    from . import bounds

    routine = (bounds.house_lower_bound if args.command == "bounds"
               else bounds.check_extremality)
    return [_fields(routine(FamilyForm(args.family, args.n, args.m, args.a)))]


def _cmd_compare_bounds(args, envelope) -> list[dict]:
    from . import bounds

    cb = bounds.comparison_bounds(args.n)
    return [{
        "n": cb.n,
        "dimitrov": cb.dimitrov,
        "matveev": cb.matveev,
        "rhin_wu": cb.rhin_wu,
        "voutier": cb.voutier,
        "verger_gaugry": cb.verger_gaugry,
        "verger_gaugry_note": "applies to the reciprocal-of-root family of z^n + z - 1",
        "smyth_boyd_house": cb.smyth_boyd_house,
        "trivial_mn": cb.trivial_mn,
    }]


def _cmd_scan(args, envelope) -> list[dict]:
    from . import scan

    hits = scan.scan_conjecture(
        n_max=args.n_max,
        a_values=args.a,
        signs=args.signs,
        coprime_only=not args.all_m,
        threads=args.threads,
        cache_path=args.cache,
    )
    return [scan.record_to_dict(r, include_elapsed=False) for r in hits]


def _scan_summary(args, rows: int) -> str:
    """scan's stderr summary, written once its rows are out: the scan
    certifies completeness only up to n_max, so the line records the bound.
    In json mode it is one JSON object, {"scan": {...}}."""
    facts = {"n_max": args.n_max, "a": sorted(set(args.a)), "signs": sorted(set(args.signs)),
             "coprime_only": not args.all_m, "rows": rows}
    if args.format == "json":
        return json.dumps({"scan": facts}) + "\n"
    return ("scan: n_max={n_max} a={a} signs={signs} coprime_only={coprime_only} "
            "-> {rows} reducible/errored rows (complete up to n_max only)\n".format(**facts))


def _cmd_converge(args, envelope) -> list[dict]:
    from . import scan

    return [_fields(row) for row in
            scan.convergence_table(args.a, args.b, args.n, args.m_rule)]


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv", "text"), default="text")
    common.add_argument("--out", metavar="FILE", default=None)
    tolerance = argparse.ArgumentParser(add_help=False)
    tolerance.add_argument("--tolerance", type=_positive(float), default=None,
                           help="quadrature/series absolute tolerance override")

    parser = argparse.ArgumentParser(
        prog="trinotool",
        description="Mahler measure, irreducibility, house bounds and "
                    "reducibility scans for trinomials z^n + a z^m + b.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, *parents, **kwargs):
        # no prefix matching: a removed option must not live on as a prefix
        p = sub.add_parser(name, parents=[common, *parents], allow_abbrev=False, **kwargs)
        p._negative_number_matcher = _NEGATIVE_VALUE
        p.set_defaults(func=func)
        return p

    def spec_args(p, coeff, coeffs=("a", "b")):
        """Positional integers n and m, then the coefficients parsed by coeff."""
        for arg in ("n", "m"):
            p.add_argument(arg, type=int)
        for arg in coeffs:
            p.add_argument(arg, type=coeff)

    p = add("measure", _cmd_measure, tolerance, help="Mahler measure of z^n + a z^m + b")
    spec_args(p, _num)
    p.add_argument("--method", choices=("roots", "jensen", "series", "all"),
                   default="roots")

    p = add("house", _cmd_house, help="largest root modulus")
    spec_args(p, _num)

    p = add("roots", _cmd_roots, help="all complex roots")
    spec_args(p, _num)
    p.add_argument("--classify", action="store_true",
                   help="label the real roots of the normalised family form")

    p = add("factor", _cmd_factor, help="factor an integer trinomial over Q")
    spec_args(p, int)

    p = add("irreducible", _cmd_irreducible, help="irreducibility verdict with certificate")
    spec_args(p, int)

    p = add("limit", _cmd_limit,
            help="large-n limit of the measure for fixed (a, b)")
    for arg in ("a", "b"):
        p.add_argument(arg, type=_num)

    p = add("series", _cmd_series, tolerance,
            help="exact-series measure (needs |a|-|b| >= 1)")
    spec_args(p, _num)
    p.add_argument("--trace", action="store_true", help="emit every series term")

    def family_form(name, **kwargs):
        p = add(name, _cmd_family_form, **kwargs)
        spec_args(p, _num, ("a",))
        p.add_argument("--family", choices=("R", "S", "T"), required=True)

    family_form("bounds", help="house lower bound report for a family form")

    p = add("compare-bounds", _cmd_compare_bounds, help="literature house constants at degree n")
    p.add_argument("n", type=int)

    family_form("extremal", help="extremality verdict for a family form")

    p = add("scan", _cmd_scan, help="reducibility scan over n <= n_max")
    p.add_argument("--n-max", dest="n_max", type=int, required=True)
    p.add_argument("--a", type=_int_list, required=True,
                   help="comma-separated middle coefficients, e.g. -4,-3,3,4")
    p.add_argument("--signs", type=_int_list, default=[-1, 1],
                   help="comma-separated constant terms from {-1,1}")
    p.add_argument("--all-m", action="store_true",
                   help="include m with gcd(m, n) > 1")
    p.add_argument("--cache", metavar="FILE", default=None)
    p.add_argument("--threads", type=_positive(int), default=1,
                   help="worker processes (default 1)")

    p = add("converge", _cmd_converge, help="measure vs limit along a degree sequence")
    p.add_argument("--a", type=_num, required=True)
    p.add_argument("--b", type=_num, required=True)
    p.add_argument("--n", type=_int_list, required=True)
    p.add_argument("--m-rule", dest="m_rule", default="fixed:1",
                   help="fixed:<m>, last, or half")

    return parser


def cli_dispatch(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    out = _Output(args)
    out.config.update(command=args.command)
    for key in ("n", "m", "a", "b", "method", "family", "m_rule", "tolerance"):
        if hasattr(args, key) and getattr(args, key) is not None:
            out.config[key] = getattr(args, key)

    try:
        records = args.func(args, out.config)
        out.emit(records, jsonl=args.command == "scan")
        if args.command == "scan":
            sys.stderr.write(_scan_summary(args, len(records)))
        return 0
    except (TrinotoolError, ValueError, OverflowError, OSError) as exc:
        if args.format == "json":
            sys.stderr.write(json.dumps(
                {"error": {"type": type(exc).__name__, "message": str(exc)}}
            ) + "\n")
        else:
            sys.stderr.write(f"error: {exc}\n")
        return 1


def main() -> None:
    sys.exit(cli_dispatch())
