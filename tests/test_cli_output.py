"""What the CLI prints, command by command: the field order of text and CSV
records, strict JSON, a json-mode stderr that holds one JSON object (the
error, or scan's summary), and a text-mode error that is one line."""

import csv
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from trinotool import polycore
from trinotool.cli import cli_dispatch

# the README `## CLI` commands, each with the distinct key sequences of its
# records in the order they print, and the CSV header
_README_FIELDS = [
    (("measure", "3", "1", "-1", "-1", "--method", "all"),
     [("method", "value", "log_value", "error_bound"), ("method", "error")],
     "method,value,log_value,error_bound,error"),
    (("house", "3", "1", "-2", "-1"),
     [("house",)],
     "house"),
    (("roots", "4", "1", "-3", "1", "--classify"),
     [("re", "im", "modulus"), ("label", "value")],
     "re,im,modulus,label,value"),
    (("factor", "33", "11", "67", "1"),
     [("degree", "coeffs", "multiplicity")],
     "degree,coeffs,multiplicity"),
    (("irreducible", "14", "5", "4", "-1"),
     [("verdict", "certificate", "witness_coeffs", "witness_degree")],
     "verdict,certificate,witness_coeffs,witness_degree"),
    (("limit", "1", "1"),
     [("case", "gamma", "value", "log_value", "error_bound")],
     "case,gamma,value,log_value,error_bound"),
    (("series", "5", "2", "3", "1", "--trace"),
     [("method", "value", "log_value", "error_bound"), ("k", "closed_form")],
     "method,value,log_value,error_bound,k,closed_form"),
    (("bounds", "4", "1", "3", "--family", "R"),
     [("family", "n", "m", "a", "bound", "t0", "house", "satisfied")],
     "family,n,m,a,bound,t0,house,satisfied"),
    (("compare-bounds", "10"),
     [("n", "dimitrov", "matveev", "rhin_wu", "voutier", "verger_gaugry",
       "verger_gaugry_note", "smyth_boyd_house", "trivial_mn")],
     "n,dimitrov,matveev,rhin_wu,voutier,verger_gaugry,verger_gaugry_note,"
     "smyth_boyd_house,trivial_mn"),
    (("extremal", "3", "1", "2", "--family", "T"),
     [("family", "n", "m", "a", "house", "threshold", "verdict", "sign_certificate")],
     "family,n,m,a,house,threshold,verdict,sign_certificate"),
    (("scan", "--n-max", "14", "--a", "-4,-3,3,4", "--threads", "4", "--cache", "scan.jsonl"),
     [("n", "m", "a", "b", "reducible", "factor_degrees", "certificate", "measure", "house")],
     "n,m,a,b,reducible,factor_degrees,certificate,measure,house"),
    (("converge", "--a", "3", "--b", "1", "--n", "10,20,40,80", "--m-rule", "fixed:1"),
     [("n", "m", "measure", "limit", "gap")],
     "n,m,measure,limit,gap"),
]


def _printed(tmp_path, argv, fmt):
    out = tmp_path / f"out.{fmt}"
    assert cli_dispatch([*argv, "--format", fmt, "--out", str(out)]) == 0
    return out.read_text()


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


def _json_records(text, jsonl):
    """The records of json-mode output, parsed as strict JSON (no NaN or
    Infinity): scan's one object a line, or an envelope's records."""
    if jsonl:
        return [json.loads(line, parse_constant=_refuse_constant)
                for line in text.splitlines()]
    return json.loads(text, parse_constant=_refuse_constant)["records"]


@pytest.mark.parametrize("argv, key_sequences, header", _README_FIELDS,
                         ids=[argv[0] for argv, _, _ in _README_FIELDS])
def test_readme_commands_print_fields_in_fixed_order(argv, key_sequences, header,
                                                     tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # scan writes its cache to the working directory
    blocks = _printed(tmp_path, argv, "text").split("\n\n")
    records = [tuple(line.split(" = ")[0] for line in block.splitlines())
               for block in blocks if block.strip()]
    assert list(dict.fromkeys(records)) == key_sequences
    assert _printed(tmp_path, argv, "csv").splitlines()[0] == header
    records = _json_records(_printed(tmp_path, argv, "json"), jsonl=argv[0] == "scan")
    assert {frozenset(r) for r in records} == set(map(frozenset, key_sequences))


# 10^20 + 1 is not a double: read as a float it would echo as 1e+20
_BIG_A = "100000000000000000001"


@pytest.mark.parametrize("argv", [("bounds", "6", "1", _BIG_A, "--family", "R"),
                                  ("extremal", "5", "2", _BIG_A, "--family", "T")],
                         ids=lambda argv: argv[0])
def test_family_commands_echo_an_integer_a_exactly(argv, tmp_path):
    envelope = json.loads(_printed(tmp_path, argv, "json"))
    assert envelope["config"]["a"] == envelope["records"][0]["a"] == int(_BIG_A)
    assert next(csv.DictReader(io.StringIO(_printed(tmp_path, argv, "csv"))))["a"] == _BIG_A
    assert f"a = {_BIG_A}" in _printed(tmp_path, argv, "text").splitlines()


@pytest.mark.parametrize("command", ["bounds", "extremal"])
def test_family_commands_refuse_a_complex_a(command, capsys):
    # a domain error (exit 1), as roots --classify gives a non-integer a
    assert cli_dispatch([command, "4", "1", "3+1j", "--family", "R",
                         "--format", "json"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {
        "error": {"type": "ValueError", "message": "a must be real, got (3+1j)"}}


def _run_fresh(argv, fmt="json", cwd=None):
    """argv run with --format fmt in a fresh interpreter."""
    src = str(Path(polycore.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "trinotool", *argv, "--format", fmt],
                          env=env, cwd=cwd, capture_output=True, text=True, timeout=120)


# inputs whose solve overflows to NaN
_NAN_ARGVS = pytest.mark.parametrize("argv", [
    ("roots", "60", "59", "-1000000", "-1"),
    ("measure", "7", "3", "1e300", "1"),
    ("house", "7", "3", "1e300", "1"),
], ids=lambda argv: argv[0])


# a fresh interpreter, so that stderr is the process's own: a warning that
# escaped the solver would print there, next to the error

@_NAN_ARGVS
def test_json_mode_stderr_is_one_error_object(argv):
    proc = _run_fresh(argv)
    assert proc.returncode == 1 and proc.stdout == ""
    error = json.loads(proc.stderr)["error"]
    assert error["type"] == "ConvergenceFailure" and "NaN" in error["message"]


@_NAN_ARGVS
def test_text_mode_stderr_is_one_error_line(argv):
    proc = _run_fresh(argv, "text")
    assert proc.returncode == 1 and proc.stdout == ""
    assert re.fullmatch(r"error: [^\n]* came out NaN\n", proc.stderr), proc.stderr


def test_json_mode_scan_stderr_is_one_summary_object(tmp_path):
    proc = _run_fresh(("scan", "--n-max", "8", "--a", "3"), cwd=tmp_path)
    assert proc.returncode == 0
    rows = [json.loads(line) for line in proc.stdout.splitlines()]
    assert json.loads(proc.stderr) == {"scan": {
        "n_max": 8, "a": [3], "signs": [-1, 1], "coprime_only": True, "rows": len(rows)}}
    # the summary follows the rows: an --out that cannot be written leaves
    # stderr with the error object alone
    proc = _run_fresh(("scan", "--n-max", "8", "--a", "3", "--out",
                       str(tmp_path / "no" / "such" / "dir" / "x")), cwd=tmp_path)
    assert proc.returncode == 1 and proc.stdout == ""
    assert json.loads(proc.stderr)["error"]["type"] == "FileNotFoundError"
