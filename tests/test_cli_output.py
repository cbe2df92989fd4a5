"""What the CLI prints, command by command: the field order of text and CSV
records, and a json-mode stderr that holds one JSON object: the error, or
scan's summary."""

import json
import os
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


def _run_json(argv, cwd=None):
    """argv run with --format json in a fresh interpreter."""
    src = str(Path(polycore.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "trinotool", *argv, "--format", "json"],
                          env=env, cwd=cwd, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("argv", [
    ("roots", "60", "59", "-1000000", "-1"),
    ("measure", "7", "3", "1e300", "1"),
    ("house", "7", "3", "1e300", "1"),
], ids=lambda argv: argv[0])
def test_json_mode_stderr_is_one_error_object(argv):
    # a fresh interpreter: numpy warns once per code location per process, so
    # an earlier test in this one may already have spent the warnings
    proc = _run_json(argv)
    assert proc.returncode == 1 and proc.stdout == ""
    error = json.loads(proc.stderr)["error"]
    assert error["type"] == "ConvergenceFailure" and "NaN" in error["message"]


def test_json_mode_scan_stderr_is_one_summary_object(tmp_path):
    proc = _run_json(("scan", "--n-max", "8", "--a", "3"), cwd=tmp_path)
    assert proc.returncode == 0
    rows = [json.loads(line) for line in proc.stdout.splitlines()]
    assert json.loads(proc.stderr) == {"scan": {
        "n_max": 8, "a": [3], "signs": [-1, 1], "coprime_only": True, "rows": len(rows)}}
    # the summary follows the rows: an --out that cannot be written leaves
    # stderr with the error object alone
    proc = _run_json(("scan", "--n-max", "8", "--a", "3", "--out",
                      str(tmp_path / "no" / "such" / "dir" / "x")), cwd=tmp_path)
    assert proc.returncode == 1 and proc.stdout == ""
    assert json.loads(proc.stderr)["error"]["type"] == "FileNotFoundError"
