"""The report bytes that the benchmark pins, checked in tier-1.

Every q_graded, q_rebased and dense_quotient request of the recorded seed
is generated by perfbench/gen.py, run through cli.main in-process as the
benchmark runs it, and held by perfbench/oracles.py to the input and
stdout digests of perfbench/digests.json.  The two modules are loaded
from their source without writing bytecode, so nothing under perfbench/
changes.  One text report with --representatives, which no benchmark
request prints, is pinned here as well.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import sys
from pathlib import Path

import pytest

from liecohom.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location("perfbench_" + name, PERFBENCH / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    written = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = written
    return module


gen = _load("gen")
oracles = _load("oracles")
DIGESTS = oracles.load_digests()


@pytest.mark.parametrize("workload", ["q_graded", "q_rebased", "dense_quotient"])
def test_benchmark_requests_match_their_recorded_digests(workload, tmp_path):
    reqs = gen.requests(workload, DIGESTS["seed"])
    assert {req["name"] for req in reqs} == set(DIGESTS["workloads"][workload])
    for i, req in enumerate(reqs):
        path = tmp_path / ("%d.json" % i)
        path.write_text(json.dumps(req["doc"], indent=2), encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main([req["kind"], str(path)] + req["argv"])
        outcome = {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue(),
                   "error": None}
        assert oracles.check(workload, req, outcome, DIGESTS) == [], req["name"]


def test_rebased_representatives_print_minus_signs_and_fractions(tmp_path, capsys):
    # the text report of q_rebased's L_6 at seed 0, whose representatives
    # carry coefficients -1 and non-integer fractions
    req = next(r for r in gen.requests("q_rebased", 0) if r["name"] == "L_6_rebased")
    path = tmp_path / "L_6_rebased.json"
    path.write_text(json.dumps(req["doc"]), encoding="utf-8")
    assert main(["cohomology", str(path), "--representatives"]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[:7] == ["algebra: L_6_rebased", "dimension: 6", "betti: 1 2 3 4 3 2 1",
                         "ranks: 0 4 8 8 4 0 0", "representatives:", "  degree 0: 1",
                         "  degree 1: t[1] + -2/3*t[3] + -2/3*t[4] + 4/3*t[5]"]
    assert lines[8] == "  degree 2: t[1,6] + t[2,6] + -t[3,6] + -t[4,6] + t[5,6]"
    assert len(lines) == 21
    # and the rest of the report, byte for byte
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "d272d0a12f9d986072fd7e1d581c21de48bd427835b4bada602149df33987cd8")
