"""The report bytes that the benchmark pins, checked in tier-1.

Every q_graded, q_rebased and dense_quotient request of the recorded seed
is generated by perfbench/gen.py, run through cli.main in-process as the
benchmark runs it, and held by perfbench/oracles.py to the input and
stdout digests of perfbench/digests.json.  The two modules are loaded
from their source without writing bytecode, so nothing under perfbench/
changes.
"""

import contextlib
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
