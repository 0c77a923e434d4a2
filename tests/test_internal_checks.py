"""Internal consistency checks raise InternalCheckFailed, also under python -O.

Each check guards an invariant the computation guarantees, so the tests
break one step of the computation on purpose and expect the check to fire.
"""

import builtins
import json
import os
import subprocess
import sys
from pathlib import Path

import liecohom
from liecohom import ce_complex, field_arith, quotient_pipeline
from liecohom.cli import main

SRC = str(Path(liecohom.__file__).resolve().parent.parent)

# Each case breaks one step, runs the computation that checks it, and
# prints whether InternalCheckFailed came out.  No assert statements:
# the script runs under -O.
BREAK_AND_RUN = r"""
import sys
from liecohom import ce_complex, lie_core, quotient_pipeline
from liecohom.errors import InternalCheckFailed
from liecohom.field_arith import QQ
from liecohom.lie_core import LieAlgebra, Subspace
from liecohom.quotient_pipeline import DenseQuotientInput

so3 = LieAlgebra("so3", 3, QQ, {(1, 2): {3: 1}, (2, 3): {1: 1}, (1, 3): {2: -1}})
heis = LieAlgebra("heisenberg3", 3, QQ, {(1, 2): {3: 1}})
centre = Subspace(3, [[0, 0, 1]], QQ)
real_rank_and_kernel = ce_complex._rank_and_kernel
real_cohomology = quotient_pipeline.cohomology


def drop_kernel_vector(rows, keys, one):
    pivots, kernel = real_rank_and_kernel(rows, keys, one)
    return pivots, kernel[:-1]


def drop_pivot(rows, keys, one):
    pivots, kernel = real_rank_and_kernel(rows, keys, one)
    return pivots[:-1], kernel


def wrong_betti(L, max_dim):
    report = real_cohomology(L, max_dim=max_dim)
    report.betti[0] += 1
    return report


cases = [
    ("kernel_vs_rank", ce_complex, "_rank_and_kernel", drop_kernel_vector,
     lambda: ce_complex.cohomology(so3)),
    ("pivots_vs_kernel", ce_complex, "_rank_and_kernel", drop_pivot,
     lambda: ce_complex.cohomology(so3)),
    ("representatives", ce_complex, "_echelon_insert", lambda echelon, vec: None,
     lambda: ce_complex.cohomology(so3)),
    ("quotient_jacobi", lie_core, "jacobi_check", lambda L: [(1, 2, 3, [0, 0, 0])],
     lambda: lie_core.quotient_algebra(heis, centre)),
    ("abelian_betti", quotient_pipeline, "cohomology", wrong_betti,
     lambda: quotient_pipeline.dense_quotient_cohomology(DenseQuotientInput(heis, centre))),
    ("chain_iso", quotient_pipeline, "_chain_iso_check", lambda L, h, qd: (1, None, "forced"),
     lambda: quotient_pipeline.dense_quotient_cohomology(DenseQuotientInput(heis, centre))),
]
print("optimize=%d" % sys.flags.optimize)
for name, module, attr, broken, run in cases:
    real = getattr(module, attr)
    setattr(module, attr, broken)
    try:
        run()
        print("%s: silent" % name)
    except InternalCheckFailed:
        print("%s: raised" % name)
    finally:
        setattr(module, attr, real)
"""


def test_checks_fire_under_optimize():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-O", "-c", BREAK_AND_RUN], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "optimize=1",
        "kernel_vs_rank: raised",
        "pivots_vs_kernel: raised",
        "representatives: raised",
        "quotient_jacobi: raised",
        "abelian_betti: raised",
        "chain_iso: raised",
    ]


def _write(tmp_path, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


HEIS = {"name": "heisenberg3", "dimension": 3, "field": "Q",
        "brackets": [{"i": 1, "j": 2, "terms": [{"k": 3, "coeff": "1"}]}]}


def _assert_cohomology_exits_6(tmp_path, capsys, monkeypatch, doctor):
    """`cohomology` on HEIS, with _rank_and_kernel's answer passed through
    doctor(pivots, kernel), exits 6 with no report and says why."""
    real = ce_complex._rank_and_kernel
    monkeypatch.setattr(ce_complex, "_rank_and_kernel",
                        lambda rows, keys, one: doctor(*real(rows, keys, one)))
    assert main(["cohomology", _write(tmp_path, HEIS)]) == 6
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "internal check failed" in captured.err


def test_cli_cohomology_exits_6(tmp_path, capsys, monkeypatch):
    # cohomology takes each degree's pivots and sparse kernel from the
    # engine's _rank_and_kernel; a dropped kernel vector must exit 6
    _assert_cohomology_exits_6(tmp_path, capsys, monkeypatch,
                               lambda pivots, kernel: (pivots, kernel[:-1]))


def test_cli_cohomology_exits_6_on_a_dropped_pivot(tmp_path, capsys, monkeypatch):
    # the pivots give the rank and the next degree's image; heisenberg3
    # has a pivot in degree 1, so dropping the last one must exit 6
    _assert_cohomology_exits_6(tmp_path, capsys, monkeypatch,
                               lambda pivots, kernel: (pivots[:-1], kernel))


def test_cli_quotient_exits_6(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(quotient_pipeline, "_chain_iso_check",
                        lambda L, h, qd: (1, None, "forced"))
    doc = {"algebra": HEIS, "ideal": {"vectors": [["0", "0", "1"]]}}
    assert main(["quotient", _write(tmp_path, doc)]) == 6
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "chain isomorphism check failed" in captured.err


def test_selftest_reports_a_broken_determinant_kernel(capsys, monkeypatch):
    # an inexact integer division inside the fraction-free kernel fails the
    # suites that use it, and the selftest exits as failed, not as a crash;
    # polynomial division, which also calls divmod, is left intact
    real = builtins.divmod
    monkeypatch.setattr(field_arith, "divmod",
                        lambda a, b: (a // b, 1) if type(a) is int else real(a, b),
                        raising=False)
    assert main(["selftest", "--seed", "0"]) == 5
    out = capsys.readouterr().out.splitlines()
    assert "suite rational_linear_algebra: FAIL (Bareiss divisibility violated)" in out
    assert "suite shuffle_evaluation: FAIL (Bareiss divisibility violated)" in out
    assert out[-1] == "selftest: FAIL"
