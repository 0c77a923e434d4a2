"""The README's examples run as written.

Every ```python block executes, and an expression statement with a
trailing comment must print as that comment: `report.betti  # [1, 0, 0, 1]`
asserts str(report.betti) == "[1, 0, 0, 1]".  The ```json documents load
with the readers the command line uses; the so3 document is the catalog's
so3, and both give the answers the README states for them.
"""

import ast
import json
import re
from pathlib import Path

import pytest

from liecohom.catalog import catalog_entry
from liecohom.ce_complex import cohomology
from liecohom.lie_core import algebra_from_json
from liecohom.quotient_pipeline import dense_quotient_cohomology, pipeline_input_from_json

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def blocks(lang):
    return re.findall(r"^```%s\n(.*?)^```$" % lang, README, flags=re.M | re.S)


PYTHON_BLOCKS = blocks("python")


def test_readme_holds_the_examples():
    assert len(PYTHON_BLOCKS) == 2
    assert len(blocks("json")) == 2


@pytest.mark.parametrize("source", PYTHON_BLOCKS,
                         ids=["block%d" % i for i in range(len(PYTHON_BLOCKS))])
def test_readme_python_block_runs_and_prints_its_comments(source):
    lines = source.splitlines()
    namespace = {}
    compared = 0
    for node in ast.parse(source).body:
        comment = lines[node.end_lineno - 1][node.end_col_offset:].strip()
        if isinstance(node, ast.Expr) and comment.startswith("#"):
            value = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
            assert str(value) == comment[1:].strip(), ast.unparse(node)
            compared += 1
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
    assert compared >= 2


def test_readme_json_documents_load():
    docs = {doc["name"] if "name" in doc else doc["algebra"]["name"]: doc
            for doc in map(json.loads, blocks("json"))}
    assert sorted(docs) == ["so3", "torus2"]
    so3 = algebra_from_json(docs["so3"])
    assert so3.brackets == catalog_entry("so3").algebra.brackets
    assert cohomology(so3).betti == [1, 0, 0, 1]
    rep = dense_quotient_cohomology(pipeline_input_from_json(docs["torus2"]))
    assert (rep.quotient_dim, rep.report.betti, rep.chain_iso_verified) == (1, [1, 1], True)
