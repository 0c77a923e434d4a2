import argparse
import json
import os
import random
import subprocess
import sys
import time
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

import liecohom
from liecohom.catalog import CATALOG_KEYS, catalog_entry
from liecohom.ce_complex import cohomology
from liecohom.cli import _json_text, main
from liecohom.field_arith import Field, format_scalar, parse_scalar
from liecohom.quotient_pipeline import dense_quotient_cohomology, pipeline_input_from_json


def write_doc(tmp_path, doc, name="doc.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def so3_doc():
    return {
        "name": "so3",
        "dimension": 3,
        "field": "Q",
        "brackets": [
            {"i": 1, "j": 2, "terms": [{"k": 3, "coeff": "1"}]},
            {"i": 2, "j": 3, "terms": [{"k": 1, "coeff": "1"}]},
            {"i": 1, "j": 3, "terms": [{"k": 2, "coeff": "-1"}]},
        ],
    }


def abelian_doc(n):
    return {"name": "abelian_%d" % n, "dimension": n, "field": "Q", "brackets": []}


def bad_jacobi_doc():
    return {
        "name": "bad",
        "dimension": 3,
        "field": "Q",
        "brackets": [
            {"i": 1, "j": 2, "terms": [{"k": 1, "coeff": "1"}]},
            {"i": 1, "j": 3, "terms": [{"k": 3, "coeff": "1"}]},
        ],
    }


def heis_pipeline_doc():
    return {
        "algebra": {
            "name": "heisenberg3",
            "dimension": 3,
            "field": "Q",
            "brackets": [{"i": 1, "j": 2, "terms": [{"k": 3, "coeff": "1"}]}],
        },
        "ideal": {"vectors": [["0", "0", "1"]]},
        "note": "central circle",
    }


def non_ideal_pipeline_doc():
    doc = {"algebra": so3_doc(), "ideal": {"vectors": [["1", "0", "0"]]}}
    return doc


# ---------------------------------------------------------------------------
# validate

def test_validate_algebra_ok(tmp_path, capsys):
    path = write_doc(tmp_path, so3_doc())
    assert main(["validate", path]) == 0
    out = capsys.readouterr().out
    assert "algebra: so3" in out
    assert "jacobi: ok" in out


def test_validate_pipeline_ok(tmp_path, capsys):
    path = write_doc(tmp_path, heis_pipeline_doc())
    assert main(["validate", path]) == 0
    out = capsys.readouterr().out
    assert "ideal: ok (dimension 1)" in out


@pytest.mark.parametrize("doc, line", [
    (so3_doc(), '{"status": "ok", "algebra": "so3", "dimension": 3}'),
    (heis_pipeline_doc(), '{"status": "ok", "algebra": "heisenberg3", "dimension": 3}'),
], ids=["algebra", "pipeline"])
def test_validate_json_prints_one_line(doc, line, tmp_path, capsys):
    assert main(["validate", write_doc(tmp_path, doc), "--json"]) == 0
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (line + "\n", "")


@pytest.mark.parametrize("command", ["validate", "cohomology", "quotient"])
def test_a_top_level_array_is_refused(command, tmp_path, capsys):
    assert main([command, write_doc(tmp_path, [so3_doc()])]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: top-level document must be a JSON object\n"


def test_validate_jacobi_violation(tmp_path, capsys):
    path = write_doc(tmp_path, bad_jacobi_doc())
    assert main(["validate", path]) == 1
    out = capsys.readouterr().out
    assert "jacobi: FAIL" in out
    assert "(1, 2, 3)" in out


def test_validate_jacobi_violation_json(tmp_path, capsys):
    path = write_doc(tmp_path, bad_jacobi_doc())
    assert main(["validate", "--json", path]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "jacobi_violation"
    assert payload["violations"][0] == {
        "i": 1, "j": 2, "k": 3, "residual": ["0", "0", "1"]
    }


def test_validate_not_an_ideal(tmp_path, capsys):
    path = write_doc(tmp_path, non_ideal_pipeline_doc())
    assert main(["validate", path]) == 2
    assert "ideal: FAIL" in capsys.readouterr().out


def test_validate_skips_triples_without_brackets(tmp_path, capsys):
    # the Jacobi sweep visits only triples with a nonzero bracket among
    # their pairs; all C(1000, 3) triples would take minutes
    one_bracket = abelian_doc(1000)
    one_bracket["brackets"] = [{"i": 1, "j": 2, "terms": [{"k": 3, "coeff": "1"}]}]
    for doc in (abelian_doc(1000), one_bracket):
        path = write_doc(tmp_path, doc)
        start = time.perf_counter()
        assert main(["validate", path]) == 0
        assert time.perf_counter() - start < 2.0
        assert "dimension: 1000" in capsys.readouterr().out


def test_validate_parse_failures(tmp_path, capsys):
    missing = str(tmp_path / "absent.json")
    assert main(["validate", missing]) == 3
    garbage = tmp_path / "garbage.json"
    garbage.write_text("{not json", encoding="utf-8")
    assert main(["validate", str(garbage)]) == 3
    garbage.write_bytes(b'{"name": "\xe9", "dimension": 1, "field": "Q", "brackets": []}')
    assert main(["validate", str(garbage)]) == 3
    unknown_key = dict(so3_doc())
    unknown_key["extra"] = 1
    path = write_doc(tmp_path, unknown_key)
    assert main(["validate", path]) == 3
    boolean_index = so3_doc()
    boolean_index["brackets"][0]["terms"][0]["k"] = True
    path = write_doc(tmp_path, boolean_index)
    assert main(["validate", path]) == 3
    err = capsys.readouterr().err
    assert "error:" in err
    assert "term index k must be an integer" in err


def _so3_with(**changes):
    return {**so3_doc(), **changes}


def _heis_pipeline_with(ideal):
    return {**heis_pipeline_doc(), "ideal": ideal}


def _torus_doc(directions):
    return {"algebra": abelian_doc(3), "ideal": {"torus_directions": directions}}


DOCUMENT_REFUSALS = [
    ("field_var", _so3_with(field={"rational_function_in": 3}),
     "rational_function_in must be an identifier string"),
    ("entry_not_object", _so3_with(brackets=[[1, 2]]), "bracket entry must be a JSON object"),
    ("name", _so3_with(name=5), "algebra name must be a string"),
    ("brackets", _so3_with(brackets={}), "brackets must be a list"),
    ("terms", _so3_with(brackets=[{"i": 1, "j": 2, "terms": {}}]), "terms must be a list"),
    ("vectors", _heis_pipeline_with({"vectors": {}}),
     "vectors must be a list of coordinate lists"),
    ("vector", _heis_pipeline_with({"vectors": ["1"]}),
     "each vector must be a list of scalar texts"),
    ("direction", _torus_doc(["1"]), "each direction must be a list of scalar texts"),
    ("vector_length", _heis_pipeline_with({"vectors": [["0", "1"]]}),
     "subspace vector of length 2, expected 3"),
    ("direction_length", _torus_doc([["1", "0", "0"], ["1"]]),
     "torus direction of length 1, expected 3"),
    ("directions", _torus_doc({}), "torus_directions must be a list of coordinate lists"),
    ("dimension", _so3_with(dimension=-1), "dimension must be a nonnegative integer"),
    # the algebra's constructor checks the dimension, after the whole document is read
    ("dimension_after_brackets", _so3_with(dimension=-1, brackets={}), "brackets must be a list"),
    ("indeterminate", _so3_with(field={"rational_function_in": "1a"}),
     "invalid indeterminate name '1a'"),
    ("coeff_not_text", _so3_with(brackets=[{"i": 1, "j": 2, "terms": [{"k": 3, "coeff": 5}]}]),
     "scalar must be given as text, got 5"),
    ("exponent", _so3_with(field={"rational_function_in": "a"},
                           brackets=[{"i": 1, "j": 2, "terms": [{"k": 3, "coeff": "a^a"}]}]),
     "exponent must be a nonnegative integer literal"),
]


@pytest.mark.parametrize("doc, message", [case[1:] for case in DOCUMENT_REFUSALS],
                         ids=[case[0] for case in DOCUMENT_REFUSALS])
def test_validate_refuses_a_malformed_document(doc, message, tmp_path, capsys):
    assert main(["validate", write_doc(tmp_path, doc)]) == 3
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: %s\n" % message)


def test_validate_rejects_nested_powers_past_the_cap(tmp_path):
    # ((a+1)^100)^100 has degree 10^4, and the product of four factors of
    # degree 600 has degree 2400: each must be refused, not computed
    src = str(Path(liecohom.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    for coeff in ("((a+1)^100)^100", "(a+1)^600*(a+1)^600*(a+1)^600*(a+1)^600"):
        doc = {"name": "huge", "dimension": 2, "field": {"rational_function_in": "a"},
               "brackets": [{"i": 1, "j": 2, "terms": [{"k": 2, "coeff": coeff}]}]}
        proc = subprocess.run(
            [sys.executable, "-m", "liecohom.cli", "validate", write_doc(tmp_path, doc)],
            env=env, capture_output=True, text=True, timeout=10)
        assert proc.returncode == 3, proc.stderr
        assert "too large" in proc.stderr


def test_validate_rejects_deeply_nested_coefficient(tmp_path, capsys):
    # a parse error, not a RecursionError out of main
    deep = so3_doc()
    deep["brackets"][0]["terms"][0]["coeff"] = "(" * 5000 + "1" + ")" * 5000
    assert main(["validate", write_doc(tmp_path, deep)]) == 3
    assert "nested deeper than 100" in capsys.readouterr().err


def test_validate_rejects_deeply_nested_json(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text('{"name": ' + "[" * 100000 + "]" * 100000 + "}", encoding="utf-8")
    assert main(["validate", str(path)]) == 3
    assert "nested too deeply" in capsys.readouterr().err


def test_integers_of_any_length_end_without_a_traceback(tmp_path, capsys):
    # a JSON integer past int()'s 4300-digit limit is a parse error; a
    # scalar literal or a computed residual past it is read and printed exactly
    long_dim = tmp_path / "long_dim.json"
    long_dim.write_text('{"name": "x", "dimension": %s, "field": "Q", "brackets": []}'
                        % ("1" * 5000), encoding="utf-8")
    assert main(["validate", str(long_dim)]) == 3
    assert "invalid JSON" in capsys.readouterr().err
    long_coeff = abelian_doc(3)
    long_coeff["brackets"] = [{"i": 1, "j": 2, "terms": [{"k": 3, "coeff": "1" * 5000}]}]
    assert main(["validate", write_doc(tmp_path, long_coeff)]) == 0
    assert "jacobi: ok" in capsys.readouterr().out
    c = 2**15000
    residual = abelian_doc(3)
    residual["brackets"] = [
        {"i": 1, "j": 2, "terms": [{"k": 3, "coeff": "*".join(["2^1000"] * 15)}]},
        {"i": 1, "j": 3, "terms": [{"k": 1, "coeff": "1"}]},
        {"i": 2, "j": 3, "terms": [{"k": 3, "coeff": "1"}]},
    ]
    path = write_doc(tmp_path, residual)
    digits = str(Decimal(-c))
    assert len(digits) == 4517
    assert main(["validate", path]) == 1
    out, err = capsys.readouterr()
    assert "triple (1, 2, 3): residual (-1, 0, %s)" % digits in out
    assert err == ""
    assert main(["validate", "--json", path]) == 1
    out, err = capsys.readouterr()
    assert json.loads(out)["violations"][0]["residual"] == ["-1", "0", digits]
    assert err == ""


def test_validate_rejects_a_repeated_key(tmp_path, capsys):
    top = tmp_path / "top.json"
    top.write_text('{"name": "x", "name": "y", "dimension": 2, "dimension": 3, '
                   '"field": "Q", "brackets": []}', encoding="utf-8")
    assert main(["validate", str(top)]) == 3
    assert "repeated key 'name'" in capsys.readouterr().err
    term = tmp_path / "term.json"
    term.write_text('{"name": "x", "dimension": 2, "field": "Q", "brackets": '
                    '[{"i": 1, "j": 2, "terms": [{"k": 1, "coeff": "1", "k": 2}]}]}',
                    encoding="utf-8")
    assert main(["validate", str(term)]) == 3
    assert "repeated key 'k'" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# cohomology

def test_cohomology_so3(tmp_path, capsys):
    path = write_doc(tmp_path, so3_doc())
    assert main(["cohomology", path]) == 0
    out = capsys.readouterr().out
    assert "betti: 1 0 0 1" in out
    assert "ranks: 0 3 0 0" in out


def test_cohomology_abelian5(tmp_path, capsys):
    path = write_doc(tmp_path, abelian_doc(5))
    assert main(["cohomology", path]) == 0
    assert "betti: 1 5 10 10 5 1" in capsys.readouterr().out


def test_cohomology_representatives(tmp_path, capsys):
    path = write_doc(tmp_path, so3_doc())
    assert main(["cohomology", "--representatives", path]) == 0
    out = capsys.readouterr().out
    assert "representatives:" in out
    assert "degree 3: t[1,2,3]" in out


def test_representatives_print_signs_and_wrapped_coefficients(tmp_path, capsys):
    # [e1,e2] = 2e3, [e1,e3] = e3, [e2,e3] = (a+1)e3 over Q(a): a coefficient
    # with a sign inside is printed in parentheses
    doc = {"name": "solv_3a", "dimension": 3, "field": {"rational_function_in": "a"},
           "brackets": [{"i": 1, "j": 2, "terms": [{"k": 3, "coeff": "2"}]},
                        {"i": 1, "j": 3, "terms": [{"k": 3, "coeff": "1"}]},
                        {"i": 2, "j": 3, "terms": [{"k": 3, "coeff": "a+1"}]}]}
    assert main(["cohomology", write_doc(tmp_path, doc), "--representatives"]) == 0
    assert capsys.readouterr().out == (
        "algebra: solv_3a\n"
        "dimension: 3\n"
        "betti: 1 2 1 0\n"
        "ranks: 0 1 1 0\n"
        "representatives:\n"
        "  degree 0: 1\n"
        "  degree 1: t[1]\n"
        "  degree 1: t[2]\n"
        "  degree 2: t[1,3] + (a + 1)*t[2,3]\n")


def test_cohomology_json(tmp_path, capsys):
    path = write_doc(tmp_path, so3_doc())
    assert main(["cohomology", "--json", path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["algebra"] == "so3"
    assert payload["betti"] == [1, 0, 0, 1]
    assert payload["ranks"] == [0, 3, 0, 0]
    degrees = [r["degree"] for r in payload["representatives"]]
    assert degrees == [0, 3]


def test_cohomology_rejects_pipeline_doc(tmp_path, capsys):
    path = write_doc(tmp_path, heis_pipeline_doc())
    assert main(["cohomology", path]) == 3
    assert "quotient command" in capsys.readouterr().err


def test_cohomology_jacobi_exit(tmp_path, capsys):
    path = write_doc(tmp_path, bad_jacobi_doc())
    assert main(["cohomology", path]) == 1
    capsys.readouterr()


def test_cohomology_dimension_cap(tmp_path, capsys):
    path = write_doc(tmp_path, abelian_doc(21))
    assert main(["cohomology", path]) == 4
    path = write_doc(tmp_path, so3_doc(), name="so3.json")
    assert main(["cohomology", "--max-dim", "2", path]) == 4
    err = capsys.readouterr().err
    assert "cap" in err
    # a zero cap is a cap, not a usage error
    assert main(["cohomology", "--max-dim", "0", path]) == 4
    assert "exceeds cap 0" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# quotient

def test_quotient_heisenberg(tmp_path, capsys):
    path = write_doc(tmp_path, heis_pipeline_doc())
    assert main(["quotient", path]) == 0
    out = capsys.readouterr().out
    assert "quotient_dim: 2" in out
    assert "abelian_quotient: true" in out
    assert "chain_iso: verified" in out
    assert "betti: 1 2 1" in out
    assert "note: central circle" in out


def test_quotient_no_chain_iso(tmp_path, capsys):
    path = write_doc(tmp_path, heis_pipeline_doc())
    assert main(["quotient", "--no-chain-iso", path]) == 0
    assert "chain_iso: skipped" in capsys.readouterr().out


def test_quotient_json(tmp_path, capsys):
    path = write_doc(tmp_path, heis_pipeline_doc())
    assert main(["quotient", "--json", path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["quotient_dim"] == 2
    assert payload["abelian_quotient"] is True
    assert payload["chain_iso_verified"] is True
    assert payload["report"]["betti"] == [1, 2, 1]


def test_quotient_torus_catalog_doc(tmp_path, capsys):
    entry = catalog_entry("torus2_alpha")
    path = write_doc(tmp_path, entry.document)
    assert main(["quotient", path]) == 0
    out = capsys.readouterr().out
    assert "quotient_dim: 1" in out
    assert "betti: 1 1" in out


def test_quotient_not_an_ideal(tmp_path, capsys):
    path = write_doc(tmp_path, non_ideal_pipeline_doc())
    assert main(["quotient", path]) == 2
    assert "ideal: FAIL" in capsys.readouterr().out


def test_quotient_rejects_plain_algebra(tmp_path, capsys):
    path = write_doc(tmp_path, so3_doc())
    assert main(["quotient", path]) == 3
    assert "cohomology command" in capsys.readouterr().err


def test_quotient_dimension_cap(tmp_path, capsys):
    doc = {"algebra": abelian_doc(21), "ideal": {"vectors": []}}
    path = write_doc(tmp_path, doc)
    assert main(["quotient", path]) == 4
    capsys.readouterr()


# ---------------------------------------------------------------------------
# catalog

def test_catalog_list(capsys):
    assert main(["catalog", "list"]) == 0
    out = capsys.readouterr().out
    for key in CATALOG_KEYS:
        assert key in out


def test_catalog_list_json(capsys):
    assert main(["catalog", "list", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["keys"] == list(CATALOG_KEYS)


@pytest.mark.parametrize("argv", [["so3"], ["--doc"]], ids=["key", "doc"])
def test_catalog_list_refuses_a_key_and_doc(argv, capsys):
    # as catalog show refuses a missing key, list refuses what it cannot use
    assert main(["catalog", "list"] + argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: catalog list takes no key and no --doc\n"


def test_catalog_show(capsys):
    assert main(["catalog", "show", "so3"]) == 0
    out = capsys.readouterr().out
    assert "key: so3" in out
    assert "expected betti: 1 0 0 1" in out


def test_catalog_show_abelian_family(capsys):
    assert main(["catalog", "show", "abelian_4"]) == 0
    out = capsys.readouterr().out
    assert "expected betti: 1 4 6 4 1" in out


def test_catalog_show_doc_round_trips(tmp_path, capsys):
    assert main(["catalog", "show", "heisenberg3", "--doc"]) == 0
    text = capsys.readouterr().out
    assert json.loads(text) == catalog_entry("heisenberg3").document
    path = tmp_path / "heis.json"
    path.write_text(text, encoding="utf-8")
    assert main(["validate", str(path)]) == 0
    capsys.readouterr()
    assert main(["cohomology", str(path)]) == 0
    assert "betti: 1 2 2 1" in capsys.readouterr().out


def test_catalog_show_unknown(capsys):
    assert main(["catalog", "show", "no_such_algebra"]) == 3
    assert "error:" in capsys.readouterr().err


def test_catalog_show_missing_key(capsys):
    assert main(["catalog", "show"]) == 3
    capsys.readouterr()


def test_catalog_documents_round_trip(tmp_path, capsys):
    # every shipped document must validate and reproduce its stated numbers
    for key in CATALOG_KEYS:
        entry = catalog_entry(key)
        path = write_doc(tmp_path, entry.document, name="%s.json" % key)
        assert main(["validate", path]) == 0, key
        capsys.readouterr()
        if "algebra" in entry.document:
            assert main(["quotient", path]) == 0, key
        else:
            assert main(["cohomology", path]) == 0, key
        out = capsys.readouterr().out
        expected = "betti: %s" % " ".join(str(b) for b in entry.expected_betti)
        assert expected in out, key


# ---------------------------------------------------------------------------
# the --json writer

def indented(value):
    return json.dumps(value, indent=2)


def test_json_text_matches_json_dumps_on_every_catalog_payload(tmp_path, capsys):
    for key in CATALOG_KEYS:
        entry = catalog_entry(key)
        path = write_doc(tmp_path, entry.document, name="%s.json" % key)
        if "algebra" in entry.document:
            report = dense_quotient_cohomology(pipeline_input_from_json(entry.document))
            command = "quotient"
        else:
            report = cohomology(entry.algebra)
            command = "cohomology"
        expected = indented(report.to_json())
        assert _json_text(report.to_json()) == expected, key
        assert main([command, "--json", path]) == 0
        assert capsys.readouterr().out == expected + "\n", key
        shown = {"key": entry.key, "note": entry.note,
                 "expected_betti": entry.expected_betti, "document": entry.document}
        assert main(["catalog", "show", key, "--json"]) == 0
        assert capsys.readouterr().out == indented(shown) + "\n", key
        assert main(["catalog", "show", key, "--doc"]) == 0
        assert capsys.readouterr().out == indented(entry.document) + "\n", key
        assert main(["catalog", "show", key]) == 0
        assert capsys.readouterr().out.endswith("\n" + indented(entry.document) + "\n"), key
    assert main(["catalog", "list", "--json"]) == 0
    assert capsys.readouterr().out == indented({"keys": list(CATALOG_KEYS)}) + "\n"


def bad_jacobi_doc_over_qa():
    doc = bad_jacobi_doc()
    doc["field"] = {"rational_function_in": "a"}
    doc["brackets"][1]["terms"][0]["coeff"] = "(a^2 - 1/3)/(2*a + 5)"
    return doc


@pytest.mark.parametrize("command, doc, code", [
    ("validate", bad_jacobi_doc(), 1),
    ("validate", bad_jacobi_doc_over_qa(), 1),
    ("cohomology", bad_jacobi_doc_over_qa(), 1),
    ("validate", non_ideal_pipeline_doc(), 2),
    ("quotient", non_ideal_pipeline_doc(), 2),
], ids=["jacobi", "jacobi_qa", "cohomology_jacobi_qa", "ideal", "quotient_ideal"])
def test_json_text_matches_json_dumps_on_refusals(tmp_path, capsys, command, doc, code):
    assert main([command, "--json", write_doc(tmp_path, doc)]) == code
    out = capsys.readouterr().out
    payload = json.loads(out)
    assert payload["status"] in ("jacobi_violation", "not_an_ideal")
    assert out == indented(payload) + "\n"
    assert _json_text(payload) == indented(payload)


# quote, backslash, control and non-ASCII characters (a line separator and
# one outside the basic plane, which json escapes as a surrogate pair)
_CHARS = 'aZ09 :,"\\/\x00\x1f\x7f\n\t\u00e9\u2028\U0001d49c'
_QA = Field("a")


class _Int(int):
    def __repr__(self):
        return "not this"


class _Str(str):
    def __str__(self):
        return "not this"


def random_json(rng, depth):
    kind = rng.randrange(9 if depth else 5)
    if kind == 0:
        return rng.choice([True, False, None, 0, -1, _Int(7), _Str("s")])
    if kind == 1:
        return rng.randint(-10**40, 10**40)
    if kind == 2:
        return "".join(rng.choice(_CHARS) for _ in range(rng.randrange(6)))
    if kind == 3:
        # a Q(a) coefficient as a report prints it
        return format_scalar(parse_scalar("(%d*a^2 - %d/%d)/(a + %d)" % (
            rng.randint(-9, 9), rng.randint(0, 9), rng.randint(1, 9), rng.randint(1, 9)), _QA))
    if kind == 4:
        return [rng.randint(-5, 99) for _ in range(rng.randrange(4))]
    if kind in (5, 6):
        return [random_json(rng, depth - 1) for _ in range(rng.randrange(4))]
    key = _Str if kind == 7 else str
    return {key("".join(rng.choice(_CHARS) for _ in range(rng.randrange(4)))):
            random_json(rng, depth - 1) for _ in range(rng.randrange(4))}


def test_json_text_matches_json_dumps_on_random_values():
    rng = random.Random(23)
    seen = set()
    for _ in range(3000):
        value = random_json(rng, 4)
        assert _json_text(value) == indented(value), value
        seen.add(type(value).__name__ + ("_empty" if value == [] or value == {} else ""))
    assert seen >= {"dict", "dict_empty", "list", "list_empty", "str", "int"}
    for value in ([1, True], [True, 1], ["x", 1], [1, "x"], [None, None], [[]],
                  [{}], {"": []}, [_Int(3), 4], [4, _Int(3)], [_Str("q"), "r"],
                  {"k": [1, [2, [3, []]]]}, "\u0000\\\"\ud800"):
        assert _json_text(value) == indented(value), value


@pytest.mark.parametrize("value", [
    1.5, (1, 2), {1, 2}, b"x", Fraction(1, 2), object(),
    [1, 2.0], ["x", (1,)], {"k": {"j": 1.0}}, {1: "x"}, {None: 1},
], ids=lambda value: "object" if type(value) is object else repr(value))
def test_json_text_refuses_other_types(value):
    with pytest.raises(TypeError):
        _json_text(value)


@pytest.mark.parametrize("value", [10**5000, [1, 10**5000], {"x": [[-10**5000]]}],
                         ids=["int", "flat_list", "nested"])
def test_json_text_refuses_an_int_past_the_digit_limit_as_json_dumps_does(value):
    with pytest.raises(ValueError):
        indented(value)
    with pytest.raises(ValueError):
        _json_text(value)


def test_argparse_usage_errors_exit_2():
    # malformed invocations are argparse's domain; its usage failures exit 2
    # before any document is read, distinct from our not-an-ideal code path
    with pytest.raises(SystemExit) as exc_info:
        main(["cohomology"])
    assert exc_info.value.code == 2
    with pytest.raises(SystemExit) as exc_info:
        main(["selftest", "--seed", "-1"])
    assert exc_info.value.code == 2


@pytest.mark.parametrize("argv", [
    ["cohomology", "--max-dim", "-1", "doc.json"],
    ["quotient", "--max-dim", "-1", "doc.json"],
    ["selftest", "--step", "0"],
    ["selftest", "--step", "nan"],
    ["selftest", "--step", "-1e-6"],
    ["selftest", "--step", "inf"],
    ["selftest", "--tol", "-1"],
    ["selftest", "--tol", "nan"],
    ["selftest", "--tol", "0"],
    ["selftest", "--tol", "inf"],
    # int() and float() read these too: other scripts' digits, surrounding
    # whitespace and underscores
    ["cohomology", "--max-dim", "\u0663", "doc.json"],
    ["quotient", "--max-dim", " 3", "doc.json"],
    ["selftest", "--seed", "\u0661"],
    ["selftest", "--seed", "1_0"],
    ["selftest", "--seed", "+5"],
    ["selftest", "--tol", "\u0663"],
    ["selftest", "--step", "\u0663"],
    ["selftest", "--step", "1_0e-4"],
    # int() and float() refuse these; the message names the expected form,
    # not the private function that read the text
    ["cohomology", "--max-dim", "abc", "doc.json"],
    ["selftest", "--seed", "x"],
    ["selftest", "--tol", "e"],
    ["selftest", "--step", "1e"],
])
def test_bad_numeric_options_are_usage_errors(argv, capsys):
    # rejected while parsing, before any document is read or suite is run
    with pytest.raises(SystemExit) as exc_info:
        main(argv)
    assert exc_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert argv[1] in captured.err
    assert "_type" not in captured.err


def test_numeric_options_past_the_int_digit_limit(tmp_path, capsys):
    # int() refuses more than sys.get_int_max_str_digits() digits; the
    # options read ASCII digits at any length
    digits = "1" * 5000
    with pytest.raises(SystemExit) as exc_info:
        main(["selftest", "--seed", digits])
    assert exc_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "seed must fit in 64 bits" in captured.err
    assert "is not an integer" not in captured.err and "1" * 100 not in captured.err
    assert main(["cohomology", "--max-dim", digits, write_doc(tmp_path, so3_doc())]) == 0
    assert "betti: 1 0 0 1" in capsys.readouterr().out
    assert main(["quotient", "--max-dim", digits,
                 write_doc(tmp_path, heis_pipeline_doc(), name="pipeline.json")]) == 0
    assert "betti: 1 2" in capsys.readouterr().out


def test_a_long_seed_is_refused_by_its_length(monkeypatch, capsys):
    # past 20 digits after the leading zeros a seed is refused unconverted;
    # leading zeros do not count, so 000...05 runs seed 5
    def unread(*args):
        raise AssertionError("a seed past 20 digits was converted")

    monkeypatch.setattr(liecohom.cli, "_read", unread)
    for digits in ["9" * 131_000, "0" * 50 + "1" + "0" * 20]:
        with pytest.raises(SystemExit) as exc_info:
            main(["selftest", "--seed", digits])
        assert exc_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "seed must fit in 64 bits" in captured.err
    monkeypatch.undo()
    for digits in [str(2**64), "0" * 5000 + str(2**64)]:
        with pytest.raises(SystemExit):
            main(["selftest", "--seed", digits])
        assert "seed must fit in 64 bits" in capsys.readouterr().err
    assert liecohom.cli._PARSER.parse_args(["selftest", "--seed", "0" * 131_000 + "5"]).seed == 5


# --help, an unknown option and no arguments, at the top level and for
# each subcommand; cli_surface.json holds their stdout, stderr and exit
# code as printed at 80 columns by the Python version it names
CLI_SURFACE = json.loads((Path(__file__).parent / "cli_surface.json").read_text(encoding="utf-8"))
SURFACE_ARGV = [prefix + tail
                for prefix in [[], ["validate"], ["cohomology"], ["quotient"],
                               ["catalog"], ["selftest"]]
                for tail in (["--help"], ["--bogus-option"], [])]


def test_usage_surface_matches_its_recording(monkeypatch, capsys):
    assert [r["argv"] for r in CLI_SURFACE["invocations"]] == SURFACE_ARGV
    if CLI_SURFACE["python"] != "%d.%d" % sys.version_info[:2]:
        pytest.skip("argparse lays out help differently in other Python versions")
    monkeypatch.setenv("COLUMNS", "80")
    for record in CLI_SURFACE["invocations"]:
        try:
            code = main(record["argv"])
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        assert (captured.out, captured.err, code) == (
            record["stdout"], record["stderr"], record["code"]), record["argv"]


def test_main_builds_no_parser(monkeypatch, capsys):
    # the parser is built once, at import; calls only parse
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert main(["catalog", "list"]) == 0
    assert main(["catalog", "list", "--json"]) == 0
    capsys.readouterr()
    assert built == []


def test_exact_commands_do_not_load_numpy(tmp_path):
    # numpy adds ~12 MiB of resident memory; only the numeric check needs it
    script = (
        "import sys\n"
        "import liecohom.cli as cli\n"
        "codes = [cli.main(['cohomology', sys.argv[1]]), cli.main(['quotient', sys.argv[2]])]\n"
        "print(codes, 'numpy' in sys.modules)\n"
        "import liecohom\n"
        "print(liecohom.maurer_cartan_check.__name__)\n"
    )
    src = str(Path(liecohom.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", script, write_doc(tmp_path, so3_doc()),
         write_doc(tmp_path, heis_pipeline_doc(), name="pipeline.json")],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-2:] == ["[0, 0] False", "maurer_cartan_check"]


def test_importing_cli_runs_neither_selftest_nor_catalog(tmp_path):
    # both are in sys.modules from the start, but run on first use only
    script = (
        "import sys\n"
        "import liecohom.cli as cli\n"
        "def kinds():\n"
        "    return ' '.join(type(sys.modules['liecohom.' + n]).__name__\n"
        "                    for n in ('catalog', 'selftest'))\n"
        "print('start', kinds())\n"
        "codes = [cli.main(['cohomology', sys.argv[1]]), cli.main(['quotient', sys.argv[2]])]\n"
        "print('exact', codes, kinds())\n"
        "codes = [cli.main(['catalog', 'show', 'so3', '--doc'])]\n"
        "print('catalog', codes, kinds())\n"
        "import liecohom.selftest as selftest\n"
        "print('selftest', selftest.run_selftest.__name__, kinds())\n"
        "import liecohom\n"
        "print('package', liecohom.catalog is sys.modules['liecohom.catalog'])\n"
    )
    src = str(Path(liecohom.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", script, write_doc(tmp_path, so3_doc()),
         write_doc(tmp_path, heis_pipeline_doc(), name="pipeline.json")],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    tagged = [line for line in proc.stdout.splitlines()
              if line.split(" ")[0] in ("start", "exact", "catalog", "selftest", "package")]
    assert tagged == [
        "start _LazyModule _LazyModule",
        "exact [0, 0] _LazyModule _LazyModule",
        "catalog [0] module _LazyModule",
        "selftest run_selftest module module",
        "package True",
    ]


# ---------------------------------------------------------------------------
# selftest

def test_selftest_passes_and_is_deterministic(capsys):
    assert main(["selftest", "--seed", "5"]) == 0
    first = capsys.readouterr().out
    assert "selftest: PASS" in first
    assert main(["selftest", "--seed", "5"]) == 0
    second = capsys.readouterr().out
    assert first == second


def test_selftest_fails_at_impossible_tolerance(capsys):
    assert main(["selftest", "--tol", "1e-15"]) == 5
    out = capsys.readouterr().out
    assert "selftest: FAIL" in out
    assert "maurer_cartan_numeric" in out
