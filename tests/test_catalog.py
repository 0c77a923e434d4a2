import copy
import io
import random
from math import comb
from types import SimpleNamespace

import pytest

from liecohom.catalog import (
    CATALOG_KEYS,
    catalog_entry,
    catalog_keys,
    describe,
    selftest_entries,
)
from liecohom.ce_complex import cohomology
from liecohom.errors import ParseError
from liecohom.quotient_pipeline import DenseQuotientInput, dense_quotient_cohomology
from liecohom import selftest
from liecohom.field_arith import QQ
from liecohom.lie_core import LieAlgebra
from liecohom.mc_numeric import DEFAULT_STEP, DEFAULT_TOL
from liecohom.selftest import SUITES, SuiteFailure, run_selftest


def test_keys_and_descriptions():
    assert catalog_keys() == list(CATALOG_KEYS)
    assert len(CATALOG_KEYS) == 7
    for key in CATALOG_KEYS:
        assert describe(key)


def test_abelian_family_resolution():
    entry = catalog_entry("abelian_5")
    assert entry.key == "abelian_5"
    assert entry.algebra.dim == 5
    assert entry.expected_betti == [comb(5, k) for k in range(6)]
    # the bare family key resolves to a small representative
    assert catalog_entry("abelian_n").key == "abelian_3"


def test_abelian_family_respects_cap():
    assert catalog_entry("abelian_20").algebra.dim == 20
    with pytest.raises(ParseError):
        catalog_entry("abelian_21")


def test_unknown_key():
    with pytest.raises(ParseError):
        catalog_entry("so4")
    with pytest.raises(ParseError):
        catalog_entry("")
    # abelian dimensions are ASCII digits of any length
    for key in ("abelian_\u0663", "abelian_\uff13"):
        with pytest.raises(ParseError, match="unknown catalog key"):
            catalog_entry(key)
    with pytest.raises(ParseError, match="abelian dimension 9{5000} exceeds cap 20"):
        catalog_entry("abelian_" + "9" * 5000)


def test_torus_entries_share_expected_numbers():
    a = catalog_entry("torus2_alpha")
    b = catalog_entry("torus2_two_components")
    assert a.expected_betti == b.expected_betti == [1, 1]
    assert a.ideal.basis == b.ideal.basis
    assert a.note != b.note


def test_every_entry_reproduces_its_stated_betti():
    for entry in selftest_entries():
        if entry.ideal is None:
            betti = cohomology(entry.algebra).betti
        else:
            rep = dense_quotient_cohomology(
                DenseQuotientInput(entry.algebra, entry.ideal, entry.note)
            )
            betti = rep.report.betti
        assert betti == entry.expected_betti, entry.key


def test_documents_are_plain_json_and_self_describing():
    import json

    for key in CATALOG_KEYS:
        entry = catalog_entry(key)
        text = json.dumps(entry.document)
        assert json.loads(text) == entry.document
        name = (entry.document.get("name")
                or entry.document["algebra"]["name"])
        assert name == entry.algebra.name


def test_each_entry_owns_its_document():
    # editing one entry's document changes neither a later entry's document
    # nor what the later entry parses
    for key in CATALOG_KEYS:
        pristine = copy.deepcopy(catalog_entry(key).document)
        edited = catalog_entry(key).document
        target = edited.get("algebra", edited)
        target["name"] = "changed"
        target["brackets"].append({"i": 1, "j": 2, "terms": []})
        again = catalog_entry(key)
        assert again.document == pristine
        assert again.algebra.name == pristine.get("algebra", pristine)["name"]
    torus = catalog_entry("torus2_alpha")
    torus.document["ideal"]["torus_directions"][0][1] = "2"
    again = catalog_entry("torus2_alpha")
    assert again.document["ideal"] == {"torus_directions": [["1", "a"]]}
    assert again.ideal.basis == torus.ideal.basis


def test_selftest_suite_roster():
    names = [name for name, _ in SUITES]
    assert len(names) == 13
    assert len(set(names)) == 13
    assert "jacobi_identity" in names
    assert "maurer_cartan_numeric" in names


# an algebra that fails the Jacobi identity: [[e1,e2],e3] + ... = e3
BAD_JACOBI = LieAlgebra("bad", 3, QQ, {(1, 2): {1: 1}, (1, 3): {3: 1}})

# (suite, the function of selftest it reads, a stand-in given the real
# function, the SuiteFailure message); one_form_sign and
# maurer_cartan_numeric have their failure paths tested elsewhere
SUITE_FAILURES = [
    ("scalar_field_ops", "parse_scalar", lambda real: lambda text, field: None,
     "rational parse/format round trip broke at '0'"),
    ("rational_linear_algebra", "_bareiss", lambda real: lambda rows: (-1, None),
     "echelon rank and fraction-free rank disagree"),
    ("jacobi_identity", "jacobi_check", lambda real: lambda L: [],
     "corruption slipped past jacobi_check"),
    ("quotient_construction", "ideal_check", lambda real: lambda L, h: (1, [0], [1]),
     "catalog ideal fails ideal_check for abelian_1"),
    # the differential of BAD_JACOBI, whose square is nonzero in degree 1
    ("d_squared_zero", "ce_differential", lambda real: lambda L, k: real(BAD_JACOBI, k),
     "d squared nonzero on abelian_2 in degree 1"),
    ("shuffle_evaluation", "shuffle_eval", lambda real: lambda alpha, beta, args: None,
     "shuffle evaluation disagrees with the wedge"),
    ("graded_leibniz", "leibniz_check", lambda real: lambda L, forms: forms[0],
     "Leibniz fails on abelian_1 for 1-forms (1,)"),
    ("wedge_commutation", "wedge", lambda real: lambda a, b: a,
     "2-forms must commute with everything"),
    ("horizontal_subcomplex", "horizontal_basis", lambda real: lambda L, h, k: [],
     "horizontal dimension wrong for abelian_1"),
    ("chain_isomorphism", "chain_iso_check", lambda real: lambda L, h: (0, None, "x"),
     "chain isomorphism fails for abelian_1: (0, None, 'x')"),
    ("catalog_betti", "cohomology", lambda real: lambda L: SimpleNamespace(betti=[2]),
     "abelian_1: betti [2], expected [1, 1]"),
]


def test_suite_failures_cover_every_exact_suite():
    covered = {suite for suite, _, _, _ in SUITE_FAILURES}
    assert covered == {name for name, _ in SUITES} - {"one_form_sign", "maurer_cartan_numeric"}


@pytest.mark.parametrize("suite, name, stand_in, message", SUITE_FAILURES,
                         ids=[case[0] for case in SUITE_FAILURES])
def test_suite_fails_when_its_predicate_fails(monkeypatch, suite, name, stand_in, message):
    monkeypatch.setattr(selftest, name, stand_in(getattr(selftest, name)))
    with pytest.raises(SuiteFailure) as info:
        dict(SUITES)[suite](random.Random(0), DEFAULT_TOL, DEFAULT_STEP)
    assert str(info.value) == message


def test_run_selftest_writes_to_given_stream():
    buf = io.StringIO()
    assert run_selftest(seed=3, out=buf)
    text = buf.getvalue()
    assert text.startswith("selftest seed=3")
    for name, _ in SUITES:
        assert ("suite %s: PASS" % name) in text
    assert text.rstrip().endswith("selftest: PASS")
