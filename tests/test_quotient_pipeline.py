import json
import random
from fractions import Fraction
from math import comb

import pytest

import _oracle
from _families import filiform, heisenberg as heisenberg_family
from liecohom import ce_complex, field_arith, lie_core, quotient_pipeline
from liecohom.ce_complex import (
    basis_form,
    cohomology,
    evaluate,
    form_from_vector,
    horizontal_basis,
    index_tuples,
)
from liecohom.cli import main
from liecohom.errors import (
    DimensionCapExceeded,
    DimensionMismatch,
    JacobiViolation,
    MixedFields,
    NotAnIdeal,
    ParseError,
)
from liecohom.field_arith import Field, Matrix, QQ
from liecohom.lie_core import (
    LieAlgebra,
    QuotientData,
    Subspace,
    algebra_to_json,
    quotient_algebra,
    torus_ideal_from_directions,
)
from liecohom.quotient_pipeline import (
    DenseQuotientInput,
    chain_iso_check,
    dense_quotient_cohomology,
    pipeline_input_from_json,
    pipeline_input_to_json,
    pullback_form,
)

FA = Field("a")
A = FA.generator()


def so3():
    return LieAlgebra("so3", 3, QQ, {(1, 2): {3: 1}, (2, 3): {1: 1}, (1, 3): {2: -1}})


def heisenberg():
    return LieAlgebra("heisenberg3", 3, QQ, {(1, 2): {3: 1}})


def heis_center():
    return Subspace(3, [[0, 0, 1]], QQ)


def torus_line():
    L = LieAlgebra.abelian("torus2", 2, FA)
    return L, torus_ideal_from_directions(2, [[FA.one, A]], FA)


def so3_plus_line():
    # so3 + a central line; the line is an ideal with non-abelian quotient
    return LieAlgebra(
        "so3+R", 4, QQ, {(1, 2): {3: 1}, (2, 3): {1: 1}, (1, 3): {2: -1}}
    )


# ---------------------------------------------------------------------------
# pullback

def test_pullback_identity_projection():
    ident = Matrix.from_rows(QQ, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    sigma = basis_form(QQ, 3, (1, 3))
    assert pullback_form(ident, sigma) == sigma


def test_pullback_heisenberg_center():
    qd = quotient_algebra(heisenberg(), heis_center())
    sigma = basis_form(QQ, 2, (1, 2))
    pb = pullback_form(qd.projection, sigma)
    assert pb.coeffs == {(1, 2): 1}
    assert pb.ambient == 3


def test_pullback_torus_slope():
    L, h = torus_line()
    qd = quotient_algebra(L, h)
    sigma = basis_form(FA, 1, (1,))
    pb = pullback_form(qd.projection, sigma)
    # projection is [1, -1/a]: the pullback picks up the second coordinate
    assert pb.coeffs[(1,)] == FA.one
    assert pb.coeffs[(2,)] == -FA.one / A


def test_pullback_evaluation_property():
    # evaluating the pullback on vectors equals evaluating downstairs on
    # their projections
    rng = random.Random(5)
    qd = quotient_algebra(heisenberg(), heis_center())
    for _ in range(40):
        k = rng.randint(0, 2)
        vec = [Fraction(rng.randint(-4, 4)) for _ in range(comb(2, k))]
        sigma = form_from_vector(QQ, 2, k, vec)
        pb = pullback_form(qd.projection, sigma)
        args = [[Fraction(rng.randint(-5, 5)) for _ in range(3)] for _ in range(k)]
        projected = [qd.projection.mul_vec(v) for v in args]
        assert evaluate(pb, args) == evaluate(sigma, projected)


def non_coordinate_projections(rng):
    return [
        Matrix.from_rows(QQ, [[Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                               for _ in range(5)] for _ in range(3)]),
        Matrix.from_rows(FA, [[1, A, 0, 2], [1 / A, 0, A + 1, -1], [A * A, 1, 1, 1 / (A - 1)]]),
    ]


def test_pullback_non_coordinate_projection_against_oracle():
    # coefficient on I of the pullback of sum c_J t[J] is
    # sum c_J t[J](pi e_i for i in I), by permutation sums
    rng = random.Random(17)
    for pi in non_coordinate_projections(rng):
        q, n, field = pi.rows, pi.cols, pi.field
        images = [pi.col(a) for a in range(n)]
        for k in range(q + 1):
            sigmas = [basis_form(field, q, J) for J in index_tuples(q, k)]
            sigmas.append(form_from_vector(
                field, q, k, [field.coerce(rng.randint(-4, 4)) + (A if field == FA else 0)
                              for _ in index_tuples(q, k)]))
            for sigma in sigmas:
                pb = pullback_form(pi, sigma)
                assert pb.ambient == n and pb.degree == k
                for I in index_tuples(n, k):
                    expected = sum(
                        (c * _oracle.eval_basis_form(J, [images[i - 1] for i in I])
                         for J, c in sigma.coeffs.items()),
                        field.zero)
                    assert pb.coeffs.get(I, field.zero) == expected


def test_wedge_powers_match_pullback_form():
    # the chain-iso check wedges one more pulled-back 1-form onto the table
    # of the degree below; pullback_form builds every basis form from scratch
    projections = non_coordinate_projections(random.Random(17))
    projections.append(quotient_algebra(filiform(7), l7_top_ideal()).projection)
    for pi in projections:
        q, field = pi.rows, pi.field
        tables = list(ce_complex._wedge_powers(
            pi.cols, field, quotient_pipeline._pulled_one_forms(pi)))
        assert len(tables) == q + 1
        for k, table in enumerate(tables):
            assert list(table) == index_tuples(q, k)
            for J, pb in table.items():
                assert pb == pullback_form(pi, basis_form(field, q, J))


def test_pullback_errors():
    ident = Matrix.from_rows(QQ, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    with pytest.raises(DimensionMismatch):
        pullback_form(ident, basis_form(QQ, 2, (1,)))
    with pytest.raises(MixedFields):
        pullback_form(ident, basis_form(FA, 3, (1,)))


# ---------------------------------------------------------------------------
# chain-level identification

def test_chain_iso_heisenberg_center():
    assert chain_iso_check(heisenberg(), heis_center()) is None


def test_chain_iso_torus():
    L, h = torus_line()
    assert chain_iso_check(L, h) is None


def test_chain_iso_zero_ideal():
    assert chain_iso_check(so3(), Subspace.zero(3, QQ)) is None


def test_chain_iso_full_ideal():
    L = heisenberg()
    full = Subspace(3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]], QQ)
    assert chain_iso_check(L, full) is None


def test_chain_iso_nonabelian_quotient():
    L = so3_plus_line()
    h = Subspace(4, [[0, 0, 0, 1]], QQ)
    assert chain_iso_check(L, h) is None
    assert chain_iso_check(filiform(7), l7_top_ideal()) is None


def l7_top_ideal():
    # span(e6, e7) in L_7; the quotient is L_5, which is not abelian
    return Subspace(7, [[0, 0, 0, 0, 0, 1, 0], [0, 0, 0, 0, 0, 0, 1]], QQ)


def doctored_horizontal(monkeypatch, degree, change):
    # the check reads the horizontal basis of degree k from the k-th table
    real = quotient_pipeline._horizontal_powers

    def patched(L, h):
        for k, table in enumerate(real(L, h)):
            if k == degree:
                table = dict(enumerate(change(L, list(table.values()))))
            yield table

    monkeypatch.setattr(quotient_pipeline, "_horizontal_powers", patched)


def doctored_projection(monkeypatch, change):
    real = quotient_pipeline.quotient_algebra

    def patched(L, h):
        qd = real(L, h)
        rows = change(qd.projection.to_rows())
        return QuotientData(qd.quotient, Matrix.from_rows(L.field, rows), qd.section)

    monkeypatch.setattr(quotient_pipeline, "quotient_algebra", patched)


def test_chain_iso_reports_short_horizontal_space(monkeypatch):
    doctored_horizontal(monkeypatch, 2, lambda L, basis: basis[:-1])
    assert chain_iso_check(filiform(7), l7_top_ideal()) == (
        2, None, "horizontal dimension 9, expected 10")


def test_chain_iso_reports_pullback_outside_horizontal_space(monkeypatch):
    # t[1,7] does not vanish on e7 in h
    doctored_horizontal(monkeypatch, 2, lambda L, basis: basis[:-1] + [
        basis_form(QQ, 7, (1, 7))])
    assert chain_iso_check(filiform(7), l7_top_ideal()) == (
        2, basis_form(QQ, 5, (1, 2)), "pullback leaves the horizontal subspace")


def test_chain_iso_reports_pullback_outside_horizontal_space_over_q_a(monkeypatch):
    # t[2] does not vanish on (1, a)
    L, h = torus_line()
    doctored_horizontal(monkeypatch, 1, lambda L, basis: basis[:-1] + [
        basis_form(FA, 2, (2,))])
    assert chain_iso_check(L, h) == (
        1, basis_form(FA, 1, (1,)), "pullback leaves the horizontal subspace")


def test_chain_iso_check_eliminates_h_and_tabulates_quotient_d_once(monkeypatch):
    # h's basis is eliminated once per check, not once per degree, and the
    # 1-form differentials are tabulated once for L and once for the
    # quotient, not once per pulled-back basis form
    calls = {"_rank_and_kernel": 0, "_one_form_differentials": 0}
    for name in calls:
        real = getattr(ce_complex, name)

        def counting(*args, _real=real, _name=name):
            calls[_name] += 1
            return _real(*args)

        for module in (ce_complex, quotient_pipeline):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting)
    assert chain_iso_check(filiform(7), l7_top_ideal()) is None
    assert calls == {"_rank_and_kernel": 1, "_one_form_differentials": 2}


def test_chain_iso_reports_dependent_pullbacks(monkeypatch):
    def repeat_first_row(rows):
        rows[1] = list(rows[0])
        return rows

    doctored_projection(monkeypatch, repeat_first_row)
    assert chain_iso_check(filiform(7), l7_top_ideal()) == (
        1, None, "pulled-back basis is linearly dependent")


def test_chain_iso_reports_d_not_commuting(monkeypatch):
    # doubling pi* t[3] doubles d pb t[3] = -pb t[1,2], but pb d t[3] is
    # -pb t[1,2] with t[1] and t[2] pulled back as before
    def double_third_row(rows):
        rows[2] = [2 * x for x in rows[2]]
        return rows

    doctored_projection(monkeypatch, double_third_row)
    assert chain_iso_check(filiform(7), l7_top_ideal()) == (
        1, basis_form(QQ, 5, (3,)), "d does not commute with pullback")


# ---------------------------------------------------------------------------
# the full pipeline

def test_pipeline_so3_trivial_ideal():
    inp = DenseQuotientInput(so3(), Subspace.zero(3, QQ), note="H discrete")
    rep = dense_quotient_cohomology(inp)
    assert rep.report.betti == [1, 0, 0, 1]
    assert rep.quotient_dim == 3
    assert not rep.abelian_quotient
    assert rep.chain_iso_verified
    assert rep.note == "H discrete"


def test_pipeline_torus_slope():
    L, h = torus_line()
    rep = dense_quotient_cohomology(DenseQuotientInput(L, h))
    assert rep.quotient_dim == 1
    assert rep.abelian_quotient
    assert rep.report.betti == [1, 1]


def test_pipeline_heisenberg_center():
    rep = dense_quotient_cohomology(DenseQuotientInput(heisenberg(), heis_center()))
    assert rep.quotient_dim == 2
    assert rep.abelian_quotient
    assert rep.report.betti == [1, 2, 1]


def test_pipeline_nonabelian_quotient():
    L = so3_plus_line()
    h = Subspace(4, [[0, 0, 0, 1]], QQ)
    rep = dense_quotient_cohomology(DenseQuotientInput(L, h))
    assert rep.quotient_dim == 3
    assert not rep.abelian_quotient
    assert rep.report.betti == [1, 0, 0, 1]


def test_pipeline_zero_ideal_agrees_with_plain_cohomology():
    # discrete H: the quotient map is an isomorphism, so the pipeline must
    # reproduce the cohomology of g itself
    for L in (so3(), heisenberg(), LieAlgebra.abelian("a4", 4, QQ)):
        inp = DenseQuotientInput(L, Subspace.zero(L.dim, L.field))
        rep = dense_quotient_cohomology(inp)
        assert rep.report.betti == cohomology(L).betti


def test_pipeline_betti_against_bruteforce():
    rep = dense_quotient_cohomology(DenseQuotientInput(heisenberg(), heis_center()))
    quotient = quotient_algebra(heisenberg(), heis_center()).quotient
    assert rep.report.betti == _oracle.betti_numbers(quotient)


def test_pipeline_not_an_ideal():
    L = so3()
    h = Subspace(3, [[1, 0, 0]], QQ)
    with pytest.raises(NotAnIdeal) as exc_info:
        dense_quotient_cohomology(DenseQuotientInput(L, h))
    i, w, result = exc_info.value.witness
    # [e2, e1] = -e3 is the first basis bracket that leaves span{e1}
    assert (i, w, result) == (2, [1, 0, 0], [0, 0, -1])


def test_pipeline_jacobi_violation():
    bad = LieAlgebra("bad", 3, QQ, {(1, 2): {1: 1}, (1, 3): {3: 1}})
    with pytest.raises(JacobiViolation):
        dense_quotient_cohomology(DenseQuotientInput(bad, Subspace.zero(3, QQ)))


def test_pipeline_dimension_cap():
    L = LieAlgebra.abelian("big", 21, QQ)
    inp = DenseQuotientInput(L, Subspace.zero(21, QQ))
    with pytest.raises(DimensionCapExceeded):
        dense_quotient_cohomology(inp)
    small = DenseQuotientInput(LieAlgebra.abelian("a5", 5, QQ), Subspace.zero(5, QQ))
    with pytest.raises(DimensionCapExceeded):
        dense_quotient_cohomology(small, max_dim=4)


def test_pipeline_skip_chain_iso():
    rep = dense_quotient_cohomology(
        DenseQuotientInput(heisenberg(), heis_center()), check_chain_iso=False
    )
    assert not rep.chain_iso_verified
    assert rep.report.betti == [1, 2, 1]


def test_input_validation():
    with pytest.raises(DimensionMismatch):
        DenseQuotientInput(so3(), Subspace.zero(2, QQ))
    with pytest.raises(MixedFields):
        DenseQuotientInput(so3(), Subspace.zero(3, FA))


def test_report_json():
    rep = dense_quotient_cohomology(
        DenseQuotientInput(heisenberg(), heis_center(), note="central circle dense")
    )
    doc = rep.to_json()
    assert doc["algebra"] == "heisenberg3"
    assert doc["quotient_dim"] == 2
    assert doc["abelian_quotient"] is True
    assert doc["chain_iso_verified"] is True
    assert doc["note"] == "central circle dense"
    assert doc["report"]["betti"] == [1, 2, 1]


def test_pipeline_takes_no_determinants(monkeypatch):
    # pullback is a wedge of pulled-back 1-forms and the quotient comes out
    # of one echelon form: no determinant is taken anywhere on this path
    def forbidden(*args, **kwargs):
        raise AssertionError("determinant taken in the quotient pipeline")

    for module in (ce_complex, field_arith, lie_core, quotient_pipeline):
        for name in ("evaluate", "_bareiss"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden)
    h5_ideal = Subspace(5, [[0, 0, 0, 0, 1], [1, 0, -2, 1, 0]], QQ)
    cases = [
        (heisenberg(), heis_center()),
        torus_line(),
        (so3_plus_line(), Subspace(4, [[0, 0, 0, 1]], QQ)),
        (heisenberg_family(2), h5_ideal),
    ]
    for L, h in cases:
        rep = dense_quotient_cohomology(DenseQuotientInput(L, h))
        assert rep.chain_iso_verified


def test_span_questions_take_no_reduced_echelon_form(monkeypatch):
    # independence and membership go through the echelon insertion step;
    # the reduced echelon form is left to quotient_algebra's projection
    calls = []
    real_rref = lie_core._rref

    def counted(rows):
        calls.append(rows)
        return real_rref(rows)

    def forbidden(*args, **kwargs):
        raise AssertionError("_rref called for a span question")

    monkeypatch.setattr(lie_core, "_rref", counted)
    monkeypatch.setattr(quotient_pipeline, "_rref", forbidden, raising=False)
    L = heisenberg()
    assert lie_core.ideal_check(L, heis_center()) is None
    witness = lie_core.ideal_check(L, Subspace(3, [[1, 0, 0]], QQ))
    assert witness == (2, [1, 0, 0], [0, 0, -1])
    kept = torus_ideal_from_directions(3, [[1, 2, 0], [2, 4, 0], [0, 0, 0], [0, 1, 1]], QQ)
    assert kept.basis == [[1, 2, 0], [0, 1, 1]]
    with pytest.raises(ValueError):
        Subspace(3, [[1, 2, 0], [0, 1, 1], [1, 3, 1]], QQ)
    assert calls == []
    quotient_algebra(L, heis_center())
    assert len(calls) == 1
    assert chain_iso_check(L, heis_center()) is None
    assert chain_iso_check(so3_plus_line(), Subspace(4, [[0, 0, 0, 1]], QQ)) is None
    assert len(calls) == 3


def test_quotient_request_builds_the_quotient_once(monkeypatch, tmp_path, capsys):
    # the chain-iso check reuses the pipeline's quotient instead of building
    # it again
    calls = []
    real = lie_core.quotient_algebra

    def counted(L, h):
        calls.append(L.name)
        return real(L, h)

    for module in (lie_core, quotient_pipeline):
        monkeypatch.setattr(module, "quotient_algebra", counted)
    path = tmp_path / "pipeline.json"
    path.write_text(json.dumps(pipeline_doc()), encoding="utf-8")
    assert main(["quotient", str(path)]) == 0
    assert "chain_iso: verified" in capsys.readouterr().out
    assert calls == ["heisenberg3"]


# ---------------------------------------------------------------------------
# JSON input documents

def pipeline_doc():
    return {
        "algebra": {
            "name": "heisenberg3",
            "dimension": 3,
            "field": "Q",
            "brackets": [{"i": 1, "j": 2, "terms": [{"k": 3, "coeff": "1"}]}],
        },
        "ideal": {"vectors": [["0", "0", "1"]]},
        "note": "central direction",
    }


def test_pipeline_input_from_json():
    inp = pipeline_input_from_json(pipeline_doc())
    assert inp.algebra.dim == 3
    assert inp.ideal.basis == [[0, 0, 1]]
    assert inp.note == "central direction"
    rep = dense_quotient_cohomology(inp)
    assert rep.report.betti == [1, 2, 1]


def test_pipeline_input_torus_directions():
    doc = {
        "algebra": {
            "name": "torus2",
            "dimension": 2,
            "field": {"rational_function_in": "a"},
            "brackets": [],
        },
        "ideal": {"torus_directions": [["1", "a"]]},
    }
    inp = pipeline_input_from_json(doc)
    assert inp.ideal.basis == [[FA.one, A]]
    assert inp.note == ""
    rep = dense_quotient_cohomology(inp)
    assert rep.report.betti == [1, 1]


def test_pipeline_input_round_trip():
    inp = pipeline_input_from_json(pipeline_doc())
    doc = pipeline_input_to_json(inp)
    again = pipeline_input_from_json(doc)
    assert again.algebra == inp.algebra
    assert again.ideal.basis == inp.ideal.basis
    assert again.note == inp.note
    assert doc["algebra"] == algebra_to_json(inp.algebra)


def test_pipeline_input_rejections():
    base = pipeline_doc()

    missing = dict(base)
    del missing["ideal"]
    with pytest.raises(ParseError):
        pipeline_input_from_json(missing)

    extra = dict(base)
    extra["extra"] = 1
    with pytest.raises(ParseError):
        pipeline_input_from_json(extra)

    bad_ideal = dict(base)
    bad_ideal["ideal"] = ["0", "0", "1"]
    with pytest.raises(ParseError):
        pipeline_input_from_json(bad_ideal)

    bad_note = dict(base)
    bad_note["note"] = 7
    with pytest.raises(ParseError):
        pipeline_input_from_json(bad_note)

    bad_dirs = dict(base)
    bad_dirs["ideal"] = {"torus_directions": "1,a"}
    with pytest.raises(ParseError):
        pipeline_input_from_json(bad_dirs)

    mixed = dict(base)
    mixed["ideal"] = {"vectors": [["0", "0", "1"]], "torus_directions": []}
    with pytest.raises(ParseError):
        pipeline_input_from_json(mixed)

    short_dir = dict(base)
    short_dir["ideal"] = {"torus_directions": [["1"]]}
    with pytest.raises(ParseError):
        pipeline_input_from_json(short_dir)


def test_horizontal_dims_match_quotient_binomials():
    cases = [
        (heisenberg(), heis_center()),
        (so3(), Subspace.zero(3, QQ)),
        torus_line(),
    ]
    for L, h in cases:
        q = L.dim - h.size
        for k in range(L.dim + 1):
            assert len(horizontal_basis(L, h, k)) == comb(q, k)
