import random
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

import _oracle
from _families import filiform, heisenberg as heisenberg_family, rebased, solv, strictly_upper
from liecohom.ce_complex import (
    ExteriorForm,
    basis_form,
    ce_differential,
    cohomology,
    d_apply,
    evaluate,
    form_from_vector,
    form_to_vector,
    horizontal_basis,
    index_tuples,
    leibniz_check,
    shuffle_eval,
    wedge,
    zero_form,
)
from liecohom.errors import (
    ArityMismatch,
    DegreeOutOfRange,
    DimensionCapExceeded,
    DimensionMismatch,
    JacobiViolation,
)
from liecohom.field_arith import Field, Matrix, QQ, RationalFunction, rank
from liecohom.lie_core import (
    LieAlgebra,
    Subspace,
    bracket,
    jacobi_check,
    torus_ideal_from_directions,
)

FA = Field("a")
A = FA.generator()


def so3():
    return LieAlgebra("so3", 3, QQ, {(1, 2): {3: 1}, (2, 3): {1: 1}, (1, 3): {2: -1}})


def heisenberg():
    return LieAlgebra("heisenberg3", 3, QQ, {(1, 2): {3: 1}})


def sl2():
    return LieAlgebra("sl2", 3, QQ, {(1, 2): {2: 2}, (1, 3): {3: -2}, (2, 3): {1: 1}})


def t(n, *idx):
    return basis_form(QQ, n, tuple(idx))


def random_form(rng, n, degree, field=QQ):
    vec = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in index_tuples(n, degree)]
    return form_from_vector(field, n, degree, vec)


def random_vector(rng, n):
    return [Fraction(rng.randint(-5, 5)) for _ in range(n)]


def random_qa_form(rng, n, degree):
    """A sparse form over Q(a) with coefficients like (2a - 1)/3 and 1/(a + 2)."""
    coeffs = {}
    for idx in index_tuples(n, degree):
        if rng.random() < 0.5:
            value = (rng.randint(-3, 3) * A + rng.randint(-3, 3)) / rng.randint(1, 3)
            if rng.random() < 0.3:
                value = value / (A + rng.randint(1, 4))
            coeffs[idx] = value
    return ExteriorForm(n, degree, FA, coeffs)


def ce_sum(L, form):
    """d form by the displayed alternating sum on basis tuples, through evaluate."""
    n, k = L.dim, form.degree
    coeffs = {}
    for J in index_tuples(n, k + 1):
        args = [L.basis_vector(a) for a in J]
        total = L.field.zero
        for i in range(k + 1):
            for j in range(i + 1, k + 1):
                rest = [args[c] for c in range(k + 1) if c != i and c != j]
                term = evaluate(form, [bracket(L, args[i], args[j])] + rest)
                total = total + (-term if (i + j) % 2 else term)
        coeffs[J] = total
    return ExteriorForm(n, k + 1, L.field, coeffs)


def rebased_filiform6():
    """L_6 after an integer change of basis with a fractional inverse."""
    P = [
        [1, 1, 0, 0, 0, 0],
        [0, 2, 1, 0, 0, 0],
        [0, 0, 1, 0, 0, 1],
        [1, 0, 0, 3, 0, 0],
        [0, 0, 0, 1, 1, 0],
        [0, 1, 1, 0, 0, 2],
    ]
    return rebased(filiform(6), P)


# ---------------------------------------------------------------------------
# evaluation and wedge

def test_evaluate_examples():
    w12 = t(3, 1, 2)
    assert evaluate(w12, [[1, 0, 0], [0, 1, 0]]) == 1
    assert evaluate(w12, [[1, 0, 0], [1, 0, 0]]) == 0
    assert evaluate(w12, [[1, 1, 0], [0, 1, 0]]) == 1


def test_evaluate_degree_zero():
    c = ExteriorForm(3, 0, QQ, {(): Fraction(7)})
    assert evaluate(c, []) == 7


def test_evaluate_arity_and_dimension_errors():
    w12 = t(3, 1, 2)
    with pytest.raises(ArityMismatch):
        evaluate(w12, [[1, 0, 0]])
    with pytest.raises(DimensionMismatch):
        evaluate(w12, [[1, 0], [0, 1]])


def test_evaluate_matches_oracle_on_random_inputs():
    rng = random.Random(8)
    for _ in range(60):
        n = rng.randint(1, 5)
        k = rng.randint(1, n)
        idx = tuple(sorted(rng.sample(range(1, n + 1), k)))
        args = [random_vector(rng, n) for _ in range(k)]
        assert evaluate(basis_form(QQ, n, idx), args) == _oracle.eval_basis_form(idx, args)


def test_wedge_examples():
    w = wedge(t(3, 1), t(3, 2))
    assert w.coeffs == {(1, 2): 1}
    w = wedge(t(3, 2), t(3, 1))
    assert w.coeffs == {(1, 2): -1}
    triple = wedge(wedge(t(3, 1), t(3, 2)), t(3, 3))
    assert evaluate(triple, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 1
    assert wedge(t(3, 1), t(3, 1)).is_zero


def test_wedge_graded_commutativity():
    rng = random.Random(21)
    for _ in range(80):
        n = rng.randint(2, 5)
        p = rng.randint(0, n)
        q = rng.randint(0, n - p)
        a = random_form(rng, n, p)
        b = random_form(rng, n, q)
        lhs = wedge(a, b)
        rhs = wedge(b, a)
        if (p * q) % 2:
            rhs = -rhs
        assert lhs == rhs


def test_wedge_associative_and_bilinear():
    rng = random.Random(22)
    for _ in range(40):
        n = rng.randint(2, 4)
        a = random_form(rng, n, 1)
        b = random_form(rng, n, 1)
        c = random_form(rng, n, rng.randint(0, 2))
        assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))
        s = Fraction(rng.randint(-3, 3))
        assert wedge(a * s, b) == wedge(a, b) * s
        assert wedge(a + b, c) == wedge(a, c) + wedge(b, c)


def test_two_forms_commute_with_everything():
    rng = random.Random(23)
    for _ in range(60):
        n = rng.randint(2, 5)
        alpha = random_form(rng, n, 2)
        beta = random_form(rng, n, rng.randint(0, n))
        assert wedge(alpha, beta) == wedge(beta, alpha)


# ---------------------------------------------------------------------------
# shuffle evaluation

def test_shuffle_examples():
    alpha = t(3, 1, 2)
    beta = t(3, 3)
    # (t1^t2)^t3 on (e3, e1, e2): only the (i,j) = (1,2) term survives, sign +1
    assert shuffle_eval(alpha, beta, [[0, 0, 1], [1, 0, 0], [0, 1, 0]]) == 1
    assert shuffle_eval(alpha, beta, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 1
    one = ExteriorForm(3, 0, QQ, {(): 1})
    assert shuffle_eval(alpha, one, [[1, 0, 0], [0, 1, 0]]) == 1


def test_shuffle_arity_errors():
    with pytest.raises(ArityMismatch):
        shuffle_eval(t(3, 1), t(3, 2), [[1, 0, 0], [0, 1, 0]])
    with pytest.raises(ArityMismatch):
        shuffle_eval(t(3, 1, 2), t(3, 3), [[1, 0, 0], [0, 1, 0]])


def test_shuffle_matches_wedge_randomized():
    rng = random.Random(77)
    for _ in range(300):
        n = rng.randint(2, 5)
        beta_deg = rng.randint(0, n - 1)
        alpha = random_form(rng, n, 2)
        beta = random_form(rng, n, beta_deg)
        args = [random_vector(rng, n) for _ in range(beta_deg + 2)]
        assert shuffle_eval(alpha, beta, args) == evaluate(wedge(alpha, beta), args)


# ---------------------------------------------------------------------------
# the differential

def test_differential_on_so3_one_forms():
    L = so3()
    assert d_apply(L, t(3, 1)).coeffs == {(2, 3): -1}
    assert d_apply(L, t(3, 2)).coeffs == {(1, 3): 1}
    assert d_apply(L, t(3, 3)).coeffs == {(1, 2): -1}


def test_differential_on_heisenberg_one_forms():
    L = heisenberg()
    assert d_apply(L, t(3, 1)).is_zero
    assert d_apply(L, t(3, 2)).is_zero
    assert d_apply(L, t(3, 3)).coeffs == {(1, 2): -1}


def test_differential_degree_zero_and_top():
    L = so3()
    const = ExteriorForm(3, 0, QQ, {(): Fraction(5)})
    assert d_apply(L, const).is_zero
    top = t(3, 1, 2, 3)
    assert d_apply(L, top).is_zero
    assert d_apply(L, wedge(t(3, 2), t(3, 3))).is_zero


def test_differential_abelian_is_zero():
    L = LieAlgebra.abelian("a4", 4, QQ)
    rng = random.Random(1)
    for k in range(5):
        assert d_apply(L, random_form(rng, 4, k)).is_zero


def test_differential_matrix_matches_oracle():
    fractional = rebased_filiform6()
    assert any(c.denominator > 1 for terms in fractional.brackets.values()
               for c in terms.values())
    for L in (so3(), sl2(), heisenberg(), filiform(6), heisenberg_family(2),
              strictly_upper(4), fractional):
        for k in range(L.dim + 1):
            ours = ce_differential(L, k).matrix
            theirs = _oracle.coboundary_matrix(L, k)
            assert ours.to_rows() == theirs


def test_d_apply_matches_displayed_sum_over_rational_functions():
    rng = random.Random(12)
    for L in (solv(5), LieAlgebra.abelian("torus_5", 5, FA)):
        for k in range(L.dim + 1):
            for _ in range(2):
                form = random_qa_form(rng, L.dim, k)
                assert d_apply(L, form) == ce_sum(L, form)


def test_differential_shape_and_range():
    L = so3()
    cb = ce_differential(L, 1)
    assert cb.matrix.shape == (3, 3)
    assert ce_differential(L, 3).matrix.shape == (0, 1)
    with pytest.raises(DegreeOutOfRange):
        ce_differential(L, 4)
    with pytest.raises(DegreeOutOfRange):
        ce_differential(L, -1)


def test_d_squared_zero_catalog():
    for L in (so3(), sl2(), heisenberg(), LieAlgebra.abelian("a5", 5, QQ)):
        for k in range(L.dim):
            dk = ce_differential(L, k).matrix
            dk1 = ce_differential(L, k + 1).matrix
            assert (dk1 * dk).is_zero


def test_d_squared_zero_rational_function_field():
    L = LieAlgebra("scaled", 2, FA, {(1, 2): {1: A}})
    assert not jacobi_check(L)
    for k in range(2):
        dk = ce_differential(L, k).matrix
        dk1 = ce_differential(L, k + 1).matrix
        assert (dk1 * dk).is_zero


# ---------------------------------------------------------------------------
# Leibniz rule

def test_leibniz_examples():
    assert leibniz_check(so3(), [t(3, 1), t(3, 2)]) is None
    assert leibniz_check(heisenberg(), [t(3, 1), t(3, 3)]) is None
    assert leibniz_check(LieAlgebra.abelian("a3", 3, QQ), [t(3, 2), t(3, 3)]) is None


def test_leibniz_all_tuples_small_algebras():
    for L in (so3(), sl2(), heisenberg()):
        n = L.dim
        for k in range(1, n + 1):
            for idx in combinations(range(1, n + 1), k):
                forms = [basis_form(L.field, n, (a,)) for a in idx]
                assert leibniz_check(L, forms) is None


def test_leibniz_rejects_non_one_forms():
    with pytest.raises(ArityMismatch):
        leibniz_check(so3(), [t(3, 1, 2)])
    with pytest.raises(ArityMismatch):
        leibniz_check(so3(), [])


# ---------------------------------------------------------------------------
# horizontal forms

def test_horizontal_basis_heisenberg_center():
    L = heisenberg()
    h = Subspace(3, [[0, 0, 1]], QQ)
    basis = horizontal_basis(L, h, 1)
    assert [f.coeffs for f in basis] == [{(1,): 1}, {(2,): 1}]
    basis2 = horizontal_basis(L, h, 2)
    assert [f.coeffs for f in basis2] == [{(1, 2): 1}]


def test_horizontal_basis_trivial_and_full():
    L = so3()
    zero_h = Subspace.zero(3, QQ)
    for k in range(4):
        basis = horizontal_basis(L, zero_h, k)
        assert len(basis) == comb(3, k)
        if k >= 1:
            assert [f.coeffs for f in basis] == [
                {idx: 1} for idx in index_tuples(3, k)
            ]
    full = Subspace(3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]], QQ)
    assert horizontal_basis(L, full, 0)[0].coeffs == {(): 1}
    for k in range(1, 4):
        assert horizontal_basis(L, full, k) == []


def test_horizontal_dimension_binomial():
    L = LieAlgebra.abelian("a4", 4, QQ)
    h = Subspace(4, [[1, 2, 0, 0], [0, 0, 1, 1]], QQ)
    for k in range(5):
        assert len(horizontal_basis(L, h, k)) == comb(2, k)


def test_horizontal_basis_matches_oracle_contractions():
    # non-coordinate subspaces; h need not be an ideal for the contraction
    h_q = Subspace(5, [[1, Fraction(1, 2), 0, -1, 0], [0, 2, 1, 0, Fraction(-3, 4)]], QQ)
    plane = torus_ideal_from_directions(
        5, [[1, 2 * A + 1, -A, 0, 0], [0, 0, 1, A - 3, 3 * A]], FA)
    line = Subspace(6, [[0, 1, Fraction(2, 3), 0, 0, 1]], QQ)
    cases = (
        (heisenberg_family(2), h_q),
        (rebased_filiform6(), line),
        (LieAlgebra.abelian("torus_5", 5, FA), plane),
    )
    for L, h in cases:
        n = L.dim
        for k in range(n + 1):
            basis = horizontal_basis(L, h, k)
            assert len(basis) == comb(n - h.size, k)
            assert _oracle.gauss_rank([form_to_vector(f) for f in basis]) == len(basis)
            if k == 0:
                continue
            for f in basis:
                for w in h.basis:
                    for T in index_tuples(n, k - 1):
                        args = [w] + [L.basis_vector(a) for a in T]
                        contraction = sum(c * _oracle.eval_basis_form(I, args)
                                          for I, c in f.coeffs.items())
                        assert contraction == 0


def test_horizontal_forms_vanish_on_subspace():
    rng = random.Random(4)
    L = heisenberg()
    h = Subspace(3, [[0, 0, 1]], QQ)
    for k in (1, 2):
        for f in horizontal_basis(L, h, k):
            args = [[Fraction(0), Fraction(0), Fraction(rng.randint(1, 5))]]
            args += [random_vector(rng, 3) for _ in range(k - 1)]
            assert evaluate(f, args) == 0


# ---------------------------------------------------------------------------
# cohomology

def test_cohomology_so3():
    rep = cohomology(so3())
    assert rep.betti == [1, 0, 0, 1]
    assert rep.ranks == [0, 3, 0, 0]


def test_cohomology_sl2():
    assert cohomology(sl2()).betti == [1, 0, 0, 1]


def test_cohomology_heisenberg_matches_bruteforce():
    L = heisenberg()
    rep = cohomology(L)
    assert rep.betti == [1, 2, 2, 1]
    assert rep.betti == _oracle.betti_numbers(L)


def test_cohomology_matches_bruteforce_more():
    solvable = LieAlgebra("solv", 3, QQ, {(1, 2): {2: 1}})
    assert not jacobi_check(solvable)
    assert cohomology(solvable).betti == _oracle.betti_numbers(solvable)
    assert cohomology(so3()).betti == _oracle.betti_numbers(so3())
    assert cohomology(sl2()).betti == _oracle.betti_numbers(sl2())


def test_cohomology_abelian_binomials():
    for n in range(0, 7):
        rep = cohomology(LieAlgebra.abelian("a%d" % n, n, QQ))
        assert rep.betti == [comb(n, k) for k in range(n + 1)]


def test_cohomology_dim_zero():
    rep = cohomology(LieAlgebra.abelian("point", 0, QQ))
    assert rep.betti == [1]
    assert rep.ranks == [0]


def test_betti_relation_and_euler_characteristic():
    for L in (so3(), sl2(), heisenberg(), LieAlgebra.abelian("a4", 4, QQ)):
        rep = cohomology(L)
        n = L.dim
        for k in range(n + 1):
            prev = rep.ranks[k - 1] if k else 0
            assert rep.betti[k] == comb(n, k) - rep.ranks[k] - prev
        assert sum((-1) ** k * b for k, b in enumerate(rep.betti)) == 0


def test_representatives_are_cocycles_with_leading_one():
    for L in (so3(), sl2(), heisenberg()):
        rep = cohomology(L)
        for degree, forms in enumerate(rep.representatives):
            assert len(forms) == rep.betti[degree]
            for f in forms:
                assert d_apply(L, f).is_zero
                lead = next(iter(f.coeffs.values()))
                assert lead == 1


def test_representatives_independent_modulo_image():
    L = heisenberg()
    rep = cohomology(L)
    d0 = ce_differential(L, 0).matrix
    image = [d0.col(j) for j in range(d0.cols)]
    reps = [form_to_vector(f) for f in rep.representatives[1]]
    stacked = image + reps
    m = Matrix.from_rows(QQ, stacked, cols=3)
    assert rank(m) == rank(Matrix.from_rows(QQ, image, cols=3)) + len(reps)


def test_cohomology_rejects_jacobi_violations():
    bad = LieAlgebra("bad", 3, QQ, {(1, 2): {1: 1}, (1, 3): {3: 1}})
    with pytest.raises(JacobiViolation):
        cohomology(bad)


def test_dimension_cap():
    with pytest.raises(DimensionCapExceeded):
        cohomology(LieAlgebra.abelian("big", 21, QQ))
    with pytest.raises(DimensionCapExceeded):
        cohomology(LieAlgebra.abelian("a5", 5, QQ), max_dim=4)
    # the cap is configurable upward as well
    assert cohomology(LieAlgebra.abelian("a5", 5, QQ), max_dim=5).betti[0] == 1


def test_report_json_shape():
    rep = cohomology(so3())
    doc = rep.to_json()
    assert doc["algebra"] == "so3"
    assert doc["dimension"] == 3
    assert doc["betti"] == [1, 0, 0, 1]
    assert doc["ranks"] == [0, 3, 0, 0]
    degrees = [r["degree"] for r in doc["representatives"]]
    assert degrees == [0, 3]
    top = doc["representatives"][1]
    assert top["terms"] == [{"indices": [1, 2, 3], "coeff": "1"}]


def test_form_vector_round_trip():
    rng = random.Random(31)
    for _ in range(30):
        n = rng.randint(1, 5)
        k = rng.randint(0, n)
        f = random_form(rng, n, k)
        assert form_from_vector(QQ, n, k, form_to_vector(f)) == f


# ---------------------------------------------------------------------------
# results that skip the constructor's checks

def assert_canonical(f):
    # what the validating constructor builds from the same data, nonzero
    # scalars of the form's field, keys in sorted order
    assert f == ExteriorForm(f.ambient, f.degree, f.field, f.coeffs)
    for v in f.coeffs.values():
        if f.field.is_rationals:
            assert type(v) is Fraction
        else:
            assert type(v) is RationalFunction and v.var == f.field.var
        assert v
    assert list(f.coeffs) == sorted(f.coeffs)


def test_trusted_results_match_the_validating_constructor():
    rng = random.Random(41)
    cases = [
        (heisenberg_family(2), Subspace(5, [[0, 0, 0, 0, 1]], QQ),
         lambda n, k: random_form(rng, n, k), (0, 1, -2, Fraction(1, 3))),
        (filiform(5), Subspace(5, [[0, 0, 0, 1, 0], [0, 0, 0, 0, 1]], QQ),
         lambda n, k: random_form(rng, n, k), (0, 1, Fraction(-3, 2))),
        (solv(5), Subspace(5, [[0, 0, 0, 0, 1]], FA),
         lambda n, k: random_qa_form(rng, n, k), (0, 1, A, 1 / (A + 1))),
        (LieAlgebra.abelian("torus_4", 4, FA),
         torus_ideal_from_directions(4, [[1, A, 0, 0], [0, 0, 1, 2 * A - 1]], FA),
         lambda n, k: random_qa_form(rng, n, k), (0, -1, A * A)),
    ]
    zero_results = partial_cancellations = 0
    for L, h, make, scalars in cases:
        n = L.dim
        for k in range(n + 1):
            for f in horizontal_basis(L, h, k):
                assert_canonical(f)
        for _ in range(12):
            k = rng.randint(0, n)
            f, g = make(n, k), make(n, k)
            # g_half cancels half of the terms of f
            half = ExteriorForm(n, k, L.field,
                                {idx: -v for idx, v in list(f.coeffs.items())[::2]})
            results = [f + g, f - g, g - f, -f, f + (-f), f - f, f + half,
                       zero_form(L.field, n, k) + f, d_apply(L, f),
                       d_apply(L, d_apply(L, f)) if k < n else -f]
            results += [f * c for c in scalars] + [c * g for c in scalars]
            j = rng.randint(0, n - k)
            results += [wedge(f, make(n, j)), wedge(make(n, j), g)]
            if n:
                x = make(n, 1)
                results.append(wedge(x, x))
            for r in results:
                assert_canonical(r)
            zero_results += sum(r.is_zero for r in results)
            mixed = f + half
            partial_cancellations += 0 < len(mixed.coeffs) < len(f.coeffs)
    assert zero_results and partial_cancellations
