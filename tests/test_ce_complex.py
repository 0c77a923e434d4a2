import random
from fractions import Fraction
from itertools import combinations, permutations
from math import comb

import pytest

import _oracle
from _families import filiform, heisenberg as heisenberg_family, rebased, solv, strictly_upper
from liecohom import ce_complex, field_arith
from liecohom.ce_complex import (
    ExteriorForm,
    basis_form,
    ce_differential,
    cohomology,
    d_apply,
    evaluate,
    form_from_vector,
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
    MixedFields,
)
from liecohom.field_arith import (
    Field,
    Matrix,
    QQ,
    RationalFunction,
    _echelon_insert,
    rank,
    rank_and_kernel,
)
from liecohom.lie_core import (
    LieAlgebra,
    _check_same_space,
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


def full_vector(f):
    """f's coefficients on every tuple of index_tuples, in that order."""
    return [f.coeffs.get(idx, f.field.zero) for idx in index_tuples(f.ambient, f.degree)]


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


def dense_form(rng, field, n, degree):
    """A form with every coefficient nonzero, some with large denominators."""
    coeffs = {}
    for idx in index_tuples(n, degree):
        x = Fraction(rng.choice([-1, 1]) * rng.randint(1, 10**6), rng.choice([1, 7, 10**9 + 9]))
        coeffs[idx] = x * (A + rng.randint(1, 3)) / (A - rng.randint(0, 2)) if field is FA else x
    return ExteriorForm(n, degree, field, coeffs)


def argument_vectors(rng, field, n, k, kind):
    """k vectors of length n: plain ints, small fractions with one zero
    vector or one repeated vector, or large denominators; over Q(a) some
    entries are nonconstant."""
    if kind == "int":
        return [[rng.randint(-9, 9) for _ in range(n)] for _ in range(k)]
    if kind == "large":
        vecs = [[Fraction(rng.randint(-10**12, 10**12), rng.randint(1, 10**15))
                 for _ in range(n)] for _ in range(k)]
    else:
        vecs = [[Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)]
                for _ in range(k)]
    if field is FA:
        vecs = [[x * A + 1 if x and rng.random() < 0.3 else x for x in v] for v in vecs]
    if kind == "zero" and k:
        vecs[rng.randrange(k)] = [0] * n
    if kind == "repeated" and k >= 2:
        i, j = rng.sample(range(k), 2)
        vecs[j] = list(vecs[i])
    return vecs


@pytest.mark.parametrize("field", [QQ, FA])
def test_evaluate_dense_forms_matches_oracle_in_every_degree(field, monkeypatch):
    # every minor is cleared of denominators: integers over Q, polynomials
    # over Q(a), so the kernel never sees a field scalar
    ring = int if field is QQ else field_arith.Poly
    real, minors = field_arith._bareiss, []

    def cleared_only(rows, one=1):
        assert all(type(x) is ring for row in rows for x in row)
        minors.append(len(rows))
        return real(rows, one)

    monkeypatch.setattr(field_arith, "_bareiss", cleared_only)
    assert evaluate(zero_form(field, 3, 2), [[1, 2, 3], [4, 5, 6]]) == 0
    rng = random.Random(41 if field is QQ else 42)
    for n in range(7):
        for k in range(n + 1):
            form = dense_form(rng, field, n, k)
            for kind in ("int", "zero", "repeated", "large"):
                args = argument_vectors(rng, field, n, k, kind)
                expected = sum((c * _oracle.eval_basis_form(idx, args)
                                for idx, c in form.coeffs.items()), field.zero)
                value = evaluate(form, args)
                assert value == expected
                assert field_arith.field_of(value) == field
                if kind in ("zero", "repeated") and k >= 2:
                    assert not value
    assert set(minors) == set(range(7))


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


def shuffle_by_evaluate(alpha, beta, args):
    """Reference shuffle sum: one public evaluate call per factor of each term."""
    if alpha.degree != 2:
        raise ArityMismatch("shuffle evaluation needs a 2-form on the left")
    _check_same_space("forms", alpha.ambient, alpha.field, beta.ambient, beta.field)
    k = beta.degree + 1
    if len(args) != k + 1:
        raise ArityMismatch("expected %d argument vectors, got %d" % (k + 1, len(args)))
    total = alpha.field.zero
    for i in range(k + 1):
        for j in range(i + 1, k + 1):
            first = evaluate(alpha, [args[i], args[j]])
            if not first:
                continue
            rest = [args[c] for c in range(k + 1) if c != i and c != j]
            term = first * evaluate(beta, rest)
            if (i + j - 1) % 2:
                term = -term
            total = total + term
    return total


PRIMES = (1000003, 998244353, 2**61 - 1)


def prime_form(rng, field, n, degree):
    """A dense form whose coefficients have large prime denominators."""
    coeffs = {idx: Fraction(rng.randint(-10**9, 10**9), rng.choice(PRIMES))
              for idx in index_tuples(n, degree)}
    if field is FA:
        coeffs = {idx: x * (A + rng.choice(PRIMES)) for idx, x in coeffs.items()}
    return ExteriorForm(n, degree, field, coeffs)


@pytest.mark.parametrize("field", [QQ, FA])
def test_shuffle_eval_matches_per_pair_evaluate(field):
    rng = random.Random(61 if field is QQ else 62)
    # Q(a) arithmetic is slow, so there the forms stop at n = 4 and the
    # large denominators are the prime ones only
    kinds = ("int", "zero", "repeated", "large") if field is QQ else ("int", "zero")
    for n in range(1, 6 if field is QQ else 5):
        for beta_deg in range(n):
            k = beta_deg + 2
            cases = [(dense_form(rng, field, n, 2), dense_form(rng, field, n, beta_deg),
                      argument_vectors(rng, field, n, k, kind))
                     for kind in kinds]
            primes = [[Fraction(rng.randint(-10**9, 10**9), rng.choice(PRIMES))
                       for _ in range(n)] for _ in range(k)]
            cases.append((prime_form(rng, field, n, 2), prime_form(rng, field, n, beta_deg),
                           primes))
            alpha, beta, args = cases[0]
            cases.append((zero_form(field, n, 2), beta, args))
            cases.append((alpha, zero_form(field, n, beta_deg), args))
            for alpha, beta, args in cases:
                value = shuffle_eval(alpha, beta, args)
                assert value == shuffle_by_evaluate(alpha, beta, args)
                assert field_arith.field_of(value) == field
                if beta_deg == n - 1 or alpha.is_zero or beta.is_zero:
                    # n + 1 vectors in dimension n, or a zero factor
                    assert not value


def test_shuffle_eval_raises_as_per_pair_evaluate():
    FB = Field("b")
    alpha, beta = t(3, 1, 2), t(3, 3)
    good = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    alpha_a = ExteriorForm(3, 2, FA, {(1, 2): A})
    beta_a = ExteriorForm(3, 1, FA, {(3,): 1})
    cases = [
        (ArityMismatch, t(3, 1), beta, good),
        (ArityMismatch, alpha, beta, good[:2]),
        (ArityMismatch, alpha, beta, good + [[1, 1, 1]]),
        (DimensionMismatch, alpha, t(4, 3), good),
        (MixedFields, alpha, beta_a, good),
        (MixedFields, alpha, beta, [[1, 0, 0], [0, 1, 0], [0, 0, 0.5]]),
        (MixedFields, alpha_a, beta_a, [[1, 0, 0], [0, FB.generator(), 0], [0, 0, 1]]),
        (MixedFields, alpha, beta, [[A, 0, 0], [0, 1, 0], [0, 0, 1]]),
    ]
    for pos in range(3):
        short = [list(v) for v in good]
        short[pos] = short[pos][:2]
        cases.append((DimensionMismatch, alpha, beta, short))
        cases.append((DimensionMismatch, alpha_a, beta_a, short))
    for expected, alpha, beta, args in cases:
        for fn in (shuffle_by_evaluate, shuffle_eval):
            with pytest.raises(expected):
                fn(alpha, beta, args)


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


@pytest.mark.parametrize("k", [1.5, True], ids=["float", "bool"])
def test_differential_names_a_bad_degree_as_given(k):
    # the check runs before any tuple list, so the message names k itself,
    # not k + 1, and a bool is not taken for the integer 1
    with pytest.raises(DegreeOutOfRange) as info:
        ce_differential(so3(), k)
    assert str(info.value).endswith("got %r" % (k,))


def test_d_squared_zero_catalog():
    for L in (so3(), sl2(), heisenberg(), LieAlgebra.abelian("a5", 5, QQ)):
        for k in range(L.dim):
            dk = ce_differential(L, k).matrix
            dk1 = ce_differential(L, k + 1).matrix
            for j in range(dk.cols):
                assert not any(dk1.mul_vec(dk.col(j)))


def test_d_squared_zero_rational_function_field():
    L = LieAlgebra("scaled", 2, FA, {(1, 2): {1: A}})
    assert not jacobi_check(L)
    for k in range(2):
        dk = ce_differential(L, k).matrix
        dk1 = ce_differential(L, k + 1).matrix
        for j in range(dk.cols):
            assert not any(dk1.mul_vec(dk.col(j)))


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
            assert _oracle.gauss_rank([full_vector(f) for f in basis]) == len(basis)
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


def contraction_kernel_basis(L, h, k):
    """The horizontal basis by definition: the reduced echelon kernel of the
    degree-k contraction system, one row per (w, T) with entry (-1)^p w_a
    at I = T + {a}, a in position p of I."""
    n = L.dim
    if k == 0:
        return [ExteriorForm(n, 0, L.field, {(): L.field.one})]
    cols = index_tuples(n, k)
    col_index = {I: c for c, I in enumerate(cols)}
    rows = []
    for w in h.basis:
        for T in index_tuples(n, k - 1):
            row = [L.field.zero] * len(cols)
            for a, x in enumerate(w, start=1):
                if x and a not in T:
                    p = sum(1 for b in T if b < a)
                    row[col_index[T[:p] + (a,) + T[p:]]] = -x if p % 2 else x
            rows.append(row)
    matrix = Matrix(L.field, len(rows), len(cols), [x for row in rows for x in row])
    _, kernel = rank_and_kernel(matrix)
    return [ExteriorForm._trusted(n, k, L.field, {I: x for I, x in zip(cols, v) if x})
            for v in kernel]


def random_subspace(rng, L, m):
    """m independent random vectors in L, mixing sparse and dense rows."""
    n, field = L.dim, L.field
    while True:
        basis = []
        for _ in range(m):
            density = rng.choice((0.3, 0.7, 1.0))
            row = []
            for _ in range(n):
                if rng.random() >= density:
                    row.append(0)
                elif field == QQ:
                    row.append(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
                else:
                    row.append((rng.randint(-2, 2) * A + rng.randint(-3, 3))
                               / rng.randint(1, 3))
            basis.append(row)
        if rank(Matrix.from_rows(field, basis, n)) == m:
            return Subspace(n, basis, field)


def exactness_cases():
    rng = random.Random(61)
    for n in range(1, 8):
        algebras = [filiform(n) if n >= 3 else LieAlgebra.abelian("q%d" % n, n, QQ),
                    solv(n) if n >= 2 else LieAlgebra.abelian("qa%d" % n, n, FA)]
        for L in algebras:
            dims = {0, n, rng.randint(1, n), rng.randint(0, n)}
            if L.field == FA and n > 5:
                # the reference eliminates dim h * C(n, k-1) rows over Q(a)
                dims = {0, 1, rng.randint(2, 3)}
            for m in sorted(dims):
                yield L, random_subspace(rng, L, m)


def test_horizontal_basis_equals_contraction_kernel_exactly():
    # same tuples, same scalars of the same types, in the same order
    count = 0
    for L, h in exactness_cases():
        for k in range(L.dim + 1):
            got = horizontal_basis(L, h, k)
            want = contraction_kernel_basis(L, h, k)
            assert len(got) == len(want) == comb(L.dim - h.size, k)
            for f, g in zip(got, want):
                assert (f.ambient, f.degree, f.field) == (g.ambient, g.degree, g.field)
                assert list(f.coeffs.items()) == list(g.coeffs.items())
                assert [type(x) for x in f.coeffs.values()] == \
                    [type(x) for x in g.coeffs.values()]
            count += len(got)
    assert count > 500


def test_horizontal_basis_eliminates_only_the_basis_of_h(monkeypatch):
    # the only elimination is of the columns of h's basis matrix, sparse
    # rows keyed by basis position, and no Matrix is built on the way
    shapes = []
    real = ce_complex._rank_and_kernel

    def recording(columns, one):
        shapes.append((list(columns), {key for column in columns.values() for key in column}))
        return real(columns, one)

    def refuse(*args, **kwargs):
        raise AssertionError("Matrix built on the horizontal path")

    monkeypatch.setattr(ce_complex, "_rank_and_kernel", recording)
    monkeypatch.setattr(ce_complex, "Matrix", refuse)
    for L, h in exactness_cases():
        for k in range(L.dim + 1):
            del shapes[:]
            horizontal_basis(L, h, k)
            assert len(shapes) == 1, (L.name, k, shapes)
            assert shapes[0][0] == list(range(L.dim))
            assert shapes[0][1] <= set(range(h.size))


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


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_cohomology_heisenberg_santharoubane(m):
    # Santharoubane (Proc. AMS 87, 1983): b_k(h_{2m+1}) = C(2m, k) - C(2m, k-2)
    # for k <= m, and b_{2m+1-k} = b_k; h_11 is m = 5
    n = 2 * m + 1
    rep = cohomology(heisenberg_family(m))
    low = [comb(2 * m, k) - (comb(2 * m, k - 2) if k >= 2 else 0) for k in range(m + 1)]
    assert rep.betti == low + low[::-1]
    assert len(rep.betti) == n + 1


def _mahonian(N):
    """Number of permutations of N letters with k inversions, k = 0, 1, ...,
    counted over all N! permutations."""
    counts = [0] * (comb(N, 2) + 1)
    for perm in permutations(range(N)):
        counts[sum(1 for i, j in combinations(range(N), 2) if perm[i] > perm[j])] += 1
    return counts


@pytest.mark.parametrize("N", [3, 4, 5])
def test_cohomology_strictly_upper_kostant(N):
    # Kostant: b_k(n_N) counts the permutations of N letters with k
    # inversions; n_5 gives 1, 4, 9, 15, 20, 22, 20, 15, 9, 4, 1
    rep = cohomology(strictly_upper(N))
    assert rep.betti == _mahonian(N)
    if N == 5:
        assert rep.betti == [1, 4, 9, 15, 20, 22, 20, 15, 9, 4, 1]


def test_cohomology_filiform_12():
    # L_12: b_1 = n - dim [g, g] = 12 - 10, Poincare duality (a nilpotent
    # algebra is unimodular), Euler characteristic zero, and every
    # representative a cocycle with leading coefficient 1
    L = filiform(12)
    rep = cohomology(L)
    assert rep.betti[1] == 2
    assert rep.betti == rep.betti[::-1]
    assert sum((-1) ** k * b for k, b in enumerate(rep.betti)) == 0
    for k in range(13):
        prev = rep.ranks[k - 1] if k else 0
        assert rep.betti[k] == comb(12, k) - rep.ranks[k] - prev
    for forms in rep.representatives:
        for f in forms:
            assert next(iter(f.coeffs.values())) == 1
            assert d_apply(L, f).is_zero


def random_sign_matrix(seed, n):
    """A seeded invertible n x n matrix with entries in {-1, 0, 1}."""
    rng = random.Random(seed)
    while True:
        P = [[rng.choice((-1, 0, 1)) for _ in range(n)] for _ in range(n)]
        if _oracle.gauss_rank([[Fraction(x) for x in row] for row in P]) == n:
            return P


@pytest.mark.parametrize("seed", [3, 11])
@pytest.mark.parametrize("n", [5, 6])
def test_cohomology_of_rebased_solv_over_qa(n, seed):
    # a change of basis makes d dense over Q(a), and the cohomology of
    # solv_n stays [1, 1, 0, ...]; every representative is a cocycle
    L = rebased(solv(n), random_sign_matrix(seed, n))
    assert L.field == FA and len(L.brackets) > n - 1
    assert any(c.num.degree == 1 for terms in L.brackets.values() for c in terms.values())
    rep = cohomology(L)
    assert rep.betti == [1, 1] + [0] * (n - 1)
    for forms in rep.representatives:
        for f in forms:
            assert d_apply(L, f).is_zero


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
    reps = [full_vector(f) for f in rep.representatives[1]]
    stacked = image + reps
    m = Matrix.from_rows(QQ, stacked, cols=3)
    assert rank(m) == rank(Matrix.from_rows(QQ, image, cols=3)) + len(reps)


def test_cohomology_takes_one_reduced_echelon_form_per_degree(monkeypatch):
    # each d_k is eliminated once, as its columns in lex order, by the one
    # elimination whose pivots and kernel are those of the reduced form; its
    # echelon is the image of degree k+1, so no other echelon is filled
    L = filiform(7)
    dt = ce_complex._one_form_differentials(L)
    calls, built = [], []
    real = field_arith._rank_and_kernel

    def counted(columns, one):
        calls.append(columns)
        return real(columns, one)

    def recording_echelon(rows=()):
        rows = list(rows)
        built.append(rows)
        return field_arith._echelon(rows)

    monkeypatch.setattr(ce_complex, "_rank_and_kernel", counted)
    monkeypatch.setattr(ce_complex, "_echelon", recording_echelon)
    cohomology(L)
    assert len(calls) == 8
    assert calls == [ce_complex._d_columns(dt, 7, k) for k in range(8)]
    assert [list(columns) for columns in calls] == [index_tuples(7, k) for k in range(8)]
    assert built == [[]]


@pytest.mark.parametrize("L", [filiform(7), heisenberg_family(3), strictly_upper(4), solv(5)],
                         ids=lambda L: L.name)
def test_cohomology_inserts_2_to_the_n_rows(L, monkeypatch):
    # degree k inserts the C(n, k) columns of d_k once, 2^n in all, and then
    # only the dim ker d_k kernel vectors into the image echelon, so no
    # column is inserted twice; the kernel vectors that insert are the
    # representatives
    columns, calls = [], []
    real = field_arith._echelon_insert
    real_rank_and_kernel = field_arith._rank_and_kernel

    def counted(echelon, row):
        inserted = real(echelon, row)
        calls.append(inserted is not None)
        return inserted

    def counted_columns(cols, one):
        columns.append(len(cols))
        return real_rank_and_kernel(cols, one)

    monkeypatch.setattr(ce_complex, "_echelon_insert", counted)
    monkeypatch.setattr(ce_complex, "_rank_and_kernel", counted_columns)
    report = cohomology(L)
    assert sum(columns) == 2 ** L.dim
    assert len(calls) == 2 ** L.dim - sum(report.ranks)
    assert sum(calls) == sum(report.betti)


def test_cohomology_builds_no_form_through_the_constructor(monkeypatch):
    # representatives wrap the engine's rows as they are; the reports and
    # the forms match those of an unpatched run
    algebras = [filiform(7), heisenberg_family(3), strictly_upper(4), solv(5)]
    want = [cohomology(L) for L in algebras]

    def refuse(self, *args, **kwargs):
        raise AssertionError("ExteriorForm.__init__ called")

    monkeypatch.setattr(ExteriorForm, "__init__", refuse)
    got = [cohomology(L) for L in algebras]
    monkeypatch.undo()
    for g, w in zip(got, want):
        assert g.to_json() == w.to_json()
        assert g.representatives == w.representatives
        for forms in g.representatives:
            for f in forms:
                assert_canonical(f)


def sparse_form(rng, field, n, degree):
    """A form on about half of the tuples, over Q or Q(a)."""
    if field == FA:
        return random_qa_form(rng, n, degree)
    return ExteriorForm(n, degree, QQ, {
        idx: Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        for idx in index_tuples(n, degree) if rng.random() < 0.5})


@pytest.mark.parametrize("field", [QQ, FA], ids=["Q", "Q(a)"])
def test_form_rows_give_the_span_verdicts_of_full_vectors(field):
    # the engine on the forms' coefficient dicts, which are its rows keyed
    # by index tuple, against the oracle on full C(n, k)-long vectors: each
    # insertion (independence) and each reduction (membership) verdict
    rng = random.Random(71)
    verdicts = set()
    for _ in range(40):
        n = rng.randint(1, 5)
        k = rng.randint(0, n)
        tuples = index_tuples(n, k)
        cut = rng.randint(0, len(tuples))

        def restricted(f, keep):
            return ExteriorForm(n, k, field, {I: c for I, c in f.coeffs.items() if I in keep})

        forms = [sparse_form(rng, field, n, k) for _ in range(rng.randint(0, 4))]
        forms.append(restricted(sparse_form(rng, field, n, k), tuples[:cut]))
        forms += [zero_form(field, n, k), forms[0]]
        rng.shuffle(forms)
        targets = [forms[-1] * 3 + forms[0], zero_form(field, n, k), forms[1],
                   restricted(sparse_form(rng, field, n, k), tuples[cut:]),
                   sparse_form(rng, field, n, k)]
        rows = [f.coeffs for f in forms + targets]
        before = [dict(row) for row in rows]
        full = [full_vector(f) for f in forms + targets]
        echelon = []
        for i, row in enumerate(rows[:len(forms)]):
            independent = _echelon_insert(echelon, row) is not None
            assert independent == (_oracle.gauss_rank(full[:i + 1]) > _oracle.gauss_rank(full[:i]))
            verdicts.add(("independent", independent))
        span_rank = _oracle.gauss_rank(full[:len(forms)])
        for row, vec in zip(rows[len(forms):], full[len(forms):]):
            outside = _echelon_insert(list(echelon), row) is not None
            assert outside == (_oracle.gauss_rank(full[:len(forms)] + [vec]) > span_rank)
            verdicts.add(("outside", outside))
        # every row the echelon holds uses only tuples the forms use
        assert all(set(row) <= set(tuples) for _, row in echelon)
        assert rows == before
    assert len(verdicts) == 4


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
        assert form_from_vector(QQ, n, k, full_vector(f)) == f


@pytest.mark.parametrize("coeffs, message", [
    ({(1,): 1}, r"index tuple \(1,\) in a degree-2 form"),
    ({(1, 4): 1}, r"index tuple \(1, 4\) out of range"),
    ({(0, 2): 1}, r"index tuple \(0, 2\) out of range"),
    ({(2, 1): 1}, r"index tuple \(2, 1\) is not strictly increasing"),
    ({(2, 2): 1}, r"index tuple \(2, 2\) is not strictly increasing"),
], ids=["length", "past_n", "zero", "decreasing", "repeated"])
def test_exterior_form_refuses_a_bad_index_tuple(coeffs, message):
    with pytest.raises(DimensionMismatch, match=message):
        ExteriorForm(3, 2, QQ, coeffs)


def test_forms_of_different_degrees_do_not_add():
    with pytest.raises(DimensionMismatch, match="cannot add forms of different degrees"):
        t(3, 1) + t(3, 1, 2)


def test_form_from_vector_checks_its_vector():
    with pytest.raises(DimensionMismatch, match="coefficient vector of length 2, expected 3"):
        form_from_vector(QQ, 3, 2, [1, 2])
    with pytest.raises(MixedFields):
        form_from_vector(QQ, 3, 2, [1, A, 0])
    assert form_from_vector(FA, 2, 1, [1, A]) == ExteriorForm(2, 1, FA, {(1,): 1, (2,): A})


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
