import json
import random
import re
import tracemalloc
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

import _oracle
from _families import filiform, heisenberg as heisenberg_family, solv, strictly_upper
from liecohom.catalog import catalog_entry, catalog_keys, selftest_entries
from liecohom.errors import (
    DimensionMismatch,
    MixedFields,
    NotAnIdeal,
    ParseError,
)
from liecohom import lie_core
from liecohom.field_arith import Field, Matrix, QQ
from liecohom.lie_core import (
    LieAlgebra,
    Subspace,
    algebra_from_json,
    algebra_to_json,
    bracket,
    ideal_check,
    jacobi_check,
    quotient_algebra,
    subspace_from_json,
    subspace_to_json,
    torus_ideal_from_directions,
)
from liecohom.selftest import _jacobi_holds_direct

FA = Field("a")
A = FA.generator()


def so3():
    return LieAlgebra("so3", 3, QQ, {(1, 2): {3: 1}, (2, 3): {1: 1}, (1, 3): {2: -1}})


def heisenberg():
    return LieAlgebra("heisenberg3", 3, QQ, {(1, 2): {3: 1}})


def test_bracket_basis_and_antisymmetry():
    L = so3()
    assert L.bracket_basis(1, 2) == [0, 0, 1]
    assert L.bracket_basis(2, 1) == [0, 0, -1]
    assert L.bracket_basis(3, 1) == [0, 1, 0]
    assert L.bracket_basis(2, 2) == [0, 0, 0]


@pytest.mark.parametrize("index", [True, 1.5, 2.0, 0, 4])
def test_basis_vector_refuses_an_index_that_is_no_basis_index(index):
    with pytest.raises(DimensionMismatch):
        so3().basis_vector(index)


@pytest.mark.parametrize("index", [0, 4, 1.5, 1.0, True], ids=["0", "n+1", "1.5", "1.0", "True"])
@pytest.mark.parametrize("method, arity", [("basis_vector", 1), ("bracket_basis", 2),
                                           ("structure_constant", 3)])
def test_index_readers_refuse_an_index_that_is_no_basis_index(method, arity, index):
    # in each position, beside valid indices and beside itself, so that
    # neither a table lookup nor the i == j shortcut answers first
    read = getattr(so3(), method)
    message = re.escape("basis index %r out of range" % (index,))
    for position in range(arity):
        args = [1, 2, 3][:arity]
        args[position] = index
        with pytest.raises(DimensionMismatch, match=message):
            read(*args)
    with pytest.raises(DimensionMismatch, match=message):
        read(*[index] * arity)


def test_bracket_checks_both_arguments_through_the_gate():
    L = so3()
    assert bracket(L, [1, 0, 0], [0, 1, 0]) == [0, 0, 1]
    with pytest.raises(DimensionMismatch, match="bracket argument of length 2, expected 3"):
        bracket(L, [1, 0, 0], [0, 1])
    with pytest.raises(MixedFields):
        bracket(L, [1, 0, 0], [0, A, 0])


def test_subspace_vectors_are_checked_one_by_one():
    # the first vector fails on its field before the second on its length
    with pytest.raises(MixedFields):
        Subspace(2, [[1, A], [1, 0, 0]], QQ)
    with pytest.raises(DimensionMismatch, match="subspace vector of length 3, expected 2"):
        Subspace(2, [[1, 0, 0], [1, A]], QQ)
    with pytest.raises(DimensionMismatch, match="torus direction of length 1, expected 2"):
        torus_ideal_from_directions(2, [[1]], QQ)


def test_bracket_bilinear():
    L = so3()
    rng = random.Random(5)
    for _ in range(25):
        x = [Fraction(rng.randint(-5, 5)) for _ in range(3)]
        y = [Fraction(rng.randint(-5, 5)) for _ in range(3)]
        assert bracket(L, x, x) == [0, 0, 0]
        lhs = bracket(L, x, y)
        rhs = [-c for c in bracket(L, y, x)]
        assert lhs == rhs


def test_bracket_matches_oracle():
    L = so3()
    table = _oracle.structure_constants(L)
    rng = random.Random(17)
    for _ in range(30):
        x = [Fraction(rng.randint(-4, 4)) for _ in range(3)]
        y = [Fraction(rng.randint(-4, 4)) for _ in range(3)]
        assert bracket(L, x, y) == _oracle.bracket_vectors(table, 3, x, y)


def test_jacobi_passes_on_real_algebras():
    assert jacobi_check(so3()) == []
    assert jacobi_check(heisenberg()) == []
    assert jacobi_check(LieAlgebra.abelian("a4", 4, QQ)) == []


def test_jacobi_violation_with_exact_residual():
    # [e1,e2] = e1, [e1,e3] = e3, [e2,e3] = 0: expanding the three double
    # brackets by hand gives [e1,e3] + 0 + 0 = e3, so the residual is +e3
    bad = LieAlgebra("bad", 3, QQ, {(1, 2): {1: 1}, (1, 3): {3: 1}})
    violations = jacobi_check(bad)
    assert violations == [(1, 2, 3, [Fraction(0), Fraction(0), Fraction(1)])]
    # independent expansion agrees
    table = _oracle.structure_constants(bad)
    assert _oracle.jacobiator(table, 3, 1, 2, 3) == [Fraction(0), Fraction(0), Fraction(1)]


def test_jacobi_check_matches_oracle_on_single_entry_corruptions():
    rng = random.Random(23)
    caught = 0
    for L in (so3(), heisenberg(), filiform(6), heisenberg_family(2), strictly_upper(4)):
        n = L.dim
        slots = [(i, j, k) for i, j in combinations(range(1, n + 1), 2)
                 for k in range(1, n + 1)]
        for i, j, k in rng.sample(slots, min(len(slots), 25)):
            table = {pair: dict(terms) for pair, terms in L.brackets.items()}
            slot = table.setdefault((i, j), {})
            slot[k] = slot.get(k, 0) + Fraction(rng.choice((-2, -1, 1, 3)), rng.randint(1, 3))
            bad = LieAlgebra("bad", n, QQ, table)
            expected = []
            constants = _oracle.structure_constants(bad)
            for triple in combinations(range(1, n + 1), 3):
                residual = _oracle.jacobiator(constants, n, *triple)
                if any(residual):
                    expected.append(triple + (residual,))
            assert jacobi_check(bad) == expected
            caught += bool(expected)
    assert caught > 50


def test_selftest_jacobi_oracle_matches_jacobiator_on_all_ordered_triples():
    # the selftest's oracle sweeps i < j < k only; the Jacobiator is
    # alternating, so it must agree with a sweep over every ordered triple
    rng = random.Random(31)
    algebras = [entry.algebra for entry in selftest_entries()]
    outcomes = set()
    for L in [L for L in algebras if L.field == QQ]:
        n = L.dim
        slots = [(i, j, k) for i, j in combinations(range(1, n + 1), 2)
                 for k in range(1, n + 1)]
        for i, j, k in rng.sample(slots, min(len(slots), 12)):
            table = {pair: dict(terms) for pair, terms in L.brackets.items()}
            slot = table.setdefault((i, j), {})
            slot[k] = slot.get(k, L.field.zero) + rng.choice((-1, 1, 2))
            algebras.append(LieAlgebra("bad", n, L.field, table))
    for L in algebras:
        triples = [(i, j, k) for i in range(1, L.dim + 1)
                   for j in range(1, L.dim + 1) for k in range(1, L.dim + 1)]
        table = _oracle.structure_constants(L)
        holds = not any(any(_oracle.jacobiator(table, L.dim, *t)) for t in triples)
        assert _jacobi_holds_direct(L) == holds
        outcomes.add(holds)
    assert outcomes == {True, False}


def test_selftest_jacobi_oracle_matches_jacobiator_over_qa():
    # corruptions of the Q(a) catalog entries (dimension 2, where the
    # identity always holds) and of Q(a) tables outside the catalog, some
    # of which keep the identity, each against every ordered triple
    rng = random.Random(53)
    values = (A, A + 1, FA.one / (A + 2), FA.one * 2, -A * A)
    bases = [entry.algebra for entry in selftest_entries() if entry.algebra.field == FA]
    bases += [solv(3), solv(4),
              LieAlgebra("heis_a", 3, FA, {(1, 2): {3: A}}),
              LieAlgebra("sl2_a", 3, FA, {(1, 2): {2: 2 * A}, (1, 3): {3: -2 * A},
                                          (2, 3): {1: FA.one / A}})]
    algebras = list(bases)
    for L in bases:
        n = L.dim
        slots = [(i, j, k) for i, j in combinations(range(1, n + 1), 2)
                 for k in range(1, n + 1)]
        for i, j, k in rng.sample(slots, min(len(slots), 8)):
            table = {pair: dict(terms) for pair, terms in L.brackets.items()}
            slot = table.setdefault((i, j), {})
            slot[k] = slot.get(k, FA.zero) + rng.choice(values)
            algebras.append(LieAlgebra("bad", n, FA, table))
    for _ in range(12):
        n = rng.randint(3, 4)
        table = {}
        for _ in range(rng.randint(1, 3)):
            i, j = sorted(rng.sample(range(1, n + 1), 2))
            table.setdefault((i, j), {})[rng.randint(1, n)] = rng.choice(values)
        algebras.append(LieAlgebra("random", n, FA, table))
    outcomes = []
    for L in algebras:
        triples = [(i, j, k) for i in range(1, L.dim + 1)
                   for j in range(1, L.dim + 1) for k in range(1, L.dim + 1)]
        table = _oracle.structure_constants(L)
        holds = not any(any(_oracle.jacobiator(table, L.dim, *t)) for t in triples)
        assert _jacobi_holds_direct(L) == holds
        outcomes.append(holds)
    assert outcomes[:len(bases)] == [True] * len(bases)
    assert outcomes.count(False) > 10 and outcomes[len(bases):].count(True) > 5


def test_subspace_requires_independent_basis():
    with pytest.raises(ValueError):
        Subspace(2, [[1, 0], [2, 0]], QQ)
    with pytest.raises(DimensionMismatch):
        Subspace(2, [[1, 0, 0]], QQ)


def test_ideal_check_heisenberg_center():
    assert ideal_check(heisenberg(), Subspace(3, [[0, 0, 1]], QQ)) is None


def test_ideal_check_witness():
    witness = ideal_check(so3(), Subspace(3, [[0, 0, 1]], QQ))
    i, w, result = witness
    assert i == 1
    assert w == [0, 0, 1]
    assert result == [0, -1, 0]  # [e1, e3] = -e2


def test_ideal_check_trivial_cases():
    L = so3()
    assert ideal_check(L, Subspace.zero(3, QQ)) is None
    full = Subspace(3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]], QQ)
    assert ideal_check(L, full) is None


def _failing_brackets(L, h):
    """Every (i, w, [e_i, w]) outside h, in order, by rank against h."""
    return [(i, w, result)
            for i in range(1, L.dim + 1) for w in h.basis
            for result in [bracket(L, L.basis_vector(i), w)]
            if _oracle.gauss_rank(h.basis + [result]) > h.size]


def _random_subspace(rng, n, field):
    a = field.generator() if not field.is_rationals else 0
    while True:
        size = rng.randint(0, min(n, 4))
        vectors = [[rng.choice((0, 0, 0, 1, -1, 2)) + (a if rng.random() < 0.1 else 0)
                    for _ in range(n)] for _ in range(size)]
        try:
            return Subspace(n, vectors, field)
        except ValueError:
            continue


def test_ideal_check_matches_bruteforce_witness():
    rng = random.Random(23)
    h7, L7, solv6 = heisenberg_family(3), filiform(7), solv(6)
    e = lambda n, *idx: [1 if r in idx else 0 for r in range(1, n + 1)]
    cases = [
        # [e4, e1 + e2] = [e5, e1 + e2] = -e7: a failing bracket repeats
        (h7, Subspace(7, [e(7, 1, 2)], QQ)),
        # the first three brackets lie in h, [e2, e5] = e7 does not
        (h7, Subspace(7, [e(7, 6), e(7, 5)], QQ)),
        (h7, Subspace(7, [e(7, 7)], QQ)),
        (L7, Subspace(7, [e(7, 6), e(7, 7)], QQ)),
        (L7, Subspace(7, [e(7, 3), e(7, 5)], QQ)),
        (solv6, Subspace(6, [e(6, 2, 3)], solv6.field)),
        (solv6, Subspace(6, [e(6, 2), e(6, 6)], solv6.field)),
    ]
    algebras = [catalog_entry(key).algebra for key in catalog_keys()]
    algebras += [h7, L7, solv6]
    for L in algebras:
        for _ in range(8):
            cases.append((L, _random_subspace(rng, L.dim, L.field)))
    seen = {"ideal": 0, "several": 0, "repeated": 0, "late": 0, "q_a": 0}
    for L, h in cases:
        failing = _failing_brackets(L, h)
        witness = ideal_check(L, h)
        if not failing:
            assert witness is None
            seen["ideal"] += 0 < h.size < L.dim
            continue
        assert witness == failing[0]
        results = [result for _, _, result in failing]
        seen["several"] += len(failing) > 1
        seen["repeated"] += any(results.count(r) > 1 for r in results)
        first = [(i, w) for i in range(1, L.dim + 1) for w in h.basis]
        seen["late"] += first.index(witness[:2]) >= 3
        seen["q_a"] += not L.field.is_rationals
    assert all(seen.values()), seen


def test_jacobi_check_cost_follows_the_brackets_not_the_dimension():
    # one bracket in dimension 10^5: only the three bracket indices can
    # complete a triple with a nonzero residual
    L = LieAlgebra("one_bracket", 10**5, QQ, {(1, 2): {3: 1}})
    tracemalloc.start()
    try:
        assert jacobi_check(L) == []
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak


def test_ideal_check_brackets_only_indices_of_bracket_pairs(monkeypatch):
    n = 2000
    L = LieAlgebra("one_bracket", n, QQ, {(1, 2): {3: 1}})
    h = Subspace(n, [[1 if r == 3 else 0 for r in range(1, n + 1)]], QQ)
    calls = []

    def counting_bracket(*args):
        calls.append(args)
        return bracket(*args)

    monkeypatch.setattr(lie_core, "bracket", counting_bracket)
    assert ideal_check(L, h) is None
    assert len(calls) == 2


def test_quotient_heisenberg_by_center():
    qd = quotient_algebra(heisenberg(), Subspace(3, [[0, 0, 1]], QQ))
    assert qd.quotient.dim == 2
    assert qd.quotient.is_abelian
    assert qd.projection.to_rows() == [[1, 0, 0], [0, 1, 0]]
    assert qd.section.to_rows() == [[1, 0], [0, 1], [0, 0]]
    assert [qd.projection.mul_vec(qd.section.col(b)) for b in range(2)] == [[1, 0], [0, 1]]


def test_quotient_torus_rational_function():
    L = LieAlgebra.abelian("torus2", 2, FA)
    h = Subspace(2, [[FA.one, A]], FA)
    qd = quotient_algebra(L, h)
    assert qd.quotient.dim == 1
    assert qd.quotient.is_abelian
    # projection kills (1, a) and restores the complement e1
    assert not any(qd.projection.mul_vec([FA.one, A]))
    assert qd.projection.mul_vec([FA.one, FA.zero]) == [FA.one]


def test_quotient_by_zero_ideal_is_identity():
    L = so3()
    qd = quotient_algebra(L, Subspace.zero(3, QQ))
    assert qd.quotient.name == "so3"
    assert qd.quotient.brackets == L.brackets
    identity = Matrix.from_rows(QQ, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert qd.projection == identity
    assert qd.section == identity


def test_quotient_nonabelian():
    # so3 with a central line attached; modding out the line returns so3
    L = LieAlgebra("so3_plus_line", 4, QQ,
                   {(1, 2): {3: 1}, (2, 3): {1: 1}, (1, 3): {2: -1}})
    qd = quotient_algebra(L, Subspace(4, [[0, 0, 0, 1]], QQ))
    assert qd.quotient.dim == 3
    assert not qd.quotient.is_abelian
    assert qd.quotient.brackets == so3().brackets


def test_quotient_requires_ideal():
    with pytest.raises(NotAnIdeal) as info:
        quotient_algebra(so3(), Subspace(3, [[0, 0, 1]], QQ))
    assert info.value.witness[0] == 1


def test_quotient_projection_is_lie_map():
    rng = random.Random(3)
    L = heisenberg()
    qd = quotient_algebra(L, Subspace(3, [[0, 0, 1]], QQ))
    for _ in range(20):
        x = [Fraction(rng.randint(-5, 5)) for _ in range(3)]
        y = [Fraction(rng.randint(-5, 5)) for _ in range(3)]
        lhs = qd.projection.mul_vec(bracket(L, x, y))
        rhs = bracket(qd.quotient, qd.projection.mul_vec(x), qd.projection.mul_vec(y))
        assert lhs == rhs


def _matvec(matrix, v):
    return [sum((a * x for a, x in zip(matrix.row(i), v)), matrix.field.zero)
            for i in range(matrix.rows)]


def test_quotient_non_coordinate_ideals_against_oracle():
    L_6 = filiform(6)
    h_5 = heisenberg_family(2)
    h3_a = LieAlgebra("h3", 3, FA, {(1, 2): {3: 1}})
    cases = [
        (LieAlgebra.abelian("a4", 4, QQ), [[1, 2, 0, -1], [0, 1, 1, 3]]),
        (h_5, [[0, 0, 0, 0, 1], [1, 0, -2, 1, 0]]),
        (h_5, [[0, 0, 0, 0, 1], [1, 1, 0, 0, 0], [0, 1, 1, -1, 0]]),
        (L_6, [[0, 0, 1, 0, 0, 0], [0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 1, 0],
               [0, 0, 0, 0, 0, 1], [1, 3, 0, 0, 0, 0]]),
        (L_6, [[0, 0, 0, 0, 1, 2], [0, 0, 0, 0, 0, 1]]),
        (LieAlgebra.abelian("torus4", 4, FA),
         [[FA.one, A, 0, 2], [0, 1, 1 / A, A + 1]]),
        (h3_a, [[FA.one, A, FA.zero], [0, 0, 1]]),
    ]
    for L, vectors in cases:
        n, field = L.dim, L.field
        vectors = [[field.coerce(x) for x in v] for v in vectors]
        qd = quotient_algebra(L, Subspace(n, vectors, field))
        m, q = len(vectors), n - len(vectors)
        assert qd.projection.shape == (q, n) and qd.section.shape == (n, q)
        for w in vectors:
            assert not any(_matvec(qd.projection, w))
        basis = [[field.one if r == j else field.zero for r in range(n)] for j in range(n)]
        sections = [qd.section.col(b) for b in range(q)]
        unit = [[field.one if r == c else field.zero for c in range(q)] for r in range(q)]
        assert [_matvec(qd.projection, s) for s in sections] == unit
        for e in basis:
            lifted = _matvec(qd.section, _matvec(qd.projection, e))
            assert _oracle.gauss_rank(vectors + [[a - b for a, b in zip(e, lifted)]]) == m
        # the section picks unit vectors: the greedy lexicographic complement
        chosen = [basis.index(s) for s in sections]
        for j in range(n):
            before = _oracle.gauss_rank(vectors + basis[:j])
            assert (j in chosen) == (_oracle.gauss_rank(vectors + basis[:j + 1]) > before)


def test_complement_is_lexicographically_first():
    # h spanned by e2: the complement must pick e1 then e3
    L = LieAlgebra.abelian("a3", 3, QQ)
    qd = quotient_algebra(L, Subspace(3, [[0, 1, 0]], QQ))
    assert qd.section.col(0) == [1, 0, 0]
    assert qd.section.col(1) == [0, 0, 1]


def test_torus_ideal_from_directions():
    h = torus_ideal_from_directions(2, [[FA.one, A]], FA)
    assert h.basis == [[FA.one, A]]
    h = torus_ideal_from_directions(3, [[1, 0, 0], [2, 0, 0]], QQ)
    assert h.basis == [[1, 0, 0]]
    # a dependent direction in the middle: the earliest independent ones stay
    h = torus_ideal_from_directions(
        3, [[1, 1, 0], [0, 1, 1], [1, 2, 1], [0, 0, 1], [1, 0, 0]], QQ)
    assert h.basis == [[1, 1, 0], [0, 1, 1], [0, 0, 1]]
    h = torus_ideal_from_directions(
        3, [[FA.one, A, 0], [2, 2 * A, 0], [0, 1, 1 / A], [1, A + 1, 1 / A]], FA)
    assert h.basis == [[FA.one, A, FA.zero], [FA.zero, FA.one, 1 / A]]
    h = torus_ideal_from_directions(2, [], QQ)
    assert h.size == 0
    with pytest.raises(DimensionMismatch):
        torus_ideal_from_directions(2, [[1, 0, 0]], QQ)


def test_mixed_field_rejected():
    with pytest.raises(MixedFields):
        ideal_check(so3(), Subspace(3, [[FA.one, FA.zero, FA.zero]], FA))


def test_dim_zero_algebra():
    L = LieAlgebra.abelian("point", 0, QQ)
    assert jacobi_check(L) == []
    qd = quotient_algebra(L, Subspace.zero(0, QQ))
    assert qd.quotient.dim == 0


def test_dimensions_and_indices_are_nonnegative_integers():
    # a bool or a float is no index: kept as given, it would be written back
    # as JSON true or 3.0, which algebra_from_json refuses
    bad_algebras = [
        ("x", True, QQ, {}),
        ("x", 2.0, QQ, {}),
        ("x", -1, QQ, {}),
        ("x", 3, QQ, {(True, 2): {3: 1}}),
        ("x", 3, QQ, {(1, 2.0): {3: 1}}),
        ("x", 3, QQ, {(1, 2): {3.0: 1}}),
        ("x", 3, QQ, {(1, 2): {True: 1}}),
    ]
    for args in bad_algebras:
        with pytest.raises(DimensionMismatch):
            LieAlgebra(*args)
    for ambient in (-1, True, False, 2.0):
        with pytest.raises(DimensionMismatch):
            Subspace(ambient, [], QQ)


def test_algebra_json_round_trips_random_tables():
    # every table the constructor takes, with plain or numpy integer
    # indices, is written as JSON integers and read back equal
    rng = random.Random(23)
    for _ in range(60):
        field = rng.choice([QQ, FA])
        n = rng.randint(0, 6)
        index = rng.choice([int, np.int64])

        def coeff():
            c = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
            return c * A + 1 if field is FA and rng.random() < 0.3 else c

        table = {(index(i), index(j)): {index(k): coeff()
                                        for k in rng.sample(range(1, n + 1), rng.randint(0, n))}
                 for i, j in combinations(range(1, n + 1), 2) if rng.random() < 0.4}
        L = LieAlgebra("t%d" % n, index(n), field, table)
        doc = algebra_to_json(L)
        assert algebra_from_json(doc) == L
        assert algebra_from_json(json.loads(json.dumps(doc))) == L


# ---------------------------------------------------------------------------
# JSON documents

def test_algebra_json_round_trip():
    for L in (so3(), heisenberg(), LieAlgebra.abelian("a2", 2, FA)):
        doc = algebra_to_json(L)
        # parse(serialize(parse(serialize(L)))) stays put
        again = algebra_from_json(json.loads(json.dumps(doc)))
        assert again == L
        assert algebra_from_json(algebra_to_json(again)) == again


def test_algebra_json_rational_function_field():
    doc = {
        "name": "torus2",
        "dimension": 2,
        "field": {"rational_function_in": "a"},
        "brackets": [],
    }
    L = algebra_from_json(doc)
    assert L.field == FA
    assert algebra_to_json(L) == doc


def test_algebra_json_rejects_unknown_fields():
    doc = {"name": "x", "dimension": 1, "field": "Q", "brackets": [], "extra": 0}
    with pytest.raises(ParseError):
        algebra_from_json(doc)


def test_algebra_json_rejects_bad_entries():
    base = {"name": "x", "dimension": 2, "field": "Q"}
    bad_cases = [
        {**base, "brackets": [{"i": 2, "j": 1, "terms": []}]},
        {**base, "brackets": [{"i": 1, "j": 1, "terms": []}]},
        {**base, "brackets": [{"i": 1, "j": 2, "terms": [{"k": 3, "coeff": "1"}]}]},
        {**base, "brackets": [{"i": 1, "j": 2, "terms": [{"k": 1, "coeff": "oops"}]}]},
        {**base, "brackets": [{"i": 1, "j": 2, "terms": [{"k": 1, "coeff": "1"}]},
                              {"i": 1, "j": 2, "terms": []}]},
        {**base, "brackets": [{"i": 1, "j": 2, "terms": [{"k": 1, "coeff": "1"},
                                                          {"k": 1, "coeff": "2"}]}]},
        {**base, "field": "R", "brackets": []},
        {**base, "dimension": -1, "brackets": []},
        {**base, "dimension": True, "brackets": []},
    ]
    for doc in bad_cases:
        with pytest.raises(ParseError):
            algebra_from_json(doc)


def test_algebra_json_rejects_boolean_indices():
    # JSON true and false load as Python bools, which are ints equal to 1 and 0
    base = {"name": "x", "dimension": 2, "field": "Q"}
    bad_cases = [
        {**base, "brackets": [{"i": True, "j": 2, "terms": [{"k": 2, "coeff": "1"}]}]},
        {**base, "brackets": [{"i": 0, "j": True, "terms": [{"k": 2, "coeff": "1"}]}]},
        {**base, "brackets": [{"i": 1, "j": 2, "terms": [{"k": True, "coeff": "1"}]}]},
        {**base, "brackets": [{"i": 1, "j": 2, "terms": [{"k": False, "coeff": "1"}]}]},
    ]
    for doc in bad_cases:
        with pytest.raises(ParseError, match="integer"):
            algebra_from_json(doc)


def test_subspace_json_round_trip():
    h = Subspace(2, [[FA.one, A]], FA)
    doc = subspace_to_json(h)
    assert doc == {"vectors": [["1", "a"]]}
    assert subspace_from_json(doc, 2, FA) == h


def test_subspace_json_rejects_dependent_vectors():
    with pytest.raises(ParseError):
        subspace_from_json({"vectors": [["1", "0"], ["2", "0"]]}, 2, QQ)
    with pytest.raises(ParseError):
        subspace_from_json({"vectors": [["1"]], "junk": 0}, 1, QQ)
