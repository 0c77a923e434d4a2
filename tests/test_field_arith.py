import builtins
import random
from fractions import Fraction
from math import comb

import pytest

import _oracle
from liecohom import ce_complex, field_arith
from liecohom.errors import (
    DimensionMismatch,
    DivisionByZero,
    InternalCheckFailed,
    MixedFields,
    ParseError,
)
from liecohom.field_arith import (
    _POLY_ONE,
    Field,
    Matrix,
    Poly,
    QQ,
    RationalFunction,
    _bareiss,
    _echelon_insert,
    _rank_and_kernel,
    _reduce_against,
    _rref,
    _sparse_row,
    format_scalar,
    parse_scalar,
    rank,
    rank_and_kernel,
    scalar_arith,
    solve_in_span,
)

FA = Field("a")
A = FA.generator()


def test_scalar_arith_rationals():
    assert scalar_arith(Fraction(1, 2), Fraction(1, 3), "add") == Fraction(5, 6)
    assert scalar_arith(Fraction(1, 2), Fraction(1, 3), "sub") == Fraction(1, 6)
    assert scalar_arith(2, 3, "mul") == 6
    assert scalar_arith(2, 4, "div") == Fraction(1, 2)


def test_scalar_arith_rational_functions():
    x = A / (A + 1)
    assert scalar_arith(x, x, "sub") == FA.zero
    assert scalar_arith(x, x, "div") == FA.one


def test_scalar_arith_division_by_zero():
    with pytest.raises(DivisionByZero):
        scalar_arith(Fraction(2, 3), Fraction(0), "div")
    with pytest.raises(DivisionByZero):
        scalar_arith(A, FA.zero, "div")


def test_scalar_arith_mixed_fields():
    with pytest.raises(MixedFields):
        scalar_arith(Fraction(2, 3), A / (A + 1), "add")
    with pytest.raises(MixedFields):
        A + Field("b").generator()


def test_canonical_forms():
    # reduced fraction of polynomials, monic denominator, zero is 0/1
    x = (A * A - 1) / (A - 1)
    assert x == A + 1
    y = (2 * A + 2) / (2 * A - 2)
    assert format_scalar(y) == "(a + 1)/(a - 1)"
    z = x - x
    assert not z
    assert format_scalar(z) == "0"
    assert (A - A).den.degree == 0


def test_parse_examples():
    assert parse_scalar("3", QQ) == 3
    assert parse_scalar("3/4", QQ) == Fraction(3, 4)
    assert parse_scalar("-3/4", QQ) == Fraction(-3, 4)
    got = parse_scalar("a^2 + 1/2*a - 3", FA)
    assert got == A**2 + Fraction(1, 2) * A - 3
    assert parse_scalar("(a+1)/(a-1)", FA) == (A + 1) / (A - 1)


def test_parse_whitespace_insensitive():
    assert parse_scalar(" ( a + 1 )\t/ ( a - 1 ) ", FA) == (A + 1) / (A - 1)
    assert parse_scalar("  3 / 4 ", QQ) == Fraction(3, 4)


def test_parse_rejects_garbage():
    for text in ("", "1+", "++", "x", "a", "1..2", "a^b", "(1", "1)2", "3%4"):
        with pytest.raises(ParseError):
            parse_scalar(text, QQ)
    with pytest.raises(ParseError):
        parse_scalar("b + 1", FA)


def test_parse_caps_the_product_of_nested_exponents():
    # nested exponents multiply: each one under the cap is not enough
    for text in ("2^1001", "(2^1000)^1000", "((a+1)^100)^100", "(2^10*(a^101+1))^10"):
        with pytest.raises(ParseError):
            parse_scalar(text, FA)
    assert parse_scalar("((a+1)^5)^6", FA) == (A + 1) ** 30
    assert parse_scalar("((a^2)^30)^15", FA) == A**900
    assert parse_scalar("(2^10*3^100)^10", QQ) == 2**100 * 3**1000
    assert parse_scalar("(a^999+1)^1 + (2^1)^1000", FA) == A**999 + 1 + 2**1000


def test_parse_caps_the_degree_of_products_sums_and_quotients():
    # each operand is under the cap, the result is not: products, quotients
    # and powers are refused before they are formed
    for text in ("a^600*a^600", "(a+1)^60*a^950", "1/a^600/(a+1)^60/a^400",
                 "a^600/(1/a^500)", "(a*a+1)^501", "-(a^999)*a*a"):
        with pytest.raises(ParseError, match="degree"):
            parse_scalar(text, FA)
    # a product is capped by its unreduced degree, even where it cancels
    with pytest.raises(ParseError, match="degree 1100"):
        parse_scalar("(a^600/(a^500+1)) * ((a^500+1)/a^600)", FA)
    # a sum is capped by its reduced degree
    for text in ("a^600 + 1/a^600", "1/a^600 + 1/(a^600+1)", "1/(a^500+1)^2 - 1/(a^1000+1)"):
        with pytest.raises(ParseError, match="degree"):
            parse_scalar(text, FA)
    assert parse_scalar("1/a^600 + 1/a^600", FA) == 2 / A**600
    assert parse_scalar("a^1000/(a+1) + 1/(a+1)", FA) == (A**1000 + 1) / (A + 1)
    assert parse_scalar("a^999/(a^600+1) - (a^999-1)/(a^600+1)", FA) == 1 / (A**600 + 1)
    assert parse_scalar("(a+1)^300", FA) == (A + 1) ** 300
    assert parse_scalar("(a^30+1)^30 - a^1000", FA) == (A**30 + 1) ** 30 - A**1000
    assert parse_scalar("a^999*a + a^600*(a^400 - 1)", FA) == 2 * A**1000 - A**600
    assert parse_scalar("a^500/(a^500+1) - 1", FA) == -1 / (A**500 + 1)
    assert parse_scalar("2^1000*2^1000*3^1000", QQ) == 2**2000 * 3**1000


def test_parse_caps_the_nesting_of_parentheses():
    # each level recurses through the parser: a deep nest is refused, not
    # left to exhaust the interpreter's stack
    with pytest.raises(ParseError, match="nested deeper than 100"):
        parse_scalar("(" * 5000 + "1" + ")" * 5000, QQ)
    with pytest.raises(ParseError, match="nested deeper than 100"):
        parse_scalar("(" * 101 + "a" + ")" * 101, FA)
    assert parse_scalar("(" * 100 + "1" + ")" * 100, QQ) == 1
    assert parse_scalar("((1)+(2))*" * 60 + "1", QQ) == 3**60


def test_parse_division_by_zero():
    with pytest.raises(DivisionByZero):
        parse_scalar("1/0", QQ)
    with pytest.raises(DivisionByZero):
        parse_scalar("1/(a-a)", FA)


def test_format_parse_round_trip_random():
    rng = random.Random(12)
    for _ in range(300):
        q = Fraction(rng.randint(-40, 40), rng.randint(1, 17))
        assert parse_scalar(format_scalar(q), QQ) == q
    for _ in range(150):
        num = sum(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) * A**e for e in range(3))
        den = A ** rng.randint(0, 2) + rng.randint(1, 5)
        x = num / den
        assert parse_scalar(format_scalar(x), FA) == x


def test_rank_and_kernel_examples():
    m = Matrix.from_rows(QQ, [[1, 0], [0, 1]])
    assert rank_and_kernel(m) == (2, [])

    m = Matrix.from_rows(FA, [[1, A]])
    r, kernel = rank_and_kernel(m)
    assert r == 1
    assert kernel == [[-A, FA.one]]

    m = Matrix.from_rows(QQ, [[0, 0, 0], [0, 0, 0], [0, 0, 0]])
    r, kernel = rank_and_kernel(m)
    assert r == 0
    assert kernel == [
        [1, 0, 0],
        [0, 1, 0],
        [0, 0, 1],
    ]


def test_kernel_free_variable_order():
    # pivot in column 0, free columns 1 and 2, each set to one in turn
    m = Matrix.from_rows(QQ, [[1, 2, 3]])
    _, kernel = rank_and_kernel(m)
    assert kernel == [[-2, 1, 0], [-3, 0, 1]]


def test_solve_in_span_examples():
    assert solve_in_span([[1, A]], [2, 2 * A]) == [FA.coerce(2)]
    assert solve_in_span([[Fraction(1), Fraction(0)]], [Fraction(0), Fraction(1)]) is None
    assert solve_in_span([], [Fraction(0), Fraction(0)]) == []
    assert solve_in_span([], [Fraction(1)]) is None


def test_rank_properties_random():
    rng = random.Random(99)
    for _ in range(120):
        rows = rng.randint(0, 5)
        cols = rng.randint(0, 5)
        m = Matrix.from_rows(
            QQ,
            [[Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(cols)]
             for _ in range(rows)],
            cols=cols,
        )
        r, kernel = rank_and_kernel(m)
        transpose = Matrix.from_rows(QQ, [m.col(j) for j in range(cols)], cols=rows)
        assert r == rank(m) == rank(transpose)
        assert r + len(kernel) == cols
        for v in kernel:
            assert not any(m.mul_vec(v))


def test_from_rows_checks_the_stated_width():
    assert Matrix.from_rows(QQ, [[1, 2]], cols=2).shape == (1, 2)
    assert Matrix.from_rows(QQ, [], cols=3).shape == (0, 3)
    assert Matrix.from_rows(QQ, [[1, 2], [3, 4]]).shape == (2, 2)
    with pytest.raises(DimensionMismatch):
        Matrix.from_rows(QQ, [[1, 2]], cols=3)
    with pytest.raises(DimensionMismatch):
        Matrix.from_rows(QQ, [[1, 2, 3], [4, 5]], cols=3)
    with pytest.raises(DimensionMismatch):
        Matrix.from_rows(QQ, [[1, 2], [3]])


def _random_vector_lists(rng, field, count):
    """Vector lists with zero vectors, repeats, dependent middle vectors and
    entries already equal to 1 at what becomes a lead."""
    def scalar():
        x = Fraction(rng.choice([0, 0, 1, 1, -1, 2, 3]), rng.randint(1, 3))
        if field is FA and rng.random() < 0.3:
            return x * A + rng.randint(-1, 1)
        return field.coerce(x)

    for _ in range(count):
        n = rng.randint(1, 6)
        vectors = []
        for _ in range(rng.randint(0, 8)):
            kind = rng.random()
            if kind < 0.15:
                vectors.append([field.zero] * n)
            elif kind < 0.3 and vectors:
                vectors.append(list(rng.choice(vectors)))
            elif kind < 0.5 and len(vectors) >= 2:
                a, b = rng.sample(vectors, 2)
                c, d = scalar(), scalar()
                vectors.append([c * x + d * y for x, y in zip(a, b)])
            else:
                vectors.append([scalar() for _ in range(n)])
        yield n, vectors


def _dense(row, n, field):
    """An engine row keyed by position as a dense vector of length n."""
    assert all(x for x in row.values()), "engine rows store no zeros"
    return [row.get(j, field.zero) for j in range(n)]


@pytest.mark.parametrize("field", [QQ, FA])
def test_echelon_insert_keeps_the_greedy_independent_set(field):
    # engine rows are dicts keyed by position, lead min(row), no zeros stored
    rng = random.Random(7 if field is QQ else 8)
    for n, vectors in _random_vector_lists(rng, field, 150 if field is QQ else 25):
        echelon, kept = [], []
        for v in vectors:
            given = _sparse_row(v)
            row = _echelon_insert(echelon, given)
            assert given == _sparse_row(v)
            independent = _oracle.gauss_rank(kept + [v]) > len(kept)
            assert (row is not None) == independent
            if row is None:
                continue
            kept.append(v)
            lead, stored = echelon[-1]
            assert stored is row
            assert row[lead] == 1 and min(row) == lead
            # row differs from v by a combination of the rows before it
            dense = _dense(row, n, field)
            assert _oracle.gauss_rank(kept[:-1] + [dense]) == len(kept)
            assert _oracle.gauss_rank(kept + [dense]) == len(kept)
        assert len(echelon) == len(kept) == _oracle.gauss_rank(vectors)
        for r, (lead, row) in enumerate(echelon):
            assert all(earlier not in row for earlier, _ in echelon[:r])
        # membership: reduction leaves zero exactly on the span
        for v in vectors + [[field.one] * n]:
            reduced = _reduce_against(echelon, _sparse_row(v))
            _dense(reduced, n, field)
            assert all(lead not in reduced for lead, _ in echelon)
            assert (not reduced) == (_oracle.gauss_rank(kept + [v]) == len(kept))


@pytest.mark.parametrize("field", [QQ, FA])
def test_rref_matches_gauss_jordan(field):
    assert _rref([]) == _oracle.gauss_jordan([]) == ([], [])
    rng = random.Random(11 if field is QQ else 12)
    seen_tall = False
    for n, vectors in _random_vector_lists(rng, field, 150 if field is QQ else 25):
        rows = [_sparse_row(v) for v in vectors]
        before = [dict(row) for row in rows]
        rref_rows, pivots = _rref(rows)
        assert ([_dense(row, n, field) for row in rref_rows], pivots) == \
            _oracle.gauss_jordan(vectors)
        assert rows == before
        seen_tall = seen_tall or len(vectors) > n
    assert seen_tall


def _random_sparse_rows(rng, field, count):
    """(ncols, engine rows keyed by position) at densities from 10% to 50%,
    with repeated and dependent rows, over Q or Q(a)."""
    def scalar():
        x = Fraction(rng.choice([1, -1, 2, 3, -5, 7]), rng.randint(1, 4))
        if field is FA and rng.random() < 0.4:
            return x * A + rng.randint(-2, 2)
        return field.coerce(x)

    for _ in range(count):
        ncols = rng.randint(1, 12)
        density = rng.choice((0.1, 0.2, 0.3, 0.5))
        rows = []
        for _ in range(rng.randint(0, 9)):
            if len(rows) >= 2 and rng.random() < 0.25:
                a, b = rng.sample(rows, 2)
                c = scalar()
                mixed = dict(a)
                for key, x in b.items():
                    mixed[key] = mixed.get(key, field.zero) + c * x
                rows.append({key: x for key, x in mixed.items() if x})
            else:
                rows.append({j: scalar() for j in range(ncols) if rng.random() < density})
        yield ncols, rows


def _fraction_free(field, rows, ncols):
    """Dense rows over Z or Q[a] with the row spaces of the given rows."""
    cleared = []
    for row in rows:
        values = _dense(row, ncols, field)
        cleared.append(ce_complex._cleared(field, values)[0])
    return cleared


@pytest.mark.parametrize("field", [QQ, FA], ids=["Q", "Q(a)"])
def test_sparse_engine_on_random_sparse_matrices(field):
    # rank against the fraction-free kernel, the reduced form against the
    # oracle's dense Gauss-Jordan, the pivots those of the reduced form,
    # every kernel row annihilated, and tuple keys in lex order giving the
    # echelon of int keys
    rng = random.Random(41 if field is QQ else 42)
    one = 1 if field is QQ else _POLY_ONE
    tuples = list(ce_complex.index_tuples(7, 3))
    ranks = set()
    for ncols, rows in _random_sparse_rows(rng, field, 200 if field is QQ else 40):
        pivots, kernel = _rank_and_kernel(rows, range(ncols), field.one)
        r = len(pivots)
        ranks.add(r)
        assert r == _bareiss(_fraction_free(field, rows, ncols), one)[0]
        assert r + len(kernel) == ncols
        rref_rows, rref_pivots = _rref(rows)
        assert pivots == rref_pivots
        dense = [_dense(row, ncols, field) for row in rows]
        assert ([_dense(row, ncols, field) for row in rref_rows], pivots) == \
            _oracle.gauss_jordan(dense)
        for v in kernel:
            _dense(v, ncols, field)
            for row in rows:
                assert not sum((x * v[key] for key, x in row.items() if key in v),
                               field.zero)

        # the order-preserving relabelling j -> tuples[j] commutes with the engine
        def relabel(row):
            return {tuples[j]: x for j, x in row.items()}

        by_tuple = [relabel(row) for row in rows]
        got_rows, got_pivots = _rref(by_tuple)
        assert got_rows == [relabel(row) for row in rref_rows]
        assert got_pivots == [tuples[p] for p in pivots]
        echelon_int, echelon_tuple = [], []
        for row, row_t in zip(rows, by_tuple):
            inserted = _echelon_insert(echelon_int, row)
            inserted_t = _echelon_insert(echelon_tuple, row_t)
            assert (inserted is None) == (inserted_t is None)
        assert echelon_tuple == [(tuples[lead], relabel(row)) for lead, row in echelon_int]
        assert _rank_and_kernel(by_tuple, tuples[:ncols], field.one)[1] == \
            [relabel(v) for v in kernel]
    assert len(ranks) >= 5


def test_rank_rational_function_matrix():
    m = Matrix.from_rows(FA, [[1, A], [A, A * A]])
    assert rank(m) == 1
    r, kernel = rank_and_kernel(m)
    assert r == 1 and len(kernel) == 1
    assert not any(m.mul_vec(kernel[0]))


def test_matrix_multiply_and_invert():
    m = Matrix.from_rows(QQ, [[1, 1], [0, 2]])
    inv = Matrix.from_rows(QQ, [[1, Fraction(-1, 2)], [0, Fraction(1, 2)]])
    assert m.mul_vec(inv.col(0)) == [1, 0]
    assert m.mul_vec(inv.col(1)) == [0, 1]
    with pytest.raises(MixedFields):
        m.mul_vec([FA.one, A])


def _random_matrices(rng, field, count, square=True):
    """Matrices of 0..5 rows and, unless square, 0..5 columns, with large
    denominators, zero pivots that force a row swap, zero rows, repeated
    rows and dependent rows."""
    def scalar():
        x = Fraction(rng.choice([0, 0, 1, -1, 2, 7]), rng.choice([1, 1, 3, 10**12 + 39]))
        if field is FA and rng.random() < 0.3:
            return (x * A + rng.randint(-1, 1)) / (A + rng.randint(1, 3))
        return field.coerce(x)

    for _ in range(count):
        n = rng.randint(0, 5)
        cols = n if square else rng.randint(0, 5)
        rows = [[scalar() for _ in range(cols)] for _ in range(n)]
        kind = rng.random()
        if n >= 2 and cols and kind < 0.2:
            rows[0][0] = field.zero
        elif n >= 2 and kind < 0.3:
            rows[rng.randrange(n)] = [field.zero] * cols
        elif n >= 2 and kind < 0.4:
            i, j = rng.sample(range(n), 2)
            rows[j] = list(rows[i])
        elif n >= 3 and kind < 0.5:
            i, j, k = rng.sample(range(n), 3)
            c = scalar()
            rows[k] = [x + c * y for x, y in zip(rows[i], rows[j])]
        yield rows


def _bareiss_cleared(field, rows):
    """rows cleared to Z or Q[a] one row at a time, as evaluate clears its
    arguments, and the kernel's (rank, det) on them, checking that the
    kernel leaves its input alone and stays in the ring; also returns the
    product of the row denominators."""
    cleared, scale = [], 1 if field is QQ else _POLY_ONE
    for row in rows:
        entries, den = ce_complex._cleared(field, row)
        cleared.append(entries)
        scale = scale * den
    before = [list(r) for r in cleared]
    r, det = field_arith._bareiss(cleared, 1 if field is QQ else _POLY_ONE)
    assert cleared == before
    assert type(r) is int
    assert type(det) is (int if field is QQ else Poly)
    return r, det, scale


def _in_field(field, x):
    return field.coerce(x) if field is QQ else RationalFunction(field.var, x)


@pytest.mark.parametrize("field", [QQ, FA])
def test_bareiss_det_matches_the_permutation_sum(field):
    # the second pivot is zero after the first step, in both rings
    swap = [[field.coerce(x) for x in r] for r in [[1, 2, 3], [2, 4, 5], [1, 0, 1]]]
    r, det, _ = _bareiss_cleared(field, swap)
    assert r == 3 and _in_field(field, det) == _oracle.permutation_det(swap) == -2
    rng = random.Random(31 if field is QQ else 32)
    sizes, singular = set(), 0
    for rows in _random_matrices(rng, field, 300 if field is QQ else 60):
        r, det, scale = _bareiss_cleared(field, rows)
        # clearing scales row i by its denominator, and det by their product
        assert _in_field(field, det) == _oracle.permutation_det(rows) * _in_field(field, scale)
        assert (r == len(rows)) == bool(det)
        sizes.add(len(rows))
        singular += not det
    assert sizes == set(range(6)) and singular >= 10


@pytest.mark.parametrize("field", [QQ, FA])
def test_bareiss_rank_matches_gauss_rank(field):
    rng = random.Random(34 if field is QQ else 35)
    shapes, deficient = set(), 0
    for rows in _random_matrices(rng, field, 300 if field is QQ else 120, square=False):
        r, det, _ = _bareiss_cleared(field, rows)
        assert r == _oracle.gauss_rank(rows)
        cols = len(rows[0]) if rows else 0
        if len(rows) != cols:
            assert not det
        shapes.add((len(rows), cols))
        deficient += r < min(len(rows), cols)
    assert len(shapes) >= 30 and deficient >= 8


def test_bareiss_det_stays_in_the_integers():
    rng = random.Random(33)
    for _ in range(200):
        n = rng.randint(0, 5)
        rows = [[rng.choice([0, 0, 1, -1, 3, 10**15 + 37]) for _ in range(n)] for _ in range(n)]
        before = [list(r) for r in rows]
        r, det = field_arith._bareiss(rows)
        assert type(det) is int
        assert det == _oracle.permutation_det(rows)
        assert r == _oracle.gauss_rank([[Fraction(x) for x in row] for row in rows])
        assert rows == before


@pytest.mark.parametrize("one", [1, _POLY_ONE], ids=["Z", "Q[a]"])
def test_bareiss_refuses_an_inexact_division(one, monkeypatch):
    rows = [[one * x for x in r] for r in [[1, 2], [3, 4]]]
    assert field_arith._bareiss(rows, one) == (2, one * -2)
    # Poly's own division goes through divmod too, so keep the builtin there
    real = builtins.divmod
    monkeypatch.setattr(field_arith, "divmod", lambda a, b: (real(a, b)[0], one),
                        raising=False)
    with pytest.raises(InternalCheckFailed, match="Bareiss divisibility violated"):
        field_arith._bareiss(rows, one)


def test_solve_in_span_dependent_basis():
    # dependent spanning set still yields a particular solution
    coeffs = solve_in_span([[Fraction(1), Fraction(0)], [Fraction(2), Fraction(0)]],
                           [Fraction(3), Fraction(0)])
    assert coeffs is not None
    got = [coeffs[0] * 1 + coeffs[1] * 2, Fraction(0)]
    assert got == [Fraction(3), Fraction(0)]


def test_rational_function_pow_and_neg():
    x = (A + 1) / A
    assert x**0 == FA.one
    assert x**3 == x * x * x
    assert x ** (-1) == A / (A + 1)
    with pytest.raises(DivisionByZero):
        FA.zero ** (-1)


def _product(*factors, scale=1):
    out = [Fraction(scale)]
    for f in factors:
        out = _oracle.poly_mul(out, f)
    return out


# factors a, a + 1, a - 1, 2a - 3, a^2 + 1, a + 2; none vanishes at _POINTS
_A, _P, _M, _T, _Q, _S = [0, 1], [1, 1], [-1, 1], [-3, 2], [1, 0, 1], [2, 1]
_POINTS = (Fraction(1, 3), Fraction(-5, 7), Fraction(7, 4))

# (numerator, denominator) before reduction: zero and other constants,
# polynomials, equal and coprime denominators, denominators sharing a
# factor, non-monic denominators and uncancelled common factors
_OPERANDS = [
    ([0], [1]),
    ([5], [1]),
    ([Fraction(-2, 3)], [1]),
    (_A, [1]),
    (_product(_P, _M), [1]),
    (_product(_T, _Q, scale=-3), [1]),
    ([1], _P),
    (_A, _P),
    (_S, _P),
    (_product(_M, scale=2), _product(_P, _P, scale=6)),
    (_product(_P, _A), _product(_A, _M)),
    ([1], _product(_A, _P)),
    ([1], _product(_A, _M)),
    (_product(_Q, scale=3), _product(_A, _M, _T, scale=2)),
    (_product(_A, _A), _Q),
    (_product(_T, _P), _product(_P, _Q, scale=-1)),
]


def _rf(pair):
    return RationalFunction("a", Poly(pair[0]), Poly(pair[1]))


def _parts(x):
    return list(x.num.coeffs), list(x.den.coeffs)


def _value(x, point):
    return _oracle.poly_eval(list(x.num.coeffs), point) / _oracle.poly_eval(
        list(x.den.coeffs), point)


def _oracle_pow(n, d, e):
    if e < 0:
        n, d, e = d, n, -e
    return _oracle.reduce_fraction(_product(*[n] * e), _product(*[d] * e))


def _check(got, expected_parts, values):
    assert _parts(got) == expected_parts
    assert [_value(got, t) for t in _POINTS] == values


def test_rational_function_ops_match_oracle():
    """+, -, *, /, unary - and ** give exactly the independent canonical form."""
    red = _oracle.reduce_fraction
    mul, add = _oracle.poly_mul, _oracle.poly_add
    pairs = [red(*p) for p in _OPERANDS]
    xs = [_rf(p) for p in _OPERANDS]
    for x, p in zip(xs, pairs):
        assert _parts(x) == p
    constants = [3, Fraction(-2, 3)]
    paths = set()
    for x, (n1, d1) in zip(xs, pairs):
        xv = [_value(x, t) for t in _POINTS]
        _check(-x, red([-c for c in n1], d1), [-v for v in xv])
        for e in (0, 1, 2, 3, -1, -2):
            if e < 0 and not x:
                continue
            _check(x ** e, _oracle_pow(n1, d1, e), [v ** e for v in xv])
        for c in constants:
            cn = [Fraction(c)]
            _check(x + c, red(add(n1, mul(cn, d1)), d1), [v + c for v in xv])
            _check(c - x, red(add(mul(cn, d1), [-t for t in n1]), d1), [c - v for v in xv])
            _check(c * x, red(mul(cn, n1), d1), [c * v for v in xv])
            _check(x / c, red(n1, mul(cn, d1)), [v / c for v in xv])
            if x:
                _check(c / x, red(mul(cn, d1), n1), [c / v for v in xv])
        for y, (n2, d2) in zip(xs, pairs):
            yv = [_value(y, t) for t in _POINTS]
            cross = mul(n1, d2), mul(n2, d1)
            total, diff = x + y, x - y
            _check(total, red(add(*cross), mul(d1, d2)), [u + v for u, v in zip(xv, yv)])
            _check(diff, red(add(cross[0], [-t for t in cross[1]]), mul(d1, d2)),
                   [u - v for u, v in zip(xv, yv)])
            _check(x * y, red(mul(n1, n2), mul(d1, d2)), [u * v for u, v in zip(xv, yv)])
            if y:
                _check(x / y, red(*cross), [u / v for u, v in zip(xv, yv)])
            shared = len(_oracle.poly_euclid(d1, d2)) > 1
            for s in (total, diff):
                paths.add((len(d1) > 1 and len(d2) > 1, shared, not s,
                           len(s.num.coeffs) == 1))
    # denominators 1, coprime and shared; sums that cancel to zero, to a
    # nonzero constant numerator and to a nonconstant one
    assert {(False, False, False, False), (True, False, False, False),
            (True, True, True, False), (True, True, False, True),
            (True, True, False, False)} <= paths


def test_fast_paths_take_no_gcd(monkeypatch):
    """Results that are reduced by construction are built without poly_gcd."""
    p, q = A**2 - 1, 2 * A + 3
    x = (A + 1) / (A - 1)
    cases = [
        lambda: -x,
        lambda: p + q,
        lambda: p - q,
        lambda: p * q,
        lambda: Fraction(3, 4) * x,
        lambda: x * 5,
        lambda: x / 7,
        lambda: x / Fraction(2, 3),
        lambda: 1 / x,
        lambda: x ** -1,
        lambda: FA.one / q,
    ]
    expected = [case() for case in cases]

    def forbidden(a, b):
        raise AssertionError("poly_gcd(%r, %r) on a reduced result" % (a, b))

    monkeypatch.setattr(field_arith, "poly_gcd", forbidden)
    assert [case() for case in cases] == expected
    big = parse_scalar("(a+1)^300", FA)
    assert big.den.coeffs == (1,)
    assert big.num.coeffs == tuple(comb(300, k) for k in range(301))
