"""The exterior complex on the dual of a Lie algebra.

Degree-k forms are stored by their coefficients on strictly increasing
1-based index tuples, ordered lexicographically; that order fixes every
matrix layout in the package.  The coboundary is the Chevalley-Eilenberg
differential

    d w (Z_0, ..., Z_k) = sum over i < j of
        (-1)^(i+j) w([Z_i, Z_j], Z_0, ..., no Z_i, ..., no Z_j, ..., Z_k)

which on left-invariant forms of a Lie group agrees with the ordinary
exterior derivative.  In degree 0 the sum is empty, so d vanishes on
constants.

evaluate computes that sum by definition, one determinant per basis tuple,
but nothing on the cohomology path evaluates it.  It never looks inside
a scalar: field_arith._cleared clears the arguments and coefficients once,
and field_arith._minor_sum sums the minors over Z or Q[a] into one scalar
per call, so evaluate only picks each minor's rows.  shuffle_eval
evaluates alpha ^ beta as a sum over pairs of arguments without forming
the product; it prepares its arguments and both forms' coefficients once
per call, not once per term, with the same helpers evaluate uses.

d is built from the structure constants instead: on 1-forms the sum reads
d t[m] = -sum over i < j of c^m_ij t[i,j], and the graded Leibniz rule
extends it to every basis tuple, one sparse column at a time.  Both steps
live in lie_core: each LieAlgebra builds its 1-form table once, when it
is constructed, and _d_basis(L, I) expands it, so no function here
builds or passes a table.  lie_core's jacobi_check reads the Jacobi
identity off the same expansion as d^2 = 0 in degree 1: _admit refuses
exactly the algebras whose complex would not be one.  d_apply is the one
coboundary of a form.

field_arith's elimination engine works on sparse rows keyed by index
tuple, and same-length tuples sort in the lex order of index_tuples, so
the coeffs dict of a form already is an engine row and an engine row
with its keys sorted is the coeffs of a form.  cohomology builds each d_k
once as sparse columns (_d_columns), inserts them once, with no
transpose, and wraps each representative row as a form without
re-checking it; it forms no Matrix.  ce_differential lays the same
columns out as a dense Matrix for outside callers, and form_from_vector,
which checks its data, is for them too.

_check_degree is the one function that refuses a form degree: one that is
not a nonnegative integer, or one past the algebra's dimension.
"""

from itertools import combinations, islice
from math import comb

from .errors import (
    ArityMismatch,
    DegreeOutOfRange,
    DimensionCapExceeded,
    DimensionMismatch,
    InternalCheckFailed,
    InvalidParameter,
    JacobiViolation,
)
from .field_arith import (
    Matrix,
    _check_size,
    _cleared,
    _echelon,
    _echelon_insert,
    _integral,
    _minor_sum,
    _rank_and_kernel,
    _sparse_row,
    _vector,
    format_scalar,
)
from .lie_core import (
    _check_same_space,
    _d_basis,
    _merge_sign,
    jacobi_check,
)

DEFAULT_MAX_DIM = 20


def _check_degree(k, n=None):
    """Raise DegreeOutOfRange unless k is a nonnegative integer, at most n
    when n is given."""
    if not _integral(k) or k < 0:
        raise DegreeOutOfRange("form degree must be a nonnegative integer, got %r" % (k,))
    if n is not None and k > n:
        raise DegreeOutOfRange("degree %d exceeds dimension %d" % (k, n))


def index_tuples(n, k):
    """All strictly increasing k-tuples from 1..n, in lexicographic order."""
    n = _check_size(n, "dimension")
    _check_degree(k)
    return list(combinations(range(1, n + 1), k))


class ExteriorForm:
    """An alternating k-form on F^n.

    coeffs maps strictly increasing index tuples to scalars; absent tuples
    are zero.  The unique degree-0 tuple is ().
    """

    __slots__ = ("ambient", "degree", "field", "coeffs")

    def __init__(self, ambient, degree, field, coeffs=()):
        ambient = _check_size(ambient, "ambient dimension")
        _check_degree(degree)
        clean = {}
        for idx, value in dict(coeffs).items():
            idx = tuple(idx)
            if len(idx) != degree:
                raise DimensionMismatch(
                    "index tuple %r in a degree-%d form" % (idx, degree)
                )
            if any(not (1 <= a <= ambient) for a in idx):
                raise DimensionMismatch("index tuple %r out of range" % (idx,))
            if any(a >= b for a, b in zip(idx, idx[1:])):
                raise DimensionMismatch(
                    "index tuple %r is not strictly increasing" % (idx,)
                )
            value = field.coerce(value)
            if value:
                clean[idx] = value
        self.ambient = ambient
        self.degree = degree
        self.field = field
        self.coeffs = {idx: clean[idx] for idx in sorted(clean)}

    @classmethod
    def _trusted(cls, ambient, degree, field, coeffs):
        """Wrap coeffs, which the caller guarantees to be valid for the
        degree and ambient, keyed in sorted order and free of zeros, with
        values in the field."""
        self = object.__new__(cls)
        self.ambient = ambient
        self.degree = degree
        self.field = field
        self.coeffs = coeffs
        return self

    @classmethod
    def _from_sums(cls, ambient, degree, field, sums):
        """Form from an unordered dict of field scalars that may hold zeros."""
        return cls._trusted(ambient, degree, field,
                            {idx: sums[idx] for idx in sorted(sums) if sums[idx]})

    @property
    def is_zero(self):
        return not self.coeffs

    def __add__(self, other):
        if not isinstance(other, ExteriorForm):
            return NotImplemented
        _check_same_space("forms", self.ambient, self.field, other.ambient, other.field)
        if self.degree != other.degree:
            raise DimensionMismatch("cannot add forms of different degrees")
        out = dict(self.coeffs)
        for idx, value in other.coeffs.items():
            prev = out.get(idx)
            out[idx] = value if prev is None else prev + value
        return ExteriorForm._from_sums(self.ambient, self.degree, self.field, out)

    def __neg__(self):
        return ExteriorForm._trusted(
            self.ambient,
            self.degree,
            self.field,
            {idx: -v for idx, v in self.coeffs.items()},
        )

    def __sub__(self, other):
        if not isinstance(other, ExteriorForm):
            return NotImplemented
        return self + (-other)

    def __mul__(self, scalar):
        scalar = self.field.coerce(scalar)
        coeffs = {idx: v * scalar for idx, v in self.coeffs.items()} if scalar else {}
        return ExteriorForm._trusted(self.ambient, self.degree, self.field, coeffs)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, ExteriorForm):
            return NotImplemented
        return (
            self.ambient == other.ambient
            and self.degree == other.degree
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for idx, value in self.coeffs.items():
            stem = "t[%s]" % ",".join(str(a) for a in idx) if idx else ""
            text = format_scalar(value)
            if not stem:
                parts.append(text)
            elif value == 1:
                parts.append(stem)
            elif value == -1:
                parts.append("-" + stem)
            else:
                wrapped = "(%s)" % text if ("+" in text[1:] or "-" in text[1:]) else text
                parts.append("%s*%s" % (wrapped, stem))
        return " + ".join(parts)

    def __repr__(self):
        return "ExteriorForm(%d, deg=%d, %s)" % (self.ambient, self.degree, self)


def zero_form(field, n, degree):
    return ExteriorForm(n, degree, field, {})


def basis_form(field, n, idx):
    """The wedge of dual basis covectors for one increasing index tuple."""
    return ExteriorForm(n, len(idx), field, {tuple(idx): field.one})


def form_from_vector(field, n, degree, vec):
    """The form with coefficient vec[i] on the i-th tuple of index_tuples,
    checked as the constructor checks any caller's data."""
    tuples = index_tuples(n, degree)
    vec = _vector(field, vec, len(tuples), "coefficient vector")
    return ExteriorForm(n, degree, field, dict(zip(tuples, vec)))


def _prepared_args(field, ambient, args):
    """Argument vectors checked by _vector, each cleared of its denominators (_cleared)."""
    return [_cleared(field, _vector(field, v, ambient, "argument vector")) for v in args]


def _evaluate_cleared(form, coeffs, args):
    """form on prepared argument vectors (_prepared_args), given its
    coefficients as _cleared(form.field, form.coeffs.values())."""
    entries, den = coeffs
    for _, arg_den in args:
        den *= arg_den
    # coordinate rows: coords[a - 1] holds coordinate a of every argument
    coords = list(zip(*(column for column, _ in args)))
    return _minor_sum(form.field, [(c, [coords[a - 1] for a in idx])
                                   for idx, c in zip(form.coeffs, entries)], den)


def evaluate(form, args):
    """Evaluate a form on coordinate vectors.

    A basis form t[I] evaluated on (Z_1, ..., Z_k) is the determinant of
    the k x k matrix with entry (r, c) = coordinate I_r of Z_c; general
    forms follow by linearity.  The denominators are cleared once, one lcm
    per argument vector and one over the coefficients (_cleared), so each
    minor is a determinant over Z or Q[a], and _minor_sum builds a single
    scalar at the end.
    """
    if len(args) != form.degree:
        raise ArityMismatch(
            "degree-%d form applied to %d vectors" % (form.degree, len(args))
        )
    field = form.field
    return _evaluate_cleared(form, _cleared(field, form.coeffs.values()),
                             _prepared_args(field, form.ambient, args))


def wedge(a, b):
    """Exterior product; tuples sharing an index contribute nothing."""
    _check_same_space("forms", a.ambient, a.field, b.ambient, b.field)
    out = {}
    for idx_a, ca in a.coeffs.items():
        set_a = set(idx_a)
        for idx_b, cb in b.coeffs.items():
            if set_a & set(idx_b):
                continue
            merged, sign = _merge_sign(idx_a, idx_b)
            term = ca * cb
            if sign < 0:
                term = -term
            prev = out.get(merged)
            out[merged] = term if prev is None else prev + term
    return ExteriorForm._from_sums(a.ambient, a.degree + b.degree, a.field, out)


def shuffle_eval(alpha, beta, args):
    """Evaluate alpha ^ beta for a 2-form alpha without forming the product:

        (alpha ^ beta)(Z_0, ..., Z_k) = sum over i < j of
            (-1)^(i+j-1) alpha(Z_i, Z_j) beta(Z_0, ..., no Z_i, no Z_j, ...)

    The arguments are coerced, checked and cleared of their denominators
    once, and so are alpha's and beta's coefficients; each term then
    evaluates alpha or beta on a subset of the prepared arguments, as
    evaluate would on the original ones.
    """
    if alpha.degree != 2:
        raise ArityMismatch("shuffle evaluation needs a 2-form on the left")
    _check_same_space("forms", alpha.ambient, alpha.field, beta.ambient, beta.field)
    k = beta.degree + 1
    if len(args) != k + 1:
        raise ArityMismatch(
            "expected %d argument vectors, got %d" % (k + 1, len(args))
        )
    field = alpha.field
    args = _prepared_args(field, alpha.ambient, args)
    alpha_coeffs = _cleared(field, alpha.coeffs.values())
    beta_coeffs = _cleared(field, beta.coeffs.values())
    total = field.zero
    for i in range(k + 1):
        for j in range(i + 1, k + 1):
            first = _evaluate_cleared(alpha, alpha_coeffs, [args[i], args[j]])
            if not first:
                continue
            rest = [args[c] for c in range(k + 1) if c != i and c != j]
            term = first * _evaluate_cleared(beta, beta_coeffs, rest)
            if (i + j - 1) % 2:
                term = -term
            total = total + term
    return total


def _combination(n, degree, field, terms):
    """The form sum of c * coeffs over the (c, coeffs) pairs, each coeffs a
    dict {index tuple: scalar} of one degree on F^n."""
    sums = {}
    for c, coeffs in terms:
        for idx, value in coeffs.items():
            term = c * value
            prev = sums.get(idx)
            sums[idx] = term if prev is None else prev + term
    return ExteriorForm._from_sums(n, degree, field, sums)


def d_apply(L, form):
    """Coboundary of a form: the sum of coeff_I * d t[I] over its basis tuples.

    Agrees with the displayed alternating sum of the module docstring,
    which evaluate computes by definition.  The sum runs over the tuples
    the form uses, never over a C(n, k)-long vector, and each d t[I] is
    expanded from the 1-form table L carries (_d_basis).
    """
    _check_same_space("form and algebra", form.ambient, form.field, L.dim, L.field)
    _check_degree(form.degree, L.dim)
    return _combination(form.ambient, form.degree + 1, form.field,
                        ((coeff, _d_basis(L, I)) for I, coeff in form.coeffs.items()))


class CoboundaryMatrix:
    """Matrix of d in degree k, from the lex basis of degree k to degree k+1."""

    __slots__ = ("degree", "matrix")

    def __init__(self, degree, matrix):
        self.degree = degree
        self.matrix = matrix

    def __repr__(self):
        return "CoboundaryMatrix(degree=%d, %dx%d)" % (
            self.degree,
            self.matrix.rows,
            self.matrix.cols,
        )


def _d_columns(L, k):
    """d of L in degree k as sparse columns, {I: d t[I]} over the degree-k
    tuples I in lex order, each column an engine row keyed by (k+1)-tuple."""
    return {I: {J: c for J, c in _d_basis(L, I).items() if c}
            for I in index_tuples(L.dim, k)}


def ce_differential(L, k):
    """CoboundaryMatrix in degree k, shape C(n, k+1) x C(n, k): the sparse
    columns of _d_columns laid out densely."""
    _check_degree(k, L.dim)
    row_index = {J: r for r, J in enumerate(index_tuples(L.dim, k + 1))}
    columns = _d_columns(L, k)
    ncols = len(columns)
    flat = [L.field.zero] * (len(row_index) * ncols)
    for c, column in enumerate(columns.values()):
        for J, value in column.items():
            flat[row_index[J] * ncols + c] = value
    return CoboundaryMatrix(k, Matrix(L.field, len(row_index), ncols, flat))


def leibniz_check(L, one_forms):
    """Residual of the graded Leibniz rule on a wedge of 1-forms, or None.

    Compares d(t_1 ^ ... ^ t_k) with
    sum over m of (-1)^(m+1) t_1 ^ ... ^ d t_m ^ ... ^ t_k.
    """
    if not one_forms:
        raise ArityMismatch("need at least one 1-form")
    for f in one_forms:
        if f.degree != 1:
            raise ArityMismatch("leibniz check takes 1-forms only")
    product = one_forms[0]
    for f in one_forms[1:]:
        product = wedge(product, f)
    lhs = d_apply(L, product)
    rhs = zero_form(L.field, L.dim, product.degree + 1)
    for m, f in enumerate(one_forms):
        term = d_apply(L, f)
        for i, g in enumerate(one_forms):
            if i < m:
                term = wedge(g, term)
            elif i > m:
                term = wedge(term, g)
        if m % 2:
            term = -term
        rhs = rhs + term
    residual = lhs - rhs
    return None if residual.is_zero else residual


def _wedge_powers(n, field, one_forms):
    """Yield {J: beta_J} over the increasing 1-based J of degree 0, 1, ...,
    len(one_forms), in lex order, each entry one wedge on the degree below:
    beta_J = beta_(J minus its last index) ^ one_forms[last index - 1]."""
    table = {(): ExteriorForm._trusted(n, 0, field, {(): field.one})}
    yield table
    for k in range(1, len(one_forms) + 1):
        table = {J: wedge(table[J[:-1]], one_forms[J[-1] - 1])
                 for J in index_tuples(len(one_forms), k)}
        yield table


def _horizontal_powers(L, h):
    """_wedge_powers over the 1-forms alpha_f of horizontal_basis: one
    elimination of h's basis, then the horizontal basis of every degree."""
    n = L.dim
    _, _, kernel = _rank_and_kernel({a: _sparse_row([w[a] for w in h.basis]) for a in range(n)},
                                    L.field.one)
    alphas = [ExteriorForm._trusted(n, 1, L.field, {(a + 1,): v[a] for a in sorted(v)})
              for v in kernel]
    return _wedge_powers(n, L.field, alphas)


def horizontal_basis(L, h, k):
    """Basis of the degree-k forms killed by contraction with every vector of h.

    These are exactly the pullbacks of forms on the quotient by h.  The
    degree-1 contraction system is the matrix of h's basis; its reduced
    echelon kernel gives one 1-form alpha_f per free column f, equal to 1
    at f and 0 at every other free column, and nonzero elsewhere only at
    pivot columns left of f.  The basis in degree k is
    alpha_S = alpha_s1 ^ ... ^ alpha_sk for the k-subsets S of free
    columns, in lex order: table k of _wedge_powers.  This is the reduced
    echelon kernel basis of the degree-k contraction system, with no
    degree-k elimination:

    - alpha_S is horizontal, since contraction is a derivation, and every
      term of alpha_S other than t[S] swaps some s_i for a pivot column,
      so alpha_S is 1 at S and 0 at every other free tuple;
    - each such other term is lex-smaller than S, so every S is a free
      tuple of the degree-k system, and as there are C(n - dim h, k) of
      them they are all the free tuples, each with its unique kernel vector.
    """
    _check_same_space("subspace and algebra", h.ambient_dim, h.field, L.dim, L.field)
    _check_degree(k, L.dim)
    return list(next(islice(_horizontal_powers(L, h), k, None), {}).values())


class CohomologyReport:
    """Betti numbers, coboundary ranks, and representative cocycles."""

    __slots__ = ("algebra", "dim", "field", "betti", "ranks", "representatives")

    def __init__(self, algebra, dim, field, betti, ranks, representatives):
        self.algebra = algebra
        self.dim = dim
        self.field = field
        self.betti = list(betti)
        self.ranks = list(ranks)
        self.representatives = [list(reps) for reps in representatives]

    def to_json(self):
        reps = []
        for degree, forms in enumerate(self.representatives):
            for form in forms:
                reps.append(
                    {
                        "degree": degree,
                        "terms": [
                            {"indices": list(idx), "coeff": format_scalar(v)}
                            for idx, v in form.coeffs.items()
                        ],
                    }
                )
        return {
            "algebra": self.algebra,
            "dimension": self.dim,
            "betti": list(self.betti),
            "ranks": list(self.ranks),
            "representatives": reps,
        }

    def __repr__(self):
        return "CohomologyReport(%r, betti=%r)" % (self.algebra, self.betti)


def _admit(L, max_dim):
    """Refuse L before any work on its complex: InvalidParameter for a cap
    that is not a nonnegative integer, DimensionCapExceeded past the cap,
    then JacobiViolation with every violating triple."""
    if not _integral(max_dim) or max_dim < 0:
        raise InvalidParameter("dimension cap must be a nonnegative integer, got %r"
                               % (max_dim,))
    if L.dim > max_dim:
        raise DimensionCapExceeded(
            "dimension %d exceeds cap %d (the complex has 2^n basis forms)"
            % (L.dim, max_dim)
        )
    violations = jacobi_check(L)
    if violations:
        raise JacobiViolation(violations)


def cohomology(L, max_dim=DEFAULT_MAX_DIM):
    """Full cohomology of the algebra: Betti numbers, ranks, representatives.

    Representatives are kernel vectors reduced modulo the image of the
    previous differential, kept in echelon form, scaled so the first
    nonzero coefficient (lex order on index tuples) is 1.

    Each d_k is built once, as the sparse columns of _d_columns, and they
    are inserted once (_rank_and_kernel): the echelon of its pivot columns
    is the image echelon of degree k+1.  Columns, kernel vectors and
    representatives are engine rows keyed by index tuple; no matrix is formed.
    """
    _admit(L, max_dim)
    return _cohomology(L)


def _cohomology(L):
    """cohomology of L, which the caller has admitted (_admit) or built
    from an admitted algebra, like a quotient of one."""
    n = L.dim
    field = L.field
    betti, ranks, representatives = [], [], []
    # the insertion echelon of d_{k-1}'s pivot columns, a basis of the image in degree k
    image = _echelon()
    for k in range(n + 1):
        echelon, pivots, kernel = _rank_and_kernel(_d_columns(L, k), field.one)
        previous = ranks[-1] if ranks else 0
        ranks.append(len(pivots))
        betti_k = len(kernel) - previous
        betti.append(betti_k)
        if betti_k != comb(n, k) - len(pivots) - previous:
            raise InternalCheckFailed(
                "degree %d: kernel dimension and rank disagree" % k
            )

        reps = []
        for vec in kernel:
            row = _echelon_insert(image, vec)
            if row is not None:
                # engine rows hold nonzero field scalars; sorted keys are lex order
                reps.append(ExteriorForm._trusted(n, k, field, {I: row[I] for I in sorted(row)}))
        if len(reps) != betti_k:
            raise InternalCheckFailed(
                "degree %d: %d representatives for Betti number %d"
                % (k, len(reps), betti_k)
            )
        representatives.append(reps)
        image = echelon

    if sum((-1) ** k * b for k, b in enumerate(betti)) != (1 if n == 0 else 0):
        raise InternalCheckFailed("Euler characteristic of %r is not zero" % L.name)
    return CohomologyReport(L.name, n, field, betti, ranks, representatives)
