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

evaluate computes that sum by definition, but nothing on the cohomology
path evaluates it.  d is built from the structure constants instead: on
1-forms the sum reads d t[m] = -sum over i < j of c^m_ij t[i,j], and the
graded Leibniz rule extends it to every basis tuple, one sparse column at
a time.
"""

from itertools import combinations
from math import comb

from .errors import (
    ArityMismatch,
    DegreeOutOfRange,
    DimensionCapExceeded,
    DimensionMismatch,
    InternalCheckFailed,
    JacobiViolation,
    MixedFields,
)
from .field_arith import Matrix, _rref, det_rows, format_scalar, rank_and_kernel
from .lie_core import jacobi_check

DEFAULT_MAX_DIM = 20


def index_tuples(n, k):
    """All strictly increasing k-tuples from 1..n, in lexicographic order."""
    return list(combinations(range(1, n + 1), k))


class ExteriorForm:
    """An alternating k-form on F^n.

    coeffs maps strictly increasing index tuples to scalars; absent tuples
    are zero.  The unique degree-0 tuple is ().
    """

    __slots__ = ("ambient", "degree", "field", "coeffs")

    def __init__(self, ambient, degree, field, coeffs=()):
        if degree < 0:
            raise DegreeOutOfRange("form degree must be nonnegative")
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

    def _compatible(self, other):
        if self.field != other.field:
            raise MixedFields("forms over different fields")
        if self.ambient != other.ambient:
            raise DimensionMismatch("forms on different ambient spaces")

    def __add__(self, other):
        if not isinstance(other, ExteriorForm):
            return NotImplemented
        self._compatible(other)
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
    tuples = index_tuples(n, degree)
    if len(vec) != len(tuples):
        raise DimensionMismatch(
            "coefficient vector of length %d, expected %d" % (len(vec), len(tuples))
        )
    return ExteriorForm(n, degree, field, dict(zip(tuples, vec)))


def form_to_vector(form):
    return [
        form.coeffs.get(idx, form.field.zero)
        for idx in index_tuples(form.ambient, form.degree)
    ]


def evaluate(form, args):
    """Evaluate a form on coordinate vectors.

    A basis form t[I] evaluated on (Z_1, ..., Z_k) is the determinant of
    the k x k matrix with entry (r, c) = coordinate I_r of Z_c; general
    forms follow by linearity.
    """
    if len(args) != form.degree:
        raise ArityMismatch(
            "degree-%d form applied to %d vectors" % (form.degree, len(args))
        )
    field = form.field
    args = [[field.coerce(x) for x in v] for v in args]
    if any(len(v) != form.ambient for v in args):
        raise DimensionMismatch("argument vectors must have length %d" % form.ambient)
    total = field.zero
    for idx, coeff in form.coeffs.items():
        minor = [[v[a - 1] for v in args] for a in idx]
        total = total + coeff * det_rows(minor, field)
    return total


def _merge_sign(lhs, rhs):
    """Merge two disjoint increasing tuples; sign counts the transpositions."""
    merged = []
    inversions = 0
    i = j = 0
    while i < len(lhs) and j < len(rhs):
        if lhs[i] < rhs[j]:
            merged.append(lhs[i])
            i += 1
        else:
            merged.append(rhs[j])
            # rhs[j] jumps over the remaining entries of lhs
            inversions += len(lhs) - i
            j += 1
    merged.extend(lhs[i:])
    merged.extend(rhs[j:])
    return tuple(merged), -1 if inversions % 2 else 1


def wedge(a, b):
    """Exterior product; tuples sharing an index contribute nothing."""
    a._compatible(b)
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
    """
    if alpha.degree != 2:
        raise ArityMismatch("shuffle evaluation needs a 2-form on the left")
    alpha._compatible(beta)
    k = beta.degree + 1
    if len(args) != k + 1:
        raise ArityMismatch(
            "expected %d argument vectors, got %d" % (k + 1, len(args))
        )
    field = alpha.field
    total = field.zero
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


def _one_form_differentials(L):
    """d t[m] = -sum over i < j of c^m_ij t[i,j], as {m: {(i, j): -c^m_ij}}."""
    dt = {}
    for pair, terms in L.brackets.items():
        for m, c in terms.items():
            dt.setdefault(m, {})[pair] = -c
    return dt


def _d_basis(dt, I):
    """d t[I] as {J: coeff} by the graded Leibniz rule.

    d(t[I_0] ^ ... ^ t[I_k-1]) = sum over p of (-1)^p t[I_0] ^ ... ^ d t[I_p] ^ ...;
    each d t[I_p] is a 2-form, so it moves to the front without a sign and
    is merged into the remaining indices.  Terms repeating an index vanish.
    The result may hold zero coefficients where terms cancelled.
    """
    out = {}
    for p, m in enumerate(I):
        terms = dt.get(m)
        if not terms:
            continue
        rest = I[:p] + I[p + 1 :]
        for (i, j), c in terms.items():
            if i in rest or j in rest:
                continue
            J, sign = _merge_sign((i, j), rest)
            if (sign < 0) != (p % 2 == 1):
                c = -c
            prev = out.get(J)
            out[J] = c if prev is None else prev + c
    return out


def d_apply(L, form):
    """Coboundary of a form: the sum of coeff_I * d t[I] over its basis tuples.

    Agrees with the displayed alternating sum of the module docstring,
    which evaluate computes by definition.
    """
    n = L.dim
    if form.ambient != n:
        raise DimensionMismatch("form lives on ambient %d, algebra has dim %d" % (form.ambient, n))
    if form.field != L.field:
        raise MixedFields("form and algebra over different fields")
    k = form.degree
    if k > n:
        raise DegreeOutOfRange("degree %d exceeds dimension %d" % (k, n))
    dt = _one_form_differentials(L)
    coeffs = {}
    for I, coeff in form.coeffs.items():
        for J, value in _d_basis(dt, I).items():
            term = coeff * value
            prev = coeffs.get(J)
            coeffs[J] = term if prev is None else prev + term
    return ExteriorForm._from_sums(n, k + 1, L.field, coeffs)


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


def ce_differential(L, k):
    """CoboundaryMatrix in degree k, shape C(n, k+1) x C(n, k)."""
    n = L.dim
    if k < 0 or k > n:
        raise DegreeOutOfRange("degree %d out of range for dimension %d" % (k, n))
    row_index = {J: r for r, J in enumerate(index_tuples(n, k + 1))}
    cols = index_tuples(n, k)
    ncols = len(cols)
    flat = [L.field.zero] * (len(row_index) * ncols)
    dt = _one_form_differentials(L)
    for c, I in enumerate(cols):
        for J, value in _d_basis(dt, I).items():
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


def horizontal_basis(L, h, k):
    """Basis of the degree-k forms killed by contraction with every vector of h.

    These are exactly the pullbacks of forms on the quotient by h; the
    basis comes out of the kernel of the contraction system in reduced
    echelon order.
    """
    n = L.dim
    if h.ambient_dim != n:
        raise DimensionMismatch("subspace ambient %d, algebra dim %d" % (h.ambient_dim, n))
    if h.field != L.field:
        raise MixedFields("subspace and algebra over different fields")
    if k < 0 or k > n:
        raise DegreeOutOfRange("degree %d out of range for dimension %d" % (k, n))
    if k == 0:
        return [ExteriorForm(n, 0, L.field, {(): L.field.one})]
    cols = index_tuples(n, k)
    col_index = {I: c for c, I in enumerate(cols)}
    zero = L.field.zero
    rows = []
    for w in h.basis:
        support = [(a, x) for a, x in enumerate(w, start=1) if x]
        for T in index_tuples(n, k - 1):
            # the coefficient of t[T] in the contraction of t[I] with w is
            # (-1)^p w_a when I = T + {a} with a in position p of I
            row = [zero] * len(cols)
            for a, x in support:
                if a in T:
                    continue
                p = sum(1 for b in T if b < a)
                I = T[:p] + (a,) + T[p:]
                row[col_index[I]] = -x if p % 2 else x
            rows.append(row)
    matrix = Matrix(L.field, len(rows), len(cols), [x for row in rows for x in row])
    _, kernel = rank_and_kernel(matrix)
    return [ExteriorForm._trusted(n, k, L.field, {I: x for I, x in zip(cols, v) if x})
            for v in kernel]


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


def _reduce_against(echelon, vec):
    """Reduce vec by echelon rows (each with leading coefficient 1)."""
    vec = list(vec)
    for pivot, row in echelon:
        c = vec[pivot]
        if c:
            vec = [a - c * b for a, b in zip(vec, row)]
    return vec


def _leading_index(vec):
    for i, x in enumerate(vec):
        if x:
            return i
    return None


def cohomology(L, max_dim=DEFAULT_MAX_DIM):
    """Full cohomology of the algebra: Betti numbers, ranks, representatives.

    Representatives are kernel vectors reduced modulo the image of the
    previous differential, kept in echelon form, scaled so the first
    nonzero coefficient (lex order on index tuples) is 1.
    """
    n = L.dim
    if n > max_dim:
        raise DimensionCapExceeded(
            "dimension %d exceeds cap %d (the complex has 2^n basis forms)"
            % (n, max_dim)
        )
    violations = jacobi_check(L)
    if violations:
        raise JacobiViolation(violations)
    field = L.field
    diffs = [ce_differential(L, k) for k in range(n + 1)]
    ranks = []
    kernels = []
    for cb in diffs:
        r, ker = rank_and_kernel(cb.matrix)
        ranks.append(r)
        kernels.append(ker)

    betti = []
    representatives = []
    for k in range(n + 1):
        prev_rank = ranks[k - 1] if k > 0 else 0
        betti_k = len(kernels[k]) - prev_rank
        betti.append(betti_k)
        if betti_k != comb(n, k) - ranks[k] - prev_rank:
            raise InternalCheckFailed(
                "degree %d: kernel dimension and rank disagree" % k
            )

        echelon = []
        if k > 0:
            image_rows, _ = _rref(
                [diffs[k - 1].matrix.col(j) for j in range(diffs[k - 1].matrix.cols)],
                comb(n, k),
            )
            for row in image_rows:
                lead = _leading_index(row)
                if lead is not None:
                    echelon.append((lead, row))
        reps = []
        for vec in kernels[k]:
            reduced = _reduce_against(echelon, vec)
            lead = _leading_index(reduced)
            if lead is None:
                continue
            inv = reduced[lead]
            if inv != 1:
                reduced = [x / inv for x in reduced]
            echelon.append((lead, reduced))
            reps.append(form_from_vector(field, n, k, reduced))
        if len(reps) != betti_k:
            raise InternalCheckFailed(
                "degree %d: %d representatives for Betti number %d"
                % (k, len(reps), betti_k)
            )
        representatives.append(reps)

    if sum((-1) ** k * b for k, b in enumerate(betti)) != (1 if n == 0 else 0):
        raise InternalCheckFailed("Euler characteristic of %r is not zero" % L.name)
    return CohomologyReport(L.name, n, field, betti, ranks, representatives)
