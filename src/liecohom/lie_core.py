"""Lie algebras from structure constants: brackets, Jacobi, ideals, quotients.

An algebra lives over Q or Q(a) and is described by the brackets of basis
pairs [e_i, e_j] for i < j; everything else follows by bilinearity and
antisymmetry.  Indices are 1-based here and in every file format.

_check_same_space is the package's one check that two objects live on the
same F^n: DimensionMismatch first, then MixedFields.  field_arith._vector
checks each dense vector given here for its length and then its field.
"""

from numbers import Integral

from .errors import (
    DimensionMismatch,
    InternalCheckFailed,
    MixedFields,
    NotAnIdeal,
    ParseError,
)
from .field_arith import (
    Field,
    Matrix,
    QQ,
    _echelon,
    _echelon_insert,
    _rank_and_kernel,
    _sparse_row,
    _vector,
    format_scalar,
    parse_scalar,
)


def _check_same_space(what, ambient, field, other_ambient, other_field):
    """Raise DimensionMismatch, then MixedFields, unless two objects share
    their ambient dimension and their field; what names both objects."""
    if ambient != other_ambient:
        raise DimensionMismatch("%s: ambient dimensions %s and %s"
                                % (what, ambient, other_ambient))
    if field != other_field:
        raise MixedFields("%s: fields %r and %r" % (what, field, other_field))


def _integral(value):
    """True for an integer that is not a bool: JSON true and false load as
    Python bools, and a float such as 3.0 is no index."""
    return isinstance(value, Integral) and not isinstance(value, bool)


def _check_basis_index(i, dim):
    """DimensionMismatch unless i is an integer index in 1..dim.  type(i) is
    int is tried first: structure_constant runs this on every call."""
    if not ((type(i) is int or _integral(i)) and 1 <= i <= dim):
        raise DimensionMismatch("basis index %r out of range" % (i,))


class LieAlgebra:
    """A finite-dimensional Lie algebra given by structure constants.

    brackets maps a pair (i, j) with 1 <= i < j <= dim to {k: coeff},
    meaning [e_i, e_j] = sum_k coeff * e_k.  Pairs and coefficients that
    are absent are zero.  The table is stored sparsely with zero
    coefficients dropped and keys sorted, so equal algebras have equal
    tables.
    """

    __slots__ = ("name", "dim", "field", "brackets")

    def __init__(self, name, dim, field, brackets):
        if not _integral(dim) or dim < 0:
            raise DimensionMismatch("dimension must be a nonnegative integer")
        dim = int(dim)
        table = {}
        for (i, j), terms in brackets.items():
            if not (_integral(i) and _integral(j) and 1 <= i < j <= dim):
                raise DimensionMismatch(
                    "bracket pair (%r, %r) out of range for dim %d" % (i, j, dim)
                )
            clean = {}
            for k in sorted(terms):
                if not (_integral(k) and 1 <= k <= dim):
                    raise DimensionMismatch(
                        "bracket term index %r out of range for dim %d" % (k, dim)
                    )
                coeff = field.coerce(terms[k])
                if coeff:
                    clean[int(k)] = coeff
            if clean:
                table[(int(i), int(j))] = clean
        self.name = str(name)
        self.dim = dim
        self.field = field
        self.brackets = {key: table[key] for key in sorted(table)}

    @classmethod
    def abelian(cls, name, dim, field=QQ):
        return cls(name, dim, field, {})

    @property
    def is_abelian(self):
        return not self.brackets

    def zero_vector(self):
        return [self.field.zero] * self.dim

    def basis_vector(self, i):
        _check_basis_index(i, self.dim)
        v = self.zero_vector()
        v[i - 1] = self.field.one
        return v

    def structure_constant(self, i, j, k):
        """Coefficient of e_k in [e_i, e_j], for any basis indices i, j, k."""
        dim = self.dim
        _check_basis_index(i, dim)
        _check_basis_index(j, dim)
        _check_basis_index(k, dim)
        if i == j:
            return self.field.zero
        if i < j:
            return self.brackets.get((i, j), {}).get(k, self.field.zero)
        c = self.brackets.get((j, i), {}).get(k, self.field.zero)
        return -c

    def bracket_basis(self, i, j):
        """[e_i, e_j] as a coordinate vector."""
        _check_basis_index(i, self.dim)
        _check_basis_index(j, self.dim)
        v = self.zero_vector()
        if i == j:
            return v
        sign_flip = i > j
        if sign_flip:
            i, j = j, i
        for k, c in self.brackets.get((i, j), {}).items():
            v[k - 1] = -c if sign_flip else c
        return v

    def __eq__(self, other):
        if not isinstance(other, LieAlgebra):
            return NotImplemented
        return (
            self.name == other.name
            and self.dim == other.dim
            and self.field == other.field
            and self.brackets == other.brackets
        )

    def __repr__(self):
        return "LieAlgebra(%r, dim=%d, %r)" % (self.name, self.dim, self.field)


def bracket(L, x, y):
    """[x, y] for arbitrary coordinate vectors, by bilinearity."""
    x = _vector(L.field, x, L.dim, "bracket argument")
    y = _vector(L.field, y, L.dim, "bracket argument")
    out = L.zero_vector()
    for (i, j), terms in L.brackets.items():
        c = x[i - 1] * y[j - 1] - x[j - 1] * y[i - 1]
        if c:
            for k, s in terms.items():
                out[k - 1] = out[k - 1] + c * s
    return out


def _bracket_indices(L):
    """The indices that occur in some bracket pair, in increasing order."""
    return sorted({i for pair in L.brackets for i in pair})


def jacobi_check(L):
    """All Jacobi identity violations, as (i, j, k, residual) with exact residuals.

    The residual of i < j < k is [[e_i, e_j], e_k] + [[e_j, e_k], e_i] +
    [[e_k, e_i], e_j] as a coordinate vector, expanded over the sparse
    bracket table.  An empty list means the table defines a Lie algebra.
    Only triples made of a bracket pair and an index k that occurs in some
    bracket pair are visited, in lex order: each term of any other residual
    takes a bracket of two basis vectors that is zero.
    """
    table = {}
    for (i, j), terms in L.brackets.items():
        table[(i, j)] = terms
        table[(j, i)] = {k: -c for k, c in terms.items()}
    indices = _bracket_indices(L)
    triples = {tuple(sorted((i, j, k))) for i, j in L.brackets
               for k in indices if k != i and k != j}
    violations = []
    for i, j, k in sorted(triples):
        residual = {}
        for x, y, z in ((i, j, k), (j, k, i), (k, i, j)):
            for l, c in table.get((x, y), {}).items():
                for m, s in table.get((l, z), {}).items():
                    prev = residual.get(m)
                    residual[m] = c * s if prev is None else prev + c * s
        if any(residual.values()):
            vec = L.zero_vector()
            for m, value in residual.items():
                vec[m - 1] = value
            violations.append((i, j, k, vec))
    return violations


class Subspace:
    """A subspace of F^n given by a linearly independent list of vectors."""

    __slots__ = ("ambient_dim", "field", "basis")

    def __init__(self, ambient_dim, basis, field):
        if not _integral(ambient_dim) or ambient_dim < 0:
            raise DimensionMismatch("ambient dimension must be a nonnegative integer")
        ambient_dim = int(ambient_dim)
        basis = [_vector(field, v, ambient_dim, "subspace vector") for v in basis]
        echelon = _echelon()
        if any(_echelon_insert(echelon, _sparse_row(v)) is None for v in basis):
            raise ValueError("subspace basis is linearly dependent")
        self.ambient_dim = ambient_dim
        self.field = field
        self.basis = basis

    @classmethod
    def zero(cls, ambient_dim, field):
        return cls(ambient_dim, [], field)

    @property
    def size(self):
        return len(self.basis)

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return (
            self.ambient_dim == other.ambient_dim
            and self.field == other.field
            and self.basis == other.basis
        )

    def __repr__(self):
        return "Subspace(ambient=%d, size=%d)" % (self.ambient_dim, self.size)


class QuotientData:
    """A quotient algebra with the projection and section that define it.

    projection is (dim g - dim h) x dim g, section is its right inverse
    selecting the chosen complement of standard basis vectors.
    """

    __slots__ = ("quotient", "projection", "section")

    def __init__(self, quotient, projection, section):
        self.quotient = quotient
        self.projection = projection
        self.section = section

    def __repr__(self):
        return "QuotientData(%r)" % (self.quotient,)


def ideal_check(L, h):
    """None if [g, h] lies in h; otherwise the first witness (i, w, [e_i, w]).

    Brackets are taken in the order i = 1..n, then w along the basis of h,
    and built one at a time against an echelon of h's basis: the witness
    is the first bracket that inserts into it, that is, the first one
    outside h.  Only the i of some bracket pair are tried, since
    [e_i, w] = 0 for every other i.
    """
    _check_same_space("subspace and algebra", h.ambient_dim, h.field, L.dim, L.field)
    echelon = _echelon(_sparse_row(w) for w in h.basis)
    for i in _bracket_indices(L):
        for w in h.basis:
            result = bracket(L, L.basis_vector(i), w)
            if _echelon_insert(echelon, _sparse_row(result)) is not None:
                return (i, w, result)
    return None


def quotient_algebra(L, h):
    """Quotient of L by the ideal h, with explicit projection and section.

    The complement is the lexicographically first subset of standard basis
    vectors completing h to a basis.  Both come out of one _rank_and_kernel
    whose columns are h's basis and then e_1, ..., e_n: the pivots are h
    followed by that complement, and the kernel vector of every other e_c
    writes it on the pivots, which gives its column of the projection.
    Raises NotAnIdeal (carrying the witness) when h fails ideal_check.
    """
    witness = ideal_check(L, h)
    if witness is not None:
        raise NotAnIdeal(witness)
    n, m = L.dim, h.size
    field = L.field
    q = n - m

    one, zero = field.one, field.zero
    columns = {j: _sparse_row(v) for j, v in enumerate(h.basis)}
    columns.update((m + c, {c: one}) for c in range(n))
    _, pivots, kernel = _rank_and_kernel(columns, one)
    chosen = [p - m + 1 for p in pivots[m:]]
    # e_c is a pivot column, or minus its kernel vector off its own key
    free = dict(zip([f for f in columns if f not in pivots], kernel))
    coords = [{p: -x for p, x in free[m + c].items()} if m + c in free else {m + c: one}
              for c in range(n)]
    projection = Matrix.from_rows(field, [[coords[c].get(p, zero) for c in range(n)]
                                          for p in pivots[m:]], cols=n)
    section_rows = [[one if chosen[b] == i + 1 else zero for b in range(q)]
                    for i in range(n)]
    section = Matrix.from_rows(field, section_rows, cols=q)

    table = {}
    for a in range(1, q + 1):
        for b in range(a + 1, q + 1):
            image = projection.mul_vec(L.bracket_basis(chosen[a - 1], chosen[b - 1]))
            terms = {k + 1: c for k, c in enumerate(image) if c}
            if terms:
                table[(a, b)] = terms
    name = L.name if m == 0 else "%s/h" % L.name
    quotient = LieAlgebra(name, q, field, table)
    if jacobi_check(quotient):
        raise InternalCheckFailed("the quotient by an ideal fails the Jacobi identity")
    return QuotientData(quotient, projection, section)


def torus_ideal_from_directions(n, directions, field):
    """Span of one-parameter subgroup directions inside an abelian algebra.

    Directions may be dependent; a direction is kept when it leaves the
    span of the directions before it, so earlier vectors are kept.
    """
    directions = [_vector(field, v, n, "torus direction") for v in directions]
    echelon = _echelon()
    kept = [v for v in directions if _echelon_insert(echelon, _sparse_row(v)) is not None]
    return Subspace(n, kept, field)


# ---------------------------------------------------------------------------
# JSON documents
#
# Algebra document:
#   {"name": str, "dimension": int, "field": "Q" | {"rational_function_in": id},
#    "brackets": [{"i": int, "j": int, "terms": [{"k": int, "coeff": text}]}]}
# Subspace document:
#   {"vectors": [[text, ...], ...]}
# Unknown fields are rejected everywhere.

def field_to_json(field):
    return "Q" if field.is_rationals else {"rational_function_in": field.var}


def field_from_json(tag):
    if tag == "Q":
        return QQ
    if isinstance(tag, dict) and set(tag) == {"rational_function_in"}:
        var = tag["rational_function_in"]
        if not isinstance(var, str):
            raise ParseError("rational_function_in must be an identifier string")
        return Field(var)
    raise ParseError("field must be \"Q\" or {\"rational_function_in\": name}")


def _require_keys(doc, required, optional=(), what="document"):
    if not isinstance(doc, dict):
        raise ParseError("%s must be a JSON object" % what)
    unknown = set(doc) - set(required) - set(optional)
    if unknown:
        raise ParseError("unknown field(s) %s in %s" % (sorted(unknown), what))
    missing = set(required) - set(doc)
    if missing:
        raise ParseError("missing field(s) %s in %s" % (sorted(missing), what))


def algebra_from_json(doc):
    _require_keys(doc, ("name", "dimension", "field", "brackets"), what="algebra")
    name = doc["name"]
    if not isinstance(name, str):
        raise ParseError("algebra name must be a string")
    field = field_from_json(doc["field"])
    entries = doc["brackets"]
    if not isinstance(entries, list):
        raise ParseError("brackets must be a list")
    table = {}
    for entry in entries:
        _require_keys(entry, ("i", "j", "terms"), what="bracket entry")
        i, j = entry["i"], entry["j"]
        if not (_integral(i) and _integral(j)) or i >= j:
            raise ParseError("bracket entry needs integer indices with i < j")
        if (i, j) in table:
            raise ParseError("duplicate bracket pair (%d, %d)" % (i, j))
        terms = {}
        if not isinstance(entry["terms"], list):
            raise ParseError("terms must be a list")
        for term in entry["terms"]:
            _require_keys(term, ("k", "coeff"), what="bracket term")
            k = term["k"]
            if not _integral(k):
                raise ParseError("term index k must be an integer")
            if k in terms:
                raise ParseError("duplicate term index %d in pair (%d, %d)" % (k, i, j))
            terms[k] = parse_scalar(term["coeff"], field)
        table[(i, j)] = terms
    try:
        return LieAlgebra(name, doc["dimension"], field, table)
    except (DimensionMismatch, MixedFields) as exc:
        raise ParseError(str(exc)) from exc


def algebra_to_json(L):
    entries = []
    for (i, j), terms in L.brackets.items():
        entries.append(
            {
                "i": i,
                "j": j,
                "terms": [{"k": k, "coeff": format_scalar(c)} for k, c in terms.items()],
            }
        )
    return {
        "name": L.name,
        "dimension": L.dim,
        "field": field_to_json(L.field),
        "brackets": entries,
    }


def _vector_list(doc, key, noun, field):
    """doc[key], a JSON list of lists of scalar texts, as lists of scalars
    of field; noun names one list in the message that refuses it."""
    raw = doc[key]
    if not isinstance(raw, list):
        raise ParseError("%s must be a list of coordinate lists" % key)
    parsed = []
    for vec in raw:
        if not isinstance(vec, list):
            raise ParseError("each %s must be a list of scalar texts" % noun)
        parsed.append([parse_scalar(x, field) for x in vec])
    return parsed


def subspace_from_json(doc, ambient_dim, field):
    _require_keys(doc, ("vectors",), what="subspace")
    parsed = _vector_list(doc, "vectors", "vector", field)
    try:
        return Subspace(ambient_dim, parsed, field)
    except (DimensionMismatch, ValueError) as exc:
        raise ParseError(str(exc)) from exc


def subspace_to_json(h):
    return {"vectors": [[format_scalar(x) for x in v] for v in h.basis]}

