"""Cohomology of G/H for a dense subgroup H, computed on the quotient algebra.

For connected G and dense H with Lie algebra h, the de Rham cohomology of
the quotient diffeological space is the cohomology of g/h.  Density itself
is not decidable from (g, h); it enters as a declared hypothesis carried in
the input's provenance note.

The chain-level justification is checkable and checked: pulling forms back
along the projection g -> g/h identifies the complex of g/h with the
subcomplex of h-horizontal forms on g, compatibly with the differentials.
One wedge-power builder makes both sides: wedges of the horizontal
1-forms, and wedges of the pulled-back coordinate 1-forms.  The span
tests hand both sides to the elimination engine as they are, since the
coefficient dict of a form is an engine row keyed by index tuple; no form
becomes a C(n, k)-long vector here.
"""

from math import comb

from .ce_complex import (
    DEFAULT_MAX_DIM,
    ExteriorForm,
    _d_basis,
    _d_form,
    _horizontal_powers,
    _one_form_differentials,
    _wedge_powers,
    basis_form,
    cohomology,
    wedge,
)
from .errors import (
    DimensionCapExceeded,
    DimensionMismatch,
    InternalCheckFailed,
    JacobiViolation,
    MixedFields,
    ParseError,
)
from .field_arith import _echelon_insert, _reduce_against, parse_scalar
from .lie_core import (
    _require_keys,
    algebra_from_json,
    algebra_to_json,
    jacobi_check,
    quotient_algebra,
    subspace_from_json,
    subspace_to_json,
    torus_ideal_from_directions,
)


class DenseQuotientInput:
    """An algebra g, a candidate ideal h, and a note recording the model."""

    __slots__ = ("algebra", "ideal", "note")

    def __init__(self, algebra, ideal, note=""):
        if ideal.ambient_dim != algebra.dim:
            raise DimensionMismatch(
                "ideal ambient %d, algebra dim %d" % (ideal.ambient_dim, algebra.dim)
            )
        if ideal.field != algebra.field:
            raise MixedFields("ideal and algebra over different fields")
        self.algebra = algebra
        self.ideal = ideal
        self.note = str(note)

    def __repr__(self):
        return "DenseQuotientInput(%r, h dim %d)" % (self.algebra, self.ideal.size)


class DenseQuotientReport:
    """Result of the pipeline: quotient data plus the cohomology report."""

    __slots__ = ("algebra", "quotient_dim", "abelian_quotient", "report",
                 "chain_iso_verified", "note")

    def __init__(self, algebra, quotient_dim, abelian_quotient, report,
                 chain_iso_verified, note):
        self.algebra = algebra
        self.quotient_dim = quotient_dim
        self.abelian_quotient = abelian_quotient
        self.report = report
        self.chain_iso_verified = chain_iso_verified
        self.note = note

    def to_json(self):
        return {
            "algebra": self.algebra,
            "quotient_dim": self.quotient_dim,
            "abelian_quotient": self.abelian_quotient,
            "chain_iso_verified": self.chain_iso_verified,
            "note": self.note,
            "report": self.report.to_json(),
        }

    def __repr__(self):
        return "DenseQuotientReport(%r, betti=%r)" % (self.algebra, self.report.betti)


def _pulled_one_forms(projection):
    """The 1-forms pi* t[j] = sum over a of pi[j][a] t[a], for j = 1..q."""
    n, field = projection.cols, projection.field
    return [
        ExteriorForm._trusted(n, 1, field, {(a,): x for a, x in
                                            enumerate(projection.row(j), start=1) if x})
        for j in range(projection.rows)
    ]


def _combination(n, degree, field, terms):
    """The form sum of c * f over the (c, f) pairs, all of one degree on F^n."""
    sums = {}
    for c, f in terms:
        for idx, value in f.coeffs.items():
            term = c * value
            prev = sums.get(idx)
            sums[idx] = term if prev is None else prev + term
    return ExteriorForm._from_sums(n, degree, field, sums)


def pullback_form(projection, sigma):
    """Pull a form on the quotient back along the projection.

    Pullback is multiplicative, so a basis form t[J] pulls back to the
    wedge over j in J of the 1-forms pi* t[j] = sum over a of pi[j][a] t[a].
    """
    q, n = projection.rows, projection.cols
    if sigma.ambient != q:
        raise DimensionMismatch(
            "form on ambient %d, projection maps from %d to %d" % (sigma.ambient, n, q)
        )
    if sigma.field != projection.field:
        raise MixedFields("form and projection over different fields")
    field = sigma.field
    pulled = _pulled_one_forms(projection)
    unit = ExteriorForm._trusted(n, 0, field, {(): field.one})
    terms = []
    for J, coeff in sigma.coeffs.items():
        term = unit
        for j in J:
            term = wedge(term, pulled[j - 1])
        terms.append((coeff, term))
    return _combination(n, sigma.degree, field, terms)


def chain_iso_check(L, h):
    """Verify degree by degree that pullback identifies the quotient complex
    with the horizontal subcomplex.

    Checks, for every degree: the horizontal space has dimension
    C(n - dim h, k); the pulled-back quotient basis is independent and lies
    inside the horizontal space; and d of a pullback equals the pullback of
    d.  Returns None on success, else (degree, form, reason) for the first
    failure.

    One builder, _wedge_powers, makes both sides, h's basis is eliminated
    once per check, and the 1-form differential tables of g and g/h are
    each built once.  One echelon of the pulled-back basis answers both
    span questions: the basis is independent when every form inserts into
    it, and then, with the horizontal space of that same dimension, the
    two spaces agree exactly when every horizontal form reduces to zero
    against it.  The forms' coefficient dicts are the engine's rows.
    """
    return _chain_iso_check(L, h, quotient_algebra(L, h))


def _chain_iso_check(L, h, qd):
    """chain_iso_check on the QuotientData qd of L by h, already built."""
    n, q = L.dim, qd.quotient.dim
    field = L.field
    horizontal = _horizontal_powers(L, h)
    pullbacks = _wedge_powers(n, field, _pulled_one_forms(qd.projection))
    dt_L = _one_form_differentials(L)
    dt = _one_form_differentials(qd.quotient)
    table = next(pullbacks)
    for k in range(n + 1):
        hor = next(horizontal, {})
        expected = comb(q, k)
        if len(hor) != expected:
            return (k, None, "horizontal dimension %d, expected %d" % (len(hor), expected))
        if k > q:
            continue
        upper = next(pullbacks, {})
        echelon = []
        for pb in table.values():
            if _echelon_insert(echelon, pb.coeffs) is None:
                return (k, None, "pulled-back basis is linearly dependent")
        for f in hor.values():
            if _reduce_against(echelon, f.coeffs):
                return (k, basis_form(field, q, next(iter(table))),
                        "pullback leaves the horizontal subspace")
        for I, pb in table.items():
            rhs = _combination(n, k + 1, field,
                               [(c, upper[J]) for J, c in _d_basis(dt, I).items()])
            if _d_form(dt_L, pb) != rhs:
                return (k, basis_form(field, q, I), "d does not commute with pullback")
        table = upper
    return None


def dense_quotient_cohomology(inp, check_chain_iso=True, max_dim=DEFAULT_MAX_DIM):
    """Run the whole pipeline on (g, h): validate, quotient, cohomology.

    The report's Betti numbers are those of g/h.  For an abelian quotient
    they are cross-checked against binomial coefficients.  When
    check_chain_iso is set (the default) the chain-level identification is
    verified and recorded in the report.
    """
    L = inp.algebra
    if L.dim > max_dim:
        raise DimensionCapExceeded(
            "dimension %d exceeds cap %d (the complex has 2^n basis forms)"
            % (L.dim, max_dim)
        )
    violations = jacobi_check(L)
    if violations:
        raise JacobiViolation(violations)
    qd = quotient_algebra(L, inp.ideal)  # raises NotAnIdeal with a witness
    report = cohomology(qd.quotient, max_dim=max_dim)
    abelian = qd.quotient.is_abelian
    if abelian:
        q = qd.quotient.dim
        expected = [comb(q, k) for k in range(q + 1)]
        if report.betti != expected:
            raise InternalCheckFailed(
                "abelian quotient Betti %r, expected %r"
                % (report.betti, expected)
            )
    chain_ok = False
    if check_chain_iso:
        failure = _chain_iso_check(L, inp.ideal, qd)
        if failure is not None:
            raise InternalCheckFailed("chain isomorphism check failed: %r" % (failure,))
        chain_ok = True
    return DenseQuotientReport(
        algebra=L.name,
        quotient_dim=qd.quotient.dim,
        abelian_quotient=abelian,
        report=report,
        chain_iso_verified=chain_ok,
        note=inp.note,
    )


# ---------------------------------------------------------------------------
# pipeline input document:
# {"algebra": <algebra doc>,
#  "ideal": <subspace doc> | {"torus_directions": [[text, ...], ...]},
#  "note": str}

def pipeline_input_from_json(doc):
    _require_keys(doc, ("algebra", "ideal"), optional=("note",), what="pipeline input")
    algebra = algebra_from_json(doc["algebra"])
    ideal_doc = doc["ideal"]
    if not isinstance(ideal_doc, dict):
        raise ParseError("ideal must be a JSON object")
    if set(ideal_doc) == {"torus_directions"}:
        raw = ideal_doc["torus_directions"]
        if not isinstance(raw, list):
            raise ParseError("torus_directions must be a list of coordinate lists")
        directions = []
        for vec in raw:
            if not isinstance(vec, list):
                raise ParseError("each direction must be a list of scalar texts")
            directions.append([parse_scalar(x, algebra.field) for x in vec])
        try:
            ideal = torus_ideal_from_directions(algebra.dim, directions, algebra.field)
        except DimensionMismatch as exc:
            raise ParseError(str(exc)) from exc
    else:
        ideal = subspace_from_json(ideal_doc, algebra.dim, algebra.field)
    note = doc.get("note", "")
    if not isinstance(note, str):
        raise ParseError("note must be a string")
    return DenseQuotientInput(algebra, ideal, note)


def pipeline_input_to_json(inp):
    return {
        "algebra": algebra_to_json(inp.algebra),
        "ideal": subspace_to_json(inp.ideal),
        "note": inp.note,
    }
