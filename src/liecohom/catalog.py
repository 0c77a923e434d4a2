"""Built-in example algebras with their expected Betti numbers.

Every entry is constructed by parsing its own JSON document, so the shipped
data exercises the same loaders as user files.  Entries carrying an ideal
describe a dense-subgroup quotient and their expected Betti numbers are
those of g/h; entries without an ideal are plain algebras.

abelian_n is a family: any key abelian_<dim> resolves, and the bare name
abelian_n shows the dim = 3 representative.
"""

import copy
import re
from math import comb

from .ce_complex import DEFAULT_MAX_DIM
from .errors import ParseError
from .field_arith import _int_of_digits, format_scalar
from .quotient_pipeline import DenseQuotientInput, document_from_json

_ABELIAN_RE = re.compile(r"abelian_(\d+)\Z", re.ASCII)


class CatalogEntry:
    """One shipped example: documents, parsed objects, expected Betti numbers."""

    __slots__ = ("key", "algebra", "ideal", "expected_betti", "note", "document")

    def __init__(self, key, algebra, ideal, expected_betti, note, document):
        self.key = key
        self.algebra = algebra
        self.ideal = ideal
        self.expected_betti = list(expected_betti)
        self.note = note
        self.document = document
        span = self.algebra.dim - (self.ideal.size if self.ideal else 0)
        if len(self.expected_betti) != span + 1:
            raise ValueError("expected_betti length does not match the quotient dimension")

    def __repr__(self):
        return "CatalogEntry(%r, expected_betti=%r)" % (self.key, self.expected_betti)


def _abelian_doc(n):
    return {
        "name": "abelian_%d" % n,
        "dimension": n,
        "field": "Q",
        "brackets": [],
    }


_SO3_DOC = {
    "name": "so3",
    "dimension": 3,
    "field": "Q",
    "brackets": [
        {"i": 1, "j": 2, "terms": [{"k": 3, "coeff": "1"}]},
        {"i": 1, "j": 3, "terms": [{"k": 2, "coeff": "-1"}]},
        {"i": 2, "j": 3, "terms": [{"k": 1, "coeff": "1"}]},
    ],
}

_SL2_DOC = {
    "name": "sl2",
    "dimension": 3,
    "field": "Q",
    "brackets": [
        {"i": 1, "j": 2, "terms": [{"k": 2, "coeff": "2"}]},
        {"i": 1, "j": 3, "terms": [{"k": 3, "coeff": "-2"}]},
        {"i": 2, "j": 3, "terms": [{"k": 1, "coeff": "1"}]},
    ],
}

_HEISENBERG_DOC = {
    "name": "heisenberg3",
    "dimension": 3,
    "field": "Q",
    "brackets": [{"i": 1, "j": 2, "terms": [{"k": 3, "coeff": "1"}]}],
}


def _torus_doc(name, note):
    return {
        "algebra": {
            "name": name,
            "dimension": 2,
            "field": {"rational_function_in": "a"},
            "brackets": [],
        },
        "ideal": {"torus_directions": [["1", "a"]]},
        "note": note,
    }


_QUASITORUS_DOC = {
    "algebra": {
        "name": "quasitorus_R_mod_Lambda",
        "dimension": 1,
        "field": "Q",
        "brackets": [],
    },
    "ideal": {"vectors": []},
    "note": (
        "R modulo a dense finitely generated subgroup Lambda; the subgroup is "
        "totally disconnected, so h = 0 and the answer is the full exterior "
        "algebra on one generator"
    ),
}


# key -> (description, document, expected Betti numbers, note), in listing
# order; abelian_n is the one family, its document and numbers built per
# dimension, and a pipeline document carries its own note (None here)
_ENTRIES = {
    "abelian_n": (
        "abelian algebra of dimension n (any key abelian_<dim> works)",
        None,
        None,
        "abelian algebra; the cohomology is the full exterior algebra",
    ),
    "so3": (
        "rotations in three dimensions; models SO3(R) divided by a dense subgroup",
        _SO3_DOC,
        [1, 0, 0, 1],
        "compact simple rank-one algebra; dividing SO3(R) by a dense "
        "subgroup with h = 0 leaves these Betti numbers",
    ),
    "sl2": (
        "traceless 2x2 matrices with the standard h, e, f basis",
        _SL2_DOC,
        [1, 0, 0, 1],
        "split simple rank-one algebra; same Betti numbers as so3 even "
        "though the algebras are not isomorphic over Q",
    ),
    "heisenberg3": (
        "three-dimensional Heisenberg algebra, [e1, e2] = e3",
        _HEISENBERG_DOC,
        [1, 2, 2, 1],
        "the smallest nilpotent non-abelian example",
    ),
    "torus2_alpha": (
        "two-torus divided by the dense winding line of irrational slope a",
        _torus_doc(
            "torus2_alpha",
            "two-torus divided by the image of the line of slope a (a "
            "irrational); the quotient algebra is one-dimensional",
        ),
        [1, 1],
        None,
    ),
    "torus2_two_components": (
        "same winding-line quotient, reached from a two-component subgroup",
        _torus_doc(
            "torus2_two_components",
            "same dense winding line inside a subgroup with two connected "
            "components; only the identity component matters, so the result "
            "matches torus2_alpha",
        ),
        [1, 1],
        None,
    ),
    "quasitorus_R_mod_Lambda": (
        "the real line divided by a dense finitely generated subgroup",
        _QUASITORUS_DOC,
        [1, 1],
        None,
    ),
}

CATALOG_KEYS = tuple(_ENTRIES)


def catalog_keys():
    return list(CATALOG_KEYS)


def describe(key):
    return _ENTRIES[key][0] if key in _ENTRIES else ""


def catalog_entry(key):
    """Resolve a catalog key to a CatalogEntry; unknown keys raise ParseError."""
    m = _ABELIAN_RE.match("abelian_3" if key == "abelian_n" else key)
    if m:
        n = _int_of_digits(m.group(1))
        if n > DEFAULT_MAX_DIM:
            raise ParseError("abelian dimension %s exceeds cap %d"
                             % (format_scalar(n), DEFAULT_MAX_DIM))
        doc = _abelian_doc(n)
        return CatalogEntry("abelian_%d" % n, document_from_json(doc), None,
                            [comb(n, k) for k in range(n + 1)], _ENTRIES["abelian_n"][3], doc)
    if key not in _ENTRIES:
        raise ParseError("unknown catalog key %r" % (key,))
    _, shipped, betti, note = _ENTRIES[key]
    # each entry parses and keeps its own copy, so a caller's edit reaches
    # neither the shipped document nor any later entry
    doc = copy.deepcopy(shipped)
    parsed = document_from_json(doc)
    if isinstance(parsed, DenseQuotientInput):
        return CatalogEntry(key, parsed.algebra, parsed.ideal, betti, parsed.note, doc)
    return CatalogEntry(key, parsed, None, betti, note, doc)


def selftest_entries():
    """The concrete entries the self test and property suites sweep over."""
    keys = ["abelian_1", "abelian_2", "abelian_3", "abelian_4", "abelian_5",
            "abelian_6", "so3", "sl2", "heisenberg3", "torus2_alpha",
            "torus2_two_components", "quasitorus_R_mod_Lambda"]
    return [catalog_entry(k) for k in keys]
