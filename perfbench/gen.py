"""Seeded input generators for the benchmark workloads.

Every generator returns the JSON document the liecohom CLI reads: an
algebra document for ``cohomology`` or a pipeline document for
``quotient``.  The structure constants are built here from their
definitions, independently of the package, and written as exact scalar
texts.  Nothing in this module imports liecohom.

A request is a dict with keys ``name`` (unique within a workload),
``cls`` (the isomorphism class, shared by a graded input and its rebased
copies), ``kind`` (``cohomology``, ``quotient`` or ``selftest``), ``doc``
(the input document, or None for selftest), ``argv`` (CLI arguments after
the document path), ``expect`` (what the oracles check) and ``seed``.
"""

import random
from fractions import Fraction
from math import comb, factorial

WORKLOADS = ("q_graded", "q_rebased", "dense_quotient", "selftest")


# ---------------------------------------------------------------------------
# structure constants over Q: {(i, j): {k: Fraction}} with 1 <= i < j

def _add(table, i, j, k, c):
    """Add c * e_k to [e_i, e_j], keeping only i < j (antisymmetry)."""
    if i == j or not c:
        return
    if i > j:
        i, j, c = j, i, -c
    terms = table.setdefault((i, j), {})
    terms[k] = terms.get(k, 0) + c
    if not terms[k]:
        del terms[k]
        if not terms:
            del table[(i, j)]


def abelian(n):
    return n, {}


def filiform(n):
    """Standard graded filiform L_n: [e_1, e_i] = e_{i+1} for 2 <= i < n."""
    table = {}
    for i in range(2, n):
        _add(table, 1, i, i + 1, Fraction(1))
    return n, table


def heisenberg(m):
    """h_{2m+1}: [x_i, y_i] = z with x_i = e_i, y_i = e_{m+i}, z = e_{2m+1}."""
    table = {}
    for i in range(1, m + 1):
        _add(table, i, m + i, 2 * m + 1, Fraction(1))
    return 2 * m + 1, table


def strictly_upper(N):
    """n_N: strictly upper-triangular N x N matrices on the matrix units.

    [E_ij, E_kl] = delta_jk E_il - delta_li E_kj, basis E_ij (i < j) in
    lexicographic order.
    """
    units = [(i, j) for i in range(1, N + 1) for j in range(i + 1, N + 1)]
    index = {u: a + 1 for a, u in enumerate(units)}
    table = {}
    for a, (i, j) in enumerate(units, start=1):
        for b, (k, l) in enumerate(units, start=1):
            if a >= b:
                continue
            if j == k:
                _add(table, a, b, index[(i, l)], Fraction(1))
            if l == i:
                _add(table, a, b, index[(k, j)], Fraction(-1))
    return len(units), table


def so3():
    table = {}
    _add(table, 1, 2, 3, Fraction(1))
    _add(table, 2, 3, 1, Fraction(1))
    _add(table, 3, 1, 2, Fraction(1))
    return 3, table


def direct_sum(first, second):
    n1, t1 = first
    n2, t2 = second
    table = {pair: dict(terms) for pair, terms in t1.items()}
    for (i, j), terms in t2.items():
        table[(i + n1, j + n1)] = {k + n1: c for k, c in terms.items()}
    return n1 + n2, table


def _bracket_vec(n, table, x, y):
    """[x, y] for coordinate vectors, by bilinearity over Fractions."""
    out = [Fraction(0)] * n
    for (i, j), terms in table.items():
        c = x[i - 1] * y[j - 1] - x[j - 1] * y[i - 1]
        if c:
            for k, s in terms.items():
                out[k - 1] += c * s
    return out


def inverse(P):
    """Exact inverse by Gauss-Jordan, or None when P is singular."""
    n = len(P)
    aug = [[Fraction(x) for x in row] + [Fraction(int(r == c)) for c in range(n)]
           for r, row in enumerate(P)]
    for c in range(n):
        p = next((r for r in range(c, n) if aug[r][c]), None)
        if p is None:
            return None
        aug[c], aug[p] = aug[p], aug[c]
        inv = 1 / aug[c][c]
        aug[c] = [x * inv for x in aug[c]]
        for r in range(n):
            if r != c and aug[r][c]:
                f = aug[r][c]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[c])]
    return [row[n:] for row in aug]


def random_basis_change(rng, n):
    """A random invertible P with entries in {-2..2} and its checked inverse."""
    while True:
        P = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        Pinv = inverse(P)
        if Pinv is not None:
            break
    for r in range(n):
        for c in range(n):
            entry = sum(P[r][m] * Pinv[m][c] for m in range(n))
            if entry != (1 if r == c else 0):
                raise RuntimeError("basis change inverse check failed")
    return P, Pinv


def rebase(algebra, P, Pinv):
    """Structure constants in the basis f_i = sum_a P[a][i] e_a."""
    n, table = algebra
    cols = [[Fraction(P[a][i]) for a in range(n)] for i in range(n)]
    out = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            v = _bracket_vec(n, table, cols[i - 1], cols[j - 1])
            for k in range(n):
                c = sum(Pinv[k][m] * v[m] for m in range(n))
                _add(out, i, j, k + 1, c)
    return n, out


def algebra_doc(name, algebra, field="Q"):
    n, table = algebra
    return {
        "name": name,
        "dimension": n,
        "field": field,
        "brackets": [
            {"i": i, "j": j,
             "terms": [{"k": k, "coeff": str(c)} for k, c in sorted(terms.items())]}
            for (i, j), terms in sorted(table.items())
        ],
    }


def solv_doc(n):
    """solv_n over Q(a): [e_1, e_i] = (a+i) e_i for 2 <= i <= n."""
    return {
        "name": "solv_%d" % n,
        "dimension": n,
        "field": {"rational_function_in": "a"},
        "brackets": [
            {"i": 1, "j": i, "terms": [{"k": i, "coeff": "a+%d" % i}]}
            for i in range(2, n + 1)
        ],
    }


def unit_vectors(n, indices):
    return [["1" if r == i else "0" for r in range(1, n + 1)] for i in indices]


def _slope(rng):
    """A nonconstant slope p*a + q with small integer p != 0 and q."""
    p = rng.choice((-3, -2, -1, 1, 2, 3))
    q = rng.randint(-3, 3)
    text = "%d*a" % p
    return text if q == 0 else "%s%+d" % (text, q)


def torus_winding_plane(rng, n=5):
    """T^n divided by a winding plane: two directions with slopes in a."""
    first = ["1", _slope(rng), _slope(rng)] + ["0"] * (n - 3)
    second = ["0"] * (n - 3) + ["1", _slope(rng), _slope(rng)]
    return {
        "algebra": {"name": "torus_%d" % n, "dimension": n,
                    "field": {"rational_function_in": "a"}, "brackets": []},
        "ideal": {"torus_directions": [first, second]},
        "note": "winding plane with slopes in a",
    }


def binomials(n):
    return [comb(n, k) for k in range(n + 1)]


def santharoubane(m):
    """Betti numbers of h_{2m+1}: C(2m, k) - C(2m, k-2) for k <= m, then duality."""
    low = [comb(2 * m, k) - (comb(2 * m, k - 2) if k >= 2 else 0) for k in range(m + 1)]
    return low + low[::-1]


def _cohomology_request(name, cls, doc, expect):
    return {"name": name, "cls": cls, "kind": "cohomology", "doc": doc,
            "argv": ["--json"], "expect": expect}


def _quotient_request(name, doc, expect):
    return {"name": name, "cls": name, "kind": "quotient", "doc": doc,
            "argv": ["--json"], "expect": expect}


# the classes of q_graded, with their closed-form oracles
_GRADED = {
    "abelian_7": (lambda: abelian(7), {"betti": binomials(7)}),
    "L_6": (lambda: filiform(6), {"b1": 2, "duality": True}),
    "L_7": (lambda: filiform(7), {"b1": 2, "duality": True}),
    "h_5": (lambda: heisenberg(2), {"betti": santharoubane(2)}),
    "h_7": (lambda: heisenberg(3), {"betti": santharoubane(3)}),
    "n_4": (lambda: strictly_upper(4), {"sum": factorial(4), "b1": 3, "duality": True}),
    "so3+so3": (lambda: direct_sum(so3(), so3()), {"betti": [1, 0, 0, 2, 0, 0, 1]}),
}

_REBASED = ("L_6", "h_5", "n_4", "so3+so3")


def requests(workload, seed):
    """The request list of one pass of a workload, in seeded order."""
    rng = random.Random("%s:%d" % (workload, seed))
    out = []
    if workload == "q_graded":
        for cls, (make, expect) in _GRADED.items():
            out.append(_cohomology_request(cls, cls, algebra_doc(cls, make()), expect))
    elif workload == "q_rebased":
        for cls in _REBASED:
            make, expect = _GRADED[cls]
            algebra = make()
            P, Pinv = random_basis_change(rng, algebra[0])
            name = cls + "_rebased"
            out.append(_cohomology_request(
                name, cls, algebra_doc(name, rebase(algebra, P, Pinv)),
                dict(expect, same_as_graded=True)))
    elif workload == "dense_quotient":
        h7 = algebra_doc("h_7", heisenberg(3))
        out.append(_quotient_request(
            "h_7/centre",
            {"algebra": h7, "ideal": {"vectors": unit_vectors(7, [7])}, "note": "centre"},
            {"quotient_dim": 6, "abelian": True, "betti": binomials(6)}))
        L7 = algebra_doc("L_7", filiform(7))
        out.append(_quotient_request(
            "L_7/span(e6,e7)",
            {"algebra": L7, "ideal": {"vectors": unit_vectors(7, [6, 7])}, "note": ""},
            {"quotient_dim": 5, "abelian": False, "b1": 2, "duality": True}))
        out.append(_quotient_request(
            "T^5/plane", torus_winding_plane(rng),
            {"quotient_dim": 3, "abelian": True, "betti": binomials(3)}))
        out.append(_quotient_request(
            "solv_6/span(e6)",
            {"algebra": solv_doc(6), "ideal": {"vectors": unit_vectors(6, [6])}, "note": ""},
            {"quotient_dim": 5, "abelian": False, "betti": [1, 1, 0, 0, 0, 0]}))
    elif workload == "selftest":
        out.append({"name": "selftest", "cls": "selftest", "kind": "selftest",
                    "doc": None, "argv": ["--seed", str(seed)], "expect": {}})
    else:
        raise ValueError("unknown workload %r" % (workload,))
    rng.shuffle(out)
    for req in out:
        req["seed"] = seed
    return out
