"""Lie algebra families built from their definitions, shared by the tests.

Each constructor writes the structure constants out directly; none of
them goes through the package's complex.  rebased reads the constants in
the new basis off solve_in_span.
"""

from fractions import Fraction

from liecohom.field_arith import Field, QQ, solve_in_span
from liecohom.lie_core import LieAlgebra, bracket


def _table_add(table, i, j, k, c):
    if i > j:
        i, j, c = j, i, -c
    terms = table.setdefault((i, j), {})
    terms[k] = terms.get(k, 0) + c


def filiform(n):
    """Standard graded filiform L_n: [e_1, e_i] = e_{i+1} for 2 <= i < n."""
    return LieAlgebra("L_%d" % n, n, QQ, {(1, i): {i + 1: 1} for i in range(2, n)})


def heisenberg(m):
    """h_{2m+1}: [e_i, e_{m+i}] = e_{2m+1} for 1 <= i <= m."""
    return LieAlgebra("h_%d" % (2 * m + 1), 2 * m + 1, QQ,
                      {(i, m + i): {2 * m + 1: 1} for i in range(1, m + 1)})


def strictly_upper(N):
    """n_N on the matrix units E_ij (i < j) in lexicographic order.

    [E_ij, E_kl] = delta_jk E_il - delta_li E_kj.
    """
    units = [(i, j) for i in range(1, N + 1) for j in range(i + 1, N + 1)]
    index = {u: a for a, u in enumerate(units, start=1)}
    table = {}
    for a, (i, j) in enumerate(units, start=1):
        for b, (k, l) in enumerate(units, start=1):
            if a < b:
                if j == k:
                    _table_add(table, a, b, index[(i, l)], 1)
                if l == i:
                    _table_add(table, a, b, index[(k, j)], -1)
    return LieAlgebra("n_%d" % N, len(units), QQ, table)


def rebased(L, P):
    """L in the basis f_i = sum_a P[a][i] e_a, for an invertible P over Q,
    over L's field."""
    n = L.dim
    cols = [[L.field.coerce(Fraction(P[a][i])) for a in range(n)] for i in range(n)]
    table = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            image = solve_in_span(cols, bracket(L, cols[i - 1], cols[j - 1]), L.field)
            terms = {k: c for k, c in enumerate(image, start=1) if c}
            if terms:
                table[(i, j)] = terms
    return LieAlgebra(L.name + "_rebased", n, L.field, table)


def solv(n, var="a"):
    """solv_n over Q(a): [e_1, e_i] = (a + i) e_i for 2 <= i <= n."""
    field = Field(var)
    a = field.generator()
    return LieAlgebra("solv_%d" % n, n, field, {(1, i): {i: a + i} for i in range(2, n + 1)})
