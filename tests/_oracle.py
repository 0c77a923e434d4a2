"""Independent brute-force implementations used to pin expected values.

Nothing here shares code with the package's complex: forms are evaluated
by explicit permutation sums, the coboundary comes straight from the
alternating-sum formula applied to every basis tuple, and ranks and
reduced echelon forms come from a standalone Gauss-Jordan elimination.
Only the structure-constant data of a LieAlgebra object is read.
Rational functions in Q(a) are pairs of Fraction coefficient lists,
reduced by their own Euclidean algorithm; QaScalar wraps such a pair
with the ring operations that the Jacobiator of a Q(a) algebra needs.
FractionPoly is the package's earlier polynomial class, one Fraction per
coefficient, kept as the reference for the integer-numerator storage.
"""

from fractions import Fraction
from itertools import combinations, permutations
from math import comb


def structure_constants(L):
    """Read the table into a dense dict c[(i, j, k)], i < j: Fractions over
    Q, QaScalars over Q(a)."""
    table = {}
    for (i, j), terms in L.brackets.items():
        for k, coeff in terms.items():
            if isinstance(coeff, (int, Fraction)):
                table[(i, j, k)] = Fraction(coeff)
            else:
                table[(i, j, k)] = QaScalar(list(coeff.num.coeffs), list(coeff.den.coeffs))
    return table


def bracket_vectors(table, n, x, y):
    out = [Fraction(0)] * n
    for (i, j, k), c in table.items():
        factor = x[i - 1] * y[j - 1] - x[j - 1] * y[i - 1]
        if factor:
            out[k - 1] += factor * c
    return out


def _perm_sign(perm):
    sign = 1
    for a in range(len(perm)):
        for b in range(a + 1, len(perm)):
            if perm[a] > perm[b]:
                sign = -sign
    return sign


def eval_basis_form(idx, vectors):
    """Value of the wedge of dual covectors idx on vectors, by permutation sum."""
    k = len(idx)
    total = Fraction(0)
    for perm in permutations(range(k)):
        prod = Fraction(_perm_sign(perm))
        for r in range(k):
            prod *= vectors[perm[r]][idx[r] - 1]
            if not prod:
                break
        total += prod
    return total


def permutation_det(rows):
    """Determinant of a square matrix by the permutation sum over its rows."""
    return eval_basis_form(tuple(range(1, len(rows) + 1)), rows)


def coboundary_matrix(L, k):
    """d in degree k as a dense list of rows, C(n, k+1) x C(n, k)."""
    n = L.dim
    table = structure_constants(L)
    cols = list(combinations(range(1, n + 1), k))
    rows_idx = list(combinations(range(1, n + 1), k + 1))

    def basis_vec(i):
        v = [Fraction(0)] * n
        v[i - 1] = Fraction(1)
        return v

    matrix = [[Fraction(0)] * len(cols) for _ in rows_idx]
    for r, J in enumerate(rows_idx):
        args = [basis_vec(a) for a in J]
        for c, I in enumerate(cols):
            acc = Fraction(0)
            for a in range(k + 1):
                for b in range(a + 1, k + 1):
                    first = bracket_vectors(table, n, args[a], args[b])
                    rest = [args[t] for t in range(k + 1) if t != a and t != b]
                    term = eval_basis_form(I, [first] + rest)
                    acc += term if (a + b) % 2 == 0 else -term
            matrix[r][c] = acc
    return matrix


def gauss_jordan(rows):
    """Reduced row echelon form by plain Gauss-Jordan elimination, written
    from scratch: (its nonzero rows, their pivot columns)."""
    rows = [list(r) for r in rows]
    if not rows:
        return [], []
    pivots = []
    for col in range(len(rows[0])):
        rank = len(pivots)
        pivot = None
        for i in range(rank, len(rows)):
            if rows[i][col]:
                pivot = i
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank][col]
        rows[rank] = [x / lead for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        pivots.append(col)
    return rows[:len(pivots)], pivots


def gauss_rank(rows):
    """Rank by plain Gauss-Jordan elimination."""
    return len(gauss_jordan(rows)[1])


def betti_numbers(L):
    """Betti numbers from the brute-force coboundaries and standalone ranks."""
    n = L.dim
    ranks = [gauss_rank(coboundary_matrix(L, k)) for k in range(n + 1)]
    betti = []
    for k in range(n + 1):
        prev = ranks[k - 1] if k else 0
        betti.append(comb(n, k) - ranks[k] - prev)
    return betti


def jacobiator(table, n, i, j, k):
    """[[e_i,e_j],e_k] + [[e_j,e_k],e_i] + [[e_k,e_i],e_j] by direct expansion,
    on the dense table structure_constants(L) of a dimension-n algebra."""
    # integer basis entries keep the factors in bracket_vectors out of Fraction
    def basis_vec(a):
        v = [0] * n
        v[a - 1] = 1
        return v

    total = [Fraction(0)] * n
    for x, y, z in ((i, j, k), (j, k, i), (k, i, j)):
        inner = bracket_vectors(table, n, basis_vec(x), basis_vec(y))
        outer = bracket_vectors(table, n, inner, basis_vec(z))
        total = [a + b for a, b in zip(total, outer)]
    return total


# ---------------------------------------------------------------------------
# Q(a): rational functions as pairs of ascending Fraction coefficient lists


def _trim(p):
    p = [Fraction(c) for c in p]
    while p and not p[-1]:
        p.pop()
    return p


def poly_add(p, q):
    n = max(len(p), len(q))
    return _trim([(p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0)
                  for i in range(n)])


def poly_mul(p, q):
    if not p or not q:
        return []
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        for j, y in enumerate(q):
            out[i + j] += x * y
    return _trim(out)


def poly_divmod(p, q):
    """Long division of coefficient lists, leading term first."""
    rem = _trim(p)
    quot = [Fraction(0)] * max(len(rem) - len(q) + 1, 0)
    while len(rem) >= len(q):
        shift = len(rem) - len(q)
        f = rem[-1] / q[-1]
        quot[shift] = f
        for i, c in enumerate(q):
            rem[i + shift] -= f * c
        rem = _trim(rem)
    return _trim(quot), rem


def poly_euclid(p, q):
    """A gcd of p and q by Euclid's algorithm, not normalized."""
    p, q = _trim(p), _trim(q)
    while q:
        p, q = q, poly_divmod(p, q)[1]
    return p


def poly_lcm(p, q):
    """The monic lcm of two nonzero polynomials: p * q over their gcd."""
    m = poly_divmod(poly_mul(p, q), poly_euclid(p, q))[0]
    return [c / m[-1] for c in m]


def reduce_fraction(num, den):
    """Canonical (num, den): coprime, den monic, zero as ([], [1])."""
    num, den = _trim(num), _trim(den)
    if not den:
        raise ZeroDivisionError("zero denominator")
    if not num:
        return [], [Fraction(1)]
    g = poly_euclid(num, den)
    num, den = poly_divmod(num, g)[0], poly_divmod(den, g)[0]
    lead = den[-1]
    return [c / lead for c in num], [c / lead for c in den]


def poly_eval(p, x):
    total = Fraction(0)
    for c in reversed(p):
        total = total * x + c
    return total


class QaScalar:
    """An element of Q(a) as a reduced (num, den) pair; mixes with Fractions.

    Adding a zero Fraction returns the other side, and a product with a
    Fraction only scales the numerator, which stays coprime to the
    denominator; this keeps arithmetic on basis vectors cheap.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=(1,)):
        self.num, self.den = reduce_fraction(num, den)

    def __add__(self, other):
        if not isinstance(other, QaScalar):
            if not other:
                return self
            other = QaScalar([other])
        return QaScalar(poly_add(poly_mul(self.num, other.den), poly_mul(other.num, self.den)),
                        poly_mul(self.den, other.den))

    __radd__ = __add__

    def __mul__(self, other):
        if isinstance(other, QaScalar):
            return QaScalar(poly_mul(self.num, other.num), poly_mul(self.den, other.den))
        out = object.__new__(QaScalar)
        out.num = [c * other for c in self.num] if other else []
        out.den = self.den if other else [Fraction(1)]
        return out

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __bool__(self):
        return bool(self.num)


# ---------------------------------------------------------------------------
# Q[a]: the package's earlier Poly, which stored one Fraction per coefficient


class FractionPoly:
    """Univariate polynomial over Q; coeffs ascending Fractions, no trailing
    zeros.  Every operation works coefficient by coefficient in Fraction
    arithmetic: schoolbook products, long division by the leading
    coefficient's inverse, and a Euclidean gcd made monic every step."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        self.coeffs = tuple(_trim(coeffs))

    @property
    def degree(self):
        return len(self.coeffs) - 1

    @property
    def is_zero(self):
        return not self.coeffs

    @property
    def leading(self):
        return self.coeffs[-1] if self.coeffs else Fraction(0)

    def monic(self):
        if self.is_zero or self.leading == 1:
            return self
        inv = 1 / self.leading
        return FractionPoly(c * inv for c in self.coeffs)

    def __add__(self, other):
        return FractionPoly(poly_add(list(self.coeffs), list(other.coeffs)))

    def __neg__(self):
        return FractionPoly(-c for c in self.coeffs)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return FractionPoly(c * other for c in self.coeffs)
        return FractionPoly(poly_mul(list(self.coeffs), list(other.coeffs)))

    def __divmod__(self, other):
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        m = other.degree
        inv_lead = 1 / other.leading
        r = list(self.coeffs)
        q = [Fraction(0)] * max(len(r) - m, 0)
        for k in range(len(q) - 1, -1, -1):
            c = r[k + m] * inv_lead
            q[k] = c
            for j, b in enumerate(other.coeffs):
                r[k + j] -= c * b
        return FractionPoly(q), FractionPoly(r[:m])

    def __eq__(self, other):
        return isinstance(other, FractionPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __bool__(self):
        return not self.is_zero


def fraction_poly_gcd(a, b):
    """Monic gcd by the Euclidean algorithm, renormalizing every step."""
    while not b.is_zero:
        a, b = b, divmod(a, b)[1]
        if not b.is_zero:
            b = b.monic()
    return a.monic()


def rational_function_text(num, den, var):
    """The text of num/den, canonical FractionPolys, in the package's
    notation: terms by falling degree, "c*a^e", and "(num)/(den)" unless den
    is 1."""
    def poly_text(p):
        terms = []
        for e in range(p.degree, -1, -1):
            c = p.coeffs[e]
            if not c:
                continue
            mag = abs(c)
            stem = "" if e == 0 else var if e == 1 else "%s^%d" % (var, e)
            body = str(mag) if not stem else stem if mag == 1 else "%s*%s" % (mag, stem)
            sign = ("-" if c < 0 else "") if not terms else (" - " if c < 0 else " + ")
            terms.append(sign + body)
        return "".join(terms) or "0"

    if den.coeffs == (1,):
        return poly_text(num)
    return "(%s)/(%s)" % (poly_text(num), poly_text(den))
