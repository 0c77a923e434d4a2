"""Exact scalars over Q and Q(a), and exact dense linear algebra.

A scalar is either a `fractions.Fraction` (field Q) or a `RationalFunction`
(field Q(a) for a single named indeterminate).  Both are kept in canonical
form at all times, so two scalars of the same field are equal exactly when
their representations coincide.  Canonical form for a rational function:
numerator and denominator coprime, denominator monic, zero stored as 0/1.
It is kept by a polynomial gcd only where reduction is not already
guaranteed: negation, reciprocals, powers and constants are canonical by
construction, and sums and products of reduced fractions use Henrici's
gcd splitting, which skips every gcd with a constant argument.

Scalar text syntax, used by every file format, is ordinary arithmetic
notation over integers and at most one indeterminate.  Whitespace is
ignored.

>>> parse_scalar("3/4", QQ)
Fraction(3, 4)
>>> str(parse_scalar("(a^2-1)/(a-1)", Field("a")))
'a + 1'
>>> str(parse_scalar(" (a+1) / (a-1) ", Field("a")))
'(a + 1)/(a - 1)'
"""

import re
from fractions import Fraction

from .errors import (
    DimensionMismatch,
    DivisionByZero,
    MixedFields,
    ParseError,
)

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*\Z")


# ---------------------------------------------------------------------------
# polynomials with Fraction coefficients

class Poly:
    """Univariate polynomial over Q; coeffs ascending, no trailing zeros."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def const(cls, c):
        return cls((Fraction(c),))

    @property
    def degree(self):
        # degree of the zero polynomial is -1 by convention
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
        return Poly(tuple(c * inv for c in self.coeffs))

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    def __neg__(self):
        return Poly(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return Poly()
            return Poly(tuple(c * other for c in self.coeffs))
        if self.is_zero or other.is_zero:
            return Poly()
        if len(other.coeffs) == 1:
            return self * other.coeffs[0]
        if len(self.coeffs) == 1:
            return other * self.coeffs[0]
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return Poly(out)

    __rmul__ = __mul__

    def __divmod__(self, other):
        if other.is_zero:
            raise DivisionByZero("polynomial division by zero")
        m = other.degree
        low = other.coeffs[:m]
        inv_lead = 1 / other.leading
        r = list(self.coeffs)
        q = [Fraction(0)] * max(len(r) - m, 0)
        for k in range(len(q) - 1, -1, -1):
            c = r[k + m] * inv_lead
            if c:
                q[k] = c
                for j, b in enumerate(low):
                    r[k + j] -= c * b
        return Poly(q), Poly(r[:m])

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __bool__(self):
        return not self.is_zero

    def __repr__(self):
        return "Poly(%r)" % (self.coeffs,)


_POLY_ONE = Poly((1,))


def poly_gcd(a, b):
    """Monic gcd by the Euclidean algorithm, renormalizing every step."""
    while not b.is_zero:
        a, b = b, a % b
        if not b.is_zero:
            b = b.monic()
    return a.monic()


def _poly_str(p, var):
    if p.is_zero:
        return "0"
    parts = []
    for e in range(p.degree, -1, -1):
        c = p.coeffs[e]
        if not c:
            continue
        mag = -c if c < 0 else c
        if e == 0:
            body = str(mag)
        else:
            stem = var if e == 1 else "%s^%d" % (var, e)
            body = stem if mag == 1 else "%s*%s" % (mag, stem)
        if not parts:
            parts.append("-" + body if c < 0 else body)
        else:
            parts.append((" - " if c < 0 else " + ") + body)
    return "".join(parts)


# ---------------------------------------------------------------------------
# rational functions

class RationalFunction:
    """Element of Q(var), stored as a reduced fraction of polynomials.

    Every operation returns the canonical form: numerator and denominator
    coprime, denominator monic, zero stored as 0/1.  A polynomial gcd is
    taken only where the result can need reducing.  Negation, reciprocals,
    powers and constants are canonical by construction, a sum or difference
    with a zero side is the other side, a gcd with a constant polynomial
    is 1, and products and sums of reduced fractions follow Henrici's
    splitting (Henrici 1956; Knuth, TAOCP vol. 2, 4.5.1),
    which takes gcds of the smaller cross terms and then needs no final one.
    """

    __slots__ = ("var", "num", "den")

    def __init__(self, var, num, den=_POLY_ONE):
        if not isinstance(num, Poly):
            num = Poly.const(num)
        if not isinstance(den, Poly):
            den = Poly.const(den)
        if den.is_zero:
            raise DivisionByZero("rational function with zero denominator")
        if num.is_zero:
            den = _POLY_ONE
        else:
            if num.degree > 0 and den.degree > 0:
                g = poly_gcd(num, den)
                if g.degree > 0:
                    num, den = num // g, den // g
            lead = den.leading
            if lead != 1:
                inv = 1 / lead
                num, den = num * inv, den * inv
        self.var = var
        self.num = num
        self.den = den

    @classmethod
    def _reduced(cls, var, num, den=_POLY_ONE):
        """Wrap num/den, which the caller guarantees to be canonical."""
        self = object.__new__(cls)
        self.var = var
        self.num = num
        self.den = den
        return self

    @classmethod
    def generator(cls, var):
        return cls._reduced(var, Poly((0, 1)))

    @property
    def is_constant(self):
        return self.num.degree <= 0 and self.den == _POLY_ONE

    def as_fraction(self):
        """The value as a Fraction; only valid for constants."""
        if not self.is_constant:
            raise ValueError("not a constant rational function")
        return self.num.leading if not self.num.is_zero else Fraction(0)

    def _coerce(self, other):
        if isinstance(other, RationalFunction):
            if other.var != self.var:
                raise MixedFields(
                    "cannot mix Q(%s) with Q(%s)" % (self.var, other.var)
                )
            return other
        if isinstance(other, (int, Fraction)):
            return RationalFunction._reduced(self.var, Poly.const(other))
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b, c, d = self.num, self.den, o.num, o.den
        # either side may be zero: the other one is canonical already
        if a.is_zero:
            return o
        if c.is_zero:
            return self
        if b.degree == 0 and d.degree == 0:
            return RationalFunction._reduced(self.var, a + c)
        g = poly_gcd(b, d) if b.degree > 0 and d.degree > 0 else _POLY_ONE
        if g.degree == 0:
            # coprime denominators: (ad + cb)/(bd) is already reduced
            return RationalFunction._reduced(self.var, a * d + c * b, b * d)
        b_g, d_g = b // g, d // g
        t = a * d_g + c * b_g
        if t.is_zero:
            return RationalFunction._reduced(self.var, t)
        # t shares no factor with b/g or d/g, so gcd(t, g) is all that cancels
        if t.degree > 0:
            g2 = poly_gcd(t, g)
            if g2.degree > 0:
                t, d = t // g2, d // g2
        return RationalFunction._reduced(self.var, t, b_g * d)

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction._reduced(self.var, -self.num, self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.num.is_zero:
            return self
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b, c, d = self.num, self.den, o.num, o.den
        if a.is_zero or c.is_zero:
            return RationalFunction._reduced(self.var, Poly())
        # a/b and c/d are reduced, so only a with d and c with b can cancel
        if a.degree > 0 and d.degree > 0:
            g = poly_gcd(a, d)
            if g.degree > 0:
                a, d = a // g, d // g
        if c.degree > 0 and b.degree > 0:
            g = poly_gcd(c, b)
            if g.degree > 0:
                c, b = c // g, b // g
        return RationalFunction._reduced(self.var, a * c, b * d)

    __rmul__ = __mul__

    def _reciprocal(self):
        if self.num.is_zero:
            raise DivisionByZero("division by the zero rational function")
        num, den = self.den, self.num
        lead = den.leading
        if lead != 1:
            inv = 1 / lead
            num, den = num * inv, den * inv
        return RationalFunction._reduced(self.var, num, den)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o._reciprocal()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, exponent):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            if self.num.is_zero:
                raise DivisionByZero("zero raised to a negative power")
            return self._reciprocal() ** (-exponent)
        # powers of coprime polynomials stay coprime, of monic ones monic
        num = den = _POLY_ONE
        base_num, base_den = self.num, self.den
        e = exponent
        while e:
            if e & 1:
                num, den = num * base_num, den * base_den
            e >>= 1
            if e:
                base_num, base_den = base_num * base_num, base_den * base_den
        return RationalFunction._reduced(self.var, num, den)

    def __eq__(self, other):
        if isinstance(other, RationalFunction):
            return (
                self.var == other.var
                and self.num == other.num
                and self.den == other.den
            )
        if isinstance(other, (int, Fraction)):
            return self.is_constant and self.as_fraction() == other
        return NotImplemented

    def __hash__(self):
        if self.is_constant:
            return hash(self.as_fraction())
        return hash((self.var, self.num.coeffs, self.den.coeffs))

    def __bool__(self):
        return not self.num.is_zero

    def __str__(self):
        if self.den == _POLY_ONE:
            return _poly_str(self.num, self.var)
        return "(%s)/(%s)" % (
            _poly_str(self.num, self.var),
            _poly_str(self.den, self.var),
        )

    def __repr__(self):
        return "RationalFunction(%r, %s)" % (self.var, self)


# ---------------------------------------------------------------------------
# field tags

class Field:
    """Field tag: Q when var is None, else the rational-function field Q(var)."""

    __slots__ = ("var",)

    def __init__(self, var=None):
        if var is not None and not _IDENT_RE.match(var):
            raise ParseError("invalid indeterminate name %r" % (var,))
        self.var = var

    @property
    def is_rationals(self):
        return self.var is None

    @property
    def zero(self):
        if self.var is None:
            return Fraction(0)
        return RationalFunction._reduced(self.var, Poly())

    @property
    def one(self):
        if self.var is None:
            return Fraction(1)
        return RationalFunction._reduced(self.var, _POLY_ONE)

    def generator(self):
        if self.var is None:
            raise ValueError("Q has no indeterminate")
        return RationalFunction.generator(self.var)

    def coerce(self, value):
        """Return value as an element of this field, or raise MixedFields."""
        if self.var is None:
            if isinstance(value, Fraction):
                return value
            if isinstance(value, int):
                return Fraction(value)
            raise MixedFields("expected a rational number, got %r" % (value,))
        if isinstance(value, RationalFunction):
            if value.var != self.var:
                raise MixedFields(
                    "cannot coerce Q(%s) element into Q(%s)" % (value.var, self.var)
                )
            return value
        if isinstance(value, (int, Fraction)):
            return RationalFunction._reduced(self.var, Poly.const(value))
        raise MixedFields("expected an element of Q(%s), got %r" % (self.var, value))

    def parse(self, text):
        return parse_scalar(text, self)

    def format(self, value):
        return format_scalar(value)

    def __eq__(self, other):
        if not isinstance(other, Field):
            return NotImplemented
        return self.var == other.var

    def __hash__(self):
        return hash(("Field", self.var))

    def __repr__(self):
        return "QQ" if self.var is None else "Field(%r)" % (self.var,)


QQ = Field()


def field_of(value):
    """The field tag a scalar belongs to."""
    if isinstance(value, (int, Fraction)):
        return QQ
    if isinstance(value, RationalFunction):
        return Field(value.var)
    raise TypeError("not a scalar: %r" % (value,))


def scalar_arith(a, b, op):
    """Apply one of add/sub/mul/div to two scalars of the same field."""
    if op not in ("add", "sub", "mul", "div"):
        raise ValueError("unknown operation %r" % (op,))
    if isinstance(a, int):
        a = Fraction(a)
    if isinstance(b, int):
        b = Fraction(b)
    if field_of(a) != field_of(b):
        raise MixedFields("operands live in different fields")
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    if not b:
        raise DivisionByZero("exact division by zero")
    return a / b


def format_scalar(value):
    """Canonical text for a scalar; parse_scalar inverts this."""
    if isinstance(value, int):
        value = Fraction(value)
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, RationalFunction):
        return str(value)
    raise TypeError("not a scalar: %r" % (value,))


# ---------------------------------------------------------------------------
# scalar text parser (recursive descent)

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*/^()]))"
)

_MAX_EXPONENT = 1000


class _Tokens:
    def __init__(self, text):
        self.items = []
        pos = 0
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if m is None:
                if text[pos:].strip():
                    raise ParseError(
                        "unexpected character %r in scalar %r" % (text[pos], text)
                    )
                break
            if m.group("int") is not None:
                self.items.append(("int", int(m.group("int"))))
            elif m.group("name") is not None:
                self.items.append(("name", m.group("name")))
            else:
                self.items.append(("op", m.group("op")))
            pos = m.end()
        self.pos = 0

    def peek(self):
        return self.items[self.pos] if self.pos < len(self.items) else (None, None)

    def next(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def accept(self, op):
        kind, val = self.peek()
        if kind == "op" and val in op:
            self.pos += 1
            return val
        return None


def parse_scalar(text, field):
    """Parse scalar text into an element of the given field.

    Raises ParseError on malformed input and DivisionByZero when the text
    divides by an exact zero.
    """
    if not isinstance(text, str):
        raise ParseError("scalar must be given as text, got %r" % (text,))
    toks = _Tokens(text)
    if toks.peek() == (None, None):
        raise ParseError("empty scalar text")
    value = _parse_sum(toks, field)
    if toks.peek() != (None, None):
        raise ParseError("trailing junk in scalar %r" % (text,))
    return value


def _parse_sum(toks, field):
    value = _parse_product(toks, field)
    while True:
        op = toks.accept("+-")
        if op is None:
            return value
        rhs = _parse_product(toks, field)
        value = value + rhs if op == "+" else value - rhs


def _parse_product(toks, field):
    value = _parse_unary(toks, field)
    while True:
        op = toks.accept("*/")
        if op is None:
            return value
        rhs = _parse_unary(toks, field)
        if op == "*":
            value = value * rhs
        else:
            if not rhs:
                raise DivisionByZero("scalar text divides by zero")
            value = value / rhs


def _parse_unary(toks, field):
    negate = False
    while True:
        op = toks.accept("+-")
        if op is None:
            break
        if op == "-":
            negate = not negate
    value = _parse_power(toks, field)
    return -value if negate else value


def _parse_power(toks, field):
    base = _parse_atom(toks, field)
    if toks.accept("^"):
        kind, val = toks.next()
        if kind != "int":
            raise ParseError("exponent must be a nonnegative integer literal")
        if val > _MAX_EXPONENT:
            raise ParseError("exponent %d too large" % val)
        return base**val
    return base


def _parse_atom(toks, field):
    kind, val = toks.next()
    if kind == "int":
        return field.coerce(val)
    if kind == "name":
        if field.var is None:
            raise ParseError("indeterminate %r not allowed over Q" % (val,))
        if val != field.var:
            raise ParseError(
                "unknown indeterminate %r (field uses %r)" % (val, field.var)
            )
        return field.generator()
    if kind == "op" and val == "(":
        inner = _parse_sum(toks, field)
        if not toks.accept(")"):
            raise ParseError("missing closing parenthesis")
        return inner
    raise ParseError("unexpected token in scalar text")


# ---------------------------------------------------------------------------
# matrices

class Matrix:
    """Immutable dense matrix over a single field; entries row-major."""

    __slots__ = ("field", "rows", "cols", "entries")

    def __init__(self, field, rows, cols, entries):
        if rows < 0 or cols < 0 or len(entries) != rows * cols:
            raise DimensionMismatch("entry count does not match shape")
        self.field = field
        self.rows = rows
        self.cols = cols
        self.entries = tuple(entries)

    @classmethod
    def from_rows(cls, field, rows, cols=None):
        rows = [list(r) for r in rows]
        if rows:
            cols = len(rows[0])
            if any(len(r) != cols for r in rows):
                raise DimensionMismatch("ragged rows")
        elif cols is None:
            cols = 0
        flat = [field.coerce(x) for r in rows for x in r]
        return cls(field, len(rows), cols, flat)

    @classmethod
    def identity(cls, field, n):
        zero, one = field.zero, field.one
        flat = [one if i == j else zero for i in range(n) for j in range(n)]
        return cls(field, n, n, flat)

    @classmethod
    def zeros(cls, field, rows, cols):
        return cls(field, rows, cols, [field.zero] * (rows * cols))

    @property
    def shape(self):
        return (self.rows, self.cols)

    def entry(self, i, j):
        return self.entries[i * self.cols + j]

    def row(self, i):
        return list(self.entries[i * self.cols : (i + 1) * self.cols])

    def col(self, j):
        return [self.entries[i * self.cols + j] for i in range(self.rows)]

    def to_rows(self):
        return [self.row(i) for i in range(self.rows)]

    def transpose(self):
        flat = [self.entries[i * self.cols + j] for j in range(self.cols) for i in range(self.rows)]
        return Matrix(self.field, self.cols, self.rows, flat)

    def mul_vec(self, vec):
        if len(vec) != self.cols:
            raise DimensionMismatch("vector length %d, expected %d" % (len(vec), self.cols))
        vec = [self.field.coerce(x) for x in vec]
        out = []
        for i in range(self.rows):
            acc = self.field.zero
            base = i * self.cols
            for j, x in enumerate(vec):
                if x:
                    acc = acc + self.entries[base + j] * x
            out.append(acc)
        return out

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.field != other.field:
            raise MixedFields("matrix product over different fields")
        if self.cols != other.rows:
            raise DimensionMismatch("inner dimensions differ")
        zero = self.field.zero
        flat = []
        for i in range(self.rows):
            base = i * self.cols
            for j in range(other.cols):
                acc = zero
                for k in range(self.cols):
                    a = self.entries[base + k]
                    if a:
                        b = other.entries[k * other.cols + j]
                        if b:
                            acc = acc + a * b
                flat.append(acc)
        return Matrix(self.field, self.rows, other.cols, flat)

    def __add__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.field != other.field:
            raise MixedFields("matrix sum over different fields")
        if self.shape != other.shape:
            raise DimensionMismatch("shapes differ")
        flat = [a + b for a, b in zip(self.entries, other.entries)]
        return Matrix(self.field, self.rows, self.cols, flat)

    def __sub__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self + Matrix(other.field, other.rows, other.cols, [-x for x in other.entries])

    @property
    def is_zero(self):
        return not any(self.entries)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (
            self.field == other.field
            and self.shape == other.shape
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.field, self.rows, self.cols, self.entries))

    def __repr__(self):
        return "Matrix(%r, %dx%d)" % (self.field, self.rows, self.cols)


# ---------------------------------------------------------------------------
# elimination

def _rref(rows, ncols):
    """Reduced row echelon form by ordinary division; returns (rows, pivot cols).

    Mutates nothing; scalars renormalize on every operation, which keeps
    rational-function entries reduced after each pivot.
    """
    rows = [list(r) for r in rows]
    pivots = []
    r = 0
    nrows = len(rows)
    for c in range(ncols):
        p = None
        for i in range(r, nrows):
            if rows[i][c]:
                p = i
                break
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        inv = rows[r][c]
        if inv != 1:
            rows[r] = [x / inv for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def rank(m):
    """Exact rank: the number of pivots of the reduced row echelon form."""
    return len(_rref(m.to_rows(), m.cols)[1])


def rank_and_kernel(m):
    """Rank and a kernel basis in reduced echelon parametrization.

    One kernel vector per free column, free variable set to 1, taken in
    increasing column order.
    """
    rref_rows, pivots = _rref(m.to_rows(), m.cols)
    pivot_set = set(pivots)
    zero, one = m.field.zero, m.field.one
    kernel = []
    for f in range(m.cols):
        if f in pivot_set:
            continue
        v = [zero] * m.cols
        v[f] = one
        for r, p in enumerate(pivots):
            coeff = rref_rows[r][f]
            if coeff:
                v[p] = -coeff
        kernel.append(v)
    return len(pivots), kernel


def solve_in_span(basis, target):
    """Exact coefficients expressing target in the span of basis, else None.

    When the basis is linearly dependent the particular solution with all
    free coefficients zero is returned.  Not being in the span is an
    answer, not an error.
    """
    if not basis:
        return [] if not any(target) else None
    n = len(target)
    if any(len(v) != n for v in basis):
        raise DimensionMismatch("span vectors and target have different lengths")
    fields = {field_of(x) for v in basis for x in v} | {field_of(x) for x in target}
    fields.discard(QQ)
    if len(fields) > 1:
        raise MixedFields("span and target mix rational-function fields")
    field = fields.pop() if fields else QQ
    ncols = len(basis) + 1
    aug = []
    for i in range(n):
        row = [field.coerce(v[i]) for v in basis]
        row.append(field.coerce(target[i]))
        aug.append(row)
    rref_rows, pivots = _rref(aug, ncols)
    if pivots and pivots[-1] == ncols - 1:
        return None
    coeffs = [field.zero] * len(basis)
    for r, p in enumerate(pivots):
        coeffs[p] = rref_rows[r][ncols - 1]
    return coeffs


def det_rows(rows, field):
    """Exact determinant of a small square matrix given as a list of rows."""
    n = len(rows)
    if n == 0:
        return field.one
    if any(len(r) != n for r in rows):
        raise DimensionMismatch("determinant of a non-square matrix")
    rows = [list(r) for r in rows]
    det = field.one
    negate = False
    for c in range(n):
        p = None
        for i in range(c, n):
            if rows[i][c]:
                p = i
                break
        if p is None:
            return field.zero
        if p != c:
            rows[c], rows[p] = rows[p], rows[c]
            negate = not negate
        pivot = rows[c][c]
        det = det * pivot
        for i in range(c + 1, n):
            if rows[i][c]:
                f = rows[i][c] / pivot
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[c])]
    return -det if negate else det
