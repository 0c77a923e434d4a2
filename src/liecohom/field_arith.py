"""Exact scalars over Q and Q(a), and every exact elimination in the package.

A scalar is either a `fractions.Fraction` (field Q) or a `RationalFunction`
(field Q(a) for a single named indeterminate).  Both are kept in canonical
form at all times, so two scalars of the same field are equal exactly when
their representations coincide.  Canonical form for a rational function:
numerator and denominator coprime, denominator monic, zero stored as 0/1.
It is kept by a polynomial gcd only where reduction is not already
guaranteed: negation, reciprocals, powers and constants are canonical by
construction, and sums and products of reduced fractions use Henrici's
gcd splitting, which skips every gcd with a constant argument.

No other module eliminates, and elimination runs on sparse rows: a row is
a dict {key: nonzero scalar} whose lead is min(row), so a step touches
only the entries that are there.  Keys are int positions for Matrix and
dense-vector callers, converted at the boundary, and index tuples for
forms, where the coeffs dict of an ExteriorForm already is a row.
_echelon_insert, with _reduce_against, answers every independence and
membership question one row at a time, and rank; _rref, the full reduced
form, is insertion of every row plus back-reduction, and _rank_and_kernel
returns its pivots and a sparse kernel read off it.  rank, rank_and_kernel
and solve_in_span take and return dense data.  The reduced row echelon
form is unique, and so is each row of an insertion echelon, so these
answers are those of any exact elimination.  One fraction-free kernel,
_bareiss, takes rank and determinant over Z and Q[a]: every minor evaluate
takes, once its denominators are cleared, and the selftest's rank oracle.

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
from math import lcm

from .errors import (
    DimensionMismatch,
    DivisionByZero,
    InternalCheckFailed,
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
# each parenthesis level takes a few Python frames of the recursive descent
_MAX_NESTING = 100


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
        self.chain = 1
        self.depth = 0

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
        # both terms were under the cap, so forming the sum was one bounded
        # step; shared denominator factors cancel, so cap what is left
        _cap_degree(max(_degrees(value)))


def _parse_product(toks, field):
    value = _parse_unary(toks, field)
    while True:
        op = toks.accept("*/")
        if op is None:
            return value
        rhs = _parse_unary(toks, field)
        _check_degree(value, op, rhs)
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
    # nested exponents multiply: the cap bounds their product along a chain
    outer, toks.chain = toks.chain, 1
    base = _parse_atom(toks, field)
    chain = toks.chain
    if toks.accept("^"):
        kind, val = toks.next()
        if kind != "int":
            raise ParseError("exponent must be a nonnegative integer literal")
        chain *= val
        if chain > _MAX_EXPONENT:
            raise ParseError("exponent %d too large (nested exponents multiply)" % chain)
        _check_degree(base, "^", val)
        base = base**val
    toks.chain = max(outer, chain)
    return base


def _check_degree(lhs, op, rhs):
    """Refuse lhs op rhs, for op one of "*", "/" and "^", before it is
    formed when its numerator or denominator, before any cancellation,
    would pass degree _MAX_EXPONENT.

    The exponent cap alone bounds one chain of powers, not a product of
    them.  A power of a reduced fraction cancels nothing, so its bound is
    exact; a product is refused by its unreduced degree even where
    numerator and denominator factors would cancel.  rhs is the integer
    exponent when op is "^".
    """
    an, ad = _degrees(lhs)
    if op == "^":
        num, den = an * rhs, ad * rhs
    else:
        bn, bd = _degrees(rhs)
        num, den = (an + bn, ad + bd) if op == "*" else (an + bd, ad + bn)
    _cap_degree(max(num, den))


def _cap_degree(degree):
    if degree > _MAX_EXPONENT:
        raise ParseError("degree %d too large (the cap is %d)" % (degree, _MAX_EXPONENT))


def _degrees(value):
    """(numerator degree, denominator degree) of a scalar; (0, 0) over Q."""
    if isinstance(value, RationalFunction):
        return max(value.num.degree, 0), value.den.degree
    return 0, 0


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
        if toks.depth >= _MAX_NESTING:
            raise ParseError("parentheses nested deeper than %d" % _MAX_NESTING)
        toks.depth += 1
        inner = _parse_sum(toks, field)
        if not toks.accept(")"):
            raise ParseError("missing closing parenthesis")
        toks.depth -= 1
        return inner
    raise ParseError("unexpected token in scalar text")


# ---------------------------------------------------------------------------
# matrices

class Matrix:
    """Immutable dense matrix over a single field; entries row-major.

    A container with no matrix algebra: ranks, kernels, solving in a span
    and quotient projections come from the engine on its rows made sparse.
    """

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
            if cols is None:
                cols = len(rows[0])
            for r in rows:
                if len(r) != cols:
                    raise DimensionMismatch("row of length %d, expected %d" % (len(r), cols))
        elif cols is None:
            cols = 0
        flat = [field.coerce(x) for r in rows for x in r]
        return cls(field, len(rows), cols, flat)

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

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (
            self.field == other.field
            and self.shape == other.shape
            and self.entries == other.entries
        )

    def __repr__(self):
        return "Matrix(%r, %dx%d)" % (self.field, self.rows, self.cols)


# ---------------------------------------------------------------------------
# elimination on sparse rows (see the module docstring)

def _sparse_row(vec):
    """A dense vector as an engine row keyed by position."""
    return {j: x for j, x in enumerate(vec) if x}


def _reduce_against(echelon, row):
    """row reduced against an echelon: a list of (lead, row) pairs, each row
    1 at its lead and without the earlier leads.  Empty exactly when row is
    in the span.  Mutates nothing."""
    row = dict(row)
    get = row.get
    for lead, other in echelon:
        c = get(lead)
        if c is None:
            continue
        for key, b in other.items():
            x = get(key)
            if x is None:
                row[key] = -(c * b)
            else:
                x = x - c * b
                if x:
                    row[key] = x
                else:
                    del row[key]
    return row


def _echelon_insert(echelon, row):
    """Append row reduced against the echelon, its lead scaled to 1, unless
    it reduces to zero; return the appended row, or None."""
    row = _reduce_against(echelon, row)
    if not row:
        return None
    lead = min(row)
    x = row[lead]
    if x != 1:
        row = {key: a / x for key, a in row.items()}
    echelon.append((lead, row))
    return row


def _rref(rows):
    """Reduced row echelon form as (nonzero rows, pivots): every row is
    inserted into an echelon, then each echelon row, from the last, is
    reduced against the rows after it.  Mutates nothing."""
    echelon = []
    for row in rows:
        _echelon_insert(echelon, row)
    for i in reversed(range(len(echelon))):
        lead, row = echelon[i]
        echelon[i] = (lead, _reduce_against(echelon[i + 1:], row))
    echelon.sort(key=lambda pair: pair[0])
    return [row for _, row in echelon], [lead for lead, _ in echelon]


def _rank_and_kernel(rows, keys, one):
    """(pivots, kernel basis) of engine rows whose keys are among keys: the
    increasing pivots of _rref, and one kernel row per other key, in the
    order of keys, 1 there and minus that key's column of the reduced
    echelon form at the pivots."""
    rref_rows, pivots = _rref(rows)
    below = {}
    for p, row in zip(pivots, rref_rows):
        for key, x in row.items():
            if key != p:
                below.setdefault(key, {})[p] = -x
    pivot_set = set(pivots)
    kernel = []
    for f in keys:
        if f not in pivot_set:
            v = {f: one}
            v.update(below.get(f, ()))
            kernel.append(v)
    return pivots, kernel


def rank(m):
    """Exact rank: the number of rows an insertion echelon takes."""
    echelon = []
    for row in m.to_rows():
        _echelon_insert(echelon, _sparse_row(row))
    return len(echelon)


def rank_and_kernel(m):
    """Rank and a kernel basis in reduced echelon parametrization.

    One kernel vector per free column, free variable set to 1, taken in
    increasing column order.
    """
    pivots, kernel = _rank_and_kernel([_sparse_row(row) for row in m.to_rows()],
                                      range(m.cols), m.field.one)
    zero = m.field.zero
    return len(pivots), [[v.get(j, zero) for j in range(m.cols)] for v in kernel]


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
    last = len(basis)
    aug = [_sparse_row([field.coerce(v[i]) for v in basis] + [field.coerce(target[i])])
           for i in range(n)]
    rref_rows, pivots = _rref(aug)
    if pivots and pivots[-1] == last:
        return None
    coeffs = [field.zero] * last
    for row, p in zip(rref_rows, pivots):
        coeffs[p] = row.get(last, field.zero)
    return coeffs


def _integer_row(values):
    """(integers, den): the rationals in values times den, the lcm of their
    denominators, so that values = integers / den."""
    den = lcm(*(x.denominator for x in values))
    return [x.numerator * (den // x.denominator) for x in values], den


def _bareiss(rows, one=1):
    """(rank, det) of a matrix over Z or Q[a], given as a sequence of rows,
    by fraction-free Bareiss elimination (Bareiss, Math. Comp. 22, 1968).

    Each step replaces every entry right of the pivot column and below the
    pivot row by a 2 x 2 minor with the pivot, divided by the previous
    pivot.  That division is exact, so every entry stays in the ring; a
    nonzero remainder means the elimination is broken and raises
    InternalCheckFailed.  A zero pivot is swapped with a later row,
    flipping the sign, and a column with no pivot is skipped, so the
    matrix may be rectangular and the step count is its rank.  det is the
    sign times the last pivot when the matrix is square with full rank,
    and the ring's zero otherwise; one is the ring's one.  Mutates nothing.

    >>> _bareiss([[1, 2], [3, 4]])
    (2, -2)
    >>> _bareiss([[0, 2, 4], [0, 1, 2]])
    (1, 0)
    >>> _bareiss([])
    (0, 1)
    """
    m = list(rows)
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    sign = 1
    prev = one
    r = 0
    for c in range(ncols):
        pivot_row = m[r]
        pivot = pivot_row[c]
        if not pivot:
            for p in range(r + 1, nrows):
                if m[p][c]:
                    m[r], m[p] = m[p], pivot_row
                    pivot_row = m[r]
                    pivot = pivot_row[c]
                    sign = -sign
                    break
            else:
                continue
        for i in range(r + 1, nrows):
            # each step writes new rows, so the input is never written
            row = m[i]
            f = row[c]
            new = list(row)
            for j in range(c + 1, ncols):
                q, rem = divmod(pivot * row[j] - f * pivot_row[j], prev)
                if rem:
                    raise InternalCheckFailed("Bareiss divisibility violated")
                new[j] = q
            m[i] = new
        prev = pivot
        r += 1
        if r == nrows:
            break
    if r == nrows == ncols:
        return r, sign * prev
    return r, one * 0
