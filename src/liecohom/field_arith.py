"""Exact scalars over Q and Q(a), and every exact elimination in the package.

A scalar is either a `fractions.Fraction` (field Q) or a `RationalFunction`
(field Q(a) for a single named indeterminate).  Both are kept in canonical
form at all times, so two scalars of the same field are equal exactly when
their representations coincide.  Canonical form for a rational function:
numerator and denominator coprime, denominator monic, zero stored as 0/1.
It is kept by a polynomial gcd only where reduction is not already
guaranteed: negation, reciprocals, powers and constants are canonical by
construction, and sums and products of reduced fractions use Henrici's
gcd splitting, which skips every gcd with a constant argument.  Each of
its polynomials, a Poly, stores integer numerators over one positive
integer denominator coprime to their content, so polynomial arithmetic
runs on ints: pseudo-division, and gcds by primitive remainder sequences.

No other module eliminates, and elimination runs on sparse rows: a row is
a dict {key: nonzero scalar} whose lead is min(row), so a step touches
only the entries that are there.  Keys are int positions for Matrix and
dense-vector callers, converted at the boundary, and index tuples for
forms, where the coeffs dict of an ExteriorForm already is a row.  The
engine is two operations.  Row insertion, _echelon_insert, answers
independence and membership: a row lies in the span exactly when it
inserts nothing.  Column insertion, _rank_and_kernel, inserts a matrix's
columns once for its pivots (rank counts them), a sparse kernel and the
echelon of its pivot columns.  Only _echelon and _rank_and_kernel make an
echelon, which other modules hand only to _echelon_insert.  rank,
rank_and_kernel and solve_in_span take and return dense data, and _vector
is the one gate for the length and field of every dense input.
_check_size is the one check that a size (a dimension, a matrix shape) is
a nonnegative integer.  The pivots
and kernel are the reduced row echelon form's, and each row of an
insertion echelon is unique, so these answers are those of any exact
elimination.  No other module looks inside a scalar: _cleared writes
scalars over their least common denominator, in Z or Q[a], for evaluate
and the selftest's rank oracle, and _minor_sum sums evaluate's minors
there, each taken by the one fraction-free kernel _bareiss (rank and
determinant over Z and Q[a]).

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
from decimal import Decimal
from fractions import Fraction
from math import gcd, lcm
from numbers import Integral

from .errors import (
    DimensionMismatch,
    DivisionByZero,
    InternalCheckFailed,
    MixedFields,
    ParseError,
)

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*\Z")


# ---------------------------------------------------------------------------
# polynomials: integer numerators over one denominator

class Poly:
    """Univariate polynomial over Q, stored as integer numerators over one
    denominator: ints ascending with no trailing zero, and denom > 0 and
    coprime to their content, so equal polynomials are stored alike.

    Every operation runs on ints (Knuth, TAOCP vol. 2, 4.6.1): a sum or
    product takes one gcd to restore the form, divmod pseudo-divides, and
    poly_gcd follows a primitive remainder sequence.  coeffs is a read-only
    view of the coefficients as Fractions.
    """

    __slots__ = ("ints", "denom")

    def __init__(self, coeffs=()):
        cs = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        # over the least common denominator the content is coprime to it
        den = lcm(*(c.denominator for c in cs))
        self.ints = tuple(c.numerator * (den // c.denominator) for c in cs)
        self.denom = den

    @classmethod
    def const(cls, c):
        if type(c) is not int and not isinstance(c, Fraction):
            c = Fraction(c)
        if not c:
            return _POLY_ZERO
        if isinstance(c, int):
            return _stored_poly((c,), 1)
        return _stored_poly((c.numerator,), c.denominator)

    @property
    def coeffs(self):
        den = self.denom
        return tuple(Fraction(c, den) for c in self.ints)

    @property
    def degree(self):
        # degree of the zero polynomial is -1 by convention
        return len(self.ints) - 1

    @property
    def is_zero(self):
        return not self.ints

    @property
    def leading(self):
        return Fraction(self.ints[-1], self.denom) if self.ints else Fraction(0)

    def monic(self):
        ints = self.ints
        if not ints or ints[-1] == self.denom:
            return self
        return _monic_ints(ints)

    def __add__(self, other):
        return _poly_sum(self, other, 1)

    def __neg__(self):
        return _stored_poly(tuple(-c for c in self.ints), self.denom)

    def __sub__(self, other):
        return _poly_sum(self, other, -1)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            n = other.numerator
            return _canonical_poly([c * n for c in self.ints], self.denom * other.denominator)
        a, b = self.ints, other.ints
        if len(a) < len(b):
            a, b = b, a
        if len(b) <= 1:
            c = b[0] if b else 0
            return _canonical_poly([x * c for x in a], self.denom * other.denom)
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return _canonical_poly(out, self.denom * other.denom)

    __rmul__ = __mul__

    def __divmod__(self, other):
        b = other.ints
        if not b:
            raise DivisionByZero("polynomial division by zero")
        m = len(b) - 1
        if len(self.ints) <= m:
            return _POLY_ZERO, self
        # s * self.ints = q * b + r, so self = (q db / (s da)) other + r / (s da)
        s, q, r = _pseudo_divide(self.ints, b)
        den = s * self.denom
        db = other.denom
        return _canonical_poly([c * db for c in q], den), _canonical_poly(r, den)

    def __floordiv__(self, other):
        return self.__divmod__(other)[0]

    def __mod__(self, other):
        return self.__divmod__(other)[1]

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.ints == other.ints and self.denom == other.denom

    def __hash__(self):
        return hash((self.ints, self.denom))

    def __bool__(self):
        return not self.is_zero

    def __repr__(self):
        return "Poly(%r)" % (self.coeffs,)


def _stored_poly(ints, den):
    """Wrap a tuple of ints over den, which the caller guarantees canonical."""
    p = object.__new__(Poly)
    p.ints = ints
    p.denom = den
    return p


def _canonical_poly(ints, den):
    """The Poly ints / den for a list of ints and an int den > 0: trailing
    zeros dropped, and one gcd cancelled from the content and den."""
    while ints and not ints[-1]:
        ints.pop()
    if not ints:
        return _POLY_ZERO
    if den != 1:
        g = gcd(den, *ints)
        if g != 1:
            ints = [c // g for c in ints]
            den //= g
    return _stored_poly(tuple(ints), den)


def _poly_sum(p, q, sign):
    """p + sign * q, over the least common multiple of their denominators."""
    a, b, da, db = p.ints, q.ints, p.denom, q.denom
    g = gcd(da, db)
    fa, fb = db // g, sign * (da // g)
    if len(a) < len(b):
        a, fa, b, fb = b, fb, a, fa
    out = list(a) if fa == 1 else [fa * x for x in a]
    for i, y in enumerate(b):
        out[i] += fb * y
    return _canonical_poly(out, da // g * db)


def _pseudo_divide(a, b):
    """(s, q, r) with s * a = q * b + r and len(r) = deg b, for sequences of ints
    a and b with len(a) > deg b.  The remainder is scaled by an int s > 0
    only when the lead of b does not divide its top term, and then only by
    the part of the lead that does not, so a monic b never scales it."""
    m = len(b) - 1
    lead, low = b[m], b[:m]
    r = list(a)
    q = [0] * (len(r) - m)
    s = 1
    for k in range(len(q) - 1, -1, -1):
        c = r.pop()
        if not c:
            continue
        if c % lead:
            f = abs(lead) // gcd(c, lead)
            r = [x * f for x in r]
            q = [x * f for x in q]
            s *= f
            c *= f
        t = c // lead
        q[k] = t
        for j, y in enumerate(low):
            r[k + j] -= t * y
    return s, q, r


def _primitive(ints):
    """Nonzero ints divided by their content."""
    g = gcd(*ints)
    return ints if g == 1 else [c // g for c in ints]


def _monic_ints(ints):
    """The monic Poly of a nonzero tuple or list of ints: over its lead, with
    the content cancelled from both."""
    lead = ints[-1]
    g = gcd(*ints)
    if lead < 0:
        g = -g
    return _stored_poly(tuple(c // g for c in ints), lead // g)


_POLY_ZERO = _stored_poly((), 1)
_POLY_ONE = _stored_poly((1,), 1)


def poly_gcd(a, b):
    """Monic gcd by a primitive remainder sequence: Euclid's algorithm on
    integer numerators, each pseudo-remainder divided by its content."""
    x, y = a.ints, b.ints
    if not y:
        return a.monic()
    if not x:
        return b.monic()
    if len(x) < len(y):
        x, y = y, x
    y = _primitive(y)
    while len(y) > 1:
        r = _pseudo_divide(x, y)[2]
        while r and not r[-1]:
            r.pop()
        if not r:
            return _monic_ints(y)
        x, y = y, _primitive(r)
    return _POLY_ONE


def _poly_str(p, var):
    if p.is_zero:
        return "0"
    parts = []
    coeffs = p.coeffs
    for e in range(p.degree, -1, -1):
        c = coeffs[e]
        if not c:
            continue
        mag = -c if c < 0 else c
        if e == 0:
            body = _rational_text(mag)
        else:
            stem = var if e == 1 else "%s^%d" % (var, e)
            body = stem if mag == 1 else "%s*%s" % (_rational_text(mag), stem)
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
        # num/1 and den/1 are canonical, and division keeps the form
        value = RationalFunction._reduced(var, num) / RationalFunction._reduced(var, den)
        self.var = var
        self.num = value.num
        self.den = value.den

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
        return hash((self.var, self.num, self.den))

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
        return _rational_text(value)
    if isinstance(value, RationalFunction):
        return str(value)
    raise TypeError("not a scalar: %r" % (value,))


# str() and int() refuse integers of more than sys.get_int_max_str_digits()
# digits; decimal converts exactly at any length, so it takes over past that.

def _rational_text(x):
    """str(x) of an int or Fraction, at any length."""
    try:
        return str(x)
    except ValueError:
        num = str(Decimal(x.numerator))
        return num if x.denominator == 1 else "%s/%s" % (num, Decimal(x.denominator))


def _int_of_digits(digits):
    """The int that a string of ASCII digits spells, at any length."""
    try:
        return int(digits)
    except ValueError:
        return int(Decimal(digits))


# ---------------------------------------------------------------------------
# scalar text parser (recursive descent)

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*/^()]))",
    re.ASCII,
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
                if text[pos:].strip(" \t\n\r\f\v"):
                    raise ParseError(
                        "unexpected character %r in scalar %r" % (text[pos], text)
                    )
                break
            if m.group("int") is not None:
                self.items.append(("int", _int_of_digits(m.group("int"))))
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
        _cap_unreduced_degree(value, op, rhs)
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
            raise ParseError("exponent %s too large (nested exponents multiply)"
                             % _rational_text(chain))
        _cap_unreduced_degree(base, "^", val)
        base = base**val
    toks.chain = max(outer, chain)
    return base


def _cap_unreduced_degree(lhs, op, rhs):
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
# sizes, dense vectors and matrices

def _integral(value):
    """True for an integer that is not a bool: JSON true and false load as
    Python bools, and a float such as 3.0 is no index."""
    return isinstance(value, Integral) and not isinstance(value, bool)


def _check_size(n, what):
    """n as an int: DimensionMismatch unless it is a nonnegative integer
    (_integral).  what names the size in the message."""
    if not _integral(n) or n < 0:
        raise DimensionMismatch("%s must be a nonnegative integer" % what)
    return int(n)


def _vector(field, values, length, what):
    """values, a sequence, as a list in field: DimensionMismatch unless it
    has length entries, then MixedFields (Field.coerce) at the first entry
    outside the field.  what names the vector in the message."""
    if len(values) != length:
        raise DimensionMismatch("%s of length %d, expected %d" % (what, len(values), length))
    return [field.coerce(x) for x in values]


def _check_index(i, size, what):
    """DimensionMismatch unless 0 <= i < size: a Matrix reader's index."""
    if not 0 <= i < size:
        raise DimensionMismatch("%s index %r outside 0..%d" % (what, i, size - 1))


class Matrix:
    """Immutable dense matrix over a single field; entries row-major.

    A container with no matrix algebra: ranks, kernels, solving in a span
    and quotient projections come from the engine on its rows made sparse.
    """

    __slots__ = ("field", "rows", "cols", "entries")

    def __init__(self, field, rows, cols, entries):
        rows = _check_size(rows, "matrix row count")
        cols = _check_size(cols, "matrix column count")
        self.field = field
        self.rows = rows
        self.cols = cols
        self.entries = tuple(_vector(field, entries, rows * cols, "entry list"))

    @classmethod
    def from_rows(cls, field, rows, cols=None):
        if cols is None:
            cols = len(rows[0]) if rows else 0
        cols = _check_size(cols, "matrix column count")
        flat = [x for r in rows for x in _vector(field, r, cols, "matrix row")]
        return cls(field, len(rows), cols, flat)

    @property
    def shape(self):
        return (self.rows, self.cols)

    def entry(self, i, j):
        _check_index(i, self.rows, "row")
        _check_index(j, self.cols, "column")
        return self.entries[i * self.cols + j]

    def row(self, i):
        _check_index(i, self.rows, "row")
        return list(self.entries[i * self.cols : (i + 1) * self.cols])

    def col(self, j):
        _check_index(j, self.cols, "column")
        return [self.entries[i * self.cols + j] for i in range(self.rows)]

    def to_rows(self):
        return [self.row(i) for i in range(self.rows)]

    def mul_vec(self, vec):
        vec = _vector(self.field, vec, self.cols, "vector")
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


def _subtract(row, c, other):
    """row -= c * other in place, deleting entries that cancel: the one loop
    that takes a multiple of an echelon row off a row or a combination."""
    get = row.get
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


def _echelon_insert(echelon, row):
    """Append row reduced against the echelon, its lead scaled to 1, unless
    it reduces to zero; return the appended row, or None exactly when row
    lies in the span.  An echelon is a list of (lead, row) pairs, each row
    1 at its lead and without the earlier leads.  Mutates only the echelon."""
    row = dict(row)
    get = row.get
    for lead, other in echelon:
        c = get(lead)
        if c is not None:
            _subtract(row, c, other)
    if not row:
        return None
    lead = min(row)
    x = row[lead]
    if x != 1:
        row = {key: a / x for key, a in row.items()}
    echelon.append((lead, row))
    return row


def _echelon(rows=()):
    """A new echelon with rows inserted in order."""
    echelon = []
    for row in rows:
        _echelon_insert(echelon, row)
    return echelon


def _rank_and_kernel(columns, one):
    """(echelon, pivots, kernel) of a matrix's columns {key: engine row},
    inserted in order, each echelon row carrying the combination of columns
    it is: a column f that reduces to zero gives the kernel vector 1 at f
    minus its combination of earlier pivots.  Mutates nothing."""
    echelon, combos, pivots, kernel = [], [], [], []
    for f, column in columns.items():
        row, combo = dict(column), {}
        for (lead, other), other_combo in zip(echelon, combos):
            c = row.get(lead)
            if c is not None:
                _subtract(row, c, other)
                _subtract(combo, c, other_combo)
        combo[f] = one
        if not row:
            kernel.append(combo)
            continue
        lead = min(row)
        x = row[lead]
        if x != 1:
            row = {key: a / x for key, a in row.items()}
            combo = {key: a / x for key, a in combo.items()}
        echelon.append((lead, row))
        combos.append(combo)
        pivots.append(f)
    return echelon, pivots, kernel


def rank(m):
    """Exact rank: the pivot count of the column insertion."""
    return rank_and_kernel(m)[0]


def rank_and_kernel(m):
    """Rank and a kernel basis in reduced echelon parametrization.

    One kernel vector per free column, free variable set to 1, taken in
    increasing column order.
    """
    _, pivots, kernel = _rank_and_kernel({j: _sparse_row(m.col(j)) for j in range(m.cols)},
                                         m.field.one)
    zero = m.field.zero
    return len(pivots), [[v.get(j, zero) for j in range(m.cols)] for v in kernel]


def solve_in_span(basis, target, field):
    """Exact coefficients in field expressing target in the span of basis, else None.

    When the basis is linearly dependent the particular solution with all
    free coefficients zero is returned.  Not being in the span is an
    answer, not an error.  The basis and then the target are the columns of
    one _rank_and_kernel, and the target's kernel vector is minus the answer.
    """
    n = len(target)
    columns = {j: _sparse_row(_vector(field, v, n, "span vector"))
               for j, v in enumerate([*basis, target])}
    _, pivots, kernel = _rank_and_kernel(columns, field.one)
    if len(basis) in pivots:
        return None
    v = kernel[-1]
    return [-v[j] if j in v else field.zero for j in range(len(basis))]


def _cleared(field, values):
    """(entries, den) with values = entries / den, the entries in Z or Q[a]
    and den their least common denominator: an int, or a monic Poly over Q(a)."""
    if field.is_rationals:
        den = lcm(*(x.denominator for x in values))
        return [x.numerator * (den // x.denominator) for x in values], den
    den = _POLY_ONE
    for x in values:
        den = den * (x.den // poly_gcd(den, x.den))
    return [x.num * (den // x.den) for x in values], den


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


def _minor_sum(field, terms, den):
    """The sum of c * det(rows) over the (c, rows) pairs in terms, over den,
    as one scalar of field; c, den and the rows' entries lie in Z or Q[a],
    as _cleared leaves them, and each det is one _bareiss call."""
    one = 1 if field.is_rationals else _POLY_ONE
    total = one * 0
    for c, rows in terms:
        total = total + c * _bareiss(rows, one)[1]
    if field.is_rationals:
        return Fraction(total, den)
    return RationalFunction(field.var, total, den)
