"""Exact scalar arithmetic for the three supported coefficient domains.

A scalar lives in one of:

  * the rationals,
  * a real number field  Q[x]/(p)  with a designated real root of p, or
  * the field of rational functions in one positive real parameter.

All values are kept in canonical form:

  * a rational is a ``Fraction`` in lowest terms;
  * a number-field element, reduced modulo the minimal polynomial of
    degree d, is a tuple of Python ints ``(den, c0, ..., c_{d-1})`` meaning
    (c0 + c1 x + ... + c_{d-1} x^{d-1}) / den, with ``den > 0`` and
    ``math.gcd(den, c0, ..., c_{d-1}) == 1``; zero is ``(1, 0, ..., 0)``;
  * a rational function is a pair ``(num, den)`` of Python int tuples,
    lowest degree first, coprime in Q[x], with the gcd of all their
    coefficients 1 and ``den[-1] > 0``; zero is ``((), (1,))``.

A rational's payload is its ``Fraction``; any other payload is the int
that names its tuple in the value table of its field (hash-consing).  So
scalar equality is payload equality, and a payload is false exactly when
its value is zero.  Only this module knows the payload layouts.
Elsewhere a payload is opaque: the matrix product hands payloads to the
domain's own operations, and ``rational_rows`` expands a linear equation
into rational equations.

Scalars are read and written in a small expression grammar:

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := base ('^' integer)?
    base   := rational | symbol | '(' expr ')'

where ``symbol`` is the generator/parameter name declared by the domain.
"""

from __future__ import annotations

import math
import re
import sys
import weakref
from decimal import Decimal, localcontext
from fractions import Fraction

__all__ = [
    "DomainMismatchError",
    "IndeterminateSignError",
    "NumberFieldDomain",
    "RationalDomain",
    "RationalFunctionDomain",
    "Scalar",
    "ScalarDomain",
    "ScalarSyntaxError",
    "parse_scalar",
]

_F0 = Fraction(0)
PAIR_MEMO_LIMIT = 4096  # entries per product, sum or negation table of a domain
_TABLES = weakref.WeakValueDictionary()  # field definition -> its value table


class ScalarSyntaxError(ValueError):
    """Raised on malformed scalar text; carries the offending position."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class DomainMismatchError(TypeError):
    """Raised when an operation mixes scalars from different domains."""


class IndeterminateSignError(ArithmeticError):
    """Raised when a parameter-field sign cannot be decided symbolically."""


# ---------------------------------------------------------------------------
# polynomial helpers over Fraction or int coefficient tuples (low degree first)
# ---------------------------------------------------------------------------

def _ptrim(coeffs):
    n = len(coeffs)
    while n and not coeffs[n - 1]:
        n -= 1
    return tuple(coeffs[:n])


def _padd(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return _ptrim(out)


def _pneg(a):
    return tuple(-c for c in a)


def _pmul(a, b):
    if not a or not b:
        return ()
    if len(a) == 1:
        a, b = b, a
    if len(b) == 1:
        c = b[0]
        return a if c == 1 else tuple(c * x for x in a)
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return _ptrim(out)


def _peval(coeffs, x):
    acc = _F0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _zsign(coeffs, x):
    """The sign of the int polynomial at the rational x = n/d: that of
    d^deg times its value, by Horner's rule in ints."""
    acc, scale = 0, 1
    for c in reversed(coeffs):
        acc, scale = acc * x.numerator + c * scale, scale * x.denominator
    return (acc > 0) - (acc < 0)


# ---------------------------------------------------------------------------
# polynomial helpers over int coefficient tuples (low degree first); every
# argument is nonzero and trimmed
# ---------------------------------------------------------------------------

def _zdiv(a, b):
    """a / b where b divides a in Z[x]: long division, every step exact."""
    if b == (1,):
        return a
    rem = list(a)
    lead, top = b[-1], len(b) - 1
    quot = [0] * (len(a) - top)
    for k in range(len(quot) - 1, -1, -1):
        c = rem[k + top] // lead
        if c:
            quot[k] = c
            for i, bi in enumerate(b, k):
                rem[i] -= c * bi
    return tuple(quot)


def _zprimitive(a):
    """a divided by its content, with a positive leading coefficient."""
    g = math.gcd(*a)
    if a[-1] < 0:
        g = -g
    return a if g == 1 else tuple(c // g for c in a)


def _zprem(a, b):
    """A positive integer multiple of  a mod b, so that a Sturm chain built
    from it keeps its signs."""
    rem = list(a)
    lead, top = b[-1], len(b) - 1
    while len(rem) > top:
        c = rem[-1]
        g = math.gcd(c, lead) if lead > 0 else -math.gcd(c, lead)
        scale, factor = lead // g, c // g
        if scale != 1:
            rem = [x * scale for x in rem]
        for i, bi in enumerate(b, len(rem) - len(b)):
            rem[i] -= factor * bi
        rem = list(_ptrim(rem))
    return tuple(rem)


def _zgcd(a, b):
    """The gcd in Q[x] of a and b, as a primitive int polynomial with a
    positive leading coefficient.

    Powers of x come out first, so a gcd with a constant or a monomial
    takes no Euclid step; the rest is Euclid on primitive
    pseudo-remainders (Knuth, TAOCP 2, section 4.6.1).
    """
    va = vb = 0
    while not a[va]:
        va += 1
    while not b[vb]:
        vb += 1
    power = (0,) * min(va, vb)
    a, b = a[va:], b[vb:]
    if len(a) < len(b):
        a, b = b, a
    while len(b) > 1:
        rem = _zprem(a, b)
        if not rem:
            return power + _zprimitive(b)
        a, b = b, _zprimitive(rem)
    return power + (1,)


def _variations(values):
    """The sign changes along a sequence of numbers, zeros skipped."""
    signs = [v > 0 for v in values if v]
    return sum(s != t for s, t in zip(signs, signs[1:]))


def _zsturm_count(p, lo=None, hi=None, q=(1,)):
    """The sum of sign q(x) over the distinct real roots x of p in (lo, hi]
    (their number for q = 1), for rational ends or None, which stands for
    -inf as lo and for +inf as hi; for q other than 1, no end is a root.

    The Sturm-Tarski theorem (Basu, Pollack & Roy, Algorithms in Real
    Algebraic Geometry, section 2.2): it is the drop in sign variations from
    lo to hi along the chain p, r = p' q mod p, -rem(p, r), ..., built from
    positive multiples of remainders and divided by its last member gcd(p, r).
    """
    chain = [p, _zprem(_pmul(tuple(k * c for k, c in enumerate(p))[1:], q), p)]
    while len(chain[-1]) > 1:
        rem = _zprem(chain[-2], chain[-1])
        if not rem:
            last = _zprimitive(chain[-1])
            chain = [_zdiv(f, last) for f in chain]
            break
        g = math.gcd(*rem)
        chain.append(tuple(-c // g for c in rem))
    at_lo = [f[-1] * (-1) ** (len(f) - 1) if lo is None else _zsign(f, lo)
             for f in chain if f]
    at_hi = [f[-1] if hi is None else _zsign(f, hi) for f in chain if f]
    return _variations(at_lo) - _variations(at_hi)


def _as_fraction(value):
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, (str, Decimal)):
        return Fraction(str(value))
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def _fraction_to_decimal(value, precision):
    with localcontext() as ctx:
        ctx.prec = precision + 5
        return Decimal(value.numerator) / Decimal(value.denominator)


def sample_text(value):
    """A rational value to six significant digits in the style of "%g",
    correctly rounded from the exact value, so 10^-5000 prints as
    "1e-5000" (float() would underflow to 0)."""
    value = Fraction(value)
    with localcontext() as ctx:
        ctx.prec = 6
        text = f"{Decimal(value.numerator) / Decimal(value.denominator):g}"
    mantissa, e, exponent = text.partition("e")
    if "." in mantissa:
        mantissa = mantissa.rstrip("0").rstrip(".")
    return mantissa + e + exponent


def require_writable(value, what):
    """Refuse a rational with more digits than Python converts to text
    (``sys.get_int_max_str_digits()``), in the tool's own words."""
    limit = sys.get_int_max_str_digits()
    for part, n in (("numerator", abs(value.numerator)),
                    ("denominator", value.denominator)):
        if limit and n >= 10 ** limit:
            raise ValueError(f"{what} {sample_text(value)} has a "
                             f"{Decimal(n).adjusted() + 1}-digit {part}; "
                             f"exact texts allow at most {limit} digits")


def require_readable(text, what):
    """Refuse a text with a number of more digits than Python converts from
    text (``sys.get_int_max_str_digits()``), in the tool's own words."""
    limit = sys.get_int_max_str_digits()
    run = max(map(len, re.findall("[0-9]+", text)), default=0)
    if limit and run > limit:
        raise ValueError(f"{what} has a {run}-digit number; exact texts "
                         f"allow at most {limit} digits")


def _poly_text(coeffs, symbol):
    """Render a coefficient tuple as grammar text, highest power first."""
    if not coeffs:
        return "0"
    pieces = []
    try:
        for k in range(len(coeffs) - 1, -1, -1):
            c = coeffs[k]
            if not c:
                continue
            if k == 0:
                body = str(abs(c))
            else:
                base = symbol if k == 1 else f"{symbol}^{k}"
                body = base if abs(c) == 1 else f"{abs(c)}*{base}"
            if not pieces:
                pieces.append(("-" if c < 0 else "") + body)
            else:
                pieces.append((" - " if c < 0 else " + ") + body)
    except ValueError:  # str() of an int past the limit
        for c in coeffs:
            require_writable(c, "the exact coefficient")
        raise
    return "".join(pieces)


def _poly_term_count(coeffs):
    return sum(1 for c in coeffs if c)


# ---------------------------------------------------------------------------
# domains
# ---------------------------------------------------------------------------

class _ValueTable(list):
    """The canonical tuples of one field definition, each at the index that
    is its payload; ``ids`` maps each tuple to its payload."""

    def __init__(self, zero):
        super().__init__([zero])
        self.ids = {zero: 0}


class ScalarDomain:
    """Base class for the three coefficient domains.

    Each domain instance memoises the inverse, the sign and the text of the
    values it has seen, keyed by payload (``sign_of`` and ``text_of`` serve
    Scalars and payload readers alike), their floats per parameter sample
    (``triples.float_array``), the payload of each grammar text it has
    parsed, each negation (``_neg`` over ``_negative``), and each product
    and sum (``_mul`` and ``_add`` over ``_product`` and ``_sum``), keyed by
    the ordered payload pair, so each distinct one is computed once.  The
    memos live as long as the domain, which one document owns.  Symmetric
    inputs repeat a few values: a dodecahedron report makes 3,148 products
    of 99 distinct pairs, the atlas of the 60-chart truncated dodecahedron
    22,966 of 230.  Without
    repeats, a negation or pair table is cleared at ``PAIR_MEMO_LIMIT``
    entries.  Hashing a pair of Fractions costs what multiplying them does,
    so ``RationalDomain`` keeps no such memo.  A call that raises (a zero
    inverse, an undecidable sign, a factor shared with a reducible
    ``min_poly``, a malformed text, a value with no finite float) stores
    nothing, so the next call raises again.

    A number-field or parameter-field payload is the int that ``_intern``
    gives a canonical tuple in the value table of the field's definition
    (Filliatre & Conchon, "Type-safe modular hash-consing", 2006).  Equal
    instances alive at one time share that table, but not their memos:
    equal domains are those with one table, and the last of them frees it.
    It keeps every value made, about 320 bytes each: 22,007 for a
    polytope-60 walk without repeated values.
    """

    kind = "abstract"
    generator_symbol: str | None = None

    def __init__(self):
        self._inverses = {}
        self._signs = {}
        self._texts = {}
        self._parsed = {}   # grammar text -> payload, for scalar(str)
        self._products = {}  # (a, b) -> a * b
        self._sums = {}      # (a, b) -> a + b
        self._negations = {}  # a -> -a
        self._floats = {}    # parameter sample -> {payload: float}

    def _share_values(self, definition, zero):
        """Take the value table of the field definition, which the equal
        instances alive share, and hash by the definition."""
        self._hash = hash(definition)
        self._values = _TABLES.setdefault(definition, _ValueTable(zero))

    def __eq__(self, other):
        return self is other or getattr(other, "_values", None) is self._values

    def __hash__(self):
        return self._hash

    def _intern(self, value):
        """The payload that names a canonical tuple."""
        i = self._values.ids.setdefault(value, len(self._values))
        if i == len(self._values):
            self._values.append(value)
        return i

    def _memo(self, table, compute, a):
        """table[a], computed as compute(a) on the first call."""
        value = table.get(a)
        if value is None:
            value = table[a] = compute(a)
        return value

    def text_of(self, a):
        """The canonical text of payload a, memoised."""
        return self._memo(self._texts, self._text, a)

    def sign_of(self, a):
        """The exact sign of payload a, in {-1, 0, 1}, memoised."""
        return self._memo(self._signs, self._sign, a)

    def _as_integer(self, a):
        """The value of payload a as an int if it is an integer, else None."""
        q = self._as_rational(a)
        return q.numerator if q is not None and q.denominator == 1 else None

    # -- construction ------------------------------------------------------

    def scalar(self, value) -> "Scalar":
        """Coerce an int, Fraction, decimal string, or grammar text."""
        if isinstance(value, Scalar):
            if value.domain is not self and value.domain != self:
                raise DomainMismatchError(
                    f"scalar from {value.domain.describe()} used in {self.describe()}")
            return value
        if isinstance(value, str):
            payload = self._parsed.get(value)
            if payload is None:
                payload = self._parsed[value] = parse_scalar(value, self).payload
            return Scalar(self, payload)
        return Scalar(self, self._from_fraction(_as_fraction(value)))

    def zero(self) -> "Scalar":
        return self.scalar(0)

    def one(self) -> "Scalar":
        return self.scalar(1)

    def generator(self) -> "Scalar":
        raise ValueError(f"{self.describe()} has no generator symbol")

    def describe(self) -> str:
        raise NotImplementedError

    # -- payload operations ------------------------------------------------
    # Each domain defines _from_fraction(q), _inv(a), _text(a), _sign(a),
    # _eval(a, precision, parameter_sample), _as_rational(a) (the value as a
    # Fraction if it is rational, else None), _power_growth(a) (g, e such
    # that for k >= 1 the ints of a^k have at most k g + 1 digits and its
    # degree in the parameter is k e) and, under the memos of _add, _mul
    # and _neg, _sum(a, b), _product(a, b) and _negative(a).

    def _add(self, a, b):
        value = self._sums.get((a, b))
        if value is None:
            if len(self._sums) >= PAIR_MEMO_LIMIT:
                self._sums.clear()
            value = self._sums[a, b] = self._sum(a, b)
        return value

    def _mul(self, a, b):
        value = self._products.get((a, b))
        if value is None:
            if len(self._products) >= PAIR_MEMO_LIMIT:
                self._products.clear()
            value = self._products[a, b] = self._product(a, b)
        return value

    def _neg(self, a):
        value = self._negations.get(a)
        if value is None:
            if len(self._negations) >= PAIR_MEMO_LIMIT:
                self._negations.clear()
            value = self._negations[a] = self._negative(a)
        return value

    def rational_rows(self, coefficients, target):
        """Expand  sum coefficients[l] * m_l = target  into rational equations.

        Returns (row, rhs) pairs with Fraction entries whose solutions in
        rational m are exactly those of the equation over this domain.
        """
        raise NotImplementedError


class RationalDomain(ScalarDomain):
    """The field of rational numbers."""

    kind = "rational"

    def describe(self):
        return "rational numbers"

    def __eq__(self, other):
        return isinstance(other, RationalDomain)

    def __hash__(self):
        return hash(("rational",))

    def __repr__(self):
        return "RationalDomain()"

    def _from_fraction(self, q):
        return q

    def _add(self, a, b):
        return a + b

    def _neg(self, a):
        return -a

    def _mul(self, a, b):
        return a * b

    def _inv(self, a):
        if not a:
            raise ZeroDivisionError("inversion of zero scalar")
        return 1 / a

    def _text(self, a):
        try:
            return str(a)
        except ValueError:  # str() of an int past the limit
            require_writable(a, "the exact value")
            raise

    def _as_rational(self, a):
        return a

    def _power_growth(self, a):
        return math.log10(max(abs(a.numerator), a.denominator)), 0

    def rational_rows(self, coefficients, target):
        return [([c.payload for c in coefficients], target.payload)]

    def _sign(self, a):
        return (a > 0) - (a < 0)

    def _eval(self, a, precision, parameter_sample=None):
        return _fraction_to_decimal(a, precision)


class NumberFieldDomain(ScalarDomain):
    """Q[x]/(p) embedded at a designated real root of the monic poly p.

    ``min_poly`` lists coefficients from the constant term up and must be
    monic of degree >= 2 and square-free.  ``embedding_approx`` is a decimal
    close enough to the intended root, which must be irrational, to isolate
    it: a Sturm count proves it alone in the interval, a sign is one
    Sturm-Tarski count on it, and exact bisection narrows it for values.

    The element  (c0 + c1 x + ... + c_{d-1} x^{d-1}) / den  of Q[x]/(p),
    d = deg(p), is the tuple ``(den, c0, ..., c_{d-1})`` of Python ints
    with ``den > 0`` and ``math.gcd(den, c0, ..., c_{d-1}) == 1``; zero is
    ``(1, 0, ..., 0)``.  The form is unique, so payloads are equal exactly
    for equal values.  A product is an integer convolution reduced by
    integer rows for x^d .. x^(2d-2) over one common denominator, then
    divided by one gcd (Cohen, GTM 138, section 4.2).

    The inverse is the extended Euclidean algorithm in Z[x] on p's integer
    multiple and the numerator c: pseudo-remainders, each carrying a
    cofactor s with  r = s c mod p,  both cut to their common content,
    until r is a constant and c^-1 = s / r (Cohen, GTM 138, sections
    3.2-3.3).  A remainder 0 before a constant makes c a zero divisor, so
    p is reducible, and the inverse raises ValueError; so do sign and
    value when c is nonzero but its value is zero.
    """

    kind = "number_field"

    def __init__(self, min_poly, generator_symbol, embedding_approx):
        super().__init__()
        coeffs = tuple(_as_fraction(c) for c in min_poly)
        coeffs = _ptrim(coeffs)
        if len(coeffs) < 3:
            raise ValueError("min_poly must have degree >= 2")
        if coeffs[-1] != 1:
            raise ValueError("min_poly must be monic")
        self.min_poly = coeffs
        self.degree = len(coeffs) - 1
        lcm = math.lcm(*(c.denominator for c in coeffs))
        zp = self._zpoly = tuple(int(c * lcm) for c in coeffs)
        if len(_zgcd(zp, tuple(k * c for k, c in enumerate(zp))[1:])) > 1:
            raise ValueError("min_poly must be square-free")
        self.generator_symbol = generator_symbol
        self.embedding_approx = _as_fraction(embedding_approx)
        self._share_values((self.kind, self.min_poly, generator_symbol,
                            self.embedding_approx), (1,) + (0,) * self.degree)
        # reduction rows for x^deg .. x^(2 deg - 2): each is x times the
        # one before, its top coefficient reduced by the row of x^deg
        rows = [tuple(-c for c in coeffs[:-1])]
        for _ in range(self.degree - 2):
            top, low = rows[-1][-1], (_F0,) + rows[-1][:-1]
            rows.append(tuple(s + top * r for s, r in zip(low, rows[0])))
        # ... kept as integer rows over their common denominator
        scale = math.lcm(*(c.denominator for row in rows for c in row))
        self._reduction_scale = scale
        self._reduction = [tuple(int(c * scale) for c in row) for row in rows]
        # one product of numerators a, b has ints of at most
        # d |a| |b| (scale + the largest column sum of |reduction|)
        self._growth = self.degree * (scale + max(
            map(sum, zip(*([abs(r) for r in row] for row in self._reduction)))))
        self._isolate_root()

    def _isolate_root(self):
        approx = self.embedding_approx
        for exponent in range(12, -1, -1):
            radius = Fraction(1, 10 ** exponent)
            lo, hi = approx - radius, approx + radius
            signs = [_zsign(self._zpoly, x) for x in (lo, approx, hi)]
            if 0 in signs:
                root = (lo, approx, hi)[signs.index(0)]
                raise ValueError(f"min_poly has the rational root {root} next "
                                 "to embedding_approx")
            if signs[0] != signs[2]:
                self._root_lo, self._root_hi, self._root_sign = lo, hi, signs[0]
                for _ in range(40):
                    self._bisect_once()
                if _zsturm_count(self._zpoly, self._root_lo, self._root_hi) != 1:
                    raise ValueError("embedding_approx does not isolate one "
                                     "irrational root of min_poly")
                return
        raise ValueError("embedding_approx does not isolate a real root of min_poly")

    def _bisect_once(self):
        """Halve the cached isolating interval and return it; min_poly keeps
        its sign at the lower end, so only the midpoint is evaluated."""
        mid = (self._root_lo + self._root_hi) / 2
        sign = _zsign(self._zpoly, mid)
        if not sign:
            self._root_lo = self._root_hi = mid
        elif sign == self._root_sign:
            self._root_lo = mid
        else:
            self._root_hi = mid
        return self._root_lo, self._root_hi

    def root_interval(self, width):
        """Shrink and return the cached isolating interval to the given width."""
        while self._root_hi - self._root_lo > width:
            self._bisect_once()
        return self._root_lo, self._root_hi

    def describe(self):
        return (f"number field Q({self.generator_symbol}), "
                f"min_poly {_poly_text(self.min_poly, 'x')}")

    def __repr__(self):
        return (f"NumberFieldDomain({list(self.min_poly)}, "
                f"{self.generator_symbol!r}, {float(self.embedding_approx)})")

    def generator(self):
        return Scalar(self, self._intern((1, 0, 1) + (0,) * (self.degree - 2)))

    def _canonical(self, den, coeffs):
        """The payload of  coeffs / den  for den > 0."""
        g = math.gcd(den, *coeffs)
        if g == 1:
            return self._intern((den, *coeffs))
        return self._intern((den // g, *(c // g for c in coeffs)))

    def _fractions(self, a):
        """The coefficients of payload a as Fractions, constant term first."""
        den, *coeffs = self._values[a]
        return tuple(Fraction(c, den) for c in coeffs)

    def _from_fraction(self, q):
        return self._intern((q.denominator, q.numerator) + (0,) * (self.degree - 1))

    def _sum(self, a, b):
        if not a:
            return b
        if not b:
            return a
        a, b = self._values[a], self._values[b]
        da, db = a[0], b[0]
        if da == db:
            return self._canonical(da, [x + y for x, y in zip(a[1:], b[1:])])
        return self._canonical(da * db, [x * db + y * da for x, y in zip(a[1:], b[1:])])

    def _negative(self, a):
        a = self._values[a]
        return self._intern((a[0], *(-x for x in a[1:])))

    def _scale(self, i, a, num, den):
        """Payload i, of value a, times num/den in lowest terms."""
        if num == den:
            return i
        return self._canonical(a[0] * den, [x * num for x in a[1:]])

    def _product(self, i, j):
        a, b = self._values[i], self._values[j]
        # rational factors skip the convolution entirely
        if not any(a[2:]):
            return self._scale(j, b, a[1], a[0])
        if not any(b[2:]):
            return self._scale(i, a, b[1], b[0])
        deg = self.degree
        acc = [0] * (2 * deg - 1)
        bc = b[1:]
        for i, ai in enumerate(a[1:]):
            if ai:
                for j, bj in enumerate(bc, i):
                    acc[j] += ai * bj
        scale = self._reduction_scale
        low = acc[:deg] if scale == 1 else [c * scale for c in acc[:deg]]
        for c, row in zip(acc[deg:], self._reduction):
            if c:
                for i, r in enumerate(row):
                    low[i] += c * r
        return self._canonical(a[0] * b[0] * scale, low)

    def _inv(self, payload):
        if not payload:
            raise ZeroDivisionError("inversion of zero scalar")
        deg, (den, *c) = self.degree, self._values[payload]
        r0, s0, r1, s1 = self._zpoly, [], _ptrim(c), [1]
        while len(r1) > 1:
            # pseudo-divide r0 by r1, scaling the cofactor alongside
            rem, s, lead = list(r0), s0 + [0] * (deg - len(s0)), r1[-1]
            while len(rem) >= len(r1):
                g = math.gcd(rem[-1], lead)
                scale, factor, k = lead // g, rem[-1] // g, len(rem) - len(r1)
                rem, s = [x * scale for x in rem], [x * scale for x in s]
                for i, y in enumerate(r1, k):
                    rem[i] -= factor * y
                for i, y in enumerate(s1, k):
                    s[i] -= factor * y
                rem = list(_ptrim(rem))
            if not rem:  # c shares a factor with min_poly: a zero divisor
                self._refuse_factor(payload)
            g = math.gcd(*rem, *s)
            r0, s0 = r1, s1
            r1, s1 = [x // g for x in rem], [x // g for x in _ptrim(s)]
        # r1 is the constant r = s1 c, so (c / den)^-1 = den s1 / r
        r, den = r1[0], den if r1[0] > 0 else -den
        return self._canonical(abs(r), [den * x for x in s1] + [0] * (deg - len(s1)))

    def _text(self, a):
        return _poly_text(_ptrim(self._fractions(a)), self.generator_symbol)

    def _as_rational(self, a):
        a = self._values[a]
        if any(a[2:]):
            return None
        return Fraction(a[1], a[0])

    def _as_integer(self, a):
        a = self._values[a]
        return a[1] if a[0] == 1 and not any(a[2:]) else None

    def _power_growth(self, a):
        a = self._values[a]
        # a rational factor skips the convolution and its reduction
        growth = self._growth if any(a[2:]) else 1
        return math.log10(growth * max(map(abs, a))), 0

    def rational_rows(self, coefficients, target):
        columns = [self._fractions(c.payload) for c in coefficients]
        rhs = self._fractions(target.payload)
        return [([column[t] for column in columns], rhs[t])
                for t in range(self.degree)]

    def _refuse_factor(self, a):
        """Refuse the nonzero payload a of value zero, or a zero divisor."""
        g = _zgcd(_ptrim(self._values[a][1:]), self._zpoly)
        raise ValueError(
            f"min_poly {_poly_text(self._zpoly, 'x')} is reducible: its factor "
            f"{_poly_text(g, 'x')} divides the numerator of {self._text(a)}")

    def _sign(self, a):
        # the denominator is positive: the sign is the numerator's at the root
        sign = _zsturm_count(self._zpoly, self._root_lo, self._root_hi,
                             _ptrim(self._values[a][1:]))
        if a and not sign:  # a nonzero payload of value zero
            self._refuse_factor(a)
        return sign

    def _eval(self, a, precision, parameter_sample=None):
        rational = self._as_rational(a)
        if rational is not None:
            return _fraction_to_decimal(rational, precision)
        self.sign_of(a)  # refuses a nonzero payload of value zero
        # bounds on the numerator by interval Horner in ints: the ends over
        # their common denominator (scale), and after step k the bounds
        # times scale^k (power); the relative-width test does not see den
        den, coeffs = self._values[a][0], _ptrim(self._values[a][1:])
        lo, hi = self.root_interval(Fraction(1, 10 ** (precision + 2)))
        while True:
            scale = math.lcm(lo.denominator, hi.denominator)
            ends = [x.numerator * (scale // x.denominator) for x in (lo, hi)]
            vlo = vhi = coeffs[-1]
            power = 1
            for c in reversed(coeffs[:-1]):
                power *= scale
                prods = [v * x for v in (vlo, vhi) for x in ends]
                vlo, vhi = min(prods) + c * power, max(prods) + c * power
            mag = max(abs(vlo), abs(vhi))
            if mag and (vhi - vlo) * 10 ** precision <= mag:
                return _fraction_to_decimal(Fraction(vlo + vhi, 2 * den * power),
                                            precision)
            lo, hi = self._bisect_once()


class RationalFunctionDomain(ScalarDomain):
    """Rational functions in one parameter, assumed to be a positive real.

    A value is the pair ``(num, den)`` of two tuples of Python ints, lowest
    degree first: num and den are coprime in Q[x], the gcd of all their
    coefficients is 1 and ``den[-1] > 0``; zero is ``((), (1,))``.  The
    form is unique, so payloads are equal exactly for equal values; text
    shows the denominator monic.  Every sum and product is cancelled by one
    gcd of its numerator and denominator, then by their content
    (``_canonical``); a sum over equal denominators is taken over the one
    denominator, not their product.  Constants and powers of the parameter
    need no Euclid step.

    A sign is proven for every admissible parameter value: Sturm counts
    show that neither numerator nor denominator has a root where the
    parameter may lie, so the sign at a = 1 holds throughout; otherwise
    it raises IndeterminateSignError.
    """

    kind = "rational_function"

    def __init__(self, generator_symbol, parameter_positivity=True,
                 default_sample=None):
        super().__init__()
        self.generator_symbol = generator_symbol
        self.parameter_positivity = bool(parameter_positivity)
        self.default_sample = None if default_sample is None else _as_fraction(default_sample)
        if self.parameter_positivity and self.default_sample is not None:
            if self.default_sample <= 0:
                raise ValueError("default_sample must be positive")
        self._share_values((self.kind, generator_symbol, self.parameter_positivity),
                           ((), (1,)))

    def describe(self):
        positivity = " > 0" if self.parameter_positivity else ""
        return f"rational functions in {self.generator_symbol}{positivity}"

    def __repr__(self):
        return (f"RationalFunctionDomain({self.generator_symbol!r}, "
                f"positive={self.parameter_positivity})")

    def generator(self):
        return Scalar(self, self._intern(((0, 1), (1,))))

    def _canonical(self, num, den):
        """The payload of num/den for int polynomials num and den != 0:
        their gcd and the content of both divided out, lead(den) made
        positive."""
        if not num:
            return 0
        if len(num) > 1 and len(den) > 1:
            g = _zgcd(num, den)
            if len(g) > 1:
                num, den = _zdiv(num, g), _zdiv(den, g)
        g = math.gcd(*num, *den)
        if den[-1] < 0:
            g = -g
        if g == 1:
            return self._intern((num, den))
        return self._intern((tuple(c // g for c in num), tuple(c // g for c in den)))

    def _from_fraction(self, q):
        return self._intern(((q.numerator,), (q.denominator,))) if q else 0

    def _sum(self, a, b):
        if not a:
            return b
        if not b:
            return a
        (n1, d1), (n2, d2) = self._values[a], self._values[b]
        if d1 == d2:
            return self._canonical(_padd(n1, n2), d1)
        return self._canonical(_padd(_pmul(n1, d2), _pmul(n2, d1)), _pmul(d1, d2))

    def _negative(self, a):
        num, den = self._values[a]
        return self._intern((_pneg(num), den))

    def _product(self, a, b):
        (n1, d1), (n2, d2) = self._values[a], self._values[b]
        return self._canonical(_pmul(n1, n2), _pmul(d1, d2))

    def _inv(self, a):
        if not a:
            raise ZeroDivisionError("inversion of zero scalar")
        num, den = self._values[a]
        if num[-1] < 0:
            return self._intern((_pneg(den), _pneg(num)))
        return self._intern((den, num))

    def _text(self, a):
        num, den = self._values[a]
        lead = den[-1]
        if lead != 1:
            num = tuple(Fraction(c, lead) for c in num)
            den = tuple(Fraction(c, lead) for c in den)
        num_txt = _poly_text(num, self.generator_symbol)
        if len(den) == 1:
            return num_txt
        if _poly_term_count(num) > 1:
            num_txt = f"({num_txt})"
        den_txt = _poly_text(den, self.generator_symbol)
        if _poly_term_count(den) > 1:
            den_txt = f"({den_txt})"
        return f"{num_txt}/{den_txt}"

    def _as_rational(self, a):
        num, den = self._values[a]
        if len(den) > 1 or len(num) > 1:
            return None
        return Fraction(num[0], den[0]) if num else _F0

    def _power_growth(self, a):
        # num^k and den^k stay coprime, and |p^k| <= (terms of p * |p|)^k
        num, den = self._values[a]
        terms = max(len(num), len(den))
        return math.log10(terms * max(map(abs, num + den))), terms - 1

    def rational_rows(self, coefficients, target):
        # clear denominators with their monic lcm, then compare
        # coefficients of each power of the parameter
        values = [self._values[c.payload] for c in (*coefficients, target)]
        common = (1,)
        for _, den in values:
            den = _zprimitive(den)
            common = _pmul(common, _zdiv(den, _zgcd(common, den)))
        cleared = []
        for num, den in values:
            scale = math.gcd(*den) * common[-1]
            cleared.append([Fraction(x, scale) for x in
                            _pmul(num, _zdiv(common, _zprimitive(den)))])
        width = max(max(len(p) for p in cleared), 1)
        rows = []
        for t in range(width):
            row = [p[t] if t < len(p) else _F0 for p in cleared[:-1]]
            rhs = cleared[-1][t] if t < len(cleared[-1]) else _F0
            rows.append((row, rhs))
        return rows

    def _sample_value(self, a, sample):
        num, den = self._values[a]
        dval = _peval(den, sample)
        if not dval:  # the sample comes from the input: refuse it as input
            raise ValueError(f"the denominator of {self._text(a)} vanishes at "
                             f"{self.generator_symbol} = {sample}")
        return _peval(num, sample) / dval

    def _sign(self, a):
        if not a:
            return 0
        symbol = self.generator_symbol
        positive = self.parameter_positivity
        num, den = self._values[a]
        for p in (num, den):
            if _zsturm_count(p, 0 if positive else None):
                where = f"{symbol} > 0" if positive else f"real {symbol}"
                raise IndeterminateSignError(
                    f"the sign of {self._text(a)} is not proven constant for "
                    f"{where}: {_poly_text(p, symbol)} has a root there")
        # no root where a may lie: the sign at a = 1 holds for every a
        return 1 if (sum(num) > 0) == (sum(den) > 0) else -1

    def _eval(self, a, precision, parameter_sample=None):
        sample = parameter_sample if parameter_sample is not None else self.default_sample
        if sample is None:
            raise ValueError(
                "numeric evaluation over a parameter field needs a sample value")
        return _fraction_to_decimal(self._sample_value(a, _as_fraction(sample)), precision)

    def substitute(self, scalar: "Scalar", value, target: "RationalDomain") -> "Scalar":
        """Exact specialization of the parameter; lands in ``target``."""
        if scalar.domain != self:
            raise DomainMismatchError("scalar does not belong to this domain")
        return target.scalar(self._sample_value(scalar.payload, _as_fraction(value)))


# ---------------------------------------------------------------------------
# scalar values
# ---------------------------------------------------------------------------

class Scalar:
    """An immutable element of a ScalarDomain, always in canonical form."""

    __slots__ = ("domain", "payload")

    def __init__(self, domain, payload):
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "payload", payload)

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    def _coerce(self, other):
        if isinstance(other, Scalar):
            if other.domain is not self.domain and other.domain != self.domain:
                raise DomainMismatchError(
                    f"cannot mix {self.domain.describe()} with {other.domain.describe()}")
            return other
        if isinstance(other, (int, Fraction)):
            return Scalar(self.domain, self.domain._from_fraction(_as_fraction(other)))
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Scalar(self.domain, self.domain._add(self.payload, other.payload))

    __radd__ = __add__

    def __neg__(self):
        return Scalar(self.domain, self.domain._neg(self.payload))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Scalar(self.domain, self.domain._add(self.payload,
                                                    self.domain._neg(other.payload)))

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Scalar(self.domain, self.domain._mul(self.payload, other.payload))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, exponent):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = self.domain.one()
        base = self
        n = exponent
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def inverse(self):
        domain, a = self.domain, self.payload
        return Scalar(domain, domain._memo(domain._inverses, domain._inv, a))

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self._coerce(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return ((self.domain is other.domain or self.domain == other.domain)
                and self.payload == other.payload)

    def __hash__(self):
        return hash((self.domain, self.payload))

    def __bool__(self):
        return bool(self.payload)

    def is_zero(self):
        return not self.payload

    def as_rational(self):
        """The value as a Fraction when it is rational, else None."""
        return self.domain._as_rational(self.payload)

    def is_integer(self):
        return self.domain._as_integer(self.payload) is not None

    def sign(self):
        """Exact sign in {-1, 0, 1}."""
        return self.domain.sign_of(self.payload)

    def eval_numeric(self, precision=15, parameter_sample=None) -> Decimal:
        """Decimal approximation with relative error below 10**-precision."""
        return self.domain._eval(self.payload, precision, parameter_sample)

    def text(self):
        """Canonical grammar text; parsing it back reproduces the scalar."""
        return self.domain.text_of(self.payload)

    def __str__(self):
        return self.text()

    def __repr__(self):
        return f"Scalar({self.text()!r})"


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

_OPERATORS = set("+-*/^()")


def _tokenize(text):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if "0" <= ch <= "9":  # other digits (Unicode's) are unexpected
            j = i
            while j < n and "0" <= text[j] <= "9":
                j += 1
            tokens.append(("num", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
            continue
        if ch in _OPERATORS:
            tokens.append(("op", ch, i))
            i += 1
            continue
        raise ScalarSyntaxError(f"unexpected character {ch!r}", i)
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, tokens, domain):
        self.tokens = tokens
        self.pos = 0
        self.domain = domain

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def expect_op(self, op):
        kind, value, pos = self.peek()
        if kind != "op" or value != op:
            raise ScalarSyntaxError(f"expected {op!r}", pos)
        return self.take()

    def parse_expr(self):
        kind, value, _ = self.peek()
        negate = False
        if kind == "op" and value in "+-":
            self.take()
            negate = value == "-"
        result = self.parse_term()
        if negate:
            result = -result
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.take()
                rhs = self.parse_term()
                result = result + rhs if value == "+" else result - rhs
            else:
                return result

    def parse_term(self):
        result = self.parse_factor()
        while True:
            kind, value, pos = self.peek()
            if kind == "op" and value in "*/":
                self.take()
                rhs = self.parse_factor()
                if value == "/":
                    if rhs.is_zero():
                        raise ScalarSyntaxError("division by a zero scalar", pos)
                    result = result / rhs
                else:
                    result = result * rhs
            else:
                return result

    def parse_factor(self):
        base = self.parse_base()
        kind, value, pos = self.peek()
        if kind == "op" and value == "^":
            self.take()
            sign = 1
            kind, value, pos = self.peek()
            if kind == "op" and value == "-":
                self.take()
                sign = -1
                kind, value, pos = self.peek()
            if kind != "num":
                raise ScalarSyntaxError("expected an integer exponent", pos)
            self.take()
            exponent = sign * int(value)
            if exponent < 0:
                if base.is_zero():
                    raise ScalarSyntaxError("division by a zero scalar", pos)
                base = base.inverse()
            # refused before it is computed if its ints could pass the digits
            # Python converts to text (the limit require_readable puts on
            # literals), or over a parameter field its degree could
            limit, k = sys.get_int_max_str_digits(), abs(exponent)
            if limit and k > 1:
                digits, degree = base.domain._power_growth(base.payload)
                if k * degree > limit:
                    raise ScalarSyntaxError(
                        f"the power ^{exponent} has a degree over {limit}; "
                        f"exact texts allow at most degree {limit}", pos)
                if digits and k > limit / digits:
                    raise ScalarSyntaxError(
                        f"the power ^{exponent} could have more than {limit} "
                        f"digits; exact texts allow at most {limit} digits", pos)
            return base ** k
        return base

    def parse_base(self):
        kind, value, pos = self.take()
        if kind == "num":
            return self.domain.scalar(int(value))
        if kind == "name":
            if value != self.domain.generator_symbol:
                raise ScalarSyntaxError(
                    f"symbol {value!r} does not belong to {self.domain.describe()}", pos)
            return self.domain.generator()
        if kind == "op" and value == "(":
            inner = self.parse_expr()
            self.expect_op(")")
            return inner
        raise ScalarSyntaxError(
            "expected a number, symbol, or parenthesized expression", pos)


def parse_scalar(text: str, domain: ScalarDomain) -> Scalar:
    """Parse grammar text into a canonical Scalar of the given domain."""
    parser = _Parser(_tokenize(text), domain)
    result = parser.parse_expr()
    kind, value, pos = parser.peek()
    if kind != "end":
        raise ScalarSyntaxError(f"unexpected trailing input {value!r}", pos)
    return result
