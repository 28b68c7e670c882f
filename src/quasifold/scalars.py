"""Exact scalar arithmetic for the three supported coefficient domains.

A scalar lives in one of:

  * the rationals,
  * a real number field  Q[x]/(p)  with a designated real root of p, or
  * the field of rational functions in one positive real parameter.

All values are kept in canonical form, so scalar equality is equality of
canonical encodings (payloads):

  * a rational is a ``Fraction`` in lowest terms;
  * a number-field element, reduced modulo the minimal polynomial of
    degree d, is a tuple of Python ints ``(den, c0, ..., c_{d-1})`` meaning
    (c0 + c1 x + ... + c_{d-1} x^{d-1}) / den, with ``den > 0`` and
    ``math.gcd(den, c0, ..., c_{d-1}) == 1``; zero is ``(1, 0, ..., 0)``;
  * a rational function is a pair ``(num, den)`` of Python int tuples,
    lowest degree first, coprime in Q[x], with the gcd of all their
    coefficients 1 and ``den[-1] > 0``; zero is ``((), (1,))``.

Only this module knows the payload layouts.  Elsewhere a payload is opaque:
the matrix product hands payloads to the domain's own operations, and
``rational_rows`` expands a linear equation into rational equations.

Scalars are read and written in a small expression grammar:

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := base ('^' integer)?
    base   := rational | symbol | '(' expr ')'

where ``symbol`` is the generator/parameter name declared by the domain.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import Optional

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
_RF_ZERO = ((), (1,))


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


def _peval_interval(coeffs, lo, hi):
    """Horner evaluation with exact interval arithmetic; returns (lo, hi)."""
    rlo = rhi = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        prods = (rlo * lo, rlo * hi, rhi * lo, rhi * hi)
        rlo = min(prods) + c
        rhi = max(prods) + c
    return rlo, rhi


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
    """A positive integer multiple of  a mod b  (deg a >= deg b), so that
    a Sturm chain built from it keeps its signs."""
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


def _zsturm_count(p, lo=None, hi=None):
    """The number of distinct real roots of p in (lo, hi], for rational
    ends or None, which stands for -inf as lo and for +inf as hi.

    Sturm's theorem (Basu, Pollack & Roy, Algorithms in Real Algebraic
    Geometry, section 2.2): it is the drop in sign variations from lo to
    hi along the chain p, p', -rem(p, p'), ..., built from positive
    multiples of remainders and divided by its last member gcd(p, p').
    """
    chain = [p, tuple(k * c for k, c in enumerate(p))[1:]]
    while len(chain[-1]) > 1:
        rem = _zprem(chain[-2], chain[-1])
        if not rem:
            last = _zprimitive(chain[-1])
            chain = [_zdiv(q, last) for q in chain]
            break
        g = math.gcd(*rem)
        chain.append(tuple(-c // g for c in rem))
    at_lo = [q[-1] * (-1) ** (len(q) - 1) if lo is None else _zsign(q, lo)
             for q in chain if q]
    at_hi = [q[-1] if hi is None else _zsign(q, hi) for q in chain if q]
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


def _poly_text(coeffs, symbol):
    """Render a coefficient tuple as grammar text, highest power first."""
    if not coeffs:
        return "0"
    pieces = []
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
    return "".join(pieces)


def _poly_term_count(coeffs):
    return sum(1 for c in coeffs if c)


# ---------------------------------------------------------------------------
# domains
# ---------------------------------------------------------------------------

class ScalarDomain:
    """Base class for the three coefficient domains.

    Each domain instance memoises the inverse, the sign and the text of
    the values it has seen, keyed by payload, so each distinct one is
    computed once.  The memos live as long as the domain, which one
    document owns; they hold a few tens of entries even for a 60-chart
    atlas.  A call that raises (a zero inverse, an undecidable sign, a
    factor shared with a reducible ``min_poly``) stores nothing, so the
    next call raises again.
    """

    kind = "abstract"
    generator_symbol: Optional[str] = None

    def __init__(self):
        self._inverses = {}
        self._signs = {}
        self._texts = {}

    def _memo(self, table, compute, a):
        """table[a], computed as compute(a) on the first call."""
        value = table.get(a)
        if value is None:
            value = table[a] = compute(a)
        return value

    # -- construction ------------------------------------------------------

    def scalar(self, value) -> "Scalar":
        """Coerce an int, Fraction, decimal string, or grammar text."""
        if isinstance(value, Scalar):
            if value.domain is not self and value.domain != self:
                raise DomainMismatchError(
                    f"scalar from {value.domain.describe()} used in {self.describe()}")
            return value
        if isinstance(value, str):
            return parse_scalar(value, self)
        return Scalar(self, self._from_fraction(_as_fraction(value)))

    def zero(self) -> "Scalar":
        return self.scalar(0)

    def one(self) -> "Scalar":
        return self.scalar(1)

    def generator(self) -> "Scalar":
        raise ValueError(f"{self.describe()} has no generator symbol")

    def describe(self) -> str:
        raise NotImplementedError

    # -- payload operations, implemented per domain -------------------------

    def _from_fraction(self, q):
        raise NotImplementedError

    def _add(self, a, b):
        raise NotImplementedError

    def _neg(self, a):
        raise NotImplementedError

    def _mul(self, a, b):
        raise NotImplementedError

    def _inv(self, a):
        raise NotImplementedError

    def _is_zero(self, a):
        raise NotImplementedError

    def _text(self, a):
        raise NotImplementedError

    def _as_rational(self, a):
        """Return the payload as a Fraction if it is rational, else None."""
        raise NotImplementedError

    def rational_rows(self, coefficients, target):
        """Expand  sum coefficients[l] * m_l = target  into rational equations.

        Returns (row, rhs) pairs with Fraction entries whose solutions in
        rational m are exactly those of the equation over this domain.
        """
        raise NotImplementedError

    def _sign(self, a):
        raise NotImplementedError

    def _eval(self, a, precision, parameter_sample=None):
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

    def _is_zero(self, a):
        return not a

    def _text(self, a):
        return str(a)

    def _as_rational(self, a):
        return a

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
    it: a Sturm count proves it alone in the interval, which exact
    bisection then refines on demand.

    The element  (c0 + c1 x + ... + c_{d-1} x^{d-1}) / den  of Q[x]/(p),
    d = deg(p), is the payload ``(den, c0, ..., c_{d-1})`` of Python ints
    with ``den > 0`` and ``math.gcd(den, c0, ..., c_{d-1}) == 1``; zero is
    ``(1, 0, ..., 0)``.  The form is unique, so payload equality is value
    equality.  A product is an integer convolution reduced by integer rows
    for x^d .. x^(2d-2) over one common denominator, then divided by one
    gcd (Cohen, GTM 138, section 4.2).

    The inverse is integer linear algebra too.  Let R be the common
    denominator of the reduction rows and N the d x d int matrix whose
    column j holds the coefficients of  c x^j  times R^j, for the numerator
    c.  Then N diag(R^j) is the regular representation of c, and c^-1 has
    the coefficients  R^j adj(N)[j][0] / det(N),  where det(N) is R^(d(d-1)/2)
    times the norm of c.  Fraction-free Bareiss elimination gives the
    adjugate column and the determinant with every division exact (Cohen,
    GTM 138, sections 2.2 and 4.2).  A nonzero c with det(N) = 0 is a zero
    divisor, so p is reducible, and the inverse raises ValueError; so do
    sign and value when c shares with p a factor vanishing at the root.
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
        self._hash = hash((self.min_poly, self.generator_symbol, self.embedding_approx))
        self._zero = (1,) + (0,) * self.degree
        # reduction rows for x^deg .. x^(2 deg - 2)
        rows = []
        current = tuple(-c for c in coeffs[:-1])  # x^deg mod p
        rows.append(current)
        for _ in range(self.degree - 2):
            shifted = (_F0,) + current
            reduce_c = shifted[self.degree] if len(shifted) > self.degree else _F0
            nxt = list(shifted[: self.degree])
            if reduce_c:
                for i, r in enumerate(rows[0]):
                    nxt[i] += reduce_c * r
            current = tuple(nxt)
            rows.append(current)
        # ... kept as integer rows over their common denominator
        scale = math.lcm(*(c.denominator for row in rows for c in row))
        self._reduction_scale = scale
        self._reduction = [tuple(int(c * scale) for c in row) for row in rows]
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

    def __eq__(self, other):
        if self is other:
            return True
        return (isinstance(other, NumberFieldDomain)
                and self.min_poly == other.min_poly
                and self.generator_symbol == other.generator_symbol
                and self.embedding_approx == other.embedding_approx)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return (f"NumberFieldDomain({list(self.min_poly)}, "
                f"{self.generator_symbol!r}, {float(self.embedding_approx)})")

    def generator(self):
        return Scalar(self, (1, 0, 1) + (0,) * (self.degree - 2))

    def _canonical(self, den, coeffs):
        """The payload of  coeffs / den  for den > 0."""
        g = math.gcd(den, *coeffs)
        if g == 1:
            return (den, *coeffs)
        return (den // g, *(c // g for c in coeffs))

    def _fractions(self, a):
        """The payload's coefficients as Fractions, constant term first."""
        den = a[0]
        return tuple(Fraction(c, den) for c in a[1:])

    def _from_fraction(self, q):
        return (q.denominator, q.numerator) + (0,) * (self.degree - 1)

    def _add(self, a, b):
        if not any(a[1:]):
            return b
        if not any(b[1:]):
            return a
        da, db = a[0], b[0]
        if da == db:
            return self._canonical(da, [x + y for x, y in zip(a[1:], b[1:])])
        return self._canonical(da * db, [x * db + y * da for x, y in zip(a[1:], b[1:])])

    def _neg(self, a):
        return (a[0], *(-x for x in a[1:]))

    def _scale(self, a, num, den):
        """a * num/den for a rational num/den in lowest terms."""
        if not num:
            return self._zero
        if num == den:
            return a
        return self._canonical(a[0] * den, [x * num for x in a[1:]])

    def _mul(self, a, b):
        # rational factors skip the convolution entirely
        if not any(a[2:]):
            return self._scale(b, a[1], a[0])
        if not any(b[2:]):
            return self._scale(a, b[1], b[0])
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

    def _inv(self, a):
        if self._is_zero(a):
            raise ZeroDivisionError("inversion of zero scalar")
        # Bareiss on [N | e_0] ends on the pivot D = +-det N; exact
        # back-substitution then gives D N^-1 e_0 = +-adj(N) e_0
        deg = self.degree
        work = [[*row, int(i == 0)]
                for i, row in enumerate(zip(*self._columns(a[1:])))]
        prev = 1
        for k in range(deg):
            p = next((i for i in range(k, deg) if work[i][k]), None)
            if p is None:  # N is singular: c shares a factor with min_poly
                self._refuse_factor(a, anywhere=True)
            work[k], work[p] = work[p], work[k]
            top, pivot = work[k], work[k][k]
            for i in range(k + 1, deg):
                factor = work[i][k]
                work[i] = [(pivot * x - factor * y) // prev
                           for x, y in zip(work[i], top)]
            prev = pivot
        adj = [0] * deg
        for i in range(deg - 1, -1, -1):
            row = work[i]
            acc = prev * row[deg] - sum(row[j] * adj[j] for j in range(i + 1, deg))
            adj[i] = acc // row[i]
        # (c / den)^-1 = den c^-1
        den, R = a[0], self._reduction_scale
        nums = [den * R ** j * x for j, x in enumerate(adj)]
        if prev < 0:
            prev, nums = -prev, [-x for x in nums]
        return self._canonical(prev, nums)

    def _is_zero(self, a):
        return not any(a[1:])

    def _text(self, a):
        return _poly_text(_ptrim(self._fractions(a)), self.generator_symbol)

    def _as_rational(self, a):
        if any(a[2:]):
            return None
        return Fraction(a[1], a[0])

    def rational_rows(self, coefficients, target):
        columns = [self._fractions(c.payload) for c in coefficients]
        rhs = self._fractions(target.payload)
        return [([column[t] for column in columns], rhs[t])
                for t in range(self.degree)]

    def _columns(self, c):
        """The integer regular representation of the numerator coefficients
        c: column j holds the coefficients of  c x^j  times R^j, with R the
        reduction scale."""
        R, red = self._reduction_scale, self._reduction[0]
        columns = []
        for _ in range(self.degree):
            columns.append(c)
            top = c[-1]
            c = [0, *(x * R for x in c[:-1])]
            if top:
                c = [x + top * r for x, r in zip(c, red)]
        return columns

    def _refuse_factor(self, a, anywhere=False):
        """Raise ValueError when g = gcd(numerator of a, min_poly) is not constant
        and, unless ``anywhere``, vanishes at the root: a is zero or a zero divisor."""
        g = _zgcd(_ptrim(a[1:]), self._zpoly)
        if len(g) > 1 and (anywhere or _zsturm_count(g, self._root_lo, self._root_hi)):
            raise ValueError(
                f"min_poly {_poly_text(self._zpoly, 'x')} is reducible: its factor "
                f"{_poly_text(g, 'x')} divides the numerator of {self._text(a)}")

    def _sign(self, a):
        if self._is_zero(a):
            return 0
        # the denominator is positive: the numerator carries the sign
        coeffs = _ptrim(a[1:])
        if len(coeffs) == 1:
            return 1 if coeffs[0] > 0 else -1
        # unless a shared factor makes it zero, bisection separates the
        # value from zero
        self._refuse_factor(a)
        lo, hi = self.root_interval(Fraction(1, 10 ** 12))
        while True:
            vlo, vhi = _peval_interval(coeffs, lo, hi)
            if vlo > 0:
                return 1
            if vhi < 0:
                return -1
            lo, hi = self._bisect_once()

    def _eval(self, a, precision, parameter_sample=None):
        rational = self._as_rational(a)
        if rational is not None:
            return _fraction_to_decimal(rational, precision)
        self._refuse_factor(a)
        # bounds on the numerator; the relative-width test does not see den
        den, coeffs = a[0], _ptrim(a[1:])
        goal = Fraction(1, 10 ** precision)
        lo, hi = self.root_interval(Fraction(1, 10 ** (precision + 2)))
        while True:
            vlo, vhi = _peval_interval(coeffs, lo, hi)
            mag = max(abs(vlo), abs(vhi))
            if mag and (vhi - vlo) <= mag * goal:
                return _fraction_to_decimal((vlo + vhi) / (2 * den), precision)
            lo, hi = self._bisect_once()


class RationalFunctionDomain(ScalarDomain):
    """Rational functions in one parameter, assumed to be a positive real.

    The payload ``(num, den)`` holds two tuples of Python ints, lowest
    degree first: num and den are coprime in Q[x], the gcd of all their
    coefficients is 1 and ``den[-1] > 0``; zero is ``((), (1,))``.  The
    form is unique, so payload equality is value equality; text shows
    the denominator monic.  Products and sums cancel by Henrici's method
    (Knuth, TAOCP 2, section 4.5.1): only gcd(n1, d2) and gcd(n2, d1) for
    a product, only gcd(d1, d2) and the sum against it for a sum, then
    the content.  Denominators 1 and powers of the parameter need no
    Euclid step.

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
        self._hash = hash((self.generator_symbol, self.parameter_positivity))

    def describe(self):
        positivity = " > 0" if self.parameter_positivity else ""
        return f"rational functions in {self.generator_symbol}{positivity}"

    def __eq__(self, other):
        if self is other:
            return True
        return (isinstance(other, RationalFunctionDomain)
                and self.generator_symbol == other.generator_symbol
                and self.parameter_positivity == other.parameter_positivity)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return (f"RationalFunctionDomain({self.generator_symbol!r}, "
                f"positive={self.parameter_positivity})")

    def generator(self):
        return Scalar(self, ((0, 1), (1,)))

    def _canonical(self, num, den):
        """The payload of num/den for num and den coprime in Q[x] and
        lead(den) > 0, which holds for every product of denominators and
        primitive gcd cofactors."""
        if not num:
            return _RF_ZERO
        g = math.gcd(*num, *den)
        if g == 1:
            return (num, den)
        return (tuple(c // g for c in num), tuple(c // g for c in den))

    def _from_fraction(self, q):
        if not q:
            return _RF_ZERO
        return ((q.numerator,), (q.denominator,))

    def _add(self, a, b):
        (n1, d1), (n2, d2) = a, b
        if not n1:
            return b
        if not n2:
            return a
        if d1 == d2:
            num = _padd(n1, n2)
            if len(num) > 1 and len(d1) > 1:
                g = _zgcd(num, d1)
                if len(g) > 1:
                    num, d1 = _zdiv(num, g), _zdiv(d1, g)
            return self._canonical(num, d1)
        g = _zgcd(d1, d2) if len(d1) > 1 and len(d2) > 1 else (1,)
        if len(g) == 1:
            # coprime denominators: the sum is in lowest terms
            return self._canonical(_padd(_pmul(n1, d2), _pmul(n2, d1)),
                                   _pmul(d1, d2))
        e1, e2 = _zdiv(d1, g), _zdiv(d2, g)
        num = _padd(_pmul(n1, e2), _pmul(n2, e1))
        if len(num) > 1:
            h = _zgcd(num, g)
            if len(h) > 1:
                num, g = _zdiv(num, h), _zdiv(g, h)
        return self._canonical(num, _pmul(_pmul(e1, e2), g))

    def _neg(self, a):
        return (_pneg(a[0]), a[1])

    def _mul(self, a, b):
        (n1, d1), (n2, d2) = a, b
        if not n1 or not n2:
            return _RF_ZERO
        if len(n1) > 1 and len(d2) > 1:
            g = _zgcd(n1, d2)
            if len(g) > 1:
                n1, d2 = _zdiv(n1, g), _zdiv(d2, g)
        if len(n2) > 1 and len(d1) > 1:
            g = _zgcd(n2, d1)
            if len(g) > 1:
                n2, d1 = _zdiv(n2, g), _zdiv(d1, g)
        return self._canonical(_pmul(n1, n2), _pmul(d1, d2))

    def _inv(self, a):
        num, den = a
        if not num:
            raise ZeroDivisionError("inversion of zero scalar")
        if num[-1] < 0:
            return (_pneg(den), _pneg(num))
        return (den, num)

    def _is_zero(self, a):
        return not a[0]

    def _text(self, a):
        num, den = a
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
        num, den = a
        if len(den) > 1 or len(num) > 1:
            return None
        return Fraction(num[0], den[0]) if num else _F0

    def rational_rows(self, coefficients, target):
        # clear denominators with their monic lcm, then compare
        # coefficients of each power of the parameter
        scalars = [*coefficients, target]
        common = (1,)
        for c in scalars:
            den = _zprimitive(c.payload[1])
            common = _pmul(common, _zdiv(den, _zgcd(common, den)))
        cleared = []
        for c in scalars:
            num, den = c.payload
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
        num, den = a
        dval = _peval(den, sample)
        if not dval:  # the sample comes from the input: refuse it as input
            raise ValueError(f"the denominator of {self._text(a)} vanishes at "
                             f"{self.generator_symbol} = {sample}")
        return _peval(num, sample) / dval

    def _sign(self, a):
        if self._is_zero(a):
            return 0
        symbol = self.generator_symbol
        lo = 0 if self.parameter_positivity else None
        for p in a:
            if _zsturm_count(p, lo):
                where = f"real {symbol}" if lo is None else f"{symbol} > 0"
                raise IndeterminateSignError(
                    f"the sign of {self._text(a)} is not proven constant for "
                    f"{where}: {_poly_text(p, symbol)} has a root there")
        # no root where a may lie: the sign at a = 1 holds for every a
        num, den = a
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
        return not self.domain._is_zero(self.payload)

    def is_zero(self):
        return self.domain._is_zero(self.payload)

    def as_rational(self):
        """The value as a Fraction when it is rational, else None."""
        return self.domain._as_rational(self.payload)

    def is_integer(self):
        q = self.as_rational()
        return q is not None and q.denominator == 1

    def sign(self):
        """Exact sign in {-1, 0, 1}."""
        domain, a = self.domain, self.payload
        return domain._memo(domain._signs, domain._sign, a)

    def eval_numeric(self, precision=15, parameter_sample=None) -> Decimal:
        """Decimal approximation with relative error below 10**-precision."""
        return self.domain._eval(self.payload, precision, parameter_sample)

    def text(self):
        """Canonical grammar text; parsing it back reproduces the scalar."""
        domain, a = self.domain, self.payload
        return domain._memo(domain._texts, domain._text, a)

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
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
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
            if exponent < 0 and base.is_zero():
                raise ScalarSyntaxError("division by a zero scalar", pos)
            return base ** exponent
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
