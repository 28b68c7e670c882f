import math
import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasifold import (IndeterminateSignError, ScalarSyntaxError,
                       parse_scalar)


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def bisect_root(coeffs, lo, hi, iterations=80):
    """Independent bisection for a root of a polynomial with a sign change."""
    lo, hi = Fraction(lo), Fraction(hi)

    def value(x):
        acc = Fraction(0)
        for c in reversed(coeffs):
            acc = acc * x + Fraction(c)
        return acc

    assert value(lo) * value(hi) < 0
    for _ in range(iterations):
        mid = (lo + hi) / 2
        if value(mid) == 0:
            return mid, mid
        if value(lo) * value(mid) < 0:
            hi = mid
        else:
            lo = mid
    return lo, hi


GOLDEN_LO, GOLDEN_HI = bisect_root([-1, -1, 1], 1, 2)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def test_parse_zero(rational):
    assert parse_scalar("0", rational).is_zero()


def test_parse_golden_identity(golden):
    # 1 + 1/phi equals phi itself
    assert parse_scalar("1 + 1/phi", golden) == golden.generator()


def test_parse_quartic_collapse(quartic):
    value = parse_scalar("(alpha^2-2)^2 - (alpha^2-2) - 1", quartic)
    assert value.is_zero()


def test_parse_syntax_error_position():
    from quasifold import RationalDomain
    with pytest.raises(ScalarSyntaxError) as err:
        parse_scalar("1 + + 2", RationalDomain())
    assert err.value.position == 4


def test_parse_unknown_symbol(rational):
    with pytest.raises(ScalarSyntaxError):
        parse_scalar("phi + 1", rational)


def test_parse_division_by_zero(golden):
    with pytest.raises((ScalarSyntaxError, ZeroDivisionError)):
        parse_scalar("1/(phi^2 - phi - 1)", golden)


def test_parse_negative_exponent(parameter):
    assert parse_scalar("a^-1", parameter) == parameter.generator().inverse()


def test_parse_precedence(rational, parameter):
    assert parse_scalar("2 + 3 * 4 ^ 2", rational) == rational.scalar(50)
    assert parse_scalar("2 * 3 / 4", rational) == rational.scalar("3/2")
    assert parse_scalar("-2^2", rational) == rational.scalar(-4)
    a = parameter.generator()
    assert parse_scalar("-(a + 1)^2", parameter) == -((a + 1) ** 2)
    assert parse_scalar("1/2*a", parameter) == a / 2


# ---------------------------------------------------------------------------
# arithmetic
# ---------------------------------------------------------------------------

def test_inverse_of_one(rational):
    assert rational.one().inverse() == rational.one()


def test_golden_inverse(golden):
    phi = golden.generator()
    assert phi.inverse() == phi - 1
    assert phi * (phi - 1) == golden.one()


def test_parameter_inverse(parameter):
    a = parameter.generator()
    assert a.inverse().text() == "1/a"
    assert a * a.inverse() == parameter.one()


def test_domain_mismatch(rational, golden):
    from quasifold import DomainMismatchError
    with pytest.raises(DomainMismatchError):
        rational.one() + golden.one()


def test_inversion_of_zero(rational):
    with pytest.raises(ZeroDivisionError):
        rational.zero().inverse()


def test_golden_square_reduces(golden):
    phi = golden.generator()
    assert phi ** 2 == phi + 1


# ---------------------------------------------------------------------------
# numeric evaluation
# ---------------------------------------------------------------------------

def test_eval_golden_ratio(golden):
    expected = (GOLDEN_LO + GOLDEN_HI) / 2
    value = golden.generator().eval_numeric(12)
    assert abs(Fraction(str(value)) - expected) < Fraction(1, 10 ** 12) * 2


def test_eval_rational(rational):
    assert rational.scalar("1/2").eval_numeric(6) == Decimal("0.5")


def test_eval_golden_inverse(golden):
    # 1/phi equals phi - 1
    expected = (GOLDEN_LO + GOLDEN_HI) / 2 - 1
    value = golden.generator().inverse().eval_numeric(12)
    assert abs(Fraction(str(value)) - expected) < Fraction(1, 10 ** 12) * 2


def test_eval_against_trigonometric_oracle(golden, quartic):
    # phi = (1 + sqrt 5)/2 and alpha = 2 sin(72 deg): independent closed
    # forms for the designated roots, evaluated by mpmath
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    phi_expected = (1 + mpmath.sqrt(5)) / 2
    phi_value = mpmath.mpf(str(golden.generator().eval_numeric(30)))
    assert abs(phi_value - phi_expected) < mpmath.mpf("1e-29")
    alpha_expected = 2 * mpmath.sin(2 * mpmath.pi / 5)
    alpha_value = mpmath.mpf(str(quartic.generator().eval_numeric(30)))
    assert abs(alpha_value - alpha_expected) < mpmath.mpf("1e-29")


def test_eval_parameter_uses_sample(parameter):
    a = parameter.generator()
    value = a.eval_numeric(12)
    assert abs(Fraction(str(value)) - Fraction("1.41421356237309")) < Fraction(1, 10 ** 10)
    value = a.eval_numeric(12, parameter_sample=Fraction(3))
    assert value == Decimal(3)


# ---------------------------------------------------------------------------
# signs
# ---------------------------------------------------------------------------

def test_sign_zero(rational):
    assert rational.zero().sign() == 0


def test_sign_golden_minus_one(golden):
    assert (golden.generator() - 1).sign() == 1
    assert (golden.generator() - 2).sign() == -1


def test_sign_parameter_indeterminate(parameter):
    from quasifold import RationalDomain
    a = parameter.generator()
    for _ in range(2):  # a raised sign is never memoised
        with pytest.raises(IndeterminateSignError, match="a - 1 has a root"):
            (a - 1).sign()
    # a pinned parameter is an exact substitution, not a sign argument
    rational = RationalDomain()
    assert parameter.substitute(a - 1, 2, rational).sign() == 1
    assert parameter.substitute(a - 1, Fraction(1, 2), rational).sign() == -1
    assert a.sign() == 1
    assert (-a - 1).sign() == -1


def test_sign_parameter_proven_by_root_count(parameter):
    # mixed coefficient signs, yet no root for a > 0: the sign is proven
    a = parameter.generator()
    assert (a ** 2 - a + 1).sign() == 1
    assert ((a - 1) ** 2 + Fraction(1, 100)).sign() == 1
    assert (-1 / (a ** 2 - 2 * a + 2)).sign() == -1
    # a double root changes no sign, but it is a root, so no proof
    with pytest.raises(IndeterminateSignError):
        ((a - 1) ** 2).sign()
    # (a - 3/2)(a - 8/5) is positive at 1.41... and 1.73... alike
    with pytest.raises(IndeterminateSignError):
        ((a - Fraction(3, 2)) * (a - Fraction(8, 5))).sign()


def test_sign_parameter_over_all_reals():
    from quasifold import RationalFunctionDomain
    domain = RationalFunctionDomain("t", parameter_positivity=False)
    t = domain.generator()
    assert (t ** 2 + 1).sign() == 1
    assert (-1 / (t ** 4 + t + 1)).sign() == -1
    with pytest.raises(IndeterminateSignError, match="real t"):
        t.sign()
    with pytest.raises(IndeterminateSignError):
        (t ** 3 + 1).sign()  # its only real root is -1


# ---------------------------------------------------------------------------
# domain construction
# ---------------------------------------------------------------------------

def test_min_poly_must_be_monic_degree_two():
    from quasifold import NumberFieldDomain
    with pytest.raises(ValueError):
        NumberFieldDomain(["-1", "1"], "r", "1.0")  # degree 1
    with pytest.raises(ValueError):
        NumberFieldDomain(["-1", "-1", "2"], "r", "1.0")  # not monic


def test_embedding_approx_must_isolate_a_root():
    from quasifold import NumberFieldDomain
    with pytest.raises(ValueError):
        NumberFieldDomain(["-1", "-1", "1"], "phi", "7.5")


def test_reducible_min_poly_surfaces_as_zero_divisor():
    # x^2 - 1 factors, and the designated root is the rational root 1
    from quasifold import NumberFieldDomain
    with pytest.raises(ValueError, match="rational root 1 "):
        NumberFieldDomain(["-1", "0", "1"], "r", "1.0000000001")
    # (D3) x^2 - 4 at 2: b - 2 would be a nonzero payload of value zero
    with pytest.raises(ValueError, match="rational root 2 "):
        NumberFieldDomain(["-4", "0", "1"], "b", "2")


def test_min_poly_must_be_square_free():
    from quasifold import NumberFieldDomain
    with pytest.raises(ValueError, match="square-free"):
        NumberFieldDomain(["4", "0", "-4", "0", "1"], "b", "1.41421356")  # (x^2-2)^2


def test_factor_shared_with_min_poly_is_refused():
    # (D3) (x^2 - 2)(x^2 - 3) at sqrt 2: b^2 - 2 is a nonzero payload whose
    # value is zero; b^2 - 3 is a zero divisor of value -1
    from quasifold import NumberFieldDomain
    domain = NumberFieldDomain(["6", "0", "-5", "0", "1"], "b", "1.41421356")
    zero = parse_scalar("b^2 - 2", domain)
    assert not zero.is_zero()
    for call in (zero.sign, zero.inverse, zero.eval_numeric):
        for _ in range(2):  # a refusal is never memoised
            with pytest.raises(ValueError, match="factor x\\^2 - 2 divides"):
                call()
    divisor = parse_scalar("b^2 - 3", domain)
    assert divisor.sign() == -1
    assert abs(divisor.eval_numeric(6) + 1) < Decimal("1e-6")
    with pytest.raises(ValueError, match="factor x\\^2 - 3 divides"):
        divisor.inverse()
    assert (domain.generator() - 1).sign() == 1


def horner_isolation(min_poly, approx, width):
    """The isolating interval by bisection on Fraction Horner values, the
    oracle for the integer signs of NumberFieldDomain: the first interval
    to bracket a sign change, halved 40 times, then halved down to width.
    ("rational", root) when a value at an end or at approx is zero, and
    None when no radius brackets a sign change."""
    p = [Fraction(c) for c in min_poly]

    def value(x):
        acc = Fraction(0)
        for c in reversed(p):
            acc = acc * x + c
        return acc

    def halve(lo, hi):
        mid = (lo + hi) / 2
        if not value(mid):
            return mid, mid
        if (value(mid) < 0) == (value(lo) < 0):
            return mid, hi
        return lo, mid

    approx = Fraction(approx)
    for exponent in range(12, -1, -1):
        radius = Fraction(1, 10 ** exponent)
        lo, hi = approx - radius, approx + radius
        values = [value(x) for x in (lo, approx, hi)]
        if 0 in values:
            return "rational", (lo, approx, hi)[values.index(0)]
        if (values[0] < 0) != (values[2] < 0):
            for _ in range(40):
                lo, hi = halve(lo, hi)
            first = lo, hi
            while hi - lo > width:
                lo, hi = halve(lo, hi)
            return first, (lo, hi)
    return None


def assert_isolation_matches_horner(min_poly, approx):
    from quasifold import NumberFieldDomain
    width = Fraction(1, 10 ** 40)
    expected = horner_isolation(min_poly, approx, width)
    try:
        domain = NumberFieldDomain(min_poly, "r", approx)
    except ValueError as err:
        if expected is None:
            assert "does not isolate a real root" in str(err)
        elif expected[0] == "rational":
            assert f"rational root {expected[1]} next" in str(err)
        else:  # the Sturm count after the bisection refused the interval
            assert "does not isolate one irrational root" in str(err)
        return
    first, last = expected
    assert (domain._root_lo, domain._root_hi) == first
    assert domain.root_interval(width) == last


def test_root_isolation_matches_horner(gallery):
    cases = [(["-2", "0", "1"], "1.41421356"), (["-1/2", "0", "1"], "0.70710678"),
             (["-2", "0", "1"], "-1.4"), (["-1", "-1", "1"], "7.5"),
             (["-4", "0", "1"], "2")]
    for _, triple, _ in gallery.values():
        if triple.domain.kind == "number_field":
            cases.append((triple.domain.min_poly, triple.domain.embedding_approx))
    assert len(cases) == 7
    for min_poly, approx in cases:
        assert_isolation_matches_horner(min_poly, approx)


@settings(max_examples=100)
@given(quadratics=st.lists(st.sampled_from([2, 3, 5, 6, 7, 10]), min_size=1,
                           max_size=2, unique=True),
       linears=st.lists(st.fractions(-3, 3, max_denominator=3), max_size=2,
                        unique=True),
       pick=st.integers(0, 1), negative=st.booleans(), digits=st.integers(0, 16))
def test_root_isolation_matches_horner_on_products(quadratics, linears, pick,
                                                   negative, digits):
    # products of distinct factors x^2 - q and x - r near a root sqrt(q) or
    # -sqrt(q), given to a few or many digits: coarse approximations widen
    # the radius, and rational roots can fall inside it or at its ends
    poly = [Fraction(1)]
    for factor in [(-q, 0, 1) for q in quadratics] + [(-r, 1) for r in linears]:
        product = [Fraction(0)] * (len(poly) + len(factor) - 1)
        for i, a in enumerate(poly):
            for j, b in enumerate(factor):
                product[i + j] += a * b
        poly = product
    root = Decimal(quadratics[pick % len(quadratics)]).sqrt()
    approx = str(round(-root if negative else root, digits))
    assert_isolation_matches_horner(poly, approx)


@settings(max_examples=300)
@given(factors=st.lists(st.lists(st.integers(-4, 4), min_size=1, max_size=4),
                        min_size=1, max_size=3),
       square=st.booleans(),
       ends=st.tuples(*[st.one_of(st.none(), st.fractions(-5, 5, max_denominator=4))] * 2))
def test_sturm_count_matches_sympy(factors, square, ends):
    # products of small factors, squared or not, so that multiple roots
    # and roots at the ends occur; compared on (lo, hi]
    sympy = pytest.importorskip("sympy")
    from quasifold.scalars import _zsturm_count
    x = sympy.Symbol("x")
    poly = sympy.Poly(1, x)
    for coeffs in factors:
        factor = sympy.Poly(list(reversed(coeffs)), x)
        if not factor.is_zero:
            poly *= factor ** 2 if square else factor
    lo, hi = ends
    if lo is not None and hi is not None and lo > hi:
        lo, hi = hi, lo
    expected = poly.count_roots(lo, hi)
    if lo is not None and not poly.eval(lo):
        expected -= 1
    p = tuple(int(c) for c in reversed(poly.all_coeffs()))
    assert _zsturm_count(p, lo, hi) == expected


def test_memo_computes_each_value_once(monkeypatch, capsys):
    # one dodecahedron report inverts, signs and renders a few values many
    # times over; each distinct payload reaches the domain once
    from quasifold import NumberFieldDomain
    from quasifold.cli import main
    calls = {}
    for name in ("_inv", "_sign", "_text"):
        original = getattr(NumberFieldDomain, name)
        seen = calls[name] = []

        def counted(self, payload, *rest, _original=original, _seen=seen):
            _seen.append(payload)
            return _original(self, payload, *rest)
        monkeypatch.setattr(NumberFieldDomain, name, counted)
    assert main(["gallery", "dodecahedron", "--format", "json"]) == 0
    capsys.readouterr()
    for name, seen in calls.items():
        assert seen, name
        assert len(seen) == len(set(seen)), name


def test_default_sample_must_be_positive():
    from quasifold import RationalFunctionDomain
    with pytest.raises(ValueError):
        RationalFunctionDomain("a", default_sample="-2")


# ---------------------------------------------------------------------------
# randomized properties
# ---------------------------------------------------------------------------

def random_scalar(domain, rng):
    kind = domain.kind
    if kind == "rational":
        return domain.scalar(Fraction(rng.randint(-30, 30),
                                      rng.randint(1, 12)))
    if kind == "number_field":
        gen = domain.generator()
        acc = domain.zero()
        power = domain.one()
        for _ in range(domain.degree):
            acc = acc + power * Fraction(rng.randint(-9, 9), rng.randint(1, 4))
            power = power * gen
        return acc
    a = domain.generator()
    num = domain.zero()
    power = domain.one()
    for _ in range(3):
        num = num + power * rng.randint(-6, 6)
        power = power * a
    den = a + rng.randint(1, 5) if rng.random() < 0.5 else domain.one()
    return num / den


def test_field_axioms(rational, golden, parameter):
    rng = random.Random(20240501)
    for domain in (rational, golden, parameter):
        for _ in range(60):
            x = random_scalar(domain, rng)
            y = random_scalar(domain, rng)
            z = random_scalar(domain, rng)
            assert (x + y) + z == x + (y + z)
            assert x + y == y + x
            assert (x * y) * z == x * (y * z)
            assert x * y == y * x
            assert x * (y + z) == x * y + x * z
            if not x.is_zero():
                assert x * x.inverse() == domain.one()


def test_parse_format_roundtrip(rational, golden, parameter):
    rng = random.Random(77)
    for domain in (rational, golden, parameter):
        for _ in range(1000):
            x = random_scalar(domain, rng)
            assert parse_scalar(x.text(), domain) == x


def test_numeric_homomorphism(rational, golden, parameter):
    rng = random.Random(123)
    for domain in (rational, golden, parameter):
        for _ in range(40):
            x = random_scalar(domain, rng)
            y = random_scalar(domain, rng)
            ex = float(x.eval_numeric(12))
            ey = float(y.eval_numeric(12))
            exy = float((x * y).eval_numeric(12))
            assert abs(exy - ex * ey) < 1e-9 * max(1.0, abs(ex * ey))


# ---------------------------------------------------------------------------
# number fields against a Fraction-coefficient oracle
# ---------------------------------------------------------------------------

class OracleField:
    """Q[x]/(p) on Fraction coefficient lists, constant term first, of
    length deg(p): plain long division and extended Euclid, independent of
    the integer payloads of NumberFieldDomain."""

    def __init__(self, min_poly):
        self.p = [Fraction(c) for c in min_poly]
        self.degree = len(self.p) - 1

    def pad(self, coeffs):
        coeffs = list(coeffs)[: self.degree]
        return coeffs + [Fraction(0)] * (self.degree - len(coeffs))

    def reduce(self, coeffs):
        coeffs = [Fraction(c) for c in coeffs]
        for k in range(len(coeffs) - 1, self.degree - 1, -1):
            c = coeffs[k]
            for i, pc in enumerate(self.p):
                coeffs[k - self.degree + i] -= c * pc
        return self.pad(coeffs)

    def add(self, a, b):
        return [x + y for x, y in zip(a, b)]

    def sub(self, a, b):
        return [x - y for x, y in zip(a, b)]

    def mul(self, a, b):
        out = [Fraction(0)] * (2 * self.degree - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return self.reduce(out)

    def inv(self, a):
        def trim(poly):
            while poly and not poly[-1]:
                poly = poly[:-1]
            return poly

        def divmod_(num, den):
            num, quot = list(num), [Fraction(0)] * max(len(num) - len(den) + 1, 1)
            while len(trim(num)) >= len(den):
                num = trim(num)
                shift = len(num) - len(den)
                factor = num[-1] / den[-1]
                quot[shift] = factor
                for i, c in enumerate(den):
                    num[shift + i] -= factor * c
            return quot, trim(num)

        def sub_mul(s, q, t):
            out = [Fraction(0)] * max(len(s), len(q) + len(t))
            for i, c in enumerate(s):
                out[i] += c
            for i, x in enumerate(q):
                for j, y in enumerate(t):
                    out[i + j] -= x * y
            return trim(out)

        r0, r1 = self.p, trim(list(a))
        s0, s1 = [], [Fraction(1)]
        while r1:
            q, r = divmod_(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, sub_mul(s0, q, s1)
        assert len(r0) == 1
        return self.pad([c / r0[0] for c in s0])

    def value_interval(self, a, lo, hi):
        vlo = vhi = Fraction(0)
        for c in reversed(a):
            prods = (vlo * lo, vlo * hi, vhi * lo, vhi * hi)
            vlo, vhi = min(prods) + c, max(prods) + c
        return vlo, vhi


def oracle_text(coeffs, symbol):
    """The grammar text of a coefficient list, highest power first."""
    pieces = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if not c:
            continue
        base = "" if k == 0 else symbol if k == 1 else f"{symbol}^{k}"
        if not base:
            body = str(abs(c))
        elif abs(c) == 1:
            body = base
        else:
            body = f"{abs(c)}*{base}"
        if pieces:
            pieces.append(f" {'-' if c < 0 else '+'} {body}")
        else:
            pieces.append(f"{'-' if c < 0 else ''}{body}")
    return "".join(pieces) or "0"


def payload_coefficients(scalar):
    """Read the documented number-field payload (den, c0, ..., c_{d-1})."""
    den, *nums = scalar.payload
    return [Fraction(c, den) for c in nums]


def assert_canonical(scalar):
    payload = scalar.payload
    assert all(type(c) is int for c in payload), payload
    assert payload[0] > 0
    assert math.gcd(*payload) == 1


# name -> (min_poly, symbol, embedding, bracket of the designated root)
ORACLE_FIELDS = {
    "golden": (["-1", "-1", "1"], "phi", "1.618033988749895", (1, 2)),
    "quartic": (["5", "0", "-5", "0", "1"], "alpha", "1.902113032590307",
                (Fraction(9, 5), 2)),
    # x^2 - 1/2: reduction rows over the common denominator 2
    "half": (["-1/2", "0", "1"], "r", "0.7071067811865476", (0, 1)),
    # x^3 - x/2 - 1/3, irreducible (no rational root): reduction scale 6,
    # so the regular representation's columns scale by 6^j up to j = 2
    "cubic": (["-1/3", "-1/2", "0", "1"], "t", "0.9271132416464846",
              (Fraction(9, 10), 1)),
}


def _oracle_setup(name):
    from quasifold import NumberFieldDomain
    min_poly, symbol, approx, bracket = ORACLE_FIELDS[name]
    domain = NumberFieldDomain(min_poly, symbol, approx)
    root = bisect_root([Fraction(c) for c in min_poly], *bracket,
                       iterations=200)
    return domain, OracleField(min_poly), root


ORACLES = {name: _oracle_setup(name) for name in ORACLE_FIELDS}

coefficient = st.fractions(min_value=-12, max_value=12, max_denominator=6)


def from_coefficients(domain, coeffs):
    gen = domain.generator()
    return sum((c * gen ** k for k, c in enumerate(coeffs)), domain.zero())


@pytest.mark.parametrize("name", sorted(ORACLE_FIELDS))
@given(data=st.data())
def test_number_field_matches_oracle(name, data):
    domain, oracle, (lo, hi) = ORACLES[name]
    coeffs = st.lists(coefficient, min_size=oracle.degree,
                      max_size=oracle.degree)
    x, y = data.draw(coeffs), data.draw(coeffs)
    sx, sy = from_coefficients(domain, x), from_coefficients(domain, y)
    results = [(sx + sy, oracle.add(x, y)), (sx - sy, oracle.sub(x, y)),
               (sx * sy, oracle.mul(x, y))]
    if any(y):
        results.append((sy.inverse(), oracle.inv(y)))
    assert (sx == sy) == (x == y)
    for scalar, expected in results:
        assert_canonical(scalar)
        assert payload_coefficients(scalar) == expected
        rebuilt = parse_scalar(oracle_text(expected, domain.generator_symbol),
                               domain)
        assert rebuilt == scalar
        assert rebuilt.payload == scalar.payload
        assert hash(rebuilt) == hash(scalar)
        assert scalar.text() == oracle_text(expected, domain.generator_symbol)
        vlo, vhi = oracle.value_interval(expected, lo, hi)
        assert vlo > 0 or vhi < 0 or vlo == vhi == 0
        assert scalar.sign() == (vlo > 0) - (vhi < 0)
        value = Fraction(str(scalar.eval_numeric(15)))
        assert abs(value - vlo) <= abs(vlo) * Fraction(1, 10 ** 14)


def test_number_field_payload_is_canonical(quartic):
    alpha = quartic.generator()
    inv_phi = alpha ** 2 - 3
    assert ((inv_phi / 2) * 2).payload == inv_phi.payload == (1, -3, 0, 1, 0)
    assert hash((inv_phi / 2) * 2) == hash(inv_phi)
    assert (alpha * alpha ** -1).payload == quartic.one().payload == (1, 1, 0, 0, 0)
    assert hash(alpha * alpha ** -1) == hash(quartic.one())
    assert (alpha / 3 - alpha / 3).payload == quartic.zero().payload == (1, 0, 0, 0, 0)
    assert (inv_phi / 6).payload == (6, -3, 0, 1, 0)
    assert (inv_phi / 6 + alpha / 6).payload == (6, -3, 1, 1, 0)
    assert (inv_phi / 6 + inv_phi / 6).payload == (3, -3, 0, 1, 0)
    rng = random.Random(31)
    for _ in range(200):
        x = random_scalar(quartic, rng)
        for value in (x, x * x, x + 1, -x, x - x):
            assert_canonical(value)
        if x:
            assert_canonical(x.inverse())


# ---------------------------------------------------------------------------
# rational functions against a Fraction-coefficient oracle
# ---------------------------------------------------------------------------

def poly_trim(p):
    p = list(p)
    while p and not p[-1]:
        p.pop()
    return tuple(p)


def poly_add(p, q):
    n = max(len(p), len(q))
    return poly_trim([(p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0)
                      for i in range(n)])


def poly_mul(p, q):
    if not p or not q:
        return ()
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        for j, y in enumerate(q):
            out[i + j] += x * y
    return poly_trim(out)


def poly_divmod(p, q):
    rem, quot = list(p), [Fraction(0)] * max(len(p) - len(q) + 1, 1)
    while len(poly_trim(rem)) >= len(q):
        rem = list(poly_trim(rem))
        shift = len(rem) - len(q)
        factor = Fraction(rem[-1]) / q[-1]
        quot[shift] = factor
        for i, c in enumerate(q):
            rem[shift + i] -= factor * c
    return poly_trim(quot), poly_trim(rem)


def poly_gcd(p, q):
    while q:
        p, q = q, poly_divmod(p, q)[1]
    return tuple(Fraction(c) / p[-1] for c in p)


def poly_value(p, x):
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


class OracleRationalFunctions:
    """Pairs of Fraction-coefficient polynomials, reduced after every
    operation by a full gcd to a coprime pair with a monic denominator;
    independent of the integer payloads and of Henrici's cancellation."""

    def __init__(self, symbol):
        self.symbol = symbol

    def reduce(self, num, den):
        num, den = poly_trim(num), poly_trim(den)
        if not num:
            return (), (Fraction(1),)
        g = poly_gcd(num, den)
        num, den = poly_divmod(num, g)[0], poly_divmod(den, g)[0]
        return (tuple(c / den[-1] for c in num),
                tuple(c / den[-1] for c in den))

    def const(self, q):
        return self.reduce((Fraction(q),), (Fraction(1),))

    def add(self, x, y):
        return self.reduce(poly_add(poly_mul(x[0], y[1]), poly_mul(y[0], x[1])),
                           poly_mul(x[1], y[1]))

    def neg(self, x):
        return tuple(-c for c in x[0]), x[1]

    def mul(self, x, y):
        return self.reduce(poly_mul(x[0], y[0]), poly_mul(x[1], y[1]))

    def inv(self, x):
        return self.reduce(x[1], x[0])

    def text(self, x):
        num, den = x
        num_txt = oracle_text(num, self.symbol)
        if den == (1,):
            return num_txt
        if sum(1 for c in num if c) > 1:
            num_txt = f"({num_txt})"
        den_txt = oracle_text(den, self.symbol)
        if sum(1 for c in den if c) > 1:
            den_txt = f"({den_txt})"
        return f"{num_txt}/{den_txt}"

    def value(self, x, sample):
        den = poly_value(x[1], sample)
        if not den:
            raise ZeroDivisionError(sample)
        return poly_value(x[0], sample) / den

    def sign(self, x):
        """The sign for every a > 0, from sympy's count of the real roots
        of numerator and denominator in [0, oo), less a root at 0."""
        import sympy
        if not x[0]:
            return 0
        symbol = sympy.Symbol(self.symbol)
        for poly in x:
            p = sympy.Poly(list(reversed(poly)), symbol)
            if p.count_roots(0) - (not poly[0]):
                raise IndeterminateSignError(self.text(x))
        value = self.value(x, Fraction(1))
        return (value > 0) - (value < 0)

    def rational_rows(self, coefficients, target):
        values = [*coefficients, target]
        common = (Fraction(1),)
        for _, den in values:
            common = poly_mul(common,
                              poly_divmod(den, poly_gcd(common, den))[0])
        cleared = [poly_mul(num, poly_divmod(common, den)[0])
                   for num, den in values]
        width = max(max(len(p) for p in cleared), 1)
        return [([p[t] if t < len(p) else 0 for p in cleared[:-1]],
                 cleared[-1][t] if t < len(cleared[-1]) else 0)
                for t in range(width)]


def reduced_row_echelon(rows):
    """The reduced row echelon form of augmented rows [row | rhs], without
    zero rows: equal forms mean equal solution sets."""
    matrix = [[Fraction(c) for c in row] + [Fraction(rhs)] for row, rhs in rows]
    pivot_row = 0
    for col in range(len(matrix[0]) if matrix else 0):
        pivot = next((r for r in range(pivot_row, len(matrix))
                      if matrix[r][col]), None)
        if pivot is None:
            continue
        matrix[pivot_row], matrix[pivot] = matrix[pivot], matrix[pivot_row]
        lead = matrix[pivot_row][col]
        matrix[pivot_row] = [c / lead for c in matrix[pivot_row]]
        for r in range(len(matrix)):
            if r != pivot_row and matrix[r][col]:
                factor = matrix[r][col]
                matrix[r] = [c - factor * p
                             for c, p in zip(matrix[r], matrix[pivot_row])]
        pivot_row += 1
    return matrix[:pivot_row]


def payload_monic(scalar):
    """Read the documented payload (num, den) of int tuples, in the monic
    form of the oracle."""
    num, den = scalar.payload
    return (tuple(Fraction(c, den[-1]) for c in num),
            tuple(Fraction(c, den[-1]) for c in den))


def assert_rf_canonical(scalar):
    num, den = scalar.payload
    assert all(type(c) is int for c in num + den), scalar.payload
    assert den and den[-1] > 0
    assert not num or num[-1]
    assert math.gcd(*num, *den) == 1


def _rf_domain():
    from quasifold import RationalFunctionDomain
    return RationalFunctionDomain("a")


RF = _rf_domain()
RF_ORACLE = OracleRationalFunctions("a")
# a, a + 1, a - 2, 2a + 3 and a^2 + 1: shared factors are what drive the
# cancellations, and random polynomials rarely have one
RF_FACTORS = ((0, 1), (1, 1), (-2, 1), (3, 2), (1, 0, 1))
RF_SAMPLES = (Fraction(1, 3), Fraction(1), Fraction(2), Fraction(5, 2),
              Fraction(7))

rf_values = st.tuples(
    st.fractions(min_value=-20, max_value=20, max_denominator=12),
    st.lists(st.integers(-2, 2), min_size=len(RF_FACTORS),
             max_size=len(RF_FACTORS)))


def rf_build(content, exponents):
    """The same product of pool factors in the domain and in the oracle."""
    a = RF.generator()
    scalar = RF.scalar(content)
    expected = RF_ORACLE.const(content)
    for coeffs, e in zip(RF_FACTORS, exponents):
        factor = sum((c * a ** k for k, c in enumerate(coeffs)), RF.zero())
        scalar = scalar * factor ** e
        oracle_factor = tuple(Fraction(c) for c in coeffs), (Fraction(1),)
        for _ in range(abs(e)):
            expected = RF_ORACLE.mul(expected, oracle_factor if e > 0
                                     else RF_ORACLE.inv(oracle_factor))
    return scalar, expected


def check_rf(scalar, expected):
    assert_rf_canonical(scalar)
    assert payload_monic(scalar) == expected
    text = RF_ORACLE.text(expected)
    assert scalar.text() == text
    rebuilt = parse_scalar(text, RF)
    assert rebuilt.payload == scalar.payload
    assert hash(rebuilt) == hash(scalar)
    try:
        sign = RF_ORACLE.sign(expected)
    except IndeterminateSignError:
        with pytest.raises(IndeterminateSignError):
            scalar.sign()
    else:
        assert scalar.sign() == sign
    from quasifold import RationalDomain
    rational = RationalDomain()
    for sample in RF_SAMPLES:
        try:
            value = RF_ORACLE.value(expected, sample)
        except ZeroDivisionError:
            with pytest.raises(ValueError, match="vanishes at a = "):
                RF.substitute(scalar, sample, rational)
            continue
        pinned = RF.substitute(scalar, sample, rational)
        assert pinned.sign() == (value > 0) - (value < 0)
        assert pinned.as_rational() == value
        decimal = scalar.eval_numeric(15, parameter_sample=sample)
        assert abs(Fraction(decimal) - value) <= abs(value) * Fraction(1, 10 ** 14)


@given(x=rf_values, y=rf_values)
def test_rational_function_matches_oracle(x, y):
    (sx, ox), (sy, oy) = rf_build(*x), rf_build(*y)
    check_rf(sx, ox)
    check_rf(sy, oy)
    assert (sx == sy) == (ox == oy)
    assert (hash(sx) == hash(sy)) or ox != oy
    results = [(sx + sy, RF_ORACLE.add(ox, oy)),
               (sx - sy, RF_ORACLE.add(ox, RF_ORACLE.neg(oy))),
               (sx * sy, RF_ORACLE.mul(ox, oy)),
               (sx + sy * sx, RF_ORACLE.add(ox, RF_ORACLE.mul(oy, ox)))]
    if oy[0]:
        results.append((sy.inverse(), RF_ORACLE.inv(oy)))
        results.append((sx / sy, RF_ORACLE.mul(ox, RF_ORACLE.inv(oy))))
    for scalar, expected in results:
        check_rf(scalar, expected)


@given(values=st.lists(rf_values, min_size=2, max_size=4))
def test_rational_rows_match_oracle(values):
    built = [rf_build(*v) for v in values]
    scalars, expected = [s for s, _ in built], [o for _, o in built]
    rows = RF.rational_rows(scalars[:-1], scalars[-1])
    oracle_rows = RF_ORACLE.rational_rows(expected[:-1], expected[-1])
    assert all(type(c) is Fraction for row, rhs in rows for c in [*row, rhs])
    assert reduced_row_echelon(rows) == reduced_row_echelon(oracle_rows)


def test_rational_function_payload_is_canonical(parameter):
    a = parameter.generator()
    one, zero = parameter.one(), parameter.zero()
    assert zero.payload == ((), (1,))
    assert one.payload == ((1,), (1,))
    cases = [
        ((a ** 2 - 1) / (a - 1), a + 1, ((1, 1), (1,))),
        ((2 * a + 2) / (4 * a), (a + 1) / (2 * a), ((1, 1), (0, 2))),
        (a * a.inverse(), one, ((1,), (1,))),
        (a - a, zero, ((), (1,))),
        (-3 / (2 * a), 3 / (-2 * a), ((-3,), (0, 2))),
        ((1 - a) / (2 - 2 * a ** 2), 1 / (2 * a + 2), ((1,), (2, 2))),
        # a sum over a shared factor that cancels: 1/(a(a+1)) + 1/(a+1)
        (1 / (a * (a + 1)) + 1 / (a + 1), 1 / a, ((1,), (0, 1))),
        (1 / (2 * a) + 1 / (4 * a), parse_scalar("3/(4*a)", parameter),
         ((3,), (0, 4))),
    ]
    for left, right, payload in cases:
        assert left.payload == right.payload == payload
        assert left == right and hash(left) == hash(right)
        assert_rf_canonical(left)
    rng = random.Random(47)
    for _ in range(200):
        x = random_scalar(parameter, rng)
        for value in (x, x * x, x + 1, -x, x - x, x / 3):
            assert_rf_canonical(value)
        if x:
            assert_rf_canonical(x.inverse())
