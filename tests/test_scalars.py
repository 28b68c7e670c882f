import math
import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given
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
    a = parameter.generator()
    with pytest.raises(IndeterminateSignError):
        (a - 1).sign()
    assert (a - 1).sign(parameter_sample=Fraction(2)) == 1
    assert (a - 1).sign(parameter_sample=Fraction("1/2")) == -1
    assert a.sign() == 1
    assert (-a - 1).sign() == -1


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
    # x^2 - 1 factors; inverting r - 1 hits the zero divisor
    from quasifold import NumberFieldDomain
    domain = NumberFieldDomain(["-1", "0", "1"], "r", "1.0000000001")
    with pytest.raises(ZeroDivisionError):
        (domain.generator() - 1).inverse()


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
