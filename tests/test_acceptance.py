"""Acceptance suite: one test per criterion, each printing a pass line.

Expected values are the known closed forms of these classical examples
(transition displays, the dodecahedron cone table, golden-ratio relations) or
from independent oracles computed here (brute-force integer linear algebra,
exact integer solves for chart-group membership).
"""

import itertools
import math
import random
from fractions import Fraction

import pytest

from quasifold import (Atlas, Fan, FundamentalTriple, Matrix, NumericAtlas,
                       Quasilattice, TrialConfig, check_branch_invariance,
                       check_connecting_element, check_factorization,
                       check_transition_equivariance,
                       cocycle_check, load_gallery, specialize_document,
                       document_to_triple, integer_solve, verify_triple)
from quasifold.documents import transition_section

TOLERANCE = 1e-9
TRIALS = 100

# (index set, vertex coordinates, fixed point) rows of the dodecahedron cone
# table; phi is the golden ratio alpha^2 - 2, its inverse is alpha^2 - 3
PHI = "(alpha^2 - 2)"
INV = "(alpha^2 - 3)"
DODECAHEDRON_TABLE = [
    ((1, 2, 3), ("-1", "-1", "-1"), "[0:0:0:1:1:1:1:1:1:1:1:1]"),
    ((1, 2, 4), ("0", f"-{PHI}", f"-{INV}"), "[0:0:1:0:1:1:1:1:1:1:1:1]"),
    ((1, 3, 6), (f"-{PHI}", f"-{INV}", "0"), "[0:1:0:1:1:0:1:1:1:1:1:1]"),
    ((1, 4, 11), ("0", f"-{PHI}", INV), "[0:1:1:0:1:1:1:1:1:1:0:1]"),
    ((1, 6, 11), ("-1", "-1", "1"), "[0:1:1:1:1:0:1:1:1:1:0:1]"),
    ((2, 3, 5), (f"-{INV}", "0", f"-{PHI}"), "[1:0:0:1:0:1:1:1:1:1:1:1]"),
    ((2, 4, 12), ("1", "-1", "-1"), "[1:0:1:0:1:1:1:1:1:1:1:0]"),
    ((2, 5, 12), (INV, "0", f"-{PHI}"), "[1:0:1:1:0:1:1:1:1:1:1:0]"),
    ((3, 5, 10), ("-1", "1", "-1"), "[1:1:0:1:0:1:1:1:1:0:1:1]"),
    ((3, 6, 10), (f"-{PHI}", INV, "0"), "[1:1:0:1:1:0:1:1:1:0:1:1]"),
    ((4, 9, 11), ("1", "-1", "1"), "[1:1:1:0:1:1:1:1:0:1:0:1]"),
    ((4, 9, 12), (PHI, f"-{INV}", "0"), "[1:1:1:0:1:1:1:1:0:1:1:0]"),
    ((5, 7, 10), ("0", PHI, f"-{INV}"), "[1:1:1:1:0:1:0:1:1:0:1:1]"),
    ((5, 7, 12), ("1", "1", "-1"), "[1:1:1:1:0:1:0:1:1:1:1:0]"),
    ((6, 8, 10), ("-1", "1", "1"), "[1:1:1:1:1:0:1:0:1:0:1:1]"),
    ((6, 8, 11), (f"-{INV}", "0", PHI), "[1:1:1:1:1:0:1:0:1:1:0:1]"),
    ((7, 8, 9), ("1", "1", "1"), "[1:1:1:1:1:1:0:0:0:1:1:1]"),
    ((7, 8, 10), ("0", PHI, INV), "[1:1:1:1:1:1:0:0:1:0:1:1]"),
    ((7, 9, 12), (PHI, INV, "0"), "[1:1:1:1:1:1:0:1:0:1:1:0]"),
    ((8, 9, 11), (INV, "0", PHI), "[1:1:1:1:1:1:1:0:0:1:0:1]"),
]


@pytest.fixture(scope="module")
def entries():
    out = {}
    for name in ("quasisphere", "cp2-11a", "hirzebruch", "kite",
                 "dodecahedron"):
        doc = load_gallery(name)
        triple, fan_result = document_to_triple(doc)
        out[name] = (doc, triple, fan_result, Atlas.compile(triple))
    return out


def matrix_of(domain, rows):
    return Matrix.from_rows(domain, rows)


def rendered(atlas, source, target):
    """The report's rendering of the chart change from source to target."""
    return transition_section(atlas.terms(target), source, target)["rendered"]


def in_group(domain, exponents, phase):
    """Whether phase lies in exponents Z^k + Z^n: an integer solution of
    [C | I] (m, u) = phase, exact over Q through ``rational_rows``."""
    rows, rhs = [], []
    for i in range(exponents.rows):
        identity = [domain.scalar(int(i == l)) for l in range(exponents.rows)]
        for row, value in domain.rational_rows([*exponents.row(i), *identity],
                                               phase[i]):
            rows.append(row)
            rhs.append(value)
    return integer_solve(rows, [rhs]) != [None]


def test_criterion_1_quasisphere(entries):
    doc, triple, _, atlas = entries["quasisphere"]
    exponents = atlas.transition((1,), (2,))
    assert exponents == matrix_of(doc.domain, [["-a"]])
    assert rendered(atlas, (1,), (2,)) == "[z^-a]"

    # the chart groups generate the same subgroups of the circle as the
    # textbook generators h/a and a h: exact membership both ways
    domain = doc.domain
    textbook = {(1,): "1/a", (2,): "a"}
    checks = 0
    for cone, generator in textbook.items():
        ours = atlas.chart(cone).group_exponents
        theirs = matrix_of(domain, [[generator]])
        for group, other in ((ours, theirs), (theirs, ours)):
            for column in range(other.cols):
                assert in_group(domain, group, other.column(column))
                checks += 1
    # a phase outside both groups is refused
    assert not in_group(domain, atlas.chart((1,)).group_exponents,
                        [domain.scalar("1/2") / domain.generator()])
    print("criterion 1: PASS - quasisphere transition [z^-a] exact; "
          "chart groups match the textbook generators in "
          f"{checks} exact membership checks")


def test_criterion_2_weighted_projective(entries):
    doc, triple, _, atlas = entries["cp2-11a"]
    exponents = atlas.transition((2, 3), (1, 3))
    assert exponents == matrix_of(doc.domain, [["-1", "0"], ["-a", "1"]])
    assert rendered(atlas, (2, 3), (1, 3)) == "[z2^-1 : z2^-a z3]"

    special = specialize_document(doc, 1)
    striple, _ = document_to_triple(special)
    satlas = Atlas(striple)
    special_exponents = satlas.transition((2, 3), (1, 3))
    for entry in special_exponents.entries:
        assert entry.is_integer()
    assert special_exponents == matrix_of(special.domain,
                                          [["-1", "0"], ["-1", "1"]])
    print("criterion 2: PASS - weighted projective transition "
          "[[-1,0],[-a,1]] with rendering [z2^-1 : z2^-a z3]; a=1 "
          "specializes to the classical integer exponents")


def test_criterion_3_ruled_surface_coincidence(entries):
    _, _, _, cp2_atlas = entries["cp2-11a"]
    _, _, _, ruled_atlas = entries["hirzebruch"]
    left = cp2_atlas.transition((2, 3), (1, 3))
    right = ruled_atlas.transition((2, 3), (1, 3))
    assert left == right
    print("criterion 3: PASS - the {2,3} -> {1,3} chart change of the "
          "ruled-surface family equals the weighted projective one exactly")


def test_criterion_4_kite(entries):
    doc, triple, _, atlas = entries["kite"]
    exponents = atlas.transition((1, 4), (2, 4))
    inv_phi = f"1/{PHI}"
    assert exponents == matrix_of(
        doc.domain, [[f"-{inv_phi}", "0"], [inv_phi, "1"]])
    assert rendered(atlas, (1, 4), (2, 4)) == \
        "[z1^(-alpha^2 + 3) : z1^(alpha^2 - 3) z4]"
    # the displayed exponents -1/phi and 1/phi as exact canonical forms
    phi = doc.domain.scalar("alpha^2 - 2")
    assert exponents[0, 0] == -(phi.inverse())
    assert exponents[1, 0] == phi.inverse()
    print("criterion 4: PASS - kite transition equals "
          "[[-1/phi, 0], [1/phi, 1]] over Q(alpha) exactly")


def test_criterion_5_dodecahedron(entries):
    doc, triple, fan_result, atlas = entries["dodecahedron"]
    domain = doc.domain

    # (a) the twenty (vertex, index set, fixed point) rows, exactly
    expected_rows = set()
    for cone, vertex, fixed in DODECAHEDRON_TABLE:
        coords = tuple(domain.scalar(x) for x in vertex)
        expected_rows.add((cone, coords, fixed))
    actual_rows = set()
    for cone, vertex in fan_result.table():
        fixed = "[" + ":".join(
            "0" if j in set(cone) else "1"
            for j in range(1, triple.ray_count + 1)) + "]"
        actual_rows.add((cone, tuple(vertex.coordinates), fixed))
    assert actual_rows == expected_rows

    # (b) the relation rows of the first cone
    inv_phi = domain.scalar("alpha^2 - 3")
    one = domain.one()
    relation = atlas.relations((1, 2, 3))
    assert relation[4] == (inv_phi, inv_phi, -one)
    assert relation[5] == (-one, inv_phi, inv_phi)
    assert relation[6] == (inv_phi, -one, inv_phi)

    # (c) the two known monomial displays
    first = atlas.transition((1, 2, 3), (1, 2, 4))
    assert first == matrix_of(domain, [
        ["1", "0", f"1/{PHI}"],
        ["0", "1", f"1/{PHI}"],
        ["0", "0", "-1"]])
    assert rendered(atlas, (1, 2, 3), (1, 2, 4)) == \
        "[z1 z3^(alpha^2 - 3) : z2 z3^(alpha^2 - 3) : z3^-1]"
    second = atlas.transition((1, 2, 4), (1, 3, 6))
    assert second == matrix_of(domain, [
        ["1", f"1/{PHI}", "1"],
        ["0", f"1/{PHI}", f"-1/{PHI}"],
        ["0", "-1", f"-1/{PHI}"]])
    assert rendered(atlas, (1, 2, 4), (1, 3, 6)) == (
        "[z1 z2^(alpha^2 - 3) z4 : "
        "z2^(alpha^2 - 3) z4^(-alpha^2 + 3) : "
        "z2^-1 z4^(-alpha^2 + 3)]")
    print("criterion 5: PASS - dodecahedron cone table (20 rows), base "
          "relations, and both known transitions reproduced exactly")


def _check_identities(triple, atlas):
    report = cocycle_check(triple, atlas)
    assert report.passed
    one = triple.domain.one()
    for source, target in itertools.permutations(triple.fan.max_cones, 2):
        exponents = atlas.transition(source, target)
        assert (exponents.row_labels, exponents.col_labels) == (target, source)
        for j in set(source) & set(target):
            col = source.index(j)
            row = target.index(j)
            for i in range(exponents.rows):
                entry = exponents[i, col]
                assert entry == one if i == row else entry.is_zero()
    return report


def random_plane_triple(rng, rational):
    rays, seen = [], set()
    count = rng.randint(3, 7)
    while len(rays) < count:
        x, y = rng.randint(-9, 9), rng.randint(-9, 9)
        if (x, y) == (0, 0):
            continue
        g = math.gcd(abs(x), abs(y))
        x, y = x // g, y // g
        if (x, y) in seen or (-x, -y) in seen:
            continue
        seen.add((x, y))
        rays.append((x, y))
    rays.sort(key=lambda v: math.atan2(v[1], v[0]))
    cones = [[i + 1, (i + 1) % len(rays) + 1] for i in range(len(rays))]
    fan = Fan(2, [[rational.scalar(x), rational.scalar(y)] for x, y in rays],
              cones)
    lattice = Quasilattice(rational, Matrix.identity(rational, 2))
    return FundamentalTriple(fan, lattice, [tuple(r) for r in rays])


def test_criterion_6_identities(entries, rational):
    counts = {}
    for name, (_, triple, _, atlas) in entries.items():
        report = _check_identities(triple, atlas)
        counts[name] = (report.pairs_checked, report.triples_checked)
    assert counts["dodecahedron"][0] == 20 * 19

    rng = random.Random(61803)
    randomized = 0
    for _ in range(50):
        triple = random_plane_triple(rng, rational)
        _check_identities(triple, Atlas.compile(triple))
        randomized += 1
    assert randomized == 50
    print("criterion 6: PASS - shared-column, inverse-pair, and triangle "
          f"identities exact on all five entries ({counts}) and on 50 "
          "randomized rational simplicial triples")


def test_criterion_7_numeric_verification(entries):
    cfg = TrialConfig(samples=TRIALS, seed=0, tolerance=TOLERANCE)
    for name, (_, triple, _, atlas) in entries.items():
        summary = verify_triple(triple, cfg, atlas=atlas)
        assert summary.passed, (name, summary.reports)
        for check, report in summary.reports.items():
            assert not report.failures, (name, check)

    # fault injection: every entry of the weighted projective transition is
    # caught by branch invariance; the other checks are exercised on their
    # load-bearing exponents, plus dodecahedron spot checks
    _, cp2, _, cp2_atlas = entries["cp2-11a"]
    numeric = NumericAtlas(cp2, atlas=cp2_atlas)
    fault_cfg = TrialConfig(samples=TRIALS, seed=1, tolerance=TOLERANCE)
    for i in range(2):
        for j in range(2):
            report = check_branch_invariance(cp2, (1, 3), fault_cfg,
                                             numeric=numeric,
                                             fault=(i, j, 1e-3))
            assert report.failures, ("branch", i, j)
            report = check_connecting_element(cp2, (2, 3), (1, 3), fault_cfg,
                                              numeric=numeric,
                                              fault=(i, j, 1e-3))
            assert report.failures, ("connecting", i, j)
    for i in range(2):
        report = check_transition_equivariance(cp2, (2, 3), (1, 3), fault_cfg,
                                               numeric=numeric,
                                               fault=(i, 1, 1e-3))
        assert report.failures, ("equivariance", i)
    report = check_factorization(cp2, (1, 3), fault_cfg, numeric=numeric,
                                 fault=(1, 2, 1e-3))
    assert report.failures

    _, dodeca, _, dodeca_atlas = entries["dodecahedron"]
    dnumeric = NumericAtlas(dodeca, atlas=dodeca_atlas)
    report = check_branch_invariance(dodeca, (1, 2, 3), fault_cfg,
                                     numeric=dnumeric, fault=(0, 2, 1e-3))
    assert report.failures
    report = check_transition_equivariance(dodeca, (1, 2, 3), (1, 2, 4),
                                           fault_cfg, numeric=dnumeric,
                                           fault=(0, 2, 1e-3))
    assert report.failures
    report = check_connecting_element(dodeca, (1, 2, 3), (1, 2, 4),
                                      fault_cfg, numeric=dnumeric,
                                      fault=(2, 2, 1e-3))
    assert report.failures
    report = check_factorization(dodeca, (1, 2, 3), fault_cfg,
                                 numeric=dnumeric, fault=(0, 3, 1e-3))
    assert report.failures
    print("criterion 7: PASS - all four checks clean at defaults on every "
          "entry; 1e-3 exponent faults detected within 100 trials")


# -- criterion 8: brute-force integer oracle --------------------------------

def _permutation_determinant(rows):
    n = len(rows)
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = [False] * n
        # count cycle parity
        for start in range(n):
            if seen[start]:
                continue
            length = 0
            j = start
            while not seen[j]:
                seen[j] = True
                j = perm[j]
                length += 1
            if length % 2 == 0:
                sign = -sign
        prod = Fraction(1)
        for i in range(n):
            prod *= rows[i][perm[i]]
        total += sign * prod
    return total


def _cramer_transition(target_cols, source_cols):
    """E with E[i][j] solving target @ col_j = source_j, by Cramer's rule."""
    n = len(target_cols)
    rows = [[target_cols[c][r] for c in range(n)] for r in range(n)]
    det = _permutation_determinant(rows)
    assert det != 0
    out = []
    for i in range(n):
        out_row = []
        for j in range(n):
            replaced = [[source_cols[j][r] if c == i else target_cols[c][r]
                         for c in range(n)] for r in range(n)]
            out_row.append(_permutation_determinant(replaced) / det)
        out.append(out_row)
    return out


def test_criterion_8_integer_oracle(entries):
    for name, hand_checks in (
        ("cp2-11a", {((2, 3), (1, 3)): [[-1, 0], [-1, 1]]}),
        ("hirzebruch", {((2, 3), (1, 3)): [[-1, 0], [-1, 1]],
                        ((1, 3), (1, 4)): [[1, 0], [0, -1]]}),
    ):
        doc = load_gallery(name)
        special = specialize_document(doc, 1)
        triple, _ = document_to_triple(special)
        atlas = Atlas.compile(triple)
        for source, target in itertools.permutations(triple.fan.max_cones, 2):
            exponents = atlas.transition(source, target)
            got = [[exponents[i, j].as_rational()
                    for j in range(triple.dim)] for i in range(triple.dim)]
            for row in got:
                for value in row:
                    assert value is not None and value.denominator == 1
            source_cols = [[x.as_rational() for x in triple.ray(i)]
                           for i in sorted(source)]
            target_cols = [[x.as_rational() for x in triple.ray(i)]
                           for i in sorted(target)]
            oracle = _cramer_transition(target_cols, source_cols)
            assert got == oracle
            key = (source, target)
            if key in hand_checks:
                assert got == [[Fraction(v) for v in row]
                               for row in hand_checks[key]]
    print("criterion 8: PASS - a=1 specializations are integral and match "
          "the brute-force Cramer oracle and classical hand values")
