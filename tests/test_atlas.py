import dataclasses
import itertools
import math
import random
from fractions import Fraction

import pytest

from quasifold import (Atlas, CocycleReport, Fan, FundamentalTriple,
                       InputDocument, Matrix, NumberFieldDomain,
                       Quasilattice, RationalDomain,
                       RationalFunctionDomain, build_chart, cocycle_check,
                       document_to_triple, fixed_point, load_gallery,
                       orbit_report, relations, render_monomial_map,
                       specialize_document, to_triple, transition_map)


def expected_matrix(domain, rows):
    return Matrix.from_rows(domain, rows)


# ---------------------------------------------------------------------------
# charts
# ---------------------------------------------------------------------------

def test_quasisphere_charts(gallery):
    doc, triple, _ = gallery["quasisphere"]
    chart1 = build_chart(triple, (1,))
    assert [e.text() for e in chart1.group_exponents.entries] == ["1/a", "0"]
    chart2 = build_chart(triple, (2,))
    assert [e.text() for e in chart2.group_exponents.entries] == ["0", "-a"]
    assert chart1.fixed_point == (0, 1)
    assert chart2.fixed_point == (1, 0)
    assert chart1.matrix @ chart1.inverse == Matrix.identity(doc.domain, 1)


def test_dodecahedron_first_chart_group(gallery):
    doc, triple, _ = gallery["dodecahedron"]
    chart = build_chart(triple, (1, 2, 3))
    inv_phi = doc.domain.scalar("alpha^2 - 3")
    zero = doc.domain.zero()
    # columns for the first three generators are unit vectors, reduced away
    for col in range(3):
        assert all(x.is_zero() for x in chart.group_exponents.column(col))
    # the columns for the other generators keep 1/phi and drop the -1 entries
    assert chart.group_exponents.column(3) == (inv_phi, inv_phi, zero)
    assert chart.group_exponents.column(4) == (zero, inv_phi, inv_phi)
    assert chart.group_exponents.column(5) == (inv_phi, zero, inv_phi)


def test_group_exponent_columns_are_lattice_compatible(gallery):
    # A_sigma times each reduced column must land back in the lattice with
    # integer coordinates, reconstructible from the stored witnesses
    for name, (doc, triple, _) in gallery.items():
        for cone in triple.fan.max_cones:
            chart = build_chart(triple, cone)
            for col in range(chart.group_exponents.cols):
                reduced = chart.group_exponents.column(col)
                raw = chart.inverse.apply(triple.lattice.generators.column(col))
                dropped = [x - y for x, y in zip(raw, reduced)]
                coefficients = [0] * triple.lattice.count
                coefficients[col] += 1
                for entry, ray_index in zip(dropped, cone):
                    q = entry.as_rational()
                    assert q is not None and q.denominator == 1
                    witness = triple.witnesses[ray_index - 1]
                    for t, w in enumerate(witness):
                        coefficients[t] -= int(q) * w
                value = triple.lattice.combination(coefficients)
                target = chart.matrix.apply(reduced)
                assert all((x - y).is_zero() for x, y in zip(value, target))


# ---------------------------------------------------------------------------
# fixed points
# ---------------------------------------------------------------------------

def test_fixed_point_patterns(gallery):
    _, dodeca, _ = gallery["dodecahedron"]
    assert fixed_point(dodeca, (1, 2, 3)) == (0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1)
    assert fixed_point(dodeca, (8, 9, 11)) == (1, 1, 1, 1, 1, 1, 1, 0, 0, 1, 0, 1)
    _, sphere, _ = gallery["quasisphere"]
    assert fixed_point(sphere, (1,)) == (0, 1)


def test_fixed_point_zero_count(gallery):
    for _, triple, _ in gallery.values():
        for cone in triple.fan.max_cones:
            pattern = fixed_point(triple, cone)
            assert sum(1 for x in pattern if x == 0) == triple.dim
            assert all(pattern[i - 1] == 0 for i in cone)


# ---------------------------------------------------------------------------
# transitions
# ---------------------------------------------------------------------------

def test_transition_quasisphere(gallery):
    doc, triple, _ = gallery["quasisphere"]
    tmap = transition_map(triple, (1,), (2,))
    assert tmap.exponents == expected_matrix(doc.domain, [["-a"]])
    assert tmap.render() == "[z^-a]"
    assert tmap.dense_only and tmap.h == 1


def test_transition_weighted_projective(gallery):
    doc, triple, _ = gallery["cp2-11a"]
    tmap = transition_map(triple, (2, 3), (1, 3))
    assert tmap.exponents == expected_matrix(doc.domain,
                                             [["-1", "0"], ["-a", "1"]])
    assert tmap.render() == "[z2^-1 : z2^-a z3]"
    assert not tmap.dense_only and tmap.h == 1


def test_transition_kite(gallery):
    doc, triple, _ = gallery["kite"]
    tmap = transition_map(triple, (1, 4), (2, 4))
    phi_inv = "1/(alpha^2 - 2)"
    assert tmap.exponents == expected_matrix(
        doc.domain, [[f"-{phi_inv}", "0"], [phi_inv, "1"]])
    assert tmap.render() == \
        "[z1^(-alpha^2 + 3) : z1^(alpha^2 - 3) z4]"


def test_transition_dodecahedron_edge_pair(gallery):
    doc, triple, _ = gallery["dodecahedron"]
    tmap = transition_map(triple, (1, 2, 3), (1, 2, 4))
    phi_inv = "1/(alpha^2 - 2)"
    assert tmap.exponents == expected_matrix(doc.domain, [
        ["1", "0", phi_inv],
        ["0", "1", phi_inv],
        ["0", "0", "-1"],
    ])
    assert tmap.render() == \
        "[z1 z3^(alpha^2 - 3) : z2 z3^(alpha^2 - 3) : z3^-1]"


def test_transition_dodecahedron_facet_pair(gallery):
    doc, triple, _ = gallery["dodecahedron"]
    tmap = transition_map(triple, (1, 2, 4), (1, 3, 6))
    phi_inv = "1/(alpha^2 - 2)"
    assert tmap.exponents == expected_matrix(doc.domain, [
        ["1", phi_inv, "1"],
        ["0", phi_inv, f"-{phi_inv}"],
        ["0", "-1", f"-{phi_inv}"],
    ])
    assert tmap.render() == ("[z1 z2^(alpha^2 - 3) z4 : "
                             "z2^(alpha^2 - 3) z4^(-alpha^2 + 3) : "
                             "z2^-1 z4^(-alpha^2 + 3)]")


def test_render_edge_cases(rational):
    exponents = Matrix.from_rows(rational, [["0", "0"], ["1", "-2"]],
                                 col_labels=(4, 7))
    assert render_monomial_map(exponents, 2) == "[1 : z4 z7^-2]"
    half = Matrix.from_rows(rational, [["1/2"]], col_labels=(1,))
    assert render_monomial_map(half, 2) == "[z1^(1/2)]"


# ---------------------------------------------------------------------------
# relations
# ---------------------------------------------------------------------------

def test_relations_dodecahedron_base(gallery):
    doc, triple, _ = gallery["dodecahedron"]
    inv_phi = doc.domain.scalar("alpha^2 - 3")
    one = doc.domain.one()
    relation = relations(triple, (1, 2, 3))
    assert relation.coefficients[4] == (inv_phi, inv_phi, -one)
    assert relation.coefficients[5] == (-one, inv_phi, inv_phi)
    assert relation.coefficients[6] == (inv_phi, -one, inv_phi)
    assert set(relation.coefficients) == set(range(4, 13))


def test_relations_dodecahedron_rewritten(gallery):
    doc, triple, _ = gallery["dodecahedron"]
    inv_phi = doc.domain.scalar("alpha^2 - 3")
    one = doc.domain.one()
    relation = relations(triple, (1, 2, 4))
    assert relation.coefficients[3] == (inv_phi, inv_phi, -one)
    assert relation.coefficients[5] == (-inv_phi, one, -inv_phi)
    assert relation.coefficients[6] == (one, -inv_phi, -inv_phi)


def test_relations_skip_cone_members(gallery):
    for _, triple, _ in gallery.values():
        for cone in triple.fan.max_cones:
            relation = relations(triple, cone)
            assert set(relation.coefficients) == \
                set(range(1, triple.ray_count + 1)) - set(cone)


def test_relation_kernel_soundness(gallery):
    for _, triple, _ in gallery.values():
        pi = triple.ray_matrix()
        for cone in triple.fan.max_cones:
            relation = relations(triple, cone)
            for j, vector in relation.kernel_vectors.items():
                assert vector[j - 1] == triple.domain.one()
                # distinguished: zero at every other ray outside the cone
                for other in relation.kernel_vectors:
                    if other != j:
                        assert vector[other - 1].is_zero()
                assert all(x.is_zero() for x in pi.apply(vector))


# ---------------------------------------------------------------------------
# chart changes and relations against the per-pair products
# ---------------------------------------------------------------------------

def truncated_dodecahedron_triple():
    from test_polytopes import truncated_dodecahedron
    polytope, witnesses = truncated_dodecahedron()
    return to_triple(polytope, load_gallery("dodecahedron").lattice, witnesses)[0]


def test_coordinate_tables_match_per_pair_products(gallery, gallery_atlases):
    cases = {name: (triple, gallery_atlases[name])
             for name, (_, triple, _) in gallery.items()}
    triple = truncated_dodecahedron_triple()
    cases["truncated-dodecahedron"] = (triple, Atlas.compile(triple))
    assert len(triple.fan.max_cones) == 60
    for name, (triple, atlas) in cases.items():
        one, zero = triple.domain.one(), triple.domain.zero()
        for sigma in triple.fan.max_cones:
            chart = atlas.chart(sigma)
            for t, i in enumerate(sigma):
                assert chart.coordinates.column(i - 1) == tuple(
                    one if s == t else zero for s in range(len(sigma))), name
            for j, coords in atlas.relation_set(sigma).coefficients.items():
                assert coords == chart.inverse.apply(triple.ray(j)), (name, sigma, j)
            for tau in triple.fan.max_cones:
                if tau == sigma:
                    continue
                exponents = atlas.transition(tau, sigma).exponents
                expected = chart.inverse @ triple.cone_matrix(tau)
                assert exponents == expected, (name, tau, sigma)
                assert exponents.row_labels == expected.row_labels == sigma
                assert exponents.col_labels == expected.col_labels == tau


def test_compile_multiplies_per_chart_not_per_pair(gallery, monkeypatch):
    triple = gallery["dodecahedron"][1]
    calls = []
    product = Matrix.__matmul__

    def counted(self, other):
        calls.append((self.rows, other.cols))
        return product(self, other)
    monkeypatch.setattr(Matrix, "__matmul__", counted)
    atlas = Atlas.compile(triple)
    assert len(atlas._transitions) == 380
    assert len(calls) <= 2 * len(triple.fan.max_cones)
    for cone in triple.fan.max_cones:
        atlas.relation_set(cone)
    assert len(calls) <= 2 * len(triple.fan.max_cones)


# ---------------------------------------------------------------------------
# cocycle and orbits
# ---------------------------------------------------------------------------

def test_cocycle_single_cone(rational):
    lattice = Quasilattice(rational, Matrix.identity(rational, 2))
    rays = [[rational.one(), rational.zero()],
            [rational.zero(), rational.one()]]
    fan = Fan(2, rays, [[1, 2]])
    triple = FundamentalTriple(fan, lattice, [(1, 0), (0, 1)])
    report = cocycle_check(triple)
    assert report.pairs_checked == 0 and report.triples_checked == 0
    assert report.passed


def test_cocycle_weighted_projective(gallery, gallery_atlases):
    _, triple, _ = gallery["cp2-11a"]
    report = cocycle_check(triple, gallery_atlases["cp2-11a"])
    assert report.pairs_checked == 6
    assert report.triples_checked == 6
    assert report.passed


def test_orbit_reports(gallery):
    _, sphere, _ = gallery["quasisphere"]
    rows = orbit_report(sphere)
    assert [(r.cone_dim, r.orbit_dim, r.count) for r in rows] == \
        [(0, 1, 1), (1, 0, 2)]
    _, cp2, _ = gallery["cp2-11a"]
    rows = orbit_report(cp2)
    assert [(r.cone_dim, r.orbit_dim, r.count) for r in rows] == \
        [(0, 2, 1), (1, 1, 3), (2, 0, 3)]
    _, dodeca, _ = gallery["dodecahedron"]
    rows = orbit_report(dodeca)
    assert [(r.cone_dim, r.orbit_dim, r.count) for r in rows] == \
        [(0, 3, 1), (1, 2, 12), (2, 1, 30), (3, 0, 20)]


# ---------------------------------------------------------------------------
# structural invariants across the gallery
# ---------------------------------------------------------------------------

def test_shared_column_property(gallery, gallery_atlases):
    for name, (_, triple, _) in gallery.items():
        atlas = gallery_atlases[name]
        for source, target in itertools.permutations(triple.fan.max_cones, 2):
            tmap = atlas.transition(source, target)
            for j in tmap.shared:
                col = tmap.source.index(j)
                row = tmap.target.index(j)
                for i in range(tmap.exponents.rows):
                    entry = tmap.exponents[i, col]
                    if i == row:
                        assert entry == triple.domain.one()
                    else:
                        assert entry.is_zero()


def test_inverse_pair_property(gallery, gallery_atlases):
    for name, (_, triple, _) in gallery.items():
        atlas = gallery_atlases[name]
        identity = Matrix.identity(triple.domain, triple.dim)
        for a, b in itertools.combinations(triple.fan.max_cones, 2):
            forward = atlas.transition(a, b).exponents
            backward = atlas.transition(b, a).exponents
            assert forward @ backward == identity


def random_plane_fan(rng, rational):
    """A random complete-ish simplicial fan in the plane over Z^2."""
    rays = []
    seen = set()
    count = rng.randint(3, 7)
    while len(rays) < count:
        x, y = rng.randint(-9, 9), rng.randint(-9, 9)
        if (x, y) == (0, 0):
            continue
        g = math.gcd(abs(x), abs(y))
        x, y = x // g, y // g
        # keep directions pairwise non-parallel so consecutive pairs span
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


def test_randomized_rational_triples_cocycle(rational):
    rng = random.Random(424242)
    for _ in range(50):
        triple = random_plane_fan(rng, rational)
        report = cocycle_check(triple)
        assert report.passed
        expected_pairs = len(triple.fan.max_cones) * (len(triple.fan.max_cones) - 1)
        assert report.pairs_checked == expected_pairs


# ---------------------------------------------------------------------------
# the cocycle certificate against the literal matrix-product sweep
# ---------------------------------------------------------------------------

def literal_cocycle(triple, atlas):
    """The certificate as Matrix products: every pair, then every triple."""
    cones = triple.fan.max_cones
    identity = Matrix.identity(triple.domain, triple.dim)
    violations = []
    pairs = 0
    for a, b in itertools.permutations(cones, 2):
        pairs += 1
        product = atlas.transition(b, a).exponents @ atlas.transition(a, b).exponents
        if product != identity:
            violations.append(("pair", a, b))
    count = 0
    for a, b, c in itertools.permutations(cones, 3):
        count += 1
        direct = atlas.transition(c, a).exponents
        composed = atlas.transition(b, a).exponents @ atlas.transition(c, b).exponents
        if direct != composed:
            violations.append(("triple", a, b, c))
    return CocycleReport(pairs_checked=pairs, triples_checked=count,
                         violations=tuple(violations))


def fan_triple(domain, rays, cones, generators):
    fan = Fan(len(rays[0]), [[domain.scalar(x) for x in ray] for ray in rays],
              cones)
    lattice = Quasilattice(domain, Matrix.from_columns(domain, generators))
    return FundamentalTriple(fan, lattice)


def param_fan_triple():
    """16 cones over Q(a): an octagon in z = 0 coned off to two apexes."""
    domain = RationalFunctionDomain("a")
    rays = [("1", "0", "0"), ("a", "1", "0"), ("0", "1", "0"),
            ("-1", "a", "0"), ("-1", "0", "0"), ("-a", "-1", "0"),
            ("0", "-1", "0"), ("1", "-a", "0"), ("1", "a", "1"),
            ("a", "0", "-1")]
    cones = [(i, i % 8 + 1, apex) for apex in (9, 10) for i in range(1, 9)]
    generators = [("1", "0", "0"), ("0", "1", "0"), ("0", "0", "1"),
                  ("a", "0", "0"), ("0", "a", "0")]
    return fan_triple(domain, rays, cones, generators)


def simplex4_triple():
    """The fan of the 4-simplex over Z^4: rays e1..e4 and -(e1+...+e4)."""
    domain = RationalDomain()
    unit = [tuple(str(int(i == j)) for j in range(4)) for i in range(4)]
    return fan_triple(domain, unit + [("-1",) * 4],
                      list(itertools.combinations(range(1, 6), 4)), unit)


def half_field_triple():
    """A complete 3-d fan over Q(b), b^2 = 1/2: x^2 reduces over 2."""
    domain = NumberFieldDomain(["-1/2", "0", "1"], "b", "0.7071067811865476")
    unit = [tuple(str(int(i == j)) for j in range(3)) for i in range(3)]
    rays = unit + [("-b", "-1", "-b - 1/3")]
    generators = unit + [tuple("b" if i == j else "0" for j in range(3))
                         for i in range(3)]
    return fan_triple(domain, rays,
                      list(itertools.combinations(range(1, 5), 3)), generators)


def specialized_cp2_triple():
    doc = specialize_document(load_gallery("cp2-11a"), Fraction(3, 2))
    return document_to_triple(doc)[0]


def test_specialized_documents_keep_one_domain():
    fan_triple = param_fan_triple()
    fan_doc = InputDocument(domain=fan_triple.domain, lattice=fan_triple.lattice,
                            fan=fan_triple.fan)
    for doc in (fan_doc, load_gallery("cp2-11a")):
        special = specialize_document(doc, 2)
        scalars = list(special.lattice.generators.entries)
        if special.fan is not None:
            scalars += [x for ray in special.fan.rays for x in ray]
        else:
            scalars += [x for f in special.polytope.facets for x in (*f.normal, f.offset)]
        assert scalars and all(x.domain is special.domain for x in scalars)


BUILT_TRIPLES = {
    "param-fan": param_fan_triple,
    "simplex4": simplex4_triple,
    "half-field": half_field_triple,
    "cp2-11a-at-3/2": specialized_cp2_triple,
}


@pytest.fixture(scope="module")
def built_atlases():
    out = {}
    for name, build in BUILT_TRIPLES.items():
        triple = build()
        out[name] = (triple, Atlas.compile(triple))
    return out


def all_atlases(gallery, gallery_atlases, built_atlases):
    out = {name: (triple, gallery_atlases[name])
           for name, (_, triple, _) in gallery.items()}
    out.update(built_atlases)
    return out


def test_cocycle_matches_literal_sweep(gallery, gallery_atlases, built_atlases):
    cases = all_atlases(gallery, gallery_atlases, built_atlases)
    assert {triple.domain.kind for triple, _ in cases.values()} == \
        {"rational", "number_field", "rational_function"}
    for name, (triple, atlas) in cases.items():
        report = cocycle_check(triple, atlas)
        assert report == literal_cocycle(triple, atlas), name
        assert report.passed, name
    triple, atlas = built_atlases["simplex4"]
    report = cocycle_check(triple, atlas)
    assert (report.pairs_checked, report.triples_checked) == (20, 60)


def with_transitions(triple, atlas, matrices):
    """A copy of the atlas whose transitions (source, target) are replaced."""
    bad = Atlas(triple)
    bad._transitions = dict(atlas._transitions)
    for key, exponents in matrices.items():
        bad._transitions[key] = dataclasses.replace(bad._transitions[key],
                                                    exponents=exponents)
    return bad


def corrupted(triple, atlas, replacements):
    """A copy of the atlas with entries (source, target, i, j) += delta."""
    entries = {}
    for key, i, j, delta in replacements:
        m = atlas.transition(*key).exponents
        entries.setdefault(key, list(m.entries))[i * m.cols + j] += delta
    return with_transitions(triple, atlas, {
        key: Matrix(triple.domain, triple.dim, triple.dim, values)
        for key, values in entries.items()})


DELTAS = ("1", "1/7", "generator", "10^40", "10^-40")
# the sweep over all 20 dodecahedron charts is slow: fewer corruptions there
CORRUPTION_ROUNDS = {"dodecahedron": 1, "param-fan": 1}


@pytest.mark.parametrize("name", ["quasisphere", "cp2-11a", "hirzebruch",
                                  "kite", "dodecahedron", *BUILT_TRIPLES])
def test_cocycle_matches_literal_sweep_on_corrupted_atlases(
        name, gallery, gallery_atlases, built_atlases):
    triple, atlas = all_atlases(gallery, gallery_atlases, built_atlases)[name]
    domain, n = triple.domain, triple.dim
    keys = sorted(atlas._transitions)
    rng = random.Random(name)
    rounds = CORRUPTION_ROUNDS.get(name, 3)
    found = 0
    for text in DELTAS:
        if text == "generator":
            if domain.generator_symbol is None:
                continue
            text = domain.generator_symbol
        delta = domain.scalar(text)
        for count in rng.sample((1, 2, 3), rounds):
            replacements = [(rng.choice(keys), rng.randrange(n),
                             rng.randrange(n), delta) for _ in range(count)]
            bad = corrupted(triple, atlas, replacements)
            report = cocycle_check(triple, bad)
            assert report == literal_cocycle(triple, bad), (text, replacements)
            found += len(report.violations)
            assert not report.passed
    assert found


@pytest.mark.parametrize("name", ["simplex4", "cp2-11a-at-3/2", "cp2-11a",
                                  "half-field"])
def test_cocycle_matches_literal_sweep_on_extreme_entries(
        name, gallery, gallery_atlases, built_atlases):
    # whole transitions of +-M: every product slot reaches n M^2, close to
    # the bound the slot width is sized for
    triple, atlas = all_atlases(gallery, gallery_atlases, built_atlases)[name]
    domain, n = triple.domain, triple.dim
    cones = triple.fan.max_cones
    big = 10 ** 12 + 39
    for sign in (1, -1):
        a, b = cones[0], cones[-1]
        bad = with_transitions(triple, atlas, {
            key: Matrix(domain, n, n, [domain.scalar(value)] * (n * n))
            for key, value in (((b, a), big), ((a, b), sign * big))})
        report = cocycle_check(triple, bad)
        assert report == literal_cocycle(triple, bad)
        assert ("pair", a, b) in report.violations


def test_cocycle_parameter_images_count_the_terms():
    # the 4-simplex over Q(a); one triangle T(b, a) T(c, b) = T(c, a) is
    # made false in entry (0, 0) only, where the product is
    # 4 * 181^2 = 2^17 - 28 = 2 * 2^16 - 28 and T(c, a) is a - 28 or
    # 2a - 28.  The three maps fail the per-chart certificate, so the
    # triangle must be multiplied out over Q(a): a check that evaluated
    # a at 2^16 or 2^17 would hide exactly this triangle.
    domain = RationalFunctionDomain("a")
    unit = [tuple(str(int(i == j)) for j in range(4)) for i in range(4)]
    triple = fan_triple(domain, unit + [("-1",) * 4],
                        list(itertools.combinations(range(1, 6), 4)), unit)
    atlas = Atlas.compile(triple)
    a, b, c = triple.fan.max_cones[:3]
    steps = [[1, -1, 0, 0], [0, 1, -1, 0], [0, 0, 1, -1]]
    left = [[181] * 4] + steps
    right = [list(col) for col in zip([181] * 4, *steps)]
    product = [[sum(x * y for x, y in zip(row, col)) for col in zip(*right)]
               for row in left]
    assert product[0][0] == 4 * 181 ** 2 == 2 ** 17 - 28
    assert max(abs(v) for row in product[1:] for v in row) <= 181
    assert all(v == 0 for v in product[0][1:])
    for top in ("a - 28", "2*a - 28"):
        direct = [[domain.scalar(v) for v in row] for row in product]
        direct[0][0] = domain.scalar(top)
        bad = with_transitions(triple, atlas, {
            key: Matrix.from_rows(domain, rows)
            for key, rows in (((b, a), left), ((c, b), right), ((c, a), direct))})
        report = cocycle_check(triple, bad)
        assert ("triple", a, b, c) in report.violations
        assert report == literal_cocycle(triple, bad)


@pytest.mark.parametrize("name", ["quasisphere", "cp2-11a", "hirzebruch",
                                  "kite", "half-field", "param-fan"])
def test_cocycle_matches_literal_sweep_on_corrupted_coordinates(
        name, gallery, gallery_atlases, built_atlases):
    # one coordinate-table entry is off: with the stored transitions intact
    # nothing is violated; with the transitions into the chart read from
    # the bad table, the identities that contain them are
    triple, atlas = all_atlases(gallery, gallery_atlases, built_atlases)[name]
    rng = random.Random(name)
    cone = rng.choice(triple.fan.max_cones)
    chart = atlas.chart(cone)
    table = chart.coordinates
    entries = list(table.entries)
    column = rng.choice([j for j in range(table.cols) if j + 1 not in cone])
    entries[rng.randrange(table.rows) * table.cols + column] += triple.domain.one()
    bad_chart = dataclasses.replace(chart, coordinates=Matrix(
        triple.domain, table.rows, table.cols, entries,
        col_labels=table.col_labels))
    for reread in (False, True):
        bad = Atlas(triple)
        bad._charts = {**atlas._charts, cone: bad_chart}
        bad._transitions = {key: tmap for key, tmap in atlas._transitions.items()
                            if not (reread and key[1] == cone)}
        report = cocycle_check(triple, bad)
        assert report == literal_cocycle(triple, bad), reread
        assert report.passed != reread


def test_cocycle_names_each_identity_of_one_bad_map_at_60_charts():
    # every identity that contains a corrupted invertible map fails: the
    # pairs (s, t) and (t, s), and the triangles (t, s, c), (a, t, s) and
    # (t, b, s) over the 58 other cones, listed here in sweep order
    triple = truncated_dodecahedron_triple()
    atlas = Atlas.compile(triple)
    cones = list(triple.fan.max_cones)
    for s, t in ((cones[41], cones[17]), (cones[17], cones[41])):
        bad = corrupted(triple, atlas, [((s, t), 1, 2, triple.domain.one())])
        others = [c for c in cones if c not in (s, t)]
        pairs = [("pair", s, t), ("pair", t, s)]
        if cones.index(t) < cones.index(s):
            pairs.reverse()
        triangles = []
        for a in cones:
            if a == t:
                for b in cones:
                    if b == s:
                        triangles += [("triple", t, s, c) for c in others]
                    elif b != t:
                        triangles.append(("triple", t, b, s))
            elif a != s:
                triangles.append(("triple", a, t, s))
        assert len(triangles) == 3 * 58
        assert cocycle_check(triple, bad) == CocycleReport(
            pairs_checked=3540, triples_checked=205320,
            violations=tuple(pairs + triangles))
