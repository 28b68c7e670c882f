import itertools
import json
import math
import random
from fractions import Fraction
from importlib import resources

import pytest

import quasifold.atlas
import quasifold.triples
from quasifold import (Atlas, CocycleReport, Fan, FundamentalTriple,
                       InputDocument, Matrix, NumberFieldDomain, NumericAtlas,
                       Quasilattice, RationalDomain,
                       RationalFunctionDomain, Scalar, SingularMatrixError,
                       build_chart, cocycle_check, document_to_triple,
                       fixed_point, load_document, load_gallery, orbit_report,
                       relations, render_terms, specialize_document,
                       term_texts, to_triple, transition_map)
from quasifold.documents import atlas_section, transition_section

from conftest import apply


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
    assert fixed_point(triple, chart1.cone) == (0, 1)
    assert fixed_point(triple, chart2.cone) == (1, 0)
    assert triple.cone_matrix(chart1.cone) @ chart1.coordinates == \
        triple.ray_matrix()


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


def test_group_exponent_columns_are_lattice_compatible(gallery, gallery_atlases):
    # A_sigma times each reduced column must land back in the lattice with
    # integer coordinates, reconstructible from the stored witnesses
    for name, (doc, triple, _) in gallery.items():
        for cone in triple.fan.max_cones:
            chart = gallery_atlases[name].chart(cone)
            cone_matrix = triple.cone_matrix(cone)
            inverse = cone_matrix.inverse()
            for col in range(chart.group_exponents.cols):
                reduced = chart.group_exponents.column(col)
                raw = apply(inverse, triple.lattice.generators.column(col))
                dropped = [x - y for x, y in zip(raw, reduced)]
                coefficients = [0] * triple.lattice.count
                coefficients[col] += 1
                for entry, ray_index in zip(dropped, cone):
                    q = entry.as_rational()
                    assert q is not None and q.denominator == 1
                    witness = triple.witnesses[ray_index - 1]
                    for t, w in enumerate(witness):
                        coefficients[t] -= int(q) * w
                target = apply(cone_matrix, reduced)
                assert triple.lattice.reproduces(coefficients, target)


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

def chart_change(triple, source, target):
    """The exponent matrix of the chart change, read off a freshly built
    target chart, and its report section."""
    return (transition_map(build_chart(triple, target), source),
            transition_section(Atlas(triple).terms(target), source, target))


def test_transition_quasisphere(gallery):
    doc, triple, _ = gallery["quasisphere"]
    exponents, section = chart_change(triple, (1,), (2,))
    assert exponents == expected_matrix(doc.domain, [["-a"]])
    assert section["rendered"] == "[z^-a]"
    assert section["scope"] == "dense-orbit extension" and section["h"] == 1


def test_transition_weighted_projective(gallery):
    doc, triple, _ = gallery["cp2-11a"]
    exponents, section = chart_change(triple, (2, 3), (1, 3))
    assert exponents == expected_matrix(doc.domain,
                                        [["-1", "0"], ["-a", "1"]])
    assert section["rendered"] == "[z2^-1 : z2^-a z3]"
    assert section["scope"] == "chart overlap" and section["h"] == 1


def test_transition_kite(gallery):
    doc, triple, _ = gallery["kite"]
    exponents, section = chart_change(triple, (1, 4), (2, 4))
    phi_inv = "1/(alpha^2 - 2)"
    assert exponents == expected_matrix(
        doc.domain, [[f"-{phi_inv}", "0"], [phi_inv, "1"]])
    assert section["rendered"] == \
        "[z1^(-alpha^2 + 3) : z1^(alpha^2 - 3) z4]"


def test_transition_dodecahedron_edge_pair(gallery):
    doc, triple, _ = gallery["dodecahedron"]
    exponents, section = chart_change(triple, (1, 2, 3), (1, 2, 4))
    phi_inv = "1/(alpha^2 - 2)"
    assert exponents == expected_matrix(doc.domain, [
        ["1", "0", phi_inv],
        ["0", "1", phi_inv],
        ["0", "0", "-1"],
    ])
    assert section["rendered"] == \
        "[z1 z3^(alpha^2 - 3) : z2 z3^(alpha^2 - 3) : z3^-1]"


def test_transition_dodecahedron_facet_pair(gallery):
    doc, triple, _ = gallery["dodecahedron"]
    exponents, section = chart_change(triple, (1, 2, 4), (1, 3, 6))
    phi_inv = "1/(alpha^2 - 2)"
    assert exponents == expected_matrix(doc.domain, [
        ["1", phi_inv, "1"],
        ["0", phi_inv, f"-{phi_inv}"],
        ["0", "-1", f"-{phi_inv}"],
    ])
    assert section["rendered"] == ("[z1 z2^(alpha^2 - 3) z4 : "
                                   "z2^(alpha^2 - 3) z4^(-alpha^2 + 3) : "
                                   "z2^-1 z4^(-alpha^2 + 3)]")


def test_render_edge_cases(rational):
    # exponent 0 gives no factor, exponent 1 a bare variable, and a row of
    # zeros renders as 1; column c is the variable of ray c + 1
    def payloads(rows):
        return [[rational.scalar(x).payload for x in row] for row in rows]
    table = payloads([["0"] * 8 + ["3"], ["0"] * 3 + ["1", "0", "0", "-2", "0", "0"]])
    terms = term_texts(rational, table, 2)
    assert [[row[c] for c in (3, 6, 8)] for row in terms] == \
        [[("", "0"), ("", "0"), ("z9^3", "3")],
         [("z4", "1"), ("z7^-2", "-2"), ("", "0")]]
    assert render_terms(terms, [3, 6]) == "[1 : z4 z7^-2]"
    assert render_terms(terms, [8, 6]) == "[z9^3 : z7^-2]"
    half = payloads([["1/2"]])
    assert render_terms(term_texts(rational, half, 2), [0]) == "[z1^(1/2)]"
    # fan dimension 1 has the one variable z
    assert render_terms(term_texts(rational, half, 1), [0]) == "[z^(1/2)]"
    plain = payloads([["1", "-1"]])
    assert render_terms(term_texts(rational, plain, 2), [0, 1]) == "[z1 z2^-1]"


# ---------------------------------------------------------------------------
# relations
# ---------------------------------------------------------------------------

def test_relations_dodecahedron_base(gallery):
    doc, triple, _ = gallery["dodecahedron"]
    inv_phi = doc.domain.scalar("alpha^2 - 3")
    one = doc.domain.one()
    relation = relations(build_chart(triple, (1, 2, 3)))
    assert relation[4] == (inv_phi, inv_phi, -one)
    assert relation[5] == (-one, inv_phi, inv_phi)
    assert relation[6] == (inv_phi, -one, inv_phi)
    assert list(relation) == list(range(4, 13))


def test_relations_dodecahedron_rewritten(gallery):
    doc, triple, _ = gallery["dodecahedron"]
    inv_phi = doc.domain.scalar("alpha^2 - 3")
    one = doc.domain.one()
    relation = relations(build_chart(triple, (1, 2, 4)))
    assert relation[3] == (inv_phi, inv_phi, -one)
    assert relation[5] == (-inv_phi, one, -inv_phi)
    assert relation[6] == (one, -inv_phi, -inv_phi)


def test_relations_skip_cone_members(gallery):
    for _, triple, _ in gallery.values():
        for cone in triple.fan.max_cones:
            relation = relations(build_chart(triple, cone))
            assert set(relation) == \
                set(range(1, triple.ray_count + 1)) - set(cone)


def test_relation_kernel_soundness(gallery):
    for _, triple, _ in gallery.values():
        pi = triple.ray_matrix()
        one, zero = triple.domain.one(), triple.domain.zero()
        for cone in triple.fan.max_cones:
            for j, coefficients in relations(build_chart(triple, cone)).items():
                # X_j = sum_t c_t X_(cone_t): one coefficient per cone ray,
                # so v is zero at every other ray outside the cone
                assert len(coefficients) == len(cone)
                vector = [zero] * triple.ray_count
                vector[j - 1] = one
                for c, i in zip(coefficients, cone):
                    vector[i - 1] = -c
                assert all(x.is_zero() for x in apply(pi, vector))


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
            inverse = triple.cone_matrix(sigma).inverse()
            for t, i in enumerate(sigma):
                assert chart.coordinates.column(i - 1) == tuple(
                    one if s == t else zero for s in range(len(sigma))), name
            for j, coords in atlas.relations(sigma).items():
                assert coords == apply(inverse, triple.ray(j)), (name, sigma, j)
            for tau in triple.fan.max_cones:
                if tau == sigma:
                    continue
                exponents = atlas.transition(tau, sigma)
                expected = inverse @ triple.cone_matrix(tau)
                assert exponents == expected, (name, tau, sigma)
                assert exponents.row_labels == expected.row_labels == sigma
                assert exponents.col_labels == expected.col_labels == tau


def test_tables_from_two_equal_documents_match_one():
    # the polytope of one document and the lattice of another: their equal
    # domains name each value alike, so every chart table is the one that
    # a single document gives.  The first document lists its generators in
    # reverse, so its domain meets the values in another order.
    data = json.loads(resources.files("quasifold").joinpath(
        "data/dodecahedron.json").read_text())
    data["quasilattice"]["generators"] = [
        row[::-1] for row in data["quasilattice"]["generators"]]
    data["witnesses"] = [w[::-1] for w in data["witnesses"]]
    first, second = load_document(data), load_gallery("dodecahedron")
    assert first.domain == second.domain and first.domain is not second.domain
    single = Atlas.compile(document_to_triple(load_gallery("dodecahedron"))[0])
    mixed = Atlas.compile(
        to_triple(first.polytope, second.lattice, second.witnesses)[0])
    assert mixed.cones == single.cones
    for cone in single.cones:
        for name in ("coordinates", "lattice_exponents", "group_exponents"):
            got, want = (getattr(a.chart(cone), name) for a in (mixed, single))
            assert got == want, (cone, name)
            assert [x.text() for x in got.entries] == [
                x.text() for x in want.entries], (cone, name)


def counting(monkeypatch, owner, name):
    """The list that grows by one entry per call of owner.name."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)
    monkeypatch.setattr(owner, name, counted)
    return calls


def test_compile_multiplies_per_chart_not_per_pair(gallery, monkeypatch):
    triple = gallery["dodecahedron"][1]
    calls = counting(monkeypatch, Matrix, "__matmul__")
    atlas = Atlas.compile(triple)
    # the walk's start is a reduction: no product, and none per chart or pair
    assert len(calls) == 0
    for cone in triple.fan.max_cones:
        atlas.relations(cone)
        atlas.terms(cone)
    assert len(calls) == 0


@pytest.mark.parametrize("name", ["dodecahedron", "kite"])
def test_atlas_and_its_section_wrap_no_scalar_per_entry(gallery, monkeypatch, name):
    # a chart is its payload table: compiling the atlas and writing its
    # report section (texts, relations, cocycle product) read payloads
    # and the domain's memos, and build no Scalar per table entry
    triple = gallery[name][1]
    calls = counting(monkeypatch, Scalar, "__init__")
    atlas_section(triple, Atlas.compile(triple))
    assert len(calls) < 100, len(calls)


def two_component_triple():
    """Rays +-e1, +-e2 over Z^2 and the cones {1,2} and {3,4}, which
    share no ray: the wall graph has two components."""
    return fan_triple(RationalDomain(), [("1", "0"), ("0", "1"), ("-1", "0"),
                                         ("0", "-1")],
                      [(1, 2), (3, 4)], [("1", "0"), ("0", "1")])


def test_compile_inverts_once_per_component(gallery, monkeypatch):
    # each component of a fan starts with one reduction without an inverse
    # when the triple is built; a polytope's charts are its vertex walk's
    # tables, and compiling an atlas only wraps the triple's tables
    inverses = counting(monkeypatch, Matrix, "inverse")
    starts = counting(monkeypatch, quasifold.triples, "reduce_rows")
    charts = counting(monkeypatch, quasifold.atlas, "build_chart")
    atlas = Atlas.compile(gallery["dodecahedron"][1])
    assert (len(inverses), len(starts), len(charts)) == (0, 0, 0)
    # the atlas keeps its charts and stores nothing per pair
    assert len(atlas._charts) == 20
    assert set(vars(atlas)) == {"triple", "_charts"}
    triple = two_component_triple()
    assert (len(inverses), len(starts)) == (0, 2)
    atlas = Atlas.compile(triple)
    assert (len(inverses), len(starts), len(charts)) == (0, 2, 0)
    assert set(atlas._charts) == {(1, 2), (3, 4)}
    # the 16 cones of the param fan form one component
    Atlas.compile(param_fan_triple())
    assert (len(inverses), len(starts), len(charts)) == (0, 3, 0)


def kite_power_triple(count):
    """The product of count kites (n = 2 count, 4^count charts)."""
    from test_polytopes import product
    kite = load_gallery("kite")
    return to_triple(*product(*[kite] * count))[0]


def test_walk_matches_build_chart(gallery, gallery_atlases):
    # a polytope's charts are the tables of its vertex walk, a fan's the
    # tables of the triple's walk over the wall graph
    cases = {name: (triple, gallery_atlases[name])
             for name, (_, triple, _) in gallery.items()}
    for name, build in (("truncated-dodecahedron", truncated_dodecahedron_triple),
                        ("kite^2", lambda: kite_power_triple(2)),
                        ("kite^3", lambda: kite_power_triple(3)),
                        ("param-fan", param_fan_triple),
                        ("two components", two_component_triple)):
        triple = build()
        cases[name] = (triple, Atlas.compile(triple))
    assert len(cases["truncated-dodecahedron"][0].fan.max_cones) == 60
    assert [len(cases[name][0].fan.max_cones) for name in ("kite^2", "kite^3")] \
        == [16, 64]
    for name, (triple, atlas) in cases.items():
        assert set(atlas._charts) == set(triple.fan.max_cones), name
        assert set(triple.tables) == set(triple.fan.max_cones), name
        for cone in triple.fan.max_cones:
            walked, built = atlas.chart(cone), build_chart(triple, cone)
            assert walked == built, (name, cone)
            for field in ("coordinates", "lattice_exponents", "group_exponents"):
                a, b = getattr(walked, field), getattr(built, field)
                assert (a.row_labels, a.col_labels) == \
                    (b.row_labels, b.col_labels), (name, cone, field)


def test_walk_refuses_a_zero_pivot(rational):
    # the cone {2,3} spans a line: the pivot that reaches it from {1,2},
    # the coordinate of ray 3 at ray 1, is zero
    triple = fan_triple(rational, [("1", "0"), ("0", "1"), ("0", "2")],
                        [(1, 2), (2, 3)], [("1", "0"), ("0", "1")])
    with pytest.raises(SingularMatrixError):
        Atlas.compile(triple)


def test_build_chart_matches_inverse_times_table(gallery):
    # the former start, A^-1 [R | G] by an inverse and a product, is the
    # oracle of the reduction that replaced it
    cases = {name: triple for name, (_, triple, _) in gallery.items()}
    cases.update({"param-fan": param_fan_triple(),
                  "truncated-dodecahedron": truncated_dodecahedron_triple(),
                  "two components": two_component_triple(),
                  "simplex4": simplex4_triple()})
    assert len(cases["truncated-dodecahedron"].fan.max_cones) == 60
    for name, triple in cases.items():
        n, rays, generators = triple.dim, triple.ray_matrix(), triple.lattice.generators
        table = Matrix(triple.domain, n, rays.cols + generators.cols,
                       [x for i in range(n) for x in rays.row(i) + generators.row(i)])
        for cone in triple.fan.max_cones:
            chart = build_chart(triple, cone)
            expected = triple.cone_matrix(cone).inverse() @ table
            assert [chart.coordinates.row(i) + chart.lattice_exponents.row(i)
                    for i in range(n)] == [expected.row(i) for i in range(n)], \
                (name, cone)


def test_build_chart_refuses_dependent_rays(rational):
    # the rays (0, 1) and (0, 2) of the cone {2,3} span a line
    triple = fan_triple(rational, [("1", "0"), ("0", "1"), ("0", "2")],
                        [(1, 2), (2, 3)], [("1", "0"), ("0", "1")])
    with pytest.raises(SingularMatrixError):
        build_chart(triple, (2, 3))


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
            exponents = atlas.transition(source, target)
            assert (exponents.row_labels, exponents.col_labels) == \
                (target, source)
            for j in set(source) & set(target):
                col = source.index(j)
                row = target.index(j)
                for i in range(exponents.rows):
                    entry = exponents[i, col]
                    if i == row:
                        assert entry == triple.domain.one()
                    else:
                        assert entry.is_zero()


def test_chart_change_to_itself_is_the_identity(gallery, gallery_atlases):
    for name, (_, triple, _) in gallery.items():
        atlas = gallery_atlases[name]
        numeric = NumericAtlas(triple, atlas)
        identity = Matrix.identity(triple.domain, triple.dim)
        for cone in triple.fan.max_cones:
            exponents = atlas.transition(cone, cone)
            assert exponents == identity, (name, cone)
            assert (exponents.row_labels, exponents.col_labels) == (cone, cone)
            assert numeric.transition(cone, cone) == [
                [float(i == j) for j in range(triple.dim)]
                for i in range(triple.dim)]


def test_inverse_pair_property(gallery, gallery_atlases):
    for name, (_, triple, _) in gallery.items():
        atlas = gallery_atlases[name]
        identity = Matrix.identity(triple.domain, triple.dim)
        for a, b in itertools.combinations(triple.fan.max_cones, 2):
            forward = atlas.transition(a, b)
            backward = atlas.transition(b, a)
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

def literal_cocycle(triple, atlas, into=None):
    """The certificate as Matrix products: every pair, then every triple.

    With into, a set of cones, only the identities with a map into one of
    them are multiplied out, and the others are taken to hold: they are
    products of untouched maps, which the full sweep covers in
    test_cocycle_matches_literal_sweep.
    """
    cones = triple.fan.max_cones
    identity = Matrix.identity(triple.domain, triple.dim)
    maps = {}

    def exponents(s, t):
        if (s, t) not in maps:
            maps[s, t] = atlas.transition(s, t)
        return maps[s, t]

    violations = []
    pairs = 0
    for a, b in itertools.permutations(cones, 2):
        pairs += 1
        if into is not None and not {a, b} & into:
            continue
        if exponents(b, a) @ exponents(a, b) != identity:
            violations.append(("pair", a, b))
    count = 0
    for a, b, c in itertools.permutations(cones, 3):
        count += 1
        if into is not None and not {a, b} & into:
            continue
        if exponents(c, a) != exponents(b, a) @ exponents(c, b):
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


def with_tables(triple, atlas, tables):
    """A copy of the atlas whose charts' coordinate tables are replaced:
    tables maps a cone to the table's new entries (Scalars), row by row,
    which become the payload rows of C; the lattice columns stay."""
    bad = Atlas(triple)
    bad._charts = dict(atlas._charts)
    d = triple.ray_count
    for cone, entries in tables.items():
        chart = atlas.chart(cone)
        bad._charts[cone] = chart._replace(rows=[
            [x.payload for x in entries[i * d:(i + 1) * d]] + row[d:]
            for i, row in enumerate(chart.rows)])
    return bad


def corrupted(triple, atlas, replacements):
    """A copy of the atlas with coordinate entries (cone, i, j) += delta."""
    entries = {}
    for cone, i, j, delta in replacements:
        table = atlas.chart(cone).coordinates
        entries.setdefault(cone, list(table.entries))[i * table.cols + j] += delta
    return with_tables(triple, atlas, entries)


def outside_entries(triple):
    """Every (cone, i, j) of a coordinate entry at a ray j + 1 outside the
    cone: each such entry is read by the maps from the cones with ray j + 1."""
    return [(cone, i, j) for cone in triple.fan.max_cones
            for i in range(triple.dim) for j in range(triple.ray_count)
            if j + 1 not in cone]


DELTAS = ("1", "1/7", "generator", "10^40", "10^-40")
# the sweep over all 20 dodecahedron charts is slow: fewer corruptions there
CORRUPTION_ROUNDS = {"dodecahedron": 1, "param-fan": 1}


@pytest.mark.parametrize("name", ["quasisphere", "cp2-11a", "hirzebruch",
                                  "kite", "dodecahedron", *BUILT_TRIPLES])
def test_cocycle_matches_literal_sweep_on_corrupted_atlases(
        name, gallery, gallery_atlases, built_atlases):
    triple, atlas = all_atlases(gallery, gallery_atlases, built_atlases)[name]
    domain = triple.domain
    entries = outside_entries(triple)
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
            replacements = [(*rng.choice(entries), delta) for _ in range(count)]
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
    # whole transitions of +-M, written into the tables: every product
    # slot of T(b, a) T(a, b) reaches n M^2
    triple, atlas = all_atlases(gallery, gallery_atlases, built_atlases)[name]
    domain, n = triple.domain, triple.dim
    cones = triple.fan.max_cones
    big = 10 ** 12 + 39
    for sign in (1, -1):
        a, b = cones[0], cones[-1]
        tables = {}
        for source, target, value in ((b, a, big), (a, b, sign * big)):
            table = atlas.chart(target).coordinates
            entries = tables.setdefault(target, list(table.entries))
            for i in range(n):
                for j in source:
                    entries[i * table.cols + j - 1] = domain.scalar(value)
        bad = with_tables(triple, atlas, tables)
        assert bad.transition(b, a) == Matrix(
            domain, n, n, [domain.scalar(big)] * (n * n))
        report = cocycle_check(triple, bad)
        assert report == literal_cocycle(triple, bad)
        assert ("pair", a, b) in report.violations


def test_cocycle_parameter_images_count_the_terms():
    # the 4-simplex over Q(a); one coordinate of chart a, at ray 5, is off
    # by a polynomial in a that vanishes at a = 2^16 (or 2^17).  The
    # identities that read it, the triangle T(b, a) T(c, b) = T(c, a)
    # among them, are false over Q(a) and true at that value, so a check
    # that evaluated a there would pass them.
    domain = RationalFunctionDomain("a")
    unit = [tuple(str(int(i == j)) for j in range(4)) for i in range(4)]
    triple = fan_triple(domain, unit + [("-1",) * 4],
                        list(itertools.combinations(range(1, 6), 4)), unit)
    atlas = Atlas.compile(triple)
    a, b, c = triple.fan.max_cones[:3]
    assert 5 not in a and 5 in b and 5 in c
    for offset in ("a - 65536", "2*a - 262144"):
        bad = corrupted(triple, atlas, [(a, 0, 4, domain.scalar(offset))])
        report = cocycle_check(triple, bad)
        assert ("triple", a, b, c) in report.violations
        assert report == literal_cocycle(triple, bad)


@pytest.mark.parametrize("name", ["quasisphere", "cp2-11a", "hirzebruch",
                                  "kite", "half-field", "param-fan"])
def test_cocycle_matches_literal_sweep_on_corrupted_coordinates(
        name, gallery, gallery_atlases, built_atlases):
    # one coordinate-table entry is off: the transitions into the chart
    # read the bad table, and the identities that contain them fail
    triple, atlas = all_atlases(gallery, gallery_atlases, built_atlases)[name]
    rng = random.Random(name)
    cone, i, j = rng.choice(outside_entries(triple))
    bad = corrupted(triple, atlas, [(cone, i, j, triple.domain.one())])
    report = cocycle_check(triple, bad)
    assert report == literal_cocycle(triple, bad)
    assert not report.passed


def test_cocycle_names_each_identity_of_one_bad_map_at_60_charts():
    # one coordinate of chart t, at ray j outside it, is off: every map
    # T(s, t) with j in s is wrong, and so is each pair identity that
    # contains one, since T(t, s) is invertible
    triple = truncated_dodecahedron_triple()
    atlas = Atlas.compile(triple)
    cones = list(triple.fan.max_cones)
    for t in (cones[17], cones[41]):
        j = next(j for j in range(1, triple.ray_count + 1) if j not in t)
        bad = corrupted(triple, atlas, [(t, 1, j - 1, triple.domain.one())])
        report = cocycle_check(triple, bad)
        assert report == literal_cocycle(triple, bad, into={t})
        assert (report.pairs_checked, report.triples_checked) == (3540, 205320)
        readers = [s for s in cones if j in s]
        pairs = sorted({p for s in readers for p in (("pair", s, t), ("pair", t, s))})
        assert [v for v in report.violations if v[0] == "pair"] == pairs
        assert len(report.violations) > 3 * len(pairs)


def test_cocycle_builds_each_chart_change_once_at_60_charts(monkeypatch):
    # a failing chart sends every identity with a or b at it through
    # Matrix products; each ordered pair's map is still built at most once
    triple = truncated_dodecahedron_triple()
    atlas = Atlas.compile(triple)
    t = triple.fan.max_cones[17]
    j = next(j for j in range(1, triple.ray_count + 1) if j not in t)
    bad = corrupted(triple, atlas, [(t, 1, j - 1, triple.domain.one())])
    expected = cocycle_check(triple, bad)
    calls = []
    transition = Atlas.transition

    def counted(self, s, u):
        calls.append((s, u))
        return transition(self, s, u)
    monkeypatch.setattr(Atlas, "transition", counted)
    assert cocycle_check(triple, bad) == expected
    assert not expected.passed
    assert len(calls) == len(set(calls)) <= 60 * 59
