import collections
import itertools
import random
from fractions import Fraction

import pytest

import quasifold.polytopes
from quasifold import (Facet, GenericityError, Matrix, Polytope,
                       Quasilattice, RationalDomain, SimplicityError,
                       SingularMatrixError, TrialConfig, Vertex, dot,
                       enumerate_vertices, load_document, load_gallery,
                       normal_fan, specialize_document, to_triple, validate,
                       verify_triple)


def triangle(parameter):
    # right triangle with legs of length a and 1
    return Polytope.from_strings(parameter, [
        (["1", "0"], "0"),
        (["-1", "-a"], "-a"),
        (["0", "1"], "0"),
    ])


def test_triangle_vertices(parameter):
    vertices = enumerate_vertices(triangle(parameter))
    coords = {v.incident: tuple(x.text() for x in v.coordinates)
              for v in vertices}
    assert coords == {
        (1, 2): ("0", "1"),
        (1, 3): ("0", "0"),
        (2, 3): ("a", "0"),
    }


def test_interval_normal_fan(parameter):
    interval = Polytope.from_strings(parameter, [(["a"], "0"), (["-1"], "-1")])
    result = normal_fan(interval)
    assert result.fan.dim == 1
    assert result.fan.max_cones == ((1,), (2,))
    assert [tuple(x.text() for x in v.coordinates) for v in result.vertices] \
        == [("0",), ("1",)]


def test_trapezoid_cones(parameter):
    trapezoid = Polytope.from_strings(parameter, [
        (["1", "0"], "0"),
        (["-1", "-a"], "-a - 1"),
        (["0", "1"], "0"),
        (["0", "-1"], "-1"),
    ])
    result = normal_fan(trapezoid)
    assert result.fan.max_cones == ((1, 3), (1, 4), (2, 3), (2, 4))
    coords = {tuple(x.text() for x in v.coordinates) for v in result.vertices}
    assert coords == {("0", "0"), ("0", "1"), ("1", "1"), ("a + 1", "0")}


def test_dodecahedron_vertex_count(gallery):
    _, _, fan_result = gallery["dodecahedron"]
    assert len(fan_result.vertices) == 20
    assert len(fan_result.fan.max_cones) == 20


def test_simplicity_error_names_vertex(rational):
    # unit square plus an extra facet through the origin corner
    square = Polytope.from_strings(rational, [
        (["1", "0"], "0"),
        (["0", "1"], "0"),
        (["-1", "0"], "-1"),
        (["0", "-1"], "-1"),
        (["1", "1"], "0"),
    ])
    with pytest.raises(SimplicityError) as err:
        enumerate_vertices(square)
    assert "(0, 0)" in str(err.value)


def test_simplicity_error_duplicated_facet(rational):
    # a verbatim duplicate of the first facet puts three facets through
    # each of its vertices
    square = Polytope.from_strings(rational, [
        (["1", "0"], "0"),
        (["0", "1"], "0"),
        (["-1", "0"], "-1"),
        (["0", "-1"], "-1"),
        (["1", "0"], "0"),
    ])
    with pytest.raises(SimplicityError):
        enumerate_vertices(square)


def test_vertices_saturate_and_satisfy(gallery):
    for name, (doc, _, fan_result) in gallery.items():
        if fan_result is None:
            continue
        polytope = doc.polytope
        for vertex in fan_result.vertices:
            for j, facet in enumerate(polytope.facets, start=1):
                slack = dot(facet.normal, vertex.coordinates) - facet.offset
                if j in vertex.incident:
                    assert slack.is_zero()
                else:
                    assert not slack.is_zero()


def test_offsets_are_vertex_minima(gallery):
    # each offset is attained on its facet and never undershot elsewhere,
    # so re-deriving offsets as minima reproduces the input presentation
    for name, (doc, _, fan_result) in gallery.items():
        polytope = doc.polytope
        for j, facet in enumerate(polytope.facets, start=1):
            attained = False
            for vertex in fan_result.vertices:
                slack = dot(facet.normal, vertex.coordinates) - facet.offset
                assert slack.is_zero() or _is_positive(slack, doc)
                if slack.is_zero():
                    attained = True
            assert attained


def _is_positive(scalar, doc):
    if doc.domain.kind == "rational_function":
        sample = doc.domain.default_sample or Fraction("1.41421356237309")
        scalar = doc.domain.substitute(scalar, sample, RationalDomain())
    return scalar.sign() > 0


def test_vertex_count_equals_cone_count(gallery):
    for name, (_, triple, fan_result) in gallery.items():
        assert len(fan_result.vertices) == len(fan_result.fan.max_cones)
        for cone, vertex in fan_result.table():
            assert cone == vertex.incident


def test_to_triple_assembles(parameter):
    lattice = Quasilattice(parameter, Matrix.from_rows(
        parameter, [["1", "0", "0"], ["0", "1", "a"]]))
    triple, result = to_triple(triangle(parameter), lattice,
                               [(1, 0, 0), (-1, 0, -1), (0, 1, 0)])
    assert triple.fan.max_cones == ((1, 2), (1, 3), (2, 3))
    from quasifold import validate
    assert validate(triple).passed


def test_genericity_error_when_samples_disagree(parameter):
    # the slack 3/2 - a changes sign at a = 3/2
    shape = Polytope.from_strings(parameter, [
        (["1", "0"], "0"),
        (["0", "1"], "0"),
        (["-1", "-1"], "-a"),
        (["-1", "0"], "-3/2"),
    ])
    with pytest.raises(GenericityError):
        enumerate_vertices(shape)


def _triangle_document(cut):
    """x, y >= 0 and x + y <= a, cut by x <= the given offset text."""
    facets = [(["1", "0"], "0"), (["0", "1"], "0"), (["-1", "-1"], "-a"),
              (["-1", "0"], f"-({cut})")]
    return load_document({
        "domain": {"kind": "rational_function", "generator_symbol": "a"},
        "quasilattice": {"generators": [["1", "0"], ["0", "1"]]},
        "polytope": {"facets": [{"normal": normal, "offset": offset}
                                for normal, offset in facets]},
    })


def test_sample_override_resolves():
    doc = _triangle_document("3/2")
    # small a: the x <= 3/2 cut is inactive, leaving the plain triangle
    vertices = enumerate_vertices(specialize_document(doc, "6/5").polytope)
    assert {v.incident for v in vertices} == {(1, 2), (1, 3), (2, 3)}
    # large a: the cut truncates the corner at (a, 0)
    vertices = enumerate_vertices(specialize_document(doc, "19/10").polytope)
    assert {v.incident for v in vertices} == {(1, 2), (1, 3), (2, 4), (3, 4)}


def test_genericity_between_two_samples_is_refused():
    # (D4) x <= a + (a - 3/2)(a - 8/5): the cut is inactive at a = 1.41...
    # and at a = 1.73..., but cuts the corner at (a, 0) for 3/2 < a < 8/5
    doc = _triangle_document("a + (a - 3/2)*(a - 8/5)")
    with pytest.raises(GenericityError, match="10\\*a\\^2 - 31\\*a \\+ 24"):
        enumerate_vertices(doc.polytope)
    vertices = enumerate_vertices(specialize_document(doc, "31/20").polytope)
    assert {v.incident for v in vertices} == {(1, 2), (1, 3), (2, 4), (3, 4)}


def test_too_few_facets(rational):
    shape = Polytope.from_strings(rational, [(["1", "0"], "0"), (["0", "1"], "0")])
    with pytest.raises(ValueError):
        enumerate_vertices(shape)


# -- the edge walk against the subset sweep ----------------------------------


def sweep_vertices(polytope):
    """Reference enumeration: solve every facet n-subset and keep the
    feasible solutions.  Raises SimplicityError like enumerate_vertices."""
    n = polytope.dim
    seen = {}
    for subset in itertools.combinations(range(polytope.facet_count), n):
        matrix = Matrix.from_rows(
            polytope.domain, [polytope.facets[i].normal for i in subset])
        try:
            point = matrix.solve([polytope.facets[i].offset for i in subset])
        except SingularMatrixError:
            continue
        incident = []
        for j, facet in enumerate(polytope.facets, start=1):
            slack = dot(facet.normal, point) - facet.offset
            if slack.is_zero():
                incident.append(j)
            elif slack.sign() < 0:
                break
        else:
            seen[tuple(incident)] = Vertex(coordinates=point,
                                           incident=tuple(incident))
    if not seen:
        raise ValueError("the inequality system has no vertices")
    if any(len(incident) != n for incident in seen):
        raise SimplicityError("some vertex is not simple")
    return tuple(seen[incident] for incident in sorted(seen))


def truncated_dodecahedron():
    """The dodecahedron with each vertex cut off by a facet whose normal is
    the sum of the three facet normals there.  Returns the polytope and its
    ray witnesses; a cut's witness is the sum of its three facets'."""
    doc = load_gallery("dodecahedron")
    polytope = doc.polytope
    offset = doc.domain.scalar("3*(2 - alpha^2) + 1/2")
    cuts = []
    witnesses = list(doc.witnesses)
    for vertex in enumerate_vertices(polytope):
        normal = tuple(
            sum((polytope.facets[j - 1].normal[t] for j in vertex.incident),
                doc.domain.zero())
            for t in range(3))
        cuts.append(Facet(normal, offset))
        witnesses.append(tuple(map(sum, zip(
            *(doc.witnesses[j - 1] for j in vertex.incident)))))
    return Polytope(doc.domain, list(polytope.facets) + cuts), witnesses


def test_walk_matches_sweep_on_gallery(gallery):
    for name, (doc, _, _) in gallery.items():
        if doc.polytope is not None:
            assert enumerate_vertices(doc.polytope) == \
                sweep_vertices(doc.polytope), name


def test_walk_matches_sweep_on_truncated_dodecahedron():
    polytope, _ = truncated_dodecahedron()
    vertices = enumerate_vertices(polytope)
    assert vertices == sweep_vertices(polytope)
    assert len(vertices) == 60
    for vertex in vertices:
        pentagons = [j for j in vertex.incident if j <= 12]
        assert len(pentagons) == 2 and len(vertex.incident) == 3


def test_truncated_dodecahedron_verifies():
    # 60 charts whose group witnesses run past the old +-10 search box
    polytope, witnesses = truncated_dodecahedron()
    lattice = load_gallery("dodecahedron").lattice
    triple, _ = to_triple(polytope, lattice, witnesses)
    assert len(triple.fan.max_cones) == 60
    summary = verify_triple(triple, TrialConfig())
    assert summary.passed
    assert all(not report.failures for report in summary.reports.values())


def random_cut_cube(rational, seed):
    """The cube [-2, 2]^3 with random rational cuts; a cut through a cube
    vertex or a vertex of an earlier cut often makes that vertex non-simple."""
    rng = random.Random(seed)
    rows = []
    for axis in range(3):
        for sign in (1, -1):
            normal = ["0"] * 3
            normal[axis] = str(sign)
            rows.append((normal, "-2"))
    for _ in range(rng.randint(1, 4)):
        normal = [rng.randint(-3, 3) for _ in range(3)]
        if not any(normal):
            normal[0] = 1
        if rng.random() < 0.4:
            # through the corner the normal points away from
            corner = [2 if c < 0 else -2 for c in normal]
            offset = Fraction(sum(c * x for c, x in zip(normal, corner)))
        else:
            offset = Fraction(rng.randint(-8, 2), rng.randint(1, 3))
        rows.append(([str(c) for c in normal], str(offset)))
    return Polytope.from_strings(rational, rows)


def _outcome(enumerate_, polytope):
    try:
        return enumerate_(polytope)
    except ValueError as err:
        return type(err)


def test_walk_matches_sweep_on_random_cuts(rational):
    kinds = set()
    for seed in range(40):
        polytope = random_cut_cube(rational, seed)
        walked = _outcome(enumerate_vertices, polytope)
        assert walked == _outcome(sweep_vertices, polytope), seed
        kinds.add(walked if isinstance(walked, type) else "vertices")
    # the family exercises both the simple and the non-simple case
    assert {SimplicityError, "vertices"} <= kinds


def test_walk_matches_sweep_on_unbounded_polyhedron(rational):
    # the positive orthant cut by x + 2y + 3z >= 1: three unbounded edges
    # leave each of its three vertices
    orthant = Polytope.from_strings(rational, [
        (["1", "0", "0"], "0"),
        (["0", "1", "0"], "0"),
        (["0", "0", "1"], "0"),
        (["1", "2", "3"], "1"),
    ])
    vertices = enumerate_vertices(orthant)
    assert vertices == sweep_vertices(orthant)
    assert {tuple(x.text() for x in v.coordinates) for v in vertices} == \
        {("1", "0", "0"), ("0", "1/2", "0"), ("0", "0", "1/3")}


def test_simplicity_error_far_from_start(rational):
    # the unit cube plus x + y + z <= 3, which touches it only at (1, 1, 1);
    # the walk starts at the origin and finds the corner by a ratio tie
    cube = Polytope.from_strings(rational, [
        (["1", "0", "0"], "0"),
        (["0", "1", "0"], "0"),
        (["0", "0", "1"], "0"),
        (["-1", "0", "0"], "-1"),
        (["0", "-1", "0"], "-1"),
        (["0", "0", "-1"], "-1"),
        (["-1", "-1", "-1"], "-3"),
    ])
    with pytest.raises(SimplicityError) as err:
        enumerate_vertices(cube)
    assert "(1, 1, 1)" in str(err.value)
    assert "(4, 5, 6, 7)" in str(err.value)


def test_dodecahedron_enumeration_solves_little(gallery, monkeypatch):
    calls = []
    for name in ("solve", "inverse"):
        method = getattr(Matrix, name)

        def counted(self, *args, _method=method, **kwargs):
            calls.append(_method)
            return _method(self, *args, **kwargs)
        monkeypatch.setattr(Matrix, name, counted)
    vertices = enumerate_vertices(gallery["dodecahedron"][0].polytope)
    assert len(vertices) == 20
    assert len(calls) <= 25


def golden_cut_cube(golden, seed):
    """random_cut_cube over Q(phi): each cut's normal entries and offset
    are u + v*phi with small integers u, v, so the pivots, the ratio ties
    and the signs all run in a number field."""
    rng = random.Random(seed)
    phi = golden.generator()

    def element(low, high):
        return golden.scalar(rng.randint(low, high)) + \
            rng.randint(low, high) * phi

    facets = []
    for axis in range(3):
        for sign in (1, -1):
            normal = [golden.zero()] * 3
            normal[axis] = golden.scalar(sign)
            facets.append(Facet(tuple(normal), golden.scalar(-2)))
    for _ in range(rng.randint(1, 4)):
        normal = tuple(element(-2, 2) for _ in range(3))
        if all(c.is_zero() for c in normal):
            normal = (phi,) + normal[1:]
        if rng.random() < 0.4:
            # through the corner the normal points away from
            corner = [2 if c.sign() < 0 else -2 for c in normal]
            offset = dot(normal, [golden.scalar(x) for x in corner])
        else:
            offset = element(-4, 1) * Fraction(1, rng.randint(1, 3))
        facets.append(Facet(normal, offset))
    return Polytope(golden, facets)


def test_walk_matches_sweep_on_golden_cuts(golden):
    kinds = set()
    for seed in range(40):
        polytope = golden_cut_cube(golden, seed)
        walked = _outcome(enumerate_vertices, polytope)
        assert walked == _outcome(sweep_vertices, polytope), seed
        kinds.add(walked if isinstance(walked, type) else "vertices")
    assert {SimplicityError, "vertices"} <= kinds


def test_truncated_dodecahedron_inverts_once_and_ranks_per_cone(monkeypatch):
    polytope, witnesses = truncated_dodecahedron()
    triple, _ = to_triple(polytope, load_gallery("dodecahedron").lattice,
                          witnesses)
    calls = collections.Counter()
    for name in ("inverse", "rank"):
        method = getattr(Matrix, name)

        def counted(self, *args, _method=method, _name=name, **kwargs):
            calls[_name] += 1
            return _method(self, *args, **kwargs)
        monkeypatch.setattr(Matrix, name, counted)
    assert len(enumerate_vertices(polytope)) == 60
    assert calls["inverse"] == 1  # the start vertex's; pivots do the rest
    calls.clear()
    assert validate(triple, probe_directions=0).passed
    assert calls["rank"] <= 60  # one per cone, none per shared face


def test_truncated_dodecahedron_walk_pivots_only_where_an_edge_is_left(
        monkeypatch):
    # 60 vertices: the start inverts once, and each other vertex pivots
    # from its parent's tableau only if an edge at it is still unwalked
    polytope, _ = truncated_dodecahedron()
    calls = collections.Counter()
    pivot_rows = quasifold.polytopes.pivot_rows

    def counted_pivot(*args):
        calls["pivot_rows"] += 1
        return pivot_rows(*args)
    monkeypatch.setattr(quasifold.polytopes, "pivot_rows", counted_pivot)
    inverse = Matrix.inverse

    def counted_inverse(self):
        calls["inverse"] += 1
        return inverse(self)
    monkeypatch.setattr(Matrix, "inverse", counted_inverse)
    assert len(enumerate_vertices(polytope)) == 60
    assert calls["inverse"] == 1
    assert calls["pivot_rows"] <= 49
