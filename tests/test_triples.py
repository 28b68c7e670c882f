import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from quasifold import (Fan, FundamentalTriple, Matrix, Quasilattice,
                       WitnessRecoveryError, ray_membership, validate,
                       with_recovered_witnesses)
from quasifold.triples import _inside, float_dot, float_solve

# index sets of the twenty maximal cones of the dodecahedron fan
DODECAHEDRON_CONES = [
    (1, 2, 3), (1, 2, 4), (1, 3, 6), (1, 4, 11), (1, 6, 11),
    (2, 3, 5), (2, 4, 12), (2, 5, 12), (3, 5, 10), (3, 6, 10),
    (4, 9, 11), (4, 9, 12), (5, 7, 10), (5, 7, 12), (6, 8, 10),
    (6, 8, 11), (7, 8, 9), (7, 8, 10), (7, 9, 12), (8, 9, 11),
]


def quasisphere_triple(parameter):
    lattice = Quasilattice(parameter,
                           Matrix.from_rows(parameter, [["1", "a"]]))
    rays = [[parameter.generator()], [-parameter.one()]]
    fan = Fan(1, rays, [[1], [2]])
    return FundamentalTriple(fan, lattice, [(0, 1), (-1, 0)])


def test_validate_quasisphere(parameter):
    triple = quasisphere_triple(parameter)
    report = validate(triple)
    assert report.passed
    assert report.simplicial and report.quasirational and report.face_condition
    assert report.probe_ran
    assert report.probe_gaps == 0 and report.probe_overlaps == 0


def test_validate_repeated_ray_fails(rational):
    # two rays with equal coordinates spanning one cone: rank < n
    lattice = Quasilattice(rational, Matrix.identity(rational, 2))
    rays = [[1, 0], [1, 0], [0, 1]]
    fan = Fan(2, [[rational.scalar(x) for x in r] for r in rays],
              [[1, 2], [2, 3]])
    triple = FundamentalTriple(fan, lattice,
                               [(1, 0), (1, 0), (0, 1)])
    report = validate(triple)
    assert not report.simplicial
    assert (1, 2) in report.simplicial_failures
    assert not report.passed


def test_validate_dodecahedron_witnesses(gallery):
    _, triple, _ = gallery["dodecahedron"]
    report = validate(triple)
    assert report.quasirational
    assert report.passed


def test_validate_probe_skipped_without_sample():
    from quasifold import RationalFunctionDomain
    domain = RationalFunctionDomain("a")  # no default sample
    lattice = Quasilattice(domain, Matrix.from_rows(domain, [["1", "a"]]))
    fan = Fan(1, [[domain.generator()], [-domain.one()]], [[1], [2]])
    triple = FundamentalTriple(fan, lattice, [(0, 1), (-1, 0)])
    report = validate(triple)
    assert report.passed
    assert not report.probe_ran
    assert "sample" in report.probe_note


def test_validate_simplicial_iff_invertible(gallery):
    from quasifold import SingularMatrixError
    for name, (_, triple, _) in gallery.items():
        report = validate(triple, probe_directions=0)
        for cone in triple.fan.max_cones:
            try:
                triple.cone_matrix(cone).inverse()
                invertible = True
            except SingularMatrixError:
                invertible = False
            assert invertible == (cone not in report.simplicial_failures)
        assert report.simplicial


def test_validate_probe_flags_support_gap(rational):
    # a fan covering only one quadrant: the probe reports gaps but the
    # structural checks still pass (advisory only)
    lattice = Quasilattice(rational, Matrix.identity(rational, 2))
    rays = [[rational.one(), rational.zero()],
            [rational.zero(), rational.one()]]
    fan = Fan(2, rays, [[1, 2]])
    triple = FundamentalTriple(fan, lattice, [(1, 0), (0, 1)])
    report = validate(triple, probe_directions=128)
    assert report.passed
    assert report.probe_gaps > 0


@pytest.mark.parametrize("dim", range(1, 7))
def test_probe_covers_simplex_fans_once(rational, dim):
    # the fan of the dim-simplex covers every direction exactly once; up to
    # dimension four the probe's test is unrolled, above it is not
    one, zero = rational.one(), rational.zero()
    unit = [[one if i == j else zero for j in range(dim)] for i in range(dim)]
    rays = unit + [[-one] * dim]
    cones = [list(c) for c in itertools.combinations(range(1, dim + 2), dim)]
    witnesses = [tuple(int(i == j) for j in range(dim)) for i in range(dim)]
    lattice = Quasilattice(rational, Matrix.identity(rational, dim))
    triple = FundamentalTriple(Fan(dim, rays, cones), lattice,
                               witnesses + [(-1,) * dim])
    report = validate(triple)
    assert report.probe_ran and report.probe_directions == 64
    assert (report.probe_gaps, report.probe_overlaps) == (0, 0)
    # one cone alone leaves a gap in every dimension
    alone = FundamentalTriple(Fan(dim, unit, [list(range(1, dim + 1))]),
                              lattice, witnesses)
    report = validate(alone)
    assert report.probe_gaps > 0 and report.probe_overlaps == 0


@pytest.mark.parametrize("dim", range(1, 7))
def test_inside_matches_numpy(dim):
    # the probe's test against numpy as a test-only oracle
    rng = random.Random(dim)
    for _ in range(20):
        inverse = [[rng.gauss(0.0, 1.0) for _ in range(dim)]
                   for _ in range(dim)]
        directions = [[rng.gauss(0.0, 1.0) for _ in range(dim)]
                      for _ in range(50)]
        bounds = -1e-9 * np.linalg.norm(inverse, axis=1)[:, None]
        expected = np.flatnonzero(np.all(
            np.array(inverse) @ np.array(directions).T >= bounds, axis=0))
        assert _inside(inverse, directions) == expected.tolist()


def inside_by_direction(inverse, directions):
    """The probe's test as defined: each direction against every row."""
    return [i for i, d in enumerate(directions)
            if all(float_dot(row, d) >= -1e-9 * math.hypot(*row)
                   for row in inverse)]


# components on the -1e-9 bound of a unit axis row, and scales of it
_coordinates = st.one_of(
    st.floats(-2.0, 2.0, allow_nan=False),
    st.sampled_from([0.0, -0.0, -1e-9, 1e-9, -2e-9, -1e-9 * 3.0]))


@given(data=st.data())
def test_inside_row_by_row_matches_the_definition(data):
    dim = data.draw(st.integers(1, 4))
    vectors = st.lists(_coordinates, min_size=dim, max_size=dim)
    inverse = data.draw(st.lists(st.one_of(
        vectors,
        # an axis row of length s: its bound is -1e-9 s, which a
        # component -1e-9 gives exactly
        st.builds(lambda i, s: [s if t == i else 0.0 for t in range(dim)],
                  st.integers(0, dim - 1), st.sampled_from([1.0, 2.0, 3.0]))),
        min_size=dim, max_size=dim))
    directions = data.draw(st.lists(vectors, max_size=12))
    assert _inside(inverse, directions) == inside_by_direction(inverse, directions)


def test_inside_bound_is_relative():
    # a coordinate of -1e-16 is rounding for a row of size 1, and a real
    # miss for a row of size 1e-10, which a fixed -1e-9 would let in
    assert _inside([[-1e-16, 1.0]], [[1.0, 0.0]]) == [0]
    assert _inside([[-1e-16, 1e-10]], [[1.0, 0.0]]) == []
    # row . d equal to -1e-9 |row| is inside, as >= says
    assert _inside([[1.0, 0.0], [0.0, 1.0]], [[-1e-9, 0.5], [-2e-9, 0.5]]) == [0]


SCALED_FANS = {
    # rays, cones; each lattice is Z^n with the rays' witnesses
    "plane": ([(1, 0), (1, 3), (-4, 3), (-4, -3), (1, -3)],
              [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)]),
    "winds twice": ([(1, 0), (1, 3), (-4, 3), (-4, -3), (1, -3)],
                    [(1, 3), (2, 4), (3, 5), (1, 4), (2, 5)]),
    "one quadrant": ([(1, 0), (0, 1)], [(1, 2)]),
    "simplex": ([(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)],
                list(itertools.combinations(range(1, 5), 3))),
    "skew": ([(3, 1, 0), (0, 2, 1), (1, 0, 5), (-2, -3, -4)],
             list(itertools.combinations(range(1, 5), 3))),
}


def scaled_fan(rational, name, k):
    """The fan with every ray and lattice generator times 2^k."""
    rays, cones = SCALED_FANS[name]
    dim, scale = len(rays[0]), Fraction(2) ** k
    lattice = Quasilattice(rational, Matrix.from_rows(rational, [
        [scale * (i == j) for j in range(dim)] for i in range(dim)]))
    fan = Fan(dim, [[rational.scalar(scale * x) for x in ray] for ray in rays],
              cones)
    return FundamentalTriple(fan, lattice, rays)


@settings(max_examples=40)
@given(name=st.sampled_from(sorted(SCALED_FANS)), k=st.integers(-40, 40),
       seed=st.integers(0, 3))
def test_probe_counts_do_not_depend_on_scale(rational, name, k, seed):
    # the floats of 2^k x are 2^k times those of x, and so are the float
    # solve, the norms and the dot products: the verdicts are the same
    reports = [validate(scaled_fan(rational, name, e), seed=seed)
               for e in (0, k)]
    assert all(r.passed and r.probe_ran for r in reports)
    counts = [(r.probe_gaps, r.probe_overlaps) for r in reports]
    assert counts[0] == counts[1]


def test_probe_sees_a_fan_that_winds_twice(rational):
    # five cones that wind twice around the origin cover every direction
    # twice; the exact checks pass, only the probe notices
    rays = [[rational.scalar(x), rational.scalar(y)] for x, y in
            ((1, 0), (1, 3), (-4, 3), (-4, -3), (1, -3))]
    fan = Fan(2, rays, [[1, 3], [2, 4], [3, 5], [1, 4], [2, 5]])
    lattice = Quasilattice(rational, Matrix.identity(rational, 2))
    report = validate(FundamentalTriple(
        fan, lattice, [(1, 0), (1, 3), (-4, 3), (-4, -3), (1, -3)]))
    assert report.passed
    assert (report.probe_gaps, report.probe_overlaps) == (0, 64)


def test_validate_deterministic(gallery):
    _, triple, _ = gallery["cp2-11a"]
    first = validate(triple, seed=3)
    second = validate(triple, seed=3)
    assert first == second


# ---------------------------------------------------------------------------
# witnesses
# ---------------------------------------------------------------------------

def test_witness_recovery_generator_ray(parameter):
    triple = quasisphere_triple(parameter)
    stripped = FundamentalTriple(triple.fan, triple.lattice, [None, None])
    assert tuple(ray_membership(stripped, 1)) == (0, 1)
    assert tuple(ray_membership(stripped, 2)) == (-1, 0)


def stripped_of_witnesses(triple):
    return FundamentalTriple(triple.fan, triple.lattice,
                             [None] * triple.ray_count)


def test_witness_kite_unit(gallery):
    _, triple, _ = gallery["kite"]
    assert triple.witnesses[2] == (0, 0, 1, 0, 0)
    assert validate(triple, probe_directions=0).quasirational
    # recovery without stored witnesses searches along the one-dimensional
    # rational kernel of the five pentagonal generators and still lands on
    # the sparse unit witness
    assert ray_membership(stripped_of_witnesses(triple), 3) == (0, 0, 1, 0, 0)


def test_witness_dodecahedron_negated(gallery):
    _, triple, _ = gallery["dodecahedron"]
    assert triple.witnesses[6] == (-1, 0, 0, 0, 0, 0)
    assert validate(triple, probe_directions=0).quasirational
    # recovery finds the same witness when none is stored
    stripped = stripped_of_witnesses(triple)
    assert ray_membership(stripped, 7) == (-1, 0, 0, 0, 0, 0)
    assert with_recovered_witnesses(stripped).witnesses == triple.witnesses


def test_witness_not_found(rational):
    lattice = Quasilattice(rational, Matrix.identity(rational, 2))
    rays = [[rational.scalar("1/2"), rational.zero()],
            [rational.zero(), rational.one()],
            [-rational.one(), -rational.one()]]
    fan = Fan(2, rays, [[1, 2], [2, 3], [1, 3]])
    triple = FundamentalTriple(fan, lattice, [None, (0, 1), (-1, -1)])
    with pytest.raises(WitnessRecoveryError, match="ray 1 is not in the Z-span"):
        ray_membership(triple, 1)


def test_witness_bad_stored(parameter):
    triple = quasisphere_triple(parameter)
    bad = FundamentalTriple(triple.fan, triple.lattice, [(1, 1), (-1, 0)])
    # validate checks a stored witness exactly; recovery ignores it and
    # derives the right one
    report = validate(bad)
    assert not report.quasirational
    assert report.witness_failures == ((1, "witness does not reproduce the ray"),)
    assert ray_membership(bad, 1) == (0, 1)
    assert ray_membership(stripped_of_witnesses(bad), 1) == (0, 1)


def test_first_non_member_is_named(rational):
    # rays 2 and 4 lie outside Z^2; all four are recovered together, and
    # the error names ray 2, the first in ray order
    lattice = Quasilattice(rational, Matrix.identity(rational, 2))
    rays = [[rational.scalar(x) for x in ray]
            for ray in (("1", "0"), ("0", "1/2"), ("-1", "0"), ("0", "-1/3"))]
    fan = Fan(2, rays, [[1, 2], [2, 3], [3, 4], [1, 4]])
    triple = FundamentalTriple(fan, lattice)
    with pytest.raises(WitnessRecoveryError,
                       match="^ray 2 is not in the Z-span of the lattice generators$"):
        with_recovered_witnesses(triple)
    # ray 4 alone, behind two members, is named too
    rays[1] = [rational.zero(), rational.one()]
    triple = FundamentalTriple(Fan(2, rays, fan.max_cones), lattice)
    with pytest.raises(WitnessRecoveryError, match="^ray 4 is not"):
        with_recovered_witnesses(triple)


def test_witness_recovery_is_one_elimination(monkeypatch):
    # all ten omitted witnesses of the parameter fan come from one integer
    # column reduction and one fraction-free elimination
    from test_cli import param_fan_doc
    from quasifold import document_to_triple, load_document, triples
    triple, _ = document_to_triple(load_document(param_fan_doc()))
    calls = {"eliminate": 0, "integer_solve": 0}
    eliminate, integer_solve = Matrix._eliminate, triples.integer_solve

    def counted_eliminate(self, *args):
        calls["eliminate"] += 1
        return eliminate(self, *args)

    def counted_integer_solve(*args):
        calls["integer_solve"] += 1
        return integer_solve(*args)
    monkeypatch.setattr(Matrix, "_eliminate", counted_eliminate)
    monkeypatch.setattr(triples, "integer_solve", counted_integer_solve)
    recovered = with_recovered_witnesses(stripped_of_witnesses(triple))
    assert recovered.witnesses == triple.witnesses
    assert calls == {"eliminate": 1, "integer_solve": 1}


@pytest.mark.parametrize("name", ["cp2-11a", "dodecahedron", "hirzebruch",
                                  "kite", "quasisphere"])
def test_gallery_witnesses_recovered_when_omitted(name, gallery):
    # each entry's document without its witnesses recovers exactly the
    # stored ones, through the polytope front-end
    import json
    from importlib import resources
    from quasifold import document_to_triple, load_document
    text = resources.files("quasifold").joinpath(f"data/{name}.json").read_text()
    raw = json.loads(text)
    del raw["witnesses"]
    triple, _ = document_to_triple(load_document(raw, name=name))
    _, stored, _ = gallery[name]
    assert triple.witnesses == stored.witnesses
    assert validate(triple, probe_directions=0).quasirational


def canonical_order(m):
    return max(map(abs, m)), sum(map(abs, m)), tuple(m)


def golden_scalar(golden, a, b):
    return golden.scalar(a) + golden.scalar(b) * golden.generator()


@pytest.mark.parametrize("name", ["rational", "golden"])
@settings(max_examples=60)
@given(data=st.data())
def test_recovered_witness_is_canonical(name, data, request):
    # the witness recovered for X = G m reproduces X and is no larger than
    # m in the canonical order: max-norm, then l1-norm, then lexicographic
    domain = request.getfixturevalue(name)
    n = data.draw(st.integers(1, 3))
    k = data.draw(st.integers(n, 5))
    small = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 2))
    if name == "rational":
        entries = small.map(domain.scalar)
    else:
        entries = st.builds(lambda a, b: golden_scalar(domain, a, b), small, small)
    generators = Matrix.from_rows(domain, data.draw(st.lists(
        st.lists(entries, min_size=k, max_size=k), min_size=n, max_size=n)))
    assume(generators.rank() == n)
    m = data.draw(st.lists(st.integers(-3, 3), min_size=k, max_size=k))
    lattice = Quasilattice(domain, generators)
    ray = generators.apply([domain.scalar(c) for c in m])
    units = [[domain.scalar(int(i == j)) for j in range(n)] for i in range(n - 1)]
    fan = Fan(n, [ray, *units], [range(1, n + 1)])
    w = ray_membership(FundamentalTriple(fan, lattice), 1)
    assert lattice.reproduces(w, ray)
    assert canonical_order(w) <= canonical_order(m)


# ---------------------------------------------------------------------------
# cone overlaps
# ---------------------------------------------------------------------------

def test_dodecahedron_cone_overlaps(gallery):
    _, triple, _ = gallery["dodecahedron"]
    assert triple.fan.max_cones == tuple(DODECAHEDRON_CONES)
    # the 30 edge pairs share two indices and the 60 facet-diagonal pairs
    # (five diagonals on each of the twelve pentagonal facets) share one
    overlaps = [len(set(a) & set(b))
                for a, b in itertools.combinations(triple.fan.max_cones, 2)]
    assert (overlaps.count(2), overlaps.count(1), overlaps.count(0)) == \
        (30, 60, 100)


# ---------------------------------------------------------------------------
# face condition
# ---------------------------------------------------------------------------

def face_ranks(triple):
    """Reference face check: once every cone is simplicial, the rays each
    two cones share must be independent.  Returns (passed, pairs checked)."""
    if any(triple.cone_matrix(cone).rank() != triple.dim
           for cone in triple.fan.max_cones):
        return True, 0
    passed, pairs = True, 0
    for a, b in itertools.combinations(triple.fan.max_cones, 2):
        shared = sorted(set(a) & set(b))
        pairs += 1
        if shared and Matrix.from_columns(
                triple.domain,
                [triple.ray(i) for i in shared]).rank() != len(shared):
            passed = False
    return passed, pairs


def test_face_condition_matches_rank_oracle(gallery, rational):
    from test_polytopes import truncated_dodecahedron
    from quasifold import load_gallery, to_triple
    polytope, witnesses = truncated_dodecahedron()
    truncated, _ = to_triple(
        polytope, load_gallery("dodecahedron").lattice, witnesses)
    # a repeated ray: cone (1, 2) is not simplicial
    lattice = Quasilattice(rational, Matrix.identity(rational, 2))
    fan = Fan(2, [[rational.scalar(x) for x in r]
                  for r in ([1, 0], [1, 0], [0, 1])], [[1, 2], [2, 3]])
    repeated = FundamentalTriple(fan, lattice, [(1, 0), (1, 0), (0, 1)])
    cases = [(name, triple) for name, (_, triple, _) in gallery.items()]
    cases += [("truncated dodecahedron", truncated), ("repeated ray", repeated)]
    for name, triple in cases:
        report = validate(triple, probe_directions=0)
        assert (report.face_condition, report.face_pairs_checked) == \
            face_ranks(triple), name
    assert face_ranks(truncated) == (True, 60 * 59 // 2)
    assert face_ranks(repeated) == (True, 0)


# ---------------------------------------------------------------------------
# the float solve of the probe and the factorization check
# ---------------------------------------------------------------------------

_entries = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)


@st.composite
def float_systems(draw):
    n = draw(st.integers(1, 4))
    a = draw(st.lists(st.lists(_entries, min_size=n, max_size=n),
                      min_size=n, max_size=n))
    rhs = draw(st.lists(st.lists(_entries, min_size=n, max_size=n),
                        min_size=1, max_size=5))
    return a, rhs


@given(float_systems())
def test_float_solve_matches_numpy(system):
    # numpy is a test-only oracle here; the runtime solve is plain Python
    a, rhs = system
    # well conditioned and well scaled: LAPACK returns nan on a subnormal
    # 1 x 1 system, which is no disagreement worth testing
    singular_values = np.linalg.svd(a, compute_uv=False)
    assume(singular_values[-1] >= 1e-2
           and singular_values[0] < 1e3 * singular_values[-1])
    ours = np.array(float_solve(a, rhs))
    theirs = np.linalg.solve(np.array(a), np.array(rhs).T).T
    assert ours.shape == theirs.shape
    scale = max(np.abs(theirs).max(), np.finfo(float).tiny)
    assert np.abs(ours - theirs).max() <= 1e-12 * scale


def test_float_solve_pivots_and_refuses_singular():
    # a zero leading entry needs a row swap; an exactly singular matrix
    # runs into a zero pivot, and a solution past the float range is
    # refused rather than returned as inf
    assert float_solve([[0.0, 1.0], [2.0, 0.0]], [[3.0, 4.0]]) == [[2.0, 3.0]]
    with pytest.raises(ZeroDivisionError):
        float_solve([[1.0, 2.0], [2.0, 4.0]], [[1.0, 0.0]])
    with pytest.raises(FloatingPointError):
        float_solve([[1e-300, 0.0], [0.0, 1.0]], [[1e300, 0.0]])
