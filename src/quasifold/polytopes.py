"""Simple convex polytopes in facet form and their normal fans.

A polytope is a list of inequalities <X_j, x> >= lambda_j with inward
normals X_j.  Vertices are enumerated exactly: facet n-subsets are solved
until one gives a first vertex, and the rest are found by walking the edges,
swapping one facet at a time by a simplex pivot (``linalg.pivot_rows`` on
a transposed tableau of payloads, one row per edge direction), so only the
first vertex inverts a matrix, and a vertex pivots only when an edge at it
is left to walk.  The normal fan then has one maximal cone per vertex,
spanned by the normals of the facets through it; inequalities with an
unbounded edge are refused.

Over a parameter field every inequality sign is proven for all admissible
parameter values (see ``RationalFunctionDomain``); a sign that changes
with the parameter means the combinatorics depend on it, and is refused.
"""

from __future__ import annotations

import itertools
from collections import Counter, namedtuple
from collections.abc import Sequence

from .linalg import Matrix, SingularMatrixError, dot, pivot_rows
from .scalars import IndeterminateSignError, Scalar, ScalarDomain
from .triples import (Fan, FundamentalTriple, Quasilattice,
                      with_recovered_witnesses)

__all__ = [
    "Facet",
    "GenericityError",
    "NormalFanResult",
    "Polytope",
    "SimplicityError",
    "Vertex",
    "enumerate_vertices",
    "normal_fan",
    "to_triple",
]

class SimplicityError(ValueError):
    """A vertex lies on more facets than the dimension allows."""


class GenericityError(ValueError):
    """The vertex/facet combinatorics depend on the parameter value."""


Facet = namedtuple("Facet", "normal offset")
# incident: the 1-based indices of the facets through the vertex, sorted
Vertex = namedtuple("Vertex", "coordinates incident")


class Polytope:
    """A simple convex polytope presented by facet inequalities."""

    def __init__(self, domain: ScalarDomain, facets: Sequence[Facet]):
        if not facets:
            raise ValueError("a polytope needs at least one facet")
        dim = len(facets[0].normal)
        for f in facets:
            if len(f.normal) != dim:
                raise ValueError("facet normals have inconsistent dimensions")
        self.domain = domain
        self.facets = tuple(facets)
        self.dim = dim

    @classmethod
    def from_strings(cls, domain, facet_rows):
        facets = [Facet(tuple(domain.scalar(x) for x in normal), domain.scalar(offset))
                  for normal, offset in facet_rows]
        return cls(domain, facets)

    @property
    def facet_count(self):
        return len(self.facets)


def _inequality_sign(domain: ScalarDomain, a):
    """Sign of a nonzero inequality slack or rate (a payload), for every
    parameter value."""
    try:
        return domain._memo(domain._signs, domain._sign, a)
    except IndeterminateSignError as exc:
        raise GenericityError(
            f"the vertex combinatorics depend on the parameter: {exc}") from exc


def _simplicity_error(domain, point, incident, n):
    coords = ", ".join(Scalar(domain, x).text() for x in point)
    return SimplicityError(
        f"vertex ({coords}) lies on facets {incident}; "
        f"a simple polytope allows exactly {n}")


def _start_vertex(polytope: Polytope):
    """The solution of the first feasible facet n-subset, with its slacks,
    as payloads."""
    n, domain = polytope.dim, polytope.domain
    for subset in itertools.combinations(range(polytope.facet_count), n):
        matrix = Matrix.from_rows(
            domain, [polytope.facets[i].normal for i in subset])
        rhs = [polytope.facets[i].offset for i in subset]
        try:
            point = matrix.solve(rhs)
        except SingularMatrixError:
            continue
        slacks = []
        for facet in polytope.facets:
            slack = (dot(facet.normal, point) - facet.offset).payload
            if not domain._is_zero(slack) and _inequality_sign(domain, slack) < 0:
                break
            slacks.append(slack)
        else:
            return [x.payload for x in point], slacks
    raise ValueError("the inequality system has no vertices")


def enumerate_vertices(polytope: Polytope) -> tuple[Vertex, ...]:
    """All vertices with their exact coordinates and facet incidence,
    sorted by incidence (the walk's sorted active sets, each index + 1).

    The vertices are found by walking the edges of the polyhedron (Avis &
    Fukuda, "A pivoting algorithm for convex hulls and vertex enumeration
    of arrangements and polyhedra", 1992), starting from the first feasible
    n-subset of facet equalities.  The walk finds every vertex because:

    * the vertices and bounded edges of a pointed polyhedron form a
      connected graph, and a polyhedron with a vertex is pointed;
    * at a simple vertex with active facets S, the columns d_k of A_S^-1
      are exactly its edge directions: moving along d_k raises the slack
      of facet S[k] and keeps the other n - 1 facets of S tight;
    * along d_k the slack of facet j changes at rate T[k][j] = <X_j, d_k>,
      so the edge ends where the first facet with T[k][j] < 0 becomes
      tight (the minimum ratio slack_j / -T[k][j]), and is unbounded when
      there is none.  The neighbour lies on more than n facets exactly
      when that minimum ties, and every vertex is reached from a simple
      one through an edge, so a non-simple vertex anywhere is found.

    Ratios are compared by the sign of slack_b T[k][j] - slack_j T[k][b],
    so the only division is the step length of each edge taken.  An edge
    is walked from one end only: reaching a vertex by leaving facet S[k]
    for facet b records that leaving b there leads back.

    Each vertex holds a transposed tableau of payloads: row k is the edge
    direction d_k, the rates T[k] of all m facets and then the n
    coordinates of d_k, one row per facet of S in sorted order.  Only the
    start vertex inverts A_S.  Leaving S[k] for b with pivot p = T[k][b]
    gives d'_b = d_k / p (rate 1 for X_b, the rest of S tight) and
    d'_i = d_i - (T[i][b] / p) d_k (rate 0 for X_b, 1 for S[i]): exactly
    ``pivot_rows(domain, rows, k, b)``, the pivot ``Atlas.compile`` takes,
    then the rows in the neighbour's sorted order.  A neighbour's pivot
    waits until the neighbour is popped, and is skipped when every edge at
    it has been walked from its other end.  The arithmetic is exact and
    canonical, so every point, slack and direction equals the one an
    inverse of A_S at that vertex gives; Scalars are built once per vertex,
    for the output.

    Raises SimplicityError when some vertex lies on more than n facets,
    and GenericityError when a sign the walk needs depends on the parameter.
    """
    n = polytope.dim
    m = polytope.facet_count
    if m < n + 1:
        raise ValueError("a bounded polytope needs at least n + 1 facets")
    domain, facets = polytope.domain, polytope.facets
    mul, add, neg, is_zero = domain._mul, domain._add, domain._neg, domain._is_zero
    point, slacks = _start_vertex(polytope)
    active = tuple(j for j, slack in enumerate(slacks) if is_zero(slack))
    if len(active) != n:
        raise _simplicity_error(domain, point, tuple(j + 1 for j in active), n)
    inverse = Matrix.from_rows(domain, [facets[j].normal for j in active]).inverse()
    rates = Matrix.from_rows(domain, [f.normal for f in facets]) @ inverse
    tableau = [[x.payload for x in rates.column(k) + inverse.column(k)]
               for k in range(n)]
    found = {active: (point, slacks)}
    # (vertex, its tableau or its parent's, the pivot that leads from that)
    pending = [(active, tableau, None)]
    walked = set()  # (vertex, facet it leaves) for edges already taken
    while pending:
        active, tableau, step = pending.pop()
        edges = [k for k in range(n) if (active, active[k]) not in walked]
        if not edges:
            continue
        if step is not None:
            k, b, order = step
            pivoted = pivot_rows(domain, tableau, k, b)
            tableau = [pivoted[i] for i in order]
        point, slacks = found[active]
        for k in edges:
            direction = tableau[k]
            best = None
            tied = False
            for j in range(m):
                rate = direction[j]
                if (j in active or is_zero(rate)
                        or _inequality_sign(domain, rate) > 0):
                    continue
                if best is None:
                    best = j
                    continue
                cross = add(mul(slacks[best], rate),
                            neg(mul(slacks[j], direction[best])))
                if is_zero(cross):
                    tied = True
                elif _inequality_sign(domain, cross) < 0:
                    best, tied = j, False
            if best is None:
                continue  # an unbounded edge
            neighbour = tuple(sorted(active[:k] + active[k + 1:] + (best,)))
            walked.add((neighbour, best))
            if neighbour in found and not tied:
                continue
            length = mul(slacks[best], domain._memo(
                domain._inverses, domain._inv, neg(direction[best])))
            new_point = [x if is_zero(r) else add(x, mul(length, r))
                         for x, r in zip(point, direction[m:])]
            new_slacks = [s if is_zero(r) else add(s, mul(length, r))
                          for s, r in zip(slacks, direction)]
            if tied:
                incident = tuple(j + 1 for j, s in enumerate(new_slacks)
                                 if is_zero(s))
                raise _simplicity_error(domain, new_point, incident, n)
            found[neighbour] = (new_point, new_slacks)
            order = [k if j == best else active.index(j) for j in neighbour]
            pending.append((neighbour, tableau, (k, best, order)))
    return tuple(Vertex(coordinates=tuple(Scalar(domain, x)
                                          for x in found[active][0]),
                        incident=tuple(j + 1 for j in active))
                 for active in sorted(found))


class NormalFanResult(namedtuple("NormalFanResult", "fan vertices")):
    """The normal fan and its vertices, aligned with fan.max_cones."""

    __slots__ = ()

    def table(self):
        """Rows of (cone index set, vertex), in cone order."""
        return tuple(zip(self.fan.max_cones, self.vertices))


def normal_fan(polytope: Polytope) -> NormalFanResult:
    """The fan with one maximal cone per vertex, spanned by its facet normals.

    Raises ValueError unless each (n - 1)-subset of a vertex's facets lies
    on exactly two vertices (an unbounded edge has only one), and unless
    every inequality touches a vertex: a redundant one would be a ray in
    no cone.
    """
    vertices = enumerate_vertices(polytope)   # in cone order already
    ends = Counter(edge for v in vertices
                   for edge in itertools.combinations(v.incident, polytope.dim - 1))
    open_edges = sorted(edge for edge, count in ends.items() if count != 2)
    if open_edges:
        raise ValueError(f"the inequalities do not bound a polytope: the edge "
                         f"on facets {open_edges[0]} has one vertex")
    touched = {j for v in vertices for j in v.incident}
    for j in range(1, len(polytope.facets) + 1):
        if j not in touched:
            raise ValueError(f"inequality {j} touches no vertex of the "
                             "polytope (redundant)")
    fan = Fan(
        dim=polytope.dim,
        rays=[facet.normal for facet in polytope.facets],
        max_cones=[v.incident for v in vertices],
    )
    return NormalFanResult(fan=fan, vertices=vertices)


def to_triple(polytope: Polytope, lattice: Quasilattice,
              witnesses: Sequence[Sequence[int] | None] | None = None):
    """Assemble the fundamental triple of the polytope's normal fan.

    Missing witnesses are recovered by an exact integer solve.  Returns
    (triple, normal_fan_result); the vertex/cone table is kept for reporting.
    """
    result = normal_fan(polytope)
    triple = FundamentalTriple(result.fan, lattice, witnesses)
    return with_recovered_witnesses(triple), result
