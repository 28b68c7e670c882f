"""Simple convex polytopes in facet form and their normal fans.

A polytope is a list of inequalities <X_j, x> >= lambda_j with inward
normals X_j.  Vertices are enumerated exactly on one tableau per vertex,
whose edge rows are the chart rows [C_S | L_S] of its cone: phase one of
the simplex method pivots from the first n independent facet normals to a
first vertex, and the walk along the edges pivots once per further vertex
(``linalg.pivot_rows``); ``to_triple`` hands the tables to the triple.  The
normal fan then has one maximal cone per vertex, spanned by the normals
of the facets through it; inequalities with an unbounded edge are
refused.

Over a parameter field every inequality sign is proven for all admissible
parameter values (see ``RationalFunctionDomain``); a sign that changes
with the parameter means the combinatorics depend on it, and is refused.
"""

from __future__ import annotations

import itertools
from collections import Counter, namedtuple
from collections.abc import Sequence

from .linalg import pivot_rows, reduce_rows
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
        if not dim:
            raise ValueError("facet normals need at least one coordinate")
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


class Vertices(tuple):
    """Vertices sorted by incidence; ``tables`` maps each incidence S to
    its chart rows [C_S | L_S], the payloads of A_S^-1 [N | G]."""


def enumerate_vertices(polytope: Polytope, lattice=None) -> tuple[Vertex, ...]:
    """All vertices with their exact coordinates and facet incidence,
    sorted by incidence (the walk's sorted active sets, each index + 1),
    and their chart rows over the lattice generators, if given.

    A vertex S holds one transposed tableau of payloads: n edge rows, in
    the sorted order of S, then its vertex row.  Edge row k holds the rates
    T[k][j] = <X_j, d_k> of edge direction d_k over the m facets (row k of
    C_S), its lattice columns <g_l, d_k> (row k of L_S) and d_k; the vertex
    row holds the slacks <X_j, x> - lambda_j, the <g_l, x> and the point x.
    In homogeneous coordinates (x, x0), with facet j the column
    (X_j, -lambda_j) and one more facet x0 >= 0, the tableau is
    B^-1 [N | G | I] for the basis B of S and x0, with edge rows (d_k, 0)
    and vertex row (x, 1).  So ``reduce_rows`` makes the first tableau,
    pivoting x0 (on the vertex row) and then the first n independent facet
    normals, and each later step is one ``pivot_rows`` exchange: leaving
    S[k] for facet b, p = T[k][b], gives d_b = d_k / p and
    d_i - (T[i][b] / p) d_k, and moves x along d_k until facet b is tight.

    Phase one is the dual simplex method at zero cost (Chvatal, *Linear
    Programming*, 1983, ch. 10): while some slack is negative, the least
    such facet b enters for the least S[k] with T[k][b] > 0, which makes
    slack_b 0 and slack_S[k] -slack_b / T[k][b] > 0.  Without such a k,
    slack_b + sum_k T[k][b] s_k < 0 for all s >= 0: there is no vertex.
    At zero cost every dual ratio ties, so these are Bland's least-index
    choices (Bland, "New finite pivoting rules for the simplex method",
    1977), under which the method cannot cycle, so it ends.

    The walk then follows the edges (Avis & Fukuda, "A pivoting algorithm
    for convex hulls and vertex enumeration of arrangements and
    polyhedra", 1992) and finds every vertex because:

    * the vertices and bounded edges of a pointed polyhedron form a
      connected graph, and a polyhedron with a vertex is pointed;
    * at a simple vertex the d_k are the edge directions: along d_k the
      slack of facet S[k] rises and the other facets of S stay tight;
    * along d_k the edge ends where the first facet with T[k][j] < 0
      becomes tight (the least ratio slack_j / -T[k][j], compared by the
      sign of slack_b T[k][j] - slack_j T[k][b]), and is unbounded when
      there is none.  The neighbour lies on more than n facets exactly
      when that least ratio ties, that is when its vertex row has more
      than n zero slacks; every vertex is reached from a simple one
      through an edge, so a non-simple vertex anywhere is found.

    An edge is walked from one end only, and a vertex is pivoted to once.
    The arithmetic is exact and canonical, so every entry equals the one
    an inverse of A_S gives.

    Raises SimplicityError when some vertex lies on more than n facets,
    and GenericityError when a sign the walk needs depends on the parameter.
    """
    n = polytope.dim
    m = polytope.facet_count
    if lattice and lattice.dim != n:
        raise ValueError("fan and quasilattice dimensions differ")
    if m < n + 1:
        raise ValueError("a bounded polytope needs at least n + 1 facets")
    domain, facets = polytope.domain, polytope.facets
    mul, add, neg = domain._mul, domain._add, domain._neg
    one, zero = domain.one().payload, domain.zero().payload
    generators = [[x.payload for x in lattice.generators.row(i)] if lattice else []
                  for i in range(n)]
    width = m + len(generators[0])  # the columns of [C_S | L_S]; x follows

    signs = domain._signs

    def sign(a):
        """The sign of a nonzero slack or rate (a payload), for every
        parameter value; a known one is read from the domain's memo."""
        try:
            return signs.get(a) or domain._memo(signs, domain._sign, a)
        except IndeterminateSignError as exc:
            raise GenericityError(
                f"the vertex combinatorics depend on the parameter: {exc}") from exc

    def negative(a):
        return bool(a) and sign(a) < 0

    def exchange(rows, active, k, b):
        """The sorted active set and the tableau after S[k] leaves for b."""
        pivoted = pivot_rows(domain, rows, k, b)
        neighbour = tuple(sorted(active[:k] + active[k + 1:] + (b,)))
        order = [k if j == b else active.index(j) for j in neighbour]
        return neighbour, [pivoted[i] for i in order] + [pivoted[n]]

    rows, pivots = reduce_rows(domain, [
        [f.normal[i].payload for f in facets] + generators[i]
        + [one if l == i else zero for l in range(n + 1)] for i in range(n)] + [
        [neg(f.offset.payload) for f in facets] + [zero] * (width - m + n) + [one]],
        [width + n, *range(m)])
    if len(pivots) <= n:
        raise ValueError("the inequality system has no vertices")
    active = tuple(sorted(pivots))[:n]  # the facets, then x0's column
    rows = [rows[pivots[j]] for j in active] + [rows[n]]
    while (b := next((j for j in range(m) if negative(rows[n][j])), None)) is not None:
        k = next((k for k in range(n) if rows[k][b] and sign(rows[k][b]) > 0), None)
        if k is None:
            raise ValueError("the inequality system has no vertices")
        active, rows = exchange(rows, active, k, b)

    found, pending = {}, []

    def visit(active, rows):
        incident = tuple(j + 1 for j in range(m) if not rows[n][j])
        if len(incident) > n:
            point = ", ".join(Scalar(domain, x).text() for x in rows[n][width:-1])
            raise SimplicityError(f"vertex ({point}) lies on facets {incident}; "
                                  f"a simple polytope allows exactly {n}")
        found[active] = rows
        pending.append(active)

    visit(active, rows)
    walked = set()  # (vertex, facet it leaves) for edges already taken
    while pending:
        active = pending.pop()
        rows = found[active]
        slacks = rows[n]
        for k in range(n):
            if (active, active[k]) in walked:
                continue
            direction = rows[k]
            best = None
            for j in range(m):
                rate = direction[j]
                if j in active or not rate or sign(rate) > 0:
                    continue
                if best is None or negative(add(
                        mul(slacks[best], rate), neg(mul(slacks[j], direction[best])))):
                    best = j
            if best is None:
                continue  # an unbounded edge
            neighbour = tuple(sorted(active[:k] + active[k + 1:] + (best,)))
            walked.add((neighbour, best))
            if neighbour not in found:
                visit(*exchange(rows, active, k, best))
    vertices = Vertices(
        Vertex(coordinates=tuple(Scalar(domain, x) for x in rows[n][width:-1]),
               incident=tuple(j + 1 for j in active))
        for active, rows in sorted(found.items()))
    vertices.tables = {tuple(j + 1 for j in active): [row[:width] for row in rows[:n]]
                       for active, rows in found.items()}
    return vertices


class NormalFanResult(namedtuple("NormalFanResult", "fan vertices")):
    """The normal fan and its vertices, aligned with fan.max_cones."""

    __slots__ = ()

    def table(self):
        """Rows of (cone index set, vertex), in cone order."""
        return tuple(zip(self.fan.max_cones, self.vertices))


def normal_fan(polytope: Polytope, lattice=None) -> NormalFanResult:
    """The fan with one maximal cone per vertex, spanned by its facet
    normals; the vertices keep their chart rows over the lattice, if given.

    Raises ValueError unless each (n - 1)-subset of a vertex's facets lies
    on exactly two vertices (an unbounded edge has only one), and unless
    every inequality touches a vertex: a redundant one would be a ray in
    no cone.
    """
    vertices = enumerate_vertices(polytope, lattice)   # in cone order already
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

    Missing witnesses are recovered by an exact integer solve, and the
    vertex walk's chart rows are the triple's tables.  Returns
    (triple, normal_fan_result); the vertex/cone table is kept for reporting.
    """
    result = normal_fan(polytope, lattice)
    triple = FundamentalTriple(result.fan, lattice, witnesses,
                               result.vertices.tables)
    return with_recovered_witnesses(triple), result
