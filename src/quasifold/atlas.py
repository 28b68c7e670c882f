"""The canonical affine atlas of a toric quasifold, computed exactly.

For each maximal cone the chart records the cone matrix, its inverse, the
coordinate table of every ray over the cone, the fixed point, and the
exponent matrix of the discrete group acting on the chart.  Chart changes
are monomial maps: the exponent matrix of the map from cone tau to cone
sigma is  E = A_sigma^-1 A_tau, read off sigma's coordinate table as the
columns at tau's rays; its rows render as generalized Laurent monomials
with exact (possibly irrational) exponents.  Since every chart change is
A_sigma^-1 A_tau, the inverse-pair and triangle (cocycle) identities are
certified once per chart, by  A_sigma C_sigma = R  for the coordinate table
C_sigma and the ray matrix R; only identities that contain a map failing
this are multiplied out.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from .linalg import Matrix
from .triples import FundamentalTriple

__all__ = [
    "Atlas",
    "Chart",
    "CocycleReport",
    "MonomialMap",
    "OrbitRow",
    "RelationSet",
    "build_chart",
    "cocycle_check",
    "fixed_point",
    "orbit_report",
    "relations",
    "render_monomial_map",
    "transition_map",
]


def _exponent_text(scalar):
    """Exponent rendering: bare for signed atoms, parenthesized otherwise."""
    text = scalar.text()
    body = text[1:] if text.startswith("-") else text
    if body and (body.isdigit() or body.isalpha()):
        return text
    return f"({text})"


def _variable(ray_index, fan_dim):
    return "z" if fan_dim == 1 else f"z{ray_index}"


@dataclass(frozen=True)
class Chart:
    """One affine chart of the atlas."""

    cone: Tuple[int, ...]
    matrix: Matrix              # columns are the cone's rays, increasing index
    inverse: Matrix
    coordinates: Matrix         # n x d; column j is A^-1 (ray j), a unit vector on the cone
    fixed_point: Tuple[int, ...]
    lattice_exponents: Matrix   # n x k; column l is A^-1 (l-th lattice generator)
    group_exponents: Matrix     # lattice_exponents with integer entries zeroed


@dataclass(frozen=True)
class MonomialMap:
    """A chart change written as a matrix of monomial exponents."""

    source: Tuple[int, ...]     # I_tau: indices of the input coordinates
    target: Tuple[int, ...]     # I_sigma: indices of the output coordinates
    exponents: Matrix           # rows labeled by target, columns by source
    shared: Tuple[int, ...]
    dense_only: bool            # True when the index sets are disjoint (h = n)

    @property
    def h(self):
        return len(self.source) - len(self.shared)

    def render(self):
        return render_monomial_map(self.exponents, self.exponents.rows)

    def scope(self):
        return "dense-orbit extension" if self.dense_only else "chart overlap"


def render_monomial_map(exponents: Matrix, fan_dim: int) -> str:
    """Rows as monomials in the source variables, joined homogeneous-style.

    Factors follow increasing ray index; exponent 0 factors are omitted and
    exponent 1 is suppressed.  A row of zeros renders as "1".
    """
    source = exponents.col_labels or tuple(range(1, exponents.cols + 1))
    rows = []
    for i in range(exponents.rows):
        factors = []
        for j in range(exponents.cols):
            e = exponents[i, j]
            if e.is_zero():
                continue
            var = _variable(source[j], fan_dim)
            if e == 1:
                factors.append(var)
            else:
                factors.append(f"{var}^{_exponent_text(e)}")
        rows.append(" ".join(factors) if factors else "1")
    return "[" + " : ".join(rows) + "]"


@dataclass(frozen=True)
class RelationSet:
    """How the rays outside a cone decompose over the cone's rays.

    coefficients[j] gives the coordinates of ray j over the cone's rays (in
    increasing cone-index order); kernel_vectors[j] is the corresponding
    length-d kernel basis vector of the ray map, with entry 1 at position j.
    """

    cone: Tuple[int, ...]
    coefficients: Dict[int, Tuple]
    kernel_vectors: Dict[int, Tuple]


def fixed_point(triple: FundamentalTriple, cone: Sequence[int]) -> Tuple[int, ...]:
    """0/1 homogeneous pattern: zeros exactly at the cone's indices."""
    indices = set(cone)
    return tuple(0 if j in indices else 1 for j in range(1, triple.ray_count + 1))


def build_chart(triple: FundamentalTriple, cone: Sequence[int]) -> Chart:
    """Compile the chart of a maximal cone."""
    indices = tuple(sorted(cone))
    if indices not in triple.fan.max_cones:
        raise ValueError(f"{indices} is not a maximal cone of the fan")
    matrix = triple.cone_matrix(indices)
    inverse = matrix.inverse()
    raw = inverse @ triple.lattice.generators
    # exact integers act trivially under exp, so drop them
    reduced = [entry.domain.zero() if entry.is_integer() else entry
               for entry in raw.entries]
    group = Matrix(raw.domain, raw.rows, raw.cols, reduced,
                   row_labels=indices,
                   col_labels=tuple(range(1, raw.cols + 1)))
    return Chart(
        cone=indices,
        matrix=matrix,
        inverse=inverse,
        coordinates=inverse @ triple.ray_matrix(),
        fixed_point=fixed_point(triple, indices),
        lattice_exponents=raw,
        group_exponents=group,
    )


def transition_map(triple: FundamentalTriple, source: Sequence[int],
                   target: Sequence[int],
                   charts: Optional[Dict[Tuple[int, ...], Chart]] = None) -> MonomialMap:
    """The monomial chart change from the source cone to the target cone:
    the columns of the target chart's coordinate table at the source's rays."""
    src = tuple(sorted(source))
    tgt = tuple(sorted(target))
    if src == tgt:
        raise ValueError("source and target cones must differ")
    chart = charts[tgt] if charts and tgt in charts else build_chart(triple, tgt)
    table = chart.coordinates
    entries = [table[i, j - 1] for i in range(table.rows) for j in src]
    shared = tuple(sorted(set(src) & set(tgt)))
    return MonomialMap(
        source=src,
        target=tgt,
        exponents=Matrix(triple.domain, table.rows, len(src), entries,
                         row_labels=tgt, col_labels=src),
        shared=shared,
        dense_only=not shared,
    )


def relations(triple: FundamentalTriple, cone: Sequence[int],
              charts: Optional[Dict[Tuple[int, ...], Chart]] = None) -> RelationSet:
    """Decompose every ray outside the cone over the cone's rays: ray j's
    coordinates are column j of the chart's coordinate table."""
    indices = tuple(sorted(cone))
    chart = charts[indices] if charts and indices in charts else build_chart(triple, indices)
    table = chart.coordinates
    zero = triple.domain.zero()
    one = triple.domain.one()
    coefficients = {}
    kernel_vectors = {}
    for j in range(1, triple.ray_count + 1):
        if j in indices:
            continue
        coords = table.column(j - 1)
        coefficients[j] = coords
        vector = [zero] * triple.ray_count
        vector[j - 1] = one
        for t, i in enumerate(indices):
            vector[i - 1] = -coords[t]
        kernel_vectors[j] = tuple(vector)
    return RelationSet(cone=indices, coefficients=coefficients,
                       kernel_vectors=kernel_vectors)


@dataclass
class CocycleReport:
    pairs_checked: int
    triples_checked: int
    violations: tuple

    @property
    def passed(self):
        return not self.violations


def cocycle_check(triple: FundamentalTriple,
                  atlas: Optional["Atlas"] = None) -> CocycleReport:
    """Exact consistency of all chart changes.

    With T(s, t) the exponent matrix of the map from cone s to cone t, the
    identities are T(b, a) T(a, b) = I over ordered pairs (a, b) and
    T(b, a) T(c, b) = T(c, a) over ordered triples (a, b, c) of distinct
    maximal cones.  They are certified once per chart t: A_t C_t = R
    exactly, with A_t the cone matrix, C_t the coordinate table and R the
    ray matrix, and every stored T(s, t) equals C_t at the rays of s.
    Proof: a map that passes has A_t T(s, t) = A_s, and every A is
    invertible (``build_chart`` inverts it), so T(s, t) = A_t^-1 A_s and
    A_a^-1 A_b A_b^-1 A_c = A_a^-1 A_c.  Only the 3(N - 2) + 2 identities
    that contain a failing map are evaluated as matrix products, in the
    order of a sweep over all pairs, then all triples, so ``violations``
    is exactly the sweep's.
    """
    if atlas is None:
        atlas = Atlas.compile(triple)
    cones = triple.fan.max_cones
    count = len(cones)
    rays = triple.ray_matrix()
    failing = []
    for t in cones:
        table = atlas.chart(t).coordinates
        rows = [table.row(i) for i in range(table.rows)]
        chart_fails = triple.cone_matrix(t) @ table != rays
        failing += [(s, t) for s in cones if s != t and (
            chart_fails or atlas.transition(s, t).exponents.entries
            != tuple([row[j - 1] for row in rows for j in s]))]

    pairs, triangles = set(), set()
    for s, t in failing:
        pairs.update([(s, t), (t, s)])
        for c in cones:
            if c not in (s, t):
                triangles.update([(t, s, c), (c, t, s), (t, c, s)])

    def exponents(s, t):
        return atlas.transition(s, t).exponents

    # the fan keeps its cones sorted, so sorted order is sweep order
    identity = Matrix.identity(triple.domain, triple.dim)
    violations = [("pair", a, b) for a, b in sorted(pairs)
                  if exponents(b, a) @ exponents(a, b) != identity]
    violations += [("triple", a, b, c) for a, b, c in sorted(triangles)
                   if exponents(b, a) @ exponents(c, b) != exponents(c, a)]
    return CocycleReport(pairs_checked=count * (count - 1),
                         triples_checked=count * (count - 1) * (count - 2),
                         violations=tuple(violations))


@dataclass(frozen=True)
class OrbitRow:
    cone_dim: int
    orbit_dim: int
    count: int


def orbit_report(triple: FundamentalTriple):
    """Count the implicit cones of each dimension.

    Faces of a simplicial cone correspond to subsets of its index set, so
    the m-dimensional cones are the distinct m-subsets of the maximal
    index sets.  Each m-cone carries an (n - m)-dimensional orbit; the empty
    set is the dense open orbit.
    """
    n = triple.dim
    rows = []
    for m in range(n + 1):
        subsets = set()
        for cone in triple.fan.max_cones:
            subsets.update(itertools.combinations(cone, m))
        rows.append(OrbitRow(cone_dim=m, orbit_dim=n - m, count=len(subsets)))
    return rows


class Atlas:
    """All charts and chart changes of a triple, computed once and cached."""

    def __init__(self, triple: FundamentalTriple):
        self.triple = triple
        self._charts: Dict[Tuple[int, ...], Chart] = {}
        self._transitions: Dict[Tuple[Tuple[int, ...], Tuple[int, ...]], MonomialMap] = {}
        self._relations: Dict[Tuple[int, ...], RelationSet] = {}

    @classmethod
    def compile(cls, triple: FundamentalTriple) -> "Atlas":
        atlas = cls(triple)
        for cone in triple.fan.max_cones:
            atlas.chart(cone)
        for a, b in itertools.permutations(triple.fan.max_cones, 2):
            atlas.transition(a, b)
        return atlas

    def chart(self, cone) -> Chart:
        key = tuple(sorted(cone))
        if key not in self._charts:
            self._charts[key] = build_chart(self.triple, key)
        return self._charts[key]

    def transition(self, source, target) -> MonomialMap:
        key = (tuple(sorted(source)), tuple(sorted(target)))
        if key not in self._transitions:
            self.chart(key[1])
            self._transitions[key] = transition_map(
                self.triple, key[0], key[1], charts=self._charts)
        return self._transitions[key]

    def relation_set(self, cone) -> RelationSet:
        key = tuple(sorted(cone))
        if key not in self._relations:
            self.chart(key)
            self._relations[key] = relations(self.triple, key, charts=self._charts)
        return self._relations[key]

    @property
    def cones(self):
        return self.triple.fan.max_cones
