"""The canonical affine atlas of a toric quasifold, computed exactly.

For each maximal cone sigma the chart records the coordinate table C_sigma
of every ray over the cone and the exponent matrix of the discrete group
acting on the chart, nothing else.  A chart change is a monomial map: the
exponent matrix of the map from cone tau to cone sigma is
E = A_sigma^-1 A_tau, the columns of C_sigma at tau's rays
(``transition_map``), and its rows render as generalized Laurent
monomials with exact (possibly irrational) exponents, joined from texts
built once per chart.  The relation of a ray j outside sigma over the
cone's rays is column j of C_sigma (``relations``).

``Atlas.compile`` walks the wall graph, whose edges join cones that share
n - 1 rays.  It inverts one start cone per component, and reaches every
other chart from a neighbour by one exact pivot on the table
[C_sigma | L_sigma] of the coordinates of the rays and the lattice
generators: for tau = sigma - i + j the pivot is p = C_sigma[i, j] (the
product form of the inverse; Chvatal, *Linear Programming*, 1983,
ch. 7-8).  A_sigma^-1 A_tau is the identity with column i replaced by
column j of C_sigma, so det A_tau = +-p det A_sigma: every A_tau is
invertible, and a zero pivot refuses.  ``cocycle_check`` certifies the
cocycle identities of all chart changes by one product per chart.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from .linalg import Matrix, pivot_rows
from .scalars import Scalar
from .triples import FundamentalTriple

__all__ = [
    "Atlas",
    "Chart",
    "CocycleReport",
    "OrbitRow",
    "build_chart",
    "cocycle_check",
    "fixed_point",
    "orbit_report",
    "relations",
    "render_terms",
    "term_texts",
    "transition_map",
]


def _exponent_text(text):
    """Exponent rendering: bare for signed atoms, parenthesized otherwise."""
    body = text[1:] if text.startswith("-") else text
    if body and (body.isdigit() or body.isalpha()):
        return text
    return f"({text})"


@dataclass(frozen=True)
class Chart:
    """One affine chart of the atlas."""

    cone: Tuple[int, ...]
    coordinates: Matrix         # n x d; column j is A^-1 (ray j), a unit vector on the cone
    lattice_exponents: Matrix   # n x k; column l is A^-1 (l-th lattice generator)
    group_exponents: Matrix     # lattice_exponents with integer entries zeroed


def term_texts(table: Matrix, fan_dim: int):
    """Per row of a table of exponents, per column: (factor, entry text).

    The factor is the column's variable, z<ray> (z in fan dimension 1),
    raised to the entry: "" for exponent 0, bare for exponent 1 (canonical
    text is unique, so only 0 and 1 read "0" and "1").
    """
    labels = table.col_labels or range(1, table.cols + 1)
    names = ["z" if fan_dim == 1 else f"z{j}" for j in labels]

    def term(name, e):
        text = e.text()
        if text in ("0", "1"):
            return ("" if text == "0" else name), text
        return f"{name}^{_exponent_text(text)}", text
    return [[term(name, e) for name, e in zip(names, table.row(i))]
            for i in range(table.rows)]


def render_terms(rows, columns):
    """The rows of ``term_texts`` at the given columns as monomials, in
    column order and joined homogeneous-style; a row of zeros is "1"."""
    monomials = [" ".join([t for t in [row[j][0] for j in columns] if t])
                 for row in rows]
    return "[" + " : ".join([m or "1" for m in monomials]) + "]"


def fixed_point(triple: FundamentalTriple, cone: Sequence[int]) -> Tuple[int, ...]:
    """0/1 homogeneous pattern: zeros exactly at the cone's indices."""
    indices = set(cone)
    return tuple(0 if j in indices else 1 for j in range(1, triple.ray_count + 1))


def _chart(triple: FundamentalTriple, cone, rows) -> Chart:
    """The chart of a cone from its payload rows: the coordinates of the d
    rays, then those of the k lattice generators."""
    domain, n, d = triple.domain, len(cone), triple.ray_count
    k = len(rows[0]) - d
    raw = [Scalar(domain, x) for row in rows for x in row[d:]]
    zero = domain.zero()
    return Chart(
        cone=cone,
        coordinates=Matrix(domain, n, d, [Scalar(domain, x) for row in rows
                                          for x in row[:d]],
                           cone, tuple(range(1, d + 1))),
        lattice_exponents=Matrix(domain, n, k, raw, cone),
        # exact integers act trivially under exp, so drop them
        group_exponents=Matrix(domain, n, k, [zero if x.is_integer() else x
                                              for x in raw],
                               cone, tuple(range(1, k + 1))),
    )


def build_chart(triple: FundamentalTriple, cone: Sequence[int]) -> Chart:
    """Compile the chart of a maximal cone: one inverse, one product."""
    indices = tuple(sorted(cone))
    if indices not in triple.fan.max_cones:
        raise ValueError(f"{indices} is not a maximal cone of the fan")
    rays, generators, n = triple.ray_matrix(), triple.lattice.generators, triple.dim
    table = triple.cone_matrix(indices).inverse() @ Matrix(
        triple.domain, n, rays.cols + generators.cols,
        [x for i in range(n) for x in rays.row(i) + generators.row(i)])
    return _chart(triple, indices, [[x.payload for x in table.row(i)]
                                    for i in range(n)])


def transition_map(chart: Chart, source: Sequence[int]) -> Matrix:
    """The exponent matrix of the chart change from the source cone to the
    chart's cone: the columns of the chart's coordinate table at the
    source's rays, rows labelled by the chart's cone, columns by the source.
    From the chart's own cone it is the identity."""
    src = tuple(sorted(source))
    table = chart.coordinates
    return Matrix(table.domain, table.rows, len(src),
                  [table[i, j - 1] for i in range(table.rows) for j in src],
                  row_labels=chart.cone, col_labels=src)


def relations(chart: Chart) -> Dict[int, Tuple]:
    """Every ray j outside the chart's cone over the cone's rays, in
    increasing j: its coordinates are column j of the coordinate table."""
    table = chart.coordinates
    return {j: table.column(j - 1) for j in range(1, table.cols + 1)
            if j not in chart.cone}


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
    maximal cones.  They are certified once per chart t, by one product:
    A_t C_t = R exactly, with A_t the cone matrix, C_t the coordinate
    table and R the ray matrix; T(s, t) is C_t at the rays of s.  Proof: a
    chart that passes has A_t T(s, t) = A_s, and every A_t is invertible
    (``Atlas.compile`` inverts each component's start and pivots only on
    a nonzero p, so det A_tau = +-p det A_sigma; ``build_chart`` inverts
    A_t itself), so T(s, t) = A_t^-1 A_s and
    A_a^-1 A_b A_b^-1 A_c = A_a^-1 A_c.  Only the identities with a map
    into a failing chart, those whose a or b fails, are multiplied out, in
    the order of a sweep over all pairs, then all triples, so
    ``violations`` is exactly the sweep's.
    """
    if atlas is None:
        atlas = Atlas.compile(triple)
    cones = triple.fan.max_cones
    count = len(cones)
    rays = triple.ray_matrix()
    failing = {t for t in cones
               if triple.cone_matrix(t) @ atlas.chart(t).coordinates != rays}

    maps = {}  # each ordered pair's exponents, built at most once

    def exponents(s, t):
        if (s, t) not in maps:
            maps[s, t] = atlas.transition(s, t)
        return maps[s, t]

    # the fan keeps its cones sorted, so this is sweep order
    identity = Matrix.identity(triple.domain, triple.dim)
    pairs = itertools.permutations(cones, 2) if failing else ()
    triangles = itertools.permutations(cones, 3) if failing else ()
    violations = [("pair", a, b) for a, b in pairs
                  if (a in failing or b in failing)
                  and exponents(b, a) @ exponents(a, b) != identity]
    violations += [("triple", a, b, c) for a, b, c in triangles
                   if (a in failing or b in failing)
                   and exponents(b, a) @ exponents(c, b) != exponents(c, a)]
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
    """All charts of a triple, computed once and cached.  Chart changes and
    relations are views of a coordinate table: ``transition`` and
    ``relations`` read them off on demand, and ``terms`` keeps each
    chart's ``term_texts``."""

    def __init__(self, triple: FundamentalTriple):
        self.triple = triple
        self._charts: Dict[Tuple[int, ...], Chart] = {}
        self._terms: Dict[Tuple[int, ...], list] = {}

    @classmethod
    def compile(cls, triple: FundamentalTriple) -> "Atlas":
        """Every chart, breadth-first over the wall graph: ``build_chart``
        at the first cone of each component, then one ``pivot_rows`` per
        chart on its neighbour's payload rows [C_sigma | L_sigma]."""
        walls = {}
        for cone in triple.fan.max_cones:
            for i in range(len(cone)):
                walls.setdefault(cone[:i] + cone[i + 1:], []).append(cone)
        atlas = cls(triple)
        charts, tables = atlas._charts, {}
        for start in triple.fan.max_cones:
            if start in charts:
                continue
            chart = charts[start] = build_chart(triple, start)
            coordinates, raw = chart.coordinates, chart.lattice_exponents
            tables[start] = [[x.payload for x in coordinates.row(i) + raw.row(i)]
                             for i in range(triple.dim)]
            queue = [start]
            for sigma in queue:
                for i in range(len(sigma)):
                    for tau in walls[sigma[:i] + sigma[i + 1:]]:
                        if tau not in charts:
                            (j,) = set(tau) - set(sigma)
                            rows = pivot_rows(triple.domain, tables[sigma], i, j - 1)
                            labels = sigma[:i] + (j,) + sigma[i + 1:]
                            tables[tau] = [r for _, r in sorted(zip(labels, rows))]
                            charts[tau] = _chart(triple, tau, tables[tau])
                            queue.append(tau)
        return atlas

    def chart(self, cone) -> Chart:
        key = tuple(sorted(cone))
        if key not in self._charts:
            self._charts[key] = build_chart(self.triple, key)
        return self._charts[key]

    def transition(self, source, target) -> Matrix:
        """The exponent matrix ``transition_map`` reads off the target chart."""
        return transition_map(self.chart(target), source)

    def terms(self, cone):
        """``term_texts`` of the chart's coordinate table, built once."""
        key = tuple(sorted(cone))
        if key not in self._terms:
            self._terms[key] = term_texts(self.chart(key).coordinates,
                                          self.triple.dim)
        return self._terms[key]

    def relations(self, cone) -> Dict[int, Tuple]:
        """The ray relations ``relations`` reads off the chart."""
        return relations(self.chart(cone))

    @property
    def cones(self):
        return self.triple.fan.max_cones
