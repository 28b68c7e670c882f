"""The canonical affine atlas of a toric quasifold, computed exactly.

A chart is its cone's payload table [C_sigma | L_sigma] (``Chart``): the
coordinates of every ray over the cone, then those of the lattice
generators, whose non-integer entries are the exponents of the discrete
group acting on the chart; its Matrices are views for the library.  A
chart change is a monomial map: the exponent matrix of the map from cone
tau to cone sigma is E = A_sigma^-1 A_tau, the columns of C_sigma at
tau's rays (``transition_map``), and its rows render as generalized
Laurent monomials with exact (possibly irrational) exponents, joined from
texts built once per chart from its payloads.  The relation of a ray j
outside sigma over the cone's rays is column j of C_sigma (``relations``).

The tables come from one walk per triple, made when the triple is built
(the vertex walk of a polytope, else the wall-graph walk of
``FundamentalTriple``): ``Atlas.compile`` only wraps them, and refuses a
fan with a cone that has none.  ``build_chart`` computes one table on its
own, by one reduction.  ``cocycle_check`` certifies the cocycle
identities of all chart changes by one payload product per chart.
"""

from __future__ import annotations

import functools
import itertools
from collections import namedtuple
from collections.abc import Sequence
from fractions import Fraction

from .linalg import Matrix, SingularMatrixError, multiply_rows, reduce_rows
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


class Chart(namedtuple("Chart", "cone rows domain ray_count")):
    """An affine chart: the cone (sorted ray indices) and its payload rows
    [C | L], one per ray of the cone, whose first ray_count columns are C.
    The Matrix properties are views, built on each access."""

    __slots__ = ()

    def group_rows(self):
        """L with its integer entries zeroed: they act trivially under exp."""
        domain, d = self.domain, self.ray_count
        zero = domain._from_fraction(Fraction(0))
        return [[zero if domain._as_integer(x) is not None else x for x in row[d:]]
                for row in self.rows]

    def _view(self, rows, col_labels):
        return Matrix(self.domain, len(rows), len(rows[0]), [
            Scalar(self.domain, x) for row in rows for x in row], self.cone, col_labels)

    coordinates = property(lambda self: self._view(
        [row[:self.ray_count] for row in self.rows], range(1, self.ray_count + 1)))
    lattice_exponents = property(lambda self: self._view(
        [row[self.ray_count:] for row in self.rows], None))
    group_exponents = property(lambda self: self._view(
        self.group_rows(), range(1, len(self.rows[0]) - self.ray_count + 1)))


def term_texts(domain, rows, fan_dim: int):
    """Per payload row of a table of exponents, per column c: (factor,
    entry text).

    The factor is the variable of ray c + 1, z<c + 1> (z in fan dimension
    1), raised to the entry: "" for exponent 0, bare for exponent 1
    (canonical text is unique, so only 0 and 1 read "0" and "1").
    """
    names = ["z" if fan_dim == 1 else f"z{c}" for c in range(1, len(rows[0]) + 1)]
    text = domain.text_of

    def term(name, x):
        entry = text(x)
        if entry in ("0", "1"):
            return ("" if entry == "0" else name), entry
        return f"{name}^{_exponent_text(entry)}", entry
    return [[term(name, x) for name, x in zip(names, row)] for row in rows]


def render_terms(rows, columns):
    """The rows of ``term_texts`` at the given columns as monomials, in
    column order and joined homogeneous-style; a row of zeros is "1"."""
    monomials = [" ".join([t for t in [row[j][0] for j in columns] if t])
                 for row in rows]
    return "[" + " : ".join([m or "1" for m in monomials]) + "]"


def fixed_point(triple: FundamentalTriple, cone: Sequence[int]) -> tuple[int, ...]:
    """0/1 homogeneous pattern: zeros exactly at the cone's indices."""
    indices = set(cone)
    return tuple(0 if j in indices else 1 for j in range(1, triple.ray_count + 1))


def build_chart(triple: FundamentalTriple, cone: Sequence[int]) -> Chart:
    """Compile the chart of a maximal cone: the triple's payload rows
    [R | G], reduced onto the cone's ray columns (``reduce_rows``), are
    A^-1 [R | G], one row per ray of the cone.  Raises SingularMatrixError
    unless all n pivots are nonzero."""
    indices = tuple(sorted(cone))
    if indices not in triple.fan.max_cones:
        raise ValueError(f"{indices} is not a maximal cone of the fan")
    rows, pivots = reduce_rows(triple.domain, triple.rows, [j - 1 for j in indices])
    if len(pivots) < triple.dim:
        raise SingularMatrixError("matrix is singular")
    return Chart(indices, [rows[pivots[j - 1]] for j in indices],
                 triple.domain, triple.ray_count)


def transition_map(chart: Chart, source: Sequence[int]) -> Matrix:
    """The exponent matrix of the chart change from the source cone to the
    chart's cone: the columns of the chart's coordinate table at the
    source's rays, rows labelled by the chart's cone, columns by the source.
    From the chart's own cone it is the identity."""
    src, domain = tuple(sorted(source)), chart.domain
    return Matrix(domain, len(chart.rows), len(src),
                  [Scalar(domain, row[j - 1]) for row in chart.rows for j in src],
                  row_labels=chart.cone, col_labels=src)


def relations(chart: Chart) -> dict[int, tuple]:
    """Every ray j outside the chart's cone over the cone's rays, in
    increasing j: its coordinates are column j of the coordinate table."""
    domain = chart.domain
    return {j: tuple(Scalar(domain, row[j - 1]) for row in chart.rows)
            for j in range(1, chart.ray_count + 1) if j not in chart.cone}


class CocycleReport(namedtuple("CocycleReport",
                                "pairs_checked triples_checked violations")):
    __slots__ = ()

    @property
    def passed(self):
        return not self.violations


def cocycle_check(triple: FundamentalTriple,
                  atlas: Atlas | None = None) -> CocycleReport:
    """Exact consistency of all chart changes.

    With T(s, t) the exponent matrix of the map from cone s to cone t, the
    identities are T(b, a) T(a, b) = I over ordered pairs (a, b) and
    T(b, a) T(c, b) = T(c, a) over ordered triples (a, b, c) of distinct
    maximal cones.  They are certified once per chart t, by one product
    of payload rows (``multiply_rows``): A_t C_t = R exactly, with A_t the
    cone matrix, C_t the coordinate table and R the ray matrix; T(s, t)
    is C_t at the rays of s.  Proof: a chart that passes has
    A_t T(s, t) = A_s, and every A_t is invertible (the walk that made
    the tables starts from n nonzero pivots on the columns of A_t and
    pivots only on a nonzero p, so det A_tau = +-p det A_sigma), so
    T(s, t) = A_t^-1 A_s and
    A_a^-1 A_b A_b^-1 A_c = A_a^-1 A_c.  Only the identities with a map
    into a failing chart, those whose a or b fails, are multiplied out, in
    the order of a sweep over all pairs, then all triples, so
    ``violations`` is exactly the sweep's.
    """
    if atlas is None:
        atlas = Atlas.compile(triple)
    cones = triple.fan.max_cones
    count = len(cones)
    domain, d = triple.domain, triple.ray_count
    rays = [row[:d] for row in triple.rows]
    failing = {t for t in cones if multiply_rows(
        domain, [[row[j - 1] for j in t] for row in rays],
        [row[:d] for row in atlas.chart(t).rows]) != rays}

    exponents = functools.cache(atlas.transition)   # each pair's map at most once
    # the fan keeps its cones sorted, so this is sweep order
    identity = Matrix.identity(domain, triple.dim) if failing else None
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


OrbitRow = namedtuple("OrbitRow", "cone_dim orbit_dim count")


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
    """All charts of a triple, each wrapped once from the triple's table.
    Chart changes and relations are views of a chart's payload rows:
    ``transition``, ``relations`` and ``terms`` read them off on demand."""

    def __init__(self, triple: FundamentalTriple):
        self.triple = triple
        self._charts: dict[tuple[int, ...], Chart] = {}

    @classmethod
    def compile(cls, triple: FundamentalTriple) -> "Atlas":
        """Every chart of the fan; raises SingularMatrixError if a cone is
        singular."""
        atlas = cls(triple)
        for cone in triple.fan.max_cones:
            atlas.chart(cone)
        return atlas

    def chart(self, cone) -> Chart:
        key = tuple(sorted(cone))
        if key not in self._charts:
            if key not in self.triple.tables:
                build_chart(self.triple, key)   # raises: not maximal, or singular
            self._charts[key] = Chart(key, self.triple.tables[key],
                                      self.triple.domain, self.triple.ray_count)
        return self._charts[key]

    def transition(self, source, target) -> Matrix:
        """The exponent matrix ``transition_map`` reads off the target chart."""
        return transition_map(self.chart(target), source)

    def terms(self, cone):
        """``term_texts`` of the chart's coordinate table."""
        d = self.triple.ray_count
        return term_texts(self.triple.domain,
                          [row[:d] for row in self.chart(cone).rows],
                          self.triple.dim)

    def relations(self, cone) -> dict[int, tuple]:
        """The ray relations ``relations`` reads off the chart."""
        return relations(self.chart(cone))

    @property
    def cones(self):
        return self.triple.fan.max_cones
