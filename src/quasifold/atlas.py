"""The canonical affine atlas of a toric quasifold, computed exactly.

For each maximal cone the chart records the cone matrix, its inverse, the
coordinate table of every ray over the cone, the fixed point, and the
exponent matrix of the discrete group acting on the chart.  Chart changes
are monomial maps: the exponent matrix of the map from cone tau to cone
sigma is  E = A_sigma^-1 A_tau, read off sigma's coordinate table as the
columns at tau's rays; its rows render as generalized Laurent monomials
with exact (possibly irrational) exponents.
"""

from __future__ import annotations

import itertools
import operator
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


def _nonzero_digits(value, width):
    """Positions of the nonzero digits of value in balanced base 2^width."""
    base, half = 1 << width, 1 << (width - 1)
    positions, position = [], 0
    while value:
        digit = value & (base - 1)
        if digit >= half:
            digit -= base
        if digit:
            positions.append(position)
        value = (value - digit) >> width
        position += 1
    return positions


def cocycle_check(triple: FundamentalTriple,
                  atlas: Optional["Atlas"] = None) -> CocycleReport:
    """Exact consistency of all chart changes.

    Checks E_{sigma tau} E_{tau sigma} = identity over ordered pairs and
    E_{sigma rho} = E_{sigma tau} E_{tau rho} over ordered triples of
    distinct maximal cones.  With T(s, t) the exponent matrix of the map
    from cone s to cone t and T(t, t) = I, pair (a, b) is
    T(b, a) T(a, b) = T(a, a) and triple (a, b, c) is
    T(b, a) T(c, b) = T(c, a): both are the slots of one product
    T(b, a) P_b = P_a, where P_t = [T(c, t) for every cone c] puts the
    n x n blocks side by side in cone order.  Slot c = a is the pair, a
    slot c outside {a, b} is the triple, and slot c = b reads
    T(b, a) I = T(b, a), which always holds.

    Every identity is checked exactly, in integers:

    * The domain's ``integer_images`` gives a scale s > 0 and, per
      distinct entry x, an integer d x d block s phi(x) for an injective
      ring homomorphism phi (identity on Q, the regular representation on
      Q(alpha), evaluation at a = 2^K after clearing denominators on
      Q(a)); column 0 of the block, v(x), is s times the vector image of
      x, with v(1) = (s, 0, ..., 0).  Each slot entry of an identity is
      sum_k x_k y_k = z with n products, and it holds exactly when
      sum_k block(x_k) v(y_k) = s v(z): over Q and Q(alpha) because
      phi(x) v(y) = s v(xy) and v is injective, over Q(a) because K is
      chosen so that evaluation at 2^K is injective on the n-term
      polynomial identity (see ``integer_images``).
    * Each of the n d integer rows of P_t, one per coordinate of cone t
      and component of the image, is packed into one int with one slot of
      B bits per (cone c, coordinate j), the value of the slot times
      2^(B (c n + j)).  Let L(T) be the n d x n d int matrix of the blocks
      of T's entries.  With |block entries| <= Lmax and |v entries| <= Rmax
      (Rmax >= s, for the identity blocks), a slot of
      L(T(b, a)) P_b - s P_a is a sum of n d products bounded by
      Lmax Rmax, minus one value bounded by s Rmax, so its magnitude is at
      most n d Lmax Rmax + s Rmax < 2^(B-1) by the choice of B.
    * A sum of slot values v_j 2^(B j) with every |v_j| < 2^(B-1) is the
      unique balanced base-2^B expansion of the packed int, so slots
      cannot carry into one another: the packed difference is 0 exactly
      when every slot is 0, and its nonzero balanced digits are exactly
      the failing slots, which name the violated identities.

    Pairs run in ``itertools.permutations`` order and slots in cone order,
    so violations come out in the order of a sweep over all pairs, then
    all triples.
    """
    if atlas is None:
        atlas = Atlas.compile(triple)
    cones = triple.fan.max_cones
    n, count = triple.dim, len(cones)
    pairs = list(itertools.permutations(cones, 2))
    if not pairs:
        return CocycleReport(pairs_checked=0, triples_checked=0, violations=())
    flat = list(itertools.chain.from_iterable(
        atlas.transition(s, t).exponents.entries for s, t in pairs))
    scale, blocks = triple.domain.integer_images(flat, n)
    image = {pair: blocks[p * n * n:(p + 1) * n * n] for p, pair in enumerate(pairs)}
    distinct = set(blocks)
    d = len(blocks[0])
    left = max(abs(v) for block in distinct for row in block for v in row)
    right = max(scale, *(abs(row[0]) for block in distinct for row in block))
    width = (n * d * left * right + scale * right).bit_length() + 1

    packed = {}
    for t in cones:
        rows = []
        for i in range(n):
            for e in range(d):
                value = 0
                for c in reversed(cones):
                    if c == t:
                        slots = [scale if (j == i and e == 0) else 0
                                 for j in range(n)]
                    else:
                        slots = [block[e][0] for block in image[c, t][i * n:i * n + n]]
                    for v in reversed(slots):
                        value = (value << width) + v
                rows.append(value)
        packed[t] = rows

    pair_violations, triple_violations = [], []
    for a, b in pairs:
        source, target, left_blocks = packed[b], packed[a], image[b, a]
        failing = set()
        for i in range(n):
            row_blocks = left_blocks[i * n:i * n + n]
            for e in range(d):
                value = sum(map(operator.mul, itertools.chain.from_iterable(
                    [block[e] for block in row_blocks]), source))
                value -= scale * target[i * d + e]
                if value:
                    failing.update(p // n for p in _nonzero_digits(value, width))
        for ci in sorted(failing):
            if cones[ci] == a:
                pair_violations.append(("pair", a, b))
            else:
                triple_violations.append(("triple", a, b, cones[ci]))
    return CocycleReport(pairs_checked=len(pairs),
                         triples_checked=len(pairs) * (count - 2),
                         violations=tuple(pair_violations + triple_violations))


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
