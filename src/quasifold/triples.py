"""Fundamental triples: a simplicial fan, a quasilattice, and ray generators.

The triple is the input datum of the whole pipeline.  Rays carry integer
witness vectors expressing each generator as a Z-combination of the
quasilattice generators; that certificate is what makes quasirationality
checkable (``Quasilattice.reproduces``), and ``ray_memberships`` recovers
all omitted ones from one elimination.  The support probe of ``validate``
reads each cone's inverse exactly off its chart table, so nothing here
eliminates in floats.  Index sets are 1-based in I/O.
"""

from __future__ import annotations

import itertools
import random
from collections import namedtuple
from collections.abc import Sequence
from functools import reduce
from math import fsum, hypot, isfinite
from operator import mul

from .linalg import Matrix, integer_solve, multiply_rows, pivot_rows, reduce_rows
from .linalg import solve_general  # unused: perfbench/tracing.py hooks it here
from .scalars import Scalar, ScalarDomain

__all__ = [
    "Fan",
    "FundamentalTriple",
    "Quasilattice",
    "ValidationReport",
    "WitnessRecoveryError",
    "ray_membership",
    "validate",
    "with_recovered_witnesses",
]


class WitnessRecoveryError(ValueError):
    """A ray is not an integer combination of the quasilattice generators."""


class Quasilattice:
    """Z-span of finitely many vectors, given as the columns of a matrix G.

    One ``reduce_rows`` of [G | I] onto G's columns checks that G spans
    R^n (n pivots) and leaves G_J^-1 in place of I, where J lists the
    pivot columns in the order of their pivot rows: ``basis`` is J and
    ``basis_inverse`` the payload rows of G_J^-1.
    """

    def __init__(self, domain: ScalarDomain, generators: Matrix):
        n, k = generators.rows, generators.cols
        if n > k:
            raise ValueError("a quasilattice needs at least n generators in R^n")
        one, zero = domain.one().payload, domain.zero().payload
        rows, pivots = generators._reduce(
            [[one if i == j else zero for j in range(n)] for i in range(n)])
        if len(pivots) != n:
            raise ValueError("quasilattice generators must span R^n")
        self.domain = domain
        self.generators = generators
        self.basis = sorted(pivots, key=pivots.get)
        self.basis_inverse = [row[k:] for row in rows]

    @property
    def dim(self):
        return self.generators.rows

    @property
    def count(self):
        return self.generators.cols

    def reproduces(self, witness: Sequence[int], vector: Sequence[Scalar]):
        """Whether G witness = vector, on payloads: the check of a witness."""
        domain, generators = self.domain, self.generators
        terms = [(l, domain.scalar(c).payload) for l, c in enumerate(witness) if c]
        zero, add, mul = domain.zero().payload, domain._add, domain._mul
        return all(reduce(add, (mul(generators[i, l].payload, c) for l, c in terms), zero)
                   == x.payload for i, x in enumerate(vector))


class Fan:
    """A simplicial fan: labeled ray generators plus maximal-cone index sets."""

    def __init__(self, dim: int, rays: Sequence[Sequence[Scalar]],
                 max_cones: Sequence[Sequence[int]]):
        if not dim:
            raise ValueError("rays need at least one coordinate")
        self.dim = dim
        self.rays = tuple(tuple(r) for r in rays)
        cones = []
        for cone in max_cones:
            indices = tuple(sorted(int(i) for i in cone))
            if len(set(indices)) != self.dim:
                raise ValueError(
                    f"maximal cone {indices} must have {self.dim} distinct ray indices")
            for i in indices:
                if not 1 <= i <= len(self.rays):
                    raise ValueError(f"ray index {i} out of range")
            cones.append(indices)
        self.max_cones = tuple(sorted(set(cones)))
        covered = set(itertools.chain.from_iterable(self.max_cones))
        missing = sorted(set(range(1, len(self.rays) + 1)) - covered)
        if missing:
            raise ValueError(f"rays {missing} appear in no maximal cone")
        for ray in self.rays:
            if len(ray) != dim:
                raise ValueError("ray coordinate count does not match the fan dimension")

    @property
    def ray_count(self):
        return len(self.rays)


class FundamentalTriple:
    """(fan, quasilattice, ray witnesses) over one scalar domain, with the
    payload rows [R | G] of the rays and the lattice generators (``rows``)
    and the chart table [C_sigma | L_sigma] = A_sigma^-1 [R | G] of each
    simplicial maximal cone sigma (``tables``).

    A polytope's tables are the ones its vertex walk leaves.  Any other
    triple walks the wall graph, whose edges join cones that share n - 1
    rays: each component starts at its first cone by one ``reduce_rows``
    of [R | G] onto the cone's rays, and reaches every other cone
    tau = sigma - i + j from a neighbour by one exact pivot on sigma's
    table, as the vertex walk does, with p = C_sigma[i, j] (the product
    form of the inverse; Chvatal, *Linear Programming*, 1983, ch. 7-8).
    A_sigma^-1 A_tau is the identity with column i replaced by column j of
    C_sigma, so det A_tau = +-p det A_sigma: a start with fewer than n
    pivots is singular, and so is a cone behind a zero pivot.  A cone has
    a table exactly when it is simplicial.
    """

    def __init__(self, fan: Fan, lattice: Quasilattice,
                 witnesses: Sequence[Sequence[int] | None] | None = None,
                 tables=None):
        if lattice.dim != fan.dim:
            raise ValueError("fan and quasilattice dimensions differ")
        self.fan = fan
        self.lattice = lattice
        self.domain = lattice.domain
        if witnesses is None:
            witnesses = [None] * fan.ray_count
        if len(witnesses) != fan.ray_count:
            raise ValueError("one witness slot per ray is required")
        self.witnesses = tuple(
            None if w is None else tuple(int(c) for c in w) for w in witnesses)
        self.rows = [[ray[i].payload for ray in fan.rays]
                     + [x.payload for x in lattice.generators.row(i)]
                     for i in range(fan.dim)]
        self.tables = self._walk() if tables is None else tables

    def _walk(self):
        """The table of each simplicial cone, breadth-first over the wall
        graph from the first cone of each component that has one."""
        domain, n = self.domain, self.dim
        walls = {}
        for cone in self.fan.max_cones:
            for i in range(n):
                walls.setdefault(cone[:i] + cone[i + 1:], []).append(cone)
        tables = {}
        for start in self.fan.max_cones:
            if start in tables:
                continue
            rows, pivots = reduce_rows(domain, self.rows, [j - 1 for j in start])
            if len(pivots) < n:
                continue
            tables[start] = [rows[pivots[j - 1]] for j in start]
            queue = [start]
            for sigma in queue:
                for i in range(n):
                    for tau in walls[sigma[:i] + sigma[i + 1:]]:
                        if tau in tables:
                            continue
                        (j,) = set(tau) - set(sigma)
                        if tables[sigma][i][j - 1]:   # else tau is singular
                            rows = pivot_rows(domain, tables[sigma], i, j - 1)
                            labels = sigma[:i] + (j,) + sigma[i + 1:]
                            tables[tau] = [r for _, r in sorted(zip(labels, rows))]
                            queue.append(tau)
        return tables

    @property
    def dim(self):
        return self.fan.dim

    @property
    def ray_count(self):
        return self.fan.ray_count

    def ray(self, index: int):
        """Ray generator by 1-based index."""
        return self.fan.rays[index - 1]

    def ray_matrix(self) -> Matrix:
        """n x d matrix whose labeled columns are the ray generators."""
        return Matrix.from_columns(
            self.domain, list(self.fan.rays),
            col_labels=tuple(range(1, self.ray_count + 1)))

    def cone_matrix(self, cone: Sequence[int]) -> Matrix:
        """n x n matrix of the cone's rays, columns in increasing ray index."""
        indices = tuple(sorted(cone))
        return Matrix.from_columns(
            self.domain, [self.ray(i) for i in indices], col_labels=indices)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

class ValidationReport(namedtuple(
        "ValidationReport",
        "simplicial simplicial_failures quasirational witness_failures "
        "face_condition face_pairs_checked probe_ran probe_directions "
        "probe_gaps probe_overlaps probe_note", defaults=("",))):
    __slots__ = ()

    @property
    def passed(self):
        return self.simplicial and self.quasirational and self.face_condition


# the relative error of each float_array value: eval_numeric(17) errs by
# less than 1e-17, and float() rounds once more (below the normal range,
# 2^-1022, the error is under 2^-1074 absolute instead)
FLOAT_ERROR = 1e-17 + 2.0 ** -53


def float_array(domain, rows, parameter_sample):
    """The floats of rows of payloads of the domain (17 significant digits,
    relative error at most ``FLOAT_ERROR``), as lists.

    Each domain memoises the float of each value per parameter sample, so
    the support probe and the numeric checks of one document evaluate each
    distinct value once.  A value beyond the float range raises
    OverflowError.
    """
    memo = domain._floats.setdefault(parameter_sample, {})

    def value(x):
        if x not in memo:
            y = float(domain._eval(x, 17, parameter_sample))
            if not isfinite(y):
                raise OverflowError("an exact value has no finite float")
            memo[x] = y
        return memo[x]
    return [[value(x) for x in row] for row in rows]


def float_dot(u, v):
    """The dot product: the exactly rounded sum (``math.fsum``) of the
    rounded products, the same on every interpreter and two roundings
    from the exact value."""
    return fsum(map(mul, u, v))


def _probe_rows(triple, parameter_sample):
    """The floats of A_sigma^-1 for each maximal cone sigma, as rows, and
    "", or None and the note that skips the probe.

    A_sigma^-1 = L_sigma[:, J] G_J^-1 is exact (J and G_J^-1 as in
    ``Quasilattice``) and is rounded once.  The rays' floats come first: a
    ray past the float range has no finite float, where its cone's inverse
    would underflow to 0.0.  An inverse entry past the float range, or with
    a pole at the parameter sample, makes its cone singular in floating
    point.  The probe is advisory: it is skipped, it never fails.
    """
    domain, lattice, d = triple.domain, triple.lattice, triple.ray_count
    try:
        float_array(domain, [row[:d] for row in triple.rows], parameter_sample)
    except OverflowError:
        return None, "skipped: a cone matrix has no finite float"
    inverses = [multiply_rows(domain, [[row[d + c] for c in lattice.basis]
                                       for row in triple.tables[cone]],
                              lattice.basis_inverse)
                for cone in triple.fan.max_cones]
    try:
        return [float_array(domain, inverse, parameter_sample)
                for inverse in inverses], ""
    except (OverflowError, ValueError):
        return None, "skipped: a cone matrix is singular in floating point"


def _inside(inverse, directions):
    """Indices of the unit directions d with row . d >= -1e-9 |row| for
    every row: a bound relative to the row, which scaling the rays cannot
    change.  The rows filter the surviving directions in turn, so a
    direction is dropped at the first row it fails."""
    inside = range(len(directions))
    for row in inverse:
        bound = -1e-9 * hypot(*row)
        inside = [i for i in inside if float_dot(row, directions[i]) >= bound]
    return list(inside)


def validate(triple: FundamentalTriple, probe_directions: int = 64,
             seed: int = 0, parameter_sample=None) -> ValidationReport:
    """Run the structural checks and the advisory numeric support probe.

    The simplicial cones are those with a table (see
    ``FundamentalTriple``), so no cone is ranked here.  The face condition
    takes no rank of its own either: the rays two simplicial cones share
    are independent, so it holds for all C(N, 2) cone pairs once
    simpliciality passes.  Nothing here proves that two cones meet in a
    common face; only the probe sees overlaps.  The probe tests each
    direction against each cone's exact inverse, read off the cone's table
    and rounded once (``_probe_rows``); it solves nothing in floats.
    """
    cones = triple.fan.max_cones
    simplicial_failures = [cone for cone in cones if cone not in triple.tables]

    witness_failures = []
    for j in range(1, triple.ray_count + 1):
        witness = triple.witnesses[j - 1]
        if witness is None:
            witness_failures.append((j, "missing witness"))
            continue
        if len(witness) != triple.lattice.count:
            witness_failures.append((j, "witness length mismatch"))
            continue
        if not triple.lattice.reproduces(witness, triple.ray(j)):
            witness_failures.append((j, "witness does not reproduce the ray"))

    pairs = 0 if simplicial_failures else len(cones) * (len(cones) - 1) // 2

    probe_ran = False
    gaps = overlaps = 0
    note = ""   # the reason the probe is skipped, if it is
    if triple.domain.kind == "rational_function" and parameter_sample is None:
        parameter_sample = triple.domain.default_sample
        if parameter_sample is None:
            note = "skipped: parameter field without a sample value"
    if simplicial_failures:
        note = "skipped: simpliciality failed"
    if not note and probe_directions > 0:
        rng = random.Random(str((seed, 0x5EED)))
        dim = triple.dim
        directions = []
        for _ in range(probe_directions):
            d = [rng.gauss(0.0, 1.0) for _ in range(dim)]
            norm = hypot(*d) or 1.0
            directions.append([x / norm for x in d])
        inverses, note = _probe_rows(triple, parameter_sample)
        if not note:
            # row i of an inverse gives coordinate i of a direction, and
            # the direction is inside when none is below -1e-9 |row|
            counts = [0] * probe_directions
            for inverse in inverses:
                for i in _inside(inverse, directions):
                    counts[i] += 1
            gaps = counts.count(0)
            overlaps = probe_directions - gaps - counts.count(1)
            probe_ran = True

    return ValidationReport(
        simplicial=not simplicial_failures,
        simplicial_failures=tuple(simplicial_failures),
        quasirational=not witness_failures,
        witness_failures=tuple(witness_failures),
        face_condition=True,
        face_pairs_checked=pairs,
        probe_ran=probe_ran,
        probe_directions=probe_directions if probe_ran else 0,
        probe_gaps=gaps,
        probe_overlaps=overlaps,
        probe_note=note,
    )


# ---------------------------------------------------------------------------
# witness recovery
# ---------------------------------------------------------------------------

def ray_membership(triple: FundamentalTriple, j: int):
    """The canonical witness of ray j (1-based): see ``ray_memberships``."""
    return ray_memberships(triple, [j])[0]


def ray_memberships(triple: FundamentalTriple, rays: Sequence[int]):
    """For each ray j (1-based) of rays, the least integer m with G m = X_j
    by max-norm, then l1-norm, then lexicographic order.

    One ``integer_solve`` gives each ray an integer solution p and an echelon
    Z-basis of the kernel lattice, so m = p + sum of t v.  Coordinate c of m
    depends only on the v ending at c or later, so each t, last first, keeps
    the coordinate its v ends at in [-B, B]; B grows until an m appears.
    """
    for j in rays:
        if not 1 <= j <= triple.ray_count:
            raise ValueError(f"ray index {j} out of range")
    domain, generators, k = triple.domain, triple.lattice.generators, triple.lattice.count
    # G m = X_j is [G | X] (m, -e_j) = 0: the rays ride along as coefficient
    # columns, so one common denominator is cleared for all of them
    rows = [row for i in range(triple.dim) for row, _ in domain.rational_rows(
        [*generators.row(i), *(triple.ray(j)[i] for j in rays)], domain.zero())]
    solutions, kernel = integer_solve([row[:k] for row in rows], list(zip(*rows))[k:])
    for j, m in zip(rays, solutions):
        if m is None:
            raise WitnessRecoveryError(f"ray {j} is not in the Z-span of the lattice generators")
    # each kernel vector ends at a coordinate of its own, with a positive entry
    directions = {max(c for c, x in enumerate(v) if x): v for v in kernel}

    def witnesses(c, point, bound):
        if c < 0:
            yield tuple(point)
        elif v := directions.get(c):
            for t in range(-((bound + point[c]) // v[c]), (bound - point[c]) // v[c] + 1):
                yield from witnesses(c - 1, [x + t * y for x, y in zip(point, v)], bound)
        elif abs(point[c]) <= bound:
            yield from witnesses(c - 1, point, bound)

    recovered = []
    for j, point in zip(rays, solutions):
        # the coordinates after the last vector ends are fixed: B starts at them
        bound = max(map(abs, point[max(directions, default=-1) + 1:]), default=0)
        while not (found := list(witnesses(len(point) - 1, point, bound))):
            bound += 1
        m = min(found, key=lambda m: (max(map(abs, m)), sum(map(abs, m)), m))
        if not triple.lattice.reproduces(m, triple.ray(j)):
            raise WitnessRecoveryError(f"recovered witness for ray {j} failed verification")
        recovered.append(m)
    return recovered


def with_recovered_witnesses(triple: FundamentalTriple) -> FundamentalTriple:
    """Fill in any missing ray witnesses with their canonical recovered ones."""
    omitted = [j for j, w in enumerate(triple.witnesses, 1) if w is None]
    if not omitted:
        return triple
    recovered = iter(ray_memberships(triple, omitted))
    witnesses = [next(recovered) if w is None else w for w in triple.witnesses]
    return FundamentalTriple(triple.fan, triple.lattice, witnesses, triple.tables)
