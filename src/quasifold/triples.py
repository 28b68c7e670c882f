"""Fundamental triples: a simplicial fan, a quasilattice, and ray generators.

The triple is the input datum of the whole pipeline.  Rays carry integer
witness vectors expressing each generator as a Z-combination of the
quasilattice generators; that certificate is what makes quasirationality
checkable (``Quasilattice.reproduces``), and ``ray_memberships`` recovers
all omitted ones from one elimination.  Index sets are 1-based in I/O.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import reduce
from math import hypot, isfinite
from operator import add, mul
from typing import Optional, Sequence

from .linalg import Matrix, integer_solve, solve_general
from .scalars import RationalDomain, Scalar, ScalarDomain

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
    """Z-span of finitely many vectors, given as the columns of a matrix."""

    def __init__(self, domain: ScalarDomain, generators: Matrix):
        if generators.rows > generators.cols:
            raise ValueError("a quasilattice needs at least n generators in R^n")
        if generators.rank() != generators.rows:
            raise ValueError("quasilattice generators must span R^n")
        self.domain = domain
        self.generators = generators

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
    """(fan, quasilattice, ray witnesses) over one scalar domain."""

    def __init__(self, fan: Fan, lattice: Quasilattice,
                 witnesses: Optional[Sequence[Optional[Sequence[int]]]] = None):
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

@dataclass
class ValidationReport:
    simplicial: bool
    simplicial_failures: tuple
    quasirational: bool
    witness_failures: tuple
    face_condition: bool
    face_pairs_checked: int
    probe_ran: bool
    probe_directions: int
    probe_gaps: int
    probe_overlaps: int
    probe_note: str = ""

    @property
    def passed(self):
        return self.simplicial and self.quasirational and self.face_condition


def float_array(entries, shape, parameter_sample, memo):
    """Floats of exact scalars (15 significant digits), as rows of shape.

    memo maps payloads to the floats already computed; the caller keeps
    one per domain and parameter sample, so each distinct value is
    evaluated once.  A value beyond the float range raises
    FloatingPointError.
    """
    values = []
    for x in entries:
        value = memo.get(x.payload)
        if value is None:
            value = float(x.eval_numeric(15, parameter_sample))
            if not isfinite(value):
                raise FloatingPointError("an exact value has no finite float")
            memo[x.payload] = value
        values.append(value)
    rows, cols = shape
    return [values[i * cols:(i + 1) * cols] for i in range(rows)]


def float_dot(u, v):
    """The dot product, summed left to right: ``sum`` compensates float
    sums from Python 3.12 on, and the reports must not depend on the
    interpreter's version."""
    return reduce(add, map(mul, u, v), 0.0)


def float_solve(a, rhs):
    """The solution x of a x = b for each vector b of rhs, as a list.

    a is a square float matrix given by its rows; it is factored once by
    Gaussian elimination with partial pivoting (L and U in place, the row
    order in perm), and each b is then solved by two substitutions.
    Raises ZeroDivisionError when a pivot is exactly zero, and
    FloatingPointError when a solution overflows.
    """
    n = len(a)
    lu = [list(row) for row in a]
    perm = list(range(n))
    for k in range(n):
        p = max(range(k, n), key=lambda i: abs(lu[i][k]))
        lu[k], lu[p] = lu[p], lu[k]
        perm[k], perm[p] = perm[p], perm[k]
        pivot = lu[k]
        for row in lu[k + 1:]:
            f = row[k] = row[k] / pivot[k]
            for j in range(k + 1, n):
                row[j] -= f * pivot[j]
    solutions = []
    for b in rhs:
        x = [b[i] for i in perm]
        for i in range(n):
            row = lu[i]
            for j in range(i):
                x[i] -= row[j] * x[j]
        for i in reversed(range(n)):
            row = lu[i]
            for j in range(i + 1, n):
                x[i] -= row[j] * x[j]
            x[i] /= row[i]
        if not all(map(isfinite, x)):
            raise FloatingPointError("a float solution is not finite")
        solutions.append(x)
    return solutions


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

    The face condition takes no rank of its own: the rays two simplicial
    cones share are a subset of an independent set, hence independent, so
    it holds for all C(N, 2) cone pairs once simpliciality passes.  Nothing
    here proves that two cones meet in a common face; only the probe sees
    overlaps.
    """
    cones = triple.fan.max_cones
    matrices = [triple.cone_matrix(cone) for cone in cones]
    simplicial_failures = [cone for cone, a in zip(cones, matrices)
                           if a.rank() != triple.dim]

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
    note = ""
    can_probe = True
    if triple.domain.kind == "rational_function" and parameter_sample is None:
        parameter_sample = triple.domain.default_sample
        if parameter_sample is None:
            can_probe = False
            note = "skipped: parameter field without a sample value"
    if simplicial_failures:
        can_probe = False
        note = "skipped: simpliciality failed"
    if can_probe and probe_directions > 0:
        rng = random.Random(str((seed, 0x5EED)))
        dim = triple.dim
        directions = []
        for _ in range(probe_directions):
            d = [rng.gauss(0.0, 1.0) for _ in range(dim)]
            norm = hypot(*d) or 1.0
            directions.append([x / norm for x in d])
        floats = {}
        identity = [[float(i == j) for j in range(dim)] for i in range(dim)]
        try:
            # row i of an inverse gives coordinate i of a direction, and
            # the direction is inside when none is below -1e-9 |row|
            inverses = [list(zip(*float_solve(
                float_array(a.entries, (a.rows, a.cols), parameter_sample,
                            floats),
                identity))) for a in matrices]
        except ArithmeticError:  # the probe is advisory: skip, never fail
            note = "skipped: a cone matrix is singular in floating point"
        else:
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

    One ``integer_solve`` proves that each m exists.  Each rational solution
    is the ray's particular solution from one ``solve_general`` plus its free
    coordinates times the shared kernel basis, so an m of max-norm B has free
    coordinates in [-B, B]; B grows until an m appears.
    """
    for j in rays:
        if not 1 <= j <= triple.ray_count:
            raise ValueError(f"ray index {j} out of range")
    domain, generators, k = triple.domain, triple.lattice.generators, triple.lattice.count
    # G m = X_j is [G | X] (m, -e_j) = 0: the rays ride along as coefficient
    # columns, so one common denominator is cleared for all of them
    rows = [row for i in range(triple.dim) for row, _ in domain.rational_rows(
        [*generators.row(i), *(triple.ray(j)[i] for j in rays)], domain.zero())]
    system = [row[:k] for row in rows]
    columns = [[row[k + a] for row in rows] for a in range(len(rays))]
    for j, m in zip(rays, integer_solve(system, columns)):
        if m is None:
            raise WitnessRecoveryError(f"ray {j} is not in the Z-span of the lattice generators")
    solutions, kernel = solve_general(Matrix.from_rows(RationalDomain(), system), columns)
    # the free coordinate of a kernel vector is its last nonzero entry,
    # and coordinate c depends only on the free coordinates after c
    directions = {max(c for c, x in enumerate(v) if not x.is_zero()):
                  [x.payload for x in v] for v in kernel}

    def witnesses(c, point, bound):
        if c < 0:
            yield tuple(int(x) for x in point)
        elif c in directions:
            for t in range(-bound, bound + 1):
                yield from witnesses(c - 1, [x + t * v for x, v in zip(
                    point, directions[c])], bound)
        elif point[c].denominator == 1 and abs(point[c]) <= bound:
            yield from witnesses(c - 1, point, bound)

    recovered = []
    for j, particular in zip(rays, solutions):
        point = [x.payload for x in particular]
        # the coordinates after the last free one are fixed: B starts at them
        bound = int(max(map(abs, point[max(directions, default=-1) + 1:]), default=0))
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
    return FundamentalTriple(triple.fan, triple.lattice, witnesses)
