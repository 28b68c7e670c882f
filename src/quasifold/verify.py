"""Monte-Carlo numeric verification of the symbolic atlas, in logarithmic
coordinates.

A chart of a cone sigma is C^n / Gamma_sigma through exp: a point is
z = exp(2 pi i w) for its logarithmic coordinates w, whose real parts are
its phases in turns and whose imaginary parts are its log-moduli
-log|z| / (2 pi).  A generalized Laurent monomial z^E is exp(2 pi i E w),
so every quantity a check compares is linear in w: phases are compared mod
1 and log-moduli exactly, in real arithmetic, and no check exponentiates.

Four checks, each sampling random points of the dense orbit:

  * branch invariance: re-evaluating a monomial image with shifted
    logarithm branches changes it by an element of the chart group;
  * transition equivariance: a chart change sends group orbits of its
    source chart into group orbits of its target chart;
  * factorization: any translation compatible with the quasilattice splits
    into a chart-group part supported on the cone and a kernel part;
  * connecting element: the kernel-group element built from the relation
    coefficients carries one chart representative exactly onto the other.

The first three test that a phase theta lies in the chart group of a cone
sigma: the phases C_sigma m (mod Z^n), m in Z^k, where C_sigma is
L_sigma = A_sigma^-1 G less its integer entries I_sigma.  Each theta is the
image of a quasilattice vector whose integer coordinates the check drew
itself, so its witness m follows in closed form from the ray witnesses W
(k x d, G w_j = X_j), and a trial evaluates one residual
|C_sigma m - theta| mod 1:

  * branch invariance: theta = Re(E w' - E w) for E = A_sigma^-1 A_tau and
    w' = w + s, s in Z^n drawn; A_tau = G W_tau, so m = W_tau s.  A
    one-cone fan shifts its group exponents directly, so m = s;
  * factorization: theta = y = B_sigma x for the chart's coordinate table
    B_sigma = A_sigma^-1 R, an integer part x drawn and a kernel part
    that B_sigma kills; R x = G W x, so m = W x;
  * transition equivariance: the drawn word m_w moves a source point w to
    w' = w + C_tau m_w + u, where the integer u = -floor(Re(w + C_tau m_w))
    brings the phases back into [0, 1).  The shift is
    L_tau m_w + (u - I_tau m_w), so theta = Re(E w' - E w) has the witness
    m = m_w + W_tau (u - I_tau m_w).

On a correct atlas the residual is at rounding level: ``validate`` proves
G w_j = X_j exactly, so A_sigma^-1 A_tau s = A_sigma^-1 G W_tau s.  A wrong
E or C cannot hide: m comes from W, not from the atlas, so a faulty
exponent leaves a residual of the fault's size, reported as a mismatch.

The harness is plain Python: ``NumericAtlas`` caches the float rows
(``triples.float_array``, from the floats the domain memoises for the
support probe of ``validate`` too) of the ray matrix and of each chart's
tables, reads a transition and the factorization's kernel rows off the
float coordinate table, and keeps the ray witnesses as exact ints, so a
witness never overflows; ``triples.float_dot`` (``math.fsum``) sums every
dot product, ``x % 1.0`` reduces mod 1 and ``math.floor`` picks the branch.
Before any draw, ``verify_triple`` bounds what rounding can do to any
residual (``_rounding_bound``) and refuses when that exceeds half the
tolerance or a table value has no finite float.  ``_with_fault`` perturbs
one exponent for fault injection, and ``TrialReport.record`` counts every
trial and keeps each failure.  ``verify_triple`` spreads the samples over
the targets of each check; each check seeds a ``random.Random`` from the
text of (seed, check, target), so one target's draws do not depend on the
others, and never on ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import itertools
import random
from collections import namedtuple
from math import floor, fsum, inf, isfinite, log, pi
from operator import add, mul, sub

from .atlas import Atlas
from .scalars import sample_text
from .triples import FLOAT_ERROR, FundamentalTriple, float_array, float_dot

__all__ = [
    "GroupMembership",
    "NumericAtlas",
    "TrialConfig",
    "TrialFailure",
    "TrialReport",
    "VerificationSummary",
    "check_branch_invariance",
    "check_connecting_element",
    "check_factorization",
    "check_transition_equivariance",
    "verify_triple",
]

_CHECK_IDS = {
    "branch_invariance": 1,
    "transition_equivariance": 2,
    "factorization": 3,
    "connecting_element": 4,
}

# log-moduli, in turns, of points with moduli in [0.5, 2]
_LOG_MODULUS = log(2.0) / (2.0 * pi)
_UNIT = 2.0 ** -53
# the most roundings on the path of one term of a residual: the shift C m
# (a dot product rounds its products, then its sum), adding w and the
# branch, E applied (two), subtracting E w and then C m', and the three
# steps of the circular reduction
_ROUNDINGS = 11


class TrialConfig(namedtuple("TrialConfig", "samples seed tolerance "
                             "word_length parameter_sample")):
    __slots__ = ()

    def __new__(cls, samples=100, seed=0, tolerance=1e-9, word_length=3,
                parameter_sample=None):
        if samples < 1:
            raise ValueError(f"samples must be >= 1 (--samples), got {samples}")
        if not 0 < tolerance < inf:
            raise ValueError(f"tolerance must be finite and positive "
                             f"(--tolerance), got {tolerance}")
        if word_length < 1:
            raise ValueError(
                f"word length must be >= 1 (--word-length), got {word_length}")
        return super().__new__(cls, samples, seed, tolerance, word_length,
                               parameter_sample)


# kind is always "mismatch"
TrialFailure = namedtuple("TrialFailure",
                          "check target trial kind residual seed")


class TrialReport:
    __slots__ = ("check", "trials", "max_deviation", "failures", "skipped")

    def __init__(self, check, trials=0, max_deviation=0.0, failures=(),
                 skipped=()):
        self.check, self.trials = check, trials
        self.max_deviation = max_deviation
        self.failures, self.skipped = failures, skipped

    @property
    def passed(self):
        return not self.failures

    def record(self, target, trial, seed, kind, residual):
        """Count one trial: it passed when kind is None, else failed so.

        A residual that is not finite, which no tolerance can judge, raises
        FloatingPointError.
        """
        if not isfinite(residual):
            raise FloatingPointError(f"a residual is {residual}")
        self.trials += 1
        if kind is None:
            self.max_deviation = max(self.max_deviation, residual)
        else:
            self.failures += (TrialFailure(
                self.check, target, trial, kind, residual, seed),)

    def merge(self, other: "TrialReport"):
        self.trials += other.trials
        self.max_deviation = max(self.max_deviation, other.max_deviation)
        self.failures = self.failures + other.failures
        self.skipped = self.skipped + other.skipped


def _circular_residual(values):
    """Max distance of the entries to the nearest integer."""
    return max(abs((v + 0.5) % 1.0 - 0.5) for v in values)


def _largest(values):
    """Max absolute value of the entries."""
    return max(map(abs, values))


def _matvec(matrix, vector):
    """matrix (rows) times vector, as a list of ``float_dot``s."""
    return [float_dot(row, vector) for row in matrix]


def _integer_matvec(rows, vector):
    """The integer rows times the integer vector, exactly."""
    return [sum(map(mul, row, vector)) for row in rows]


class GroupMembership:
    """Bounded integer search for phase vectors inside a discrete group.

    Given the n x k exponent matrix C of the group's generators, decides
    whether a phase vector theta equals C m modulo Z^n for some integer m
    in [-box, box]^k.  The box is split in half and partial phase sums are
    matched through a quantized key table, which keeps the dodecahedron's
    21^6 candidate grid at two 21^3 enumerations.  No check calls it; it
    serves as an independent oracle and imports numpy only when used.
    """

    _CELL = 1e-6

    def __init__(self, exponents, box: int, tolerance: float):
        import numpy as np
        exponents = np.asarray(exponents, dtype=float)
        self.exponents = exponents
        self.box = box
        self.tolerance = tolerance
        n, k = exponents.shape
        if n > 3:
            raise NotImplementedError(
                "membership search supports chart dimensions up to 3")
        self._ncells = int(round(1.0 / self._CELL))
        self._multipliers = (self._ncells ** np.arange(n)).astype(np.int64)
        k1 = k if k <= 3 else (k + 1) // 2
        self._k1 = k1
        self._combos1 = self._grid(k1)
        self._combos2 = self._grid(k - k1)
        phases1 = self._combos1 @ exponents[:, :k1].T if k1 else np.zeros((1, n))
        self._phases1 = np.mod(phases1, 1.0)
        phases2 = (self._combos2 @ exponents[:, k1:].T
                   if k - k1 else np.zeros((1, n)))
        self._phases2 = np.mod(phases2, 1.0)
        keys = self._pack(self._phases1)
        self._order = np.argsort(keys, kind="stable")
        self._sorted_keys = keys[self._order]
        # exact matches land in the zero offset almost surely, so try it first
        offsets = sorted(itertools.product((-1, 0, 1), repeat=n),
                         key=lambda o: sum(abs(x) for x in o))
        self._offsets = np.array(offsets, dtype=np.int64)

    def _grid(self, count):
        import numpy as np
        if count == 0:
            return np.zeros((1, 0), dtype=np.int64)
        line = np.arange(-self.box, self.box + 1, dtype=np.int64)
        mesh = np.meshgrid(*([line] * count), indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)

    def _pack(self, phases):
        import numpy as np
        cells = np.floor(phases / self._CELL).astype(np.int64) % self._ncells
        return cells @ self._multipliers

    def find(self, theta):
        """Return (witness m, residual) or (None, best residual seen)."""
        import numpy as np
        theta = np.mod(np.asarray(theta, dtype=float), 1.0)
        target = np.mod(theta[None, :] - self._phases2, 1.0)
        base = np.floor(target / self._CELL).astype(np.int64)
        best = None
        for offset in self._offsets:
            keys = ((base + offset) % self._ncells) @ self._multipliers
            lo = np.searchsorted(self._sorted_keys, keys, side="left")
            hi = np.searchsorted(self._sorted_keys, keys, side="right")
            for i2 in np.nonzero(hi > lo)[0]:
                for slot in range(lo[i2], hi[i2]):
                    i1 = self._order[slot]
                    m = np.concatenate([self._combos1[i1], self._combos2[i2]])
                    residual = _circular_residual(self.exponents @ m - theta)
                    if best is None or residual < best[1]:
                        best = (m, residual)
                    if residual < self.tolerance:
                        return m, residual
        if best is not None:
            return None, best[1]
        return None, 1.0


class NumericAtlas:
    """Float views of a triple's atlas, rows of floats cached per matrix,
    and the ray witnesses w_j (one list of k ints per ray)."""

    def __init__(self, triple: FundamentalTriple, atlas: Atlas | None = None,
                 parameter_sample=None):
        if None in triple.witnesses:
            raise ValueError("numeric verification needs the witness of ray "
                             f"{triple.witnesses.index(None) + 1}")
        self.witnesses = [list(w) for w in triple.witnesses]
        self.triple = triple
        self._rays = triple.ray_matrix()
        self.atlas = atlas if atlas is not None else Atlas.compile(triple)
        if (parameter_sample is None
                and triple.domain.kind == "rational_function"):
            parameter_sample = triple.domain.default_sample
            if parameter_sample is None:
                raise ValueError(
                    "numeric verification over a parameter field needs a sample")
        self.parameter_sample = parameter_sample
        self._cache: dict[tuple, list] = {}

    def _cached(self, key, build):
        rows = self._cache.get(key)
        if rows is None:
            rows = self._cache[key] = build()
        return rows

    def _floats(self, key, matrix):
        """The float rows of an exact matrix, converted once per key."""
        return self._cached(key, lambda: float_array(
            matrix.entries, (matrix.rows, matrix.cols), self.parameter_sample))

    def ray_matrix(self):
        return self._floats("rays", self._rays)

    def group_exponents(self, cone):
        return self._floats(("group_exponents", tuple(cone)),
                            self.atlas.chart(cone).group_exponents)

    def lattice_exponents(self, cone):
        return self._floats(("lattice_exponents", tuple(cone)),
                            self.atlas.chart(cone).lattice_exponents)

    def coordinates(self, cone):
        return self._floats(("coordinates", tuple(cone)),
                            self.atlas.chart(cone).coordinates)

    def integer_exponents(self, cone):
        """The integer entries I of the lattice exponents, as ints: L - C."""
        return self._cached(("integers", tuple(cone)), lambda: [
            [0 if c else int(x) for x, c in zip(lattice, group)]
            for lattice, group in zip(self.lattice_exponents(cone),
                                      self.group_exponents(cone))])

    def transition(self, source, target):
        """The chart change's exponents: the target's table at the source's
        rays (the checks share them: most pairs recur across checks)."""
        key = ("transition", tuple(source), tuple(target))
        return self._cached(key, lambda: [[row[j - 1] for j in source]
                                          for row in self.coordinates(target)])

    def kernel_matrix(self, cone):
        """The kernel basis of the ray map over the cone: for each ray j
        outside it, in increasing j, e_j - sum_t C[t, j] e_(cone_t)."""
        def build():
            table, d = self.coordinates(cone), self.triple.ray_count
            rows = []
            for j in range(1, d + 1):
                if j not in cone:
                    row = [0.0] * d
                    row[j - 1] = 1.0
                    for t, i in enumerate(cone):
                        # 0.0 - x, not -x: an exact zero stays +0.0
                        row[i - 1] = 0.0 - table[t][j - 1]
                    rows.append(row)
            return rows
        return self._cached(("kernel", tuple(cone)), build)

    def witness_rows(self, rays):
        """W at the given rays, in their order, as k rows of ints: row l
        holds coordinate l of each ray's witness."""
        return self._cached(("witnesses", tuple(rays)), lambda: [
            list(column)
            for column in zip(*[self.witnesses[j - 1] for j in rays])])


def _with_fault(exponents, fault):
    """The exponent rows, or a copy with entry (i, j) of fault shifted."""
    if fault is None:
        return exponents
    i, j, delta = fault
    exponents = [list(row) for row in exponents]
    exponents[i][j] += delta
    return exponents


def _phase_differences(exponents, before, after):
    """Re(E w' - E w) for the phases w (before) and w' (after): the phase
    shift of each monomial z^E, in turns, not reduced mod 1."""
    return [float_dot(row, after) - float_dot(row, before) for row in exponents]


def _membership(group, witness, theta, tolerance):
    """(failure kind or None, residual) of theta against group @ witness."""
    residual = _circular_residual(map(sub, _matvec(group, witness), theta))
    return ("mismatch" if residual >= tolerance else None), residual


def _rng(cfg: TrialConfig, check: str, cones: tuple):
    """The check's generator for one target, seeded from the text of
    [seed, check id, each cone's rays followed by 0]."""
    flat = [cfg.seed, _CHECK_IDS[check]]
    for cone in cones:
        flat += cone
        flat.append(0)
    # a str seed is hashed by sha512, never by hash(), so draws do not
    # depend on PYTHONHASHSEED
    return random.Random(str(flat))


def check_branch_invariance(triple: FundamentalTriple, cone, cfg: TrialConfig,
                            numeric: NumericAtlas, fault=None) -> TrialReport:
    """Monomial classes are unchanged by integer logarithm-branch shifts.

    Only phases enter, so a point is drawn by its phases alone; each trial
    takes the chart change from the next other cone in turn.
    """
    cone = tuple(sorted(cone))
    others = [c for c in triple.fan.max_cones if c != cone]
    report = TrialReport(check="branch_invariance")
    rng = _rng(cfg, "branch_invariance", (cone,))
    draw = rng.random
    group = numeric.group_exponents(cone)
    if others:
        sources = [(_with_fault(numeric.transition(source, cone), fault),
                    numeric.witness_rows(source))
                   for source in others[:cfg.samples]]
    else:
        k = len(group[0])
        sources = [(_with_fault(group, fault),
                    [[int(i == j) for i in range(k)] for j in range(k)])]
    length = cfg.word_length
    span = 2 * length + 1
    for trial in range(cfg.samples):
        exponents, witnesses = sources[trial % len(sources)]
        w = [draw() for _ in exponents[0]]
        shifts = [int(draw() * span) - length for _ in w]
        theta = _phase_differences(exponents, w, list(map(add, w, shifts)))
        report.record((cone,), trial, cfg.seed, *_membership(
            group, _integer_matvec(witnesses, shifts), theta, cfg.tolerance))
    return report


def _word_sample(draw, generator_count, word_length):
    coefficients = [0] * generator_count
    for _ in range(word_length):
        coefficients[int(draw() * generator_count)] += (
            1 if draw() < 0.5 else -1)
    return coefficients


def check_transition_equivariance(triple: FundamentalTriple, source, target,
                                  cfg: TrialConfig, numeric: NumericAtlas,
                                  fault=None) -> TrialReport:
    """T(gamma z) and T(z) differ by an element of the target chart group.

    gamma = exp(2 pi i C_source m) moves only phases, so a point is drawn
    by its phases alone.
    """
    source = tuple(sorted(source))
    target = tuple(sorted(target))
    exponents = _with_fault(numeric.transition(source, target), fault)
    source_group = numeric.group_exponents(source)
    source_integers = numeric.integer_exponents(source)
    source_witnesses = numeric.witness_rows(source)
    target_group = numeric.group_exponents(target)
    report = TrialReport(check="transition_equivariance")
    rng = _rng(cfg, "transition_equivariance", (source, target))
    draw = rng.random
    k = len(source_group[0])
    for trial in range(cfg.samples):
        w = [draw() for _ in source]
        m = _word_sample(draw, k, cfg.word_length)
        moved = list(map(add, w, _matvec(source_group, m)))
        branch = [-floor(v) for v in moved]
        moved = list(map(add, moved, branch))
        theta = _phase_differences(exponents, w, moved)
        correction = list(map(sub, branch,
                              _integer_matvec(source_integers, m)))
        witness = list(map(add, m, _integer_matvec(source_witnesses,
                                                   correction)))
        report.record((source, target), trial, cfg.seed, *_membership(
            target_group, witness, theta, cfg.tolerance))
    return report


def check_factorization(triple: FundamentalTriple, cone, cfg: TrialConfig,
                        numeric: NumericAtlas, fault=None) -> TrialReport:
    """Lattice-compatible translations split as chart-group times kernel.

    Draws X = x + sum_r c_r K_r for x in [-2, 2]^d and the kernel rows K_r
    with c_r in [-1, 1], so pi(X) = pi(x) lies in the quasilattice; the
    cone-supported solution of pi(Y) = pi(X) is Y = B_sigma X, read off
    the coordinate table.  Then X - Y must be killed by pi and exp(Y) must
    belong to the chart group.
    """
    cone = tuple(sorted(cone))
    d = triple.ray_count
    rays = numeric.ray_matrix()
    table = numeric.coordinates(cone)
    witnesses = numeric.witness_rows(range(1, d + 1))
    # K_r is e_j - sum_t B[t, j] e_(cone_t) for the r-th ray j outside
    outside = [j for j in range(d) if j + 1 not in cone]
    cone_columns = [[row[i - 1] for row in numeric.kernel_matrix(cone)]
                    for i in cone]
    group = _with_fault(numeric.group_exponents(cone), fault)
    report = TrialReport(check="factorization")
    rng = _rng(cfg, "factorization", (cone,))
    draw = rng.random
    for trial in range(cfg.samples):
        integer_part = [int(draw() * 5) - 2 for _ in range(d)]
        c = [2.0 * draw() - 1.0 for _ in outside]
        x = list(map(float, integer_part))
        for j, v in zip(outside, c):
            x[j] += v
        for i, column in zip(cone, cone_columns):
            x[i - 1] += float_dot(column, c)
        y = _matvec(table, x)
        for i, v in zip(cone, y):   # x becomes X - Y
            x[i - 1] -= v
        residual_kernel = _largest(_matvec(rays, x))
        kind, residual = _membership(
            group, _integer_matvec(witnesses, integer_part), y,
            cfg.tolerance)
        if residual_kernel >= cfg.tolerance:
            kind, residual = "mismatch", residual_kernel
        elif kind is None:
            residual = max(residual_kernel, residual)
        report.record((cone,), trial, cfg.seed, kind, residual)
    return report


def check_connecting_element(triple: FundamentalTriple, source, target,
                             cfg: TrialConfig, numeric: NumericAtlas,
                             fault=None) -> TrialReport:
    """The kernel-group element carries one representative onto the other.

    In logarithmic coordinates the element is e = E_extra w_extra on the
    target's rays less w on the source's rays outside the target; it must
    lie in the kernel of the ray map, and e plus the source representative
    must equal the target representative E w, phases mod 1 and log-moduli
    exactly.  Only meaningful for pairs whose index sets overlap partially
    (1 <= h <= n-1); disjoint pairs are reported as skipped.
    """
    source = tuple(sorted(source))
    target = tuple(sorted(target))
    extra = [j for j in source if j not in target]
    report = TrialReport(check="connecting_element")
    if not 1 <= len(extra) <= triple.dim - 1:
        report.skipped = ((source, target, len(extra)),)
        return report
    exponents = _with_fault(numeric.transition(source, target), fault)
    extra_cols = [source.index(j) for j in extra]
    extra_exponents = [[row[c] for c in extra_cols] for row in exponents]
    # the ray map at the element's support: the target's rays, then the extra
    support = [[row[j - 1] for j in target + tuple(extra)]
               for row in numeric.ray_matrix()]
    # (target row, source coordinate) of each ray both cones hold
    shared = [(r, source.index(j)) for r, j in enumerate(target) if j in source]
    rng = _rng(cfg, "connecting_element", (source, target))
    draw = rng.random
    for trial in range(cfg.samples):
        phases, moduli = [], []
        for _ in source:
            phases.append(draw())
            moduli.append((2.0 * draw() - 1.0) * _LOG_MODULUS)
        deviation = 0.0
        for w, distance in ((phases, _circular_residual), (moduli, _largest)):
            w_extra = [w[c] for c in extra_cols]
            moved = _matvec(extra_exponents, w_extra)
            element = moved + [-v for v in w_extra]
            for r, c in shared:
                moved[r] += w[c]
            deviation = max(deviation, _largest(_matvec(support, element)),
                            distance(list(map(sub, moved,
                                              _matvec(exponents, w)))))
        report.record((source, target), trial, cfg.seed,
                      "mismatch" if deviation >= cfg.tolerance else None,
                      deviation)
    return report


class VerificationSummary(namedtuple("VerificationSummary", "reports")):
    """The TrialReport of each check, by check name."""

    __slots__ = ()

    @property
    def passed(self):
        return all(r.passed for r in self.reports.values())


def _distribute(total, buckets):
    """(bucket, count) for each bucket that gets trials: total spread
    evenly, the first total mod len(buckets) buckets one more."""
    base, extra = divmod(total, len(buckets) or 1)
    return [(bucket, base + (i < extra))
            for i, bucket in enumerate(buckets[:total])]


def _rounding_bound(triple: FundamentalTriple, numeric: NumericAtlas,
                    cfg: TrialConfig):
    """(bound, largest exponent): the most that rounding can move a
    residual of any check on any target, and the largest entry of the
    chart tables.

    A residual is computed from sums of float products of table entries
    with drawn or derived numbers, and its exact value is an integer (or
    0).  Each term passes at most _ROUNDINGS roundings, and each table
    entry is off by at most FLOAT_ERROR, so the residual is off by at most
    (gamma_q + FLOAT_ERROR) times phi, the sum of the absolute values of
    its terms, with gamma_q = q u / (1 - q u) (Higham, Accuracy and
    Stability of Numerical Algorithms, 2002, section 3.1).  phi is bounded
    row by row of each chart, over the ranges of the draws: the phases
    E w, the shifts C m, C_sigma at the largest witness the draws reach,
    and the ray map on the kernel parts.  Every cone and every pair is
    covered, so the bound does not depend on the number of samples.
    """
    length, d = cfg.word_length, triple.ray_count
    cones = triple.fan.max_cones
    largest = 0.0
    # per ray: the largest shift C m of its coordinate, and the largest
    # correction u - I m of transition equivariance, over its cones
    shift, correction = [0.0] * d, [0.0] * d
    for cone in cones:
        for row in numeric.coordinates(cone) + numeric.lattice_exponents(cone):
            largest = max(largest, max(map(abs, row)))
        for j, row, integers in zip(cone, numeric.group_exponents(cone),
                                    numeric.integer_exponents(cone)):
            s = length * max(map(abs, row))
            shift[j - 1] = max(shift[j - 1], s)
            correction[j - 1] = max(correction[j - 1], 1.0 + s + length * max(
                map(abs, integers)))
    witnesses = [list(map(abs, row))
                 for row in numeric.witness_rows(range(1, d + 1))]
    # the largest coordinates of W x for |x| <= 1 and of m + W (u - I m)
    spread = [sum(row) for row in witnesses]
    reach = [length + float_dot(row, correction) for row in witnesses]
    moved = [3.0 + s for s in shift]
    rays = [list(map(abs, row)) for row in numeric.ray_matrix()]
    phi = 0.0
    for cone in cones:
        table = [list(map(abs, row)) for row in numeric.coordinates(cone)]
        sums = [fsum(row) for row in table]
        # an infinite factor would make 0 * inf, which max() passes over
        if not all(map(isfinite, moved + reach + sums)):
            return inf, largest
        for row, total, g in zip(table, sums, numeric.group_exponents(cone)):
            g = list(map(abs, g))
            witness = float_dot(g, spread)
            # factorization: y = B x against C W x
            phi = max(phi, 5.0 * total + 2.0 * witness)
            if len(cones) == 1:   # E is the group exponents, W the identity
                phi = max(phi, fsum(g) * (2 + 2 * length))
                continue
            phi = max(
                phi,
                # branch invariance: E w, E (w + s) and C W s
                total * (2 + length) + length * witness,
                # transition equivariance: E w, E w' with the shift's
                # rounding, and C (m + W (u - I m))
                float_dot(row, moved) + float_dot(g, reach))
        # the ray map on X - Y (factorization); the connecting element's
        # terms, E w and the ray map on its element (bounded by 2 |B| w
        # on the cone's rays, |w| elsewhere), lie below this and the branch
        # invariance terms
        kernel = [3.0] * d
        for i, total in zip(cone, sums):
            kernel[i - 1] = 8.0 * total
        for row in rays:
            phi = max(phi, float_dot(row, kernel))
    q = _ROUNDINGS
    return (q * _UNIT / (1.0 - q * _UNIT) + FLOAT_ERROR) * phi, largest


def verify_triple(triple: FundamentalTriple, cfg: TrialConfig,
                  atlas: Atlas | None = None) -> VerificationSummary:
    """Run all four checks, spreading cfg.samples trials across targets.

    Refuses with a ValueError, before any draw, when a table value has no
    finite float or rounding could move a residual by half the tolerance.
    """
    numeric = NumericAtlas(triple, atlas=atlas,
                           parameter_sample=cfg.parameter_sample)
    try:
        bound, largest = _rounding_bound(triple, numeric, cfg)
        reason = (f"exponents reach {largest:.3g}, so rounding could move a "
                  f"residual by {bound:.2g}, more than half the tolerance "
                  f"{cfg.tolerance:g}")
    except OverflowError as exc:   # a table value has no finite float
        bound = inf
        reason = (f"exponents exceed the float range ({exc}), so no residual "
                  f"can be held to half the tolerance {cfg.tolerance:g}")
    if not bound <= cfg.tolerance / 2:
        sample = numeric.parameter_sample
        at = ("" if sample is None else f" at {triple.domain.generator_symbol}"
              f" = {sample_text(sample)}")
        raise ValueError(
            f"the numeric checks cannot run in floating point{at}: {reason}")
    cones = [(cone,) for cone in triple.fan.max_cones]
    pairs = list(itertools.permutations(triple.fan.max_cones, 2))
    # h: how many of the source's rays the target lacks
    h = [len(set(s).difference(t)) for s, t in pairs]
    n = triple.dim
    eligible = [pair for pair, e in zip(pairs, h) if 1 <= e <= n - 1]
    reports = {name: TrialReport(check=name) for name in _CHECK_IDS}
    reports["connecting_element"].skipped = tuple(
        (*pair, e) for pair, e in zip(pairs, h) if not 1 <= e <= n - 1)
    configs = {}
    for name, check, targets in (
            ("branch_invariance", check_branch_invariance, cones),
            ("transition_equivariance", check_transition_equivariance, pairs),
            ("factorization", check_factorization, cones),
            ("connecting_element", check_connecting_element, eligible)):
        for target, count in _distribute(cfg.samples, targets):
            if count not in configs:
                configs[count] = cfg._replace(samples=count)
            reports[name].merge(check(triple, *target, configs[count],
                                      numeric))
    return VerificationSummary(reports=reports)
