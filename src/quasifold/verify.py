"""Monte-Carlo numeric verification of the symbolic atlas.

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
A_sigma^-1 G less its integer entries.  Each theta is the image of a
quasilattice vector whose integer coordinates the check drew itself, so
its witness m follows in closed form from the ray witnesses W (k x d,
G w_j = X_j), and a trial evaluates one residual |C_sigma m - theta| mod 1:

  * branch invariance: theta = E s for E = A_sigma^-1 A_tau and a drawn
    s in Z^n; A_tau = G W_tau, so m = W_tau s.  A one-cone fan shifts
    its group exponents directly, so m = s;
  * factorization: theta = A_sigma^-1 R x for the ray matrix R and the
    drawn integer part x (the kernel part dies under R); R x = G W x, so
    m = W x;
  * transition equivariance: the principal logarithm returns the drawn
    word's shift C_tau m_w as A_tau^-1 G m_w + u, with u in Z^n absorbing
    the branch and the integers C_tau dropped, so
    u = rint(Re(shift) - A_tau^-1 G m_w) and m = m_w + W_tau u.

On a correct atlas the residual is at rounding level: ``validate`` proves
G w_j = X_j exactly, so A_sigma^-1 A_tau s = A_sigma^-1 G W_tau s.  A wrong
E or C cannot hide: m comes from W, not from the atlas, so a faulty
exponent leaves a residual of the fault's size, reported as a mismatch.

The harness is plain Python: ``NumericAtlas`` holds the float views
(``triples.float_array``, rows of floats) of the cone matrices and of each
chart's tables, reads a transition and the factorization's kernel rows off
the float coordinate table, and keeps the ray witnesses as exact ints, so
a witness never overflows; ``cmath`` gives exp, log and phase, ``x % 1.0``
the reduction mod 1, and ``triples.float_solve`` the one float solve.
``_with_fault`` perturbs one exponent for fault injection, and
``TrialReport.record`` counts every trial and keeps each failure.
``verify_triple`` spreads the samples over the targets of each check; each
check seeds a ``random.Random`` from the text of (seed, check, target), so
one target's draws do not depend on the others, and never on
``PYTHONHASHSEED``.
"""

from __future__ import annotations

import cmath
import itertools
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from math import inf, isfinite, log, pi
from operator import mul, sub
from typing import Dict, Optional

from .atlas import Atlas
from .triples import FundamentalTriple, float_array, float_dot, float_solve

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

_TWO_PI = 2.0 * pi
_TWO_PI_I = 2j * pi


@dataclass(frozen=True)
class TrialConfig:
    samples: int = 100
    seed: int = 0
    tolerance: float = 1e-9
    word_length: int = 3
    parameter_sample: Optional[Fraction] = None

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError(
                f"samples must be >= 1 (--samples), got {self.samples}")
        if not 0 < self.tolerance < inf:
            raise ValueError(f"tolerance must be finite and positive "
                             f"(--tolerance), got {self.tolerance}")
        if self.word_length < 1:
            raise ValueError(
                f"word length must be >= 1 (--word-length), got {self.word_length}")


@dataclass(frozen=True)
class TrialFailure:
    check: str
    target: tuple
    trial: int
    kind: str          # always "mismatch"
    residual: float
    seed: int


@dataclass
class TrialReport:
    check: str
    trials: int = 0
    max_deviation: float = 0.0
    failures: tuple = ()
    skipped: tuple = ()

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


def _matvec(matrix, vector):
    """matrix (rows) times vector, as a list."""
    return [float_dot(row, vector) for row in matrix]


def _combine(columns, coefficients):
    """The integer vector sum_j coefficients[j] * columns[j], exactly."""
    return [sum(map(mul, entries, coefficients)) for entries in zip(*columns)]


def _expi(values):
    """exp(2 pi i v) of each entry."""
    return [cmath.exp(_TWO_PI_I * v) for v in values]


def _phase_shift(before, after):
    """The phase of each after / before, in turns, reduced into [0, 1)."""
    return [(cmath.phase(b / a) / _TWO_PI) % 1.0
            for a, b in zip(before, after)]


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

    def __init__(self, triple: FundamentalTriple, atlas: Optional[Atlas] = None,
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
        self._cache: Dict[tuple, list] = {}
        self._floats_seen: Dict[object, float] = {}

    def _floats(self, key, matrix):
        if key not in self._cache:
            self._cache[key] = float_array(
                matrix.entries, (matrix.rows, matrix.cols),
                self.parameter_sample, self._floats_seen)
        return self._cache[key]

    def ray_matrix(self):
        return self._floats(("rays",), self._rays)

    def cone_matrix(self, cone):
        return self._floats(("cone", tuple(cone)),
                            self.triple.cone_matrix(cone))

    def group_exponents(self, cone):
        return self._floats(("group", tuple(cone)),
                            self.atlas.chart(cone).group_exponents)

    def lattice_exponents(self, cone):
        return self._floats(("lattice", tuple(cone)),
                            self.atlas.chart(cone).lattice_exponents)

    def coordinates(self, cone):
        return self._floats(("coordinates", tuple(cone)),
                            self.atlas.chart(cone).coordinates)

    def transition(self, source, target):
        """The chart change's exponents: the target's table at the source's rays."""
        return [[row[j - 1] for j in source] for row in self.coordinates(target)]

    def kernel_matrix(self, cone):
        """The kernel basis of the ray map over the cone: for each ray j
        outside it, in increasing j, e_j - sum_t C[t, j] e_(cone_t)."""
        key = ("kernel", tuple(cone))
        if key not in self._cache:
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
            self._cache[key] = rows
        return self._cache[key]

    def cone_witnesses(self, cone):
        """The witnesses of the cone's rays, in the cone's order."""
        return [self.witnesses[j - 1] for j in cone]


def _with_fault(exponents, fault):
    """The exponent rows, or a copy with entry (i, j) of fault shifted."""
    if fault is None:
        return exponents
    i, j, delta = fault
    exponents = [list(row) for row in exponents]
    exponents[i][j] += delta
    return exponents


def _membership(group, witness, theta, tolerance):
    """(failure kind or None, residual) of theta against group @ witness."""
    residual = _circular_residual(
        [g - t for g, t in zip(_matvec(group, witness), theta)])
    return ("mismatch" if residual >= tolerance else None), residual


def _rng(cfg: TrialConfig, check: str, target: tuple):
    flat = [cfg.seed, _CHECK_IDS[check]]
    for part in target:
        if isinstance(part, (tuple, list)):
            flat.extend(int(x) for x in part)
            flat.append(0)
        else:
            flat.append(int(part))
    # a str seed is hashed by sha512, never by hash(), so draws do not
    # depend on PYTHONHASHSEED
    return random.Random(str(flat))


def _sample_log_points(rng, count):
    """Logarithmic coordinates of points with moduli in [0.5, 2]."""
    return [complex(rng.random(), -log(rng.uniform(0.5, 2.0)) / _TWO_PI)
            for _ in range(count)]


def check_branch_invariance(triple: FundamentalTriple, cone, cfg: TrialConfig,
                            numeric: NumericAtlas, fault=None) -> TrialReport:
    """Monomial classes are unchanged by integer logarithm-branch shifts."""
    cone = tuple(sorted(cone))
    others = [c for c in triple.fan.max_cones if c != cone]
    report = TrialReport(check="branch_invariance")
    rng = _rng(cfg, "branch_invariance", (cone,))
    group = numeric.group_exponents(cone)
    k = len(group[0])
    length = cfg.word_length
    for trial in range(cfg.samples):
        if others:
            source = others[trial % len(others)]
            exponents = numeric.transition(source, cone)
            witnesses = numeric.cone_witnesses(source)
        else:
            exponents = group
            witnesses = [[int(i == j) for i in range(k)] for j in range(k)]
        exponents = _with_fault(exponents, fault)
        width = len(exponents[0])
        w = _sample_log_points(rng, width)
        shifts = [rng.randint(-length, length) for _ in range(width)]
        image_a = _expi(_matvec(exponents, w))
        image_b = _expi(_matvec(exponents, [x + s for x, s in zip(w, shifts)]))
        theta = _phase_shift(image_a, image_b)
        report.record((cone,), trial, cfg.seed, *_membership(
            group, _combine(witnesses, shifts), theta, cfg.tolerance))
    return report


def _word_sample(rng, generator_count, word_length):
    coefficients = [0] * generator_count
    for _ in range(word_length):
        coefficients[rng.randrange(generator_count)] += (
            1 if rng.getrandbits(1) else -1)
    return coefficients


def check_transition_equivariance(triple: FundamentalTriple, source, target,
                                  cfg: TrialConfig, numeric: NumericAtlas,
                                  fault=None) -> TrialReport:
    """T(gamma z) and T(z) differ by an element of the target chart group."""
    source = tuple(sorted(source))
    target = tuple(sorted(target))
    exponents = _with_fault(numeric.transition(source, target), fault)
    source_group = numeric.group_exponents(source)
    source_lattice = numeric.lattice_exponents(source)
    source_witnesses = numeric.cone_witnesses(source)
    target_group = numeric.group_exponents(target)
    report = TrialReport(check="transition_equivariance")
    rng = _rng(cfg, "transition_equivariance", (source, target))
    k = len(source_group[0])
    for trial in range(cfg.samples):
        z = _expi(_sample_log_points(rng, len(source)))
        m = _word_sample(rng, k, cfg.word_length)
        gamma = _expi(_matvec(source_group, m))
        logs = [cmath.log(v) / _TWO_PI_I for v in z]
        logs_shifted = [cmath.log(g * v) / _TWO_PI_I
                        for g, v in zip(gamma, z)]
        image = _expi(_matvec(exponents, logs))
        image_shifted = _expi(_matvec(exponents, logs_shifted))
        theta = _phase_shift(image, image_shifted)
        branch = [round((b - a).real - c) for a, b, c in zip(
            logs, logs_shifted, _matvec(source_lattice, m))]
        witness = [x + y for x, y in zip(
            m, _combine(source_witnesses, branch))]
        report.record((source, target), trial, cfg.seed, *_membership(
            target_group, witness, theta, cfg.tolerance))
    return report


def check_factorization(triple: FundamentalTriple, cone, cfg: TrialConfig,
                        numeric: NumericAtlas, fault=None) -> TrialReport:
    """Lattice-compatible translations split as chart-group times kernel.

    Draws X with pi(X) in the quasilattice, sets Y to the cone-supported
    solution of pi(Y) = pi(X); then X - Y must be killed by pi and exp(Y)
    must belong to the chart group.
    """
    cone = tuple(sorted(cone))
    rays = numeric.ray_matrix()
    cone_m = numeric.cone_matrix(cone)
    kernel = numeric.kernel_matrix(cone)
    group = _with_fault(numeric.group_exponents(cone), fault)
    d = triple.ray_count
    report = TrialReport(check="factorization")
    rng = _rng(cfg, "factorization", (cone,))
    for trial in range(cfg.samples):
        integer_part = [rng.randint(-2, 2) for _ in range(d)]
        x = [float(v) for v in integer_part]
        for row in kernel:
            c = rng.uniform(-1.0, 1.0)
            x = [v + c * r for v, r in zip(x, row)]
        y_coords = float_solve(cone_m, [_matvec(rays, x)])[0]
        w = list(x)
        for j, y in zip(cone, y_coords):
            w[j - 1] -= y
        residual_kernel = max(map(abs, _matvec(rays, w)))
        kind, residual = _membership(
            group, _combine(numeric.witnesses, integer_part),
            [y % 1.0 for y in y_coords], cfg.tolerance)
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

    Only meaningful for pairs whose index sets overlap partially
    (1 <= h <= n-1); disjoint pairs are reported as skipped.
    """
    source = tuple(sorted(source))
    target = tuple(sorted(target))
    n = triple.dim
    shared = sorted(set(source) & set(target))
    h = len(source) - len(shared)
    report = TrialReport(check="connecting_element")
    if not 1 <= h <= n - 1:
        report.skipped = ((source, target, h),)
        return report
    exponents = _with_fault(numeric.transition(source, target), fault)
    rays = numeric.ray_matrix()
    d = triple.ray_count
    extra = [j for j in source if j not in target]
    extra_cols = [source.index(j) for j in extra]
    extra_exponents = [[row[c] for c in extra_cols] for row in exponents]
    rng = _rng(cfg, "connecting_element", (source, target))
    for trial in range(cfg.samples):
        w = _sample_log_points(rng, n)
        w_extra = [w[c] for c in extra_cols]
        log_element = [0j] * d
        for j, v in zip(target, _matvec(extra_exponents, w_extra)):
            log_element[j - 1] += v
        for j, v in zip(extra, w_extra):
            log_element[j - 1] -= v
        residual_kernel = max(map(abs, _matvec(rays, log_element)))
        representative = [1 + 0j] * d
        for j, v in zip(source, _expi(w)):
            representative[j - 1] = v
        moved = [e * r for e, r in zip(_expi(log_element), representative)]
        expected = [1 + 0j] * d
        for j, v in zip(target, _expi(_matvec(exponents, w))):
            expected[j - 1] = v
        scale = max(1.0, max(map(abs, expected)))
        residual_match = max(map(abs, map(sub, moved, expected))) / scale
        deviation = max(residual_kernel, residual_match)
        report.record((source, target), trial, cfg.seed,
                      "mismatch" if deviation >= cfg.tolerance else None,
                      deviation)
    return report


@dataclass
class VerificationSummary:
    reports: Dict[str, TrialReport]

    @property
    def passed(self):
        return all(r.passed for r in self.reports.values())


def _distribute(total, buckets):
    if not buckets:
        return {}
    base, extra = divmod(total, len(buckets))
    return {bucket: base + (1 if i < extra else 0)
            for i, bucket in enumerate(buckets)}


def verify_triple(triple: FundamentalTriple, cfg: TrialConfig,
                  atlas: Optional[Atlas] = None) -> VerificationSummary:
    """Run all four checks, spreading cfg.samples trials across targets."""
    numeric = NumericAtlas(triple, atlas=atlas,
                           parameter_sample=cfg.parameter_sample)
    cones = [(cone,) for cone in triple.fan.max_cones]
    pairs = list(itertools.permutations(triple.fan.max_cones, 2))
    h = {(s, t): len(set(s) - set(t)) for s, t in pairs}
    eligible = [pair for pair in pairs if 1 <= h[pair] <= triple.dim - 1]
    reports = {name: TrialReport(check=name) for name in _CHECK_IDS}
    reports["connecting_element"].skipped = tuple(
        (*pair, h[pair]) for pair in pairs if not 1 <= h[pair] <= triple.dim - 1)
    try:
        for name, check, targets in (
                ("branch_invariance", check_branch_invariance, cones),
                ("transition_equivariance", check_transition_equivariance, pairs),
                ("factorization", check_factorization, cones),
                ("connecting_element", check_connecting_element, eligible)):
            for target, count in _distribute(cfg.samples, targets).items():
                if count:
                    reports[name].merge(check(
                        triple, *target, replace(cfg, samples=count), numeric))
    except ArithmeticError as exc:
        # values far from 1 overflow, underflow or divide by zero in floats
        # while the exact atlas stays right: a refusal, not a failed check
        sample = numeric.parameter_sample
        at = ("" if sample is None
              else f" at {triple.domain.generator_symbol} = {sample}")
        raise ValueError(f"the numeric checks cannot run in floating point{at} "
                         f"({exc})") from exc
    return VerificationSummary(reports=reports)
