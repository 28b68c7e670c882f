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

Membership of a phase vector in a chart group is decided by a bounded
integer search over the group's exponent generators: a witness within the
box proves membership, and search exhaustion is reported separately from a
numeric mismatch.  The search runs meet-in-the-middle over the generator
box so the dodecahedron's six generators stay cheap.

The checks share their plumbing: ``NumericAtlas`` holds the float views
(converted by ``triples.float_array``), ``_with_fault`` perturbs one
exponent for fault injection, and ``TrialReport.record`` counts every
trial and keeps each failure.  ``verify_triple`` spreads the samples over
the targets of each check in one loop; each check seeds its generator from
(seed, check, target), so one target's draws do not depend on the others.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Dict, Optional

import numpy as np

from .atlas import Atlas
from .triples import FundamentalTriple, float_array

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

_TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class TrialConfig:
    samples: int = 100
    seed: int = 0
    tolerance: float = 1e-9
    word_length: int = 3
    integer_box: int = 10
    parameter_sample: Optional[Fraction] = None

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")
        if self.word_length < 1:
            raise ValueError(
                f"word length must be >= 1 (--word-length), got {self.word_length}")
        if self.integer_box < 1:
            raise ValueError(
                f"integer box must be >= 1 (--box), got {self.integer_box}")


@dataclass(frozen=True)
class TrialFailure:
    check: str
    target: tuple
    trial: int
    kind: str          # "mismatch" or "search-exhausted"
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
        """Count one trial: it passed when kind is None, else failed so."""
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
    return float(np.max(np.abs(np.mod(np.asarray(values) + 0.5, 1.0) - 0.5)))


class GroupMembership:
    """Bounded integer search for phase vectors inside a discrete group.

    Given the n x k exponent matrix C of the group's generators, decides
    whether a phase vector theta equals C m modulo Z^n for some integer m
    in [-box, box]^k.  The box is split in half and partial phase sums are
    matched through a quantized key table, which keeps the dodecahedron's
    21^6 candidate grid at two 21^3 enumerations.
    """

    _CELL = 1e-6

    def __init__(self, exponents: np.ndarray, box: int, tolerance: float):
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
        if count == 0:
            return np.zeros((1, 0), dtype=np.int64)
        line = np.arange(-self.box, self.box + 1, dtype=np.int64)
        mesh = np.meshgrid(*([line] * count), indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)

    def _pack(self, phases):
        cells = np.floor(phases / self._CELL).astype(np.int64) % self._ncells
        return cells @ self._multipliers

    def find(self, theta):
        """Return (witness m, residual) or (None, best residual seen)."""
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


class TieredMembership:
    """Search a small coefficient box first, falling back to the full box.

    Witnesses are usually tiny, so a box-3 table answers most queries at a
    fraction of the enumeration cost; failures re-run against the full box,
    keeping the result set identical to a single full-box search.
    """

    def __init__(self, exponents, box, tolerance):
        small = min(3, box)
        self._small = GroupMembership(exponents, small, tolerance)
        self._full = (self._small if small == box
                      else GroupMembership(exponents, box, tolerance))

    def find(self, theta):
        witness, residual = self._small.find(theta)
        if witness is not None or self._full is self._small:
            return witness, residual
        return self._full.find(theta)


class NumericAtlas:
    """Float views of a triple's atlas, cached per matrix."""

    def __init__(self, triple: FundamentalTriple, atlas: Optional[Atlas] = None,
                 parameter_sample=None):
        self.triple = triple
        self.atlas = atlas if atlas is not None else Atlas(triple)
        if (parameter_sample is None
                and triple.domain.kind == "rational_function"):
            parameter_sample = triple.domain.default_sample
            if parameter_sample is None:
                raise ValueError(
                    "numeric verification over a parameter field needs a sample")
        self.parameter_sample = parameter_sample
        self._cache: Dict[tuple, np.ndarray] = {}
        self._memberships: Dict[tuple, TieredMembership] = {}
        self._floats_seen: Dict[object, float] = {}

    def _floats(self, key, matrix):
        if key not in self._cache:
            self._cache[key] = float_array(
                matrix.entries, (matrix.rows, matrix.cols),
                self.parameter_sample, self._floats_seen)
        return self._cache[key]

    def ray_matrix(self):
        return self._floats(("rays",), self.triple.ray_matrix())

    def cone_matrix(self, cone):
        return self._floats(("cone", tuple(cone)),
                            self.atlas.chart(cone).matrix)

    def group_exponents(self, cone):
        return self._floats(("group", tuple(cone)),
                            self.atlas.chart(cone).group_exponents)

    def transition(self, source, target):
        return self._floats(("transition", tuple(source), tuple(target)),
                            self.atlas.transition(source, target).exponents)

    def kernel_matrix(self, cone):
        key = ("kernel", tuple(cone))
        if key not in self._cache:
            vectors = self.atlas.relation_set(cone).kernel_vectors
            rows = [vectors[j] for j in sorted(vectors)]
            self._cache[key] = float_array(
                [x for row in rows for x in row],
                (len(rows), self.triple.ray_count), self.parameter_sample,
                self._floats_seen)
        return self._cache[key]

    def membership(self, cone, box, tolerance, fault=None):
        key = (tuple(cone), box, tolerance, fault)
        if key not in self._memberships:
            self._memberships[key] = TieredMembership(
                _with_fault(self.group_exponents(cone), fault), box, tolerance)
        return self._memberships[key]


def _numeric_atlas(triple: FundamentalTriple, cfg: TrialConfig, numeric):
    """The caller's NumericAtlas, or a fresh one at cfg's parameter sample."""
    if numeric is not None:
        return numeric
    return NumericAtlas(triple, parameter_sample=cfg.parameter_sample)


def _with_fault(exponents, fault):
    """The exponent array, or a copy with entry (i, j) of fault shifted."""
    if fault is None:
        return exponents
    i, j, delta = fault
    exponents = exponents.copy()
    exponents[i, j] += delta
    return exponents


def _find(membership, theta):
    """(failure kind or None, residual) of one membership trial."""
    witness, residual = membership.find(theta)
    if witness is not None:
        return None, residual
    return ("search-exhausted" if residual > 1e-3 else "mismatch"), residual


def _rng(cfg: TrialConfig, check: str, target: tuple):
    flat = [cfg.seed, _CHECK_IDS[check]]
    for part in target:
        if isinstance(part, (tuple, list)):
            flat.extend(int(x) for x in part)
            flat.append(0)
        else:
            flat.append(int(part))
    return np.random.default_rng(np.random.SeedSequence(flat))


def _sample_log_points(rng, count):
    """Logarithmic coordinates of points with moduli in [0.5, 2]."""
    phases = rng.uniform(0.0, 1.0, count)
    moduli = rng.uniform(0.5, 2.0, count)
    return phases + 1j * (-np.log(moduli) / _TWO_PI)


def _positions(indices):
    return np.array([i - 1 for i in indices], dtype=int)


def check_branch_invariance(triple: FundamentalTriple, cone, cfg: TrialConfig,
                            numeric: Optional[NumericAtlas] = None,
                            fault=None) -> TrialReport:
    """Monomial classes are unchanged by integer logarithm-branch shifts."""
    cone = tuple(sorted(cone))
    numeric = _numeric_atlas(triple, cfg, numeric)
    others = [c for c in triple.fan.max_cones if c != cone]
    report = TrialReport(check="branch_invariance")
    rng = _rng(cfg, "branch_invariance", (cone,))
    membership = numeric.membership(cone, cfg.integer_box, cfg.tolerance)
    for trial in range(cfg.samples):
        if others:
            source = others[trial % len(others)]
            exponents = numeric.transition(source, cone)
        else:
            exponents = numeric.group_exponents(cone)
        exponents = _with_fault(exponents, fault)
        width = exponents.shape[1]
        w = _sample_log_points(rng, width)
        shifts = rng.integers(-cfg.word_length, cfg.word_length + 1, width)
        image_a = np.exp(1j * _TWO_PI * (exponents @ w))
        image_b = np.exp(1j * _TWO_PI * (exponents @ (w + shifts)))
        theta = np.mod(np.angle(image_b / image_a) / _TWO_PI, 1.0)
        report.record((cone,), trial, cfg.seed, *_find(membership, theta))
    return report


def _word_sample(rng, generator_count, word_length):
    coefficients = np.zeros(generator_count, dtype=np.int64)
    for _ in range(word_length):
        index = int(rng.integers(0, generator_count))
        coefficients[index] += 1 if rng.integers(0, 2) else -1
    return coefficients


def check_transition_equivariance(triple: FundamentalTriple, source, target,
                                  cfg: TrialConfig,
                                  numeric: Optional[NumericAtlas] = None,
                                  fault=None) -> TrialReport:
    """T(gamma z) and T(z) differ by an element of the target chart group."""
    source = tuple(sorted(source))
    target = tuple(sorted(target))
    numeric = _numeric_atlas(triple, cfg, numeric)
    exponents = _with_fault(numeric.transition(source, target), fault)
    source_group = numeric.group_exponents(source)
    membership = numeric.membership(target, cfg.integer_box, cfg.tolerance)
    report = TrialReport(check="transition_equivariance")
    rng = _rng(cfg, "transition_equivariance", (source, target))
    k = source_group.shape[1]
    for trial in range(cfg.samples):
        w = _sample_log_points(rng, len(source))
        z = np.exp(1j * _TWO_PI * w)
        m = _word_sample(rng, k, cfg.word_length)
        gamma = np.exp(1j * _TWO_PI * (source_group @ m))
        logs = np.log(z) / (1j * _TWO_PI)
        logs_shifted = np.log(gamma * z) / (1j * _TWO_PI)
        image = np.exp(1j * _TWO_PI * (exponents @ logs))
        image_shifted = np.exp(1j * _TWO_PI * (exponents @ logs_shifted))
        theta = np.mod(np.angle(image_shifted / image) / _TWO_PI, 1.0)
        report.record((source, target), trial, cfg.seed,
                      *_find(membership, theta))
    return report


def check_factorization(triple: FundamentalTriple, cone, cfg: TrialConfig,
                        numeric: Optional[NumericAtlas] = None,
                        fault=None) -> TrialReport:
    """Lattice-compatible translations split as chart-group times kernel.

    Draws X with pi(X) in the quasilattice, sets Y to the cone-supported
    solution of pi(Y) = pi(X); then X - Y must be killed by pi and exp(Y)
    must belong to the chart group.
    """
    cone = tuple(sorted(cone))
    numeric = _numeric_atlas(triple, cfg, numeric)
    rays = numeric.ray_matrix()
    cone_m = numeric.cone_matrix(cone)
    kernel = numeric.kernel_matrix(cone)
    membership = numeric.membership(cone, cfg.integer_box, cfg.tolerance,
                                    fault=fault)
    positions = _positions(cone)
    d = triple.ray_count
    report = TrialReport(check="factorization")
    rng = _rng(cfg, "factorization", (cone,))
    for trial in range(cfg.samples):
        integer_part = rng.integers(-2, 3, d).astype(float)
        kernel_part = (rng.uniform(-1.0, 1.0, kernel.shape[0]) @ kernel
                       if kernel.shape[0] else np.zeros(d))
        x = integer_part + kernel_part
        pi_x = rays @ x
        y_coords = np.linalg.solve(cone_m, pi_x)
        y = np.zeros(d)
        y[positions] = y_coords
        w = x - y
        residual_kernel = float(np.max(np.abs(rays @ w))) if d else 0.0
        kind, residual = _find(membership, np.mod(y_coords, 1.0))
        if residual_kernel >= cfg.tolerance:
            kind, residual = "mismatch", residual_kernel
        elif kind is None:
            residual = max(residual_kernel, residual)
        report.record((cone,), trial, cfg.seed, kind, residual)
    return report


def check_connecting_element(triple: FundamentalTriple, source, target,
                             cfg: TrialConfig,
                             numeric: Optional[NumericAtlas] = None,
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
    numeric = _numeric_atlas(triple, cfg, numeric)
    exponents = _with_fault(numeric.transition(source, target), fault)
    rays = numeric.ray_matrix()
    d = triple.ray_count
    source_positions = _positions(source)
    target_positions = _positions(target)
    extra = [j for j in source if j not in target]
    extra_cols = np.array([source.index(j) for j in extra], dtype=int)
    extra_positions = _positions(extra)
    rng = _rng(cfg, "connecting_element", (source, target))
    for trial in range(cfg.samples):
        w = _sample_log_points(rng, n)
        w_extra = w[extra_cols]
        log_element = np.zeros(d, dtype=complex)
        log_element[target_positions] += exponents[:, extra_cols] @ w_extra
        log_element[extra_positions] -= w_extra
        residual_kernel = float(np.max(np.abs(rays @ log_element)))
        representative = np.ones(d, dtype=complex)
        representative[source_positions] = np.exp(1j * _TWO_PI * w)
        moved = np.exp(1j * _TWO_PI * log_element) * representative
        expected = np.ones(d, dtype=complex)
        expected[target_positions] = np.exp(1j * _TWO_PI * (exponents @ w))
        scale = max(1.0, float(np.max(np.abs(expected))))
        residual_match = float(np.max(np.abs(moved - expected))) / scale
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
    for name, check, targets in (
            ("branch_invariance", check_branch_invariance, cones),
            ("transition_equivariance", check_transition_equivariance, pairs),
            ("factorization", check_factorization, cones),
            ("connecting_element", check_connecting_element, eligible)):
        for target, count in _distribute(cfg.samples, targets).items():
            if count:
                reports[name].merge(check(
                    triple, *target, replace(cfg, samples=count), numeric))
    return VerificationSummary(reports=reports)
