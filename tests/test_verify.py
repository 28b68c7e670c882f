import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasifold import (FundamentalTriple, GroupMembership, NumericAtlas,
                       TrialConfig, check_branch_invariance,
                       check_connecting_element, check_factorization,
                       check_transition_equivariance, document_to_triple,
                       load_document, verify_triple)
from quasifold import verify
from quasifold.triples import float_array, float_dot
from test_cli import param_fan_doc


def small_config(**overrides):
    defaults = dict(samples=25, seed=11, tolerance=1e-9)
    defaults.update(overrides)
    return TrialConfig(**defaults)


# ---------------------------------------------------------------------------
# membership search
# ---------------------------------------------------------------------------

def test_membership_finds_known_element():
    a = 1.41421356237309
    group = GroupMembership(np.array([[1.0 / a, 0.0]]), box=10, tolerance=1e-9)
    theta = np.mod(np.array([3.0 / a]), 1.0)
    witness, residual = group.find(theta)
    assert witness is not None
    assert residual < 1e-9
    # the witness must reproduce the phase
    assert abs((witness[0] / a - theta[0]) % 1.0) % 1.0 < 1e-9 or \
        abs(((witness[0] / a - theta[0]) % 1.0) - 1.0) < 1e-9


def test_membership_rejects_outsider():
    a = 1.41421356237309
    group = GroupMembership(np.array([[1.0 / a, 0.0]]), box=10, tolerance=1e-9)
    witness, residual = group.find(np.array([0.1234567890123]))
    assert witness is None
    assert residual > 1e-9


def test_membership_wraps_near_one():
    group = GroupMembership(np.array([[0.25]]), box=4, tolerance=1e-9)
    witness, residual = group.find(np.array([1.0 - 1e-12]))
    assert witness is not None
    assert residual < 1e-9


def test_membership_six_generators(gallery):
    _, triple, _ = gallery["dodecahedron"]
    numeric = NumericAtlas(triple)
    exponents = np.asarray(numeric.group_exponents((1, 2, 3)))
    membership = GroupMembership(exponents, box=10, tolerance=1e-9)
    rng = np.random.default_rng(5)
    for _ in range(20):
        m = rng.integers(-4, 5, 6)
        theta = np.mod(exponents @ m, 1.0)
        witness, residual = membership.find(theta)
        assert witness is not None and residual < 1e-9


# ---------------------------------------------------------------------------
# the four checks
# ---------------------------------------------------------------------------

def test_branch_invariance_passes(gallery):
    for name in ("quasisphere", "cp2-11a", "kite"):
        _, triple, _ = gallery[name]
        numeric = NumericAtlas(triple)
        for cone in triple.fan.max_cones:
            report = check_branch_invariance(triple, cone, small_config(),
                                             numeric=numeric)
            assert report.passed, (name, cone, report.failures)
            assert report.trials == 25
            assert report.max_deviation < 1e-9


def test_equivariance_passes(gallery):
    _, triple, _ = gallery["hirzebruch"]
    numeric = NumericAtlas(triple)
    for source in triple.fan.max_cones:
        for target in triple.fan.max_cones:
            if source == target:
                continue
            report = check_transition_equivariance(
                triple, source, target, small_config(), numeric=numeric)
            assert report.passed, (source, target, report.failures)


def test_factorization_passes(gallery):
    _, triple, _ = gallery["kite"]
    numeric = NumericAtlas(triple)
    for cone in triple.fan.max_cones:
        report = check_factorization(triple, cone, small_config(),
                                     numeric=numeric)
        assert report.passed


def test_kernel_rows_are_the_floats_of_the_exact_kernel_vectors(gallery):
    # the rows e_j - sum_t C[t, j] e_(cone_t), in increasing j, built in
    # floats from the float coordinate table, equal the floats of the exact
    # vectors to the last bit and the sign of every zero
    triples = {name: triple for name, (_, triple, _) in gallery.items()}
    triples["param-fan"] = document_to_triple(load_document(param_fan_doc()))[0]
    for name, triple in triples.items():
        domain, d = triple.domain, triple.ray_count
        numeric = NumericAtlas(triple)
        rays = numeric.ray_matrix()
        for cone in triple.fan.max_cones:
            table = numeric.atlas.chart(cone).coordinates
            exact = []
            for j in range(1, d + 1):
                if j not in cone:
                    vector = [domain.zero()] * d
                    vector[j - 1] = domain.one()
                    for t, i in enumerate(cone):
                        vector[i - 1] = -table[t, j - 1]
                    exact.append(vector)
            expected = float_array([x for v in exact for x in v],
                                   (len(exact), d), None)
            rows = numeric.kernel_matrix(cone)
            assert rows == expected, (name, cone)
            assert [[math.copysign(1.0, x) for x in row] for row in rows] == \
                [[math.copysign(1.0, x) for x in row] for row in expected]
            for row in rows:
                assert max(abs(float_dot(r, row)) for r in rays) < 1e-9


def test_connecting_element_passes_and_skips(gallery):
    _, triple, _ = gallery["kite"]
    numeric = NumericAtlas(triple)
    report = check_connecting_element(triple, (1, 4), (2, 4), small_config(),
                                      numeric=numeric)
    assert report.passed and report.trials == 25
    # disjoint index sets fall outside the overlap hypothesis
    report = check_connecting_element(triple, (1, 4), (2, 3), small_config(),
                                      numeric=numeric)
    assert report.trials == 0
    assert report.skipped == (((1, 4), (2, 3), 2),)


def test_quasisphere_skips_all_connecting(gallery):
    _, triple, _ = gallery["quasisphere"]
    summary = verify_triple(triple, small_config())
    assert summary.passed
    report = summary.reports["connecting_element"]
    assert report.trials == 0
    assert len(report.skipped) == 2


def test_verify_triple_distributes_trials(gallery):
    _, triple, _ = gallery["cp2-11a"]
    summary = verify_triple(triple, small_config(samples=100))
    for name in ("branch_invariance", "transition_equivariance",
                 "factorization", "connecting_element"):
        assert summary.reports[name].trials == 100


def test_verify_deterministic(gallery):
    _, triple, _ = gallery["cp2-11a"]
    first = verify_triple(triple, small_config())
    second = verify_triple(triple, small_config())
    for name in first.reports:
        assert first.reports[name].max_deviation == \
            second.reports[name].max_deviation
        assert first.reports[name].failures == second.reports[name].failures


def test_tight_tolerance_still_passes(gallery):
    # the residuals are sums of a few float products of moderate size, so
    # a 1e-12 tolerance still verifies cleanly
    for name in ("cp2-11a", "kite"):
        _, triple, _ = gallery[name]
        summary = verify_triple(triple, small_config(tolerance=1e-12))
        assert summary.passed, name


# ---------------------------------------------------------------------------
# trivial cases
# ---------------------------------------------------------------------------

def test_zero_branch_shift_is_identity(gallery):
    # with all shifts zero the two images coincide and the zero witness works
    _, triple, _ = gallery["cp2-11a"]
    numeric = NumericAtlas(triple)
    exponents = np.asarray(numeric.transition((2, 3), (1, 3)))
    w = np.array([0.3 + 0.05j, 0.7 - 0.02j])
    image_a = np.exp(2j * np.pi * (exponents @ w))
    image_b = np.exp(2j * np.pi * (exponents @ (w + np.zeros(2))))
    assert np.array_equal(image_a, image_b)
    membership = GroupMembership(numeric.group_exponents((1, 3)), box=10,
                                 tolerance=1e-9)
    witness, residual = membership.find(np.zeros(2))
    assert witness is not None and residual < 1e-12


def test_identity_group_element_is_trivial(gallery):
    # gamma = identity leaves T(z) unchanged, so the ratio is all ones
    _, triple, _ = gallery["hirzebruch"]
    numeric = NumericAtlas(triple)
    exponents = np.asarray(numeric.transition((2, 3), (1, 3)))
    z = np.exp(2j * np.pi * np.array([0.21 + 0.04j, 0.68 - 0.03j]))
    logs = np.log(z) / (2j * np.pi)
    ratio = np.exp(2j * np.pi * (exponents @ (logs - logs)))
    assert np.max(np.abs(ratio - 1.0)) == 0.0


# ---------------------------------------------------------------------------
# direct complex-evaluation oracles
# ---------------------------------------------------------------------------

def test_equivariance_direct_oracle(gallery):
    # for the weighted projective pair, acting by (1, e^{2 pi i a}) on the
    # source only multiplies the second image slot by the same factor, so
    # the ratio is again (1, e^{2 pi i a}) and lies in the target group
    _, triple, _ = gallery["cp2-11a"]
    numeric = NumericAtlas(triple)
    a = float(numeric.parameter_sample)
    exponents = np.asarray(numeric.transition((2, 3), (1, 3)))
    rng = np.random.default_rng(3)
    z = np.exp(2j * np.pi * (rng.uniform(0, 1, 2) + 0.03j))
    gamma = np.array([1.0, np.exp(2j * np.pi * a)])
    logs = np.log(z) / (2j * np.pi)
    logs_shifted = np.log(gamma * z) / (2j * np.pi)
    ratio = np.exp(2j * np.pi * (exponents @ (logs_shifted - logs)))
    assert abs(ratio[0] - 1.0) < 1e-9
    assert abs(ratio[1] - np.exp(2j * np.pi * a)) < 1e-9
    membership = GroupMembership(numeric.group_exponents((1, 3)), box=10,
                                 tolerance=1e-9)
    theta = np.mod(np.angle(ratio) / (2 * np.pi), 1.0)
    witness, residual = membership.find(theta)
    assert witness is not None and residual < 1e-9


def test_factorization_direct_oracle(gallery):
    # quasisphere, cone {1}: X = e_1 has pi(X) = a, whose cone-supported
    # preimage is e_1 itself, so the kernel part vanishes
    _, triple, _ = gallery["quasisphere"]
    numeric = NumericAtlas(triple)
    rays = np.asarray(numeric.ray_matrix())
    x = np.array([1.0, 0.0])
    pi_x = rays @ x
    cone = triple.cone_matrix((1,))
    y = np.linalg.solve(np.asarray(float_array(
        cone.entries, (cone.rows, cone.cols), numeric.parameter_sample)),
        pi_x)
    assert abs(y[0] - 1.0) < 1e-12
    w = x - np.array([y[0], 0.0])
    assert np.max(np.abs(rays @ w)) < 1e-12
    membership = GroupMembership(numeric.group_exponents((1,)), box=10,
                                 tolerance=1e-9)
    witness, residual = membership.find(np.mod(y, 1.0))
    assert witness is not None and residual < 1e-9


# ---------------------------------------------------------------------------
# fault injection
# ---------------------------------------------------------------------------

def test_branch_invariance_detects_fault(gallery):
    _, triple, _ = gallery["cp2-11a"]
    numeric = NumericAtlas(triple)
    report = check_branch_invariance(triple, (1, 3),
                                     small_config(samples=100),
                                     numeric=numeric, fault=(1, 0, 1e-3))
    assert not report.passed


def test_equivariance_detects_fault(gallery):
    # the fault must sit on a coordinate the source group actually moves:
    # the group of chart {2,3} fixes the first coordinate, so perturb the
    # column of z3, whose phases are generic
    _, triple, _ = gallery["cp2-11a"]
    numeric = NumericAtlas(triple)
    report = check_transition_equivariance(triple, (2, 3), (1, 3),
                                           small_config(samples=100),
                                           numeric=numeric,
                                           fault=(0, 1, 1e-3))
    assert not report.passed


def test_factorization_detects_fault(gallery):
    # perturb the load-bearing group exponent of chart {1,3}; perturbing a
    # zero or redundant column only enlarges the searched group into a
    # supergroup of the true one, which membership trials cannot see
    _, triple, _ = gallery["cp2-11a"]
    numeric = NumericAtlas(triple)
    report = check_factorization(triple, (1, 3), small_config(samples=100),
                                 numeric=numeric, fault=(1, 2, 1e-3))
    assert not report.passed


def test_connecting_element_detects_fault(gallery):
    _, triple, _ = gallery["cp2-11a"]
    numeric = NumericAtlas(triple)
    report = check_connecting_element(triple, (2, 3), (1, 3),
                                      small_config(samples=100),
                                      numeric=numeric, fault=(1, 1, 1e-3))
    assert not report.passed


def test_gross_and_fine_faults_fail_as_mismatch(gallery):
    # the witness is derived, not searched for, so a gross fault and a
    # barely-off exponent fail the same way, each with its own residual
    _, triple, _ = gallery["cp2-11a"]
    numeric = NumericAtlas(triple)
    cfg = small_config(samples=50)
    for delta in (0.11, 1e-7):
        report = check_branch_invariance(triple, (1, 3), cfg, numeric=numeric,
                                         fault=(1, 0, delta))
        assert report.failures, delta
        assert {f.kind for f in report.failures} == {"mismatch"}
        assert all(f.residual >= cfg.tolerance for f in report.failures)


# ---------------------------------------------------------------------------
# logarithmic coordinates and the rounding bound
# ---------------------------------------------------------------------------

_unit = st.floats(0.0, 1.0, exclude_max=True)


@settings(max_examples=300)
@given(data=st.data(), n=st.integers(1, 3))
def test_log_phase_shift_equals_the_exp_route(data, n):
    # Re(E w' - E w) mod 1, in real arithmetic, is the phase of
    # exp(2 pi i E w') / exp(2 pi i E w) for monomials with |E| <= 1e3 at
    # points with phases in [0, 1) and moduli in [0.5, 2] (w' moves only
    # the phases, as a branch shift or a group element does)
    entry = st.floats(-1e3 / n, 1e3 / n, allow_nan=False)
    exponents = [data.draw(st.lists(entry, min_size=n, max_size=n))
                 for _ in range(data.draw(st.integers(1, 3)))]
    before = data.draw(st.lists(_unit, min_size=n, max_size=n))
    after = data.draw(st.lists(_unit, min_size=n, max_size=n))
    moduli = data.draw(st.lists(st.floats(-math.log(2) / (2 * math.pi),
                                          math.log(2) / (2 * math.pi)),
                                min_size=n, max_size=n))
    logs = verify._phase_differences(exponents, before, after)
    for row, shift in zip(exponents, logs):
        z, z_moved = (cmath.exp(2j * math.pi * sum(
            e * complex(x, y) for e, x, y in zip(row, phases, moduli)))
            for phases in (before, after))
        phase = cmath.phase(z_moved / z) / (2 * math.pi)
        assert abs((shift - phase + 0.5) % 1.0 - 0.5) < 1e-12


def test_rounding_bound_refuses_before_any_draw(gallery, monkeypatch):
    _, triple, _ = gallery["cp2-11a"]

    def no_draw(*args):
        raise AssertionError("a check drew before the refusal")
    monkeypatch.setattr(verify, "_rng", no_draw)
    for value in ("1e5", "1e-5", "1e300"):
        with pytest.raises(ValueError, match="^the numeric checks cannot run "
                           "in floating point at a = .*, more than half the "
                           "tolerance 1e-09$"):
            verify_triple(triple, small_config(
                parameter_sample=Fraction(value)))


def test_rounding_bound_covers_the_gallery(gallery, gallery_atlases):
    # at the default samples every entry verifies far inside its bound
    for name, (_, triple, _) in gallery.items():
        numeric = NumericAtlas(triple, atlas=gallery_atlases[name])
        bound, largest = verify._rounding_bound(triple, numeric, TrialConfig())
        assert bound < 1e-12, name
        summary = verify_triple(triple, TrialConfig(),
                                atlas=gallery_atlases[name])
        assert all(r.max_deviation <= bound
                   for r in summary.reports.values()), name


# ---------------------------------------------------------------------------
# closed-form witnesses
# ---------------------------------------------------------------------------

def test_missing_witness_is_refused(d1_document):
    triple, _ = document_to_triple(load_document(d1_document))
    stripped = FundamentalTriple(triple.fan, triple.lattice,
                                 [triple.witnesses[0], None])
    with pytest.raises(ValueError, match="ray 2"):
        verify_triple(stripped, small_config())


def test_gallery_deviations_at_rounding_level(gallery, gallery_atlases):
    # every draw of seeds 0-9 stays within 1e-12 on all five entries
    for name, (_, triple, _) in gallery.items():
        for seed in range(10):
            summary = verify_triple(triple, TrialConfig(seed=seed),
                                    atlas=gallery_atlases[name])
            assert summary.passed, (name, seed)
            for check, report in summary.reports.items():
                assert report.max_deviation < 1e-12, (name, seed, check)
