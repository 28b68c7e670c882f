"""Tests of the benchmark itself: input invariance, the gate, the tracer.

    python3 -m pytest perfbench/tests -q

The polytope-60 cases enumerate 60 vertices and compile a 60-chart atlas,
about 20 seconds apiece.
"""

from __future__ import annotations

import io
import json
import os
import sys
import time
from contextlib import redirect_stdout

import pytest

PERFBENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(os.path.dirname(PERFBENCH), "src"))
sys.path.insert(0, PERFBENCH)

import child  # noqa: E402
import gate  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from quasifold import cli  # noqa: E402
from quasifold.atlas import Atlas  # noqa: E402
from quasifold.documents import (atlas_section, document_to_triple,  # noqa: E402
                                 load_document)

REFERENCE = gate.load_reference()["inputs"]


def _report(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _write(tmp_path, doc):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("seed", [1, 2])
def test_unimodular_is_unimodular_and_seeded(seed):
    m = inputs.unimodular(seed)
    det = (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
           - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
           + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))
    assert abs(det) == 1
    assert m == inputs.unimodular(seed)
    assert inputs.param_fan(m) != inputs.param_fan()


@pytest.mark.parametrize("seed", [1, 2])
def test_param_fan_atlas_is_seed_invariant(seed):
    sections = []
    for matrix in (inputs.IDENTITY, inputs.unimodular(seed)):
        triple, _ = document_to_triple(load_document(inputs.param_fan(matrix)))
        sections.append(atlas_section(triple, Atlas.compile(triple)))
    assert sections[0] == sections[1]
    assert sections[1]["cocycle"]["triples_checked"] == 16 * 15 * 14


@pytest.mark.parametrize("workload", ["param-fan", "polytope-60"])
@pytest.mark.parametrize("seed", [1, 2])
def test_input_check_passes_for_seeded_inputs(tmp_path, workload, seed):
    doc = inputs.GENERATORS[workload](inputs.unimodular(seed))
    assert child.precheck(workload, _write(tmp_path, doc), seed) == []


def test_input_check_catches_a_changed_input(tmp_path):
    doc = inputs.param_fan(inputs.unimodular(1))
    doc["quasilattice"]["generators"][0][3] = "2*a"
    problems = child.precheck("param-fan", _write(tmp_path, doc), 1)
    assert "atlas section differs from the M = identity one" in problems


def _gate_run(key, code, text):
    bench = run.Run([], REFERENCE, cli, 0.0)
    bench.judge(key, code, text, None)
    return bench


def test_gate_accepts_a_right_text_report():
    code, text = _report(["gallery", "cp2-11a", "--seed", "5"])
    bench = _gate_run("cp2-11a", code, text)
    assert (bench.attempted, bench.wrong) == (1, [])


def test_gate_counts_a_flipped_exponent_in_a_text_report():
    code, text = _report(["gallery", "cp2-11a", "--seed", "5"])
    marker = "    group exponents ["
    at = text.index(marker) + len(marker)
    flipped = text[:at] + "-" + text[at:]
    bench = _gate_run("cp2-11a", code, flipped)
    assert bench.attempted == 1 and len(bench.wrong) == 1
    assert "section atlas differs from the reference" in bench.wrong[0][2]


@pytest.fixture(scope="module")
def param_fan_report(tmp_path_factory):
    path = tmp_path_factory.mktemp("pf") / "param-fan.json"
    path.write_text(json.dumps(inputs.param_fan(inputs.unimodular(3))))
    return _report(["atlas", str(path), "--format", "json", "--seed", "3"])


def test_gate_counts_a_flipped_exponent_in_a_json_report(param_fan_report):
    code, text = param_fan_report
    assert _gate_run("param-fan", code, text).wrong == []
    report = json.loads(text)
    row = report["atlas"]["transitions"][0]["exponents"][0]
    row[0] = "-(" + row[0] + ")"
    bench = _gate_run("param-fan", code, json.dumps(report))
    assert len(bench.wrong) == 1
    assert bench.wrong[0][2] == ["section atlas differs from the reference"]


def test_gate_counts_a_wrong_exit_code(param_fan_report):
    _, text = param_fan_report
    bench = _gate_run("param-fan", 1, text)
    assert bench.wrong[0][2] == ["exit code 1, expected 0"]
    bench = _gate_run("param-fan", None, "")
    assert len(bench.wrong) == 1


def test_gate_counts_a_changed_repetition(param_fan_report):
    code, text = param_fan_report
    bench = _gate_run("param-fan", code, text)
    bench.judge("param-fan", code, text.replace('"seed": 3', '"seed": 4'),
                 None)
    assert bench.attempted == 2
    assert bench.wrong[0][2] == ["report bytes differ from the first repetition"]


def test_gate_maps_a_seeded_polytope_report_back_to_the_identity(tmp_path):
    matrix = inputs.unimodular(1)
    path = _write(tmp_path, inputs.polytope60(matrix))
    code, text = _report(["polytope", path, "--format", "json", "--seed", "1"])
    expected = REFERENCE["polytope-60"]
    to_identity = inputs.polytope60_to_identity(matrix)
    assert gate.judge(expected, code, text, None, to_identity) == []
    differs = ["section polytope differs from the reference"]
    assert gate.judge(expected, code, text) == differs
    report = json.loads(text)
    vertex = report["polytope"]["vertex_table"][0]["vertex"]
    assert vertex[0] != vertex[1]
    vertex[0], vertex[1] = vertex[1], vertex[0]
    assert gate.judge(expected, code, json.dumps(report), None,
                      to_identity) == differs


def test_gate_counts_a_failed_or_missing_verification_verdict():
    code, text = _report(["gallery", "kite", "--seed", "5"])
    failed = text.replace("  overall: pass", "  overall: FAIL")
    missing = text[:text.index("\nverification\n")] + "\n"
    for report in (failed, missing):
        bench = _gate_run("kite", code, report)
        assert bench.wrong[0][2] == ["verification did not pass"]


def _traced(argv):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.begin_report()
        out = io.StringIO()
        with redirect_stdout(out):
            code = tracer.call("cli.main", "cli", cli.main, argv)
        record = tracer.end_report()
    finally:
        tracer.uninstall()
    return code, out.getvalue(), record


def test_tracing_changes_no_report_byte_and_counts_repeat():
    argv = ["gallery", "kite", "--format", "json", "--seed", "2"]
    plain = _report(argv)
    first = _traced(argv)
    second = _traced(argv)
    assert plain == first[:2] == second[:2]
    assert first[2]["counts"] == second[2]["counts"]
    assert _report(argv) == plain          # uninstall restored everything
    metrics = tracing.report_metrics(first[2])
    assert metrics["atlas.identities"] == 4 * 3 + 4 * 3 * 2
    assert metrics["verify.trials"] > 0
    assert set(metrics) | {"trace.overhead_s"} == set(tracing.per_layer_units())


def test_sampler_keeps_its_loops_out_of_the_clock():
    sampler = run.Sampler()
    with sampler:
        start, clock_start = time.perf_counter(), sampler.clock()
        while time.perf_counter() - start < 2 * run.SAMPLE_PERIOD_S:
            pass
        wall, clocked = time.perf_counter() - start, sampler.clock() - clock_start
    assert len(sampler.loops) >= 2
    assert abs(wall - clocked - sampler.spent) < 1e-3
    with sampler:                  # too short for the timer: one loop at exit
        pass
    assert sampler.scale() == run.CAL_LOOP_S / sampler.loops[-1]


def test_benchmark_json_names_every_metric():
    with open(os.path.join(os.path.dirname(PERFBENCH), "BENCHMARK.json")) as f:
        bench = json.load(f)
    assert [m["name"] for m in bench["per_layer"]] == list(
        tracing.per_layer_units())
    assert [w["name"] for w in bench["workloads"]] == list(run.NOMINAL_PASS_S)
    names = {m["name"] for m in bench["end_to_end"]}
    assert names == {"pass_s", "setup_s", "peak_rss_mb", "fail_frac"}
