"""The benchmark's tracer (perfbench/tracing.py) patches program names by
name: each one must exist, and a traced run must print the same bytes."""

import importlib.util
import io
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from quasifold import cli

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def report(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_tracer_patches_existing_names_and_changes_no_byte(tracing, fmt):
    argv = ["gallery", "kite", "--format", fmt]
    plain = report(argv)
    tracer = tracing.Tracer()
    # install() looks every name up in its owner's __dict__: a name the
    # program lost raises KeyError here
    tracer.install()
    try:
        patches = list(tracer._patches)
        assert all(getattr(owner, attr) is not original
                   for owner, attr, original in patches)
        tracer.begin_report()
        traced = report(argv)
        counts = tracer.end_report()["counts"]
    finally:
        tracer.uninstall()
    assert {"build_chart", "transition_map", "relations", "compile",
            "cocycle_check", "inverse", "__matmul__"} <= {
                attr for _, attr, _ in patches}
    assert all(owner.__dict__[attr] is original
               for owner, attr, original in patches)
    assert traced == plain
    assert report(argv) == plain
    # one wall-graph component: one chart built from an inverse, and the
    # transitions are rendered from chart tables, never built as maps
    assert counts["atlas.charts"] == 1
    assert counts.get("atlas.transitions", 0) == 0
