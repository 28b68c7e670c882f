"""Child processes of the benchmark, one mode each.

  child.py setup INPUT...            start-up, import and input parsing only
  child.py precheck WORKLOAD PATH SEED   check a generated input, print JSON
  child.py traced SIDECAR ARGV...    one traced ``quasifold`` CLI call

INPUT is a gallery name or the path of an input document.  Every mode puts
the checkout's ``src`` first on ``sys.path``.
"""

from __future__ import annotations

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def setup(inputs):
    """What a user pays before any work: import and load the inputs."""
    import json

    import jsonschema
    import quasifold.cli  # noqa: F401
    from quasifold.documents import load_document, load_input_schema
    from quasifold.gallery import load_gallery
    for item in inputs:
        if item.endswith(".json"):
            with open(item) as handle:
                data = json.load(handle)
            jsonschema.validate(data, load_input_schema())
            load_document(data, name=os.path.basename(item))
        else:
            load_gallery(item)


# Facet (or ray), vertex and cone counts of the generated inputs.
EXPECTED_COUNTS = {"polytope-60": (32, 60, 60), "param-fan": (10, 16, 16)}


def precheck(workload, path, seed):
    """Problems with a generated input, before it is timed.

    Checks the facet (or ray), vertex and cone counts, that validation
    passes with no probe gap or overlap, and that the atlas section
    (without the cocycle sweep) equals the one recorded for M = identity.
    """
    import json

    from quasifold.atlas import Atlas
    from quasifold.documents import (atlas_section, document_to_triple,
                                     load_document)
    from quasifold.triples import validate

    import gate
    with open(path) as handle:
        doc = load_document(json.load(handle))
    problems = []
    triple, fan_result = document_to_triple(doc)
    cones = len(triple.fan.max_cones)
    if fan_result is None:
        counts = (triple.ray_count, cones, cones)
    else:
        counts = (doc.polytope.facet_count, len(fan_result.vertices), cones)
    if counts != EXPECTED_COUNTS[workload]:
        problems.append(f"counts {counts}, expected {EXPECTED_COUNTS[workload]}")
    report = validate(triple, seed=seed)
    if not (report.passed and report.probe_ran and report.probe_gaps == 0
            and report.probe_overlaps == 0):
        problems.append(f"validation: passed={report.passed} "
                        f"gaps={report.probe_gaps} "
                        f"overlaps={report.probe_overlaps}")
    section = atlas_section(triple, Atlas.compile(triple),
                            include_cocycle=False)
    want = gate.load_reference()["inputs"][workload]["precheck_atlas"]
    if gate.digest(section) != want:
        problems.append("atlas section differs from the M = identity one")
    return problems


def traced(sidecar, argv):
    """Run the CLI once under the tracer; spans go to the sidecar file."""
    import io
    import json
    from contextlib import redirect_stdout

    start = time.perf_counter()
    import quasifold.cli as cli
    import_s = time.perf_counter() - start

    from tracing import Tracer
    tracer = Tracer()
    tracer.install()
    tracer.begin_report()
    out = io.StringIO()
    try:
        with redirect_stdout(out):
            code = tracer.call("cli.main", "cli", cli.main, argv)
    finally:
        tracer.uninstall()
        record = tracer.end_report()
        record["import_s"] = import_s
        with open(sidecar, "w") as handle:
            json.dump(record, handle)
    sys.stdout.write(out.getvalue())
    return code


def main(argv):
    sys.path.insert(0, SRC)
    mode, rest = argv[0], argv[1:]
    if mode == "setup":
        setup(rest)
        return 0
    if mode == "precheck":
        import json
        problems = precheck(rest[0], rest[1], int(rest[2]))
        print(json.dumps(problems))
        return 0
    if mode == "traced":
        return traced(rest[0], rest[1:])
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
