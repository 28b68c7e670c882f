"""Record the reference digests in perfbench/reference.json.

    python3 perfbench/record_reference.py

Run once, at the commit whose reports are the reference.  For every
benchmark input it renders the report the benchmark asks for, with seed 0
and, for the generated inputs, M = identity, and stores the digest of each
exact section together with the chart count N of its cocycle certificate
and whether the command gives a verification verdict.
The atlas section the input check compares against (no cocycle sweep) is
stored for the generated inputs as well.
"""

from __future__ import annotations

import io
import json
import os
import sys
from contextlib import redirect_stdout

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import gate  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402

# Chart count N of each input whose report carries a cocycle certificate.
CHARTS = {"quasisphere": 2, "cp2-11a": 3, "hirzebruch": 4, "kite": 4,
          "dodecahedron": 20, "polytope-60": None, "param-fan": 16}


def main():
    import quasifold.cli as cli
    from quasifold.atlas import Atlas
    from quasifold.documents import (atlas_section, document_to_triple,
                                     load_document)

    os.makedirs(run.OUT, exist_ok=True)
    entries = {}
    for workload in ("small-cli", "dodecahedron", "polytope-60", "param-fan"):
        path = None
        if workload in inputs.GENERATORS:
            doc = inputs.GENERATORS[workload]()
            path = os.path.join(run.OUT, f"{workload}-identity.json")
            with open(path, "w") as handle:
                json.dump(doc, handle, indent=1)
        for key, argv in run._jobs(workload, 0, path):
            fmt = "json" if "json" in argv else "text"
            out = io.StringIO()
            with redirect_stdout(out):
                code = cli.main(argv)
            if code != 0:
                raise SystemExit(f"{key}: exit code {code}")
            sections = gate.exact_sections(out.getvalue(), fmt)
            entries[key] = {
                "format": fmt,
                "charts": CHARTS[key],
                "verified": argv[0] in ("gallery", "verify"),
                "sections": {k: gate.digest(v) for k, v in sections.items()},
            }
            if path is not None:
                triple, _ = document_to_triple(load_document(doc))
                section = atlas_section(triple, Atlas.compile(triple),
                                        include_cocycle=False)
                entries[key]["precheck_atlas"] = gate.digest(section)
            print(key, code, entries[key], flush=True)
    meta = run.metadata()
    with open(gate.REFERENCE_PATH, "w") as handle:
        json.dump({"recorded_at": meta["git_revision"],
                   "src_sha256": meta["src_sha256"],
                   "inputs": entries}, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
