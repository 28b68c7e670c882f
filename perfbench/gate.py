"""Correctness gate: judge one report against the input's known answer.

Every benchmark input is a valid fundamental triple, so the known answer is
the same for all of them: exit code 0, no traceback, validation passed,
a cocycle certificate over N charts with N(N-1) pair and N(N-1)(N-2)
triangle identities and no violation, and verification passed.  The exact
sections (validation, polytope, atlas) must also hash to the reference
recorded at the seed commit, which for the generated inputs is the run
with M = identity; a section that depends on M is first mapped back to
M = identity.  The verification section is judged by its verdict only, so
fixing a false verification failure never counts as a failure.

A report that fails any of these is wrong.  It is still timed and
counted, never retried or dropped.
"""

from __future__ import annotations

import hashlib
import json
import os
import re

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

EXACT_SECTIONS = ("validation", "polytope", "atlas")

_COCYCLE = re.compile(r"^  cocycle: (\d+) pair identities, (\d+) triangle "
                      r"identities, (\d+) violations$", re.M)


def load_reference():
    with open(REFERENCE_PATH) as handle:
        return json.load(handle)


def digest(value):
    """SHA-256 of a section: canonical JSON for dicts, the text for str."""
    if not isinstance(value, str):
        value = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(value.encode()).hexdigest()


def text_sections(text):
    """Blocks of a text report keyed by their title line."""
    sections = {}
    for block in text.strip("\n").split("\n\n")[1:]:
        title = block.split("\n", 1)[0]
        sections[title] = block
    return sections


def exact_sections(text, fmt):
    """The exact sections of a rendered report, as {name: value}."""
    if fmt == "json":
        report = json.loads(text)
        return {k: report[k] for k in EXACT_SECTIONS if k in report}
    blocks = text_sections(text)
    return {k: blocks[k] for k in EXACT_SECTIONS if k in blocks}


def _check_json(report, charts, verified):
    problems = []
    if not report.get("validation", {}).get("passed"):
        problems.append("validation did not pass")
    if charts is not None:
        cocycle = report.get("atlas", {}).get("cocycle")
        problems += _check_cocycle(
            cocycle and (cocycle["pairs_checked"], cocycle["triples_checked"],
                         len(cocycle["violations"])), charts)
    if verified and not report.get("verification", {}).get("passed"):
        problems.append("verification did not pass")
    return problems


def _check_text(text, charts, verified):
    problems = []
    blocks = text_sections(text)
    validation = blocks.get("validation", "")
    for label in ("simplicial", "quasirational", "face condition"):
        if f"  {label}: pass" not in validation:
            problems.append(f"validation: {label} did not pass")
    if charts is not None:
        match = _COCYCLE.search(blocks.get("atlas", ""))
        problems += _check_cocycle(
            match and tuple(int(g) for g in match.groups()), charts)
    if verified and "  overall: pass" not in blocks.get("verification", ""):
        problems.append("verification did not pass")
    return problems


def _check_cocycle(found, charts):
    expected = (charts * (charts - 1), charts * (charts - 1) * (charts - 2), 0)
    if found is None:
        return ["no cocycle certificate"]
    if tuple(found) != expected:
        return [f"cocycle (pairs, triangles, violations) {tuple(found)}, "
                f"expected {expected}"]
    return []


def judge(expected, exit_code, text, error=None, to_identity=None):
    """Problems with one report; an empty list means the report is right.

    ``expected`` is the input's reference entry: its format, the chart
    count N when the report carries a cocycle certificate (else null),
    whether it carries a verification verdict, and the digests of its
    exact sections.  ``to_identity``, if given, maps the report's exact
    sections to those of the M = identity input before they are hashed.
    """
    problems = []
    if error is not None:
        problems.append(f"raised {error}")
    if exit_code != 0:
        problems.append(f"exit code {exit_code}, expected 0")
    if error is not None or not text:
        return problems or ["empty report"]
    fmt = expected["format"]
    try:
        sections = exact_sections(text, fmt)
        if to_identity is not None:
            sections = to_identity(sections)
        if fmt == "json":
            problems += _check_json(json.loads(text), expected["charts"],
                                    expected["verified"])
        else:
            problems += _check_text(text, expected["charts"],
                                    expected["verified"])
    except (ValueError, KeyError, TypeError) as exc:
        return problems + [f"unreadable report: {exc!r}"]
    for name, want in expected["sections"].items():
        if name not in sections:
            problems.append(f"section {name} missing")
        elif digest(sections[name]) != want:
            problems.append(f"section {name} differs from the reference")
    for name in sections:
        if name not in expected["sections"]:
            problems.append(f"unexpected section {name}")
    return problems
