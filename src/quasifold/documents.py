"""Input documents and report assembly.

An input document declares a scalar domain, a quasilattice, and either a
fan (rays + witnesses + maximal cones) or a polytope in facet form, all
scalars written in the shared expression grammar; ``schema_violation``
checks a document against ``schemas/input.schema.json`` and words a
refusal itself.  Reports collect the validation, polytope, atlas,
transition and verification sections in a deterministic JSON-friendly
form.  ``render_json_report`` writes a report as the bytes
``json.dumps(report, indent=2, sort_keys=True)`` returns, in one pass;
the text rendering is a stable flat view of the same data.  A chart
change is the join of its target chart's term texts (``Atlas.terms``, read
once per chart for the atlas section) at the source cone's columns, and
``_chart_change`` decides its columns, h and scope: ``transition_section``
joins it as a dict, for the ``transition`` command and for each entry of
an atlas section's ``Transitions`` table, and ``render_json_report``
joins it as JSON text from each target chart's escaped texts.  Its text
rendering is ``_transition_lines``.  Group exponent and relation rows are
the texts of each chart's payloads.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import re
import sys
from collections import namedtuple
from decimal import Context, Decimal, Inexact
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from .atlas import (Atlas, cocycle_check, fixed_point, orbit_report,
                    render_terms)
from .linalg import Matrix
from .polytopes import Polytope, to_triple
from .scalars import (IndeterminateSignError, NumberFieldDomain,
                      RationalDomain, RationalFunctionDomain, require_readable,
                      require_writable, sample_text)
from .triples import (Fan, FundamentalTriple, Quasilattice,
                      with_recovered_witnesses)
from .verify import VerificationSummary

# the version in pyproject.toml; a test keeps the two equal
TOOL_VERSION = "0.1.0"

__all__ = [
    "InputDocument",
    "InputError",
    "TOOL_VERSION",
    "build_report",
    "document_to_triple",
    "load_document",
    "load_input_schema",
    "load_report_schema",
    "render_json_report",
    "render_text_report",
    "schema_violation",
    "specialize_document",
]


class InputError(ValueError):
    """Malformed input document; message carries the JSON path context."""


def _schema(name):
    return json.loads(__loader__.get_data(
        os.path.join(os.path.dirname(__file__), "schemas", name)))


def load_input_schema():
    return _schema("input.schema.json")


def load_report_schema():
    return _schema("report.schema.json")


_TYPES = {"object": dict, "array": list, "string": str, "null": type(None),
          "boolean": bool, "number": (int, float), "integer": int}


def _has_type(value, name):
    """Draft-07 ``type``, a name or a list of names: a bool is no number,
    an integral float is an integer."""
    if isinstance(name, list):
        return any(_has_type(value, each) for each in name)
    if isinstance(value, bool):
        return name == "boolean"
    return (isinstance(value, _TYPES[name])
            or name == "integer" and isinstance(value, float) and value.is_integer())


_ANNOTATIONS = frozenset({"$schema", "$id", "title", "description", "definitions"})
# keyword -> violated(argument, value) for the keywords without subschemas;
# a keyword constrains only the values of its own JSON type, as in draft 07
_VIOLATED = {
    "type": lambda names, v: not _has_type(v, names),
    # pairing each value with whether it is a bool keeps true apart from 1,
    # as draft 07 does, and 1.0 still equals 1
    "enum": lambda options, v: (v, isinstance(v, bool)) not in [
        (x, isinstance(x, bool)) for x in options],
    "minItems": lambda n, v: isinstance(v, list) and len(v) < n,
    "pattern": lambda regex, v: isinstance(v, str) and re.search(regex, v) is None,
    "minimum": lambda bound, v: _has_type(v, "number") and v < bound,
    "exclusiveMinimum": lambda bound, v: _has_type(v, "number") and v <= bound,
}
# keyword -> its message from (argument, value text), worded as the tests'
# reference validator (release 4.26.0) words it; a required violation's
# argument is the missing key, a oneOf's the branches that fit (or None)
_WORDS = {
    "type": lambda names, v: f"{v} is not of type " + ", ".join(
        map(repr, [names] if isinstance(names, str) else names)),
    "enum": lambda options, v: f"{v} is not one of {options!r}",
    "minItems": lambda n, v: f"{v} " + ("should be non-empty" if n == 1
                                       else "is too short"),
    "pattern": lambda regex, v: f"{v} does not match {regex!r}",
    "minimum": lambda bound, v: f"{v} is less than the minimum of {bound!r}",
    "exclusiveMinimum": lambda bound, v: (
        f"{v} is less than or equal to the minimum of {bound!r}"),
    "required": lambda key, v: f"{key!r} is a required property",
    "not": lambda sub, v: f"{v} should not be valid under {sub!r}",
    "oneOf": lambda fits, v: (
        f"{v} is not valid under any of the given schemas" if fits is None
        else f"{v} is valid under each of " + ", ".join(map(repr, fits))),
}


def _relevance(violation):
    """The reference validator's relevance, larger for the shallower path,
    then the later one, then a keyword other than ``oneOf``, then a node
    whose ``type`` the value lacks (its "strong" term is always false)."""
    path, keyword, _, value, node, _ = violation
    return (-len(path), path, keyword != "oneOf",
            "type" not in node or not _has_type(value, node["type"]))


def schema_violation(schema, instance):
    """None if instance is valid against schema, with draft-07 semantics;
    else the (path, message) of the error that the tests' reference
    validator picks as its best match, in its words (release 4.26.0), the
    path a tuple of keys and indices; a value whose text passes
    ``sys.get_int_max_str_digits()`` characters is cut there and followed
    by its length.

    Interprets exactly the keywords that input.schema.json uses: those of
    ``_VIOLATED`` and ``_WORDS``, local ``$ref`` (whose sibling keywords
    draft 07 ignores) and the annotations; any other raises LookupError,
    so an edit to the schema cannot go unchecked.  The walk records each
    violation, in the schema's keyword order, as (path, keyword, argument,
    value, node, a failed ``oneOf``'s branch violations), and words only
    the one it returns: the most relevant, the first of equals, where a
    failed ``oneOf`` gives way to its least relevant branch violation
    unless the two least relevant tie.  Tests hold verdict and words to
    the reference.
    """
    def walk(node, value, path, out):
        if "$ref" in node:
            target = schema
            for part in node["$ref"].removeprefix("#/").split("/"):
                target = target[part]
            return walk(target, value, path, out)
        for keyword, argument in node.items():
            if keyword in _VIOLATED:
                if _VIOLATED[keyword](argument, value):
                    out.append((path, keyword, argument, value, node, ()))
            elif keyword == "properties":
                if isinstance(value, dict):
                    for key, sub in argument.items():
                        if key in value:
                            walk(sub, value[key], path + (key,), out)
            elif keyword == "items":
                if isinstance(value, list):
                    for i, item in enumerate(value):
                        walk(argument, item, path + (i,), out)
            elif keyword == "required":
                if isinstance(value, dict):
                    out.extend((path, keyword, key, value, node, ())
                               for key in argument if key not in value)
            elif keyword == "oneOf":
                found = [walk(sub, value, path, []) for sub in argument]
                fits = [sub for sub, errors in zip(argument, found) if not errors]
                if not fits:
                    out.append((path, keyword, None, value, node, sum(found, [])))
                elif len(fits) > 1:   # worded with the first fit last
                    out.append((path, keyword, fits[1:] + fits[:1], value, node, ()))
            elif keyword == "not":
                if not walk(argument, value, path, []):
                    out.append((path, keyword, argument, value, node, ()))
            elif keyword not in _ANNOTATIONS:
                raise LookupError(f"schema keyword {keyword!r} is not interpreted")
        return out

    violations = walk(schema, instance, (), [])
    if not violations:
        return None
    best = max(violations, key=_relevance)
    while best[5]:
        first, *rest = sorted(best[5], key=_relevance)
        if rest and _relevance(rest[0]) == _relevance(first):
            break
        best = first
    path, keyword, argument, value, _, _ = best
    text, limit = repr(value), sys.get_int_max_str_digits()
    if limit and len(text) > limit:
        text = f"{text[:limit]}... ({len(text)} characters)"
    return path, _WORDS[keyword](argument, text)


# ---------------------------------------------------------------------------
# input documents
# ---------------------------------------------------------------------------

class InputDocument(namedtuple("InputDocument", "domain lattice fan polytope "
                               "witnesses options name")):
    """A parsed document: a fan or a polytope over a quasilattice."""

    __slots__ = ()

    def __new__(cls, domain, lattice, fan=None, polytope=None, witnesses=None,
                options=None, name=None):
        return super().__new__(cls, domain, lattice, fan, polytope, witnesses,
                               {} if options is None else options, name)


def decimal_text(value, path):
    """The text of a decimal field's value (None if absent), refused by the
    field's path if it is a JSON number with no finite value (1e400, NaN)."""
    if isinstance(value, float) and not math.isfinite(value):
        raise InputError(f"{path}: the JSON number {value} is not finite")
    return None if value is None else str(value)


def _parse_domain(data, path="domain"):
    kind = data.get("kind")
    for key, value in data.items():
        require_readable(str(value), f"{path}.{key}")
    if kind == "rational":
        return RationalDomain()
    if kind == "number_field":
        for key in ("min_poly", "generator_symbol", "embedding_approx"):
            if key not in data:
                raise InputError(f"{path}: number_field domain needs {key}")
        return NumberFieldDomain(
            [str(c) for c in data["min_poly"]],
            data["generator_symbol"],
            decimal_text(data["embedding_approx"], f"{path}.embedding_approx"))
    if kind == "rational_function":
        if "generator_symbol" not in data:
            raise InputError(f"{path}: rational_function domain needs generator_symbol")
        return RationalFunctionDomain(
            data["generator_symbol"],
            parameter_positivity=data.get("parameter_positivity", True),
            default_sample=decimal_text(data.get("default_sample"),
                                        f"{path}.default_sample"))
    raise InputError(f"{path}: unknown domain kind {kind!r}")


def _parse_scalar_at(domain, text, path):
    try:
        return domain.scalar(str(text))
    except Exception as exc:
        require_readable(str(text), path)
        raise InputError(f"{path}: {exc}") from exc


def load_document(data, name=None) -> InputDocument:
    """Build an InputDocument from parsed JSON data."""
    if not isinstance(data, dict):
        raise InputError("input document must be a JSON object")
    if ("fan" in data) == ("polytope" in data):
        raise InputError("exactly one of 'fan' or 'polytope' must be present")
    domain = _parse_domain(data.get("domain", {}))
    lattice_data = data.get("quasilattice", {})
    generator_rows = lattice_data.get("generators")
    if not generator_rows:
        raise InputError("quasilattice.generators is required")
    rows = [[_parse_scalar_at(domain, x, f"quasilattice.generators[{i}][{j}]")
             for j, x in enumerate(row)]
            for i, row in enumerate(generator_rows)]
    try:
        lattice = Quasilattice(domain, Matrix.from_rows(domain, rows))
    except ValueError as exc:
        raise InputError(f"quasilattice: {exc}") from exc

    witnesses = data.get("witnesses")
    if witnesses is not None:
        witnesses = tuple(None if w is None else tuple(int(c) for c in w)
                          for w in witnesses)

    fan = polytope = None
    if "fan" in data:
        fan_data = data["fan"]
        rays = [[_parse_scalar_at(domain, x, f"fan.rays[{i}][{j}]")
                 for j, x in enumerate(ray)]
                for i, ray in enumerate(fan_data.get("rays", []))]
        if not rays:
            raise InputError("fan.rays is required")
        try:
            fan = Fan(dim=len(rays[0]), rays=rays,
                      max_cones=fan_data.get("max_cones", []))
        except ValueError as exc:
            raise InputError(f"fan: {exc}") from exc
    else:
        facet_rows = []
        for i, facet in enumerate(data["polytope"].get("facets", [])):
            normal = [_parse_scalar_at(domain, x, f"polytope.facets[{i}].normal[{j}]")
                      for j, x in enumerate(facet.get("normal", []))]
            offset = _parse_scalar_at(domain, facet.get("offset", "0"),
                                      f"polytope.facets[{i}].offset")
            facet_rows.append((normal, offset))
        if not facet_rows:
            raise InputError("polytope.facets is required")
        try:
            polytope = Polytope.from_strings(domain, facet_rows)
        except ValueError as exc:
            raise InputError(f"polytope: {exc}") from exc

    return InputDocument(domain=domain, lattice=lattice, fan=fan,
                         polytope=polytope, witnesses=witnesses,
                         options=dict(data.get("options", {})),
                         name=name or data.get("name"))


def document_to_triple(doc: InputDocument):
    """Assemble the fundamental triple; returns (triple, normal_fan_result).

    Missing ray witnesses are recovered by an exact integer solve.
    """
    if doc.fan is not None:
        triple = FundamentalTriple(doc.fan, doc.lattice, doc.witnesses)
        return with_recovered_witnesses(triple), None
    return to_triple(doc.polytope, doc.lattice, doc.witnesses)


def specialize_document(doc: InputDocument, value) -> InputDocument:
    """Exact substitution of the parameter, in the rational domain; refuses
    a value or a substituted entry with more digits than Python converts
    to text (``sys.get_int_max_str_digits()``)."""
    if doc.domain.kind != "rational_function":
        raise InputError("only parameter-field documents can be specialized")
    value = Fraction(value if isinstance(value, (int, Fraction)) else
                     str(value))   # a float stands for its shortest text
    require_writable(value, "--substitute: value")
    source = doc.domain
    target = RationalDomain()
    entry = (f"--substitute: at {source.generator_symbol} = "
             f"{sample_text(value)}, the entry")

    def convert(scalar):
        converted = source.substitute(scalar, value, target)
        require_writable(converted.payload, entry)
        return converted

    generators = Matrix(
        target, doc.lattice.generators.rows, doc.lattice.generators.cols,
        [convert(e) for e in doc.lattice.generators.entries])
    lattice = Quasilattice(target, generators)
    fan = polytope = None
    if doc.fan is not None:
        fan = Fan(doc.fan.dim,
                  [[convert(x) for x in ray] for ray in doc.fan.rays],
                  doc.fan.max_cones)
    else:
        from .polytopes import Facet
        facets = [Facet(tuple(convert(x) for x in f.normal), convert(f.offset))
                  for f in doc.polytope.facets]
        polytope = Polytope(target, facets)
    suffix = f"{doc.domain.generator_symbol}={value}"
    return InputDocument(domain=target, lattice=lattice, fan=fan,
                         polytope=polytope, witnesses=doc.witnesses,
                         options=dict(doc.options),
                         name=f"{doc.name}[{suffix}]" if doc.name else None)


# ---------------------------------------------------------------------------
# report assembly
# ---------------------------------------------------------------------------

def _fixed_point_text(pattern):
    return "[" + ":".join(str(x) for x in pattern) + "]"


def _vector_text(vector):
    return [x.text() for x in vector]


def _combination_text(domain, coefficients, labels):
    """Render sum of c_i * X_{label_i} (payloads c_i), signs joined."""
    pieces = []
    for c, label in zip(coefficients, labels):
        if not c:
            continue
        try:
            negative = domain.sign_of(c) < 0
        except IndeterminateSignError:
            negative = False
        # canonical text is unique, so "1" is the text of one alone
        text = domain.text_of(domain._neg(c) if negative else c)
        if text == "1":
            body = f"X{label}"
        else:
            composite = not (text.isdigit() or text.isalpha())
            body = f"({text})*X{label}" if composite else f"{text}*X{label}"
        if not pieces:
            pieces.append(("-" if negative else "") + body)
        else:
            pieces.append((" - " if negative else " + ") + body)
    return "".join(pieces) if pieces else "0"


def validation_section(report):
    return {
        "passed": report.passed,
        "simplicial": {
            "passed": report.simplicial,
            "failures": [list(c) for c in report.simplicial_failures],
        },
        "quasirational": {
            "passed": report.quasirational,
            "failures": [[j, reason] for j, reason in report.witness_failures],
        },
        "face_condition": {
            "passed": report.face_condition,
            "pairs_checked": report.face_pairs_checked,
        },
        "support_probe": {
            "ran": report.probe_ran,
            "directions": report.probe_directions,
            "gaps": report.probe_gaps,
            "overlaps": report.probe_overlaps,
            "note": report.probe_note,
        },
    }


def polytope_section(doc: InputDocument, fan_result, triple):
    facets = [{
        "index": j + 1,
        "normal": _vector_text(facet.normal),
        "offset": facet.offset.text(),
    } for j, facet in enumerate(doc.polytope.facets)]
    table = [{
        "cone": list(cone),
        "vertex": _vector_text(vertex.coordinates),
        "fixed_point": _fixed_point_text(fixed_point(triple, cone)),
    } for cone, vertex in fan_result.table()]
    return {"facets": facets, "vertex_table": table}


def _chart_change(source, target):
    """The columns of the chart change from cone source to cone target
    (sorted tuples) in the target chart's table, its h (the source's rays
    outside the target) and its scope."""
    h = len(set(source).difference(target))
    return ([j - 1 for j in source], h,
            "chart overlap" if h < len(source) else "dense-orbit extension")


def transition_section(terms, source, target):
    """The chart change from cone source to cone target (sorted tuples),
    read off the target chart's term texts ``terms`` (``Atlas.terms``):
    the ``transition`` command's section and an entry of the atlas
    section's transition list."""
    columns, h, scope = _chart_change(source, target)
    return {
        "source": list(source),
        "target": list(target),
        "h": h,
        "scope": scope,
        "exponents": [[row[j][1] for j in columns] for row in terms],
        "rendered": render_terms(terms, columns),
    }


class Transitions:
    """The chart changes of an atlas section, one per ordered pair of
    distinct cones in sweep order (each source, then each target), as a
    sized table over each chart's term texts ``terms`` (cone ->
    ``Atlas.terms``).  Iterating it yields the ``transition_section``
    dicts; ``render_json_report`` writes it from the texts instead, each
    encoded once per chart, not once per transition."""

    def __init__(self, cones, terms):
        self.cones, self.terms = cones, terms

    def __len__(self):
        return len(self.cones) * (len(self.cones) - 1)

    def __iter__(self):
        for source, target in self.pairs():
            yield transition_section(self.terms[target], source, target)

    def pairs(self):
        # the fan keeps its cones sorted, so this is sweep order
        return itertools.permutations(self.cones, 2)


def atlas_report(triple, atlas: Atlas, include_cocycle=True):
    """The atlas section as a report holds it: its transitions are a
    ``Transitions`` table."""
    domain, d = triple.domain, triple.ray_count
    text = domain.text_of
    charts = [{
        "cone": list(cone),
        "fixed_point": _fixed_point_text(fixed_point(triple, cone)),
        "group_exponents": [[text(x) for x in row]
                            for row in atlas.chart(cone).group_rows()],
    } for cone in atlas.cones]
    transitions = Transitions(atlas.cones,
                              {cone: atlas.terms(cone) for cone in atlas.cones})
    relation_rows = []
    for cone in atlas.cones:
        table = atlas.chart(cone).rows   # ray j over the cone: column j of C
        columns = [(j, [row[j - 1] for row in table]) for j in range(1, d + 1)
                   if j not in cone]
        relation_rows.append({"cone": list(cone), "rows": [{
            "ray": j,
            "coefficients": [text(x) for x in coefficients],
            "display": f"X{j} = " + _combination_text(domain, coefficients, cone),
        } for j, coefficients in columns]})
    orbits = [{"cone_dim": r.cone_dim, "orbit_dim": r.orbit_dim, "count": r.count}
              for r in orbit_report(triple)]
    section = {
        "charts": charts,
        "transitions": transitions,
        "relations": relation_rows,
        "orbit_table": orbits,
        "note": ("group exponents are the canonical images of the lattice "
                 "generators; a presentation by other generators of the same "
                 "group may look different"),
    }
    if include_cocycle:
        cocycle = cocycle_check(triple, atlas)
        section["cocycle"] = {
            "pairs_checked": cocycle.pairs_checked,
            "triples_checked": cocycle.triples_checked,
            "violations": [list(map(list, v[1:])) for v in cocycle.violations],
            "passed": cocycle.passed,
        }
    return section


def atlas_section(triple, atlas: Atlas, include_cocycle=True):
    """``atlas_report`` as plain data: its transitions are a list of the
    ``transition_section`` dicts."""
    section = atlas_report(triple, atlas, include_cocycle)
    section["transitions"] = list(section["transitions"])
    return section


def verification_section(summary: VerificationSummary):
    checks = {}
    for name, report in summary.reports.items():
        checks[name] = {
            "trials": report.trials,
            "max_deviation": report.max_deviation,
            "failures": [{
                "target": [list(t) if isinstance(t, tuple) else t
                           for t in failure.target],
                "trial": failure.trial,
                "kind": failure.kind,
                "residual": failure.residual,
            } for failure in report.failures],
            "skipped_pairs": len(report.skipped),
        }
    return {"passed": summary.passed, "checks": checks}


def _decimal_text(value):
    """Fractions coming from decimal literals print back as decimals, every
    digit of them (where str() of an int refuses past 4300)."""
    value = Fraction(value)
    n, d = value.as_integer_ratio()
    exact = Context(prec=n.bit_length() + d.bit_length() + 1, traps=[Inexact])
    try:
        return f"{exact.divide(Decimal(n), Decimal(d)):f}"
    except Inexact:
        return str(value)


def build_report(command, doc: InputDocument, seed, sections,
                 parameter_sample=None):
    metadata = {
        "tool": "quasifold",
        "version": TOOL_VERSION,
        "command": command,
        "name": doc.name,
        "seed": seed,
        "domain": doc.domain.describe(),
        "parameter_sample": (None if parameter_sample is None
                             else _decimal_text(parameter_sample)),
    }
    report = {"metadata": metadata}
    report.update(sections)
    return report


# ---------------------------------------------------------------------------
# text rendering
# ---------------------------------------------------------------------------

def _pass_text(flag):
    return "pass" if flag else "FAIL"


def _transition_lines(t, indent):
    source = ",".join(map(str, t["source"]))
    target = ",".join(map(str, t["target"]))
    lines = [f"{indent}transition {{{source}}} -> {{{target}}} "
             f"[h={t['h']}, {t['scope']}]: {t['rendered']}"]
    lines.extend(f"{indent}  [{', '.join(row)}]" for row in t["exponents"])
    return lines


def render_text_report(report) -> str:
    lines = []
    meta = report["metadata"]
    title = meta.get("name") or meta["command"]
    lines.append(f"quasifold report: {title}")
    lines.append(f"tool quasifold {meta['version']}, command {meta['command']}, "
                 f"seed {meta['seed']}")
    lines.append(f"domain: {meta['domain']}")
    if meta.get("parameter_sample"):
        lines.append(f"parameter sample: {meta['parameter_sample']}")

    if "validation" in report:
        v = report["validation"]
        lines.append("")
        lines.append("validation")
        lines.append(f"  simplicial: {_pass_text(v['simplicial']['passed'])}")
        for cone in v["simplicial"]["failures"]:
            lines.append(f"    dependent rays in cone {{{','.join(map(str, cone))}}}")
        lines.append(f"  quasirational: {_pass_text(v['quasirational']['passed'])}")
        for ray, reason in v["quasirational"]["failures"]:
            lines.append(f"    ray {ray}: {reason}")
        lines.append(f"  face condition: {_pass_text(v['face_condition']['passed'])} "
                     f"({v['face_condition']['pairs_checked']} pairs)")
        probe = v["support_probe"]
        if probe["ran"]:
            lines.append(f"  support probe: {probe['directions']} directions, "
                         f"{probe['gaps']} gaps, {probe['overlaps']} overlaps")
        else:
            lines.append(f"  support probe: {probe['note'] or 'skipped'}")

    if "polytope" in report:
        p = report["polytope"]
        lines.append("")
        lines.append("polytope")
        for facet in p["facets"]:
            normal = ", ".join(facet["normal"])
            lines.append(f"  facet {facet['index']}: normal ({normal}), "
                         f"offset {facet['offset']}")
        for row in p["vertex_table"]:
            cone = ",".join(map(str, row["cone"]))
            vertex = ", ".join(row["vertex"])
            lines.append(f"  cone {{{cone}}}: vertex ({vertex}), "
                         f"fixed point {row['fixed_point']}")

    if "atlas" in report:
        a = report["atlas"]
        lines.append("")
        lines.append("atlas")
        for chart in a["charts"]:
            cone = ",".join(map(str, chart["cone"]))
            lines.append(f"  chart {{{cone}}}: fixed point {chart['fixed_point']}")
            for row in chart["group_exponents"]:
                lines.append(f"    group exponents [{', '.join(row)}]")
        for t in a["transitions"]:
            lines.extend(_transition_lines(t, "  "))
        for block in a["relations"]:
            cone = ",".join(map(str, block["cone"]))
            for row in block["rows"]:
                lines.append(f"  relation at {{{cone}}}: {row['display']}")
        for row in a["orbit_table"]:
            suffix = " (dense orbit)" if row["cone_dim"] == 0 else ""
            lines.append(f"  orbit table: {row['count']} cones of dim "
                         f"{row['cone_dim']}, orbit dim {row['orbit_dim']}{suffix}")
        if "cocycle" in a:
            c = a["cocycle"]
            lines.append(f"  cocycle: {c['pairs_checked']} pair identities, "
                         f"{c['triples_checked']} triangle identities, "
                         f"{len(c['violations'])} violations")
        lines.append(f"  note: {a['note']}")

    if "verification" in report:
        v = report["verification"]
        lines.append("")
        lines.append("verification")
        for name in sorted(v["checks"]):
            check = v["checks"][name]
            lines.append(f"  {name}: {check['trials']} trials, "
                         f"{len(check['failures'])} failures, "
                         f"max deviation {check['max_deviation']:.3e}, "
                         f"{check['skipped_pairs']} skipped pairs")
            for failure in check["failures"]:
                lines.append(f"    failure at {failure['target']}: "
                             f"{failure['kind']} residual {failure['residual']:.3e}")
        lines.append(f"  overall: {_pass_text(v['passed'])}")

    if "transition" in report:
        lines.extend(_transition_lines(report["transition"], ""))

    lines.append("")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# JSON rendering
# ---------------------------------------------------------------------------

def render_json_report(report) -> str:
    """The string ``json.dumps(report, indent=2, sort_keys=True)`` returns,
    written in one recursive pass into a list of chunks, joined once.

    CPython's C encoder runs only without ``indent``, so ``json.dumps``
    would take its pure-Python generator encoder here.  This writer lays
    out exact dicts, lists, strs and ints itself: it escapes strings with
    the escaper ``json`` uses and prints ints with ``int.__repr__``; each
    dict layout's sorted, escaped keys are built once per key order and
    depth, and a list of only strings or only exact ints is one join.  Any
    other value (None, a bool, a float, a subclass, a tuple) is written as
    ``json.dumps`` writes it, its line breaks moved to the value's margin.
    A key that is not a str raises TypeError in a dict the writer lays out
    itself; a dict subclass or a tuple gets exactly what ``json.dumps``
    returns, and a value ``json`` cannot encode raises its TypeError.  A
    ``Transitions`` table is written as the list of its dicts would be, each
    transition joined from its target chart's escaped texts at the source
    cone's columns.
    """
    chunks = []
    append = chunks.append
    escape, int_text = encode_basestring_ascii, int.__repr__
    strs, ints = {str}, {int}
    deeper = {}    # margin -> the margin one level in: one object per depth
    layouts = {}   # (keys, margin) -> ((key, prefix) in key order, closing)

    def indent(margin):
        inner = deeper.get(margin)
        if inner is None:
            inner = deeper[margin] = margin + "  "
        return inner

    def layout(keys, margin):
        for key in keys:
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
        inner = indent(margin)
        ordered = sorted(keys)
        prefixes = ["{" + inner] + ["," + inner] * (len(ordered) - 1)
        entry = layouts[keys, margin] = (
            [(key, f"{prefix}{escape(key)}: ")
             for key, prefix in zip(ordered, prefixes)],
            margin + "}", inner)
        return entry

    def write_dict(obj, margin):
        if not obj:
            append("{}")
            return
        keys = tuple(obj)
        items, closing, inner = layouts.get((keys, margin)) or layout(keys, margin)
        for key, prefix in items:
            value = obj[key]
            kind = type(value)
            if kind is str:
                append(prefix + escape(value))
            elif kind is list:
                append(prefix)
                write_list(value, inner)
            elif kind is int:
                append(prefix + int_text(value))
            else:
                append(prefix)
                write(value, inner)
        append(closing)

    def write_list(seq, margin):
        if not seq:
            append("[]")
            return
        inner = indent(margin)
        separator = "," + inner
        kinds = set(map(type, seq))
        if kinds == strs:
            append(f"[{inner}{separator.join(map(escape, seq))}{margin}]")
            return
        if kinds == ints:
            append(f"[{inner}{separator.join(map(int_text, seq))}{margin}]")
            return
        append("[" + inner)
        for i, value in enumerate(seq):
            if i:
                append(separator)
            kind = type(value)
            if kind is list:
                write_list(value, inner)
            elif kind is dict:
                write_dict(value, inner)
            else:
                write(value, inner)
        append(margin + "]")

    def write_transitions(table, margin):
        if not table:
            append("[]")
            return
        inner = indent(margin)     # each transition's braces
        fields = indent(inner)     # its keys, and its lists' brackets
        rows = indent(fields)      # its exponent rows, and its cones' indices
        entries = indent(rows)     # the entries of an exponent row
        keys = ("source", "target", "h", "scope", "exponents", "rendered")
        items, closing, _ = layouts.get((keys, inner)) or layout(keys, inner)
        prefix = dict(items)
        row_open, entry_separator = "[" + entries, "," + entries
        row_close, row_separator = rows + "]", "," + rows
        cones = {cone: f"[{rows}{row_separator.join(map(int_text, cone))}{fields}]"
                 for cone in table.cones}
        # each entry with its quotes, each factor without them: a monomial
        # in quotes is then render_terms of the factors
        escaped = {cone: [[(escape(factor)[1:-1], escape(entry)) for factor, entry in row]
                          for row in terms] for cone, terms in table.terms.items()}

        def transition(source, target):
            columns, h, scope = _chart_change(source, target)
            terms = escaped[target]
            return "".join((
                prefix["exponents"], "[", rows, row_separator.join([
                    row_open + entry_separator.join([row[j][1] for j in columns])
                    + row_close for row in terms]), fields, "]",
                prefix["h"], int_text(h),
                prefix["rendered"], '"', render_terms(terms, columns), '"',
                prefix["scope"], escape(scope), prefix["source"], cones[source],
                prefix["target"], cones[target], closing))
        separator = "," + inner
        append("[" + inner)
        append(separator.join(itertools.starmap(transition, table.pairs())))
        append(margin + "]")

    def write(value, margin):
        kind = type(value)
        if kind is str:
            append(escape(value))
        elif kind is dict:
            write_dict(value, margin)
        elif kind is list:
            write_list(value, margin)
        elif kind is int:
            append(int_text(value))
        elif kind is Transitions:
            write_transitions(value, margin)
        else:
            # exact at any margin: each line break in json's text starts a line
            text = json.dumps(value, indent=2, sort_keys=True)
            append(text.replace("\n", margin))

    write(report, "\n")
    return "".join(chunks)
