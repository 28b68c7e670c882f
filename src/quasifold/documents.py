"""Input documents and report assembly.

An input document declares a scalar domain, a quasilattice, and either a
fan (rays + witnesses + maximal cones) or a polytope in facet form, all
scalars written in the shared expression grammar; ``schema_accepts``
checks a document against ``schemas/input.schema.json``, exactly and
without ``jsonschema``.  Reports collect the validation, polytope, atlas,
transition and verification sections in a deterministic JSON-friendly
form.  ``render_json_report`` writes a report as the bytes
``json.dumps(report, indent=2, sort_keys=True)`` returns, in one pass;
the text rendering is a stable flat view of the same data.  A chart
change is rendered in one place, ``transition_section``, for the atlas
section and for the ``transition`` command alike, as joins of its target
chart's term texts (``Atlas.terms``, read once per chart for the atlas
section), and its text once, by ``_transition_lines``.  Relation rows are
the columns ``Atlas.relations`` reads off each chart's coordinate table.
"""

from __future__ import annotations

import json
import os
import re
import sys
from collections import namedtuple
from decimal import Decimal
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from .atlas import (Atlas, cocycle_check, fixed_point, orbit_report,
                    render_terms)
from .linalg import Matrix
from .polytopes import Polytope, to_triple
from .scalars import (IndeterminateSignError, NumberFieldDomain,
                      RationalDomain, RationalFunctionDomain, sample_text)
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
    "schema_accepts",
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
    """Draft-07 ``type``: a bool is no number, an integral float is an integer."""
    if isinstance(value, bool):
        return name == "boolean"
    return (isinstance(value, _TYPES[name])
            or name == "integer" and isinstance(value, float) and value.is_integer())


_ANNOTATIONS = frozenset({"$schema", "$id", "title", "description", "definitions"})
# keyword -> check(accepts, argument, value); a keyword constrains only the
# values of its own JSON type and passes every other value, as in draft 07
_KEYWORDS = {
    "type": lambda accepts, names, v: any(
        _has_type(v, name) for name in ([names] if isinstance(names, str) else names)),
    # pairing each value with whether it is a bool keeps true apart from 1,
    # as draft 07 does, and 1.0 still equals 1
    "enum": lambda accepts, options, v: (v, isinstance(v, bool)) in [
        (x, isinstance(x, bool)) for x in options],
    "required": lambda accepts, keys, v: (
        not isinstance(v, dict) or all(key in v for key in keys)),
    "properties": lambda accepts, subschemas, v: not isinstance(v, dict) or all(
        accepts(sub, v[key]) for key, sub in subschemas.items() if key in v),
    "items": lambda accepts, sub, v: (
        not isinstance(v, list) or all(accepts(sub, x) for x in v)),
    "minItems": lambda accepts, n, v: not isinstance(v, list) or len(v) >= n,
    "pattern": lambda accepts, regex, v: (
        not isinstance(v, str) or re.search(regex, v) is not None),
    "minimum": lambda accepts, bound, v: not _has_type(v, "number") or not v < bound,
    "exclusiveMinimum": lambda accepts, bound, v: (
        not _has_type(v, "number") or not v <= bound),
    "oneOf": lambda accepts, subschemas, v: sum(
        accepts(sub, v) for sub in subschemas) == 1,
    "not": lambda accepts, sub, v: not accepts(sub, v),
}


def schema_accepts(schema, instance) -> bool:
    """Whether instance is valid against schema, with draft-07 semantics.

    Interprets exactly the keywords that input.schema.json uses: those of
    ``_KEYWORDS``, local ``$ref`` (whose sibling keywords draft 07
    ignores) and the annotations.  Any other keyword raises LookupError,
    so an edit to the schema cannot go unchecked.  Agrees with
    ``jsonschema``, which a test confirms, and costs a fraction of it; the
    CLI imports ``jsonschema`` only to explain a rejection.
    """
    def accepts(node, value):
        if "$ref" in node:
            target = schema
            for part in node["$ref"].removeprefix("#/").split("/"):
                target = target[part]
            return accepts(target, value)
        valid = True
        for keyword, argument in node.items():
            if keyword in _ANNOTATIONS:
                continue
            if keyword not in _KEYWORDS:
                raise LookupError(f"schema keyword {keyword!r} is not interpreted")
            valid = valid and _KEYWORDS[keyword](accepts, argument, value)
        return valid

    return accepts(schema, instance)


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


def _parse_domain(data, path="domain"):
    kind = data.get("kind")
    if kind == "rational":
        return RationalDomain()
    if kind == "number_field":
        for key in ("min_poly", "generator_symbol", "embedding_approx"):
            if key not in data:
                raise InputError(f"{path}: number_field domain needs {key}")
        return NumberFieldDomain(
            [str(c) for c in data["min_poly"]],
            data["generator_symbol"],
            str(data["embedding_approx"]))
    if kind == "rational_function":
        if "generator_symbol" not in data:
            raise InputError(f"{path}: rational_function domain needs generator_symbol")
        sample = data.get("default_sample")
        return RationalFunctionDomain(
            data["generator_symbol"],
            parameter_positivity=data.get("parameter_positivity", True),
            default_sample=None if sample is None else str(sample))
    raise InputError(f"{path}: unknown domain kind {kind!r}")


def _parse_scalar_at(domain, text, path):
    try:
        return domain.scalar(str(text))
    except Exception as exc:
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


def _require_writable(value, what):
    """Refuse a rational with more digits than Python converts to text."""
    limit = sys.get_int_max_str_digits()
    for part, n in (("numerator", abs(value.numerator)),
                    ("denominator", value.denominator)):
        if limit and n >= 10 ** limit:
            raise InputError(f"{what} {sample_text(value)} has a "
                             f"{Decimal(n).adjusted() + 1}-digit {part}; "
                             f"exact texts allow at most {limit} digits")


def specialize_document(doc: InputDocument, value) -> InputDocument:
    """Exact substitution of the parameter, in the rational domain; refuses
    a value or a substituted entry with more digits than Python converts
    to text (``sys.get_int_max_str_digits()``)."""
    if doc.domain.kind != "rational_function":
        raise InputError("only parameter-field documents can be specialized")
    value = Fraction(value if isinstance(value, (int, Fraction)) else
                     str(value))   # a float stands for its shortest text
    _require_writable(value, "--substitute: value")
    source = doc.domain
    target = RationalDomain()
    entry = (f"--substitute: at {source.generator_symbol} = "
             f"{sample_text(value)}, the entry")

    def convert(scalar):
        converted = source.substitute(scalar, value, target)
        _require_writable(converted.payload, entry)
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


def _matrix_rows_text(matrix):
    return [[matrix[i, j].text() for j in range(matrix.cols)]
            for i in range(matrix.rows)]


def _combination_text(coefficients, labels, symbol="X"):
    """Render sum of c_i * X_{label_i} with sign-aware joining."""
    pieces = []
    for c, label in zip(coefficients, labels):
        if c.is_zero():
            continue
        try:
            negative = c.sign() < 0
        except IndeterminateSignError:
            negative = False
        # canonical text is unique, so "1" is the text of one alone
        text = (-c if negative else c).text()
        if text == "1":
            body = f"{symbol}{label}"
        else:
            composite = not (text.isdigit() or text.isalpha())
            body = f"({text})*{symbol}{label}" if composite else f"{text}*{symbol}{label}"
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


def transition_section(terms, source, target):
    """The chart change from cone source to cone target (sorted tuples),
    read off the target chart's term texts ``terms`` (``Atlas.terms``):
    the ``transition`` command's section and an entry of the atlas
    section's transition list."""
    columns = [j - 1 for j in source]
    h = len(set(source).difference(target))
    return {
        "source": list(source),
        "target": list(target),
        "h": h,
        "scope": "chart overlap" if h < len(source) else "dense-orbit extension",
        "exponents": [[row[j][1] for j in columns] for row in terms],
        "rendered": render_terms(terms, columns),
    }


def atlas_section(triple, atlas: Atlas, include_cocycle=True):
    charts = []
    for cone in atlas.cones:
        charts.append({
            "cone": list(cone),
            "fixed_point": _fixed_point_text(fixed_point(triple, cone)),
            "group_exponents": _matrix_rows_text(atlas.chart(cone).group_exponents),
        })
    terms = {cone: atlas.terms(cone) for cone in atlas.cones}
    transitions = [transition_section(terms[target], source, target)
                   for source in atlas.cones for target in atlas.cones
                   if source != target]
    relation_rows = []
    for cone in atlas.cones:
        rows = [{
            "ray": j,
            "coefficients": _vector_text(coeffs),
            "display": f"X{j} = " + _combination_text(coeffs, cone),
        } for j, coeffs in atlas.relations(cone).items()]
        relation_rows.append({"cone": list(cone), "rows": rows})
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
    """Fractions coming from decimal literals print back as decimals."""
    value = Fraction(value)
    denominator = value.denominator
    shift = 0
    while denominator % 10 == 0:
        denominator //= 10
        shift += 1
    while denominator % 2 == 0:
        denominator //= 2
    while denominator % 5 == 0:
        denominator //= 5
    if denominator != 1:
        return str(value)
    scaled = value * 10 ** shift
    while scaled.denominator != 1:
        scaled *= 10
        shift += 1
    # Decimal prints every digit, where str() refuses past 4300 of them
    digits = str(Decimal(abs(scaled.numerator))).rjust(shift + 1, "0")
    sign = "-" if value < 0 else ""
    if shift == 0:
        return f"{sign}{digits}"
    return f"{sign}{digits[:-shift]}.{digits[-shift:]}"


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

_INFINITY = float("inf")


def _float_text(x):
    """A float as ``json`` writes it, non-finite values included."""
    if x != x:
        return "NaN"
    if x == _INFINITY:
        return "Infinity"
    if x == -_INFINITY:
        return "-Infinity"
    return float.__repr__(x)


def render_json_report(report) -> str:
    """The string ``json.dumps(report, indent=2, sort_keys=True)`` returns,
    written in one recursive pass into a list of chunks, joined once.

    CPython's C encoder runs only without ``indent``, so ``json.dumps``
    would take its pure-Python generator encoder here.  This writer tries
    the exact types first and falls back to ``json``'s own order of
    ``isinstance`` tests (str, None, True, False, int, float, list or
    tuple, dict) for subclasses; it escapes strings with the escaper
    ``json`` uses, and prints ints and floats with ``int.__repr__`` and
    ``float.__repr__``.  Each dict layout's sorted, escaped keys are built
    once per key order and depth, and a list of only strings or only
    exact ints is one join.  A key that is not a str raises TypeError, as
    does a value ``json`` cannot encode.
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
        elif isinstance(value, str):
            append(escape(value))
        elif value is None:
            append("null")
        elif value is True:
            append("true")
        elif value is False:
            append("false")
        elif isinstance(value, int):
            append(int_text(value))
        elif isinstance(value, float):
            append(_float_text(value))
        elif isinstance(value, (list, tuple)):
            write_list(value, margin)
        elif isinstance(value, dict):
            # json reads a dict subclass through items()
            write_dict(dict(value.items()), margin)
        else:
            raise TypeError(f"Object of type {type(value).__name__} "
                            f"is not JSON serializable")

    write(report, "\n")
    return "".join(chunks)
