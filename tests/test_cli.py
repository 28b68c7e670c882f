import collections
import copy
import hashlib
import io
import itertools
import json
import os
import re
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from importlib import resources
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasifold import (GALLERY_NAMES, TOOL_VERSION, document_to_triple,
                       load_document, load_input_schema, load_report_schema,
                       specialize_document)
from quasifold.cli import main
from quasifold.documents import schema_accepts
from quasifold.scalars import Scalar


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def gallery_json(name):
    text = resources.files("quasifold").joinpath(f"data/{name}.json").read_text()
    return json.loads(text)


def write_doc(tmp_path, data, name="input.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


# ---------------------------------------------------------------------------
# gallery command
# ---------------------------------------------------------------------------

def test_gallery_quasisphere_text(capsys):
    code, out, _ = run_cli(["gallery", "quasisphere", "--seed", "0"], capsys)
    assert code == 0
    assert "[z^-a]" in out
    assert "overall: pass" in out


def test_gallery_unknown_name(capsys):
    code, _, err = run_cli(["gallery", "nonesuch"], capsys)
    assert code == 2
    assert "quasisphere" in err  # the error lists the available names


@pytest.mark.parametrize("argv", [["--help"], ["gallery", "--help"],
                                  ["verify"], ["nonesuch"],
                                  ["gallery", "kite", "--samples", "x"]])
def test_shared_parser_answers_as_a_fresh_one(argv, capsys):
    # main builds its parser once per process; help and usage errors
    # (exit 2) print what a freshly built parser prints, call after call
    from quasifold import cli
    assert cli._build_parser() is cli._build_parser()

    def answer(parse):
        with pytest.raises(SystemExit) as exc:
            parse(argv)
        out, err = capsys.readouterr()
        return exc.value.code, out, err
    expected = answer(cli._build_parser.__wrapped__().parse_args)
    assert expected[0] in (0, 2)
    assert answer(main) == expected
    assert answer(main) == expected


def test_gallery_dodecahedron_json_schema(capsys):
    code, out, _ = run_cli(
        ["gallery", "dodecahedron", "--format", "json", "--seed", "0",
         "--samples", "20"], capsys)
    assert code == 0
    report = json.loads(out)
    jsonschema.validate(report, load_report_schema())
    assert len(report["polytope"]["vertex_table"]) == 20
    assert len(report["atlas"]["transitions"]) == 380
    assert report["atlas"]["cocycle"]["passed"]
    assert report["verification"]["passed"]
    # JSON round-trips
    assert json.loads(json.dumps(report)) == report


def test_gallery_reports_match_schema(capsys):
    for name in ("quasisphere", "cp2-11a", "kite"):
        code, out, _ = run_cli(
            ["gallery", name, "--format", "json", "--samples", "10"], capsys)
        assert code == 0
        jsonschema.validate(json.loads(out), load_report_schema())


def test_gallery_documents_match_input_schema():
    from quasifold import GALLERY_NAMES, load_input_schema
    schema = load_input_schema()
    for name in GALLERY_NAMES:
        jsonschema.validate(gallery_json(name), schema)


def test_omitted_witnesses_are_recovered(tmp_path, capsys):
    doc = gallery_json("cp2-11a")
    del doc["witnesses"]
    code, out, _ = run_cli(
        ["validate", write_doc(tmp_path, doc), "--format", "json"], capsys)
    assert code == 0
    assert json.loads(out)["validation"]["quasirational"]["passed"]


def param_fan_doc():
    """16 cones over Q(a), witnesses omitted: an octagon in z = 0 coned off
    to two apexes (the fan of ``test_atlas.param_fan_triple``)."""
    octagon = [("1", "0"), ("a", "1"), ("0", "1"), ("-1", "a"),
               ("-1", "0"), ("-a", "-1"), ("0", "-1"), ("1", "-a")]
    return {
        "domain": {"kind": "rational_function", "generator_symbol": "a",
                   "parameter_positivity": True,
                   "default_sample": "1.41421356237309"},
        "quasilattice": {"generators": [["1", "0", "0", "a", "0"],
                                        ["0", "1", "0", "0", "a"],
                                        ["0", "0", "1", "0", "0"]]},
        "fan": {"rays": [[x, y, "0"] for x, y in octagon]
                + [["1", "a", "1"], ["a", "0", "-1"]],
                "max_cones": [[i, i % 8 + 1, apex]
                              for apex in (9, 10) for i in range(1, 9)]},
    }


@pytest.mark.parametrize("value", ["3/2", "5/3", "1/2"])
def test_witnesses_recovered_at_special_parameter_values(value, tmp_path,
                                                         capsys):
    # (D7) ray 2 = (a, 1, 0) is the fourth generator plus the second at
    # every a, though at a = 3/2 the particular rational solution is
    # (3/2, 1, 0, 0, 0) and the integer witness lies at an odd free coordinate
    path = write_doc(tmp_path, param_fan_doc())
    for command in ("atlas", "verify"):
        code, _, err = run_cli([command, path, "--substitute", f"a={value}"],
                               capsys)
        assert (code, err) == (0, ""), command
    doc = load_document(param_fan_doc())
    generic = document_to_triple(doc)[0].witnesses
    special = document_to_triple(specialize_document(doc, Fraction(value)))[0]
    assert special.witnesses == generic
    assert generic[1] == (0, 1, 0, 1, 0)


def test_ray_outside_the_lattice_exits_two(tmp_path, capsys):
    doc = {
        "domain": {"kind": "rational"},
        "quasilattice": {"generators": [["1", "0"], ["0", "1"]]},
        "fan": {"rays": [["1/2", "0"], ["0", "1"], ["-1", "-1"]],
                "max_cones": [[1, 2], [2, 3], [1, 3]]},
    }
    code, out, err = run_cli(["validate", write_doc(tmp_path, doc)], capsys)
    assert (code, out) == (2, "")
    assert err == ("quasifold: error: ray 1 is not in the Z-span of the "
                   "lattice generators\n")


# ---------------------------------------------------------------------------
# validate / polytope / transition / verify on documents
# ---------------------------------------------------------------------------

DEPENDENT_RAYS_DOC = {
    "domain": {"kind": "rational"},
    "quasilattice": {"generators": [["1", "0"], ["0", "1"]]},
    "fan": {
        "rays": [["1", "0"], ["2", "0"], ["0", "1"]],
        "max_cones": [[1, 2], [2, 3]],
    },
    "witnesses": [[1, 0], [2, 0], [0, 1]],
}


def test_validate_dependent_rays_exits_one(tmp_path, capsys):
    code, out, _ = run_cli(
        ["validate", write_doc(tmp_path, DEPENDENT_RAYS_DOC)], capsys)
    assert code == 1
    assert "simplicial: FAIL" in out


def test_validate_good_document(tmp_path, capsys):
    code, out, _ = run_cli(
        ["validate", write_doc(tmp_path, gallery_json("cp2-11a"))], capsys)
    assert code == 0
    assert "simplicial: pass" in out


def test_malformed_json_exits_two(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run_cli(["validate", str(path)], capsys)
    assert code == 2
    assert "line" in err


def schema_violations():
    """Broken documents, each with the message ``jsonschema.validate`` gives."""
    from quasifold import load_input_schema
    bad_facet = gallery_json("kite")
    bad_facet["polytope"]["facets"][1] = "1"
    bad_witness = gallery_json("cp2-11a")
    bad_witness["witnesses"][0] = [1, "x"]
    bad_kind = gallery_json("quasisphere")
    bad_kind["domain"]["kind"] = "complex"
    docs = [{"domain": {"kind": "rational"},
             "quasilattice": {"generators": [["1"]]}},  # neither fan nor polytope
            bad_facet, bad_witness, bad_kind, []]
    for doc in docs:
        with pytest.raises(jsonschema.ValidationError) as exc:
            jsonschema.validate(doc, load_input_schema())
        path = "/".join(str(p) for p in exc.value.absolute_path) or "(document root)"
        yield doc, f"schema violation at {path}: {exc.value.message}"


def test_schema_violation_exits_two(tmp_path, capsys):
    for doc, message in schema_violations():
        path = write_doc(tmp_path, doc)
        code, out, err = run_cli(["validate", path], capsys)
        assert code == 2
        assert out == ""
        assert err == f"quasifold: error: {path}: {message}\n"


def test_input_schema_passes_its_metaschema():
    # the CLI no longer checks the schema at run time
    schema = load_input_schema()
    jsonschema.validators.validator_for(schema).check_schema(schema)


def test_schema_accepts_refuses_unknown_keywords():
    with pytest.raises(LookupError, match="additionalProperties"):
        schema_accepts({"type": "object", "additionalProperties": False}, {})
    with pytest.raises(LookupError, match="format"):
        schema_accepts({"properties": {"x": {"format": "uri"}}}, {"x": "a"})


@pytest.mark.parametrize("schema, instance", [
    ({"not": {"type": "string"}}, "a"),
    ({"not": {"type": "string"}}, 1),
    ({"oneOf": [{"type": "integer"}, {"type": "number"}]}, 1),
    ({"oneOf": [{"type": "integer"}, {"type": "number"}]}, 1.5),
    ({"enum": [1, "a"]}, True),
    ({"enum": [1, "a"]}, 1.0),
    ({"type": ["string", "null"]}, None),
    ({"minimum": 1, "exclusiveMinimum": 0}, "0"),
    ({"$ref": "#/definitions/d", "type": "string",
      "definitions": {"d": {"type": "integer"}}}, 3),
])
def test_schema_accepts_matches_draft_07(schema, instance):
    # cases the input schema cannot tell apart: its oneOf branches exclude
    # each other, and its not sits inside a oneOf
    valid = jsonschema.Draft7Validator(schema).is_valid(instance)
    assert schema_accepts(schema, instance) is valid


SWAPS = (True, 1.0, "1", [], None)


def _nodes(node, path=()):
    """(path, value) of every value below the root, depth first."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield path + (key,), child
        yield from _nodes(child, path + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@st.composite
def mutated_documents(draw):
    """A gallery document with one to three schema-relevant edits."""
    doc = copy.deepcopy(gallery_json(draw(st.sampled_from(GALLERY_NAMES))))
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(
            ("delete", "swap", "shorten", "symbol", "decimal", "option",
             "both")))
        nodes = list(_nodes(doc))
        if kind == "delete":
            keys = [path for path, _ in nodes
                    if isinstance(_at(doc, path[:-1]), dict)]
            path = draw(st.sampled_from(keys))
            del _at(doc, path[:-1])[path[-1]]
        elif kind == "swap":
            path = draw(st.sampled_from([path for path, _ in nodes]))
            _at(doc, path[:-1])[path[-1]] = draw(st.sampled_from(SWAPS))
        elif kind == "shorten":
            lists = [value for _, value in nodes
                     if isinstance(value, list) and value]
            if lists:
                value = draw(st.sampled_from(lists))
                del value[draw(st.integers(0, len(value) - 1)):]
        elif kind == "symbol" and isinstance(doc.get("domain"), dict):
            doc["domain"]["generator_symbol"] = draw(st.sampled_from(
                ("1a", "a b", "", "a-1", "_x1", 5)))
        elif kind == "decimal" and isinstance(doc.get("domain"), dict):
            key = draw(st.sampled_from(("embedding_approx", "default_sample")))
            doc["domain"][key] = draw(st.sampled_from(
                ("1.", ".5", "1e3", "-2.5", "1.5\n", "x", 2.5, 3)))
        elif kind == "option":
            key = draw(st.sampled_from(
                ("seed", "samples", "tolerance", "word_length", "integer_box",
                 "probe_directions", "parameter_sample")))
            doc["options"] = {key: draw(st.sampled_from(
                (0, 1, -1, 2.0, 0.5, float("nan"), "1", True, None)))}
        elif kind == "both":
            doc["fan"] = {"rays": [["1"]], "max_cones": [[1]]}
    return doc


@settings(max_examples=200, deadline=None)
@given(mutated_documents())
def test_schema_accepts_agrees_with_jsonschema(doc):
    # the in-house check decides acceptance; jsonschema only explains a
    # rejection, and the CLI's message is its best match
    schema = load_input_schema()
    validator = jsonschema.validators.validator_for(schema)(schema)
    error = jsonschema.exceptions.best_match(validator.iter_errors(doc))
    assert schema_accepts(schema, doc) is (error is None)
    if error is None:
        return
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "input.json")
        with open(path, "w") as handle:
            json.dump(doc, handle)
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = main(["validate", path])
    where = "/".join(map(str, error.absolute_path)) or "(document root)"
    assert code == 2
    assert err.getvalue() == (f"quasifold: error: {path}: schema violation "
                              f"at {where}: {error.message}\n")


def test_unexplained_rejection_exits_three(tmp_path, monkeypatch, capsys):
    # a rejection that jsonschema cannot explain is a fault of the
    # program: exit 3, never a silent acceptance
    import quasifold.cli
    monkeypatch.setattr(quasifold.cli, "schema_accepts",
                        lambda schema, data: False)
    path = write_doc(tmp_path, gallery_json("kite"))
    code, out, err = run_cli(["validate", path], capsys)
    assert (code, out) == (3, "")
    assert err.startswith("quasifold: internal error: RuntimeError: ")


def test_valid_documents_import_no_jsonschema(tmp_path):
    # jsonschema and importlib.metadata cost more than a small run: a
    # process given a valid document imports neither
    kite = write_doc(tmp_path, gallery_json("kite"), "kite.json")
    code = ("import sys\n"
            "from quasifold.cli import main\n"
            "code = main(sys.argv[1:])\n"
            "print(*sorted(sys.modules), file=sys.stderr)\n"
            "sys.exit(code)\n")
    for argv in (["gallery", "kite", "--samples", "10"], ["validate", kite]):
        run = subprocess.run([sys.executable, "-c", code, *argv],
                             capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
        modules = set(run.stderr.split())
        assert "quasifold.cli" in modules
        assert not modules & {"jsonschema", "importlib.metadata"}, argv


def test_start_up_imports_only_what_a_run_uses():
    # dataclasses (with inspect), typing and importlib.resources cost more
    # to import than a small run takes; a clean interpreter (-S: no site
    # hooks, which import typing themselves) running gallery kite loads
    # none of them, nor pkgutil, which imports typing
    import quasifold
    code = ("import sys\n"
            "from quasifold.cli import main\n"
            "code = main(['gallery', 'kite', '--samples', '10'])\n"
            "print(*sorted(sys.modules), file=sys.stderr)\n"
            "sys.exit(code)\n")
    src = str(Path(quasifold.__file__).parents[1])
    run = subprocess.run([sys.executable, "-S", "-c", code],
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src))
    assert run.returncode == 0, run.stderr
    modules = set(run.stderr.split())
    assert "quasifold.cli" in modules
    assert not modules & {"dataclasses", "inspect", "typing",
                          "importlib.resources", "pkgutil"}


def test_tool_version_matches_pyproject():
    text = (Path(__file__).parents[1] / "pyproject.toml").read_text()
    assert re.search(r'^version = "(.*)"$', text, re.M)[1] == TOOL_VERSION


def test_bad_scalar_string_exits_two(tmp_path, capsys):
    doc = gallery_json("cp2-11a")
    doc["quasilattice"]["generators"][0][0] = "1 + + 2"
    code, _, err = run_cli(["validate", write_doc(tmp_path, doc)], capsys)
    assert code == 2
    assert "quasilattice.generators" in err


def test_transition_command(tmp_path, capsys):
    path = write_doc(tmp_path, gallery_json("cp2-11a"))
    code, out, _ = run_cli(
        ["transition", path, "--from", "2,3", "--to", "1,3"], capsys)
    assert code == 0
    assert "[z2^-1 : z2^-a z3]" in out
    assert "[-1, 0]" in out and "[-a, 1]" in out


def test_transition_unknown_cone(tmp_path, capsys):
    path = write_doc(tmp_path, gallery_json("cp2-11a"))
    code, _, err = run_cli(
        ["transition", path, "--from", "1,9", "--to", "1,3"], capsys)
    assert code == 2
    assert "not a maximal cone" in err


def test_polytope_command(tmp_path, capsys):
    path = write_doc(tmp_path, gallery_json("hirzebruch"))
    code, out, _ = run_cli(["polytope", path], capsys)
    assert code == 0
    assert "vertex (a + 1, 0)" in out


@pytest.mark.parametrize("command", ["polytope", "validate", "atlas", "verify"])
def test_unbounded_polytope_exits_two(command, tmp_path, capsys):
    # x >= 0, y >= 0, y >= x - 1: the edges on facets 1 and 3 run off to
    # infinity, so there is no polytope and no complete fan
    path = write_doc(tmp_path, {
        "domain": {"kind": "rational"},
        "quasilattice": {"generators": [["1", "0"], ["0", "1"]]},
        "polytope": {"facets": [{"normal": ["1", "0"], "offset": "0"},
                                {"normal": ["0", "1"], "offset": "0"},
                                {"normal": ["-1", "1"], "offset": "-1"}]},
    })
    code, out, err = run_cli([command, path], capsys)
    assert (code, out) == (2, "")
    assert err == ("quasifold: error: the inequalities do not bound a "
                   "polytope: the edge on facets (1,) has one vertex\n")


@pytest.mark.parametrize("command", ["polytope", "validate", "atlas", "verify"])
def test_redundant_inequality_exits_two(command, tmp_path, capsys):
    # the unit square plus x + y >= -5, which no vertex of the square meets
    path = write_doc(tmp_path, {
        "domain": {"kind": "rational"},
        "quasilattice": {"generators": [["1", "0"], ["0", "1"]]},
        "polytope": {"facets": [{"normal": ["1", "0"], "offset": "0"},
                                {"normal": ["0", "1"], "offset": "0"},
                                {"normal": ["-1", "0"], "offset": "-1"},
                                {"normal": ["0", "-1"], "offset": "-1"},
                                {"normal": ["1", "1"], "offset": "-5"}]},
    })
    code, out, err = run_cli([command, path], capsys)
    assert (code, out) == (2, "")
    assert err == ("quasifold: error: inequality 5 touches no vertex of the "
                   "polytope (redundant)\n")


def polytope_doc(domain, facets):
    return {"domain": domain,
            "quasilattice": {"generators": [["1", "0"], ["0", "1"]]},
            "polytope": {"facets": [{"normal": normal, "offset": offset}
                                    for normal, offset in facets]}}


@pytest.mark.parametrize("command", ["polytope", "atlas", "verify"])
def test_parameter_dependent_combinatorics_exit_two(command, tmp_path, capsys):
    # (D4) the unit triangle x, y >= 0, x + y <= a, cut by
    # x <= a + (a - 3/2)(a - 8/5), which bites only for 3/2 < a < 8/5
    path = write_doc(tmp_path, polytope_doc(
        {"kind": "rational_function", "generator_symbol": "a"},
        [(["1", "0"], "0"), (["0", "1"], "0"), (["-1", "-1"], "-a"),
         (["-1", "0"], "-(a + (a - 3/2)*(a - 8/5))")]))
    code, out, err = run_cli([command, path], capsys)
    assert (code, out) == (2, "")
    assert err == ("quasifold: error: the vertex combinatorics depend on the "
                   "parameter: the sign of a^2 - 31/10*a + 12/5 is not proven "
                   "constant for a > 0: 10*a^2 - 31*a + 24 has a root there\n")


def test_rational_designated_root_exits_two(tmp_path, capsys):
    # (D3) x^2 - 4 at 2 is not a number field; b - 2 would be zero
    path = write_doc(tmp_path, polytope_doc(
        {"kind": "number_field", "min_poly": ["-4", "0", "1"],
         "generator_symbol": "b", "embedding_approx": "2"},
        [(["1", "0"], "0"), (["0", "1"], "0"), (["-1", "-1"], "-b")]))
    code, out, err = run_cli(["atlas", path], capsys)
    assert (code, out) == (2, "")
    assert err == ("quasifold: error: min_poly has the rational root 2 next "
                   "to embedding_approx\n")


def test_zero_valued_payload_exits_two(tmp_path, capsys):
    # (D3, D5) (x^2 - 2)(x^2 - 3) at sqrt 2: the slack b^2 - 2 of facet 4
    # at the origin is a nonzero payload of value zero; its sign used to
    # raise ArithmeticError with a traceback and exit 1
    path = write_doc(tmp_path, polytope_doc(
        {"kind": "number_field", "min_poly": ["6", "0", "-5", "0", "1"],
         "generator_symbol": "b", "embedding_approx": "1.41421356"},
        [(["1", "0"], "0"), (["0", "1"], "0"), (["-1", "-1"], "-1"),
         (["1", "1"], "2 - b^2")]))
    code, out, err = run_cli(["polytope", path], capsys)
    assert (code, out) == (2, "")
    assert err == ("quasifold: error: min_poly x^4 - 5*x^2 + 6 is reducible: "
                   "its factor x^2 - 2 divides the numerator of b^2 - 2\n")


def test_substitute_at_a_pole_exits_two(tmp_path, capsys):
    # a pinned parameter value where a denominator vanishes is bad input,
    # not an internal error
    path = write_doc(tmp_path, polytope_doc(
        {"kind": "rational_function", "generator_symbol": "a"},
        [(["1", "0"], "0"), (["0", "1"], "0"), (["-1", "-1"], "-1/(a - 1)^2")]))
    code, out, err = run_cli(["polytope", path, "--substitute", "a=1"], capsys)
    assert (code, out) == (2, "")
    assert err == ("quasifold: error: the denominator of -1/(a^2 - 2*a + 1) "
                   "vanishes at a = 1\n")


def test_internal_error_exits_three(monkeypatch, capsys):
    # (D5) a fault of the program is one stderr line and exit 3, never
    # exit 1, which means a failed check
    import quasifold.cli

    def broken(args):
        raise RuntimeError("boom")
    monkeypatch.setattr(quasifold.cli, "run", broken)
    code, out, err = run_cli(["gallery", "kite"], capsys)
    assert (code, out) == (3, "")
    assert err == "quasifold: internal error: RuntimeError: boom\n"


def test_combination_text_lets_refusals_through():
    # only an undecidable parameter sign renders as a + term; a refusal
    # from sign() reaches the caller
    from quasifold import NumberFieldDomain, RationalFunctionDomain, parse_scalar
    from quasifold.documents import _combination_text
    parameter = RationalFunctionDomain("a")
    terms = [parse_scalar(x, parameter) for x in ("1", "1 - a", "-a")]
    assert _combination_text(terms, [1, 2, 3]) == "X1 + (-a + 1)*X2 - a*X3"
    field = NumberFieldDomain(["6", "0", "-5", "0", "1"], "b", "1.41421356")
    with pytest.raises(ValueError, match="reducible"):
        _combination_text([parse_scalar("b^2 - 2", field)], [1])


def test_atlas_command(tmp_path, capsys):
    path = write_doc(tmp_path, gallery_json("kite"))
    code, out, _ = run_cli(["atlas", path, "--format", "json"], capsys)
    assert code == 0
    report = json.loads(out)
    assert "verification" not in report
    assert len(report["atlas"]["charts"]) == 4
    rendered = {t["rendered"] for t in report["atlas"]["transitions"]}
    assert "[z1^(-alpha^2 + 3) : z1^(alpha^2 - 3) z4]" in rendered


def test_atlas_command_fan_form(tmp_path, capsys):
    # the same kite triple given directly as a fan instead of a polytope
    source = gallery_json("kite")
    rays = [facet["normal"] for facet in source["polytope"]["facets"]]
    doc = {
        "domain": source["domain"],
        "quasilattice": source["quasilattice"],
        "fan": {"rays": rays,
                "max_cones": [[1, 3], [1, 4], [2, 3], [2, 4]]},
        "witnesses": source["witnesses"],
    }
    code, out, _ = run_cli(
        ["atlas", write_doc(tmp_path, doc), "--format", "json"], capsys)
    assert code == 0
    report = json.loads(out)
    assert "polytope" not in report
    rendered = {t["rendered"] for t in report["atlas"]["transitions"]}
    assert "[z1^(-alpha^2 + 3) : z1^(alpha^2 - 3) z4]" in rendered


def test_verify_command(tmp_path, capsys):
    path = write_doc(tmp_path, gallery_json("quasisphere"))
    code, out, _ = run_cli(["verify", path, "--samples", "20"], capsys)
    assert code == 0
    assert "overall: pass" in out


def simplex4_doc():
    """The fan of the 4-simplex over Z^4: rays e1..e4 and -(e1+...+e4)."""
    unit = [[int(i == j) for j in range(4)] for i in range(4)]
    return {
        "domain": {"kind": "rational"},
        "quasilattice": {"generators": [[str(v) for v in row] for row in unit]},
        "fan": {"rays": [[str(v) for v in row] for row in unit] + [["-1"] * 4],
                "max_cones": [list(c) for c in
                              itertools.combinations(range(1, 6), 4)]},
        "witnesses": unit + [[-1] * 4],
    }


def test_atlas_in_dimension_four(tmp_path, capsys):
    path = write_doc(tmp_path, simplex4_doc())
    code, out, _ = run_cli(["atlas", path, "--format", "json"], capsys)
    assert code == 0
    cocycle = json.loads(out)["atlas"]["cocycle"]
    assert (cocycle["pairs_checked"], cocycle["triples_checked"]) == (20, 60)
    assert cocycle["passed"] and cocycle["violations"] == []


def test_verify_in_dimension_four(tmp_path, capsys):
    # the group witnesses come from the ray witnesses, so no search caps
    # the dimension
    path = write_doc(tmp_path, simplex4_doc())
    code, out, err = run_cli(["verify", path], capsys)
    assert code == 0
    assert "overall: pass" in out
    assert err == ""


def test_verify_large_witnesses(d1_document, tmp_path, capsys):
    # ray 2's witness (0, -50) makes group witnesses far outside +-10
    path = write_doc(tmp_path, d1_document)
    for seed in range(5):
        code, out, _ = run_cli(["verify", path, "--format", "json",
                                "--seed", str(seed)], capsys)
        assert code == 0, seed
        for check in json.loads(out)["verification"]["checks"].values():
            assert not check["failures"]
            assert check["max_deviation"] < 1e-12


# ---------------------------------------------------------------------------
# parameter handling
# ---------------------------------------------------------------------------

def test_param_sets_sample(tmp_path, capsys):
    path = write_doc(tmp_path, gallery_json("quasisphere"))
    code, out, _ = run_cli(
        ["verify", path, "--samples", "10", "--param", "a=1.6180339887"],
        capsys)
    assert code == 0
    assert "parameter sample: 1.6180339887" in out


def test_param_wrong_symbol(tmp_path, capsys):
    path = write_doc(tmp_path, gallery_json("quasisphere"))
    code, _, err = run_cli(["verify", path, "--param", "b=2"], capsys)
    assert code == 2
    assert "does not match" in err


@pytest.mark.parametrize("name, value", [("quasisphere", "-1"),
                                         ("cp2-11a", "-2"),
                                         ("cp2-11a", "0")])
def test_param_must_be_positive(name, value, capsys):
    code, out, err = run_cli(["gallery", name, "--param", f"a={value}"],
                             capsys)
    assert code == 2
    assert out == ""
    assert "--param" in err and "not positive" in err


@pytest.mark.parametrize("value", ["0", "-1"])
def test_substitute_must_be_positive(value, capsys):
    # the same refusal as --param, not a degenerate polytope
    code, out, err = run_cli(["gallery", "cp2-11a", "--substitute",
                              f"a={value}"], capsys)
    assert (code, out) == (2, "")
    assert err == (f"quasifold: error: --substitute: value {value} is not "
                   "positive, but the domain assumes a > 0\n")


@pytest.mark.parametrize("flag, value", [("--param", "1e30"),
                                         ("--param", "1e-30"),
                                         ("--param", "1e300"),
                                         ("--substitute", "1e400")])
def test_extreme_parameter_values_refuse(flag, value, tmp_path, capsys):
    # floats over- or underflow where the exact atlas is still right: the
    # numeric checks refuse, they neither crash nor fail
    code, out, err = run_cli(["gallery", "cp2-11a", flag, f"a={value}"],
                             capsys)
    assert (code, out) == (2, "")
    assert err.startswith("quasifold: error: the numeric checks cannot run "
                          "in floating point")
    assert err.count("\n") == 1
    # the advisory probe skips instead, and validation passes
    code, out, err = run_cli(["validate", write_doc(tmp_path, gallery_json(
        "cp2-11a")), flag, f"a={value}"], capsys)
    assert (code, err) == (0, "")
    if flag == "--substitute":
        assert ("support probe: skipped: a cone matrix has no finite "
                "float") in out


@pytest.mark.parametrize("name", ["cp2-11a", "quasisphere", "hirzebruch"])
def test_numeric_checks_run_at_large_parameter_values(name, capsys):
    # the checks compare phases in logarithmic coordinates, so nothing
    # underflows where exp(2 pi i E w) did from a = 1e4 up
    code, out, err = run_cli(["gallery", name, "--param", "a=1e4"], capsys)
    assert (code, err) == (0, "")
    assert "overall: pass" in out


# per entry, going up and going down from a = 1: the largest power of ten
# at which the numeric checks run and the first at which the rounding bound
# refuses them (hirzebruch's tables stay bounded as a -> 0, so it runs at
# every power down to 1e-300)
PARAMETER_LIMITS = {
    "cp2-11a": [(4, 5), (-4, -5)],
    "quasisphere": [(4, 5), (-4, -5)],
    "hirzebruch": [(4, 5), (-300, None)],
}


@pytest.mark.parametrize("name", sorted(PARAMETER_LIMITS))
def test_rounding_bound_limits_are_pinned(name, capsys):
    for last, first in PARAMETER_LIMITS[name]:
        code, out, err = run_cli(["gallery", name, "--param", f"a=1e{last}",
                                  "--samples", "20"], capsys)
        assert (code, err) == (0, ""), last
        assert "overall: pass" in out
        if first is None:
            continue
        code, out, err = run_cli(["gallery", name, "--param", f"a=1e{first}",
                                  "--samples", "20"], capsys)
        assert (code, out) == (2, ""), first
        assert re.fullmatch(
            r"quasifold: error: the numeric checks cannot run in floating "
            r"point at a = \S+: exponents reach 1e\+05, so rounding could "
            r"move a residual by \S+, more than half the tolerance 1e-09\n",
            err), err


@pytest.mark.parametrize("name", ["cp2-11a", "quasisphere", "hirzebruch"])
def test_parameter_sweep_never_fails_a_check(name, capsys):
    # wherever the bound admits the checks, rounding cannot fail them: a
    # sweep over powers of ten verifies or refuses, and never exits 1
    codes = set()
    for k in range(-12, 13):
        code, _, _ = run_cli(["gallery", name, "--param", f"a=1e{k}",
                              "--samples", "20"], capsys)
        codes.add(code)
    assert codes <= {0, 2}


def test_rounding_bound_scales_with_the_tolerance(capsys):
    # the bound refuses against half the tolerance the user asked for
    argv = ["gallery", "cp2-11a", "--param", "a=1e5", "--samples", "20"]
    code, _, err = run_cli(argv, capsys)
    assert code == 2 and "half the tolerance 1e-09" in err
    code, out, err = run_cli(argv + ["--tolerance", "1e-7"], capsys)
    assert (code, err) == (0, "")
    assert "overall: pass" in out


@pytest.mark.parametrize("value, shown", [("1e-5000", "1e-5000"),
                                          ("1e5000", "1e+5000"),
                                          ("1e-320", "1e-320")])
def test_refusal_prints_samples_of_any_size(value, shown, capsys):
    # the sample is rounded to six significant digits from the exact
    # Fraction: neither the 4300-digit limit of int() to str nor a
    # 320-digit denominator reaches the message
    code, out, err = run_cli(["gallery", "cp2-11a", "--param", f"a={value}"],
                             capsys)
    assert (code, out) == (2, "")
    assert err == (f"quasifold: error: the numeric checks cannot run in "
                   f"floating point at a = {shown}: exponents exceed the "
                   f"float range (an exact value has no finite float), so no "
                   f"residual can be held to half the tolerance 1e-09\n")
    code, out, err = run_cli(["gallery", "cp2-11a", "--param", f"a=-{value}"],
                             capsys)
    assert (code, out) == (2, "")
    assert err == (f"quasifold: error: --param: sample -{shown} is not "
                   "positive, but the domain assumes a > 0\n")


def test_oversized_substitute_is_refused_in_its_own_words(tmp_path, capsys):
    # D13: a substituted value past the 4300-digit limit of int() to str is
    # refused by name before any text of it is built, not by Python's message
    path = write_doc(tmp_path, gallery_json("cp2-11a"))
    limit = sys.get_int_max_str_digits()
    for argv, shown, digits, part in [
            (["gallery", "cp2-11a", "--substitute", "a=1e5000"],
             "1e+5000", 5001, "numerator"),
            (["polytope", path, "--substitute", "a=1e4400"],
             "1e+4400", 4401, "numerator"),
            (["polytope", path, "--substitute", "a=1e-4400"],
             "1e-4400", 4401, "denominator")]:
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (2, "")
        assert err == (f"quasifold: error: --substitute: value {shown} has a "
                       f"{digits}-digit {part}; exact texts allow at most "
                       f"{limit} digits\n")
    code, out, err = run_cli(["polytope", path, "--substitute", "a=1e4000"],
                             capsys)
    assert (code, err) == (0, "")
    assert f"cone {{2,3}}: vertex (1{'0' * 4000}, 0)" in out


def test_substituted_entry_past_the_text_limit_is_refused(tmp_path, capsys):
    # D13: -a^2 at a = 1e3000 has 6001 digits; the substitution refuses it
    # by name, as it refuses the value itself, not by Python's message
    data = gallery_json("cp2-11a")
    data["polytope"]["facets"][1]["offset"] = "-a^2"
    path = write_doc(tmp_path, data)
    limit = sys.get_int_max_str_digits()
    for command in ("polytope", "atlas", "validate"):
        code, out, err = run_cli([command, path, "--substitute", "a=1e3000"],
                                 capsys)
        assert (code, out) == (2, ""), command
        assert err == ("quasifold: error: --substitute: at a = 1e+3000, the "
                       "entry -1e+6000 has a 6001-digit numerator; exact "
                       f"texts allow at most {limit} digits\n")
        assert "Exceeds the limit" not in err


def test_probe_note_names_a_zero_pivot(tmp_path, capsys):
    # at a = 1e-400 cone entries underflow to 0.0 and float_solve meets a
    # zero pivot; an entry past the float range gets its own note instead
    # (test_extreme_parameter_values_refuse)
    path = write_doc(tmp_path, gallery_json("cp2-11a"))
    code, out, err = run_cli(["validate", path, "--substitute", "a=1e-400"],
                             capsys)
    assert (code, err) == (0, "")
    assert ("support probe: skipped: a cone matrix is singular in floating "
            "point\n") in out


def test_gallery_evaluates_each_value_once(monkeypatch, capsys):
    # the support probe and the numeric checks share the domain's float
    # memo, so a run evaluates each distinct exact value once
    evaluate = Scalar.eval_numeric
    for name in ("dodecahedron", "kite"):
        calls = collections.Counter()

        def counted(self, *args, **kwargs):
            calls[self.payload] += 1
            return evaluate(self, *args, **kwargs)

        monkeypatch.setattr(Scalar, "eval_numeric", counted)
        code, _, err = run_cli(["gallery", name], capsys)
        assert (code, err) == (0, ""), name
        assert calls and max(calls.values()) == 1, (name, calls)


def test_report_keeps_a_sample_of_any_size_exact(tmp_path, capsys):
    path = write_doc(tmp_path, gallery_json("cp2-11a"))
    code, out, err = run_cli(["validate", path, "--param", "a=1e5000",
                              "--format", "json"], capsys)
    assert (code, err) == (0, "")
    assert json.loads(out)["metadata"]["parameter_sample"] == "1" + "0" * 5000


@pytest.mark.parametrize("value", ["1e30", "1e300"])
def test_probe_sees_no_overlap_at_large_parameter_values(value, tmp_path,
                                                         capsys):
    # the probe's bound is relative to the rows of each cone inverse, so
    # the cone of huge rays does not seem to overlap its neighbours
    code, out, err = run_cli(["validate", write_doc(tmp_path, gallery_json(
        "cp2-11a")), "--param", f"a={value}"], capsys)
    assert (code, err) == (0, "")
    assert "  support probe: 64 directions, 0 gaps, 0 overlaps\n" in out


def test_param_refused_without_parameter(capsys):
    # a rational or number-field document has no parameter to sample
    for name in ("kite", "dodecahedron"):
        code, out, err = run_cli(["gallery", name, "--param", "alpha=1.6"],
                                 capsys)
        assert code == 2
        assert out == ""
        assert "--param" in err and "parameter-field" in err


@pytest.mark.parametrize("flag, value", [("--samples", "0"),
                                         ("--tolerance", "-1"),
                                         ("--tolerance", "0"),
                                         ("--tolerance", "nan"),
                                         ("--tolerance", "inf"),
                                         ("--word-length", "-1"),
                                         ("--word-length", "0")])
def test_verify_bounds_exit_two(flag, value, tmp_path, capsys):
    # below the schema minimum of 1: bad input, not a failed check, also
    # on a document whose validation fails
    for argv in (["gallery", "kite"],
                 ["verify", write_doc(tmp_path, DEPENDENT_RAYS_DOC)]):
        code, out, err = run_cli(argv + [flag, value], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("quasifold: error: ") and err.count("\n") == 1
        assert flag in err


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_non_finite_document_tolerance_exits_two(value, tmp_path, capsys):
    # json reads NaN and Infinity, and no finite residual is >= either of
    # them: refuse them rather than pass every trial
    data = gallery_json("kite")
    data.setdefault("options", {})["tolerance"] = value
    code, out, err = run_cli(["verify", write_doc(tmp_path, data)], capsys)
    assert (code, out) == (2, "")
    assert "finite and positive" in err and err.count("\n") == 1


def test_parameter_sample_option_refused_without_parameter(tmp_path, capsys):
    data = gallery_json("kite")
    data.setdefault("options", {})["parameter_sample"] = "1.6"
    code, out, err = run_cli(["verify", write_doc(tmp_path, data)], capsys)
    assert code == 2
    assert out == ""
    assert "options.parameter_sample" in err and "parameter-field" in err


def test_parameter_sample_option_survives_substitute(tmp_path, capsys):
    # the option belongs to the parameter document, which --substitute
    # then specializes to the rationals
    data = gallery_json("cp2-11a")
    data.setdefault("options", {})["parameter_sample"] = "1.6"
    code, out, _ = run_cli(["verify", write_doc(tmp_path, data),
                            "--substitute", "a=1", "--samples", "10"], capsys)
    assert code == 0
    assert "overall: pass" in out


def test_integer_box_option_is_ignored(tmp_path, capsys):
    # old documents may still carry the retired search bound
    reports = []
    for folder, options in (("plain", {}), ("boxed", {"integer_box": 3})):
        data = gallery_json("cp2-11a")
        data.setdefault("options", {}).update(options)
        (tmp_path / folder).mkdir()
        path = write_doc(tmp_path / folder, data)
        code, out, _ = run_cli(["verify", path, "--format", "json"], capsys)
        assert code == 0
        reports.append(out)
    assert reports[0] == reports[1]


def test_parameter_sample_option_must_be_positive(tmp_path, capsys):
    data = gallery_json("quasisphere")
    data.setdefault("options", {})["parameter_sample"] = "-1.5"
    path = write_doc(tmp_path, data)
    code, _, err = run_cli(["verify", path], capsys)
    assert code == 2
    assert "options.parameter_sample" in err and "not positive" in err


def test_substitute_specializes_exactly(capsys):
    code, out, _ = run_cli(
        ["gallery", "cp2-11a", "--format", "json", "--substitute", "a=1",
         "--samples", "10"], capsys)
    assert code == 0
    report = json.loads(out)
    transitions = {(tuple(t["source"]), tuple(t["target"])): t["exponents"]
                   for t in report["atlas"]["transitions"]}
    assert transitions[((2, 3), (1, 3))] == [["-1", "0"], ["-1", "1"]]
    assert report["verification"]["passed"]


def test_seed_from_environment(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("QUASIFOLD_SEED", "41")
    path = write_doc(tmp_path, gallery_json("quasisphere"))
    code, out, _ = run_cli(["validate", path, "--format", "json"], capsys)
    assert code == 0
    assert json.loads(out)["metadata"]["seed"] == 41


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        ["gallery", "quasisphere", "--format", "json", "--samples", "5",
         "--out", str(target)], capsys)
    assert code == 0
    assert out == ""
    jsonschema.validate(json.loads(target.read_text()),
                        load_report_schema())


def test_unwritable_out_exits_two(tmp_path):
    # a report that cannot be written is an input error, one line on
    # stderr, and never a traceback that exits 1 like a failed check
    target = tmp_path / "missing" / "report.txt"
    run = run_fresh(["gallery", "kite", "--samples", "5", "--out", str(target)])
    assert run.returncode == 2
    assert run.stderr.startswith(f"quasifold: error: cannot write {target}: ")
    assert run.stderr.count("\n") == 1
    assert "Traceback" not in run.stderr
    assert run.stdout == ""


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

def test_reports_byte_identical_across_processes():
    command = [sys.executable, "-m", "quasifold", "gallery", "cp2-11a",
               "--format", "text", "--seed", "5", "--samples", "25"]
    env = dict(os.environ, PYTHONHASHSEED="0")
    first = subprocess.run(command, capture_output=True, env=env)
    env["PYTHONHASHSEED"] = "42"
    second = subprocess.run(command, capture_output=True, env=env)
    assert first.returncode == 0 and second.returncode == 0
    assert first.stdout == second.stdout


def run_fresh(args, env=None, without_numpy=False):
    """Run the CLI in a new interpreter; numpy can be made unimportable."""
    code = ("import sys\n"
            + ('sys.modules["numpy"] = None\n' if without_numpy else "")
            + "from quasifold.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n")
    return subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, text=True,
                          env=dict(os.environ, **(env or {})))


def test_runtime_needs_no_numpy(tmp_path, capsys):
    cp2 = write_doc(tmp_path, gallery_json("cp2-11a"), "cp2-11a.json")
    hirzebruch = write_doc(tmp_path, gallery_json("hirzebruch"),
                           "hirzebruch.json")
    for argv in (["gallery", "kite", "--samples", "10"],
                 ["verify", cp2],
                 ["polytope", hirzebruch],
                 ["gallery", "dodecahedron", "--format", "json"]):
        fresh = run_fresh(argv, without_numpy=True)
        code, out, _ = run_cli(argv, capsys)
        assert (fresh.returncode, code) == (0, 0), (argv, fresh.stderr)
        assert fresh.stdout == out, argv
    probe = subprocess.run(
        [sys.executable, "-c",
         "import sys, quasifold.cli; print('numpy' in sys.modules)"],
        capture_output=True, text=True)
    assert probe.stdout == "False\n", probe.stderr


def test_draws_do_not_depend_on_the_hash_seed(tmp_path):
    # every generator is seeded from text, never from hash()
    cp2 = write_doc(tmp_path, gallery_json("cp2-11a"), "cp2-11a.json")
    for argv in (["gallery", "dodecahedron", "--format", "json", "--seed", "3"],
                 ["verify", cp2]):
        runs = [run_fresh(argv, env={"PYTHONHASHSEED": value})
                for value in ("0", "1")]
        assert [run.returncode for run in runs] == [0, 0], argv
        assert runs[0].stdout == runs[1].stdout, argv


def test_hirzebruch_matches_weighted_projective(capsys):
    # the {2,3} -> {1,3} chart change coincides across the two families
    outputs = []
    for name in ("cp2-11a", "hirzebruch"):
        code, out, _ = run_cli(
            ["gallery", name, "--format", "json", "--samples", "5"], capsys)
        assert code == 0
        report = json.loads(out)
        transitions = {(tuple(t["source"]), tuple(t["target"])): t
                       for t in report["atlas"]["transitions"]}
        outputs.append(transitions[((2, 3), (1, 3))])
    assert outputs[0]["exponents"] == outputs[1]["exponents"]
    assert outputs[0]["rendered"] == outputs[1]["rendered"]


# sha256 of the canonical JSON (sorted keys, no spaces) of the exact report
# sections of `gallery NAME --format json --seed 0`.  A change to the exact
# arithmetic must leave every rendered scalar, and so these digests, as is.
EXACT_SECTION_DIGESTS = {
    "quasisphere": {
        "validation": "83208a0c2d3fef5c063f75780cc7e6d477d1cdbf0b50900716b749d542002576",
        "polytope": "dce8395ed3ea6f5e653814223bdf39be77359e1c4da79afd3f44441182995eb9",
        "atlas": "c1e793625203c6bf39014b7785ef09272b7e1548eb1a50cf4bd6150e9e125fb9",
    },
    "cp2-11a": {
        "validation": "5a457499437fb308cbabef2ba07c087c66b42f649dbf75b2156f87fa3c53f75e",
        "polytope": "dc9ad11b955e743a681882ac500ee2878412039c6a2edeb877b893dff471c3f4",
        "atlas": "04641fdcf996356b78a137d3ccf1538ce68415d27e5c11c81e63e63a60f5b9f7",
    },
    "hirzebruch": {
        "validation": "4dd3cc4657c3f512082d97bd87eeaa62d8da721d29610f2170c152fe379de992",
        "polytope": "e1d09af2b302d41644b57fd61139981a5d011a28d680a4f01ab705436b1fe0c5",
        "atlas": "2d2690d9f31e97377b7ff08aded49460c6625a36665961ab2217bf577e931b74",
    },
    "kite": {
        "validation": "4dd3cc4657c3f512082d97bd87eeaa62d8da721d29610f2170c152fe379de992",
        "polytope": "80985fb74989fa41da432ede5162fc330e9de4fd257d30d060c5f5a24b4fb07c",
        "atlas": "9f56f0f5e3dbd0122054eb3982218900d31fd225fcb2325d98bb5e8d766befe5",
    },
    "dodecahedron": {
        "validation": "f6c566d1c700ffd617ef95941759a7362c01f227afadfad0a4b94211d095942b",
        "polytope": "bde9268048bb01d6f520b722165565e72c5f368ae7bee6ca304200b75a6dcb91",
        "atlas": "50a83cf68d54cca4f0d946ce6657f7194bb772c1b01a4dfcd5cea277574fb4bf",
    },
}


@pytest.mark.parametrize("name", sorted(EXACT_SECTION_DIGESTS))
def test_gallery_exact_sections_pinned(name, capsys):
    code, out, _ = run_cli(["gallery", name, "--format", "json",
                            "--seed", "0"], capsys)
    assert code == 0
    report = json.loads(out)
    digests = {
        section: hashlib.sha256(json.dumps(
            report[section], sort_keys=True,
            separators=(",", ":")).encode()).hexdigest()
        for section in EXACT_SECTION_DIGESTS[name]}
    assert digests == EXACT_SECTION_DIGESTS[name]


# sha256 of the whole stdout of each command, in both formats, at
# `--seed 0` (and `--samples 10` where the command verifies).  Text
# rendering, the transition command and the verification numbers are all
# covered, so a refactor must leave every report byte as is.
FULL_REPORT_COMMANDS = {
    "validate": ("cp2-11a", ["validate", "{path}"]),
    "atlas": ("cp2-11a", ["atlas", "{path}"]),
    "transition": ("cp2-11a", ["transition", "{path}", "--from", "2,3",
                               "--to", "1,3"]),
    "verify": ("cp2-11a", ["verify", "{path}", "--samples", "10"]),
    "polytope": ("hirzebruch", ["polytope", "{path}"]),
    "gallery": (None, ["gallery", "kite", "--samples", "10"]),
    # number-field verification bytes: factorization reads the kernel rows
    "gallery-dodecahedron": (None, ["gallery", "dodecahedron"]),
    # a parameter-field atlas of 16 charts and 240 chart changes
    "atlas-param-fan": ("param-fan", ["atlas", "{path}"]),
}
FULL_REPORT_DIGESTS = {
    ("validate", "json"):
        "b0d3981346780de7dade39b2fa6bac7f34a327dc97ca8b4d9f1142d1bff393d8",
    ("validate", "text"):
        "9deed9641cbba6e29d06cdacb65a263ae355c4978da04044411812a000f85ae9",
    ("atlas", "json"):
        "8017f6276b6a5e03beaabcf4b4bc27baeb8f743100bfbe6ec6a932a733cdca40",
    ("atlas", "text"):
        "a110ffb8e2ddd445697f1420b30879363f91f408fe39ad4d467ea451757e61ea",
    ("transition", "json"):
        "fad7409ac4fa57c5bea339e12f34b84f94592fe62f519e9389f4e0c0c6a232c4",
    ("transition", "text"):
        "77626e43689c413a07281f488704d21b84852b9959e787c6ee85dfdde2485538",
    ("verify", "json"):
        "612a3e2259bbed7c6a32ac4120d5153623502413ce433ca1c618fbf6f67a8efd",
    ("verify", "text"):
        "c66e7fd73a94cf0f19fd8c600b72e7eff3a91c21d5a587368a40d10e6f0ce87a",
    ("polytope", "json"):
        "4c134e828739657d3847da2de6fdc8e9249345cc4a7bdccddf6091f795c84cfc",
    ("polytope", "text"):
        "93cfbad53c1c6f9601b3b542594c1125d7291b2449eb7b96a5b377c906ac0190",
    ("gallery", "json"):
        "1da48abe6bb92d77ff28ddea4ddba8a9e0ac0f0742efad33c9e1d3a755f222ee",
    ("gallery", "text"):
        "93b588e76a592a683c593abc5e84835375679e2218cf000836a9031733974cd4",
    ("gallery-dodecahedron", "json"):
        "07fa59aeabaca68a8d38d4a245378f2b65de8afc3093e86f9a7549b5f6fbe003",
    ("gallery-dodecahedron", "text"):
        "8c6f5c8d1178c3987e87817041691af3044a3fc4a93af479b119dfd11279c5d8",
    ("atlas-param-fan", "json"):
        "bbdaae1d34800f82f5fca887ad8db7f09892efb4820a53b2d98d45c7fda8fe47",
    ("atlas-param-fan", "text"):
        "6c9eb742eaf4aa8352178f7773a06dfd7b1e48fc1d6c5501768d4a708c1bf578",
}


@pytest.mark.parametrize("command, fmt", sorted(FULL_REPORT_DIGESTS))
def test_full_reports_pinned(command, fmt, tmp_path, capsys):
    document, argv = FULL_REPORT_COMMANDS[command]
    path = None
    if document:
        data = (param_fan_doc() if document == "param-fan"
                else gallery_json(document))
        path = write_doc(tmp_path, data, f"{document}.json")
    argv = [path if part == "{path}" else part for part in argv]
    code, out, _ = run_cli(argv + ["--format", fmt, "--seed", "0"], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        FULL_REPORT_DIGESTS[command, fmt]
