"""``render_json_report`` writes exactly the string
``json.dumps(report, indent=2, sort_keys=True)`` returns, where a report's
``Transitions`` table stands for the list of its ``transition_section``
dicts."""

import collections
import importlib.util
import itertools
import json
import math
import os
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from quasifold import (GALLERY_NAMES, Atlas, RationalDomain, cli, documents,
                       document_to_triple, load_document, load_gallery,
                       term_texts)
from quasifold.documents import Transitions, atlas_section, render_json_report


def dumps(value, **options):
    return json.dumps(value, indent=2, sort_keys=True, **options)


# json prints the value of a subclass, not its repr or str
class Text(str):
    def __str__(self):
        return "text"


class Int(int):
    def __repr__(self):
        return "int"
    __str__ = __repr__


class Float(float):
    def __repr__(self):
        return "float"
    __str__ = __repr__


class Object(dict):
    # json reads a dict subclass through items()
    def __getitem__(self, key):
        return None


# every code point, lone surrogates, quotes, backslashes and controls included
texts = st.text(st.characters(exclude_categories=()), max_size=8)
integers = st.one_of(st.integers(),
                     st.integers(min_value=2 ** 64, max_value=2 ** 200),
                     st.integers(min_value=-2 ** 200, max_value=-2 ** 64))
floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([-0.0, 0.0, 5e-324, -2.2250738585072014e-308, math.nan,
                     math.inf, -math.inf, 1e16, 1e-7]))
keys = st.one_of(texts, texts.map(Text),
                 st.sampled_from(["", "a", "A", "\"", "\\", "\x00", "\udc80",
                                  "é", "ß", "\U0001f600"]))
scalars = st.one_of(st.none(), st.booleans(), integers, floats, texts,
                    texts.map(Text), integers.map(Int), floats.map(Float))


def containers(children):
    dicts = st.dictionaries(keys, children, max_size=5)
    return st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        dicts,
        dicts.map(Object),
        # one key set in two insertion orders
        dicts.map(lambda d: [d, dict(reversed(list(d.items())))]),
        # the one-join lists, and ints mixed with bools in one list
        st.lists(texts, min_size=1, max_size=5),
        st.lists(integers, min_size=1, max_size=5),
        st.lists(st.one_of(integers, st.booleans()), min_size=2, max_size=5),
    )


trees = st.recursive(scalars, containers, max_leaves=24)


def nested(tree):
    """The tree at depth 5: a dict, a list, a dict, a list, a tuple."""
    return {"outer": [{"inner": [(tree,)]}], "z": []}


@given(st.one_of(trees, trees.map(nested)))
def test_writer_matches_json_dumps(tree):
    assert render_json_report(tree) == dumps(tree)


def test_writer_refuses_keys_that_are_not_strings_and_unencodable_values():
    # json.dumps would write the int key as "1"; no report has one
    with pytest.raises(TypeError):
        render_json_report({"a": {1: "b"}})
    with pytest.raises(TypeError):
        render_json_report({"a": [{1, 2}]})


# the texts of ``Transitions`` tables, escapes included; a factor of "" is
# left out of its monomial, and a row of them all renders as "1"
words = st.sampled_from(["", "0", "1", "z", "z2^-a", "(a + 1)/2", "é", "\"",
                         "\\", "\x00", "\udc80", "z1^(\"é\")"])


@st.composite
def tables(draw):
    """1 to 4 cones of n <= 3 rays among d <= n + 2, each with n term rows."""
    n = draw(st.integers(1, 3))
    d = draw(st.integers(n, n + 2))
    cones = draw(st.lists(st.sampled_from(list(itertools.combinations(
        range(1, d + 1), n))), min_size=1, max_size=4, unique=True))
    rows = st.lists(st.tuples(words, words), min_size=d, max_size=d)
    return Transitions(sorted(cones), {cone: draw(st.lists(
        rows, min_size=n, max_size=n)) for cone in cones})


# fan dimension 1 names its factor z, and the target row is 1, 0, 2 at
# every source's column: the monomials z, 1 and z^2
LINE_TERMS = term_texts(RationalDomain(), [
    [RationalDomain().scalar(x).payload for x in (1, 0, 2)]], 1)


@given(tables())
@example(Transitions([(1,), (2,), (3,)], dict.fromkeys([(1,), (2,), (3,)], LINE_TERMS)))
def test_writer_matches_json_dumps_on_transition_tables(table):
    transitions = list(table)
    assert len(table) == len(transitions)
    assert all(type(t) is dict for t in transitions)
    for value in (table, {"transitions": table}, [{"atlas": {"transitions": table}}]):
        assert render_json_report(value) == dumps(value, default=list)


def plain(report):
    """The report with its atlas section's transitions the list of their
    dicts: the form ``atlas_section`` returns."""
    transitions = list(report["atlas"]["transitions"])
    assert all(type(t) is dict for t in transitions)
    return {**report, "atlas": {**report["atlas"], "transitions": transitions}}


def rendered_report(argv, monkeypatch, capsys):
    """The report ``cli.main(argv)`` hands the JSON writer, and stdout."""
    reports = []

    def render(report):
        reports.append(report)
        return render_json_report(report)
    monkeypatch.setattr(cli, "render_json_report", render)
    code = cli.main(argv)
    assert code == 0
    (report,) = reports
    return report, capsys.readouterr().out


def assert_same_text(out, expected):
    """``out == expected``, failing with their first difference: pytest's
    own diff of two megabyte reports takes minutes."""
    if out != expected:
        at = len(os.path.commonprefix([out, expected]))
        pytest.fail(f"first difference at character {at}: "
                    f"{out[at - 60:at + 60]!r} != {expected[at - 60:at + 60]!r}")


def assert_plain_data(report, out, doc):
    """stdout is json.dumps of the plain report, whose atlas section is
    ``atlas_section``'s."""
    report = plain(report)
    assert_same_text(out, dumps(report) + "\n")
    triple, _ = document_to_triple(doc)
    assert report["atlas"] == atlas_section(triple, Atlas.compile(triple))


@pytest.mark.parametrize("name", GALLERY_NAMES)
def test_writer_matches_json_dumps_on_gallery_reports(name, monkeypatch,
                                                      capsys):
    report, out = rendered_report(["gallery", name, "--format", "json", "--seed",
                                   "0", "--samples", "10"], monkeypatch, capsys)
    assert_plain_data(report, out, load_gallery(name))


def perfbench_inputs():
    spec = importlib.util.spec_from_file_location(
        "perfbench_inputs", Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    return inputs


# one cone over Q(b), b = sqrt(2): an atlas without transitions
ONE_CONE = {
    "domain": {"kind": "number_field", "min_poly": ["-2", "0", "1"],
               "generator_symbol": "b", "embedding_approx": "1.41421356237"},
    "quasilattice": {"generators": [["1", "0", "b"], ["0", "1", "1"]]},
    "fan": {"rays": [["1", "0"], ["0", "1"]], "max_cones": [[1, 2]]},
}
# the two rays of the line: factors named z, each transition an h = n
# dense-orbit extension
LINE = {
    "domain": {"kind": "rational"},
    "quasilattice": {"generators": [["1"]]},
    "fan": {"rays": [["1"], ["-1"]], "max_cones": [[1], [2]]},
}
DOCUMENTS = {
    "param-fan": lambda inputs: inputs.param_fan(),
    "param-fan-seeded": lambda inputs: inputs.param_fan(inputs.unimodular(7)),
    "polytope-60": lambda inputs: inputs.polytope60(),
    "one-cone": lambda inputs: ONE_CONE,
    "line": lambda inputs: LINE,
}


@pytest.mark.parametrize("name", DOCUMENTS)
def test_writer_matches_json_dumps_on_atlas_reports(name, tmp_path, monkeypatch,
                                                    capsys):
    data = DOCUMENTS[name](perfbench_inputs())
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(data))
    report, out = rendered_report(["atlas", str(path), "--format", "json"],
                                  monkeypatch, capsys)
    assert_plain_data(report, out, load_document(data))
    transitions = json.loads(out)["atlas"]["transitions"]
    if name == "one-cone":
        assert '"transitions": []' in out and transitions == []
    if name == "line":
        assert [(t["rendered"], t["h"], t["scope"]) for t in transitions] == [
            ("[z^-1]", 1, "dense-orbit extension")] * 2


def test_json_atlas_joins_transitions_from_per_chart_texts(tmp_path, monkeypatch,
                                                           capsys):
    # the 16-cone param fan's 240 transitions are written from the term
    # texts of each chart, read once; no transition dict is built
    path = tmp_path / "param-fan.json"
    path.write_text(json.dumps(perfbench_inputs().param_fan()))
    calls = collections.Counter()
    for owner, name in ((documents, "transition_section"), (Atlas, "terms")):
        def counted(*args, _name=name, _original=getattr(owner, name)):
            calls[_name] += 1
            return _original(*args)
        monkeypatch.setattr(owner, name, counted)
    assert cli.main(["atlas", str(path), "--format", "json"]) == 0
    assert len(json.loads(capsys.readouterr().out)["atlas"]["transitions"]) == 240
    assert calls == {"terms": 16}
