"""``render_json_report`` writes exactly the string
``json.dumps(report, indent=2, sort_keys=True)`` returns."""

import json
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from quasifold import GALLERY_NAMES, cli
from quasifold.documents import render_json_report


def dumps(value):
    return json.dumps(value, indent=2, sort_keys=True)


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


@pytest.mark.parametrize("name", GALLERY_NAMES)
def test_writer_matches_json_dumps_on_gallery_reports(name, monkeypatch,
                                                      capsys):
    reports = []

    def render(report):
        reports.append(report)
        return render_json_report(report)
    monkeypatch.setattr(cli, "render_json_report", render)
    code = cli.main(["gallery", name, "--format", "json", "--seed", "0",
                     "--samples", "10"])
    assert code == 0
    (report,) = reports
    assert capsys.readouterr().out == dumps(report) + "\n"
