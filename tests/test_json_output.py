"""The command line's JSON writer: the bytes of ``json.dumps(indent=2, sort_keys=True)``."""

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from aperykit.cli import _json_text, main

scalars = st.none() | st.booleans() | st.integers() | st.integers(min_value=10**30) | st.text()
values = st.recursive(
    scalars,
    lambda inner: st.lists(inner)
    | st.lists(inner).map(tuple)
    | st.lists(st.integers())
    | st.dictionaries(st.text(), inner),
    max_leaves=40,
)


def dumps(value):
    return json.dumps(value, indent=2, sort_keys=True)


@given(values)
def test_matches_json_dumps(value):
    assert _json_text(value) == dumps(value)


@pytest.mark.parametrize(
    "value",
    [
        {},
        [],
        (),
        {"a": [], "b": {}, "c": [[]], "d": [{}]},
        {"10": 1, "9": 2, "": 3, "B": 4, "a": 5},
        [True, 1, False, 0, None],
        [1, True],
        [2**200, -(2**70), 0, -1],
        "café ñ \U0001f600 \"quoted\" back\\slash \n\t\r\x00\x1f\x7f",
        {"é": "☃", "tab\t": ["\x08", "\x0c"]},
        {"representations": {"0": [0, 0, 0], "12": [0, 1, 1]}, "orders": ["lex"]},
    ],
)
def test_edge_values(value):
    assert _json_text(value) == dumps(value)


@pytest.mark.parametrize("value", [1.5, [1, 2.0], {1, 2}, {1: 2}, {"a": {None: 1}}, b"x"])
def test_rejects_what_reports_never_hold(value):
    with pytest.raises(TypeError):
        _json_text(value)


JSON_ARGVS = [
    ["analyze", "--gens", "2,3"],
    ["analyze", "--gens", "7,9,11"],
    ["analyze", "--gens", "1"],
    ["apery", "--gens", "7,8,9,13", "--wrt", "13"],
    ["apery", "--gens", "7,9,11,15", "--wrt", "7"],
    ["apery", "--gens", "7,8,9,13", "--wrt", "13", "--dump-basis"],
    ["apery", "--gens", "7,8,9,13", "--wrt", "13",
     "--order", "apery:j=4,inner=1-3-2,revlex", "--dump-basis"],
    ["apery", "--gens", "5,7,9", "--wrt", "9", "--strategy", "scan"],
    ["typeset", "--gens", "3,7,11"],
    ["typeset", "--gens", "7,8,9,13"],
    ["affine", "--dim", "2", "--gens", "2,0;1,1;0,2", "--lambda", "1,3"],
    ["affine", "--dim", "2", "--gens", "2,0;1,1;0,2;1,2", "--lambda", "1,3,4"],
    ["hasse", "--gens", "3,7,11", "--wrt", "11", "--format", "json"],
    ["staircase", "--gens", "7,9,11", "--axes", "y1,y2", "--fix", "x=2,y3=0",
     "--extent", "4,3"],
]


@pytest.mark.parametrize("argv", JSON_ARGVS, ids=" ".join)
def test_cli_stdout_is_canonical_json(argv, capsys):
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out == dumps(json.loads(out)) + "\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["apery", "--gens", "5,7,9", "--wrt", "8", "--format", "json"],
        ["typeset", "--gens", "3,7,11", "--order", "lex", "--format", "json"],
        ["analyze", "--gens", "4,6", "--format", "json"],
    ],
    ids=" ".join,
)
def test_cli_errors_stay_compact(argv, capsys):
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == json.dumps(json.loads(err)) + "\n"


def test_analyze_bytes(capsys):
    assert main(["analyze", "--gens", "3,7,11"]) == 0
    assert capsys.readouterr().out == (
        '{\n  "frobenius": 8,\n  "gaps": [\n    1,\n    2,\n    4,\n    5,\n    8\n  ],\n'
        '  "generators": [\n    3,\n    7,\n    11\n  ],\n  "genus": 5,\n'
        '  "gorenstein": false,\n  "symmetric": false\n}\n'
    )


def test_hasse_bytes(capsys):
    assert main(["hasse", "--gens", "3,7,11", "--format", "text"]) == 0
    assert capsys.readouterr().out == (
        "0 -> 3\n0 -> 7\n3 -> 6\n3 -> 10\n6 -> 9\n6 -> 13\n7 -> 10\n9 -> 12\n"
        "9 -> 16\n10 -> 13\n12 -> 15\n12 -> 19\n13 -> 16\n16 -> 19\nsinks: [15, 19]\n"
    )
    assert main(["hasse", "--gens", "3,7,11"]) == 0
    nodes = [0, 3, 6, 7, 9, 10, 12, 13, 15, 16, 19]
    edges = [(0, 3), (0, 7), (3, 6), (3, 10), (6, 9), (6, 13), (7, 10), (9, 12),
             (9, 16), (10, 13), (12, 15), (12, 19), (13, 16), (16, 19)]
    assert capsys.readouterr().out == "".join(
        ["digraph apery {\n  rankdir=LR;\n"]
        + [f'  "{n}";\n' for n in nodes]
        + [f'  "{x}" -> "{y}";\n' for x, y in edges]
        + ["}\n"]
    )
