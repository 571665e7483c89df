"""CLI paths beyond tests/test_cli.py: the homology sweep, text Hasse
output, JSON staircases and the bounds on a staircase's extent."""

import json

import pytest

from aperykit.cli import main, render_staircase
from aperykit.errors import ScanLimitError
from aperykit.groebner import buchberger, ideal_generators
from aperykit.orders import lex_order
from aperykit.semigroup import NumericalSemigroup, hasse_diagram, pf_bruteforce


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


STAIRCASE = ("staircase", "--gens", "7,9,11", "--axes", "y1,y2")


def lex_basis(S):
    order = lex_order(len(S.generators) + 1)
    return buchberger(ideal_generators(S, order), order)


def test_verify_with_the_homology_suite(capsys):
    code, out, _ = run(capsys, "verify", "--count", "4", "--seed", "1", "--homology")
    assert code == 0
    assert "ok pf: homology vs definition" in out.splitlines()
    assert out.splitlines()[-1] == "passed 5/5 suites on 4 monoids (seed 1)"


def test_hasse_text_lists_edges_and_sinks(capsys):
    S = NumericalSemigroup([3, 7, 11])
    code, out, _ = run(capsys, "hasse", "--gens", "3,7,11", "--format", "text")
    assert code == 0
    lines = out.splitlines()
    assert lines[:-1] == [f"{x} -> {y}" for x, y in hasse_diagram(S, 11)]
    # the sinks are the maximal Apery elements, PF(S) + 11
    assert lines[-1] == f"sinks: {[f + 11 for f in pf_bruteforce(S)]}"


def test_staircase_json_is_the_rendered_grid(capsys):
    code, out, _ = run(capsys, *STAIRCASE, "--extent", "3,4", "--format", "json")
    assert code == 0
    basis = lex_basis(NumericalSemigroup([7, 9, 11]))
    text = render_staircase(basis, {0: 0, 3: 0}, (1, 2), (3, 4))
    assert json.loads(out) == {"grid": text.splitlines(), "order": "lex"}


@pytest.mark.parametrize("extent", ["-3,2", "0,5", "4,0"])
def test_extent_must_be_positive(capsys, extent):
    code, out, err = run(capsys, *STAIRCASE, f"--extent={extent}", "--format", "json")
    assert code == 1 and out == ""
    assert json.loads(err) == {"error": f"extent must be positive, got {extent}", "kind": "user"}
    code, _, err = run(capsys, *STAIRCASE, f"--extent={extent}", "--format", "text")
    assert code == 1
    assert err == f"error: extent must be positive, got {extent}\n"


@pytest.mark.parametrize(
    "option, value, message",
    [
        ("--fix", "y3", "--fix takes name=integer pairs, e.g. x=2,y3=0; got 'y3'"),
        ("--fix", "y3=a", "--fix takes name=integer pairs, e.g. x=2,y3=0; got 'y3=a'"),
        ("--fix", "x=1,y3=", "--fix takes name=integer pairs, e.g. x=2,y3=0; got 'y3='"),
        ("--fix", "yb=2", "unknown variable 'yb'"),
        ("--extent", "3", "--extent takes two integers width,height; got '3'"),
        ("--extent", "1,2,3", "--extent takes two integers width,height; got '1,2,3'"),
        ("--extent", "3,x", "--extent takes two integers width,height; got '3,x'"),
    ],
)
def test_malformed_fix_and_extent_name_the_option(capsys, option, value, message):
    code, out, err = run(capsys, *STAIRCASE, f"{option}={value}", "--format", "json")
    assert code == 1 and out == ""
    assert json.loads(err) == {"error": message, "kind": "user"}
    code, _, err = run(capsys, *STAIRCASE, f"{option}={value}", "--format", "text")
    assert code == 1
    assert err == f"error: {message}\n"


def test_extent_is_bounded_by_the_scan_limit(capsys, monkeypatch):
    monkeypatch.setenv("APERYKIT_MAX_SCAN", "40")
    code, _, err = run(capsys, *STAIRCASE, "--extent", "1000,1000", "--format", "json")
    assert code == 1
    assert json.loads(err) == {
        "error": "1000x1000 grid exceeds APERYKIT_MAX_SCAN=40",
        "kind": "user",
    }
    code, out, _ = run(capsys, *STAIRCASE, "--extent", "5,8", "--format", "json")
    assert code == 0 and len(json.loads(out)["grid"]) == 10


def test_generators_past_the_scan_bound_exit_1(capsys):
    gens = ("--gens", "99999999999,100000000000")
    code, out, err = run(capsys, "analyze", *gens, "--format", "json")
    assert (code, out) == (1, "")
    assert json.loads(err) == {
        "error": "generator 100000000000 exceeds the scan bound 10000000",
        "kind": "user",
    }
    code, _, err = run(capsys, "apery", "--gens", "3,5,99999999999999999999", "--wrt", "3")
    assert code == 1 and "exceeds the scan bound" in err


def test_direct_readoff_reads_the_scan_budget(capsys, monkeypatch):
    monkeypatch.setenv("APERYKIT_MAX_SCAN", "1000")
    gens = ("--gens", "1009,1201,1307,1409,1511,1613,1709,1801,1901", "--wrt", "1901")
    for strategy in ("direct", "scan"):
        code, out, err = run(capsys, "apery", *gens, "--strategy", strategy, "--format", "json")
        assert (code, out) == (1, "")
        assert json.loads(err)["error"] == "Apery scan exceeded APERYKIT_MAX_SCAN=1000"


def test_render_staircase_rejects_bad_extents(monkeypatch):
    basis = lex_basis(NumericalSemigroup([7, 9, 11]))
    with pytest.raises(ValueError, match="extent must be positive"):
        render_staircase(basis, {0: 0, 3: 0}, (1, 2), (-3, 2))
    monkeypatch.setenv("APERYKIT_MAX_SCAN", "15")
    assert render_staircase(basis, {0: 0, 3: 0}, (1, 2), (3, 5))
    with pytest.raises(ScanLimitError):
        render_staircase(basis, {0: 0, 3: 0}, (1, 2), (4, 4))


def test_affine_x_order_option_is_gone(capsys):
    code, out, err = run(
        capsys, "affine", "--dim", "1", "--gens", "3;5", "--lambda", "1",
        "--x-order", "lex", "--format", "json",
    )
    assert code == 1 and out == ""
    assert json.loads(err)["kind"] == "user"
