"""Command-line surface: formats, exit codes, round-trips, rendering."""

import json

import pytest

from aperykit.cli import main, render_staircase
from aperykit.errors import BadAxesError
from aperykit.groebner import buchberger, ideal_generators
from aperykit.orders import lex_order
from aperykit.semigroup import NumericalSemigroup


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


class TestAnalyze:
    def test_trivial_monoid(self, capsys):
        report = run_json(capsys, "analyze", "--gens", "2,3")
        assert report["frobenius"] == 1
        assert report["genus"] == 1
        assert report["gorenstein"] is True

    def test_text_format(self, capsys):
        code, out, _ = run(capsys, "analyze", "--gens", "3,7,11", "--format", "text")
        assert code == 0
        assert "frobenius: 8" in out
        assert "genus: 5" in out


class TestApery:
    def test_published_set(self, capsys):
        report = run_json(capsys, "apery", "--gens", "7,8,9,13", "--wrt", "13")
        assert report["apery"] == [0, 7, 8, 9, 14, 15, 16, 17, 18, 23, 24, 25, 32]
        assert report["wrt"] == 13

    def test_report_invariants_round_trip(self, capsys):
        report = run_json(capsys, "apery", "--gens", "7,9,11,15", "--wrt", "7")
        elements = report["apery"]
        assert len(elements) == report["wrt"]
        assert len({e % report["wrt"] for e in elements}) == report["wrt"]
        gens = report["generators"]
        for key, rep in report["representations"].items():
            degree = rep[0] + sum(e * a for e, a in zip(rep[1:], gens))
            assert degree == int(key)

    def test_explicit_order_and_basis_dump(self, capsys):
        report = run_json(
            capsys,
            "apery", "--gens", "7,8,9,13", "--wrt", "13",
            "--order", "apery:j=4,inner=1-3-2,revlex", "--dump-basis",
        )
        assert report["orders"] == ["apery:j=4,inner=1-3-2,revlex"]
        assert len(report["basis"]["elements"]) == 14
        for element in report["basis"]["elements"]:
            assert set(element) == {"lead", "trail"}

    def test_direct_strategy(self, capsys):
        scan = run_json(capsys, "apery", "--gens", "5,7,9", "--wrt", "9")
        direct = run_json(
            capsys, "apery", "--gens", "5,7,9", "--wrt", "9", "--strategy", "direct"
        )
        assert scan["apery"] == direct["apery"]

    @pytest.mark.parametrize("gens,wrt", [("5,7,9", "9"), ("7,9,11,13,15", "11")])
    def test_scan_strategy_matches_default(self, capsys, gens, wrt):
        default = run_json(capsys, "apery", "--gens", gens, "--wrt", wrt)
        scan = run_json(capsys, "apery", "--gens", gens, "--wrt", wrt, "--strategy", "scan")
        assert scan["apery"] == default["apery"]
        assert scan["representations"] == default["representations"]

    def test_wrt_must_be_a_generator(self, capsys):
        code, _, err = run(capsys, "apery", "--gens", "5,7,9", "--wrt", "8")
        assert code == 1
        assert "error" in err

    def test_json_error_payload(self, capsys):
        code, _, err = run(
            capsys, "apery", "--gens", "5,7,9", "--wrt", "8", "--format", "json"
        )
        assert code == 1
        payload = json.loads(err)
        assert payload["kind"] == "user"


class TestTypeset:
    def test_published_report(self, capsys):
        report = run_json(capsys, "typeset", "--gens", "3,7,11")
        assert report["type_set"] == [15, 19]
        assert report["pf"] == [4, 8]
        assert report["gorenstein"] is False
        assert len(report["extremal"]) == 2

    def test_extra_order_appears(self, capsys):
        # typeset intersects the k-1 rotations only; --order is not one of its options
        code, out, err = run(
            capsys,
            "typeset", "--gens", "7,8,9,13",
            "--order", "apery:j=4,inner=1-2-3,lex", "--format", "json",
        )
        assert code == 1 and out == ""
        payload = json.loads(err)
        assert payload["kind"] == "user"
        assert "unrecognized arguments" in payload["error"]
        report = run_json(capsys, "typeset", "--gens", "7,8,9,13")
        assert report["type_set"] == [32]
        assert len(report["extremal"]) == 3

    def test_non_apery_order_is_a_user_error(self, capsys):
        code, _, err = run(
            capsys, "typeset", "--gens", "3,7,11", "--order", "lex", "--format", "json"
        )
        assert code == 1
        assert json.loads(err)["kind"] == "user"
        code, _, err = run(
            capsys, "apery", "--gens", "3,7,11", "--wrt", "11", "--order", "lex",
            "--format", "json",
        )
        assert code == 1
        payload = json.loads(err)
        assert payload["kind"] == "user"
        assert "apery:" in payload["error"]


class TestAffine:
    def test_two_dimensional_example(self, capsys):
        report = run_json(
            capsys,
            "affine", "--dim", "2", "--gens", "2,0;1,1;0,2", "--lambda", "1,3",
        )
        assert report["apery"] == [[0, 0], [1, 1]]
        assert report["lambda"] == [1, 3]

    def test_cone_mismatch_is_a_user_error(self, capsys):
        code, _, err = run(
            capsys, "affine", "--dim", "2", "--gens", "1,0;1,1", "--lambda", "2"
        )
        assert code == 1
        assert "cone" in err.lower()


class TestHasse:
    def test_dot_output(self, capsys):
        code, out, _ = run(capsys, "hasse", "--gens", "3,7,11", "--wrt", "11")
        assert code == 0
        assert out.startswith("digraph")
        assert '"12" -> "15";' in out

    def test_json_sinks(self, capsys):
        report = run_json(
            capsys, "hasse", "--gens", "3,7,11", "--wrt", "11", "--format", "json"
        )
        assert report["sinks"] == [15, 19]


class TestStaircase:
    def basis(self):
        S = NumericalSemigroup([7, 9, 11])
        order = lex_order(4)
        return buchberger(ideal_generators(S, order), order)

    def test_published_slice(self, capsys):
        code, out, _ = run(
            capsys,
            "staircase", "--gens", "7,9,11", "--axes", "y1,y2",
            "--fix", "x=2,y3=0", "--extent", "4,3", "--format", "text",
        )
        assert code == 0
        rows = [line[4:].replace(" ", "") for line in out.splitlines()[1:4]]
        assert rows == ["####", "####", "o###"]

    def test_ceiling_slice_is_solid(self, capsys):
        code, out, _ = run(
            capsys,
            "staircase", "--gens", "7,9,11", "--axes", "y1,y2",
            "--fix", "x=7,y3=0", "--extent", "4,4", "--format", "text",
        )
        assert code == 0
        assert "o" not in out.splitlines()[1]

    def test_render_requires_two_free_axes(self):
        basis = self.basis()
        with pytest.raises(BadAxesError):
            render_staircase(basis, {0: 2, 3: 0}, (1, 1), (4, 4))
        with pytest.raises(BadAxesError):
            render_staircase(basis, {0: 2, 1: 0}, (1, 2), (4, 4))

    def test_empty_corner_set_renders_all_complement(self):
        from aperykit.groebner import GroebnerBasis

        basis = GroebnerBasis(order=lex_order(4), pairs=())
        text = render_staircase(basis, {0: 0, 3: 0}, (1, 2), (3, 3))
        assert "#" not in text

    def test_bad_axes_exit_code(self, capsys):
        code, _, err = run(
            capsys, "staircase", "--gens", "7,9,11", "--axes", "y1", "--format", "text"
        )
        assert code == 1

    def test_negative_fixed_exponent_is_a_user_error(self, capsys):
        code, out, err = run(
            capsys, "staircase", "--gens", "7,9,11", "--axes", "y1,y2", "--fix", "x=-1"
        )
        assert code == 1 and out == ""
        assert "nonnegative" in json.loads(err)["error"]


class TestVerify:
    def test_deterministic_runs(self, capsys):
        code1, out1, _ = run(
            capsys, "verify", "--count", "4", "--seed", "9", "--format", "text"
        )
        code2, out2, _ = run(
            capsys, "verify", "--count", "4", "--seed", "9", "--format", "text"
        )
        assert code1 == code2 == 0
        assert out1 == out2
        assert "passed 4/4 suites" in out1


class TestUsage:
    def test_unknown_command_exits_1(self, capsys):
        code, _, _ = run(capsys, "frobenify", "--gens", "2,3")
        assert code == 1

    def test_bad_generators_exit_1(self, capsys):
        code, _, err = run(capsys, "analyze", "--gens", "4,6")
        assert code == 1
        assert "gcd" in err


class TestDumpBasis:
    CASES = [
        ("7,8,9,13", "13", None),
        ("7,8,9,13", "13", "apery:j=4,inner=1-3-2,revlex"),
        ("5,7,9", "7", None),
    ]

    @pytest.mark.parametrize("gens,wrt,order", CASES)
    def test_one_buchberger_run_and_the_same_report(self, capsys, monkeypatch, gens, wrt, order):
        import aperykit.apery
        import aperykit.cli
        from aperykit.orders import parse_order_descriptor

        calls = []

        def counted(*args, **kwargs):
            calls.append(args[1].label)
            return buchberger(*args, **kwargs)

        monkeypatch.setattr(aperykit.cli, "buchberger", counted)
        monkeypatch.setattr(aperykit.apery, "buchberger", counted)
        argv = ["apery", "--gens", gens, "--wrt", wrt] + (["--order", order] if order else [])
        dumped = run_json(capsys, *argv, "--dump-basis")
        assert len(calls) == 1
        plain = run_json(capsys, *argv)
        assert len(calls) == 2

        S = NumericalSemigroup([int(a) for a in gens.split(",")])
        spec = parse_order_descriptor(dumped["orders"][0], S.generators)
        # the reduced basis is unique, so the slower strategy must agree
        ref = buchberger(ideal_generators(S, spec), spec, strategy="normal")
        assert dumped.pop("basis") == {
            "order": spec.label,
            "elements": [{"lead": list(b.lead), "trail": list(b.trail)} for b in ref.elements],
        }
        assert dumped == plain
