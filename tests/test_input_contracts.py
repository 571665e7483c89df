"""Bad input and a vanishing reader end cleanly: exit 1, never a traceback."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import aperykit
from aperykit.affine import AffineMonoid, affine_members_bruteforce, apery_affine
from aperykit.apery import apery_delta, classify, extremal_set, gaps_via_groebner
from aperykit.cli import main, render_staircase
from aperykit.errors import BadAxesError
from aperykit.groebner import buchberger, ideal_generators
from aperykit.homology import build_delta
from aperykit.orders import OrderSpec, apery_order, block_lambda_order, lex_order
from aperykit.sampling import random_semigroup
from aperykit.semigroup import NumericalSemigroup, contains, gaps, typeset_bruteforce

SRC = str(Path(aperykit.__file__).resolve().parent.parent)


def test_closed_stdout_exits_1_with_nothing_on_stderr():
    # about 90 KB of JSON, more than a pipe holds, so the writer sees the close
    argv = [sys.executable, "-m", "aperykit.cli", "apery",
            "--gens", "1009,1201,1307", "--wrt", "1307", "--format", "json"]
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.Popen(
        argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, bufsize=0, env=env
    )
    head = proc.stdout.read(100)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert head.startswith(b"{")
    assert err == b""


@pytest.mark.parametrize("count", ["0", "-3"])
def test_verify_count_below_1_is_a_user_error(capsys, count):
    code = main(["verify", "--count", count, "--format", "json"])
    captured = capsys.readouterr()
    assert code == 1
    assert "passed" not in captured.out
    payload = json.loads(captured.err)
    assert payload["kind"] == "user"
    assert "--count" in payload["error"]


def test_apery_delta_rejects_a_basis_built_for_other_weights():
    # both orderings carry the label apery:j=4,inner=1-2-3,lex; only the
    # grading row differs
    other = (7, 8, 10, 13)
    order = apery_order(4, 4, other)
    basis = buchberger(ideal_generators(NumericalSemigroup(other), order), order)
    S = NumericalSemigroup((7, 8, 9, 13))
    assert apery_order(4, 4, S.generators).label == order.label
    with pytest.raises(ValueError, match="weight rows"):
        apery_delta(S, 4, basis=basis)


def basis_of(gens, order):
    return buchberger(ideal_generators(NumericalSemigroup(gens), order), order)


def lex_basis(gens):
    return basis_of(gens, lex_order(len(gens) + 1))


def read_off(method, S, basis):
    """One read-off of ``basis`` for S, by ``apery_delta`` (direct or scan) or a scan of x^l."""
    if method == "classify":
        return [classify(S, l, basis).in_monoid for l in range(3 * S.generators[-1])]
    if method == "gaps":
        return gaps_via_groebner(S, basis)
    return apery_delta(S, len(S.generators), method=method, basis=basis)


def oracle(method, S):
    if method == "classify":
        return [contains(S, l) for l in range(3 * S.generators[-1])]
    if method == "gaps":
        return gaps(S)
    return apery_delta(S, len(S.generators), method=method)


@pytest.mark.parametrize("method", ["direct", "scan", "classify", "gaps"])
@pytest.mark.parametrize("a", [10, 11, 12, 19, 20])
def test_apery_delta_rejects_a_basis_built_for_another_monoid(method, a):
    # apery_order gives y_4 no grading weight, so <7,8,9,a> and <7,8,9,13>
    # share the ordering; only the binomials' degrees tell the monoids apart
    other = (7, 8, 9, a)
    order = apery_order(4, 4, other)
    basis = basis_of(other, order)
    S = NumericalSemigroup((7, 8, 9, 13))
    assert apery_order(4, 4, S.generators) == order
    with pytest.raises(ValueError, match="another monoid"):
        read_off(method, S, basis)
    assert read_off(method, S, basis_of(S.generators, order)) == oracle(method, S)


@pytest.mark.parametrize("method", ["classify", "gaps"])
@pytest.mark.parametrize("other", [(5, 7, 9), (5, 7, 9, 11)], ids=["same-k", "k+1"])
def test_x_scans_reject_a_lex_basis_built_for_another_monoid(method, other):
    # without the check, the lex basis of <5,7,9> put 12 in <7,9,11>, and
    # one of <5,7,9,11> gave a 5-entry exponent for a 3-generator monoid
    S = NumericalSemigroup((7, 9, 11))
    basis = lex_basis(other)
    assert read_off(method, NumericalSemigroup(other), basis)  # passes, and is remembered
    with pytest.raises(ValueError, match="another monoid"):
        read_off(method, S, basis)
    assert read_off(method, S, lex_basis(S.generators)) == oracle(method, S)


S7 = NumericalSemigroup((7, 9, 11))
M2 = AffineMonoid(2, ((2, 0), (1, 1), (0, 2)))


def extremal_set_for_a1():
    report = apery_delta(S7, 1)
    return extremal_set(S7, report, report.basis)


@pytest.mark.parametrize(
    "call, error, match",
    [
        pytest.param(lambda: classify(S7, -1, lex_basis(S7.generators)), ValueError,
                     "l must be", id="classify-negative-l"),
        pytest.param(lambda: apery_delta(S7, 3, method="bogus"), ValueError,
                     "unknown method", id="apery-delta-method"),
        pytest.param(extremal_set_for_a1, ValueError, "a_k", id="extremal-set-not-a-k"),
        pytest.param(lambda: apery_affine(M2), ValueError,
                     "either a LambdaChoice or indices", id="apery-affine-no-lambda"),
        pytest.param(lambda: affine_members_bruteforce(M2, -1), ValueError,
                     "bound must be nonnegative", id="affine-members-negative-bound"),
        pytest.param(lambda: AffineMonoid(0, ((1,),)), ValueError,
                     "dim must be", id="affine-monoid-dim-0"),
        pytest.param(lambda: AffineMonoid(2, ()), ValueError,
                     "at least one generator", id="affine-monoid-no-generators"),
        pytest.param(lambda: build_delta(S7, -1), ValueError,
                     "nonnegative", id="build-delta-negative"),
        pytest.param(lambda: OrderSpec(0, ()), ValueError,
                     "num_vars must be", id="order-spec-no-variables"),
        pytest.param(lambda: OrderSpec(2, ((1,), (0, 1))), ValueError,
                     "num_vars entries", id="order-spec-short-row"),
        pytest.param(lambda: apery_order(3, 1, (7, 9)), ValueError,
                     "does not match", id="apery-order-k-mismatch"),
        pytest.param(lambda: apery_order(2, 1, (0, 3)), ValueError,
                     "positive", id="apery-order-zero-weight"),
        pytest.param(lambda: block_lambda_order(0, ((1,),), 1), ValueError,
                     "d must be", id="block-order-d-0"),
        pytest.param(lambda: block_lambda_order(1, (), 1), ValueError,
                     "at least one generator", id="block-order-no-generators"),
        pytest.param(lambda: block_lambda_order(2, ((1, 0), (1,)), 1), ValueError,
                     "d coordinates", id="block-order-wrong-dimension"),
        pytest.param(lambda: block_lambda_order(1, ((0,), (1,)), 1), ValueError,
                     "nonzero", id="block-order-zero-generator"),
        pytest.param(lambda: block_lambda_order(1, ((-1,), (1,)), 1), ValueError,
                     "nonnegative", id="block-order-negative-generator"),
        pytest.param(lambda: random_semigroup(random.Random(0), kmin=4, kmax=3), ValueError,
                     "kmin <= kmax", id="random-semigroup-kmin-above-kmax"),
        pytest.param(lambda: random_semigroup(random.Random(0), max_gen=5), ValueError,
                     "max_gen too small", id="random-semigroup-max-gen"),
        pytest.param(lambda: typeset_bruteforce(NumericalSemigroup((1,))), ValueError,
                     "two generators", id="typeset-bruteforce-k-1"),
        pytest.param(lambda: render_staircase(lex_basis(S7.generators), {9: 0}, (1, 2), (4, 4)),
                     BadAxesError, "out of range", id="render-staircase-fixed-index"),
    ],
)
def test_library_input_errors_are_typed(call, error, match):
    with pytest.raises(error, match=match):
        call()


@pytest.mark.parametrize(
    "argv, match",
    [
        pytest.param(["apery", "--wrt", "11", "--order", "apery:j=2"],
                     "does not target", id="apery-order-targets-another-generator"),
        pytest.param(["typeset", "--order", "apery:j=2"], "unrecognized arguments",
                     id="typeset-order-not-a-k"),
        pytest.param(["staircase", "--axes", "y1,z1"], "unknown variable", id="staircase-axis"),
        pytest.param(["apery", "--wrt", "11", "--order", "apery:j=3,foo"],
                     "unknown ordering option", id="descriptor-option"),
        # a block ordering puts the Lambda generators last; the ideal would not
        pytest.param(["staircase", "--axes", "y1,y2", "--order", "block:lambda=2"],
                     "lex or apery", id="staircase-block-order"),
        pytest.param(["apery", "--wrt", "11", "--order", "apery:j=x"],
                     "ordering option j= takes integers, got 'x'", id="descriptor-j-not-an-int"),
        pytest.param(["apery", "--wrt", "11", "--order", "apery:j=3,inner=1-x"],
                     "ordering option inner= takes integers, got '1-x'",
                     id="descriptor-inner-not-an-int"),
        pytest.param(["affine", "--dim", "2", "--gens", "2,0;1,1;0,2", "--lambda", "1,x"],
                     "--lambda takes generator indices, e.g. 1,3; got '1,x'",
                     id="affine-lambda-not-an-int"),
        pytest.param(["affine", "--dim", "2", "--gens", "2,0;1,1;0,2", "--lambda", ","],
                     "--lambda takes generator indices, e.g. 1,3; got ','",
                     id="affine-lambda-empty"),
        pytest.param(["affine", "--dim", "2", "--gens", "2,0;1,a", "--lambda", "1"],
                     "--gens takes integer points, e.g. 2,0;1,1;0,2; got '2,0;1,a'",
                     id="affine-gens-not-an-int"),
        # indices are reported as typed, 1-based
        pytest.param(["affine", "--dim", "2", "--gens", "2,0;1,1;0,2", "--lambda", "0,3"],
                     "--lambda index 0 is out of range 1..3", id="affine-lambda-0"),
        pytest.param(["affine", "--dim", "2", "--gens", "2,0;1,1;0,2", "--lambda", "4"],
                     "--lambda index 4 is out of range 1..3", id="affine-lambda-above-k"),
    ],
)
def test_cli_input_errors_exit_1_with_a_json_error(capsys, argv, match):
    # the default generators come first, so a case may give its own
    code = main([argv[0], "--gens", "7,9,11", *argv[1:], "--format", "json"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    payload = json.loads(captured.err)
    assert payload["kind"] == "user"
    assert match in payload["error"]


def test_analyze_a_single_generator(capsys):
    assert main(["analyze", "--gens", "1", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "frobenius": -1, "gaps": [], "generators": [1], "genus": 0,
        "gorenstein": True, "symmetric": True,
    }


def test_numerical_semigroups_compare_and_hash_by_generators():
    S = NumericalSemigroup([7, 9, 11])
    assert S == S7 and hash(S) == hash(S7)
    assert len({S, S7}) == 1
    assert S != NumericalSemigroup((7, 9, 10)) and S != (7, 9, 11)
