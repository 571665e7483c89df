"""Bad input and a vanishing reader end cleanly: exit 1, never a traceback."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import aperykit
from aperykit.apery import apery_delta
from aperykit.cli import main
from aperykit.groebner import buchberger, ideal_generators
from aperykit.orders import apery_order
from aperykit.semigroup import NumericalSemigroup

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


@pytest.mark.parametrize("method", ["direct", "scan"])
@pytest.mark.parametrize("a", [10, 11, 12, 19, 20])
def test_apery_delta_rejects_a_basis_built_for_another_monoid(method, a):
    # apery_order gives y_4 no grading weight, so <7,8,9,a> and <7,8,9,13>
    # share the ordering; only the binomials' degrees tell the monoids apart
    other = (7, 8, 9, a)
    order = apery_order(4, 4, other)
    basis = buchberger(ideal_generators(NumericalSemigroup(other), order), order)
    S = NumericalSemigroup((7, 8, 9, 13))
    assert apery_order(4, 4, S.generators) == order
    with pytest.raises(ValueError, match="another monoid"):
        apery_delta(S, 4, method=method, basis=basis)
    own = apery_delta(S, 4, method=method)
    assert apery_delta(S, 4, method=method, basis=own.basis) == own
