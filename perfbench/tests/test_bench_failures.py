import copy
import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import run
import workloads

BENCH = Path(run.__file__).resolve().parent


def test_a_wrong_answer_from_a_substituted_fake_is_a_failure(monkeypatch, tmp_path, capsys):
    w = copy.copy(workloads.WORKLOADS["homology"])
    w.cycles = 1
    monkeypatch.setitem(workloads.WORKLOADS, "homology", w)
    monkeypatch.setattr(run, "RESULTS", tmp_path)
    real_load = workloads.load_api

    def load_with_fake():
        api = real_load()
        fake = types.SimpleNamespace(pf_via_homology=lambda S: [-7])
        return workloads.Api(**{**api.__dict__, "homology": fake})

    monkeypatch.setattr(workloads, "load_api", load_with_fake)
    code = run.main(["--workload", "homology", "--seed", "3", "--seconds", "0.05"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= w.cycle


def test_a_raising_query_is_a_failure(monkeypatch):
    api = workloads.load_api()
    w = copy.copy(workloads.WORKLOADS["affine"])
    w.cycles = 1
    inputs = w.build(api, 1)

    def boom(*args, **kwargs):
        raise RuntimeError("boom")

    broken = workloads.Api(**{**api.__dict__, "affine": types.SimpleNamespace(
        AffineMonoid=api.affine.AffineMonoid, validate_lambda=boom)})
    check = run.Checker(w, api, inputs, w.reference(api, inputs))
    indices, times, busy = run.run_queries(w, broken, inputs, check, seconds=0.0)
    assert len(check.failed) == len(indices) == w.cycle
    assert times == [] and busy > 0


def test_without_the_package_sources_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns(
        "results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "homology", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
