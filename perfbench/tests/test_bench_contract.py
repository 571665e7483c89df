import copy
import json

import pytest

import run
import workloads

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_a_run_prints_exactly_the_declared_metrics(monkeypatch, tmp_path, capsys, trace, key):
    w = copy.copy(workloads.WORKLOADS["homology"])
    w.cycles = 1
    monkeypatch.setitem(workloads.WORKLOADS, "homology", w)
    monkeypatch.setattr(run, "RESULTS", tmp_path)
    code = run.main(["--workload", "homology", "--seed", "4", "--seconds", "0.05",
                     "--trace", str(trace)])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    declared = {m["name"]: m["unit"] for m in SPEC[key]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    record = json.loads((tmp_path / f"homology-seed4-trace{trace}.json").read_text())
    if trace == 0:
        setups = record["extra"]["setup_samples_s"]
        assert len(setups) == 1 + run.SETUP_SAMPLES
        assert result["metrics"]["setup_s"]["value"] == min(setups)


def test_declared_workloads_exist_and_command_stays_in_paths():
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.WORKLOADS)
    assert SPEC["command"][1].startswith(SPEC["paths"][0] + "/")
