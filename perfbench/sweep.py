#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric.

Usage, from the root of a source checkout:

    python3 perfbench/sweep.py --workloads homology,affine --seeds 1-10 \
        [--seconds 20] [--trace 0|1] [--out perfbench/results/sweep.json]

Each run is a separate process, one after another, taking the workloads
in turn for each seed.  For every workload
and metric the summary gives the median, the quartiles and the spread
(quartile distance over median), the same figures used to set and check
the bounds in ``BENCHMARK.json``.  Exits nonzero if any run failed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import stats  # noqa: E402


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarise(values) -> dict:
    out = {"median": statistics.median(values), "values": values}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3, spread=stats.spread(values))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    ok = True
    names = args.workloads.split(",")
    runs: dict[str, list] = {name: [] for name in names}
    # seed by seed, every workload in turn, so that drift of the machine
    # over the sweep spreads over all workloads instead of lining up with
    # the seeds of one
    for seed in parse_seeds(args.seeds):
        for workload in names:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode or not lines:
                ok = False
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                continue
            result = json.loads(lines[-1])
            result["seed"] = seed
            runs[workload].append(result)
            shown = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
            print(f"{workload} seed {seed}: {shown}", flush=True)
    summary = {}
    for workload, done in runs.items():
        if not done:
            continue
        metrics = {}
        for name, first in done[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in done]
            metrics[name] = {"unit": first["unit"], **summarise(values)}
        summary[workload] = {
            "seeds": [r["seed"] for r in done],
            "attempted": sum(r["attempted"] for r in done),
            "failed": sum(r["failed"] for r in done),
            "metrics": metrics,
        }
        for name, m in metrics.items():
            print(f"  {workload:15s} {name:36s} median {m['median']:12.6g} {m['unit']:9s}"
                  f" spread {m.get('spread', float('nan')):.3f}")
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"seconds": args.seconds, "trace": args.trace, "workloads": summary},
                      fh, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
