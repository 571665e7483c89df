#!/usr/bin/env python3
"""Control run: how steady is this machine, and does pinning to a CPU help?

Usage:

    python3 perfbench/control.py [--rounds 40] [--block 1.0] [--out FILE]

Times a fixed pure-Python loop that does the same work on every call, so
any change in its time comes from the machine, not from inputs or from
aperykit.  Each round runs one block of ``--block`` seconds in each
placement (pinned to each CPU in turn, then free to move), the placements
alternating so that drift over time hits all of them alike.  For every
placement the summary gives the block medians, their median and their
spread (quartile distance over median), the figure ``BENCHMARK.json``
bounds.  It also gives the ratio of the slowest to the fastest block.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import stats  # noqa: E402


def fixed_work() -> int:
    s = 0
    for i in range(50_000):
        s += i * i % 7
    return s


def block_median(seconds: float) -> float:
    times = []
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        t0 = time.perf_counter()
        fixed_work()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--rounds", type=int, default=40)
    parser.add_argument("--block", type=float, default=1.0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    allowed = sorted(os.sched_getaffinity(0))
    placements = {f"cpu{c}": {c} for c in allowed}
    placements["free"] = set(allowed)
    blocks: dict[str, list[float]] = {name: [] for name in placements}
    for _ in range(args.rounds):
        for name, cpus in placements.items():
            os.sched_setaffinity(0, cpus)
            blocks[name].append(block_median(args.block))
    os.sched_setaffinity(0, set(allowed))

    summary = {}
    for name, values in blocks.items():
        summary[name] = {
            "median_ms": statistics.median(values),
            "spread": stats.spread(values),
            "slowest_over_fastest": max(values) / min(values),
            "block_ms": [round(v, 4) for v in values],
        }
        print(f"{name:6s} median {summary[name]['median_ms']:.3f} ms  "
              f"spread {summary[name]['spread']:.3f}  "
              f"slowest/fastest {summary[name]['slowest_over_fastest']:.2f}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"rounds": args.rounds, "block_s": args.block, "nproc": os.cpu_count(),
                       "placements": summary}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
