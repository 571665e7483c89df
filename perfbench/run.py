#!/usr/bin/env python3
"""aperykit benchmark: one seeded workload, measured in a closed loop.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload homology [--seed N] [--seconds 20] [--trace 0|1]

The package is imported from the checkout's ``src`` directory.  One caller
runs queries back to back in this single thread: the next query starts when
the previous one returns.  Every answer is checked between queries,
outside their timers, against an independent route computed before the
loop.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` first runs the
loop untraced for half the time, then replays the same queries with spans
and counters installed at the module boundaries, and reports the per-layer
metrics plus the tracing overhead: traced over untraced busy time, minus 1.
Human-readable lines come first; the last line of standard output is one
JSON object.  A full record, with the environment and an input
fingerprint, is written to ``perfbench/results``.  The exit code is 0 when
every answer was right, 1 when any query failed, and 2 when the benchmark
could not run.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import stats
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

# fresh set-ups timed in child processes during a --trace 0 run, spread
# over its busy time; setup_s is the least of these and the run's own
SETUP_SAMPLES = 3


class Raised:
    """A query that raised instead of answering."""

    def __init__(self, exc: BaseException):
        self.text = f"{type(exc).__name__}: {exc}"


def set_up(workload, seed: int):
    """Import aperykit and build the inputs; returns api, inputs and seconds."""
    t0 = time.perf_counter()
    api = workloads.load_api()
    inputs = workload.build(api, seed)
    return api, inputs, time.perf_counter() - t0


def set_up_in_child(workload_name: str, seed: int) -> float:
    """Seconds of one fresh set-up, done in a child process and waited for.

    A child starts from a cold import like the run itself did, and its
    inputs never share this process's heap, so ``peak_rss_mb`` is not set
    by a second copy of them.
    """
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload_name,
         "--seed", str(seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=150,
    )
    if proc.returncode:
        raise RuntimeError(f"set-up in a child failed: {proc.stderr[-500:]}")
    return float(proc.stdout.split()[-1])


class Checker:
    """Checks each answer as it arrives and keeps only the failures.

    Checking happens between queries, outside their timers, so answers do
    not pile up on the heap during the run.
    """

    def __init__(self, workload, api, inputs, refs):
        self.workload, self.api, self.inputs, self.refs = workload, api, inputs, refs
        self.failed: list[tuple[int, str]] = []

    def __call__(self, idx: int, answer) -> None:
        if isinstance(answer, Raised):
            verdict = answer.text
        else:
            try:
                verdict = self.workload.check(
                    self.api, self.inputs.items[idx], self.refs[idx], answer
                )
            except Exception as exc:  # a malformed answer is a wrong answer
                verdict = f"check raised {type(exc).__name__}: {exc}"
        if verdict is not None:
            self.failed.append((idx, verdict))


def run_queries(workload, api, inputs, check, seconds=None, indices=None, tracer=None,
                between=None, marks=0):
    """Closed loop: one query at a time, each timed from call to return.

    With ``seconds``, walk the inputs in order, wrapping around, until the
    queries have been busy that long, ending on a cycle boundary; at least
    one cycle runs.  With ``indices``, run exactly those items.  With a
    ``tracer``, each query runs inside a root span.  With ``between``, call
    it outside every timer each time the busy time passes another
    ``1 / (marks + 1)`` of ``seconds``, at most ``marks`` times.  Returns
    the item indices run, the seconds of each completed query, and the
    busy seconds of all queries.
    """
    items = inputs.items
    n = len(items)
    run, times = [], []
    busy = 0.0
    done_marks = 0
    clock = time.perf_counter
    i = 0
    while (i < len(indices)) if indices is not None else (
        i == 0 or i % workload.cycle or busy < seconds
    ):
        idx = indices[i] if indices is not None else i % n
        if tracer is not None:
            span = tracer.open_query(i)
        t0 = clock()
        try:
            answer = workload.query(api, items[idx])
            elapsed = clock() - t0
            times.append(elapsed)
        except Exception as exc:  # a failed query is counted, not fatal
            elapsed = clock() - t0
            answer = Raised(exc)
        finally:
            if tracer is not None:
                tracer.close(span)
        busy += elapsed
        check(idx, answer)
        run.append(idx)
        i += 1
        due = seconds * (done_marks + 1) / (marks + 1) if done_marks < marks else None
        if between is not None and due is not None and busy >= due:
            between()
            done_marks += 1
    return run, times, busy


def end_to_end(times, busy, setup_s):
    """End-to-end metrics from the completed queries' times; none if none completed."""
    if not times:
        return {}, {"busy_s": busy}
    tail_value, tail_pct, n = stats.tail(times)
    metrics = {
        "query_p50_ms": (statistics.median(times) * 1e3, "ms"),
        "query_tail_ms": (tail_value * 1e3, "ms"),
        "queries_per_s": (len(times) / busy, "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    extra = {"tail_percentile": tail_pct, "tail_samples": n, "busy_s": busy}
    return metrics, extra


def environment(args, seed, inputs):
    return {
        "workload": args.workload,
        "seed": seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs": len(inputs.items),
        "input_sha256": inputs.fingerprint,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up, print its seconds and exit")
    args = parser.parse_args(argv)

    if not (SRC / "aperykit" / "__init__.py").is_file():
        print(f"error: no aperykit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    seed = workload.default_seed if args.seed is None else args.seed

    api, inputs, setup_s = set_up(workload, seed)
    if args.setup_only:
        print(repr(setup_s))
        return 0
    loaded = Path(api.cli.__file__).resolve()
    if SRC not in loaded.parents:
        print(f"error: aperykit was imported from {loaded}, not {SRC}", file=sys.stderr)
        return 2
    refs = workload.reference(api, inputs)
    env = environment(args, seed, inputs)
    check = Checker(workload, api, inputs, refs)
    # the inputs and references live for the whole run: keep them out of
    # the collector's way, so its pauses reflect the program's own objects
    gc.collect()
    gc.freeze()

    if args.trace:
        indices, _, busy = run_queries(workload, api, inputs, check, seconds=args.seconds / 2)
        tracer = spans.Tracer().install()
        try:
            _, _, traced_busy = run_queries(
                workload, api, inputs, check, indices=indices, tracer=tracer
            )
        finally:
            tracer.uninstall()
        attempted = 2 * len(indices)
        metrics = tracer.layer_metrics(len(indices))
        metrics["trace.overhead_frac"] = (traced_busy / busy - 1.0, "ratio")
        metrics["trace.query_ms"] = (traced_busy * 1e3 / len(indices), "ms/query")
        extra = {"untraced_busy_s": busy, "traced_busy_s": traced_busy,
                 "queries": len(indices), "spans": len(tracer.spans)}
    else:
        setups = [setup_s]
        indices, times, busy = run_queries(
            workload, api, inputs, check, seconds=args.seconds,
            between=lambda: setups.append(set_up_in_child(args.workload, seed)),
            marks=SETUP_SAMPLES,
        )
        attempted = len(indices)
        metrics, extra = end_to_end(times, busy, min(setups))
        extra["setup_samples_s"] = setups
    gc.unfreeze()
    failed = check.failed

    extra["fail_frac"] = len(failed) / attempted
    result = {
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    RESULTS.mkdir(exist_ok=True)
    stem = RESULTS / f"{args.workload}-seed{seed}-trace{args.trace}"
    with open(f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"env": env, "extra": extra, "failures": failed[:20], **result}, fh, indent=1)
    if args.trace:
        tracer.dump(f"{stem}.spans.json.gz")

    print("env " + json.dumps(env, sort_keys=True))
    print("info " + json.dumps(extra, sort_keys=True))
    for idx, why in failed[:5]:
        print(f"FAIL item {idx}: {why}")
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:14.6g} {unit}")
    print(json.dumps(result))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
