"""Benchmark command for padicstacks: exact queries over truncated p-adic
rings, timed end to end, checked, and (with --trace 1) broken down by layer.

  python3 perfbench/run.py --workload lift --seed 1 --seconds 20 --trace 0

A run is a closed loop of passes, one at a time: each pass is a fresh
worker interpreter (worker.py) that builds the workload's inputs for the
seed and runs its whole query list in one thread.  New passes start until
--seconds have gone by.  Before each pass, set-up-only workers add
set-up samples, so that they spread over the run.  Times are reported in reference seconds: wall seconds
scaled by the machine speed measured next to them (reference.py); the
wall seconds and speed factors are printed too.  With --trace 1, untraced
and traced passes alternate, the per-layer metrics come from the traced
ones, and the tracing overhead is the difference of the two medians of
solve time.

The last line of stdout is one JSON object: correct, attempted, failed and
the metrics (end-to-end with --trace 0, per-layer with --trace 1).  The
lines before it print every metric with its unit, including fail_frac and
open_points, the per-query times and the definable workload's refusal
probe.  `correct` is false if any timed query fails (a clean refusal
too: only the untimed probe may refuse), leaves more points open than
its ceiling, or if open points or a work counter differ between passes.
The exit code is 0 only when a result was printed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
from statistics import median
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUPS_PER_PASS = 3
WORKER_TIMEOUT_S = 150

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
# tracer.py's metrics, then open_points and trace_overhead_s from this file
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


class BenchError(RuntimeError):
    """A worker failed to start, crashed or broke the protocol."""


def spawn(workload, seed, mode, trace=0, spans=None):
    """Run one worker to completion; returns (set-up seconds, result dict
    or None in setup mode).  The worker times its own set-up, in reference
    seconds, and prints it on its READY line."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--trace", str(trace)]
    if spans:
        cmd += ["--spans", str(spans)]
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env)
    try:
        ready = proc.stdout.readline().split()
        if len(ready) != 2 or ready[0] != "READY":
            raise BenchError(f"{mode} worker for {workload} did not start")
        setup_s = float(ready[1])
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} worker for {workload} timed out") from exc
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker for {workload} exited {proc.returncode}")
    if mode == "setup":
        return setup_s, None
    try:
        return setup_s, json.loads(out.strip().splitlines()[-1])
    except (IndexError, ValueError) as exc:
        raise BenchError(f"{mode} worker for {workload} printed no result") from exc


def quartiles(values):
    """(q1, median, q3); a single value is its own quartiles."""
    if len(values) < 2:
        return values * 3
    return statistics.quantiles(values, n=4)


def run(workload, seed, seconds, trace):
    spans = None
    if trace:
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        spans = out_dir / f"spans-{workload}-seed{seed}.jsonl"
    setups, plain, traced = [], [], []
    start = time.perf_counter()
    while True:
        setups += [spawn(workload, seed, "setup")[0] for _ in range(SETUPS_PER_PASS)]
        traced_pass = bool(trace) and len(plain) > len(traced)
        setup_s, result = spawn(workload, seed, "pass", int(traced_pass),
                                spans if traced_pass else None)
        setups.append(setup_s)
        (traced if traced_pass else plain).append(result)
        if time.perf_counter() - start >= seconds and (not trace or traced):
            break
    probe = spawn(workload, seed, "probe")[1] if workload == "definable" and not trace else None
    return summarize(workload, seed, setups, plain, traced, probe)


def summarize(workload, seed, setups, plain, traced, probe):
    passes = plain + traced
    verdicts = [q for r in passes for q in r["queries"]]
    attempted = len(verdicts)
    failed = sum(q["failed"] for q in verdicts)
    open_counts = {sum(q["open"] for q in r["queries"]) for r in passes}
    correct = not failed and len(open_counts) == 1
    solve = [r["solve_s"] for r in plain]

    lines = [f"workload {workload}  seed {seed}  passes {len(plain)} untraced, "
             f"{len(traced)} traced  (closed loop: one worker process, one thread)"]
    q1, med, q3 = quartiles(setups)
    lines.append(f"  setup_s      {med:.4f} s      median of {len(setups)} "
                 f"(q1 {q1:.4f}, q3 {q3:.4f})")
    q1, med, q3 = quartiles(solve)
    lines.append(f"  solve_s      {med:.4f} s      median of {len(solve)} "
                 f"(q1 {q1:.4f}, q3 {q3:.4f}; passes "
                 + " ".join(f"{x:.3f}" for x in solve) + ")")
    lines.append("               wall seconds "
                 + " ".join(f"{r['wall_s']:.3f}" for r in plain)
                 + ", speed factors " + " ".join(f"{r['solve_s'] / r['wall_s']:.3f}"
                                                 for r in plain))
    lines.append(f"  fail_frac    {failed / attempted:.4f} ratio  "
                 f"({failed} of {attempted} queries failed)")
    lines.append(f"  open_points  {min(open_counts)} count  (undecided points per pass)")
    rss = [r["rss_kb"] / 1024 for r in plain]
    lines.append(f"  peak_rss_mb  {median(rss):.3f} MB")
    for i, q in enumerate(plain[0]["queries"]):
        times = [r["queries"][i]["s"] for r in plain]
        status = "ok" if not q["failed"] else ("REFUSED" if q["refused"] else "FAILED")
        lines.append(f"    {median(times):9.4f} s  {status:7s} open {q['open']:<5d} "
                     f"{q['name']}")
    for name, refused, note in dict.fromkeys(
            (q["name"], q["refused"], q["note"]) for q in verdicts if q["failed"]):
        lines.append(f"  {'REFUSED' if refused else 'WRONG'}: {name}: {note}")
    if len(open_counts) != 1:
        lines.append(f"  WRONG: open points differ between passes: {sorted(open_counts)}")
    if probe is not None:
        (q,) = probe["queries"]
        outcome = "refused" if q["refused"] else ("answered" if not q["failed"] else "failed")
        lines.append(f"  refusal probe (untimed): {q['name']}: {outcome} in {q['s']:.3f} s"
                     + (f" ({q['note']})" if q["note"] else ""))
        lines.append(f"  refusals: {int(q['refused'])} of 1 probe queries, "
                     f"{sum(v['refused'] for v in verdicts)} of {attempted} timed queries")
        correct = correct and not q["wrong"]

    if traced:
        layers = {}
        for name, unit in PER_LAYER.items():
            if name in traced[0]["layers"]:
                values = [r["layers"][name] * (r["solve_s"] / r["wall_s"] if unit == "s"
                                               else 1) for r in traced]
                layers[name] = median(values)
                if unit == "count" and len(set(values)) != 1:
                    correct = False
                    lines.append(f"  WRONG: counter {name} differs between passes: {values}")
        layers["open_points"] = min(open_counts)
        layers["trace_overhead_s"] = (median([r["solve_s"] for r in traced])
                                      - median(solve))
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in PER_LAYER.items()}
        lines.append("  per-layer (traced passes, medians; times in reference seconds):")
        lines += [f"    {name:28s} {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    else:
        values = {"setup_s": median(setups), "solve_s": median(solve),
                  "peak_rss_mb": median(rss)}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return lines, result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        lines, result = run(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
