"""Steadiness check: run the benchmark on several seeds per workload and
report, for each end-to-end metric, the median, the quartiles, the sample
count and the quartile spread as a share of the median, next to the
metric's bound from BENCHMARK.json.  Every workload runs for
BENCHMARK.json's run_seconds.

  python3 perfbench/steady.py --seeds 10 --out perfbench/baseline.json

Seeds run in the outer loop and workloads in the inner one, so slow drift
of the machine spreads over every workload alike.  A spread at or above a
third of its bound is flagged, and the exit code is then 1.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10, help="seeds 1..N")
    parser.add_argument("--out", help="write the samples and summary as JSON")
    args = parser.parse_args(argv)

    samples = {w: [] for w in names}
    for seed in range(1, args.seeds + 1):
        for w in names:
            result = run_once(w, seed, spec["run_seconds"])
            if not result["correct"]:
                raise SystemExit(f"{w} seed {seed}: a check failed")
            samples[w].append({"seed": seed, "attempted": result["attempted"],
                               "failed": result["failed"],
                               **{k: m["value"] for k, m in result["metrics"].items()}})
            print(f"{w:10s} seed {seed:3d} " + " ".join(
                f"{k}={m['value']:.4f}" for k, m in result["metrics"].items()), flush=True)

    summary = {}
    flagged = False
    for w, rows in samples.items():
        summary[w] = {}
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [r[name] for r in rows]
            q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            spread = (q3 - q1) / med
            steady = spread < bound / 3
            flagged |= not steady
            summary[w][name] = {"median": med, "q1": q1, "q3": q3, "n": len(values),
                                "spread": spread, "bound": bound}
            print(f"{w:10s} {name:12s} median {med:10.4f} {metric['unit']:3s} "
                  f"q1 {q1:10.4f} q3 {q3:10.4f} n {len(values):2d} "
                  f"spread {spread:6.3f} bound {bound:.2f}"
                  + ("" if steady else "  <-- spread >= bound/3"))
    if args.out:
        Path(args.out).write_text(json.dumps({
            "machine": f"{platform.machine()}, {platform.python_implementation()} "
                       f"{platform.python_version()}",
            "seconds": spec["run_seconds"],
            "summary": summary,
            "samples": samples,
        }, indent=1) + "\n")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
