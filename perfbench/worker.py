"""One pass of a workload in a fresh interpreter, as one CLI invocation
would run it: import padicstacks and build the inputs (set-up), print
READY and the set-up time, run the query list in order in this one thread
(each query starts when the previous one returns), then check every answer
and print one JSON line.  Chunks of reference work (reference.py) run
to measure the machine's speed: two import chunks before and two after
the set-up, ten loop chunks before each query and after the last, and
loop chunks sampled during each query, whose time is taken off it.

  python3 perfbench/worker.py --workload lift --seed 1 --mode pass --trace 0

Modes: `setup` stops after READY; `pass` runs and checks the query list;
`probe` runs the definable workload's over-bound query.  With --trace 1
the query list runs under tracer.py and the line carries per-layer metrics;
the answers are checked after the wrappers are removed.
"""

from __future__ import annotations

import argparse
import json
import re
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

# neither imports padicstacks: importing it is part of the timed set-up
import reference  # noqa: E402
from oracle import WrongAnswer  # noqa: E402

NAMES_BOUND = re.compile(r"bound \d+")


def run_queries(queries, tracer=None):
    """Run every query in order, with ten reference chunks before each query
    and after the last, and more sampled during each query; returns (peak
    RSS in kB, [(answer, exception, wall seconds, reference seconds)])."""
    outcomes = []
    ends = []
    sampler = reference.Sampler()
    sampler.install()
    if tracer is not None:
        tracer.install()
    try:
        for q in queries:
            ends.append(reference.chunks())
            with sampler:
                try:
                    answer, error = q.run(), None
                except Exception as exc:  # recorded as a failed query
                    answer, error = None, exc
            outcomes.append([answer, error, sampler.seconds, sampler.samples])
        ends.append(reference.chunks())
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    finally:
        if tracer is not None:
            tracer.remove()
        sampler.remove()
    for i, outcome in enumerate(outcomes):
        outcome[3] = reference.scaled(outcome[2], ends[i] + outcome[3] + ends[i + 1])
    return rss_kb, outcomes


def judge(query, answer, error):
    """Verdict for one answer: failed, refused, wrong, open points, note."""
    from padicstacks import BoundExceeded, EnumerationBound

    verdict = {"name": query.name, "failed": False, "refused": False,
               "wrong": False, "open": 0, "note": ""}
    if isinstance(error, (BoundExceeded, EnumerationBound)):
        verdict.update(failed=True, refused=True, note=str(error))
        # a clean refusal names the bound it exceeded
        verdict["wrong"] = not NAMES_BOUND.search(str(error))
    elif error is not None:
        traceback.print_exception(error, file=sys.stderr)
        verdict.update(failed=True, wrong=True, note=f"{type(error).__name__}: {error}")
    else:
        try:
            verdict["open"] = query.check(answer)
            if verdict["open"] > query.open_max:
                raise WrongAnswer(f"{verdict['open']} points left open, "
                                  f"at most {query.open_max} expected")
        except WrongAnswer as exc:
            verdict.update(failed=True, wrong=True, note=str(exc))
    return verdict


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "pass", "probe"), default="pass")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="file for the traced pass's spans")
    args = parser.parse_args(argv)

    chunks = [reference.import_chunk(), reference.import_chunk()]
    start = time.perf_counter()
    import workloads

    if args.mode == "probe":
        queries = [workloads.refusal_probe()]
    else:
        queries = workloads.build(args.workload, args.seed)
    setup_s = time.perf_counter() - start
    chunks += [reference.import_chunk(), reference.import_chunk()]
    setup_s = reference.setup_seconds(setup_s, chunks)
    print(f"READY {setup_s!r}", flush=True)
    if args.mode == "setup":
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
    rss_kb, outcomes = run_queries(queries, tracer)
    result = {
        "wall_s": sum(o[2] for o in outcomes),
        "solve_s": sum(o[3] for o in outcomes),
        "rss_kb": rss_kb,
        "queries": [
            dict(judge(q, answer, error), s=ref_s)
            for q, (answer, error, _, ref_s) in zip(queries, outcomes)
        ],
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
