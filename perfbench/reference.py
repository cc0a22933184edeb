"""Machine-speed reference for the benchmark's times.

The benchmark's host may change speed by tens of percent within seconds
and drift for minutes, which no number of repeats inside a 20-second run
averages out.  So the speed is measured next to every timed region with
chunks of a fixed pure-Python loop (tuples, dict updates, modular integer
arithmetic, like the library's own inner loops), and times are reported
in reference seconds:

    reported = wall seconds * REFERENCE_S / (mean chunk seconds)

A query's chunks are the ten run just before it, the ten run just after
it, and those a Sampler runs while it runs: a timer signal starts one
chunk every SAMPLE_EVERY_S seconds, in the query's own thread.  So a long
query is scaled by the speed during it, not only at its ends.  The
seconds the samples take are not counted in the query's time.

The set-up is mostly importing padicstacks: reading and unmarshalling
compiled modules and running their bodies.  On the baseline host that
work drifted differently from the loop above, so the set-up has a chunk
of its own kind: re-importing a fixed set of standard-library modules
(IMPORT_MODULES) from their compiled files.  Its chunk time is the
fastest of two import chunks just before the set-up and two just after:

    reported set-up = wall seconds * IMPORT_REFERENCE_S / (fastest import chunk)

REFERENCE_S and IMPORT_REFERENCE_S are one chunk's time on the host the
baseline was taken on (2 vCPUs of a shared x86-64 machine, Python 3.11),
so reported times are close to wall times there.  The raw wall times and
the speed factors are printed next to the query times.
"""

from __future__ import annotations

import importlib
import signal
import statistics
import sys
import time

REFERENCE_S = 0.0017
SAMPLE_EVERY_S = 0.05
IMPORT_REFERENCE_S = 0.008
# pure-Python modules that padicstacks and the benchmark do not import, and
# whose own imports are loaded before the set-up starts
IMPORT_MODULES = ("shlex", "glob", "netrc", "graphlib", "getopt", "codeop", "colorsys",
                  "wave", "filecmp", "fileinput", "tabnanny", "quopri")


def chunk():
    """Seconds taken by one fixed chunk of reference work."""
    start = time.perf_counter()
    acc, table = 0, {}
    for i in range(4_000):
        key = (i % 97, i * 7 % 13)
        table[key] = table.get(key, 0) + acc
        acc = (acc * 31 + i) % 1_000_003
    return time.perf_counter() - start


def chunks():
    """Seconds taken by each of ten chunks in a row."""
    return [chunk() for _ in range(10)]


def scaled(seconds, chunk_times):
    """Reference seconds of a timed region, by the chunks measured next to it."""
    return seconds * REFERENCE_S / statistics.mean(chunk_times)


class Sampler:
    """Times one region (`with sampler:`), and runs a chunk every
    SAMPLE_EVERY_S seconds of it from a timer signal.  Afterwards
    `seconds` is the region's wall time without the samples, and
    `samples` the chunk times."""

    def __init__(self):
        self.active = False
        self.seconds, self.samples, self._spent = 0.0, [], 0.0

    def _sample(self, signum, frame):
        if self.active:  # a signal still pending after the region is dropped
            start = time.perf_counter()
            self.samples.append(chunk())
            self._spent += time.perf_counter() - start

    def install(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)

    def remove(self):
        signal.signal(signal.SIGALRM, self._previous)

    def __enter__(self):
        self.samples, self._spent = [], 0.0
        self.active = True
        self._start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.active = False
        self.seconds = time.perf_counter() - self._start - self._spent


def import_chunk():
    """Seconds taken to import IMPORT_MODULES three times over.  sys.modules
    is restored afterwards, so the set-up imports what it would without
    the chunk."""
    kept = {name: sys.modules[name] for name in IMPORT_MODULES if name in sys.modules}
    start = time.perf_counter()
    for _ in range(3):
        for name in IMPORT_MODULES:
            sys.modules.pop(name, None)
            importlib.import_module(name)
    seconds = time.perf_counter() - start
    for name in IMPORT_MODULES:
        del sys.modules[name]
    sys.modules.update(kept)
    return seconds


def setup_seconds(seconds, import_chunks):
    """Reference seconds of a set-up, by the fastest import chunk near it."""
    return seconds * IMPORT_REFERENCE_S / min(import_chunks)
