"""Hypothesis runs derandomized, with no example database and no deadline,
so the suite draws the same examples on every run.  Hypothesis also caches
the constants it reads from source files under its home directory; that
home is a temporary directory, removed when the run ends, so the suite
writes no `.hypothesis/` directory into the checkout.

The suite writes no bytecode either: a `__pycache__` left in `src/` would
change what a later benchmark run reads at import time."""

import sys
import tempfile

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

sys.dont_write_bytecode = True

_HOME = tempfile.TemporaryDirectory(prefix="padicstacks-hypothesis-")
set_hypothesis_home_dir(_HOME.name)

settings.register_profile("padicstacks", derandomize=True, database=None, deadline=None)
settings.load_profile("padicstacks")
