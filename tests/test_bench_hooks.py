"""Guards for what the benchmark depends on but no library test sees.
The traced passes wrap library functions by name (perfbench/tracer.py),
so a refactor that renames or moves one of them would break those passes;
and the workers compile every module, so a module's size shows in their
memory, as does a bytecode cache a test run would leave behind."""

import importlib.util
import subprocess
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"
SRC = ROOT / "src" / "padicstacks"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_hooks_exist():
    tracer = _tracer()
    hooks = [(owner, attr) for owner, attr, _ in tracer.SPANS]
    hooks += [(owner, attr) for owner, attr, _, _ in tracer.LEAVES]
    assert len(hooks) > 30
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr in hooks if attr not in owner.__dict__]
    assert not missing


def test_library_bindings_the_tracer_rebinds():
    # the tracer replaces a function in every library module that binds
    # the same object, and wraps compile_int on MultiPoly itself; a copy
    # or a move would leave those calls untraced
    from padicstacks import definable, greenberg, measures, polyscheme, witt

    assert measures.enumerate_points_lifted is polyscheme.enumerate_points_lifted
    assert definable.enumerate_points is polyscheme.enumerate_points
    assert greenberg.witt_mul_sym is witt.witt_mul_sym
    assert "compile_int" in polyscheme.MultiPoly.__dict__


def test_every_module_tokenizes_under_8192_tokens():
    """Past 8,192 tokens CPython's compile of a module takes about 0.5 MB
    more: on CPython 3.11.7, padding polyscheme.py from 8,188 to 8,196
    tokens raised the peak traced memory (tracemalloc) of `compile` from
    2.90 to 3.37 MB.  The benchmark's workers compile every module at
    start, so one module past that size
    raises `peak_rss_mb` on every workload without any library test
    failing.  Tokens are counted as the compiler sees them: without
    ENCODING, NL and COMMENT."""
    skip = {tokenize.ENCODING, tokenize.NL, tokenize.COMMENT}
    sizes = {}
    for path in sorted(SRC.glob("*.py")):
        with path.open("rb") as source:
            sizes[path.name] = sum(1 for tok in tokenize.tokenize(source.readline)
                                   if tok.type not in skip)
    assert len(sizes) > 10
    assert {name: n for name, n in sizes.items() if n >= 8192} == {}


def test_import_builds_no_class_by_exec():
    """Every worker and CLI call imports the package from source.  On
    CPython 3.11.7 `dataclasses` builds each class's methods by exec-ing
    source text (about 0.9 ms a frozen class) and brings in `inspect`, so
    a fresh import must load neither."""
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); import padicstacks; "
             "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-B", "-c", probe, str(SRC.parent)],
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"


def test_suite_writes_no_bytecode():
    # conftest.py turns the cache off before any module of the package loads
    assert sys.dont_write_bytecode
