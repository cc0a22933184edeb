"""The benchmark's traced passes wrap library functions by name
(perfbench/tracer.py).  A refactor that renames or moves one of them
would break those passes without failing any library test; this guard
makes it fail here."""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


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
