"""Tests of the benchmark itself (not part of the library's suite):

  python3 -m pytest -q perfbench/test_perfbench.py
"""

import dataclasses
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import padicstacks as ps  # noqa: E402
import pytest  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from oracle import QuadModel  # noqa: E402
from worker import judge, run_queries  # noqa: E402


def _query(workload, prefix, seed=1):
    (q,) = [q for q in workloads.build(workload, seed) if prefix in q.name]
    return q


def _pass(verdicts, solve=1.0):
    return {"wall_s": solve, "solve_s": solve, "rss_kb": 20480,
            "queries": [dict(v, s=0.1) for v in verdicts]}


def test_perturbed_count_is_a_failure():
    q = _query("ring", "stacky_count_special")
    _, [(answer, error, *_)] = run_queries([q])
    assert error is None
    good = judge(q, answer, None)
    bad = judge(q, answer + 1, None)
    assert not good["failed"] and not good["wrong"]
    assert bad["failed"] and bad["wrong"]
    lines, result = run.summarize("ring", 1, [0.1], [_pass([good, bad])], [], None)
    assert (result["attempted"], result["failed"], result["correct"]) == (2, 1, False)
    assert any("fail_frac    0.5000 ratio  (1 of 2 queries failed)" in ln for ln in lines)


def test_perturbed_greenberg_and_measure_answers_are_rejected():
    g = _query("digits", "greenberg(fermat")
    _, [(answer, error, *_)] = run_queries([g])
    G, points = answer
    assert not judge(g, answer, error)["wrong"]
    assert judge(g, (G, points[1:]), None)["wrong"]
    m = _query("definable", "measure_formula(ord(x) >= 1, Z_3")
    _, [(res, error, *_)] = run_queries([m])
    assert not judge(m, res, error)["wrong"]
    res.value += Fraction(1, 3)
    assert judge(m, res, None)["wrong"]


def test_refusal_must_name_its_bound():
    q = _query("definable", "measure_formula(ord(x) >= 1, Z_3")
    named = judge(q, None, ps.BoundExceeded("enumeration of 9 tuples exceeds bound 4"))
    assert named["failed"] and named["refused"] and not named["wrong"]
    vague = judge(q, None, ps.EnumerationBound("too large"))
    assert vague["refused"] and vague["wrong"]
    # a timed query may not refuse, even cleanly; only the untimed probe may
    lines, result = run.summarize("definable", 1, [0.1], [_pass([named])], [], None)
    assert (result["failed"], result["correct"]) == (1, False)
    assert any(ln.startswith("  REFUSED: ") for ln in lines)
    probe = {"queries": [dict(named, s=2.0)]}
    _, [(answer, error, *_)] = run_queries([q])
    ok = judge(q, answer, error)
    _, result = run.summarize("definable", 1, [0.1], [_pass([ok])], [], probe)
    assert (result["failed"], result["correct"]) == (0, True)


def test_more_open_points_than_the_seed_commit_is_wrong():
    q = _query("ring", "eval_formula")
    _, [(answer, error, *_)] = run_queries([q])
    verdict = judge(q, answer, error)
    assert verdict["open"] == q.open_max == 36 and not verdict["failed"]
    tighter = judge(dataclasses.replace(q, open_max=35), answer, None)
    assert tighter["failed"] and tighter["wrong"] and "36 points left open" in tighter["note"]


def test_counter_that_differs_between_traced_passes_is_wrong():
    ok = {"name": "q", "failed": False, "refused": False, "wrong": False,
          "open": 0, "note": ""}
    layers = tracer.Tracer().metrics()
    traced = [dict(_pass([ok]), layers=layers),
              dict(_pass([ok]), layers=dict(layers, **{"polyscheme.poly_evals": 1}))]
    lines, result = run.summarize("lift", 1, [0.1], [_pass([ok])], traced, None)
    assert not result["correct"]
    assert any("counter polyscheme.poly_evals differs" in ln for ln in lines)
    _, result = run.summarize("lift", 1, [0.1], [_pass([ok])], traced[:1] * 2, None)
    assert result["correct"]


def _bindings():
    return {(id(owner), attr): owner.__dict__[attr]
            for owner, attr, *_ in tracer.SPANS + tracer.LEAVES
            + ((ps.MultiPoly, "compile_int"),)}


def test_tracer_restores_every_binding():
    before = _bindings()
    originals = (ps.enumerate_points_lifted, ps.series, ps.greenberg.witt_mul_sym,
                 ps.measures.enumerate_points_lifted, ps.RingElement.__radd__)
    t = tracer.Tracer()
    t.install()
    try:
        assert ps.measures.enumerate_points_lifted is not originals[3]
        assert ps.greenberg.witt_mul_sym is not originals[2]
        assert ps.RingElement.__radd__ is ps.RingElement.__add__
    finally:
        t.remove()
    assert _bindings() == before
    assert (ps.enumerate_points_lifted, ps.series, ps.greenberg.witt_mul_sym,
            ps.measures.enumerate_points_lifted, ps.RingElement.__radd__) == originals


def test_untraced_run_after_traced_one_sees_originals():
    q = _query("ring", "r=2))")
    t = tracer.Tracer()
    run_queries([q], t)
    traced = t.metrics()
    assert traced["rings.elem_ops"] > 0 and traced["polyscheme.brute_s"] > 0
    _, [(answer, error, *_)] = run_queries([q])
    assert error is None and not judge(q, answer, None)["wrong"]
    assert t.metrics() == traced  # nothing reached the removed tracer


def test_counters_repeat_and_layers_separate():
    queries = [_query("ring", "r=2))"), _query("lift", "q_coefficient_check(xy5")]
    counts = []
    for _ in range(2):
        t = tracer.Tracer()
        run_queries(queries, t)
        m = t.metrics()
        counts.append({k: v for k, v in m.items() if run.PER_LAYER[k] == "count"})
    assert counts[0] == counts[1]
    t = tracer.Tracer()
    run_queries(queries[1:], t)
    m = t.metrics()
    assert m["rings.elem_ops"] == 0 and m["witt.sym_ops"] == 0
    assert m["polyscheme.cert_calls"] > 0 and m["polyscheme.lift_evals"] > 0


def test_import_chunk_leaves_the_module_table_as_it_was():
    before = dict(sys.modules)
    assert reference.import_chunk() > 0
    assert sys.modules == before


def test_sampler_measures_during_a_region_and_takes_its_time_off():
    sampler = reference.Sampler()
    sampler.install()
    try:
        start = time.perf_counter()
        with sampler:
            while time.perf_counter() - start < 0.3:
                pass
        wall = time.perf_counter() - start
    finally:
        sampler.remove()
    assert len(sampler.samples) >= 3
    assert sampler.seconds == pytest.approx(wall - sum(sampler.samples), abs=0.01)


def test_benchmark_json_matches_the_command():
    assert sorted(workloads.BUILDERS) == sorted(run.WORKLOADS)
    assert list(tracer.Tracer().metrics()) + ["open_points", "trace_overhead_s"] \
        == list(run.PER_LAYER)


@pytest.mark.parametrize("name", ["ram3n2", "gr9n1"])
def test_ring_model_agrees_with_closed_form(name):
    spec = ps.load_project(workloads.PROJECT).ring(name)
    if name == "ram3n2":
        assert QuadModel.of(spec).count(workloads.CONIC) == 4 * 3**2
    else:
        assert QuadModel.of(spec).count(workloads.CONIC) == 8 * 9
    one = spec.one()
    model = QuadModel.of(spec)
    omega = spec.uniformizer() if spec.e > 1 else spec.from_int(spec.p)
    assert model.from_digits(one.digits) == model.const(1)
    assert model.from_digits(omega.digits) == (model.omega if spec.n else model.const(0))
