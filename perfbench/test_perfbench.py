"""Self-tests of the benchmark: seeded inputs, names against BENCHMARK.json,
the tracer's clean-up, and failure counting.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import math
import os
import statistics
import sys
import time

import numpy as np
import pytest
import scipy.sparse.linalg

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import potkit  # noqa: E402
import potkit.verify  # noqa: E402,F401
import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_same_inputs(name):
    a = workloads.build(potkit, name, 7)
    b = workloads.build(potkit, name, 7)
    c = workloads.build(potkit, name, 8)
    assert [op.name for op in a.ops] == [op.name for op in b.ops]
    assert len(a.inputs) == len(b.inputs) > 0
    assert all(np.array_equal(x, y) for x, y in zip(a.inputs, b.inputs))
    assert not all(np.array_equal(x, y) for x, y in zip(a.inputs, c.inputs))


def test_names_match_benchmark_json():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER

    rec = {"wall_s": 2.0, "cpu_s": 2.0, "peak_rss_mb": 100.0, "setup_s": 1.0,
           "layers": {}, "ops": [{"op": "x", "s": [0.5], "cpu_s": [0.5],
                                  "failed": False, "known_defect": None,
                                  "error": None, "gates": [["g", 0.5]]}]}
    metrics = run.end_to_end(rec, [1.0, 1.1, 0.9])
    assert metrics.keys() == run.END_TO_END.keys()
    assert run.per_layer([rec], [rec]).keys() == run.PER_LAYER.keys()


def _bindings():
    """Every potkit module attribute and class attribute, plus spsolve."""
    out = {("scipy", "spsolve"): scipy.sparse.linalg.spsolve}
    for name, mod in list(sys.modules.items()):
        if name == "potkit" or name.startswith("potkit."):
            for attr, val in vars(mod).items():
                out[(name, attr)] = val
                if isinstance(val, type):
                    for cattr, cval in vars(val).items():
                        out[(name, attr, cattr)] = cval
    return out


def test_traced_run_leaves_nothing_patched():
    before = _bindings()
    tracer = tracing.Tracer()
    with tracer:
        assert potkit.capacity.minimize_p_energy is not \
            before[("potkit.penergy", "minimize_p_energy")]
        assert potkit.verify.newton_polish is not \
            before[("potkit.penergy", "newton_polish")]
        grid = potkit.EvaluationGrid.from_box((0.0, 0.0), (1.0, 1.0), 1 / 8)
        potkit.solve_p_dirichlet(grid, None, 1.5, lambda pts: pts[:, 0] ** 2)
        mu = potkit.AtomicMeasure([[0.0, 0.0, 0.0]], [1.0])
        potkit.wolff_potential(mu, potkit.WolffParams(2.5, 1.0), [0.3, 0, 0])
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)

    layers = tracing.layer_metrics(tracer.spans, tracer.counts)
    assert layers["plaplace.solve_p_dirichlet.calls"] == 1
    assert layers["penergy.minimize_p_energy.calls"] >= 1
    assert layers["penergy.spsolve.calls"] >= 1
    assert layers["wolff.wolff_potential.atomic.calls"] == 1
    assert layers["penergy.minimize_p_energy.iters"] >= 1
    total = layers["plaplace.solve_p_dirichlet.s"]
    assert 0.0 < layers["penergy.minimize_p_energy.s"] <= total


def test_self_time_excludes_children():
    spans = [["a", -1, 0.0, 10.0], ["b", 0, 1.0, 4.0], ["a", 1, 2.0, 3.0]]
    m = tracing.layer_metrics(spans, {})
    assert m["a.calls"] == 2 and m["a.s"] == 10.0
    assert m["a.self_s"] == pytest.approx(7.0 + 1.0)
    assert m["b.self_s"] == pytest.approx(2.0)


def _raise():
    raise ValueError("deliberate")


def test_failing_ops_are_counted():
    ops = [workloads.Op("ok", lambda: 1.0, lambda v: [("g", 0.5)]),
           workloads.Op("raises", _raise, lambda v: []),
           workloads.Op("misses", lambda: 2.0, lambda v: [("g", 3.0)]),
           workloads.Op("inf", lambda: math.inf,
                        lambda v: [("g", workloads.rel_ratio(v, 1.0, 1e-3))])]
    recs = worker.run_ops(ops)
    assert [r["failed"] for r in recs] == [False, True, True, True]
    rec = {"wall_s": 1.0, "cpu_s": 1.0, "peak_rss_mb": 1.0, "ops": recs}
    metrics = run.end_to_end(rec, [1.0, 1.0, 1.0])
    assert metrics["fail_frac"]["value"] == pytest.approx(0.75)
    assert metrics["gate_use"]["value"] == pytest.approx(0.5)
    attempted, failed, correct, _ = run.summarize_ops([rec])
    assert (attempted, failed, correct) == (4, 3, False)

    declared = [dict(r, known_defect=None if r["op"] == "ok" else "defect")
                for r in recs]
    assert run.summarize_ops([{"ops": declared}])[2] is True


def test_repeated_ops_are_timed_and_checked_on_every_call():
    calls = []

    def flaky():
        calls.append(None)
        return 1.0 if len(calls) < 3 else 2.0

    ops = [workloads.Op("once", lambda: 1.0, lambda v: [("g", 0.1)]),
           workloads.Op("again", lambda: 1.0, lambda v: [("g", 0.2)],
                        repeat=True),
           workloads.Op("flaky", flaky, lambda v: [("g", v / 1.5)],
                        repeat=True)]
    recs = worker.run_ops(ops, until=time.time() + 0.05)
    assert len(recs[0]["s"]) == 1
    assert len(recs[1]["s"]) == len(recs[1]["cpu_s"]) > 1
    assert [r["failed"] for r in recs] == [False, False, True]
    assert recs[2]["gates"] == [("g", pytest.approx(2.0 / 1.5))]
    rec = {"peak_rss_mb": 1.0, "ops": recs}
    wall = run.end_to_end(rec, [1.0])["wall_s"]["value"]
    assert wall == pytest.approx(sum(statistics.median(r["s"]) for r in recs))


def test_speed_probe_scales_calls_and_leaves_out_its_own_time():
    def busy():
        t = time.perf_counter()
        while time.perf_counter() - t < 0.35:
            pass
        return 1.0

    probe = speed.SpeedProbe()
    probe.start()
    try:
        rec, = worker.run_ops([workloads.Op("busy", busy,
                                            lambda v: [("g", 0.0)])],
                              probe=probe)
    finally:
        probe.stop()
    assert len(probe.samples) >= 2
    assert rec["raw_s"][0] == pytest.approx(0.35, abs=0.02)
    factor = rec["raw_s"][0] / rec["s"][0]
    durations = [d for _, d in probe.samples]
    assert min(durations) / speed.REFERENCE_S <= factor
    assert factor <= max(durations) / speed.REFERENCE_S
