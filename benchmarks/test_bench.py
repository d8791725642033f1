"""Tests of the benchmark's own machinery: the rebinding wrappers, the
tracer's counts, and the correctness checks.

    PYTHONPATH=src python -m pytest -q benchmarks/test_bench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import choimetric  # noqa: E402
from choimetric import experiments, geometry, metrics  # noqa: E402
from choimetric.experiments import ExperimentRecord  # noqa: E402

import workloads  # noqa: E402
from tracing import SolveTimer, Tracer, _package_modules, layer_metrics  # noqa: E402

GROUPS = ("Z2", "Z3")
QUADRUPLES = 2


def _chaining(seed=7):
    return experiments.run_chaining(seed, quadruples=QUADRUPLES, groups=GROUPS)


def _function_bindings():
    return {(mod.__name__, attr): value for mod in _package_modules()
            for attr, value in vars(mod).items() if callable(value)}


def test_tracer_rebinds_every_module_binding_and_restores_them():
    before = _function_bindings()
    seminorm_eval = geometry.CommutatorSeminorm.eval_coords
    tracer = Tracer(choimetric)
    with tracer.patch:
        # experiments imported these by name; they must be the wrapped ones
        for name, home in (("delta_distance", metrics), ("prepare_ball", metrics),
                           ("kasparov_product", geometry)):
            assert getattr(experiments, name) is getattr(home, name)
            assert getattr(experiments, name) is not before[("choimetric.experiments", name)]
        wrapped = {id(fn) for fn in tracer.patch.originals}
        assert len(wrapped) > 50
        held = [key for key, value in _function_bindings().items() if id(value) in wrapped]
        assert held == []
        assert geometry.CommutatorSeminorm.eval_coords is not seminorm_eval
    after = _function_bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert geometry.CommutatorSeminorm.eval_coords is seminorm_eval


def test_traced_and_untraced_runs_give_identical_records():
    with workloads.ContextCache(experiments).patch:
        timer = SolveTimer(metrics)
        with timer.patch:
            untraced = [workloads.record_tuple(r) for r in _chaining()]
        with Tracer(choimetric).patch:
            traced = [workloads.record_tuple(r) for r in _chaining()]
    assert traced == untraced
    assert all(r[-1] for r in untraced)
    assert len(timer.spans) == 3 * QUADRUPLES * len(GROUPS)


def test_call_counts_match_known_counts():
    tracer = Tracer(choimetric)
    with tracer.patch:
        _chaining()
    solves = 3 * QUADRUPLES * len(GROUPS)          # three Delta solves per quadruple
    assert tracer.calls["metrics.delta_distance"] == solves
    assert tracer.calls["metrics._maximize_linear"] == solves
    assert tracer.calls["sdp.solve_sdp"] == solves
    assert tracer.calls["experiments.group_context"] == len(GROUPS)
    assert tracer.calls["metrics.prepare_ball"] == len(GROUPS)
    assert tracer.calls["geometry.kasparov_product"] == len(GROUPS)
    # every moment inside the outermost span is some span's self time
    outer = tracer.total_s["experiments.run_chaining"]
    assert abs(sum(tracer.self_s.values()) - outer) <= 1e-9 * max(1.0, outer)
    assert all(tracer.self_s[k] <= tracer.total_s[k] + 1e-12 for k in tracer.total_s)


def test_iteration_count_repeats_exactly():
    counts = []
    for _ in range(2):
        tracer = Tracer(choimetric)
        with tracer.patch:
            _chaining()
        layers = layer_metrics(tracer)
        counts.append((layers["sdp.iterations"][0], layers["sdp.block_rows"][0],
                       layers["sdp.schur_flops_computed"][0]))
    assert counts[0] == counts[1]
    assert counts[0][0] > 0


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    tracer = Tracer(choimetric)
    names = set(layer_metrics(tracer)) | {"trace.overhead_frac"}
    assert names == {m["name"] for m in spec["per_layer"]}
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert all(units[name] == unit for name, (_, unit) in layer_metrics(tracer).items())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def _record(experiment, slack, ok, lhs=1.0):
    return ExperimentRecord(experiment, 0, 0, lhs, 1.0, slack, "optimal", ok)


def test_value_failures_are_told_apart_from_status_failures():
    # agreeing values, but a solver that did not certify optimality
    assert not workloads.value_failure(_record("duality", 9.9e-6, False))
    assert not workloads.value_failure(_record("chaining", -1e-7, False))
    assert workloads.value_failure(_record("chaining", -3e-7, False))
    assert workloads.value_failure(_record("cp-characterization", -1.0, False))
    assert not workloads.value_failure(_record("stability", -1.0, True))


def test_reference_misses():
    records = [_record("chaining", 0.1, True, lhs=x) for x in (0.5, float("inf"))]
    for i, r in enumerate(records):
        r.trial = i
    rows = workloads.reference_rows(records)
    assert workloads.reference_misses(records, rows) == []
    records[0].lhs += 2e-5
    assert workloads.reference_misses(records, rows) == [0]
    assert workloads.reference_misses(records, rows[:1]) == [0, 1]


def test_run_refuses_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "chaining"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
