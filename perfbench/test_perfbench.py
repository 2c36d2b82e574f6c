"""Self-tests of the benchmark: ``python3 -m pytest perfbench -q``."""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for path in (os.path.join(ROOT, "src"), HERE):
    if path not in sys.path:
        sys.path.insert(0, path)

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

WORKLOAD_NAMES = sorted(workloads.WORKLOADS)


def _args(workload, seed=3, trace=0, seconds=1):
    return argparse.Namespace(workload=workload, seed=seed, seconds=seconds, trace=trace)


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_same_seed_gives_identical_inputs_across_processes(name):
    script = (
        "import hashlib, sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]; import workloads; "
        f"print(hashlib.sha256(workloads.inputs_bytes({name!r}, 7)).hexdigest())"
    )
    digests = {
        subprocess.run(
            [sys.executable, "-c", script, os.path.join(ROOT, "src"), HERE],
            env=dict(os.environ, PYTHONHASHSEED=str(hash_seed)),
            capture_output=True, text=True, check=True,
        ).stdout.strip()
        for hash_seed in (1, 2)
    }
    assert digests == {hashlib.sha256(workloads.inputs_bytes(name, 7)).hexdigest()}


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_different_seeds_give_different_inputs(name):
    assert workloads.inputs_bytes(name, 7) != workloads.inputs_bytes(name, 8)


def test_diversify_round_reuses_builds_on_another_cost_model():
    ops = workloads.Diversify(5).round_ops(0)
    builds = {}
    for op in ops:
        builds.setdefault((op["program"], op["config"], op["build_seed"]), []).append(op["machine"])
    revisited = [machines for machines in builds.values() if len(machines) > 1]
    assert len(revisited) == workloads.Diversify.revisits
    assert all(len(set(machines)) == len(machines) for machines in revisited)
    assert len({op["load_seed"] for op in ops}) == len(ops)


def _corrupt_oracle(monkeypatch):
    import repro.toolchain.interp as interp

    real = interp.interpret_module

    def wrong(*args, **kwargs):
        exit_code, output = real(*args, **kwargs)
        return exit_code, list(output) + [0xBAD]

    monkeypatch.setattr(interp, "interpret_module", wrong)


def _corrupt_reference_counters(monkeypatch):
    import repro.eval.engine as engine

    real = engine._execute_request_phases

    def skewed(cache, request, plan=None):
        record = real(cache, request, plan)
        if record.backend == "reference":
            record.instructions += 1
        return record

    monkeypatch.setattr(engine, "_execute_request_phases", skewed)


@pytest.mark.parametrize("inject", [_corrupt_oracle, _corrupt_reference_counters])
def test_injected_wrong_result_fails_the_run(monkeypatch, capsys, inject):
    inject(monkeypatch)
    real_execute = run.execute
    monkeypatch.setattr(run, "execute", lambda args: real_execute(args, op_limit=3))
    code = run.main(["--workload", "diversify", "--seed", "3", "--seconds", "1"])
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    assert line["correct"] is False
    assert line["failed"] > 0 and line["failed"] / line["attempted"] > 0


def test_clean_short_run_passes(capsys):
    result = run.execute(_args("diversify"), op_limit=3)
    assert result["failed"] == 0
    assert list(result["metrics"]) == list(run.declared_metrics("end_to_end"))
    assert all(value > 0 for value in result["metrics"].values())


def test_traced_self_times_sum_to_each_op_span():
    workload = workloads.Diversify(4)
    specs = workload.op_specs(1)[:3]
    workloads.reset_process_caches()
    workload.setup()
    workload.compute_oracle()
    tracer = layers.LayerTracer()
    counter = layers.SimCounter()
    counter.install()
    tracer.install()
    try:
        phase = run.run_phase(workload, specs, counter)
    finally:
        tracer.uninstall()
        counter.uninstall()
    assert phase.failed == 0
    spans = tracer.take_spans()
    trees = layers.op_trees(spans)
    assert len(trees) == len(specs)
    by_id = {span.span_id: span for span in spans}
    for root_id, tree in trees.items():
        root = by_id[root_id]
        names = {span.name for span in tree}
        assert {layers.LOAD_SPAN, layers.RUN_SPAN, layers.CODEGEN_SPAN, "compile/module"} <= names
        assert all(span.args["op"] == root.args["op"] for span in tree)
        total = sum(self_us for _, self_us in layers.self_times(tree))
        assert total == pytest.approx(root.duration_us, rel=0.02)


def test_traced_run_emits_every_per_layer_metric():
    result = run.execute(_args("diversify", trace=1), op_limit=2)
    assert result["failed"] == 0
    metrics = result["metrics"]
    assert list(metrics) == list(run.declared_metrics("per_layer"))
    assert 50.0 < metrics["obs.layer_coverage_pct"] <= 100.0
    assert metrics["machine.jit.codegen_calls"] > 0 and metrics["core.compile_ms"] > 0


def test_wrappers_are_removed_after_the_traced_phase():
    import builtins

    from repro.machine import loader
    from repro.machine.cpu import CPU
    from repro.eval import engine

    before = (builtins.compile, loader.load_binary, engine.load_binary, CPU.__dict__["run"])
    tracer = layers.LayerTracer()
    tracer.install()
    assert engine.load_binary is not before[2]
    tracer.uninstall()
    assert (builtins.compile, loader.load_binary, engine.load_binary, CPU.__dict__["run"]) == before


def test_tail_is_the_eleventh_slowest():
    latencies = [float(value) for value in range(1, 101)]
    value, percentile, samples = run.tail_latency(latencies)
    assert (value, percentile, samples) == (90.0, 90.0, 100)


def test_without_sources_it_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "steady", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
