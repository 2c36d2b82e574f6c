"""The repo benchmark: one workload, one seed, one run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload diversify --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs the same ops twice, untraced and then traced from the
same cold caches, and reports the per-layer split.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (``{name: {"value", "unit"}}``).  A full
result with provenance goes to ``perfbench/out/``; the traced run also
writes its spans there as a Chrome trace.  The exit code is 0 only when
every op passed its correctness check.
"""

import argparse
import datetime
import glob
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, "perfbench", "out")

#: Imports and set-ups per untraced run; ``setup_s`` adds their medians.
SETUP_REPEATS = 5
#: The program's import, as :func:`execute` does it first.
IMPORT_PROGRAM = "import repro.eval.experiments, repro.machine.jit"

BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")


def benchmark_definition() -> Dict[str, object]:
    with open(BENCHMARK_JSON, encoding="utf-8") as handle:
        return json.load(handle)


def declared_metrics(key: str) -> Dict[str, str]:
    """{name: unit} of the metrics ``BENCHMARK.json`` lists under ``key``
    (``end_to_end`` or ``per_layer``), in its order.

    ``fail_ratio`` is not an ``end_to_end`` entry: it is 0 in a healthy
    run, so it travels as ``failed / attempted`` rather than as a metric
    with a relative bound.
    """
    return {metric["name"]: metric["unit"] for metric in benchmark_definition()[key]}


# -- host speed -------------------------------------------------------------------

#: Seconds :func:`kernel_seconds` takes on the reference host (2-vCPU x86
#: container, CPython 3.11) when it runs at its usual speed.
KERNEL_REFERENCE_S = 0.016


def kernel_seconds() -> float:
    """Time a fixed pure-Python loop: how fast the host runs right now.

    A shared host's speed moves by up to 2x within seconds and drifts
    over minutes; the loop slows with it.  Every timed segment is scaled
    by the loop timed right before and right after it (:func:`scaled`),
    which cut the spread of 25-second windows of ``steady`` op time from
    0.19 to 0.07 on the reference host.
    """
    started = time.perf_counter()
    total = 0
    for value in range(150_000):
        total += value * value % 7
    return time.perf_counter() - started


def scaled(seconds: float, kernel_before: float, kernel_after: float) -> float:
    """``seconds`` at the reference host's usual speed."""
    return seconds * KERNEL_REFERENCE_S * 2.0 / (kernel_before + kernel_after)


def import_seconds() -> float:
    """Host seconds a fresh interpreter takes to import the program.

    A process imports the program only once, so each repeat runs in its
    own interpreter; interpreter start-up is not included.
    """
    code = f"import time; t = time.perf_counter(); {IMPORT_PROGRAM}; print(time.perf_counter() - t)"
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True, check=True, timeout=120)
    return float(done.stdout)


class Phase:
    """One pass over the op list: latencies, outcomes and simulated counters.

    ``latencies`` are host seconds scaled by :func:`scaled`; ``raw`` are
    the same host seconds unscaled.
    """

    def __init__(self, specs: List[Dict[str, object]]):
        self.specs = specs
        self.latencies: List[float] = []
        self.raw: List[float] = []
        self.outcomes: list = []
        self.sim: Tuple[int, float, int, int, int] = (0, 0.0, 0, 0, 0)

    @property
    def failed(self) -> int:
        return sum(1 for outcome in self.outcomes if outcome.error)

    @property
    def ops_per_s(self) -> float:
        return len(self.latencies) / sum(self.latencies)


def run_phase(workload, specs, counter) -> Phase:
    """Run ``specs`` in a closed loop, one op at a time."""
    from repro.obs.tracing import span

    from layers import OP_SPAN
    from workloads import OpOutcome

    phase = Phase(specs)
    before = counter.snapshot()
    kernel_before = kernel_seconds()
    for index, spec in enumerate(specs):
        op_started = time.perf_counter()
        try:
            with span(OP_SPAN, "bench", op=index):
                outcome = workload.run_op(spec)
        except Exception:  # one op's host error is a failed op, not a dead run
            outcome = OpOutcome(traceback.format_exc(limit=4))
        elapsed = time.perf_counter() - op_started
        kernel_after = kernel_seconds()
        phase.raw.append(elapsed)
        phase.latencies.append(scaled(elapsed, kernel_before, kernel_after))
        phase.outcomes.append(outcome)
        kernel_before = kernel_after
    phase.sim = tuple(after - start for after, start in zip(counter.snapshot(), before))
    return phase


def reference_checks(workload, phase: Phase) -> None:
    """Rerun a seeded sample of passed ops on the reference backend."""
    from workloads import sample_indices

    for index in sample_indices(workload.name, workload.seed, workload.reference_sample, len(phase.specs)):
        outcome = phase.outcomes[index]
        if outcome.error:
            continue
        try:
            outcome.error = workload.reference_check(phase.specs[index], outcome.observed)
        except Exception:
            outcome.error = traceback.format_exc(limit=4)


def tail_latency(latencies: Sequence[float]) -> Tuple[float, float, int]:
    """(value, percentile, samples): the highest percentile with at least
    10 samples beyond it; the maximum when there are 10 or fewer."""
    ordered = sorted(latencies)
    count = len(ordered)
    if count <= 10:
        return ordered[-1], 100.0, count
    return ordered[count - 11], 100.0 * (count - 10) / count, count


def end_to_end(phase: Phase, setup_s: float) -> Dict[str, float]:
    tail, _, _ = tail_latency(phase.latencies)
    return {
        "setup_s": setup_s,
        "ops_per_s": phase.ops_per_s,
        "op_p50_ms": statistics.median(phase.latencies) * 1e3,
        "op_tail_ms": tail * 1e3,
        "sim_mips": phase.sim[0] / sum(phase.latencies) / 1e6,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(spans, untraced: Phase, traced: Phase, jit_delta: Dict[str, int],
              counts: Dict[str, float], text_bytes: int,
              declared: Sequence[str]) -> Dict[str, float]:
    """Fold the traced phase's spans and counters into the per-layer metrics."""
    from layers import (CODEGEN_SPAN, LOAD_SPAN, MALLOC_SPAN, OP_SPAN, PROBE_SPAN, RUN_SPAN,
                        charged_layer, layer_of, op_trees, self_times)

    metrics: Dict[str, float] = {name: 0.0 for name in declared}
    unnamed = layer_of(OP_SPAN)
    by_id = {s.span_id: s for s in spans}
    op_total_us = 0.0
    named_us = 0.0
    span_counts = {LOAD_SPAN: 0, CODEGEN_SPAN: 0, MALLOC_SPAN: 0, PROBE_SPAN: 0}
    for root_id, tree in op_trees(spans).items():
        op_total_us += by_id[root_id].duration_us
        for span, self_us in self_times(tree):
            layer = charged_layer(span, by_id, declared)
            metrics[layer] += self_us / 1e3
            if layer != unnamed:
                named_us += self_us
            if span.name in span_counts:
                span_counts[span.name] += 1
            elif span.name == RUN_SPAN:
                metrics["machine.run_ms"] += span.duration_us / 1e3
                per_program = f"machine.run_ms.{span.args.get('program')}"
                if per_program in declared:
                    metrics[per_program] += span.duration_us / 1e3
    metrics["machine.loads"] = span_counts[LOAD_SPAN]
    metrics["machine.jit.codegen_calls"] = span_counts[CODEGEN_SPAN]
    metrics["heap.malloc_calls"] = span_counts[MALLOC_SPAN]
    metrics["attacks.probes"] = span_counts[PROBE_SPAN]
    metrics["toolchain.text_bytes"] = text_bytes

    for key in ("blocks_compiled", "traces_compiled", "deopts", "trace_guard_failures",
                "traces_blacklisted"):
        metrics[f"machine.jit.{key}"] = jit_delta[key]
    lookups = jit_delta["code_cache_hits"] + jit_delta["blocks_compiled"] + jit_delta["traces_compiled"]
    metrics["machine.jit.code_cache_lookups"] = lookups
    metrics["machine.jit.code_cache_hit_ratio"] = jit_delta["code_cache_hits"] / lookups if lookups else 0.0

    compile_lookups = counts.get("eval.compile_cache_lookups", 0)
    metrics["eval.compile_cache_lookups"] = compile_lookups
    metrics["eval.compile_cache_hit_ratio"] = (
        counts.get("eval.compile_cache_hits", 0) / compile_lookups if compile_lookups else 0.0
    )
    for key in ("reliability.restarts", "reliability.crashes"):
        metrics[key] = counts.get(key, 0)

    instructions, cycles, hits, misses, _ = traced.sim
    metrics["machine.sim_instructions"] = instructions
    metrics["machine.sim_cycles"] = cycles
    metrics["machine.icache_miss_ratio"] = misses / (hits + misses) if hits + misses else 0.0
    metrics["obs.tracing_overhead_pct"] = 100.0 * (untraced.ops_per_s / traced.ops_per_s - 1.0)
    # The share of op time that some named layer explains; the rest is
    # bench.op_self_ms (experiment and attack logic outside every layer).
    metrics["obs.layer_coverage_pct"] = 100.0 * named_us / op_total_us if op_total_us else 0.0
    return metrics


# -- provenance -------------------------------------------------------------------

def _git(*args: str) -> Optional[str]:
    try:
        done = subprocess.run(["git", "-C", ROOT, *args], capture_output=True, text=True, timeout=20)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout if done.returncode == 0 else None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def provenance(argv: Sequence[str], seed: int) -> Dict[str, object]:
    """Where a result came from: code, command, interpreter and host."""
    sha = dirty = None
    # Only ask git about this checkout itself, never an enclosing repository.
    if os.path.isdir(os.path.join(ROOT, ".git")):
        head = _git("rev-parse", "HEAD")
        status = _git("status", "--porcelain", "--untracked-files=no")
        sha = head.strip() if head else None
        dirty = bool(status.strip()) if status is not None else None
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "repro", "**", "*.py"), recursive=True)):
        digest.update(os.path.relpath(path, SRC).encode())
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return {
        "git_sha": sha,
        "git_dirty": dirty,
        "source_sha256": digest.hexdigest(),
        "argv": list(argv),
        "python": sys.version.split()[0],
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "seed": seed,
    }


# -- the run ----------------------------------------------------------------------

def parse_args(argv: Sequence[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in benchmark_definition()["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def execute(args: argparse.Namespace, *, op_limit: Optional[int] = None) -> Dict[str, object]:
    """Set up, run and check one workload; returns the full result.

    ``op_limit`` truncates the op list (self-tests only).
    """
    # The whole program is imported before any set-up, so a set-up's time
    # is the same for every repeat; import_seconds times the import itself.
    import repro.eval.experiments  # noqa: F401
    from repro.machine.jit import jit_stats_snapshot

    import layers
    import workloads

    units = declared_metrics("per_layer" if args.trace else "end_to_end")
    workload = workloads.WORKLOADS[args.workload](args.seed)
    specs = workload.op_specs(workload.rounds_for(args.seconds))[:op_limit]
    counter = layers.SimCounter()

    imports, setups = [], []
    for _ in range(SETUP_REPEATS if not args.trace else 1):
        # Imports are not scaled: they read files as much as they compute,
        # and scaling them by the loop made their spread wider, not narrower.
        imports.append(import_seconds())
        workloads.reset_process_caches()
        kernel_before = kernel_seconds()
        started = time.perf_counter()
        workload.setup()
        elapsed = time.perf_counter() - started
        setups.append(scaled(elapsed, kernel_before, kernel_seconds()))
    setup_s = statistics.median(imports) + statistics.median(setups)
    workload.compute_oracle()

    counter.install()
    try:
        untraced = run_phase(workload, specs, counter)
        phases = [untraced]
        metrics = end_to_end(untraced, setup_s)
        trace_path = None
        if args.trace:
            workloads.reset_process_caches()
            workload.setup()
            jit_before = jit_stats_snapshot()
            tracer = layers.LayerTracer()
            tracer.install()
            try:
                traced = run_phase(workload, specs, counter)
            finally:
                tracer.uninstall()
            spans = tracer.take_spans()
            jit_after = jit_stats_snapshot()
            jit_delta = {key: jit_after[key] - jit_before.get(key, 0) for key in jit_after}
            metrics = per_layer(spans, untraced, traced, jit_delta, workload.layer_counts(),
                                sum(tracer.text_bytes.values()), list(units))
            phases.append(traced)
            trace_path = write_trace(spans, args)
    finally:
        counter.uninstall()
    for phase in phases:
        reference_checks(workload, phase)

    attempted = sum(len(phase.outcomes) for phase in phases)
    failed = sum(phase.failed for phase in phases)
    tail, percentile, samples = tail_latency(untraced.latencies)
    return {
        "workload": args.workload,
        "provenance": provenance(sys.argv, args.seed),
        "rounds": workload.rounds_for(args.seconds),
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "op_tail": {"percentile": percentile, "samples": samples, "ms": tail * 1e3},
        "setup_runs_s": {"imports": imports, "set-ups": setups},
        # Exactly the declared metrics, in BENCHMARK.json's order; one the
        # runner does not compute fails here rather than going missing.
        "metrics": {name: metrics[name] for name in units},
        "units": units,
        "op_latencies_ms": [value * 1e3 for value in untraced.latencies],
        "op_latencies_unscaled_ms": [value * 1e3 for value in untraced.raw],
        "errors": [
            {"op": index, "spec": phase.specs[index], "error": outcome.error}
            for phase in phases for index, outcome in enumerate(phase.outcomes) if outcome.error
        ][:20],
        "trace_file": trace_path,
    }


def write_trace(spans, args: argparse.Namespace) -> str:
    from repro.obs.tracing import get_collector

    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(get_collector().chrome_trace(spans), handle, sort_keys=True)
    return os.path.relpath(path, ROOT)


def report(result: Dict[str, object], args: argparse.Namespace) -> None:
    """Human-readable lines, the result file, then the JSON line last."""
    units = result["units"]
    for name, value in result["metrics"].items():
        print(f"{args.workload:10s} {name:36s} {value:14.4f} {units[name]}")
    if not args.trace:
        tail = result["op_tail"]
        print(f"{args.workload:10s} {'fail_ratio':36s} {result['fail_ratio']:14.4f} ratio"
              f"   (tail = p{tail['percentile']:.2f} of {tail['samples']} ops)")
    for error in result["errors"]:
        print(f"FAILED op {error['op']} {error['spec']}: {error['error']}", file=sys.stderr)
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1, sort_keys=True)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in result["metrics"].items()},
    }))


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no package source under {SRC}", file=sys.stderr)
        return 2
    for path in (SRC, os.path.dirname(os.path.abspath(__file__))):
        if path not in sys.path:
            sys.path.insert(0, path)
    result = execute(args)
    report(result, args)
    return 0 if result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
