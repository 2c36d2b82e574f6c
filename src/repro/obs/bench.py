"""The benchmark regression harness: ``python -m repro bench``.

Runs a (workload × config) grid through the experiment engine and emits
one schema-versioned JSON artifact per invocation — the repo's benchmark
trajectory.  Each cell records both *simulated* metrics (cycles,
instructions, i-cache behaviour — deterministic, backend-invariant) and
*host* metrics (compile/run wall seconds — environmental), plus the
engine's :class:`~repro.eval.engine.FailureSummary` so a regression in
reliability is as visible as a regression in speed.

Artifact schema (``repro-bench/v1``)::

    {
      "schema": "repro-bench/v1",
      "backend": "reference",
      "machine": "epyc-rome",
      "quick": true,
      "jobs": 1,
      "cells": [
        {"workload": "xz", "config": "full-avx", "outcome": "ok",
         "cycles": ..., "instructions": ..., "icache_hits": ...,
         "icache_misses": ..., "max_rss": ...,
         "compile_seconds": ..., "run_seconds": ...},
        ...
      ],
      "engine": {"executed": ..., "compiles": ...,
                 "compile_seconds": ..., "run_seconds": ...,
                 "failures": ..., "by_outcome": {...}}
    }

:func:`validate` checks an artifact against this schema (CI gates on
it); :meth:`BenchReport.from_json` drops unknown keys, matching the
``RunRecord.from_json`` forward-compatibility semantics.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from typing import Dict, List, Optional

from repro.core.config import R2CConfig
from repro.eval.engine import ExperimentEngine, RequestBatch, RunRequest
from repro.workloads.spec import SPEC_BENCHMARKS, build_spec_benchmark

__all__ = [
    "BENCH_SCHEMA",
    "BenchCell",
    "BenchReport",
    "run_bench",
    "run_lockstep_bench",
    "validate",
]

BENCH_SCHEMA = "repro-bench/v1"

#: The diversification configs benchmarked per workload, by cell name.
BENCH_CONFIGS = {
    "baseline": lambda: R2CConfig.baseline(),
    "full-avx": lambda: R2CConfig.full(seed=11, btra_mode="avx"),
    "full-push": lambda: R2CConfig.full(seed=12, btra_mode="push"),
}

#: Reduced workload set for ``--quick`` / CI smoke legs.
QUICK_WORKLOADS = ("xz", "mcf", "lbm")


@dataclass
class BenchCell:
    """One (workload × config) measurement."""

    workload: str
    config: str
    outcome: str
    cycles: float
    instructions: int
    icache_hits: int
    icache_misses: int
    max_rss: int
    compile_seconds: float
    run_seconds: float

    @property
    def icache_miss_rate(self) -> float:
        total = self.icache_hits + self.icache_misses
        return self.icache_misses / total if total else 0.0

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "BenchCell":
        known = {f.name for f in fields(cls)}
        return cls(**{key: value for key, value in data.items() if key in known})


@dataclass
class BenchReport:
    """One bench invocation's artifact."""

    backend: str
    machine: str
    quick: bool
    jobs: int
    cells: List[BenchCell] = field(default_factory=list)
    engine: Dict[str, object] = field(default_factory=dict)
    #: N-variant lockstep leg (``--lockstep N``): amortized-prepare cost of
    #: running N diversified-ASLR variants vs one (empty when not run).
    lockstep: Dict[str, object] = field(default_factory=dict)
    #: Progressive-lowering statistics for the run (``jit`` backend):
    #: blocks compiled, superinstructions fused, deopt count, code-cache
    #: hits — the delta of :data:`repro.machine.jit.JIT_STATS` across the
    #: grid.  Empty for backends that never lower.
    tiers: Dict[str, int] = field(default_factory=dict)
    #: Serving-axis leg (``python -m repro fleet``): p50/p99 latency,
    #: sustained RPS, shed/retry/swap counts, and the attacker window —
    #: the :meth:`repro.fleet.loadgen.FleetReport.serving` section.
    #: Empty when the artifact came from a non-fleet invocation.
    serving: Dict[str, object] = field(default_factory=dict)

    def cell(self, workload: str, config: str) -> BenchCell:
        for cell in self.cells:
            if cell.workload == workload and cell.config == config:
                return cell
        raise KeyError(f"no bench cell ({workload!r}, {config!r})")

    @property
    def ok(self) -> bool:
        return all(cell.outcome == "ok" for cell in self.cells)

    def to_json(self) -> str:
        data = {
            "schema": BENCH_SCHEMA,
            "backend": self.backend,
            "machine": self.machine,
            "quick": self.quick,
            "jobs": self.jobs,
            "cells": [asdict(cell) for cell in self.cells],
            "engine": dict(self.engine),
        }
        if self.lockstep:
            data["lockstep"] = dict(self.lockstep)
        if self.tiers:
            data["tiers"] = dict(self.tiers)
        if self.serving:
            data["serving"] = dict(self.serving)
        return json.dumps(data, sort_keys=True, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "BenchReport":
        """Load an artifact; unknown keys dropped at both levels."""
        data = json.loads(text)
        known = {f.name for f in fields(cls)}
        kept = {key: value for key, value in data.items() if key in known}
        kept["cells"] = [BenchCell.from_dict(cell) for cell in data.get("cells", ())]
        return cls(**kept)


#: Per-cell keys every ``repro-bench/v1`` artifact must carry.
_CELL_REQUIRED = (
    "workload",
    "config",
    "outcome",
    "cycles",
    "instructions",
    "icache_hits",
    "icache_misses",
    "compile_seconds",
    "run_seconds",
)


def validate(data: Dict[str, object]) -> List[str]:
    """Check a parsed artifact against ``repro-bench/v1``.

    Returns a list of problems — empty means schema-valid.  CI runs the
    smoke bench on both backends and gates on this.
    """
    problems: List[str] = []
    schema = data.get("schema")
    if schema != BENCH_SCHEMA:
        problems.append(f"schema is {schema!r}, expected {BENCH_SCHEMA!r}")
    for key in ("backend", "machine", "quick", "jobs", "cells", "engine"):
        if key not in data:
            problems.append(f"missing top-level key {key!r}")
    cells = data.get("cells")
    if not isinstance(cells, list) or not cells:
        problems.append("cells must be a non-empty list")
        cells = []
    for position, cell in enumerate(cells):
        if not isinstance(cell, dict):
            problems.append(f"cells[{position}] is not an object")
            continue
        for key in _CELL_REQUIRED:
            if key not in cell:
                problems.append(f"cells[{position}] missing {key!r}")
    return problems


def run_lockstep_bench(
    *,
    variants: int = 4,
    backend: str = "jit",
    machine: str = "epyc-rome",
    requests: int = 2,
    sync_every: int = 4096,
    load_seed: int = 1,
    repeats: int = 5,
) -> Dict[str, object]:
    """Measure the N-variant lockstep leg on the webserver workload.

    Two measurements, each paying its own fixed costs (fresh build seed
    per repetition, so neither leg hits the other's compile or code
    caches):

    * **single** — compile + load + prepare + run one variant, start to
      finish;
    * **lockstep** — compile + load + prepare *once*, then fork N
      replicas under one layout (the corruption-detection deployment of
      :class:`~repro.defenses.lockstep.LockstepGroup`, with the per-sync
      register/rip cross-check armed) and run them in one batched
      scheduling loop.  Replicas 2..N are ``Process.clone()`` forks and
      receive a clone of the leader's prepared program
      (``Backend.clone_program``), so the fixed compile + load + prepare
      pipeline runs exactly once.

    The headline number is ``cost_ratio`` (lockstep wall / single wall),
    taken over the best of ``repeats`` repetitions per leg (host wall
    time is environmental; the minimum is the least-noisy estimator, and
    the collector is paused while a leg is on the clock).  Both legs use
    the same ``heap_size``, so the comparison is apples-to-apples.
    Because one prepared program serves all N states, N variants cost far
    less than N independent pipelines — the scaling story the
    program/state split buys.  Simulated work (``cycles``,
    ``instructions``) is also recorded per leg; it scales ~linearly in N
    by construction.
    """
    import gc
    import time

    from repro.core.compiler import compile_module
    from repro.defenses.lockstep import LockstepGroup
    from repro.machine.backends import get_backend
    from repro.machine.costs import get_costs
    from repro.machine.cpu import ExecutionResult
    from repro.machine.loader import load_binary
    from repro.machine.state import MachineState
    from repro.workloads.webserver import build_webserver

    module = build_webserver(requests=requests)
    costs = get_costs(machine)
    backend_impl = get_backend(backend)
    # The webserver needs well under a megabyte of heap; the default 8 MiB
    # arena would make page bookkeeping (not the workload) the dominant
    # cost of every load and fork in both legs.
    heap_size = 2 * 1024 * 1024

    single_walls: List[float] = []
    lockstep_walls: List[float] = []
    single_result = ExecutionResult()
    lockstep_result = None
    total_instructions = total_cycles = 0
    gc_was_enabled = gc.isenabled()
    try:
        for rep in range(max(repeats, 1)):
            # -- single-variant leg (fresh compile + load + prepare + run) --
            gc.collect()
            gc.disable()
            start = time.perf_counter()
            binary = compile_module(module, R2CConfig.full(seed=0xA5 + 2 * rep))
            process = load_binary(binary, seed=load_seed, heap_size=heap_size)
            state = MachineState(process, costs)
            state.rip = process.entry_point
            state._halted = False
            program = backend_impl.prepare(state)
            single_result = ExecutionResult()
            backend_impl.execute(program, state, single_result)
            single_walls.append(time.perf_counter() - start)
            gc.enable()

            # -- N-replica lockstep leg (one compile+load+prepare) ---------
            gc.collect()
            gc.disable()
            start = time.perf_counter()
            binary = compile_module(module, R2CConfig.full(seed=0xB6 + 2 * rep))
            leader = load_binary(binary, seed=load_seed, heap_size=heap_size)
            processes = [leader] + [
                leader.clone() for _ in range(variants - 1)
            ]
            group = LockstepGroup(
                processes, costs=costs, backend=backend, sync_every=sync_every
            )
            lockstep_result = group.run()
            lockstep_walls.append(time.perf_counter() - start)
            gc.enable()
            total_instructions = sum(
                v.result.instructions for v in group.variants
            )
            total_cycles = sum(v.result.cycles for v in group.variants)
    finally:
        if gc_was_enabled:
            gc.enable()

    single_wall = min(single_walls)
    lockstep_wall = min(lockstep_walls)
    ratio = lockstep_wall / single_wall if single_wall else float("inf")
    return {
        "workload": "webserver",
        "requests": requests,
        "variants": variants,
        "backend": backend,
        "machine": machine,
        "sync_every": sync_every,
        "repeats": max(repeats, 1),
        "outcome": lockstep_result.outcome.value,
        "sync_points": lockstep_result.sync_points,
        "single": {
            "wall_seconds": round(single_wall, 4),
            "wall_seconds_all": [round(w, 4) for w in single_walls],
            "cycles": single_result.cycles,
            "instructions": single_result.instructions,
        },
        "lockstep": {
            "wall_seconds": round(lockstep_wall, 4),
            "wall_seconds_all": [round(w, 4) for w in lockstep_walls],
            "cycles": total_cycles,
            "instructions": total_instructions,
        },
        "cost_ratio": round(ratio, 3),
        "cost_per_added_variant": round(
            (lockstep_wall - single_wall) / max(variants - 1, 1), 4
        ),
    }


def run_bench(
    *,
    backend: str = "reference",
    machine: str = "epyc-rome",
    jobs: int = 1,
    quick: bool = False,
    workloads: Optional[List[str]] = None,
    load_seed: int = 1,
    engine: Optional[ExperimentEngine] = None,
) -> BenchReport:
    """Run the bench grid; returns the report (caller writes the artifact)."""
    if workloads is None:
        workloads = list(QUICK_WORKLOADS if quick else SPEC_BENCHMARKS)
    from repro.machine.jit import jit_stats_snapshot

    stats_before = jit_stats_snapshot()
    owns_engine = engine is None
    if owns_engine:
        engine = ExperimentEngine(jobs=jobs, backend=backend)
    try:
        batch = RequestBatch(engine)
        for workload in workloads:
            module = build_spec_benchmark(workload)
            for config_name, make_config in BENCH_CONFIGS.items():
                batch.add(
                    (workload, config_name),
                    RunRequest(
                        module=module,
                        config=make_config(),
                        machine=machine,
                        load_seed=load_seed,
                        label=f"bench/{config_name}/{workload}",
                    ),
                )
        results = batch.run()
        cells = []
        for workload in workloads:
            for config_name in BENCH_CONFIGS:
                record = results.record((workload, config_name))
                cells.append(
                    BenchCell(
                        workload=workload,
                        config=config_name,
                        outcome=record.outcome,
                        cycles=record.cycles,
                        instructions=record.instructions,
                        icache_hits=record.icache_hits,
                        icache_misses=record.icache_misses,
                        max_rss=record.max_rss,
                        compile_seconds=record.compile_seconds,
                        run_seconds=record.run_seconds,
                    )
                )
        summary = engine.summary()
        # Tier-lowering delta across the grid (non-zero only when the
        # jit backend actually lowered something; parallel workers lower
        # in their own processes, so with jobs > 1 this reflects the
        # coordinator only and the artifact records what it saw).
        stats_after = jit_stats_snapshot()
        tiers = {
            key: stats_after[key] - stats_before.get(key, 0)
            for key in stats_after
        }
        return BenchReport(
            backend=backend,
            machine=machine,
            quick=quick,
            jobs=engine.jobs,
            cells=cells,
            tiers=tiers if any(tiers.values()) else {},
            engine={
                "executed": summary.executed,
                "compiles": summary.compiles,
                "compile_seconds": round(summary.compile_seconds, 4),
                "run_seconds": round(summary.run_seconds, 4),
                "failures": summary.failures.failures,
                "by_outcome": dict(summary.failures.by_outcome),
            },
        )
    finally:
        if owns_engine:
            engine.close()
