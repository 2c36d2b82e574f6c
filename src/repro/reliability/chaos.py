"""``python -m repro chaos``: the fault-injection matrix.

Chaos runs are the reliability layer's own acceptance test: build a batch
that injects every fault kind into real workloads, submit it through a
fault-armed :class:`~repro.eval.engine.ExperimentEngine`, and assert the
engine's contract held — a full, request-ordered record list with every
injected fault surfaced as the *expected* ``outcome`` (no unhandled
exception, no lost cell).  CI runs this matrix on both execution backends
with ``--jobs 4``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.config import R2CConfig
from repro.eval.engine import ExperimentEngine, RunRequest
from repro.reliability.faults import FaultPlan, FaultRule
from repro.workloads.victim import build_victim
from repro.workloads.webserver import build_webserver

#: Expected record outcomes per injected kind.  A bitflip may land in dead
#: padding (``ok``) or corrupt live state (``fault``); both prove the
#: engine survived — what chaos rejects is a bitflip escalating to a
#: host-side ``error`` or hanging the batch.
EXPECTED_OUTCOMES: Dict[str, Tuple[str, ...]] = {
    "control": ("ok",),
    "bitflip": ("ok", "fault"),
    "alloc-oom": ("fault",),
    "compile-error": ("error",),
    "worker-crash": ("error",),
    "worker-hang": ("timeout",),
}


def chaos_plan(seed: int = 0) -> FaultPlan:
    """The standard chaos-matrix plan: one rule per fault kind, matched by
    the ``chaos/<kind>/...`` label convention."""
    return FaultPlan(
        seed=seed,
        rules=(
            FaultRule("CHAOS-FLIP", "bitflip", match="chaos/bitflip/*", count=16),
            # The victim churns the heap, so its OOM fires mid-run; the
            # webserver makes one ballast allocation, so its OOM must fire
            # on the first malloc.
            FaultRule(
                "CHAOS-OOM", "alloc-oom", match="chaos/alloc-oom/victim", after_allocs=3
            ),
            FaultRule(
                "CHAOS-OOM-FIRST", "alloc-oom", match="chaos/alloc-oom/nginx"
            ),
            FaultRule("CHAOS-COMPILE", "compile-error", match="chaos/compile-error/*"),
            FaultRule("CHAOS-CRASH", "worker-crash", match="chaos/worker-crash/*"),
            FaultRule("CHAOS-HANG", "worker-hang", match="chaos/worker-hang/*", hang_seconds=60.0),
        ),
    )


@dataclass
class ChaosCell:
    """One matrix cell: what was injected and what came back."""

    kind: str
    label: str
    workload: str
    outcome: str
    fault_class: str = ""
    rule: str = ""

    @property
    def ok(self) -> bool:
        return self.outcome in EXPECTED_OUTCOMES[self.kind]


@dataclass
class ChaosReport:
    """The chaos run's verdict, serializable for the CI artifact."""

    jobs: int
    backend: str
    seed: int
    timeout: float
    cells: List[ChaosCell] = field(default_factory=list)
    #: Contract violations: misordered batches, wrong outcomes, missing
    #: rule attributions.  Empty means the run is green.
    violations: List[str] = field(default_factory=list)
    summary: Optional[object] = None  # EngineSummary

    @property
    def ok(self) -> bool:
        return not self.violations

    def outcomes_by_kind(self) -> Dict[str, Dict[str, int]]:
        tallies: Dict[str, Dict[str, int]] = {}
        for cell in self.cells:
            row = tallies.setdefault(cell.kind, {})
            row[cell.outcome] = row.get(cell.outcome, 0) + 1
        return tallies

    def to_json(self) -> str:
        failures = self.summary.failures if self.summary is not None else None
        return json.dumps(
            {
                "jobs": self.jobs,
                "backend": self.backend,
                "seed": self.seed,
                "timeout": self.timeout,
                "ok": self.ok,
                "violations": list(self.violations),
                "cells": [
                    {
                        "kind": cell.kind,
                        "label": cell.label,
                        "workload": cell.workload,
                        "outcome": cell.outcome,
                        "fault_class": cell.fault_class,
                        "rule": cell.rule,
                        "ok": cell.ok,
                    }
                    for cell in self.cells
                ],
                "failure_summary": (
                    None
                    if failures is None
                    else {
                        "failures": failures.failures,
                        "by_outcome": dict(failures.by_outcome),
                        "by_class": dict(failures.by_class),
                        "by_rule": dict(failures.by_rule),
                        "pool_rebuilds": failures.pool_rebuilds,
                        "quarantined": failures.quarantined,
                        "serial_fallbacks": failures.serial_fallbacks,
                    }
                ),
            },
            sort_keys=True,
        )


@dataclass
class FleetChaosReport:
    """The fleet chaos leg's verdict (``python -m repro chaos --fleet``)."""

    backend: str
    seed: int
    workers: int
    #: The surviving run's serving section (outcome tallies, swap/retry
    #: counts, latency percentiles).
    serving: Dict[str, object] = field(default_factory=dict)
    violations: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json(self) -> str:
        return json.dumps(
            {
                "backend": self.backend,
                "seed": self.seed,
                "workers": self.workers,
                "ok": self.ok,
                "violations": list(self.violations),
                "serving": dict(self.serving),
            },
            sort_keys=True,
        )


def run_fleet_chaos(
    *,
    backend: str = "jit",
    seed: int = 0,
    workers: int = 4,
    rps: float = 300.0,
    duration_seconds: float = 2.0,
) -> FleetChaosReport:
    """Chaos the serving layer: seeded kills, hangs, attack probes, and
    compile faults against a live fleet, asserting the robustness
    contract — zero lost requests, every outcome typed, re-randomization
    still completing, and the whole run bit-deterministic (same seed, two
    runs, identical serving metrics).
    """
    # Imported here: the fleet sits above the reliability layer.
    from repro.fleet.core import ChaosSpec
    from repro.fleet.loadgen import run_fleet

    report = FleetChaosReport(backend=backend, seed=seed, workers=workers)
    spec = ChaosSpec(
        kill_fraction=0.5,
        hang_fraction=0.25,
        attack_fraction=0.05,
        compile_fault_every=2,
        kill_waves=4,
        hang_waves=2,
    )

    def one_run():
        return run_fleet(
            workers=workers,
            rps=rps,
            duration_seconds=duration_seconds,
            backend=backend,
            seed=seed,
            chaos_spec=spec,
        )

    try:
        first = one_run()
    except RuntimeError as exc:
        # The scheduler's own zero-drop contract fired.
        report.violations.append(f"fleet lost requests under chaos: {exc}")
        return report
    report.serving = first.serving()

    if not first.zero_lost:
        report.violations.append(
            f"{first.arrivals} arrivals but only "
            f"{sum(first.outcomes.values())} typed outcomes"
        )
    if first.kills + first.hangs == 0:
        report.violations.append("chaos injected no kills or hangs")
    if first.compile_faults == 0:
        report.violations.append("chaos injected no compile faults")
    if first.outcomes.get("fault", 0) == 0:
        report.violations.append("no attack probe turned into a fault outcome")
    if first.swaps == 0:
        report.violations.append(
            "rolling re-randomization completed no swaps under chaos"
        )
    if first.restarts == 0:
        report.violations.append("no worker came back from a crash")

    second = one_run()
    first_metrics, second_metrics = first.serving(), second.serving()
    # Host-side cache telemetry is environmental; everything else must
    # be bit-identical between the two runs.
    first_metrics.pop("cache"), second_metrics.pop("cache")
    if first_metrics != second_metrics:
        diverged = [
            key
            for key in first_metrics
            if first_metrics[key] != second_metrics.get(key)
        ]
        report.violations.append(
            f"chaos run is not deterministic; diverging keys: {diverged}"
        )
    return report


def run_chaos(
    *,
    jobs: int = 2,
    backend: str = "reference",
    seed: int = 0,
    timeout: float = 10.0,
) -> ChaosReport:
    """Run the full fault matrix; never raises on injected faults.

    Two workloads (the victim server with heap churn, so mid-run OOM has
    allocation traffic to starve, and the nginx-flavoured webserver) each
    take every fault kind once, plus clean control cells.
    """
    plan = chaos_plan(seed)
    workloads = {
        "victim": (build_victim(heap_churn=4), R2CConfig.baseline()),
        "nginx": (
            build_webserver("nginx", requests=12, footprint_pages=4),
            R2CConfig.full(seed=7),
        ),
    }
    report = ChaosReport(jobs=jobs, backend=backend, seed=seed, timeout=timeout)
    requests: List[RunRequest] = []
    kinds: List[Tuple[str, str]] = []
    for kind in EXPECTED_OUTCOMES:
        for workload_index, (workload, (module, config)) in enumerate(
            workloads.items()
        ):
            label = f"chaos/{kind}/{workload}"
            requests.append(
                RunRequest(
                    module,
                    config,
                    load_seed=seed + 1 + workload_index,
                    label=label,
                )
            )
            kinds.append((kind, workload))

    engine = ExperimentEngine(
        jobs=jobs, backend=backend, fault_plan=plan, timeout=timeout
    )
    try:
        records = engine.submit(requests)
        if len(records) != len(requests):
            report.violations.append(
                f"batch returned {len(records)} records for {len(requests)} requests"
            )
        for request, record, (kind, workload) in zip(requests, records, kinds):
            detail = record.failure or {}
            cell = ChaosCell(
                kind=kind,
                label=request.label,
                workload=workload,
                outcome=record.outcome,
                fault_class=detail.get("class", ""),
                rule=detail.get("rule", ""),
            )
            report.cells.append(cell)
            if record.label != request.label:
                report.violations.append(
                    f"{request.label}: record order broken (got {record.label})"
                )
            if not cell.ok:
                report.violations.append(
                    f"{cell.label}: outcome {cell.outcome!r} not in "
                    f"{EXPECTED_OUTCOMES[kind]} ({cell.fault_class}: "
                    f"{detail.get('message', '')})"
                )
            if kind != "control" and record.outcome != "ok" and not cell.rule:
                report.violations.append(
                    f"{cell.label}: failure not attributed to a chaos rule"
                )
        report.summary = engine.summary()
    finally:
        engine.close()
    return report
