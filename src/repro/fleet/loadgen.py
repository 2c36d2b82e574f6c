"""Deterministic open-loop load generation + the serving-axis report.

:func:`open_loop_arrivals` draws Poisson arrivals (exponential
inter-arrival times) from a seeded :class:`~repro.rng.DiversityRng` —
open-loop, so offered load does not slow down when the fleet does (the
coordinated-omission trap closed by construction).  :func:`run_fleet`
assembles the whole stack — webserver module, shared compile cache,
supervised workers, scheduler, chaos — runs it, and distils a
:class:`FleetReport`: p50/p99 latency, sustained RPS, shed/retry/swap
counts, measured re-randomization throughput dip, and the attacker
window (mean seconds one slot keeps one layout).  The report embeds into
the ``repro-bench/v1`` artifact as its ``serving`` section, anchored by
one real measured cell per run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.config import R2CConfig
from repro.eval.engine import CompileCache
from repro.fleet.cache import DiskCompileCache
from repro.fleet.core import ChaosSpec, Fleet, FleetOutcome
from repro.fleet.workers import CLOCK_HZ, FleetWorker
from repro.obs.bench import BenchCell, BenchReport
from repro.rng import DiversityRng
from repro.workloads.webserver import build_webserver

__all__ = ["FleetReport", "open_loop_arrivals", "run_fleet"]


def open_loop_arrivals(
    *, rps: float, duration_seconds: float, rng: DiversityRng
) -> List[float]:
    """Seeded Poisson arrival times in ``[0, duration_seconds)``."""
    if rps <= 0:
        raise ValueError("rps must be positive")
    times: List[float] = []
    at = 0.0
    while True:
        at += -math.log(1.0 - rng.random()) / rps
        if at >= duration_seconds:
            return times
        times.append(at)


def _percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (deterministic, no interpolation)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


@dataclass
class FleetReport:
    """Everything one fleet run reports — all virtual-clock derived, so
    bit-identical across backends for the same seed."""

    backend: str
    machine: str
    seed: int
    workers: int
    rps: float
    duration_seconds: float
    rerand_interval: Optional[float]
    chaos: bool
    arrivals: int
    outcomes: Dict[str, int]
    p50_ms: float
    p99_ms: float
    sustained_rps: float
    shed: int
    retries: int
    hedges: int
    swaps: int
    restarts: int
    quarantines: int
    spare_activations: int
    kills: int
    hangs: int
    hang_detections: int
    compile_faults: int
    layout_changes: int
    #: Mean virtual seconds one slot keeps one layout — the window an
    #: AOCR/Blind-ROP prober has before its gathered knowledge rots.
    attacker_window_seconds: float
    #: Measured serve rate inside drain+swap windows vs. outside.
    swap_window_rps: float
    steady_rps: float
    throughput_dip_pct: float
    cache: Dict[str, object] = field(default_factory=dict)
    #: The generation-0 profile of worker 0: one genuine guest execution
    #: anchoring the artifact (cycles, instructions, i-cache).
    profile: Dict[str, object] = field(default_factory=dict)

    @property
    def zero_lost(self) -> bool:
        return self.arrivals == sum(self.outcomes.values())

    def serving(self) -> Dict[str, object]:
        """The ``repro-bench/v1`` ``serving`` section."""
        return {
            "seed": self.seed,
            "workers": self.workers,
            "offered_rps": self.rps,
            "duration_seconds": self.duration_seconds,
            "rerand_interval": self.rerand_interval,
            "chaos": self.chaos,
            "arrivals": self.arrivals,
            "outcomes": dict(self.outcomes),
            "p50_ms": self.p50_ms,
            "p99_ms": self.p99_ms,
            "sustained_rps": self.sustained_rps,
            "shed": self.shed,
            "retries": self.retries,
            "hedges": self.hedges,
            "swaps": self.swaps,
            "restarts": self.restarts,
            "quarantines": self.quarantines,
            "spare_activations": self.spare_activations,
            "kills": self.kills,
            "hangs": self.hangs,
            "hang_detections": self.hang_detections,
            "compile_faults": self.compile_faults,
            "layout_changes": self.layout_changes,
            "attacker_window_seconds": self.attacker_window_seconds,
            "swap_window_rps": self.swap_window_rps,
            "steady_rps": self.steady_rps,
            "throughput_dip_pct": self.throughput_dip_pct,
            "zero_lost": self.zero_lost,
            "cache": dict(self.cache),
        }

    def to_bench_report(self, *, jobs: int = 1, quick: bool = True) -> BenchReport:
        """Wrap this run as a validating ``repro-bench/v1`` artifact."""
        cell = BenchCell(
            workload="webserver",
            config=f"fleet-full-s{self.seed}",
            outcome="ok",
            cycles=float(self.profile.get("cycles", 0.0)),
            instructions=int(self.profile.get("instructions", 0)),
            icache_hits=int(self.profile.get("icache_hits", 0)),
            icache_misses=int(self.profile.get("icache_misses", 0)),
            max_rss=int(self.profile.get("max_rss", 0)),
            compile_seconds=float(self.profile.get("compile_seconds", 0.0)),
            run_seconds=float(self.profile.get("run_seconds", 0.0)),
        )
        engine = {
            "executed": self.arrivals,
            "compiles": int(self.cache.get("misses", 0)),
            "compile_seconds": float(self.cache.get("compile_seconds", 0.0)),
            "run_seconds": 0.0,
            "failures": 0,
            "by_outcome": dict(self.outcomes),
        }
        return BenchReport(
            backend=self.backend,
            machine=self.machine,
            quick=quick,
            jobs=jobs,
            cells=[cell],
            engine=engine,
            serving=self.serving(),
        )


def run_fleet(
    *,
    workers: int = 4,
    rps: float = 300.0,
    duration_seconds: float = 2.0,
    rerand_interval: Optional[float] = 1.0,
    backend: str = "jit",
    machine: str = "epyc-rome",
    seed: int = 0,
    chaos: bool = False,
    chaos_spec: Optional[ChaosSpec] = None,
    cache_dir: Optional[str] = None,
    deadline_seconds: float = 0.1,
    hedge_after_seconds: Optional[float] = 0.03,
    max_queue: int = 64,
    bucket_rate: Optional[float] = None,
    bucket_burst: float = 32.0,
) -> FleetReport:
    """Build the fleet, drive it with seeded open-loop load, report.

    ``chaos`` (or an explicit ``chaos_spec``) arms seeded worker
    kills/hangs, attack-probe arrivals, and compile faults on background
    builds; the run must still resolve every request (the scheduler
    raises otherwise).
    """
    cache: CompileCache = (
        DiskCompileCache(cache_dir) if cache_dir else CompileCache()
    )
    module = build_webserver(requests=2, footprint_pages=2)
    base_config = R2CConfig.full(seed=1_000 + seed)
    pool = [
        FleetWorker(
            index,
            module,
            base_config,
            cache,
            backend=backend,
            machine=machine,
        )
        for index in range(workers)
    ]
    for worker in pool:
        worker.profile = worker.build(0)

    spec = chaos_spec if chaos_spec is not None else (ChaosSpec() if chaos else None)
    fleet = Fleet(
        pool,
        seed=seed,
        deadline_seconds=deadline_seconds,
        hedge_after_seconds=hedge_after_seconds,
        max_queue=max_queue,
        bucket_rate=bucket_rate if bucket_rate is not None else 1.2 * rps,
        bucket_burst=bucket_burst,
        rerand_interval=rerand_interval,
        chaos=spec,
    )
    arrivals = open_loop_arrivals(
        rps=rps,
        duration_seconds=duration_seconds,
        rng=DiversityRng(seed).child("loadgen"),
    )
    for at in arrivals:
        fleet.submit(at)
    fleet.schedule_rerandomization(duration_seconds)
    fleet.schedule_chaos(duration_seconds)
    stats = fleet.run()

    served_latency = [
        request.latency
        for request in fleet.requests
        if request.outcome in (FleetOutcome.OK, FleetOutcome.DEGRADED)
    ]
    window_seconds = sum(end - begin for begin, end in fleet.swap_windows)
    in_window = sum(
        1
        for request in fleet.requests
        if request.outcome in (FleetOutcome.OK, FleetOutcome.DEGRADED)
        and any(begin <= request.finish <= end for begin, end in fleet.swap_windows)
    )
    steady_seconds = max(duration_seconds - window_seconds, 1e-9)
    steady_rps = (stats.served - in_window) / steady_seconds
    swap_window_rps = in_window / window_seconds if window_seconds > 0 else 0.0
    dip_pct = (
        max(0.0, 100.0 * (1.0 - swap_window_rps / steady_rps))
        if window_seconds > 0 and steady_rps > 0
        else 0.0
    )
    attacker_window = (
        duration_seconds * workers / len(fleet.layout_changes)
        if fleet.layout_changes
        else duration_seconds
    )

    cache_stats: Dict[str, object] = {
        "hits": cache.hits,
        "misses": cache.misses,
        "compile_seconds": cache.compile_seconds,
    }
    if isinstance(cache, DiskCompileCache):
        cache_stats.update(
            disk_hits=cache.disk_hits,
            disk_writes=cache.disk_writes,
            singleflight_waits=cache.singleflight_waits,
            corrupt_entries=cache.corrupt_entries,
        )
    anchor = pool[0].profile
    assert anchor is not None
    return FleetReport(
        backend=backend,
        machine=machine,
        seed=seed,
        workers=workers,
        rps=rps,
        duration_seconds=duration_seconds,
        rerand_interval=rerand_interval,
        chaos=spec is not None,
        arrivals=stats.arrivals,
        outcomes=dict(stats.outcomes),
        p50_ms=1_000.0 * _percentile(served_latency, 0.50),
        p99_ms=1_000.0 * _percentile(served_latency, 0.99),
        sustained_rps=stats.served / duration_seconds,
        shed=stats.shed,
        retries=stats.retries,
        hedges=stats.hedges,
        swaps=stats.swaps,
        restarts=stats.restarts,
        quarantines=stats.quarantines,
        spare_activations=stats.spare_activations,
        kills=stats.kills,
        hangs=stats.hangs,
        hang_detections=stats.hang_detections,
        compile_faults=stats.compile_faults,
        layout_changes=len(fleet.layout_changes),
        attacker_window_seconds=attacker_window,
        swap_window_rps=swap_window_rps,
        steady_rps=steady_rps,
        throughput_dip_pct=dip_pct,
        cache=cache_stats,
        profile={
            "cycles": anchor.cycles,
            "instructions": anchor.instructions,
            "icache_hits": anchor.icache_hits,
            "icache_misses": anchor.icache_misses,
            "max_rss": anchor.max_rss,
            "compile_seconds": anchor.compile_seconds,
            "run_seconds": anchor.run_seconds,
            "service_ms": 1_000.0 * anchor.cycles / CLOCK_HZ,
        },
    )
