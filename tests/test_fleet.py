"""Tests for the victim fleet (repro.fleet.*).

The acceptance physics under test: the on-disk compile cache is
content-addressed, single-flight, and self-healing; the scheduler never
loses a request (every arrival resolves to a typed outcome, under load
shedding, chaos, and rolling re-randomization alike); and the whole
simulation is bit-deterministic — same seed, same metrics, on every
backend.
"""

import os
import pickle
import time

import pytest

from repro.core.compiler import compile_module
from repro.core.config import R2CConfig
from repro.eval.engine import CompileCache, ExperimentEngine, RunRequest
from repro.fleet import (
    ChaosSpec,
    DiskCompileCache,
    Fleet,
    FleetOutcome,
    FleetWorker,
    TokenBucket,
    WorkerState,
    open_loop_arrivals,
    run_fleet,
)
from repro.obs.bench import BenchReport, validate
from repro.rng import DiversityRng
from repro.workloads.webserver import build_webserver


@pytest.fixture(scope="module")
def module():
    return build_webserver(requests=1, footprint_pages=1)


def serving_metrics(report):
    """The serving section minus host-environmental cache telemetry."""
    data = report.serving()
    data.pop("cache")
    return data


# ---------------------------------------------------------------------------
# DiskCompileCache
# ---------------------------------------------------------------------------

def test_binary_pickle_roundtrip(module):
    """Binaries (including the BTDP constructor) survive pickling — the
    invariant the on-disk store and the engine's pool both rest on."""
    binary = compile_module(module, R2CConfig.full(seed=3))
    clone = pickle.loads(pickle.dumps(binary))
    assert clone.constructors  # the BTDP constructor survived


def test_disk_cache_hits_across_instances(module, tmp_path):
    config = R2CConfig.baseline()
    first = DiskCompileCache(str(tmp_path))
    _, _, hit = first.get_or_compile(module, config)
    assert not hit and first.disk_writes == 1

    # A fresh instance (another process, another session) hits the disk.
    second = DiskCompileCache(str(tmp_path))
    binary, _, hit = second.get_or_compile(module, config)
    assert hit and second.disk_hits == 1 and second.disk_writes == 0
    # ...and the loaded binary is the same build.
    original = first._entries[(module.fingerprint(), config.digest())]
    assert binary.config_digest == original.config_digest
    assert binary.text_size == original.text_size


def test_disk_cache_heals_corrupt_entry(module, tmp_path):
    config = R2CConfig.baseline()
    cache = DiskCompileCache(str(tmp_path))
    cache.get_or_compile(module, config)
    path = cache.entry_path((module.fingerprint(), config.digest()))
    with open(path, "wb") as handle:
        handle.write(b"truncated garbage")

    healer = DiskCompileCache(str(tmp_path))
    _, _, hit = healer.get_or_compile(module, config)
    assert not hit  # recompiled
    assert healer.corrupt_entries == 1
    assert healer.disk_writes == 1  # and re-persisted a good entry


def test_disk_cache_waits_for_flight_then_compiles(module, tmp_path):
    """A held lock makes concurrent callers wait; if the flight never
    lands, the waiter compiles locally instead of deadlocking."""
    config = R2CConfig.baseline()
    cache = DiskCompileCache(str(tmp_path), wait_seconds=0.05, poll_seconds=0.01)
    lock = cache._lock_path((module.fingerprint(), config.digest()))
    with open(lock, "w", encoding="utf-8") as handle:
        handle.write("999999")  # a flight holder that never finishes
    _, _, hit = cache.get_or_compile(module, config)
    assert not hit
    assert cache.singleflight_waits == 1


def test_disk_cache_breaks_stale_locks(module, tmp_path):
    config = R2CConfig.baseline()
    cache = DiskCompileCache(str(tmp_path), wait_seconds=0.2, poll_seconds=0.01,
                             lock_stale_seconds=0.01)
    lock = cache._lock_path((module.fingerprint(), config.digest()))
    with open(lock, "w", encoding="utf-8") as handle:
        handle.write("999999")
    stale = time.time() - 60.0
    os.utime(lock, (stale, stale))
    cache.get_or_compile(module, config)
    assert not os.path.exists(lock)  # broken, compiled, released


def test_engine_cache_dir_shares_compiles(module, tmp_path):
    request = RunRequest(module, R2CConfig.baseline(), label="fleet/engine")
    first = ExperimentEngine(jobs=1, cache_dir=str(tmp_path))
    try:
        assert isinstance(first.cache, DiskCompileCache)
        records = first.submit([request])
        assert records[0].outcome == "ok"
        assert first.cache.disk_writes == 1
    finally:
        first.close()

    second = ExperimentEngine(jobs=1, cache_dir=str(tmp_path))
    try:
        records = second.submit([request])
        assert records[0].outcome == "ok"
        assert second.cache.disk_hits == 1
        assert second.cache.misses == 0
    finally:
        second.close()


# ---------------------------------------------------------------------------
# Scheduler mechanics
# ---------------------------------------------------------------------------

def test_token_bucket_refills_on_virtual_clock():
    bucket = TokenBucket(rate=10.0, burst=2.0)
    assert bucket.admit(0.0) and bucket.admit(0.0)
    assert not bucket.admit(0.0)  # burst spent
    assert bucket.admit(0.1)  # one token back after 0.1s at 10/s
    assert not bucket.admit(0.1)


def test_open_loop_arrivals_seeded():
    first = open_loop_arrivals(rps=100.0, duration_seconds=1.0, rng=DiversityRng(7))
    second = open_loop_arrivals(rps=100.0, duration_seconds=1.0, rng=DiversityRng(7))
    other = open_loop_arrivals(rps=100.0, duration_seconds=1.0, rng=DiversityRng(8))
    assert first == second
    assert first != other
    assert all(0.0 <= at < 1.0 for at in first)
    assert first == sorted(first)


def small_fleet(module, workers=2, **kwargs):
    cache = CompileCache()
    pool = [
        FleetWorker(index, module, R2CConfig.full(seed=1_000), cache, backend="jit")
        for index in range(workers)
    ]
    for worker in pool:
        worker.profile = worker.build(0)
    return Fleet(pool, **kwargs)


def test_admission_sheds_explicitly_never_silently(module):
    """Overload resolves as typed REJECTED outcomes; arrivals always
    equal resolved outcomes."""
    fleet = small_fleet(
        module, workers=1, seed=3, bucket_rate=20.0, bucket_burst=2.0, max_queue=2,
        rerand_interval=None, hedge_after_seconds=None,
    )
    for index in range(50):
        fleet.submit(0.001 * index)  # 1000 rps offered at 20 rps admitted
    stats = fleet.run()
    assert stats.arrivals == 50
    assert stats.resolved == 50
    assert stats.outcomes["rejected"] > 0
    assert stats.shed == stats.outcomes["rejected"]


def test_deadline_resolves_timed_out(module):
    """A deadline shorter than the service time resolves TIMED_OUT —
    still typed, still counted."""
    fleet = small_fleet(
        module, workers=1, seed=3, deadline_seconds=0.0001,
        hedge_after_seconds=None, rerand_interval=None,
    )
    fleet.submit(0.0)
    stats = fleet.run()
    assert stats.outcomes["timed-out"] == 1
    assert stats.resolved == 1


def test_kill_reenqueues_inflight_request_as_degraded(module):
    """A killed worker's in-flight request retries on a sibling and
    completes DEGRADED — robustness the client can see but survive."""
    fleet = small_fleet(
        module, workers=2, seed=3, rerand_interval=None, hedge_after_seconds=None,
    )
    rid = fleet.submit(0.0)
    fleet._push(0.001, "kill", ((0,),))  # mid-service: worker 0 has it
    stats = fleet.run()
    assert stats.kills == 1
    assert stats.retries == 1
    request = fleet.requests[rid]
    assert request.outcome is FleetOutcome.DEGRADED
    assert request.workers == [0, 1]


def test_flapping_worker_quarantined_and_warm_spared(module):
    """Consecutive crashes quarantine the slot; the warm spare comes up
    re-diversified (a fresh generation) and serves again."""
    fleet = small_fleet(
        module, workers=1, seed=3, rerand_interval=None, hedge_after_seconds=None,
    )
    worker = fleet.workers[0]
    worker.quarantine_crashes = 3
    # Three kills spaced past the backoff revivals: a crash storm on the
    # slot with no successful serve in between.
    fleet._push(0.010, "kill", ((0,),))
    fleet._push(0.030, "kill", ((0,),))
    fleet._push(0.060, "kill", ((0,),))
    stats = fleet.run()
    assert stats.quarantines == 1
    assert stats.spare_activations == 1
    assert worker.state is WorkerState.IDLE
    assert worker.generation == 1  # the spare is a new diversification
    assert worker.consecutive_crashes == 0


def test_rolling_rerandomization_zero_drops(module):
    """Every worker rotates layouts under live load and not one request
    is dropped or shed by the rotation."""
    fleet = small_fleet(
        module, workers=2, seed=5, rerand_interval=0.2, hedge_after_seconds=None,
    )
    rng = DiversityRng(5).child("loadgen")
    for at in open_loop_arrivals(rps=150.0, duration_seconds=1.0, rng=rng):
        fleet.submit(at)
    fleet.schedule_rerandomization(1.0)
    stats = fleet.run()
    assert stats.swaps >= 4  # both workers rotated repeatedly
    assert stats.resolved == stats.arrivals
    assert stats.outcomes["rejected"] == 0
    assert stats.outcomes["timed-out"] == 0
    assert len(fleet.layout_changes) == stats.swaps
    assert all(worker.generation > 0 for worker in fleet.workers)


# ---------------------------------------------------------------------------
# End-to-end: run_fleet
# ---------------------------------------------------------------------------

def test_run_fleet_deterministic_across_backends_and_runs(tmp_path):
    kwargs = dict(workers=2, rps=150.0, duration_seconds=0.5, seed=9, chaos=True)
    jit = run_fleet(backend="jit", **kwargs)
    again = run_fleet(backend="jit", cache_dir=str(tmp_path), **kwargs)
    reference = run_fleet(backend="reference", **kwargs)
    assert serving_metrics(jit) == serving_metrics(again)
    assert serving_metrics(jit) == serving_metrics(reference)
    # Different seeds genuinely differ.
    other = run_fleet(backend="jit", workers=2, rps=150.0,
                      duration_seconds=0.5, seed=10, chaos=True)
    assert serving_metrics(jit) != serving_metrics(other)


def test_run_fleet_chaos_zero_lost():
    spec = ChaosSpec(kill_fraction=0.5, hang_fraction=0.5, attack_fraction=0.05,
                     compile_fault_every=2, kill_waves=3, hang_waves=2)
    report = run_fleet(workers=3, rps=200.0, duration_seconds=1.0,
                       backend="jit", seed=4, chaos_spec=spec)
    assert report.zero_lost
    assert report.kills + report.hangs > 0
    assert report.outcomes["fault"] > 0  # attack probes became faults
    assert report.compile_faults > 0
    assert report.swaps > 0  # rotation kept going under fire
    assert report.restarts > 0


def test_run_fleet_artifact_validates_and_roundtrips():
    report = run_fleet(workers=2, rps=100.0, duration_seconds=0.5,
                       backend="jit", seed=2)
    bench = report.to_bench_report()
    problems = validate(__import__("json").loads(bench.to_json()))
    assert problems == []
    clone = BenchReport.from_json(bench.to_json())
    assert clone.serving["arrivals"] == report.arrivals
    assert clone.serving["p99_ms"] == report.p99_ms
    assert clone.cells[0].cycles > 0  # anchored by a real execution
