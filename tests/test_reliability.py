"""Tests for the reliability layer: deterministic fault injection and the
failure-tolerant engine (repro.reliability.faults + repro.eval.engine).

The contract under test: an injected fault never escapes as an exception —
it becomes a structured failure record with the right ``outcome`` and rule
attribution, the batch always comes back full and request-ordered, and
deterministic fault outcomes are byte-identical across execution backends.
"""

import pickle

import pytest

from repro.core.config import R2CConfig
from repro.eval.engine import (
    CACHEABLE_OUTCOMES,
    ExperimentEngine,
    RunRecord,
    RunRequest,
)
from repro.eval.report import render_engine_summary
from repro.reliability.faults import FAULT_KINDS, FaultPlan, FaultRule
from repro.workloads.victim import build_victim


def victim_requests(plan_labels, *, load_seed=11):
    """One request per label; distinct load seeds keep distinct labels from
    aliasing in the run-level dedup (labels are not part of the run key)."""
    module = build_victim(heap_churn=2)
    config = R2CConfig.baseline()
    return [
        RunRequest(module=module, config=config, load_seed=load_seed + index, label=label)
        for index, label in enumerate(plan_labels)
    ]


# ---------------------------------------------------------------------------
# FaultPlan / FaultRule
# ---------------------------------------------------------------------------

def test_fault_rule_validation():
    with pytest.raises(ValueError):
        FaultRule("R1", "not-a-kind")
    with pytest.raises(ValueError):
        FaultRule("R1", "bitflip", region="text")  # only data/heap/stack
    with pytest.raises(ValueError):
        FaultPlan(rules=(FaultRule("R1", "bitflip"), FaultRule("R1", "alloc-oom")))


def test_fault_plan_matching_and_signature():
    plan = FaultPlan(
        seed=9,
        rules=(
            FaultRule("FLIP", "bitflip", match="inject/*"),
            FaultRule("OOM", "alloc-oom", match="inject/oom"),
        ),
    )
    assert [r.rule_id for r in plan.rules_for("inject/oom")] == ["FLIP", "OOM"]
    assert plan.rule_of_kind("inject/x", "bitflip").rule_id == "FLIP"
    assert plan.rule_of_kind("clean", "bitflip") is None
    assert plan.injection_signature("clean") is None
    assert plan.injection_signature("inject/oom") == (9, ("FLIP", "OOM"))


def test_fault_plan_pickles():
    """Plans ride into pool workers; they must survive pickling."""
    plan = FaultPlan(
        seed=3, rules=tuple(FaultRule(f"R{i}", kind) for i, kind in enumerate(FAULT_KINDS))
    )
    assert pickle.loads(pickle.dumps(plan)) == plan


# ---------------------------------------------------------------------------
# Serial injection: every kind becomes the right structured outcome
# ---------------------------------------------------------------------------

def serial_plan():
    return FaultPlan(
        seed=5,
        rules=(
            FaultRule("FLIP", "bitflip", match="inject/flip", count=8),
            FaultRule("OOM", "alloc-oom", match="inject/oom", after_allocs=2),
            FaultRule("CE", "compile-error", match="inject/compile"),
            FaultRule("CRASH", "worker-crash", match="inject/crash"),
            FaultRule("HANG", "worker-hang", match="inject/hang", hang_seconds=30.0),
        ),
    )


def test_serial_injection_outcomes():
    labels = [
        "clean",
        "inject/flip",
        "inject/oom",
        "inject/compile",
        "inject/crash",
        "inject/hang",
    ]
    with ExperimentEngine(jobs=1, fault_plan=serial_plan()) as engine:
        records = engine.submit(victim_requests(labels))
    by_label = {r.label: r for r in records}
    assert [r.label for r in records] == labels
    assert by_label["clean"].outcome == "ok" and by_label["clean"].failure is None
    # A bitflip may land in padding (ok) or corrupt live state (fault);
    # either way it stays a record, not an exception.
    assert by_label["inject/flip"].outcome in ("ok", "fault")
    assert by_label["inject/oom"].outcome == "fault"
    assert by_label["inject/oom"].failure["class"] == "AllocatorError"
    assert by_label["inject/oom"].failure["rule"] == "OOM"
    assert by_label["inject/compile"].outcome == "error"
    assert by_label["inject/compile"].failure["rule"] == "CE"
    # Serial mode records worker kills/hangs instead of honouring them.
    assert by_label["inject/crash"].outcome == "error"
    assert by_label["inject/crash"].failure["rule"] == "CRASH"
    assert by_label["inject/hang"].outcome == "timeout"
    assert by_label["inject/hang"].failure["rule"] == "HANG"


def test_injection_signature_prevents_cache_aliasing():
    """A clean cell and an injected cell for the same (module, config,
    seed) must not serve each other from the run cache."""
    plan = FaultPlan(rules=(FaultRule("OOM", "alloc-oom", match="inject/*"),))
    with ExperimentEngine(jobs=1, fault_plan=plan) as engine:
        clean, injected = engine.submit(victim_requests(["clean", "inject/oom"]))
        assert clean.outcome == "ok"
        assert injected.outcome == "fault"
        # Cacheable outcomes are served from the run cache on resubmit.
        again = engine.submit(victim_requests(["clean", "inject/oom"]))
        assert again[0] is clean and again[1] is injected
        assert engine.summary().run_cache_hits == 2


def test_bitflip_deterministic_across_engines_and_backends():
    """The flip site is a pure function of (plan seed, rule, load seed), so
    the corrupted run is itself deterministic: both backends and fresh
    engines produce byte-identical canonical records."""
    plan = FaultPlan(
        seed=21,
        rules=(FaultRule("FLIP", "bitflip", match="flip/*", count=32, region="data"),),
    )
    canonicals = []
    for backend in ("reference", "jit"):
        for _ in range(2):
            with ExperimentEngine(jobs=1, backend=backend, fault_plan=plan) as engine:
                record = engine.submit(victim_requests(["flip/x"]))[0]
            canonicals.append(record.canonical_json())
    assert len(set(canonicals)) == 1


def test_fault_outcomes_identical_across_backends():
    """Differential check: injected OOM faults leave identical canonical
    records (outcome, failure detail, partial counters) on both backends."""
    plan = FaultPlan(
        rules=(FaultRule("OOM", "alloc-oom", match="inject/oom", after_allocs=4),)
    )
    per_backend = []
    for backend in ("reference", "jit"):
        with ExperimentEngine(jobs=1, backend=backend, fault_plan=plan) as engine:
            record = engine.submit(victim_requests(["inject/oom"]))[0]
        assert record.outcome == "fault"
        per_backend.append(record.canonical())
    assert per_backend[0] == per_backend[1]


# ---------------------------------------------------------------------------
# Parallel failure tolerance
# ---------------------------------------------------------------------------

def test_parallel_crash_quarantined_batch_complete():
    """An injected worker kill must not cost the batch: innocents complete,
    the poison request comes back as a structured error, and the engine
    stays usable."""
    plan = FaultPlan(rules=(FaultRule("CRASH", "worker-crash", match="inject/crash"),))
    labels = ["ok/a", "ok/b", "inject/crash", "ok/c"]
    with ExperimentEngine(jobs=2, fault_plan=plan) as engine:
        records = engine.submit(victim_requests(labels))
        assert [r.label for r in records] == labels
        by_label = {r.label: r for r in records}
        for label in ("ok/a", "ok/b", "ok/c"):
            assert by_label[label].outcome == "ok"
        crash = by_label["inject/crash"]
        assert crash.outcome == "error"
        assert crash.failure["class"] == "worker-crash"
        assert crash.failure["rule"] == "CRASH"
        summary = engine.summary()
        assert summary.failures.pool_rebuilds >= 1
        # The engine survives: a follow-up batch executes normally.
        after = engine.submit(victim_requests(["after/clean"]))
        assert after[0].outcome == "ok"


def test_parallel_hang_times_out_innocents_unaffected():
    plan = FaultPlan(
        rules=(FaultRule("HANG", "worker-hang", match="inject/hang", hang_seconds=60.0),)
    )
    labels = ["ok/a", "inject/hang", "ok/b"]
    with ExperimentEngine(jobs=2, fault_plan=plan, timeout=4.0) as engine:
        records = engine.submit(victim_requests(labels))
    by_label = {r.label: r for r in records}
    assert by_label["ok/a"].outcome == "ok"
    assert by_label["ok/b"].outcome == "ok"
    hang = by_label["inject/hang"]
    assert hang.outcome == "timeout"
    assert hang.failure["class"] == "worker-hang"
    assert hang.failure["rule"] == "HANG"


def test_serial_fallback_after_repeated_breakage():
    """With no rebuild budget, the engine degrades to in-process execution
    and still returns the full batch."""
    plan = FaultPlan(rules=(FaultRule("CRASH", "worker-crash", match="inject/crash"),))
    labels = ["ok/a", "inject/crash", "ok/b"]
    with ExperimentEngine(jobs=2, fault_plan=plan, max_pool_rebuilds=0) as engine:
        records = engine.submit(victim_requests(labels))
        summary = engine.summary()
    assert [r.label for r in records] == labels
    assert summary.failures.serial_fallbacks == 1
    assert all(r.outcome == "ok" for r in records if r.label.startswith("ok/"))
    assert records[1].outcome == "error"


def test_environmental_outcomes_not_cached():
    """timeout/error are environmental: resubmitting the key re-executes."""
    assert CACHEABLE_OUTCOMES == ("ok", "fault")
    plan = FaultPlan(rules=(FaultRule("CE", "compile-error", match="inject/compile"),))
    with ExperimentEngine(jobs=1, fault_plan=plan) as engine:
        first = engine.submit(victim_requests(["inject/compile"]))[0]
        second = engine.submit(victim_requests(["inject/compile"]))[0]
        assert first.outcome == second.outcome == "error"
        assert first is not second
        assert engine.summary().run_cache_hits == 0


# ---------------------------------------------------------------------------
# FailureSummary + rendering
# ---------------------------------------------------------------------------

def test_failure_summary_counts_and_render():
    with ExperimentEngine(jobs=1, fault_plan=serial_plan()) as engine:
        engine.submit(
            victim_requests(["clean", "inject/oom", "inject/compile", "inject/crash"])
        )
        summary = engine.summary()
    failures = summary.failures
    assert not failures.clean
    assert failures.by_outcome["fault"] == 1
    assert failures.by_outcome["error"] == 2
    assert failures.by_rule == {"OOM": 1, "CE": 1, "CRASH": 1}
    rendered = render_engine_summary(summary)
    assert rendered.startswith("Engine:")
    assert "failures:" in rendered
    assert "OOM:1" in rendered


# ---------------------------------------------------------------------------
# Chaos matrix
# ---------------------------------------------------------------------------

def test_chaos_matrix_green_and_serializes():
    from repro.reliability.chaos import EXPECTED_OUTCOMES, run_chaos

    report = run_chaos(jobs=2, backend="reference", seed=0, timeout=5.0)
    assert report.ok, report.violations
    assert {cell.kind for cell in report.cells} == set(EXPECTED_OUTCOMES)
    payload = report.to_json()
    assert '"ok": true' in payload
    assert report.outcomes_by_kind()["worker-hang"] == {"timeout": 2}
