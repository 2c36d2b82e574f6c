"""Tests for N-variant batched lockstep execution (`repro.defenses.lockstep`).

The detection contract under test: a seeded corruption in one follower of
a replica group must surface as ``DIVERGED`` with the *correct variant
index* and a usable sync point — across multiple fault seeds and both
execution backends (the divergence report is backend-invariant because
execution is).
"""

import json

import pytest

from repro.attacks.outcomes import AttackOutcome
from repro.core.compiler import compile_module
from repro.core.config import R2CConfig
from repro.defenses.lockstep import (
    DivergenceReport,
    LockstepGroup,
    MveeOutcome,
    run_bitflip_lockstep,
)
from repro.defenses.mvee import MveeResult, mvee_attack_outcome
from repro.machine.loader import load_binary
from repro.workloads.victim import build_victim

from tests.test_backends import BACKENDS

#: Fault seeds whose 96 data-region bitflips perturb victim execution.
#: Pinned empirically (a flip in an unused data word is — correctly —
#: invisible to the cross-check); each diverges identically on both
#: backends, covering both register- and status-kind reports.
DIVERGING_SEEDS = (3, 5, 11)


def _replica_group(count=3, *, backend="reference", sync_every=64, requests=3):
    binary = compile_module(build_victim(requests=requests), R2CConfig.baseline())
    processes = []
    for _ in range(count):
        process = load_binary(binary, seed=0x1C0C, execute_only=False)
        process.register_service("attack_hook", lambda proc, cpu: 0)
        processes.append(process)
    return LockstepGroup(processes, backend=backend, sync_every=sync_every)


def test_lockstep_requires_two_variants():
    with pytest.raises(ValueError):
        _replica_group(count=1)


def test_benign_replicas_stay_clean():
    for backend in BACKENDS:
        group = _replica_group(backend=backend)
        assert group.compare_state  # same binary + layout arms replica mode
        result = group.run()
        assert result.outcome is MveeOutcome.CLEAN
        assert result.divergence is None
        assert result.sync_points > 1
        outputs = {tuple(variant.output) for variant in result.variants}
        assert len(outputs) == 1
        assert all(variant.status == "exit" for variant in result.variants)


@pytest.mark.parametrize("fault_seed", DIVERGING_SEEDS)
@pytest.mark.parametrize("backend", BACKENDS)
def test_follower_bitflip_diverges_with_attribution(fault_seed, backend):
    """Seeded corruption in follower v1 yields DIVERGED naming variant 1
    and the sync point that caught it."""
    result = run_bitflip_lockstep(
        fault_seed=fault_seed, flips=96, backend=backend, corrupt_variant=1
    )
    assert result.outcome is MveeOutcome.DIVERGED
    report = result.divergence
    assert report is not None
    assert report.variant == 1
    assert report.sync_point >= 1
    assert report.kind in ("register", "rip", "output", "status", "alloc", "exit")
    if report.kind == "register":
        assert report.expected != report.observed


def test_divergence_report_is_backend_invariant():
    """Both backends catch the same corruption at the same sync point
    with the same first mismatching observable."""
    reports = {}
    for backend in BACKENDS:
        result = run_bitflip_lockstep(fault_seed=5, flips=96, backend=backend)
        report = result.divergence
        reports[backend] = (
            report.variant,
            report.sync_point,
            report.kind,
            report.field,
            repr(report.expected),
            repr(report.observed),
        )
    assert reports["reference"] == reports["jit"]


def test_divergence_report_serializes():
    result = run_bitflip_lockstep(fault_seed=11, flips=96)
    report = result.divergence
    data = json.loads(report.to_json())
    assert data["schema"] == "repro-divergence/v1"
    assert data["variant"] == 1
    assert data["sync_point"] == report.sync_point
    assert f"v{report.variant}" in report.summary_line()
    assert f"@sync{report.sync_point}" in report.summary_line()


def test_corrupting_variant_zero_is_rejected():
    """The leader is the cross-check baseline; the demo only corrupts
    followers so the reported index is unambiguous."""
    with pytest.raises(ValueError):
        run_bitflip_lockstep(corrupt_variant=0)


def test_alloc_sequence_mismatch_is_divergence():
    """The identical-allocation-ordering invariant is asserted, not
    assumed: a variant whose malloc request stream drifts from the
    leader's is reported as an ``alloc`` divergence at the next sync."""
    group = _replica_group()
    # Phase the leader ahead, then inject allocator drift into v2's log —
    # the observable a hijacked or OOM-rearmed allocator would produce.
    group.run_variant_until(0, lambda variant: len(variant.alloc_log) >= 2)
    group.variants[2].alloc_log.append(0xBAD)
    result = group.run()
    assert result.outcome is MveeOutcome.DIVERGED
    assert result.divergence.kind == "alloc"
    assert result.divergence.variant == 2


def test_divergence_increments_monitor_and_maps_to_attack_outcome():
    result = run_bitflip_lockstep(fault_seed=3, flips=96)
    assert result.outcome is MveeOutcome.DIVERGED
    mvee_view = MveeResult(outcome=result.outcome, divergence=result.divergence)
    assert mvee_attack_outcome(mvee_view) is AttackOutcome.DIVERGED
    assert AttackOutcome.DIVERGED.value == "diverged"


def test_merged_counters_attribute_per_variant():
    """The group's merged perf view sums scalars and namespaces tag
    buckets per variant."""
    group = _replica_group(count=2)
    group.run()
    merged = group.perf_counters()
    per_variant = [variant.result.instructions for variant in group.variants]
    assert merged.instructions == sum(per_variant)
    assert merged.instructions > 0
