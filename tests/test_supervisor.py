"""Tests for crash triage and the reactive supervisor
(repro.reliability.crashreport + repro.reliability.supervisor).

The acceptance physics under test: crash reports are structured and
backend-deterministic, restart policies mean what they say, and —
the paper's Section 4/7.3 point — a supervisor that re-randomizes on
restart defeats the Blind ROP probe loop that a plain fork-server
(restart-same) loses to.
"""

import pytest
from hypothesis import given, strategies as st

from repro.attacks import ALL_ATTACKS
from repro.attacks.outcomes import AttackOutcome
from repro.attacks.scenario import VictimSession
from repro.core.config import R2CConfig
from repro.reliability import (
    STATUS_UNAVAILABLE,
    TRIAGE_BENIGN,
    TRIAGE_BTDP,
    CrashReport,
    RestartPolicy,
    SupervisedSession,
)
from repro.reliability.supervisor import backoff_delay

WILD_ADDRESS = 0xDEAD_0000_0000


def wild_read(view):
    view.read_word(WILD_ADDRESS)


def btdp_deref(view):
    view.read_word(view._process.r2c_runtime["btdp_values"][0])


# ---------------------------------------------------------------------------
# CrashReport
# ---------------------------------------------------------------------------

def test_crash_report_fields_benign_fault():
    session = VictimSession(R2CConfig.baseline())
    probe = session.probe_ex(wild_read)
    assert probe.status == "crashed"
    report = CrashReport.from_fault(probe.exception, probe.cpu, probe.process, sequence=3)
    assert report.sequence == 3
    assert report.fault_class == "MemoryFault"
    assert report.triage == TRIAGE_BENIGN
    assert not report.detected
    assert report.faulting_address == WILD_ADDRESS
    assert report.faulting_region is None  # wild address maps to no region
    assert set(report.registers) >= {"rax", "rsp", "rbp"}
    assert report.registers["rsp"] != 0
    assert report.stack_window  # rsp is mapped, the window captured words
    # The unwinder recovers the victim's request-handling chain.
    assert "process_request" in report.backtrace
    line = report.summary_line()
    assert "benign-fault" in line and "MemoryFault" in line


def test_crash_report_btdp_trip_detected():
    session = VictimSession(R2CConfig.full(seed=3))
    probe = session.probe_ex(btdp_deref)
    report = CrashReport.from_fault(probe.exception, probe.cpu, probe.process)
    assert report.fault_class == "GuardPageFault"
    assert report.triage == TRIAGE_BTDP
    assert report.detected


def test_crash_report_identical_across_backends():
    """Both execution backends leave identical post-mortem state, so the
    serialized reports are byte-identical."""
    payloads = []
    for backend in ("reference", "jit"):
        session = VictimSession(R2CConfig.full(seed=5), backend=backend)
        probe = session.probe_ex(wild_read)
        assert probe.exception is not None
        report = CrashReport.from_fault(probe.exception, probe.cpu, probe.process)
        payloads.append(report.to_json())
    assert payloads[0] == payloads[1]


# ---------------------------------------------------------------------------
# Restart policies
# ---------------------------------------------------------------------------

def test_policy_parse():
    assert RestartPolicy.parse("restart-same") is RestartPolicy.RESTART_SAME
    assert RestartPolicy.parse(RestartPolicy.NONE) is RestartPolicy.NONE
    with pytest.raises(ValueError):
        RestartPolicy.parse("reboot")


def test_policy_none_takes_service_down():
    session = SupervisedSession(R2CConfig.baseline(), policy="none")
    status, _ = session.probe(wild_read)
    assert status == "crashed"
    assert not session.available
    status, result = session.probe(lambda view: None)
    assert status == STATUS_UNAVAILABLE and result is None
    assert session.stats.denials == 1
    assert len(session.reports) == 1


def test_restart_same_keeps_layout_rerandomize_rolls_it():
    same = SupervisedSession(R2CConfig.full(seed=3), policy="restart-same")
    same.probe(wild_read)
    same.probe(wild_read)
    p1, _ = same.spawn()
    p2, _ = same.spawn()
    assert p1.symbols == p2.symbols

    rerand = SupervisedSession(R2CConfig.full(seed=3), policy="restart-rerandomize")
    rerand.probe(wild_read)
    p3, _ = rerand.spawn()
    p4, _ = rerand.spawn()
    assert p3.symbols != p4.symbols


def test_restart_budget_and_backoff():
    session = SupervisedSession(
        R2CConfig.baseline(),
        policy="restart-same",
        max_restarts=3,
        backoff_base=1.0,
        backoff_cap=4.0,
    )
    for _ in range(4):
        session.probe(wild_read)
    # 3 restarts granted (backoff 1 + 2 + 4 capped), then the budget is
    # spent and the 4th crash takes the service down.
    assert session.stats.restarts == 3
    assert session.stats.backoff_seconds == pytest.approx(1.0 + 2.0 + 4.0)
    assert not session.available
    assert session.probe(lambda view: None)[0] == STATUS_UNAVAILABLE


def test_crash_storm_is_a_detection():
    """A victim with no traps still detects probing via the crash storm."""
    session = SupervisedSession(
        R2CConfig.baseline(), policy="restart-same", crash_storm_threshold=3
    )
    session.probe(lambda view: None)
    for _ in range(3):
        session.probe(wild_read)
    assert session.stats.first_storm_probe == 4
    assert session.stats.detection_latency == 4
    # A clean probe breaks the storm; the threshold starts over.
    session.probe(lambda view: None)
    session.probe(wild_read)
    assert session.stats.first_storm_probe == 4  # first crossing is sticky


def test_trap_trip_sets_detection_latency():
    session = SupervisedSession(R2CConfig.full(seed=3), policy="restart-same")
    session.probe(lambda view: None)
    session.probe(btdp_deref)
    assert session.stats.trap_detections == 1
    assert session.stats.first_trap_probe == 2
    assert session.stats.detection_latency == 2
    assert session.reports[0].detected


@given(
    crashes=st.integers(min_value=0, max_value=10_000),
    base=st.floats(min_value=0.001, max_value=10.0, allow_nan=False),
    cap=st.floats(min_value=0.001, max_value=600.0, allow_nan=False),
)
def test_backoff_schedule_monotone_and_capped(crashes, base, cap):
    """The restart backoff schedule is monotone non-decreasing in the
    consecutive-crash count and never exceeds the cap."""
    here = backoff_delay(crashes, base, cap)
    after = backoff_delay(crashes + 1, base, cap)
    assert 0.0 <= here <= cap
    assert after >= here
    # Huge counts stay finite and pinned to the cap (no overflow).
    assert backoff_delay(crashes + 10**9, base, cap) == cap


def test_crash_storm_threshold_off_by_one():
    """Exactly ``threshold`` consecutive crashes detect; ``threshold - 1``
    followed by a clean probe never does."""
    threshold = 4

    storming = SupervisedSession(
        R2CConfig.baseline(), policy="restart-same", crash_storm_threshold=threshold
    )
    for _ in range(threshold - 1):
        storming.probe(wild_read)
    assert storming.stats.first_storm_probe is None  # one short of the storm
    storming.probe(wild_read)
    assert storming.stats.first_storm_probe == threshold

    broken = SupervisedSession(
        R2CConfig.baseline(), policy="restart-same", crash_storm_threshold=threshold
    )
    for _ in range(threshold - 1):
        broken.probe(wild_read)
    broken.probe(lambda view: None)  # the storm breaks at threshold - 1
    for _ in range(threshold - 1):
        broken.probe(wild_read)
    assert broken.stats.first_storm_probe is None
    assert broken.stats.crashes == 2 * (threshold - 1)


def test_probe_deadline_times_out_hung_worker():
    """A per-probe deadline triages a hung worker like a crash: the probe
    reports "timed-out", the supervisor restarts, the service stays up."""
    session = SupervisedSession(
        R2CConfig.baseline(),
        policy="restart-same",
        probe_deadline_instructions=50,
    )
    status, result = session.probe(lambda view: None)  # the workload "hangs"
    assert status == "timed-out" and result is None
    assert session.stats.timeouts == 1
    assert session.stats.crashes == 1  # triaged like a crash...
    assert session.stats.restarts == 1
    assert session.available  # ...and the service came back
    assert len(session.reports) == 1


def test_no_deadline_keeps_budget_exhaustion_a_crash():
    """Without an armed deadline the legacy classification stands: budget
    exhaustion is just a crash, never "timed-out"."""
    session = SupervisedSession(
        R2CConfig.baseline(), policy="restart-same", instruction_budget=50
    )
    status, _ = session.probe(lambda view: None)
    assert status == "crashed"
    assert session.stats.timeouts == 0


# ---------------------------------------------------------------------------
# The acceptance scenario: supervised Blind ROP
# ---------------------------------------------------------------------------

def test_supervised_blindrop_policies():
    """restart-same reproduces the fork-server compromise; re-randomizing
    every respawn defeats the probe loop (Sections 4, 7.3)."""
    blindrop = ALL_ATTACKS["blindrop"]

    same = SupervisedSession(
        R2CConfig.baseline(), policy="restart-same", execute_only=False, load_seed=301
    )
    result_same = blindrop(same, attacker_seed=331)
    assert result_same.outcome is AttackOutcome.SUCCESS
    assert same.stats.restarts > 0
    # The defender knew: crash-storm detection fired during the probe loop.
    assert same.stats.detection_latency is not None

    rerand = SupervisedSession(
        R2CConfig.baseline(),
        policy="restart-rerandomize",
        execute_only=False,
        load_seed=301,
    )
    result_rerand = blindrop(rerand, attacker_seed=331)
    assert result_rerand.outcome is not AttackOutcome.SUCCESS
    assert rerand.stats.detection_latency is not None
    # Rerandomization makes the attacker pay: far more probes than the
    # fork-server compromise needed, with nothing to show for them.
    assert rerand.stats.probes > same.stats.probes
