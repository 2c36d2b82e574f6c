"""Section 7.3: the R2C + MVEE combination, measured.

The paper proposes pairing R2C with a Multi-Variant Execution Engine and
argues the combination "would detect data corruption or leakage in one of
the variants with high probability".  This bench quantifies that: for each
attack, compare the single-variant outcome distribution against the
two-variant MVEE outcome distribution over several campaigns.
"""

import json
import os

from repro.attacks.aocr import make_aocr_hook
from repro.attacks.rop import make_rop_hook
from repro.core.config import R2CConfig
from repro.defenses.mvee import MVEE, MveeOutcome
from repro.obs.bench import BenchReport, run_bench, run_lockstep_bench, validate

from benchmarks.conftest import RESULTS_DIR, save_artifact

TRIALS = 6


def test_mvee_detection_rates(run_once):
    def experiment():
        rows = {}
        for label, hook_factory in (("rop", make_rop_hook), ("aocr", make_aocr_hook)):
            tallies = {"clean": 0, "diverged": 0, "trapped": 0, "compromised": 0}
            for trial in range(TRIALS):
                mvee = MVEE(R2CConfig.full(), variants=2, build_seed=900 + trial)
                result = mvee.run(hook_factory(), attacker_seed=trial)
                tallies[result.outcome.value] += 1
            rows[label] = tallies
        # Control: benign runs never diverge.
        benign = {"clean": 0, "diverged": 0, "trapped": 0, "compromised": 0}
        for trial in range(TRIALS):
            mvee = MVEE(R2CConfig.full(), variants=2, build_seed=900 + trial)
            benign[mvee.run().outcome.value] += 1
        rows["benign"] = benign
        return rows

    rows = run_once(experiment)
    lines = ["R2C + MVEE (2 variants) outcome tallies", ""]
    lines.append(f"{'campaign':10s} {'clean':>6s} {'diverged':>9s} {'trapped':>8s} {'compromised':>12s}")
    for label, tallies in rows.items():
        lines.append(
            f"{label:10s} {tallies['clean']:6d} {tallies['diverged']:9d} "
            f"{tallies['trapped']:8d} {tallies['compromised']:12d}"
        )
    save_artifact("mvee_combination", "\n".join(lines))

    assert rows["benign"]["clean"] == TRIALS  # zero false positives
    for label in ("rop", "aocr"):
        assert rows[label]["compromised"] == 0
        detected = rows[label]["diverged"] + rows[label]["trapped"]
        assert detected >= TRIALS // 2, label


def test_lockstep_cost_per_variant(run_once):
    """The amortized-prepare claim, measured: a 4-variant LockstepGroup
    completes the webserver workload in under 2.5x the wall cost of one
    variant (one compile + load + prepare serves all four states).  The
    numbers land in a ``repro-bench/v1`` artifact alongside a smoke bench
    grid, so the cost ratio is tracked like any other benchmark."""

    def experiment():
        bench = run_bench(backend="jit", quick=True, workloads=["xz"])
        bench.lockstep = run_lockstep_bench(variants=4, backend="jit")
        return bench

    bench = run_once(experiment)
    text = bench.to_json()
    assert validate(json.loads(text)) == []
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, "BENCH_lockstep.json")
    with open(path, "w") as handle:
        handle.write(text + "\n")

    lock = bench.lockstep
    summary = (
        f"lockstep x{lock['variants']} ({lock['workload']}): "
        f"{lock['outcome']}, cost ratio {lock['cost_ratio']}x "
        f"({lock['lockstep']['wall_seconds']}s vs "
        f"{lock['single']['wall_seconds']}s single, "
        f"best of {lock['repeats']})"
    )
    save_artifact("lockstep_cost", summary)

    assert lock["outcome"] == "clean"
    assert lock["variants"] == 4
    # 4 variants actually ran: ~4x the simulated work of one.
    assert lock["lockstep"]["instructions"] > 3 * lock["single"]["instructions"]
    # The acceptance bar: amortized compile+load+prepare keeps N=4 under 2.5x.
    assert lock["cost_ratio"] < 2.5, lock
