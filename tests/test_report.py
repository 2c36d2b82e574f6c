"""Backfill tests for the text renderers in :mod:`repro.eval.report`.

Renderers are the last unchecked surface between experiment data and the
console: each test builds the real dataclasses the renderer consumes and
pins the load-bearing parts of the output (headers, rows, verdict
lines) without chaining a full experiment run.
"""

from repro.analysis.entropy import EntropyAudit
from repro.analysis.findings import Finding
from repro.analysis.lint import LintReport, LintTargetResult
from repro.eval.engine import EngineSummary, FailureSummary
from repro.eval.report import (
    render_bench,
    render_engine_summary,
    render_lint,
    render_table1,
)
from repro.obs.bench import BenchCell, BenchReport


def test_render_table1_rows():
    text = render_table1(
        {
            "BTRA": {"max": 1.08, "geomean": 1.03},
            "Full": {"max": 1.21, "geomean": 1.09},
        }
    )
    assert "Component overheads" in text
    assert "BTRA" in text and "1.08" in text and "1.09" in text


def test_render_lint_clean_corpus():
    audit = EntropyAudit(
        seeds=[1, 2],
        gadget_counts=[10, 11],
        pairwise_survival=[(1, 2, 0.05)],
        layout_entropy_bits=1.0,
        max_layout_entropy_bits=1.0,
        regalloc_divergence=0.4,
    )
    report = LintReport(
        corpus="spec",
        config_name="full",
        seeds=[1, 2],
        targets=[LintTargetResult(name="xz", seeds=[1, 2], audit=audit)],
    )
    text = render_lint(report)
    assert "corpus=spec config=full" in text
    assert "xz" in text and "0.0500" in text
    assert "0 findings" in text


def test_render_lint_lists_findings():
    finding = Finding(rule="LINT001", where="xz/seed1", message="workload faulted")
    report = LintReport(
        corpus="spec",
        config_name="full",
        seeds=[1],
        targets=[
            LintTargetResult(name="xz", seeds=[1], findings=[finding], audit=None)
        ],
    )
    text = render_lint(report)
    assert "1 finding(s):" in text
    assert "[LINT001] xz/seed1: workload faulted" in text
    # No audit: the table falls back to placeholder columns.
    assert "-" in text


def test_render_engine_summary_with_failures():
    failures = FailureSummary(
        failures=2,
        by_outcome={"fault": 1, "timeout": 1},
        by_class={"GuardPageFault": 1},
        by_rule={"FLT001": 1},
        pool_rebuilds=1,
        quarantined=1,
    )
    summary = EngineSummary(
        jobs=2,
        batches=3,
        requested=10,
        executed=8,
        run_cache_hits=2,
        compile_cache_hits=4,
        compiles=6,
        distinct_binaries=6,
        compile_seconds=1.25,
        run_seconds=3.5,
        worker_runs={0: 4, 1: 4},
        backend="jit",
        failures=failures,
    )
    text = render_engine_summary(summary)
    assert "8 runs executed" in text and "backend=jit" in text
    assert "compile 1.25s" in text and "run 3.50s" in text
    assert "workers (2): 0:4, 1:4" in text
    assert "failures: 2 (fault:1, timeout:1)" in text
    assert "injected by rule: FLT001:1" in text
    assert "1 pool rebuilds" in text and "1 quarantined" in text


def _bench_report():
    return BenchReport(
        backend="jit",
        machine="epyc-rome",
        quick=True,
        jobs=1,
        cells=[
            BenchCell(
                workload="xz",
                config="baseline",
                outcome="ok",
                cycles=100_000.0,
                instructions=90_000,
                icache_hits=89_000,
                icache_misses=1_000,
                max_rss=4096,
                compile_seconds=0.01,
                run_seconds=0.2,
            ),
            BenchCell(
                workload="xz",
                config="full-avx",
                outcome="ok",
                cycles=110_000.0,
                instructions=95_000,
                icache_hits=93_000,
                icache_misses=2_000,
                max_rss=8192,
                compile_seconds=0.02,
                run_seconds=0.25,
            ),
            BenchCell(
                workload="mcf",
                config="full-avx",
                outcome="error",
                cycles=0.0,
                instructions=0,
                icache_hits=0,
                icache_misses=0,
                max_rss=0,
                compile_seconds=0.0,
                run_seconds=0.0,
            ),
        ],
        engine={
            "executed": 3,
            "compiles": 3,
            "compile_seconds": 0.03,
            "run_seconds": 0.45,
            "failures": 1,
        },
    )


def test_render_bench_overhead_column():
    text = render_bench(_bench_report())
    assert "Bench: backend=jit machine=epyc-rome quick=True jobs=1" in text
    lines = {line.split()[0:2][0] + "/" + line.split()[1]: line
             for line in text.splitlines() if line.startswith(("xz", "mcf"))}
    # Baseline and failed cells render no overhead ratio.
    assert " - " in lines["xz/baseline"]
    assert "+10.0%" in lines["xz/full-avx"]
    assert " - " in lines["mcf/full-avx"] and "error" in lines["mcf/full-avx"]
    assert "engine: 3 runs, 3 compiles" in text and "failures 1" in text


def test_render_bench_miss_rate():
    text = render_bench(_bench_report())
    # 1k misses over 90k accesses and 2k over 95k.
    assert "1.11%" in text and "2.11%" in text
