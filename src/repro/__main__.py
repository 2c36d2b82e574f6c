"""Command-line entry point: regenerate the paper's tables and figures.

Usage::

    python -m repro list                 # what can be regenerated
    python -m repro table1 [--quick]     # Table 1 component overheads
    python -m repro figure6 --jobs 4     # fan runs out over 4 processes
    python -m repro table2 table3 ...    # any subset, in order
    python -m repro all --quick --jobs 4 # everything, reduced inputs
    python -m repro lint --corpus spec   # static verification sweep
    python -m repro chaos --jobs 4       # fault-injection matrix
    python -m repro profile xz           # hot-path cycle profile
    python -m repro bench --quick --out BENCH_smoke.json

``--quick`` shrinks benchmark subsets and seed counts so a full pass
finishes in a couple of minutes; omit it for the benchmark-suite-sized
runs (identical to ``pytest benchmarks/``).  ``--jobs N`` runs
independent (benchmark × machine × config × seed) cells on N worker
processes; results are identical to the serial path.  ``--records-out
PATH`` appends one JSONL record per executed run for offline analysis.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.eval import experiments, report
from repro.eval.engine import ExperimentEngine, set_session_engine
from repro.machine.backends import available_backends

QUICK_BENCHMARKS = ["perlbench", "mcf", "lbm", "omnetpp", "xalancbmk", "xz"]


def run_table1(quick: bool) -> str:
    rows = experiments.experiment_table1(
        seeds=(1,) if quick else (1, 2),
        benchmarks=QUICK_BENCHMARKS if quick else None,
    )
    return report.render_table1(rows)


def run_table2(quick: bool) -> str:
    counts = experiments.experiment_table2(inputs=(1,) if quick else (1, 2, 3))
    return report.render_table2(counts)


def run_figure6(quick: bool) -> str:
    data = experiments.experiment_figure6(
        seeds=(1,) if quick else (1, 2),
        benchmarks=QUICK_BENCHMARKS if quick else None,
    )
    return report.render_figure6(data)


def run_webserver(quick: bool) -> str:
    data = experiments.experiment_webserver(
        requests=80 if quick else 150, seeds=(1,) if quick else (1, 2)
    )
    return report.render_webserver(data)


def run_memory(quick: bool) -> str:
    data = experiments.experiment_memory(
        benchmarks=QUICK_BENCHMARKS if quick else None
    )
    return report.render_memory(data)


def run_scalability(quick: bool) -> str:
    rows = experiments.experiment_scalability(sizes=(100, 300) if quick else (200, 600, 1800))
    return report.render_scalability(rows)


def run_table3(quick: bool) -> str:
    matrix = experiments.experiment_table3(trials=1 if quick else 3)
    return report.render_table3(matrix)


def run_security(quick: bool) -> str:
    data = experiments.experiment_security_probabilities(
        mc_trials=20_000 if quick else 200_000,
        stack_samples=6 if quick else 25,
    )
    return report.render_security_probabilities(data)


def run_sweeps(quick: bool) -> str:
    btra = experiments.experiment_btra_sweep(
        counts=(2, 10) if quick else (2, 5, 10, 15, 20)
    )
    btdp = experiments.experiment_btdp_sweep(
        maxima=(0, 5) if quick else (0, 2, 5, 8),
        stack_samples=3 if quick else 8,
    )
    return report.render_btra_sweep(btra) + "\n\n" + report.render_btdp_sweep(btdp)


def run_optlevels(quick: bool) -> str:
    data = experiments.experiment_opt_levels(
        redundancies=(0, 25) if quick else (0, 10, 25)
    )
    return report.render_opt_levels(data)


def run_decomposition(quick: bool) -> str:
    data = experiments.experiment_overhead_decomposition(
        benchmark="xz" if quick else "omnetpp"
    )
    return report.render_decomposition(data)


def run_supervised(quick: bool) -> str:
    rows = experiments.experiment_supervised(trials=1 if quick else 3)
    return report.render_supervised(rows)


def run_chaos_command(args) -> int:
    """``python -m repro chaos``: fault-injection matrix over the engine.

    Exits 1 unless every injected fault surfaced as its expected outcome
    with a full request-ordered record list, so CI can gate on it.
    With ``--fleet``, chaos instead targets the serving layer: seeded
    worker kills/hangs, attack-probe arrivals, and compile faults against
    a live fleet, gating on the zero-lost-requests contract.
    """
    from repro.reliability.chaos import run_chaos, run_fleet_chaos

    started = time.perf_counter()
    if args.fleet:
        fleet_report = run_fleet_chaos(
            backend=args.backend, seed=args.seed, workers=args.workers
        )
        serving = fleet_report.serving
        outcomes = " ".join(
            f"{name}={count}"
            for name, count in sorted(serving.get("outcomes", {}).items())
        )
        print(
            f"Fleet chaos: workers={fleet_report.workers} "
            f"backend={fleet_report.backend} seed={fleet_report.seed}"
        )
        print(f"  arrivals {serving.get('arrivals', 0)}  ({outcomes})")
        print(
            f"  kills {serving.get('kills', 0)}  hangs {serving.get('hangs', 0)}  "
            f"compile faults {serving.get('compile_faults', 0)}  "
            f"swaps {serving.get('swaps', 0)}  restarts {serving.get('restarts', 0)}"
        )
        if fleet_report.ok:
            print("chaos: OK — the fleet resolved every request under fire")
        else:
            print(f"chaos: {len(fleet_report.violations)} violation(s):")
            for violation in fleet_report.violations:
                print(f"  {violation}")
        print(f"[{time.perf_counter() - started:.1f}s]")
        if args.out:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(fleet_report.to_json() + "\n")
            print(f"[chaos report -> {args.out}]")
        return 0 if fleet_report.ok else 1
    chaos_report = run_chaos(
        jobs=args.jobs, backend=args.backend, seed=args.seed, timeout=args.timeout
    )
    print(report.render_chaos(chaos_report))
    print(f"[{time.perf_counter() - started:.1f}s]")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(chaos_report.to_json() + "\n")
        print(f"[chaos report -> {args.out}]")
    return 0 if chaos_report.ok else 1


def chaos_main(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro chaos",
        description="Inject every fault kind (bitflips, allocator OOM, "
        "compile errors, worker crashes, worker hangs) into real workloads "
        "and assert the experiment engine degrades them into structured "
        "failure records instead of losing the batch.",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=2,
        metavar="N",
        help="worker processes (default: 2; crashes/hangs need a pool)",
    )
    parser.add_argument(
        "--backend",
        default="reference",
        choices=available_backends(),
        help="execution backend (default: reference)",
    )
    parser.add_argument(
        "--seed", type=int, default=0, metavar="N", help="fault-plan seed (default: 0)"
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=10.0,
        metavar="S",
        help="per-batch wall-clock deadline in seconds (default: 10)",
    )
    parser.add_argument(
        "--out", default=None, metavar="PATH", help="write the chaos report as JSON"
    )
    parser.add_argument(
        "--fleet",
        action="store_true",
        help="chaos the serving layer instead: kill/hang worker fractions, "
        "attack probes, and compile faults against a live fleet",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=4,
        metavar="N",
        help="fleet worker count for --fleet (default: 4)",
    )
    args = parser.parse_args(argv)
    return run_chaos_command(args)


def run_lint_command(args) -> int:
    """``python -m repro lint``: the static verification sweep.

    Exits 1 on any finding, so CI can gate on it directly.
    """
    from repro.analysis.lint import run_lint

    started = time.perf_counter()
    lint_report = run_lint(
        args.corpus,
        seeds=args.seeds,
        config=args.config,
        quick=args.quick,
        run=args.run,
    )
    print(report.render_lint(lint_report))
    print(f"[{time.perf_counter() - started:.1f}s]")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(lint_report.to_json() + "\n")
        print(f"[findings report -> {args.out}]")
    return 0 if lint_report.ok else 1


def lint_main(argv) -> int:
    from repro.analysis.lint import CONFIGS, CORPORA

    parser = argparse.ArgumentParser(
        prog="python -m repro lint",
        description="Statically verify compiled corpora: IR well-formedness, "
        "stack/unwind invariants, BTRA/BTDP/trap placement, and "
        "diversification entropy.",
    )
    parser.add_argument(
        "--corpus", default="spec", choices=CORPORA, help="corpus to verify"
    )
    parser.add_argument(
        "--seeds", type=int, default=3, metavar="N", help="seeds per module (default: 3)"
    )
    parser.add_argument(
        "--config",
        default="full",
        choices=sorted(CONFIGS),
        help="diversification config to verify under (default: full)",
    )
    parser.add_argument(
        "--quick", action="store_true", help="reduced corpus sizes for CI smoke legs"
    )
    parser.add_argument(
        "--run",
        action="store_true",
        help="also execute each cell with RunRequest.verify set",
    )
    parser.add_argument(
        "--backend",
        default="reference",
        choices=available_backends(),
        help="execution backend for --run cells",
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N", help="worker processes for --run cells"
    )
    parser.add_argument(
        "--out", default=None, metavar="PATH", help="write the findings report as JSON"
    )
    args = parser.parse_args(argv)
    engine = set_session_engine(ExperimentEngine(jobs=args.jobs, backend=args.backend))
    try:
        return run_lint_command(args)
    finally:
        engine.close()


def profile_main(argv) -> int:
    """``python -m repro profile``: per-function/per-RIP cycle attribution.

    Compiles one SPEC workload, runs it with a :class:`CycleProfiler`
    attached, and prints the hot-path report.  ``--folded`` writes
    flamegraph-ready folded stacks; ``--trace`` additionally captures the
    compile/run span tree as Chrome ``trace_event`` JSON (load it in
    ``chrome://tracing`` or Perfetto).
    """
    from repro.core.compiler import R2CCompiler
    from repro.core.config import R2CConfig
    from repro.machine.loader import load_binary, make_cpu
    from repro.obs.profiler import CycleProfiler
    from repro.obs.tracing import enable_tracing, get_collector
    from repro.workloads.spec import SPEC_BENCHMARKS, build_spec_benchmark

    parser = argparse.ArgumentParser(
        prog="python -m repro profile",
        description="Profile one workload: per-function and per-address "
        "cycle attribution with BTRA-safe call stacks.",
    )
    parser.add_argument(
        "workload", choices=sorted(SPEC_BENCHMARKS), help="SPEC workload to profile"
    )
    parser.add_argument(
        "--config",
        default="full",
        choices=("baseline", "full"),
        help="diversification config (default: full)",
    )
    parser.add_argument(
        "--seed", type=int, default=1, metavar="N", help="compile seed (default: 1)"
    )
    parser.add_argument(
        "--load-seed", type=int, default=1, metavar="N", help="loader ASLR seed"
    )
    parser.add_argument(
        "--machine", default="epyc-rome", help="cost model (default: epyc-rome)"
    )
    parser.add_argument(
        "--backend",
        default="reference",
        choices=available_backends(),
        help="execution backend (default: reference; profiles are "
        "byte-identical either way)",
    )
    parser.add_argument(
        "--top", type=int, default=15, metavar="N", help="rows per report table"
    )
    parser.add_argument(
        "--folded", default=None, metavar="PATH", help="write folded stacks for flamegraphs"
    )
    parser.add_argument(
        "--trace", default=None, metavar="PATH", help="write Chrome trace_event JSON"
    )
    args = parser.parse_args(argv)

    if args.trace:
        enable_tracing(True)
    started = time.perf_counter()
    if args.config == "full":
        config = R2CConfig.full(seed=args.seed)
    else:
        config = R2CConfig.baseline(seed=args.seed)
    module = build_spec_benchmark(args.workload)
    binary = R2CCompiler(config).compile(module)
    process = load_binary(binary, seed=args.load_seed)
    cpu = make_cpu(process, args.machine, backend=args.backend, attribute_tags=True)
    profiler = CycleProfiler(cpu)
    result = cpu.run()
    print(profiler.report(top=args.top))
    print()
    counters = result.perf_counters()
    print(
        f"counters: {counters.instructions} instructions, "
        f"{counters.cycles:.0f} cycles, "
        f"i-cache miss rate {100.0 * counters.icache_miss_rate:.2f}%, "
        f"{counters.branches_taken}/{counters.branches} branches taken, "
        f"{counters.btra_events} BTRA / {counters.btdp_events} BTDP events"
    )
    print(f"[{time.perf_counter() - started:.1f}s]")
    if args.folded:
        with open(args.folded, "w", encoding="utf-8") as handle:
            handle.write(profiler.folded_stacks() + "\n")
        print(f"[folded stacks -> {args.folded}]")
    if args.trace:
        get_collector().write_chrome_trace(args.trace)
        print(f"[chrome trace -> {args.trace}]")
    return 0


def disasm_blocks_main(argv) -> int:
    """``python -m repro disasm-blocks``: the static blocks of one
    workload, as the jit lowers them.

    Compiles and loads the workload exactly as a run would, partitions
    its instruction index into static blocks
    (:func:`repro.machine.blocks.static_blocks`), and prints one section
    per block: address range, instruction count, the tier the jit takes
    the slice at that head to (2 = compiles to a block function, 1 =
    interpreter-only, with the disqualifying instruction),
    superinstruction fusion annotations, and static successor edges.
    """
    from repro.core.compiler import R2CCompiler
    from repro.core.config import R2CConfig
    from repro.machine.blocks import (
        FUSABLE_BRANCHES,
        fuse_slice,
        slice_block,
        static_blocks,
    )
    from repro.machine.isa import Imm, Op
    from repro.machine.jit import _SLICE_LIMIT, _classify
    from repro.machine.loader import load_binary
    from repro.workloads.spec import SPEC_BENCHMARKS, build_spec_benchmark

    parser = argparse.ArgumentParser(
        prog="python -m repro disasm-blocks",
        description="Print the static blocks of one workload with the "
        "jit's per-block lowering tiers and fusion annotations.",
    )
    parser.add_argument(
        "workload", choices=sorted(SPEC_BENCHMARKS), help="SPEC workload to disassemble"
    )
    parser.add_argument(
        "--config",
        default="full",
        choices=("baseline", "full"),
        help="diversification config (default: full)",
    )
    parser.add_argument(
        "--seed", type=int, default=1, metavar="N", help="compile seed (default: 1)"
    )
    parser.add_argument(
        "--load-seed", type=int, default=1, metavar="N", help="loader ASLR seed"
    )
    parser.add_argument(
        "--tier", type=int, default=None, choices=(1, 2), help="only blocks at this tier"
    )
    args = parser.parse_args(argv)

    if args.config == "full":
        config = R2CConfig.full(seed=args.seed)
    else:
        config = R2CConfig.baseline(seed=args.seed)
    module = build_spec_benchmark(args.workload)
    binary = R2CCompiler(config).compile(module)
    process = load_binary(binary, seed=args.load_seed)
    instructions = process.instructions

    # Per head: (items shown, tier, reason, fusion).  The tier is the jit's
    # verdict on the whole slice it would lower at that head, which may
    # run past the displayed block into its fall-through successors.
    blocks = []
    for head, items in static_blocks(instructions, _SLICE_LIMIT).items():
        bad = next(
            (
                (addr, instr)
                for addr, instr in slice_block(instructions, head, _SLICE_LIMIT)
                if _classify(addr, instr) is None
            ),
            None,
        )
        if bad is None:
            blocks.append((items, 2, None, fuse_slice(items)))
        else:
            reason = f"no tier-2 lowering for {bad[1].op.name} at {bad[0]:#x}"
            blocks.append((items, 1, reason, []))
    tier2 = sum(1 for block in blocks if block[1] == 2)
    print(
        f"{args.workload} ({args.config}, seed {args.seed}): "
        f"{len(blocks)} blocks, {tier2} at tier 2, "
        f"{len(blocks) - tier2} at tier 1, "
        f"{sum(len(block[3]) for block in blocks)} superinstructions fused"
    )
    # Address -> symbol for block-head labels (function heads only).
    symbols = {
        address: name
        for name, address in sorted(process.symbols.items())
        if "::" not in name
    }
    for bid, (items, tier, reason, fused) in enumerate(blocks):
        if args.tier is not None and tier != args.tier:
            continue
        head = items[0][0]
        last_addr, last = items[-1]
        end = last_addr + last.size
        label = symbols.get(head)
        where = f" <{label}>" if label else ""
        print(
            f"\nblock {bid}{where}: [{head:#x}, {end:#x}) "
            f"{len(items)} uops, tier {tier}"
        )
        if reason:
            print(f"  stays tier 1: {reason}")
        for kind, start, count in fused:
            print(f"  fused {kind}: {count} uops from {items[start][0]:#x}")
        op = last.op
        a = last.a
        taken = a.value if a.__class__ is Imm and a.symbol is None else None
        if op is Op.JMP:
            edges = [("jump", taken)]
        elif op in FUSABLE_BRANCHES:
            edges = [("taken", taken), ("fall", end)]
        elif op is Op.CALL:
            edges = [("call", taken), ("return-site", end)]
        elif op is Op.RET:
            edges = [("ret", None)]
        elif op is Op.EXIT:
            edges = []
        elif op is Op.TRAP:
            edges = [("trap", None)]
        else:  # CALLRT, and blocks cut before a leader, fall through
            edges = [("fall", end)]
        for kind, target in edges:
            where = f"{target:#x}" if target is not None else "dynamic"
            print(f"  -> {kind} {where}")
    return 0


def mvee_main(argv) -> int:
    """``python -m repro mvee``: run N variants in batched lockstep.

    Two modes:

    * **attack** (default): compile N differently-diversified builds,
      replicate a scripted attack's writes from the leader into the
      followers, and cross-check — the Section 7.3 MVEE combination.
    * **bitflip** (``--bitflip-seed N``): run N replicas of one build
      with seeded memory corruption in one follower; replica mode pins
      the divergence to a variant, sync point, and register.

    ``--out`` writes a ``repro-divergence/v1`` JSON artifact (CI uploads
    it).  Exits 1 only when every variant was compromised identically —
    the one outcome an MVEE deployment cannot detect.
    """
    import json

    from repro.attacks.aocr import make_aocr_hook
    from repro.attacks.fengshui import make_fengshui_hook
    from repro.attacks.rop import make_rop_hook
    from repro.core.config import R2CConfig
    from repro.defenses.lockstep import MveeOutcome, run_bitflip_lockstep
    from repro.defenses.mvee import MVEE

    hooks = {
        "aocr": make_aocr_hook,
        "rop": make_rop_hook,
        "fengshui": make_fengshui_hook,
        "none": lambda: None,
    }
    configs = {
        "full": R2CConfig.full,
        "baseline": R2CConfig.baseline,
    }
    parser = argparse.ArgumentParser(
        prog="python -m repro mvee",
        description="Run N diversified variants in batched lockstep and "
        "cross-check their behaviour (the Section 7.3 MVEE combination).",
    )
    parser.add_argument(
        "--variants", type=int, default=2, metavar="N", help="variant count (default: 2)"
    )
    parser.add_argument(
        "--attack",
        default="aocr",
        choices=sorted(hooks),
        help="scripted attack replicated into the followers (default: aocr)",
    )
    parser.add_argument(
        "--config",
        default="full",
        choices=sorted(configs),
        help="diversification config per variant (default: full)",
    )
    parser.add_argument(
        "--build-seed", type=int, default=0, metavar="N", help="base compile seed"
    )
    parser.add_argument(
        "--attacker-seed", type=int, default=0, metavar="N", help="attacker RNG seed"
    )
    parser.add_argument(
        "--backend",
        default="jit",
        choices=available_backends(),
        help="execution backend (default: jit)",
    )
    parser.add_argument(
        "--sync-every", type=int, default=256, metavar="N", help="cross-check batch size"
    )
    parser.add_argument(
        "--bitflip-seed",
        type=int,
        default=None,
        metavar="N",
        help="replica mode: seed N bitflips into one follower instead of attacking",
    )
    parser.add_argument(
        "--flips", type=int, default=96, metavar="N", help="bitflip count (replica mode)"
    )
    parser.add_argument(
        "--corrupt-variant",
        type=int,
        default=1,
        metavar="I",
        help="which follower takes the bitflips (replica mode, default: 1)",
    )
    parser.add_argument(
        "--out", default=None, metavar="PATH", help="write the divergence report as JSON"
    )
    args = parser.parse_args(argv)

    started = time.perf_counter()
    if args.bitflip_seed is not None:
        mode = "bitflip"
        lockstep = run_bitflip_lockstep(
            variants=args.variants,
            corrupt_variant=args.corrupt_variant,
            fault_seed=args.bitflip_seed,
            flips=args.flips,
            backend=args.backend,
            sync_every=min(args.sync_every, 64),
        )
        outcome, divergence, sync_points = (
            lockstep.outcome,
            lockstep.divergence,
            lockstep.sync_points,
        )
        for variant in lockstep.variants:
            corrupt = " (corrupted)" if variant.index == args.corrupt_variant else ""
            print(
                f"  v{variant.index}: {variant.status} "
                f"after {variant.result.instructions} instructions{corrupt}"
            )
    else:
        mode = f"attack:{args.attack}"
        mvee = MVEE(
            configs[args.config](),
            variants=args.variants,
            build_seed=args.build_seed,
            backend=args.backend,
            sync_every=args.sync_every,
        )
        result = mvee.run(hooks[args.attack](), attacker_seed=args.attacker_seed)
        outcome, divergence, sync_points = (
            result.outcome,
            result.divergence,
            result.sync_points,
        )
        for index, run in enumerate(result.variants):
            goal = " [attacker goal reached]" if run.attacked_success else ""
            print(f"  v{index}: {run.status} exit={run.exit_code}{goal}")
        for note in result.notes:
            print(f"  note: {note}")
    print(f"outcome: {outcome.value} ({sync_points} sync points)")
    if divergence is not None:
        print(f"  {divergence.summary_line()}")
    print(f"[{time.perf_counter() - started:.1f}s]")
    if args.out:
        payload = {
            "schema": "repro-divergence/v1",
            "mode": mode,
            "variants": args.variants,
            "backend": args.backend,
            "outcome": outcome.value,
            "sync_points": sync_points,
            "divergence": divergence.to_dict() if divergence else None,
        }
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
        print(f"[divergence report -> {args.out}]")
    return 1 if outcome is MveeOutcome.COMPROMISED else 0


def bench_main(argv) -> int:
    """``python -m repro bench``: the benchmark regression harness.

    Writes one schema-versioned JSON artifact per invocation (the
    benchmark trajectory) and exits 1 on any non-ok cell or
    schema-invalid artifact, so CI can gate on it.
    """
    import json

    from repro.obs.bench import run_bench, run_lockstep_bench, validate

    parser = argparse.ArgumentParser(
        prog="python -m repro bench",
        description="Run the (workload x config) benchmark grid and record "
        "simulated cycles, cache behavior, wall time, and engine failures "
        "as a repro-bench/v1 JSON artifact.",
    )
    parser.add_argument(
        "--quick", action="store_true", help="reduced workload set for CI smoke legs"
    )
    parser.add_argument(
        "--backend",
        default="reference",
        choices=available_backends(),
        help="execution backend (default: reference)",
    )
    parser.add_argument(
        "--machine", default="epyc-rome", help="cost model (default: epyc-rome)"
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N", help="worker processes (default: 1)"
    )
    parser.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="artifact path (default: BENCH_<date>.json)",
    )
    parser.add_argument(
        "--lockstep",
        type=int,
        default=0,
        metavar="N",
        help="also run the N-variant lockstep leg (webserver replicas; "
        "records the amortized-decode cost ratio)",
    )
    args = parser.parse_args(argv)
    out = args.out or time.strftime("BENCH_%Y-%m-%d.json")

    started = time.perf_counter()
    bench_report = run_bench(
        backend=args.backend, machine=args.machine, jobs=args.jobs,
        quick=args.quick,
    )
    if args.lockstep:
        bench_report.lockstep = run_lockstep_bench(
            variants=args.lockstep, backend=args.backend, machine=args.machine
        )
        lock = bench_report.lockstep
        print(
            f"lockstep x{lock['variants']}: {lock['outcome']}, "
            f"cost ratio {lock['cost_ratio']}x "
            f"({lock['lockstep']['wall_seconds']}s vs "
            f"{lock['single']['wall_seconds']}s single)"
        )
    print(report.render_bench(bench_report))
    print(f"[{time.perf_counter() - started:.1f}s]")
    text = bench_report.to_json()
    problems = validate(json.loads(text))
    with open(out, "w", encoding="utf-8") as handle:
        handle.write(text + "\n")
    print(f"[bench artifact -> {out}]")
    for problem in problems:
        print(f"schema violation: {problem}", file=sys.stderr)
    return 0 if bench_report.ok and not problems else 1


def fleet_main(argv) -> int:
    """``python -m repro fleet``: the serving-axis benchmark.

    Drives a supervised victim fleet with seeded open-loop load (optionally
    under chaos), prints the serving report, and writes a validating
    ``repro-bench/v1`` artifact with the ``serving`` section.  Exits 1 if
    any request was lost, the artifact fails validation, or — with
    ``--chaos`` — nothing actually went wrong (an un-exercised chaos leg
    is a broken chaos leg).
    """
    import json

    from repro.fleet.loadgen import run_fleet
    from repro.obs.bench import validate

    parser = argparse.ArgumentParser(
        prog="python -m repro fleet",
        description="Schedule seeded open-loop load across a pool of "
        "supervised victim workers with admission control, hedged "
        "retries, deadlines, and MARDU-style rolling re-randomization; "
        "report p50/p99 latency, sustained RPS, shed/retry/swap counts, "
        "and the attacker window as a repro-bench/v1 artifact.",
    )
    parser.add_argument(
        "--workers", type=int, default=4, metavar="N",
        help="victim worker slots (default: 4)",
    )
    parser.add_argument(
        "--rps", type=float, default=300.0, metavar="R",
        help="offered load, requests per virtual second (default: 300)",
    )
    parser.add_argument(
        "--duration", type=float, default=2.0, metavar="S",
        help="virtual seconds of load (default: 2.0)",
    )
    parser.add_argument(
        "--rerand-interval", type=float, default=1.0, metavar="K",
        help="per-worker re-randomization period in virtual seconds "
        "(default: 1.0; 0 disables rotation)",
    )
    parser.add_argument(
        "--deadline", type=float, default=0.1, metavar="S",
        help="per-request deadline in virtual seconds (default: 0.1)",
    )
    parser.add_argument(
        "--backend",
        default="jit",
        choices=available_backends(),
        help="execution backend for the measured service profiles "
        "(default: jit; metrics are backend-invariant)",
    )
    parser.add_argument(
        "--machine", default="epyc-rome", help="cost model (default: epyc-rome)"
    )
    parser.add_argument(
        "--seed", type=int, default=0, metavar="N",
        help="load/chaos/diversification seed (default: 0)",
    )
    parser.add_argument(
        "--chaos",
        action="store_true",
        help="arm seeded worker kills/hangs, attack probes, and compile "
        "faults; the run must still resolve every request",
    )
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="shared on-disk compile cache (workers and repeat runs "
        "single-flight their builds through it)",
    )
    parser.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="artifact path (default: BENCH_fleet_<date>.json)",
    )
    args = parser.parse_args(argv)
    out = args.out or time.strftime("BENCH_fleet_%Y-%m-%d.json")

    started = time.perf_counter()
    fleet_report = run_fleet(
        workers=args.workers,
        rps=args.rps,
        duration_seconds=args.duration,
        rerand_interval=args.rerand_interval or None,
        backend=args.backend,
        machine=args.machine,
        seed=args.seed,
        chaos=args.chaos,
        cache_dir=args.cache_dir,
        deadline_seconds=args.deadline,
    )
    print(report.render_fleet(fleet_report))
    print(f"[{time.perf_counter() - started:.1f}s]")

    bench_report = fleet_report.to_bench_report()
    text = bench_report.to_json()
    problems = validate(json.loads(text))
    with open(out, "w", encoding="utf-8") as handle:
        handle.write(text + "\n")
    print(f"[fleet artifact -> {out}]")
    for problem in problems:
        print(f"schema violation: {problem}", file=sys.stderr)
    ok = fleet_report.zero_lost and not problems
    if args.chaos and fleet_report.kills + fleet_report.hangs == 0:
        print("chaos armed but no worker was killed or hung", file=sys.stderr)
        ok = False
    return 0 if ok else 1


def mine_main(argv) -> int:
    """``python -m repro mine``: the static gadget dataflow miner.

    Compiles N seed variants of one workload, censuses every ROP/JOP
    gadget by semantic summary (:mod:`repro.analysis.gadgets`),
    intersects the censuses for invariant gadgets (position-pinned and
    position-independent), synthesizes attack chains against the first
    variant, concretely re-executes a sample of summaries on the
    reference backend, and writes a ``repro-gadgets/v1`` artifact.
    Exits 1 on any summary/concrete mismatch or schema violation.
    """
    import json

    from repro.analysis.gadgets import GADGET_WINDOW, mine, validate
    from repro.analysis.lint import CONFIGS
    from repro.workloads.spec import SPEC_BENCHMARKS, build_spec_benchmark

    workloads = sorted(SPEC_BENCHMARKS) + ["victim", "webserver"]
    parser = argparse.ArgumentParser(
        prog="python -m repro mine",
        description="Mine ROP/JOP gadgets across N diversified variants: "
        "semantic census, invariant-gadget intersection, chain synthesis, "
        "and a repro-gadgets/v1 artifact.",
    )
    parser.add_argument("workload", choices=workloads, help="workload to mine")
    parser.add_argument(
        "--variants",
        type=int,
        default=3,
        metavar="N",
        help="seed variants to census (default: 3)",
    )
    parser.add_argument(
        "--seed", type=int, default=1, metavar="N", help="first variant seed (default: 1)"
    )
    parser.add_argument(
        "--config",
        default="full",
        choices=sorted(CONFIGS),
        help="diversification config to mine under (default: full)",
    )
    parser.add_argument(
        "--window",
        type=int,
        default=GADGET_WINDOW,
        metavar="N",
        help=f"longest gadget suffix in instructions (default: {GADGET_WINDOW})",
    )
    parser.add_argument(
        "--out", default=None, metavar="PATH", help="write the artifact as JSON"
    )
    args = parser.parse_args(argv)
    if args.variants < 2:
        parser.error("--variants must be at least 2")

    if args.workload == "victim":
        from repro.workloads.victim import build_victim

        module = build_victim()
    elif args.workload == "webserver":
        from repro.workloads.webserver import SERVERS, build_webserver

        module = build_webserver(SERVERS[0])
    else:
        module = build_spec_benchmark(args.workload)
    config = CONFIGS[args.config](args.seed)
    seeds = [args.seed + index for index in range(args.variants)]

    started = time.perf_counter()
    mine_report = mine(
        module,
        config,
        seeds,
        workload=args.workload,
        config_name=args.config,
        window=args.window,
    )
    print(mine_report.render())
    print(f"[{time.perf_counter() - started:.1f}s]")
    text = mine_report.to_json()
    problems = validate(json.loads(text))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print(f"[gadget artifact -> {args.out}]")
    for problem in problems:
        print(f"schema violation: {problem}", file=sys.stderr)
    return 0 if mine_report.ok and not problems else 1


EXPERIMENTS = {
    "table1": (run_table1, "Table 1: component overheads"),
    "table2": (run_table2, "Table 2: call frequencies"),
    "figure6": (run_figure6, "Figure 6: full R2C on four machines"),
    "webserver": (run_webserver, "Section 6.2.4: webserver throughput"),
    "memory": (run_memory, "Section 6.2.5: memory overhead"),
    "scalability": (run_scalability, "Section 6.3: browser-scale compilation"),
    "table3": (run_table3, "Table 3: attacks vs defenses"),
    "security": (run_security, "Sections 7.2.1/7.2.3: guessing probabilities"),
    "sweeps": (run_sweeps, "Parameter sweeps: BTRA count / BTDP density"),
    "optlevels": (run_optlevels, "Overhead by optimization level"),
    "decomposition": (run_decomposition, "Overhead decomposition by instruction tag"),
    "supervised": (run_supervised, "Section 4.2: restart policies vs crash probing"),
}


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "lint":
        # lint has its own flag set (corpus/seeds/config), so it gets its
        # own parser instead of riding the experiment options.
        return lint_main(list(argv[1:]))
    if argv and argv[0] == "chaos":
        # chaos likewise: it builds its own fault-armed engine.
        return chaos_main(list(argv[1:]))
    if argv and argv[0] == "profile":
        return profile_main(list(argv[1:]))
    if argv and argv[0] == "disasm-blocks":
        return disasm_blocks_main(list(argv[1:]))
    if argv and argv[0] == "bench":
        return bench_main(list(argv[1:]))
    if argv and argv[0] == "mvee":
        return mvee_main(list(argv[1:]))
    if argv and argv[0] == "mine":
        return mine_main(list(argv[1:]))
    if argv and argv[0] == "fleet":
        return fleet_main(list(argv[1:]))
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate the R2C paper's tables and figures.",
    )
    parser.add_argument(
        "experiments",
        nargs="+",
        help=f"'list', 'all', or any of: {', '.join(EXPERIMENTS)}",
    )
    parser.add_argument(
        "--quick", action="store_true", help="reduced inputs (~minutes, not tens of minutes)"
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for independent runs (default: 1, serial)",
    )
    parser.add_argument(
        "--backend",
        default="reference",
        choices=available_backends(),
        help="execution backend for all runs (default: reference; "
        "'jit' compiles hot blocks, same results)",
    )
    parser.add_argument(
        "--records-out",
        default=None,
        metavar="PATH",
        help="append per-run JSONL records to PATH",
    )
    args = parser.parse_args(argv)

    if args.experiments == ["list"]:
        for name, (_, title) in EXPERIMENTS.items():
            print(f"  {name:13s} {title}")
        print(f"  {'lint':13s} Static verification sweep (own flags; see lint --help)")
        print(f"  {'chaos':13s} Fault-injection matrix (own flags; see chaos --help)")
        print(f"  {'profile':13s} Hot-path cycle profile (own flags; see profile --help)")
        print(f"  {'disasm-blocks':13s} Static blocks with jit tiers (own flags; see disasm-blocks --help)")
        print(f"  {'bench':13s} Benchmark regression harness (own flags; see bench --help)")
        print(f"  {'mvee':13s} N-variant lockstep cross-check (own flags; see mvee --help)")
        print(f"  {'mine':13s} Static gadget dataflow miner (own flags; see mine --help)")
        print(f"  {'fleet':13s} Supervised victim fleet serving bench (own flags; see fleet --help)")
        return 0

    names = list(EXPERIMENTS) if args.experiments == ["all"] else args.experiments
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        parser.error(f"unknown experiment(s) {unknown}; try 'list'")
    if args.records_out:
        # Fail before hours of experiments, not after.
        try:
            open(args.records_out, "a", encoding="utf-8").close()
        except OSError as error:
            parser.error(f"--records-out {args.records_out}: {error}")

    engine = set_session_engine(ExperimentEngine(jobs=args.jobs, backend=args.backend))
    try:
        for name in names:
            fn, title = EXPERIMENTS[name]
            print(f"=== {title} ===")
            started = time.perf_counter()
            print(fn(args.quick))
            print(f"[{time.perf_counter() - started:.1f}s]")
            print()
        if engine.records:
            print(report.render_engine_summary(engine.summary()))
        if args.records_out:
            count = engine.write_records(args.records_out)
            print(f"[{count} run records -> {args.records_out}]")
    finally:
        engine.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
