"""Tests for the tier-2 jit backend and the progressive-lowering pipeline.

The differential suite (:mod:`tests.test_backends`) already holds ``jit``
to byte-identical results against ``reference`` across seeds and BTRA
modes — every backend in the registry participates.  This module covers
what is specific to lowering: static block partitioning and fusion, the
``disasm-blocks`` tier report, monotone i-cache detection, the
compiled-code cache shared across loads of one image, and the deopt
contract under a debugger — breakpoints and single-stepping mid-run must
observe the exact same machine trajectory on ``jit`` as on
``reference``, including through BTRA-displaced returns.
"""

import dataclasses
import re
from types import SimpleNamespace

import pytest

from repro.core.compiler import compile_module
from repro.core.config import R2CConfig
from repro.errors import ExecutionLimitExceeded
from repro.machine.blocks import fuse_slice, slice_block, static_blocks
from repro.machine.costs import get_costs
from repro.machine.cpu import CPU
from repro.machine.debugger import Debugger
from repro.machine.isa import Imm, Instruction, Mem, Op, Reg
from repro.machine.jit import (
    JitBackend,
    JitProgram,
    _text_fits_icache,
    jit_stats_snapshot,
)
from repro.machine.loader import load_binary
from repro.machine.memory import Perm
from repro.toolchain.builder import IRBuilder

from tests.test_backends import DATA, HEAP, assemble, run_one_backend
from tests.test_differential_fuzz import build_spec

I = Instruction


def loop_module():
    """A module whose hot loop re-enters its block heads many times —
    enough to cross the jit promotion threshold within one run."""
    ir = IRBuilder("jitloop")
    double = ir.function("double", params=["x"])
    double.ret(double.mul(double.param("x"), 2))
    main = ir.function("main")
    main.local("i")
    main.local("acc")
    main.store_local("i", 0)
    main.store_local("acc", 0)
    main.br("loop")
    main.new_block("loop")
    i = main.load_local("i")
    cond = main.cmp("lt", i, 50)
    main.cbr(cond, "body", "done")
    main.new_block("body")
    doubled = main.call("double", [main.load_local("i")])
    main.store_local("acc", main.add(main.load_local("acc"), doubled))
    main.store_local("i", main.add(main.load_local("i"), 1))
    main.br("loop")
    main.new_block("done")
    main.out(main.load_local("acc"))
    main.ret(0)
    return ir.finish()


# ---------------------------------------------------------------------------
# Debugger-triggered deopt: breakpoints and single steps mid-run must not
# perturb anything, through BTRA-displaced returns.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("btra_mode", ["avx", "push"])
def test_debugger_breakpoint_and_steps_identical_on_jit(btra_mode):
    """Break inside a callee, single-step through its (BTRA-displaced)
    return, continue to exit: ``jit`` == ``reference`` at every observation."""
    binary = compile_module(
        loop_module(), R2CConfig.full(seed=7, btra_mode=btra_mode)
    )
    observed = {}
    for backend in ("reference", "jit"):
        process = load_binary(binary, seed=1)
        cpu = CPU(process, get_costs("epyc-rome"), backend=backend)
        debugger = Debugger(cpu)
        debugger.break_at("double")
        stream = []
        stops = 0
        # Stop at the callee a few times; single-step each stop through
        # the RET (BTRA displaces the on-stack return address — the
        # executed stream must come back to the call site regardless).
        while stops < 3 and not debugger.cont():
            stops += 1
            stream.append(("stop", cpu.rip, list(cpu.regs)))
            for _ in range(25):
                if debugger.step(1):
                    break
                stream.append(cpu.rip)
        finished = debugger.finished or debugger.cont()
        while not finished:
            finished = debugger.cont()
        observed[backend] = {
            "stops": stops,
            "stream": stream,
            "result": dataclasses.asdict(debugger.result),
            "output": list(process.output),
            "rip": cpu.rip,
        }
    assert observed["jit"] == observed["reference"]


def test_debugged_run_equals_unbroken_run_on_jit():
    """The accumulated result of a breakpointed jit session equals an
    uninterrupted jit run (and the reference run) exactly."""
    binary = compile_module(loop_module(), R2CConfig.full(seed=8))

    def plain(backend):
        process = load_binary(binary, seed=1)
        cpu = CPU(process, get_costs("epyc-rome"), backend=backend)
        return dataclasses.asdict(cpu.run())

    process = load_binary(binary, seed=1)
    cpu = CPU(process, get_costs("epyc-rome"), backend="jit")
    debugger = Debugger(cpu)
    debugger.break_at("double")
    while not debugger.cont():
        debugger.step(3)
    debugged = dataclasses.asdict(debugger.result)

    assert debugged == plain("jit")
    assert debugged == plain("reference")


def test_single_stepping_drives_the_deopt_path():
    """max_steps=1 slices can never satisfy a block prolog's folded
    allowance, so a stepped jit session must route through the deopt
    escape once blocks are promoted — and still finish correctly."""
    binary = compile_module(loop_module(), R2CConfig.full(seed=9))
    process = load_binary(binary, seed=1)
    cpu = CPU(process, get_costs("epyc-rome"), backend="jit")
    debugger = Debugger(cpu)
    before = jit_stats_snapshot()
    while not debugger.step(1):
        pass
    after = jit_stats_snapshot()
    assert after["deopts"] > before["deopts"]
    assert debugger.result.exit_code == 0


# ---------------------------------------------------------------------------
# Deopt contract on hot loops: a breakpoint landing inside a compiled
# loop body, budget exhaustion mid-iteration, and a fetch-epoch bump
# between back edges must all hand execution back to the interpreter
# with the exact reference stream.
# ---------------------------------------------------------------------------


def hot_loop_spec(iterations=80):
    """A machine-level counted loop whose body block is entered often
    enough to compile at tier 2 within one run.  Returns (spec,
    head_index, body_index)."""
    spec = [
        (Op.MOV, Reg.RAX, Imm(0)),
        (Op.MOV, Reg.RBP, Imm(DATA)),
        (Op.MOV, Reg.RCX, Imm(iterations)),
    ]
    head = len(spec)
    spec.append((Op.ADD, Reg.RAX, Imm(3)))
    body = len(spec)
    spec.append((Op.MOV, Mem(Reg.RBP, 8), Reg.RAX))
    spec.append((Op.MOV, Reg.RBX, Mem(Reg.RBP, 8)))
    spec.append((Op.SUB, Reg.RCX, Imm(1)))
    spec.append((Op.CMP, Reg.RCX, Imm(0)))
    spec.append((Op.JG, ("L", head), None))
    spec.append((Op.OUT, Reg.RAX, None))
    spec.append((Op.EXIT, Imm(0), None))
    spec = [entry if len(entry) == 3 else (*entry, None) for entry in spec]
    return spec, head, body


def test_breakpoint_inside_compiled_loop_trace():
    """Phase 1 runs a big step slice at full compiled speed (the loop
    block executes at tier 2); phase 2 sets a breakpoint on an address
    *inside* the compiled loop body and continues — the block prolog
    must reject its allowance, deopt, and the stepped stream must equal
    ``reference``'s."""
    spec, _head, body = hot_loop_spec()
    body_addr = build_spec(spec)[1][body]
    observed = {}
    for backend in ("reference", "jit"):
        process, addresses = build_spec(spec)
        cpu = CPU(process, get_costs("epyc-rome"), backend=backend)
        debugger = Debugger(cpu)
        before = jit_stats_snapshot()
        debugger.step(300)
        mid = jit_stats_snapshot()
        debugger.add_breakpoint(addresses[body])
        stream = []
        assert not debugger.cont()
        stream.append(("stop", cpu.rip, list(cpu.regs)))
        for _ in range(30):
            if debugger.step(1):
                break
            stream.append(cpu.rip)
        debugger.remove_breakpoint(addresses[body])
        finished = debugger.finished
        while not finished:
            finished = debugger.cont()
        observed[backend] = {
            "stream": stream,
            "result": dataclasses.asdict(debugger.result),
            "rip": cpu.rip,
            "output": list(process.output),
        }
        if backend == "jit":
            # The big slice really did compile the loop block.
            assert mid["blocks_compiled"] > before["blocks_compiled"]
    assert observed["jit"] == observed["reference"]
    # The stop parked exactly on the mid-block breakpoint address.
    assert observed["jit"]["stream"][0][1] == body_addr


def test_budget_exhaustion_mid_trace_iteration():
    """An instruction budget landing mid-iteration: the compiled loop
    block must refuse the iteration it cannot afford, deopt, and let the
    interpreter raise ExecutionLimitExceeded at the exact instruction."""
    spec, head, _body = hot_loop_spec()
    body_len = 6  # ADD through JG
    budget = 3 + 50 * body_len + 2  # setup + 50 iterations + 2 instrs
    before = jit_stats_snapshot()
    outcomes = {
        backend: run_one_backend(
            lambda: build_spec(spec)[0], backend, instruction_budget=budget
        )
        for backend in ("reference", "jit")
    }
    after = jit_stats_snapshot()
    assert after["blocks_compiled"] > before["blocks_compiled"]
    assert after["deopts"] > before["deopts"]
    assert outcomes["jit"] == outcomes["reference"]
    assert outcomes["jit"]["error"][0] is ExecutionLimitExceeded
    assert outcomes["jit"]["result"]["instructions"] == budget + 1


def test_fetch_epoch_bump_between_back_edges():
    """A CALLRT service between inner-loop activations bumps the memory
    permission epoch (the re-randomization signal).  The compiled inner
    block's prolog must reject the stale epoch; the driver revalidates
    the slice and re-enters the same compiled block — no recompile."""
    spec = [
        (Op.MOV, Reg.RAX, Imm(0)),
        (Op.MOV, Reg.RDI, Imm(4)),  # outer trips
    ]
    outer = len(spec)
    spec.append((Op.MOV, Reg.RCX, Imm(40)))  # inner trips
    inner = len(spec)
    spec.append((Op.ADD, Reg.RAX, Imm(1)))
    spec.append((Op.SUB, Reg.RCX, Imm(1)))
    spec.append((Op.CMP, Reg.RCX, Imm(0)))
    spec.append((Op.JG, ("L", inner)))
    spec.append((Op.CALLRT, Imm(symbol="bump")))
    spec.append((Op.SUB, Reg.RDI, Imm(1)))
    spec.append((Op.CMP, Reg.RDI, Imm(0)))
    spec.append((Op.JG, ("L", outer)))
    spec.append((Op.OUT, Reg.RAX))
    spec.append((Op.EXIT, Imm(0)))
    spec = [entry if len(entry) == 3 else (*entry, None) for entry in spec]
    processes = []

    def make():
        process, addresses = build_spec(spec)
        bumped = []

        def bump(proc, cpu):
            # Same permissions, new epoch: exactly what a benign
            # re-randomization step looks like to the fetch path.
            proc.memory.protect(HEAP, 4096, Perm.RW)
            bumped.append(proc.memory.perm_epoch)
            return 0

        process.register_service("bump", bump)
        processes.append((process, addresses, bumped))
        return process

    outcomes = {"reference": run_one_backend(make, "reference")}
    before = jit_stats_snapshot()
    outcomes["jit"] = run_one_backend(make, "jit")
    after = jit_stats_snapshot()
    assert outcomes["jit"] == outcomes["reference"]
    assert outcomes["jit"]["error"] is None
    process, addresses, bumped = processes[-1]
    assert len(set(bumped)) == 4
    # The inner block was compiled once and revalidated across epochs,
    # not recompiled per epoch: its validated stamp is the epoch of its
    # last activation (after the third bump), and the run compiled each
    # of its four hot heads (outer loop, inner loop, CALLRT, outer tail)
    # at most once.
    (program,) = [
        entry[1] for key, entry in process.uop_programs.items() if key[0] == "jit"
    ]
    variant = program.variant(False, False)
    assert variant.epochs[addresses[inner]] == bumped[2]
    assert 0 < after["blocks_compiled"] - before["blocks_compiled"] <= 4


# ---------------------------------------------------------------------------
# Tier 1: static blocks, fusion, and the disasm-blocks tier report.
# ---------------------------------------------------------------------------


def test_block_recovery_boundaries_and_fusion():
    def build(loop_head):
        return assemble(
            [
                I(Op.MOV, Reg.RAX, Imm(0)),       # 0: falls into loop head
                I(Op.PUSH, Reg.RAX),              # 1: loop head (branch target)
                I(Op.PUSH, Reg.RBX),              # 2: push run with 1
                I(Op.POP, Reg.RBX),               # 3
                I(Op.POP, Reg.RAX),               # 4
                I(Op.ADD, Reg.RAX, Imm(1)),       # 5
                I(Op.CMP, Reg.RAX, Imm(3)),       # 6: fuses with 7
                I(Op.JL, Imm(loop_head)),         # 7: back edge
                I(Op.EXIT, Imm(0)),               # 8
            ]
        )

    # Two-pass: assemble to learn the loop head, reassemble with the
    # back edge pointing at it (the target width may shift addresses, so
    # iterate to a fixed point).
    _, addresses = build(0)
    while True:
        process, new_addresses = build(addresses[1])
        if new_addresses == addresses:
            break
        addresses = new_addresses
    blocks = static_blocks(process.instructions)
    assert list(blocks) == [addresses[0], addresses[1], addresses[8]]
    loop = blocks[addresses[1]]
    assert [addr for addr, _ in loop] == addresses[1:8]
    kinds = {kind for kind, _, _ in fuse_slice(loop)}
    assert kinds == {"cmp+jcc", "push-run"}
    # The displayed entry block is cut at the loop head, but the jit's
    # slice from that head runs on through the back edge.
    assert len(blocks[addresses[0]]) == 1
    assert len(slice_block(process.instructions, addresses[0])) == 8


def test_disasm_blocks_tiers_match_jit_lowering(capsys):
    """``disasm-blocks`` reports a block at tier 2 exactly when the jit
    compiles the slice at its head; TRAP, RET and NOP lower fine.  leela
    has one block the jit cannot lower, so both verdicts are checked."""
    from repro.__main__ import disasm_blocks_main
    from repro.workloads.spec import build_spec_benchmark

    assert disasm_blocks_main(["leela"]) == 0
    header = re.compile(
        r"^block \d+(?: <[^>]*>)?: \[(0x[0-9a-f]+), (0x[0-9a-f]+)\) "
        r"\d+ uops, tier (\d)$"
    )
    reported = {}
    blockers = set()
    for line in capsys.readouterr().out.splitlines():
        match = header.match(line)
        if match:
            reported[int(match.group(1), 16)] = (int(match.group(2), 16), int(match.group(3)))
        elif line.startswith("  stays tier 1: no tier-2 lowering for "):
            blockers.add(line.split()[7])
    assert reported
    assert blockers and not blockers & {"TRAP", "RET", "NOP"}

    binary = compile_module(build_spec_benchmark("leela"), R2CConfig.full(seed=1))
    process = load_binary(binary, seed=1)
    program = JitProgram(process, get_costs("epyc-rome"))
    variant = program.variant(False, False)
    backend = JitBackend()
    compiled = {
        head for head in reported
        if backend._compile_slice(program, variant, head) is not None
    }
    assert compiled == {head for head, (_, tier) in reported.items() if tier == 2}
    assert 0 < len(compiled) < len(reported)

    instructions = process.instructions
    for op in (Op.TRAP, Op.RET, Op.NOP):
        assert any(
            tier == 2 and any(
                instructions[addr].op is op
                for addr, _ in slice_block(instructions, head)
                if addr < end
            )
            for head, (end, tier) in reported.items()
        ), op


def test_monotone_icache_detection():
    costs = get_costs("epyc-rome")
    process, _ = assemble([I(Op.MOV, Reg.RAX, Imm(1)), I(Op.EXIT, Imm(0))])
    assert _text_fits_icache(process.instructions, costs)
    # ways+1 distinct lines hashing into one set force real LRU.
    sets = costs.icache_size // (costs.icache_line * costs.icache_ways)
    stride = sets * costs.icache_line
    crowded = {
        0x1000 + k * stride: SimpleNamespace(size=1)
        for k in range(costs.icache_ways + 1)
    }
    assert not _text_fits_icache(crowded, costs)


# ---------------------------------------------------------------------------
# Tier 2: the compiled-code cache is shared across loads of one image.
# ---------------------------------------------------------------------------


def test_code_cache_reused_across_loads_of_one_image():
    binary = compile_module(loop_module(), R2CConfig.full(seed=10))

    def run_once():
        process = load_binary(binary, seed=1)
        cpu = CPU(process, get_costs("epyc-rome"), backend="jit")
        return cpu.run()

    before = jit_stats_snapshot()
    first = run_once()
    mid = jit_stats_snapshot()
    second = run_once()
    after = jit_stats_snapshot()

    assert dataclasses.asdict(first) == dataclasses.asdict(second)
    # The hot loop crosses the promotion threshold: blocks were compiled.
    assert mid["blocks_compiled"] > before["blocks_compiled"]
    # The second load (same image, same layout seed) relinks cached code
    # objects instead of recompiling.
    assert after["blocks_compiled"] == mid["blocks_compiled"]
    assert after["code_cache_hits"] > mid["code_cache_hits"]
