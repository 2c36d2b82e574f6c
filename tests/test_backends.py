"""Differential tests for the execution backends.

The fetch/decode/execute split (DESIGN.md) requires the ``jit`` engine
to be observationally indistinguishable from the ``reference``
interpreter loop: identical :class:`ExecutionResult` counters (cycles,
opcode counts, tag attribution, i-cache hits/misses), identical faults
(type, message, and faulting ``cpu.rip``) — even for runs that crash
mid-program — plus identical trace-hook and debugger behaviour.  These
tests drive both backends over the same programs and compare everything.
"""

import dataclasses

import pytest

from repro.core.compiler import compile_module
from repro.core.config import R2CConfig
from repro.errors import (
    BoobyTrapTriggered,
    ExecutionLimitExceeded,
    GuardPageFault,
    InvalidInstruction,
    MachineError,
    MemoryFault,
    ShadowStackViolation,
    StackMisaligned,
)
from repro.machine.backends import available_backends, get_backend
from repro.machine.costs import get_costs
from repro.machine.cpu import CPU, ExecutionResult
from repro.machine.debugger import Debugger
from repro.machine.isa import Imm, Instruction, Mem, Op, Reg
from repro.machine.loader import load_binary
from repro.machine.memory import Perm
from repro.machine.process import AddressSpaceLayout, Process

from tests.conftest import FULL_CONFIGS

I = Instruction

TEXT = 0x5555_0000_0000
DATA = 0x5555_0010_0000
HEAP = 0x6200_0000_0000
STACK = 0x7FFC_0000_0000

# Every registered backend participates in the differential suite — a
# backend added to the registry is automatically held to the reference
# contract here (and in the debugger/lockstep/state parity tests, which
# import this tuple).
BACKENDS = tuple(available_backends())


def assemble(instrs, *, execute_only=True):
    layout = AddressSpaceLayout(
        text_base=TEXT,
        text_size=0x10000,
        data_base=DATA,
        data_size=0x10000,
        heap_base=HEAP,
        heap_size=0x10000,
        stack_base=STACK,
        stack_size=0x10000,
    )
    process = Process(layout, execute_only_text=execute_only)
    addr = TEXT
    addresses = []
    for instr in instrs:
        process.place_instruction(addr, instr)
        addresses.append(addr)
        addr += instr.size
    process.entry_point = TEXT
    return process, addresses


def run_one_backend(make_process, backend, **cpu_kwargs):
    """Run ``make_process()`` under ``backend``; capture result and fault."""
    process = make_process()
    res = ExecutionResult()
    cpu = CPU(process, get_costs("epyc-rome"), backend=backend, **cpu_kwargs)
    error = None
    try:
        cpu.run(result=res)
    except Exception as exc:  # noqa: BLE001 - faults are the subject here
        error = (type(exc), str(exc))
    return {
        "result": dataclasses.asdict(res),
        "error": error,
        "rip": cpu.rip,
        "regs": list(cpu.regs),
        "shadow": list(cpu.shadow_stack),
        "exit_code": process.exit_code,
    }


def compare_backends(make_process, **cpu_kwargs):
    """Assert every registered backend observes the identical machine
    trajectory (``jit`` participates with its tier-2 block compiler)."""
    reference = run_one_backend(make_process, "reference", **cpu_kwargs)
    for backend in BACKENDS:
        if backend == "reference":
            continue
        observed = run_one_backend(make_process, backend, **cpu_kwargs)
        assert observed == reference, f"backend {backend!r} diverged"
    return reference


# ---------------------------------------------------------------------------
# Clean runs: counters must match field-for-field.
# ---------------------------------------------------------------------------


def test_counters_identical_on_straight_line_code():
    def make():
        process, _ = assemble(
            [
                I(Op.MOV, Reg.RAX, Imm(40)),
                I(Op.MOV, Reg.RBX, Imm(2)),
                I(Op.ADD, Reg.RAX, Reg.RBX),
                I(Op.PUSH, Reg.RAX),
                I(Op.POP, Reg.RCX),
                I(Op.OUT, Reg.RCX),
                I(Op.EXIT, Imm(0)),
            ]
        )
        return process

    outcome = compare_backends(make, count_opcodes=True)
    assert outcome["error"] is None
    assert outcome["result"]["output"] == [42]


def test_counters_identical_on_compiled_workloads(simple_module):
    for name, config in FULL_CONFIGS.items():
        binary = compile_module(simple_module, config)

        def make():
            process = load_binary(binary, seed=1)
            process.register_service("attack_hook", lambda proc, cpu: 0)
            return process

        outcome = compare_backends(make, count_opcodes=True, attribute_tags=True)
        assert outcome["error"] is None, (name, outcome["error"])
        assert outcome["result"]["instructions"] > 0


def test_cycles_are_float_identical(simple_module):
    """Cost addition order is preserved, so float cycles match exactly."""
    binary = compile_module(simple_module, R2CConfig.full(seed=5))
    totals = {}
    for backend in BACKENDS:
        process = load_binary(binary, seed=1)
        process.register_service("attack_hook", lambda proc, cpu: 0)
        result = CPU(process, get_costs("i9-9900k"), backend=backend).run()
        totals[backend] = result.cycles
    assert all(total == totals["reference"] for total in totals.values())


# ---------------------------------------------------------------------------
# Fault equivalence: type, message, faulting rip, and partial counters.
# ---------------------------------------------------------------------------


def test_booby_trap_identical():
    def make():
        process, _ = assemble([I(Op.NOP), I(Op.TRAP), I(Op.EXIT, Imm(0))])
        return process

    outcome = compare_backends(make)
    assert outcome["error"][0] is BoobyTrapTriggered
    assert outcome["result"]["instructions"] == 2  # NOP + the trap itself


def test_shadow_stack_violation_identical():
    def make():
        instrs = [
            I(Op.CALL, Imm(0)),
            I(Op.EXIT, Imm(0)),
            # callee: overwrite the return address, then return.
            I(Op.MOV, Mem(Reg.RSP), Imm(0x1234)),
            I(Op.RET),
        ]
        process, addresses = assemble(instrs)
        instrs[0].a = Imm(addresses[2])
        return process

    outcome = compare_backends(make, shadow_stack=True)
    assert outcome["error"][0] is ShadowStackViolation
    assert outcome["result"]["rets"] == 0  # violating ret is not counted


def test_budget_exhaustion_identical():
    def make():
        instrs = [I(Op.JMP, Imm(0))]
        process, addresses = assemble(instrs)
        instrs[0].a = Imm(addresses[0])
        return process

    outcome = compare_backends(make, instruction_budget=75)
    assert outcome["error"][0] is ExecutionLimitExceeded
    assert outcome["result"]["instructions"] == 76


def test_division_by_zero_identical():
    def make():
        process, _ = assemble(
            [
                I(Op.MOV, Reg.RAX, Imm(1)),
                I(Op.MOV, Reg.RBX, Imm(0)),
                I(Op.IDIV, Reg.RAX, Reg.RBX),
                I(Op.EXIT, Imm(0)),
            ]
        )
        return process

    outcome = compare_backends(make)
    assert outcome["error"][0] is MachineError
    assert "division by zero" in outcome["error"][1]


def test_stack_misalignment_identical():
    def make():
        instrs = [
            I(Op.PUSH, Imm(1)),
            I(Op.CALL, Imm(0)),
            I(Op.EXIT, Imm(0)),
            I(Op.RET),
        ]
        process, addresses = assemble(instrs)
        instrs[1].a = Imm(addresses[3])
        return process

    outcome = compare_backends(make)
    assert outcome["error"][0] is StackMisaligned


def test_fetch_from_data_identical():
    def make():
        process, _ = assemble([I(Op.JMP, Imm(DATA)), I(Op.EXIT, Imm(0))])
        return process

    outcome = compare_backends(make)
    assert outcome["error"][0] is MemoryFault
    assert outcome["rip"] == DATA  # rip rests at the invalid target


def test_jump_into_instruction_middle_identical():
    """Executable bytes with no decoded instruction: InvalidInstruction."""

    def make():
        instrs = [I(Op.JMP, Imm(0)), I(Op.EXIT, Imm(0))]
        process, addresses = assemble(instrs)
        instrs[0].a = Imm(addresses[1] + 1)
        return process

    outcome = compare_backends(make)
    assert outcome["error"][0] is InvalidInstruction
    assert "no instruction at" in outcome["error"][1]


def test_guard_page_dereference_identical():
    def make():
        process, _ = assemble(
            [
                I(Op.MOV, Reg.RAX, Imm(HEAP)),
                I(Op.MOV, Reg.RBX, Mem(Reg.RAX)),
                I(Op.EXIT, Imm(0)),
            ]
        )
        process.memory.protect(HEAP, 4096, Perm.NONE, guard=True)
        return process

    outcome = compare_backends(make)
    assert outcome["error"][0] is GuardPageFault


def test_runtime_service_changing_permissions_identical():
    """A CALLRT service may remap pages; every backend must fetch-check
    against the new permissions afterwards (the perm-epoch path)."""

    def make():
        process, _ = assemble(
            [
                I(Op.CALLRT, Imm(symbol="lockdown")),
                I(Op.MOV, Reg.RAX, Imm(HEAP)),
                I(Op.MOV, Reg.RBX, Mem(Reg.RAX)),
                I(Op.EXIT, Imm(0)),
            ]
        )

        def lockdown(proc, cpu):
            proc.memory.protect(HEAP, 4096, Perm.NONE, guard=True)
            return 0

        process.register_service("lockdown", lockdown)
        return process

    outcome = compare_backends(make)
    assert outcome["error"][0] is GuardPageFault


# ---------------------------------------------------------------------------
# Observability parity: PerfCounters and folded-stack profiles must be
# byte-identical between backends across seeds and BTRA modes.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("btra_mode", ["avx", "push"])
@pytest.mark.parametrize("seed", [3, 4, 5])
def test_perf_counters_and_profiles_identical(seed, btra_mode):
    """Folded profiles, per-tag cycle decomposition, and shadow-ICache
    attribution are backend-byte-identical.  The xz workload's call loop
    promotes its callers and callees to tier-2 block functions, so
    BTRA-displaced returns execute *inside* compiled blocks on both the
    attributed leg and the lean leg below."""
    from repro.machine.jit import clear_jit_cache, jit_stats_snapshot
    from repro.obs.profiler import CycleProfiler
    from repro.workloads.spec import build_spec_benchmark

    module = build_spec_benchmark("xz")
    binary = compile_module(module, R2CConfig.full(seed=seed, btra_mode=btra_mode))
    observed = {}
    for backend in BACKENDS:
        process = load_binary(binary, seed=seed)
        cpu = CPU(
            process, get_costs("epyc-rome"), backend=backend, attribute_tags=True
        )
        profiler = CycleProfiler(cpu)
        result = cpu.run()
        observed[backend] = {
            "counters": result.perf_counters().to_json(),
            "folded": profiler.folded_stacks(),
            "hottest": profiler.hottest_rips(5),
            "result": dataclasses.asdict(result),
        }
    for backend in BACKENDS:
        assert observed[backend] == observed["reference"], backend
    counters = observed["jit"]["counters"]
    assert '"schema": "repro-counters/v1"' in counters

    # Lean leg: no profiler, no attribution — the jit's hot configuration,
    # with its folded-constant accounting.  A cold code cache makes the
    # leg compile its blocks afresh.
    clear_jit_cache()
    lean = {}
    before = jit_stats_snapshot()
    for backend in BACKENDS:
        process = load_binary(binary, seed=seed)
        result = CPU(process, get_costs("epyc-rome"), backend=backend).run()
        lean[backend] = {
            "counters": result.perf_counters().to_json(),
            "result": dataclasses.asdict(result),
        }
    after = jit_stats_snapshot()
    for backend in BACKENDS:
        assert lean[backend] == lean["reference"], backend
    # The jit leg really compiled lean tier-2 blocks.
    assert after["blocks_compiled"] > before["blocks_compiled"]


# ---------------------------------------------------------------------------
# Trace hooks and the debugger ride on either backend.
# ---------------------------------------------------------------------------


def test_trace_fn_sees_identical_stream():
    streams = {}
    for backend in BACKENDS:
        seen = []
        process, _ = assemble(
            [
                I(Op.MOV, Reg.RAX, Imm(7)),
                I(Op.OUT, Reg.RAX),
                I(Op.EXIT, Imm(0)),
            ]
        )
        cpu = CPU(
            process,
            get_costs("epyc-rome"),
            backend=backend,
            trace_fn=lambda c, rip, ins: seen.append((rip, ins.op, c.rip)),
        )
        cpu.run()
        streams[backend] = seen
    assert streams["reference"] == streams["jit"]
    # The hook observes cpu.rip parked on the traced instruction.
    assert all(rip == cur for rip, _, cur in streams["jit"])


def test_debugger_breakpoints_work_on_fast_backend():
    states = {}
    for backend in BACKENDS:
        instrs = [
            I(Op.MOV, Reg.RAX, Imm(1)),
            I(Op.ADD, Reg.RAX, Imm(2)),
            I(Op.OUT, Reg.RAX),
            I(Op.EXIT, Imm(0)),
        ]
        process, addresses = assemble(instrs)
        cpu = CPU(process, get_costs("epyc-rome"), backend=backend)
        debugger = Debugger(cpu)
        debugger.add_breakpoint(addresses[2])
        assert not debugger.cont()  # stopped at the OUT
        at_break = (cpu.rip, cpu.regs[Reg.RAX])
        assert debugger.cont()  # runs to completion
        states[backend] = (at_break, debugger.result.exit_code, list(process.output))
    assert states["reference"] == states["jit"]


# ---------------------------------------------------------------------------
# Backend registry.
# ---------------------------------------------------------------------------


def test_backend_registry():
    assert available_backends() == ["jit", "reference"]
    assert get_backend("jit").name == "jit"
    with pytest.raises(MachineError):
        get_backend("warp-drive")


def test_unknown_backend_fails_at_run():
    process, _ = assemble([I(Op.EXIT, Imm(0))])
    cpu = CPU(process, get_costs("epyc-rome"), backend="bogus")
    with pytest.raises(MachineError):
        cpu.run()
