"""Tests for code-pointer hiding (Section 2.2) and the tooling additions
(disassembler, debugger)."""

import pytest

from repro.attacks import AttackOutcome, VictimSession, aocr_attack
from repro.core.config import R2CConfig
from repro.core.compiler import compile_module
from repro.core.passes.cph import TRAMPOLINE_PREFIX
from repro.machine.costs import get_costs
from repro.machine.cpu import CPU
from repro.machine.debugger import Debugger
from repro.machine.loader import load_binary
from repro.toolchain.builder import IRBuilder
from repro.toolchain.disasm import disassemble_function, format_instruction, section_map
from repro.workloads.victim import build_victim
from tests.conftest import assert_equivalent

CPH_CFG = R2CConfig(seed=5, enable_cph=True)


def fn_ptr_module():
    ir = IRBuilder()
    f = ir.function("callee", params=["x"])
    f.ret(f.mul(f.param("x"), 3))
    ir.global_var("fp", init=(("callee", 0),))
    m = ir.function("main")
    target = m.load_global("fp")
    m.out(m.icall(target, [5]))
    got_target = m.func_addr("callee")
    m.out(m.icall(got_target, [7]))
    m.ret(0)
    return ir.finish()


def test_cph_is_semantics_preserving():
    assert_equivalent(fn_ptr_module(), CPH_CFG)
    assert_equivalent(build_victim(), CPH_CFG)
    assert_equivalent(build_victim(), R2CConfig.full(seed=9).replace(enable_cph=True))


def test_cph_hides_function_addresses_in_data_section():
    binary = compile_module(fn_ptr_module(), CPH_CFG)
    process = load_binary(binary, seed=2)
    observable = process.memory.read_word(process.symbols["fp"])
    assert observable != process.symbols["callee"]
    assert observable == process.symbols[f"{TRAMPOLINE_PREFIX}callee"]
    # GOT entry hidden too.
    got = process.symbols["__got__"]
    assert process.memory.read_word(got) == process.symbols[f"{TRAMPOLINE_PREFIX}callee"]


def test_cph_trampoline_is_one_jump():
    binary = compile_module(fn_ptr_module(), CPH_CFG)
    name = f"{TRAMPOLINE_PREFIX}callee"
    start, end = binary.function_range(name)
    instrs = [i for off, i in binary.text if start <= off < end]
    assert len(instrs) == 1
    assert instrs[0].tag == "cph-trampoline"


def test_cph_does_not_stop_aocr():
    """The Section 2.2 observation: whole-function reuse through a CPH
    pointer still calls the function."""
    model_cfg = R2CConfig(
        seed=7,
        enable_cph=True,
        enable_function_shuffle=True,
        enable_nop_insertion=True,
        booby_traps_standalone=True,
    )
    successes = 0
    for trial in range(3):
        session = VictimSession(model_cfg.replace(seed=400 + trial), execute_only=True)
        if aocr_attack(session, attacker_seed=trial).outcome is AttackOutcome.SUCCESS:
            successes += 1
    assert successes >= 2


def test_readactor_model_uses_cph():
    from repro.defenses import DEFENSE_MODELS

    assert DEFENSE_MODELS["readactor"].config.enable_cph


# ---- tooling: disassembler -------------------------------------------------

def test_disassemble_function_lists_instructions():
    binary = compile_module(fn_ptr_module(), R2CConfig.baseline())
    text = disassemble_function(binary, "callee")
    assert "<callee>" in text
    assert "imul" in text
    assert "ret" in text


def test_disassembly_shows_diversification_tags():
    binary = compile_module(build_victim(), R2CConfig.full(seed=3, btra_mode="push"))
    text = disassemble_function(binary, "process_request")
    assert "btra-setup" in text
    assert "btdp" in text


def test_section_map_lists_everything():
    binary = compile_module(build_victim(), R2CConfig.full(seed=3))
    text = section_map(binary)
    assert "process_request" in text
    assert "__got__" in text or "handler_ptr" in text
    assert "[unprotected]" in text  # booby traps / _start


def test_format_instruction_operands():
    from repro.machine.isa import Imm, Instruction, Mem, Op, Reg

    line = format_instruction(0x40, Instruction(Op.MOV, Reg.RAX, Mem(Reg.RSP, 8)))
    assert "mov" in line and "rax" in line and "rsp" in line


# ---- tooling: debugger ---------------------------------------------------------

def make_debug_session(config=None):
    binary = compile_module(build_victim(), config or R2CConfig.baseline())
    process = load_binary(binary, seed=3)
    process.register_service("attack_hook", lambda proc, cpu: 0)
    cpu = CPU(process, get_costs("epyc-rome"))
    return Debugger(cpu), process


def test_debugger_breakpoint_by_symbol():
    debugger, process = make_debug_session()
    debugger.break_at("process_request")
    finished = debugger.cont()
    assert not finished
    assert debugger.rip == process.symbols["process_request"]
    assert debugger.current_function() == "process_request"


def test_debugger_resume_and_finish():
    debugger, process = make_debug_session()
    debugger.break_at("target_exec")  # never called legitimately
    finished = debugger.cont()
    assert finished
    assert debugger.result.exit_code == 0


def test_debugger_stepping():
    debugger, process = make_debug_session()
    debugger.break_at("main")
    debugger.cont()
    start_rip = debugger.rip
    debugger.step(3)
    assert debugger.rip != start_rip


def test_debugger_repeated_breakpoint_hits():
    debugger, process = make_debug_session()
    debugger.break_at("process_request")
    hits = 0
    while not debugger.cont():
        hits += 1
        if hits > 10:
            break
    assert hits == 6  # the victim serves six requests


def test_debugger_watchpoint_sees_global_write():
    debugger, process = make_debug_session()
    debugger.add_watchpoint(process.symbols["counters"] + 24)  # audit_log target
    debugger.cont()
    assert debugger.watch_hits
    assert debugger.watch_hits[0]["address"] == process.symbols["counters"] + 24


def test_debugger_rejects_busy_cpu():
    debugger, _ = make_debug_session()
    with pytest.raises(ValueError):
        Debugger(debugger.state)
