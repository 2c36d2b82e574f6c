"""Tests for the CPU interpreter, including the BTRA-critical semantics."""

import pytest

from repro.errors import (
    BoobyTrapTriggered,
    ExecutionLimitExceeded,
    InvalidInstruction,
    MachineError,
    StackMisaligned,
)
from repro.machine.costs import get_costs
from repro.machine.cpu import CPU
from repro.machine.isa import Imm, Instruction, Mem, Op, Reg
from repro.machine.process import AddressSpaceLayout, Process
from repro.numeric import to_signed, truncated_div

TEXT = 0x5555_0000_0000
DATA = 0x5555_0010_0000
HEAP = 0x6200_0000_0000
STACK = 0x7FFC_0000_0000


def assemble(instrs, *, execute_only=True):
    """Build a process containing ``instrs`` laid out from the text base."""
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


def run(instrs, **kwargs):
    process, addresses = assemble(instrs)
    cpu = CPU(process, get_costs("epyc-rome"), **kwargs)
    result = cpu.run()
    return cpu, result, addresses


I = Instruction


def test_mov_and_arith():
    cpu, result, _ = run(
        [
            I(Op.MOV, Reg.RAX, Imm(40)),
            I(Op.MOV, Reg.RBX, Imm(2)),
            I(Op.ADD, Reg.RAX, Reg.RBX),
            I(Op.OUT, Reg.RAX),
            I(Op.SUB, Reg.RAX, Imm(12)),
            I(Op.IMUL, Reg.RAX, Imm(-2)),
            I(Op.OUT, Reg.RAX),
            I(Op.EXIT, Imm(0)),
        ]
    )
    assert result.output[0] == 42
    assert to_signed(result.output[1]) == -60


def test_division_semantics_match_c():
    # -7 / 2 == -3 in C (truncation toward zero).
    cpu, result, _ = run(
        [
            I(Op.MOV, Reg.RAX, Imm(-7)),
            I(Op.MOV, Reg.RBX, Imm(2)),
            I(Op.IDIV, Reg.RAX, Reg.RBX),
            I(Op.OUT, Reg.RAX),
            I(Op.EXIT, Imm(0)),
        ]
    )
    assert to_signed(result.output[0]) == -3


def test_truncated_div_exact_for_large_values():
    big = 2**62 + 12345
    assert truncated_div(big, 7) == big // 7
    assert truncated_div(-big, 7) == -(big // 7)


def test_division_by_zero_raises():
    with pytest.raises(MachineError):
        run(
            [
                I(Op.MOV, Reg.RAX, Imm(1)),
                I(Op.MOV, Reg.RBX, Imm(0)),
                I(Op.IDIV, Reg.RAX, Reg.RBX),
                I(Op.EXIT, Imm(0)),
            ]
        )


def test_shifts_mask_count():
    cpu, result, _ = run(
        [
            I(Op.MOV, Reg.RAX, Imm(1)),
            I(Op.SHL, Reg.RAX, Imm(65)),  # 65 & 63 == 1
            I(Op.OUT, Reg.RAX),
            I(Op.EXIT, Imm(0)),
        ]
    )
    assert result.output[0] == 2


def test_push_pop_stack_semantics():
    cpu, result, _ = run(
        [
            I(Op.MOV, Reg.RAX, Imm(0x1234)),
            I(Op.PUSH, Reg.RAX),
            I(Op.PUSH, Imm(0x5678)),
            I(Op.POP, Reg.RBX),
            I(Op.POP, Reg.RCX),
            I(Op.OUT, Reg.RBX),
            I(Op.OUT, Reg.RCX),
            I(Op.EXIT, Imm(0)),
        ]
    )
    assert result.output == [0x5678, 0x1234]
    assert cpu.regs[Reg.RSP] % 16 == 0


def test_call_writes_return_address_at_new_rsp():
    """The x86 property the BTRA setup of Section 5.1 depends on: the call
    overwrites the word at the decremented rsp in place."""
    marker = 0xDEAD_BEEF
    instrs = [
        I(Op.PUSH, Imm(marker)),  # the slot the call must overwrite
        I(Op.ADD, Reg.RSP, Imm(8)),  # reposition rsp above the slot
        I(Op.CALL, Imm(0)),  # target patched below
        I(Op.EXIT, Imm(0)),
        # callee:
        I(Op.MOV, Reg.RAX, Mem(Reg.RSP)),  # read the return address slot
        I(Op.OUT, Reg.RAX),
        I(Op.RET),
    ]
    process, addresses = assemble(instrs)
    instrs[2].a = Imm(addresses[4])
    cpu = CPU(process, get_costs("epyc-rome"))
    result = cpu.run()
    ra = result.output[0]
    assert ra == addresses[3]  # the instruction after the call
    assert ra != marker  # the pushed word was overwritten in place
    assert result.exit_code == 0


def test_alignment_enforced_at_call():
    instrs = [
        I(Op.PUSH, Imm(1)),  # rsp now ≡ 8 (mod 16)
        I(Op.CALL, Imm(0)),
        I(Op.EXIT, Imm(0)),
        I(Op.RET),
    ]
    process, addresses = assemble(instrs)
    instrs[1].a = Imm(addresses[3])
    cpu = CPU(process, get_costs("epyc-rome"))
    with pytest.raises(StackMisaligned):
        cpu.run()


def test_alignment_check_can_be_disabled():
    instrs = [
        I(Op.PUSH, Imm(1)),
        I(Op.CALL, Imm(0)),
        I(Op.EXIT, Imm(0)),
        I(Op.RET),
    ]
    process, addresses = assemble(instrs)
    instrs[1].a = Imm(addresses[3])
    cpu = CPU(process, get_costs("epyc-rome"), check_alignment=False)
    assert cpu.run().exit_code == 0


def test_conditional_jumps():
    instrs = [
        I(Op.MOV, Reg.RAX, Imm(5)),
        I(Op.CMP, Reg.RAX, Imm(10)),
        I(Op.JL, Imm(0)),  # taken
        I(Op.OUT, Imm(111)),  # skipped
        I(Op.OUT, Imm(222)),  # target
        I(Op.EXIT, Imm(0)),
    ]
    process, addresses = assemble(instrs)
    instrs[2].a = Imm(addresses[4])
    result = CPU(process, get_costs("epyc-rome")).run()
    assert result.output == [222]


def test_setcc():
    cpu, result, _ = run(
        [
            I(Op.MOV, Reg.RAX, Imm(-3)),
            I(Op.CMP, Reg.RAX, Imm(2)),
            I(Op.SETL, Reg.RBX),
            I(Op.OUT, Reg.RBX),
            I(Op.SETGE, Reg.RCX),
            I(Op.OUT, Reg.RCX),
            I(Op.EXIT, Imm(0)),
        ]
    )
    assert result.output == [1, 0]


def test_trap_raises_booby_trap():
    with pytest.raises(BoobyTrapTriggered):
        run([I(Op.TRAP)])


def test_vector_load_store_moves_32_bytes():
    instrs = [
        I(Op.MOV, Reg.RAX, Imm(DATA)),
        I(Op.VLOAD, Reg.YMM0, Mem(Reg.RAX)),
        I(Op.VSTORE, Mem(Reg.RSP, -32), Reg.YMM0),
        I(Op.VZEROUPPER),
        I(Op.MOV, Reg.RBX, Mem(Reg.RSP, -32 + 8)),
        I(Op.OUT, Reg.RBX),
        I(Op.EXIT, Imm(0)),
    ]
    process, _ = assemble(instrs)
    for i in range(4):
        process.memory.store_word_raw(DATA + 8 * i, 100 + i)
    result = CPU(process, get_costs("epyc-rome")).run()
    assert result.output == [101]


def test_callrt_dispatches_to_service():
    instrs = [
        I(Op.MOV, Reg.RDI, Imm(21)),
        I(Op.CALLRT, Imm(symbol="double")),
        I(Op.OUT, Reg.RAX),
        I(Op.EXIT, Imm(0)),
    ]
    process, _ = assemble(instrs)
    process.register_service("double", lambda proc, cpu: cpu.regs[Reg.RDI] * 2)
    result = CPU(process, get_costs("epyc-rome")).run()
    assert result.output == [42]


def test_unknown_service_raises():
    instrs = [I(Op.CALLRT, Imm(symbol="nope")), I(Op.EXIT, Imm(0))]
    process, _ = assemble(instrs)
    with pytest.raises(MachineError):
        CPU(process, get_costs("epyc-rome")).run()


def test_instruction_budget_enforced():
    instrs = [I(Op.JMP, Imm(0))]
    process, addresses = assemble(instrs)
    instrs[0].a = Imm(addresses[0])  # infinite loop
    cpu = CPU(process, get_costs("epyc-rome"), instruction_budget=100)
    with pytest.raises(ExecutionLimitExceeded):
        cpu.run()


def test_fetch_from_data_faults():
    instrs = [I(Op.JMP, Imm(DATA)), I(Op.EXIT, Imm(0))]
    process, _ = assemble(instrs)
    with pytest.raises(MachineError):
        CPU(process, get_costs("epyc-rome")).run()


def test_counters_and_cycles():
    cpu, result, _ = run(
        [
            I(Op.MOV, Reg.RAX, Imm(1)),
            I(Op.MOV, Reg.RBX, Imm(2)),
            I(Op.EXIT, Imm(0)),
        ]
    )
    assert result.instructions == 3
    assert result.cycles > 0
    assert result.icache_misses >= 1


def test_trace_fn_sees_every_instruction():
    seen = []
    instrs = [
        I(Op.MOV, Reg.RAX, Imm(1)),
        I(Op.EXIT, Imm(0)),
    ]
    process, _ = assemble(instrs)
    cpu = CPU(
        process,
        get_costs("epyc-rome"),
        trace_fn=lambda c, rip, ins: seen.append(ins.op),
    )
    cpu.run()
    assert seen == [Op.MOV, Op.EXIT]


def test_opcode_counting():
    process, _ = assemble(
        [I(Op.MOV, Reg.RAX, Imm(1)), I(Op.MOV, Reg.RBX, Imm(2)), I(Op.EXIT, Imm(0))]
    )
    cpu = CPU(process, get_costs("epyc-rome"), count_opcodes=True)
    result = cpu.run()
    assert result.opcode_counts[Op.MOV] == 2
    assert result.opcode_counts[Op.EXIT] == 1


def test_mem_operand_with_index_scale():
    instrs = [
        I(Op.MOV, Reg.RAX, Imm(DATA)),
        I(Op.MOV, Reg.RBX, Imm(2)),
        I(Op.MOV, Reg.RCX, Mem(Reg.RAX, 8, index=Reg.RBX, scale=8)),
        I(Op.OUT, Reg.RCX),
        I(Op.EXIT, Imm(0)),
    ]
    process, _ = assemble(instrs)
    process.memory.store_word_raw(DATA + 8 + 16, 777)
    result = CPU(process, get_costs("epyc-rome")).run()
    assert result.output == [777]
