"""Execution backends: the dispatch/execute stages of the pipeline.

Architectural state lives in :class:`~repro.machine.state.MachineState`;
a backend owns the interpretation loop and takes a *(program, state)*
pair.  ``prepare(state)`` resolves the program form the backend drives
for that state's process (cached per process where it costs anything);
``execute(program, state, res)`` runs the state from ``state.rip`` to
completion; ``step(program, state, res, max_steps)`` advances at most
``max_steps`` instructions and returns whether the program has halted —
the primitive under the debugger's single-stepping and the lockstep
MVEE's batched N-variant scheduling.

Two implementations ship, one oracle and one engine:

* :class:`ReferenceBackend` (``"reference"``) — the original monolithic
  interpreter loop, moved here verbatim.  Its program is the process's
  instruction index; it re-classifies operands and re-checks fetch
  permissions on every instruction and is the semantic baseline the
  engine is measured against.
* :class:`~repro.machine.jit.JitBackend` (``"jit"``) — the
  progressive-lowering engine (tier 0: this module's reference loop
  for cold spans; tier 1: block slices with superinstruction fusion,
  :mod:`repro.machine.blocks`; tier 2: one ``exec``-compiled Python
  function per block, :mod:`repro.machine.jit`).  Budget checks, cost
  folds, and i-cache accounting collapse into block prologs; anything
  the compiled form cannot express bit-identically deopts to the
  reference interpreter mid-run.

All backends must fill byte-identical :class:`ExecutionResult`\\ s —
same counters, same faults at the same ``rip``, same shadow-stack and
trace-hook behaviour.  Cycle accounting is carried in exact integer
units (``costs.CYCLE_UNIT`` units per cycle); because integer addition
is associative the grouping of the additions is immaterial — a backend
may charge per instruction, per ``step`` slice, or per folded basic
block and still land on the same total.  Float ``res.cycles`` is
*derived* from ``res.cycle_units`` at every flush (one exact division),
never accumulated in float, so a run advanced in arbitrary ``step``
slices accumulates, into one result, the exact bytes an uninterrupted
``execute`` produces.  The instruction budget counts
``res.instructions`` already accumulated — a fresh result reproduces
the historical per-call semantics bit-for-bit.
``tests/test_backends.py``, ``tests/test_state.py`` and the equivalence
suite hold them to all of this.
"""

from __future__ import annotations

from typing import Dict, Optional, Protocol

from repro.errors import (
    BoobyTrapTriggered,
    ExecutionLimitExceeded,
    InvalidInstruction,
    MachineError,
    ShadowStackViolation,
    StackMisaligned,
)
from repro.machine.costs import CYCLE_UNIT
from repro.machine.cpu import UNTAGGED_TAG
from repro.machine.isa import Imm, Mem, Op, Reg, VECTOR_WORDS, WORD
from repro.numeric import MASK64, to_signed, truncated_div

__all__ = [
    "ExecutionBackend",
    "ReferenceBackend",
    "BACKENDS",
    "DEFAULT_BACKEND",
    "available_backends",
    "get_backend",
    "register_backend",
]


class ExecutionBackend(Protocol):
    """A pluggable dispatch/execute stage over *(program, state)* pairs.

    ``prepare`` resolves a state's process into whatever program form the
    backend drives; ``execute`` runs from ``state.rip`` until EXIT or a
    fault, accumulating into ``res`` exactly like the reference loop
    (counters are flushed even when a fault propagates); ``step``
    advances at most ``max_steps`` instructions and returns True once
    the program has halted.
    """

    name: str

    def prepare(self, state):  # pragma: no cover - protocol signature
        ...

    def execute(self, program, state, res):  # pragma: no cover - protocol signature
        ...

    def step(self, program, state, res, max_steps: int):  # pragma: no cover
        ...

    def clone_program(self, program, state):  # pragma: no cover
        ...


class ReferenceBackend:
    """The original interpreter loop, preserved as the semantic baseline."""

    name = "reference"

    def prepare(self, state):
        """The reference program is the process's instruction index."""
        return state.process.instructions

    def clone_program(self, program, state):
        """Reference programs carry no per-process bindings; a "clone" is
        just the new state's own instruction index (free either way)."""
        return state.process.instructions

    def execute(self, program, state, res):
        self._drive(program, state, res, None)
        res.exit_code = state._exit_code
        state.process.exit_code = state._exit_code
        return res

    def step(self, program, state, res, max_steps: int) -> bool:
        if state._halted:
            return True
        self._drive(program, state, res, max_steps)
        if state._halted:
            res.exit_code = state._exit_code
            state.process.exit_code = state._exit_code
        return state._halted

    def _drive(self, program, cpu, res, max_steps: Optional[int]):
        # Local bindings for the hot loop.
        instructions = program
        op_units = cpu.costs.op_unit_costs
        mem_extra = cpu.costs.mem_operand_extra_units
        miss_penalty = cpu.costs.icache_miss_penalty_units
        icache_access = cpu.icache.access
        regs = cpu.regs
        memory = cpu.process.memory
        budget = cpu.instruction_budget - res.instructions
        count_ops = cpu.count_opcodes
        shadow = cpu.shadow_stack if cpu.shadow_stack_enabled else None
        attribute = cpu.attribute_tags
        tag_units = res.tag_cycle_units
        tag_counts = res.tag_counts

        remaining = max_steps
        executed = 0
        cycles = 0
        calls = 0
        rets = 0
        branches = 0
        taken = 0
        mem_ops = 0
        traps = 0

        try:
            while not cpu._halted:
                if remaining is not None:
                    if remaining == 0:
                        break
                    remaining -= 1
                rip = cpu.rip
                instr = instructions.get(rip)
                if instr is None:
                    memory.fetch_check(rip)
                    raise InvalidInstruction(f"no instruction at {rip:#x}")
                memory.fetch_check(rip, instr.size)

                executed += 1
                if executed > budget:
                    raise ExecutionLimitExceeded(
                        f"budget of {cpu.instruction_budget} instructions exceeded"
                    )

                if cpu.trace_fn is not None:
                    cpu.trace_fn(cpu, rip, instr)

                op = instr.op
                cost = op_units[op]
                misses = icache_access(rip, instr.size)
                if misses:
                    cost += misses * miss_penalty
                if isinstance(instr.a, Mem) or isinstance(instr.b, Mem):
                    cost += mem_extra
                    mem_ops += 1
                cycles += cost
                if attribute:
                    tag = instr.tag if instr.tag is not None else UNTAGGED_TAG
                    tag_units[tag] = tag_units.get(tag, 0) + cost
                    tag_counts[tag] = tag_counts.get(tag, 0) + 1
                if count_ops:
                    res.opcode_counts[op] = res.opcode_counts.get(op, 0) + 1

                next_rip = rip + instr.size

                if op is Op.MOV:
                    cpu._write_operand(instr.a, cpu._read_operand(instr.b))
                elif op is Op.PUSH:
                    rsp = (regs[Reg.RSP] - WORD) & MASK64
                    regs[Reg.RSP] = rsp
                    memory.write_word(rsp, cpu._read_operand(instr.a))
                elif op is Op.POP:
                    rsp = regs[Reg.RSP]
                    cpu._write_operand(instr.a, memory.read_word(rsp))
                    regs[Reg.RSP] = (rsp + WORD) & MASK64
                elif op is Op.ADD:
                    cpu._write_operand(
                        instr.a, cpu._read_operand(instr.a) + cpu._read_operand(instr.b)
                    )
                elif op is Op.SUB:
                    cpu._write_operand(
                        instr.a, cpu._read_operand(instr.a) - cpu._read_operand(instr.b)
                    )
                elif op is Op.IMUL:
                    cpu._write_operand(
                        instr.a,
                        to_signed(cpu._read_operand(instr.a)) * to_signed(cpu._read_operand(instr.b)),
                    )
                elif op is Op.IDIV:
                    divisor = to_signed(cpu._read_operand(instr.b))
                    if divisor == 0:
                        raise MachineError(f"division by zero at {rip:#x}")
                    dividend = to_signed(cpu._read_operand(instr.a))
                    cpu._write_operand(instr.a, truncated_div(dividend, divisor))
                elif op is Op.AND:
                    cpu._write_operand(
                        instr.a, cpu._read_operand(instr.a) & cpu._read_operand(instr.b)
                    )
                elif op is Op.OR:
                    cpu._write_operand(
                        instr.a, cpu._read_operand(instr.a) | cpu._read_operand(instr.b)
                    )
                elif op is Op.XOR:
                    cpu._write_operand(
                        instr.a, cpu._read_operand(instr.a) ^ cpu._read_operand(instr.b)
                    )
                elif op is Op.SHL:
                    cpu._write_operand(
                        instr.a, cpu._read_operand(instr.a) << (cpu._read_operand(instr.b) & 63)
                    )
                elif op is Op.SHR:
                    cpu._write_operand(
                        instr.a, (cpu._read_operand(instr.a) & MASK64) >> (cpu._read_operand(instr.b) & 63)
                    )
                elif op is Op.NEG:
                    cpu._write_operand(instr.a, -cpu._read_operand(instr.a))
                elif op is Op.LEA:
                    if not isinstance(instr.b, Mem):
                        raise InvalidInstruction("lea requires a memory operand")
                    cpu._write_operand(instr.a, cpu._mem_address(instr.b))
                elif op is Op.CMP:
                    cpu._cmp = to_signed(cpu._read_operand(instr.a)) - to_signed(
                        cpu._read_operand(instr.b)
                    )
                elif op is Op.TEST:
                    cpu._cmp = to_signed(
                        cpu._read_operand(instr.a) & cpu._read_operand(instr.b)
                    )
                elif op is Op.SETE:
                    cpu._write_operand(instr.a, 1 if cpu._cmp == 0 else 0)
                elif op is Op.SETNE:
                    cpu._write_operand(instr.a, 1 if cpu._cmp != 0 else 0)
                elif op is Op.SETL:
                    cpu._write_operand(instr.a, 1 if cpu._cmp < 0 else 0)
                elif op is Op.SETLE:
                    cpu._write_operand(instr.a, 1 if cpu._cmp <= 0 else 0)
                elif op is Op.SETG:
                    cpu._write_operand(instr.a, 1 if cpu._cmp > 0 else 0)
                elif op is Op.SETGE:
                    cpu._write_operand(instr.a, 1 if cpu._cmp >= 0 else 0)
                elif op is Op.JMP:
                    next_rip = cpu._branch_target(instr.a)
                    branches += 1
                    taken += 1
                elif op is Op.JE:
                    branches += 1
                    if cpu._cmp == 0:
                        next_rip = cpu._branch_target(instr.a)
                        taken += 1
                elif op is Op.JNE:
                    branches += 1
                    if cpu._cmp != 0:
                        next_rip = cpu._branch_target(instr.a)
                        taken += 1
                elif op is Op.JL:
                    branches += 1
                    if cpu._cmp < 0:
                        next_rip = cpu._branch_target(instr.a)
                        taken += 1
                elif op is Op.JLE:
                    branches += 1
                    if cpu._cmp <= 0:
                        next_rip = cpu._branch_target(instr.a)
                        taken += 1
                elif op is Op.JG:
                    branches += 1
                    if cpu._cmp > 0:
                        next_rip = cpu._branch_target(instr.a)
                        taken += 1
                elif op is Op.JGE:
                    branches += 1
                    if cpu._cmp >= 0:
                        next_rip = cpu._branch_target(instr.a)
                        taken += 1
                elif op is Op.CALL:
                    if cpu.check_alignment and regs[Reg.RSP] % 16 != 0:
                        raise StackMisaligned(
                            f"rsp={regs[Reg.RSP]:#x} not 16-byte aligned at call ({rip:#x})"
                        )
                    target = cpu._branch_target(instr.a)
                    rsp = (regs[Reg.RSP] - WORD) & MASK64
                    regs[Reg.RSP] = rsp
                    memory.write_word(rsp, next_rip)
                    if shadow is not None:
                        shadow.append(next_rip)
                    next_rip = target
                    calls += 1
                elif op is Op.RET:
                    rsp = regs[Reg.RSP]
                    next_rip = memory.read_word(rsp)
                    regs[Reg.RSP] = (rsp + WORD) & MASK64
                    if shadow is not None:
                        expected = shadow.pop() if shadow else 0
                        if expected != next_rip:
                            raise ShadowStackViolation(expected, next_rip)
                    rets += 1
                elif op is Op.NOP:
                    pass
                elif op is Op.TRAP:
                    traps += 1
                    raise BoobyTrapTriggered(rip)
                elif op is Op.VLOAD or op is Op.VLOAD512:
                    if not isinstance(instr.b, Mem):
                        raise InvalidInstruction("vload requires a memory source")
                    nbytes = WORD * (VECTOR_WORDS if op is Op.VLOAD else 2 * VECTOR_WORDS)
                    data = memory.read(cpu._mem_address(instr.b), nbytes)
                    cpu.vregs[instr.a - Reg.YMM0] = data
                elif op is Op.VSTORE or op is Op.VSTORE512:
                    if not isinstance(instr.a, Mem):
                        raise InvalidInstruction("vstore requires a memory destination")
                    memory.write(cpu._mem_address(instr.a), cpu.vregs[instr.b - Reg.YMM0])
                elif op is Op.VZEROUPPER:
                    pass
                elif op is Op.CALLRT:
                    if not isinstance(instr.a, Imm) or instr.a.symbol is None:
                        raise InvalidInstruction("callrt requires a service name")
                    fn = cpu.process.service(instr.a.symbol)
                    regs[Reg.RAX] = fn(cpu.process, cpu) & MASK64
                elif op is Op.OUT:
                    cpu.process.output.append(cpu._read_operand(instr.a))
                elif op is Op.EXIT:
                    cpu._exit_code = cpu._read_operand(instr.a) if instr.a is not None else 0
                    cpu._halted = True
                else:  # pragma: no cover - exhaustive over Op
                    raise InvalidInstruction(f"unimplemented opcode {op}")

                cpu.rip = next_rip
        finally:
            res.instructions += executed
            res.cycle_units += cycles
            res.cycles = res.cycle_units / CYCLE_UNIT
            if attribute and tag_units:
                res.tag_cycles = {tag: units / CYCLE_UNIT for tag, units in tag_units.items()}
            res.calls += calls
            res.rets += rets
            res.branches += branches
            res.branches_taken += taken
            res.mem_ops += mem_ops
            res.traps += traps
            res.icache_hits = cpu.icache.hits
            res.icache_misses = cpu.icache.misses
            res.output = cpu.process.output


DEFAULT_BACKEND = "reference"

BACKENDS: Dict[str, ExecutionBackend] = {
    "reference": ReferenceBackend(),
}


def available_backends():
    """Names of the registered execution backends, sorted."""
    return sorted(BACKENDS)


def get_backend(name: str) -> ExecutionBackend:
    """Look up a backend by name; raises MachineError for unknown names."""
    try:
        return BACKENDS[name]
    except KeyError:
        known = ", ".join(available_backends())
        raise MachineError(f"unknown execution backend {name!r} (have: {known})") from None


def register_backend(backend: ExecutionBackend) -> None:
    """Register a custom backend under ``backend.name``."""
    BACKENDS[backend.name] = backend


# The tier-2 block-compiling backend builds on ReferenceBackend, so it
# lives in its own module and registers here after the registry exists.
from repro.machine.jit import JitBackend as _JitBackend  # noqa: E402

register_backend(_JitBackend())
