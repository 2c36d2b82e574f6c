"""Property tests for :class:`MachineState` snapshot/restore.

The program/state split makes architectural state a first-class value:
``clone()`` captures it, ``restore()`` rewinds to it, and execution
resumed from a snapshot must be **byte-identical** to never having
stopped — same registers, same flags, same rip, same i-cache counters,
and the same accumulated :class:`ExecutionResult` (float ``cycles``
included, because each step slice folds onto the accumulated value in
the original order).

The generated programs are register-only and straight-line (plus a final
``EXIT``): process memory is deliberately *shared* between a state and
its clones (a snapshot is architectural, not a full core dump), so
memory-writing suffixes would legitimately re-apply their stores on
replay.  Register/flag state is exactly what the snapshot contract
covers, and what these properties pin down on both backends.
"""

from __future__ import annotations

import copy

from hypothesis import given, settings, strategies as st

from repro.machine.backends import get_backend
from repro.machine.costs import get_costs
from repro.machine.cpu import ExecutionResult
from repro.machine.isa import Imm, Instruction, Op, Reg
from repro.machine.state import MachineState

from tests.test_backends import BACKENDS, assemble

I = Instruction

#: Registers the generated programs may touch (caller-saved scratch).
_SCRATCH = (Reg.RAX, Reg.RBX, Reg.RCX, Reg.RDX, Reg.R8, Reg.R9)
#: Register-to-register / register-immediate ALU ops (no memory, no
#: control flow): their only effects are registers and the compare flag.
_ALU = (Op.MOV, Op.ADD, Op.SUB, Op.IMUL, Op.AND, Op.OR, Op.XOR)


@st.composite
def straightline_programs(draw):
    """A register-only straight-line program and a split point inside it."""
    count = draw(st.integers(min_value=1, max_value=24))
    instrs = []
    for _ in range(count):
        op = draw(st.sampled_from(_ALU + (Op.CMP,)))
        dst = draw(st.sampled_from(_SCRATCH))
        if draw(st.booleans()):
            src = Imm(draw(st.integers(min_value=-(2**16), max_value=2**16)))
        else:
            src = draw(st.sampled_from(_SCRATCH))
        instrs.append(I(op, dst, src))
    instrs.append(I(Op.EXIT, Imm(draw(st.integers(min_value=0, max_value=3)))))
    # Split strictly inside the run so both the prefix and the suffix are
    # non-trivial replays.
    split = draw(st.integers(min_value=1, max_value=len(instrs) - 1))
    return instrs, split


def _fresh(instrs, backend_name):
    process, _ = assemble(list(instrs))
    state = MachineState(process, get_costs("epyc-rome"))
    state.rip = process.entry_point
    state._halted = False
    backend = get_backend(backend_name)
    return backend, backend.prepare(state), state


@given(straightline_programs())
@settings(max_examples=40, deadline=None)
def test_resume_from_snapshot_is_byte_identical(case):
    instrs, split = case
    for backend_name in BACKENDS:
        # Uninterrupted run.
        backend, program, plain = _fresh(instrs, backend_name)
        plain_result = ExecutionResult()
        backend.execute(program, plain, plain_result)

        # Interrupted run: step to the split, snapshot, finish.
        backend, program, state = _fresh(instrs, backend_name)
        result = ExecutionResult()
        backend.step(program, state, result, split)
        snapshot = state.clone()
        result_at_split = copy.deepcopy(result)
        backend.step(program, state, result, 10**9)
        assert state.state_equal(plain), backend_name
        assert result == plain_result, backend_name

        # Rewind to the snapshot and resume: byte-identical again.
        state.restore(snapshot)
        resumed = copy.deepcopy(result_at_split)
        backend.step(program, state, resumed, 10**9)
        assert state.state_equal(plain), backend_name
        assert resumed == plain_result, backend_name

        # The snapshot survived both replays untouched.
        assert snapshot.rip != plain.rip or split == len(instrs) - 1
        assert not snapshot._halted


@given(straightline_programs())
@settings(max_examples=25, deadline=None)
def test_clone_isolates_architectural_state(case):
    """Running the original to completion never mutates a clone taken
    mid-flight (lists and i-cache are deep enough copies)."""
    instrs, split = case
    backend, program, state = _fresh(instrs, "jit")
    result = ExecutionResult()
    backend.step(program, state, result, split)
    snapshot = state.clone()
    before = (
        list(snapshot.regs),
        list(snapshot.vregs),
        snapshot.rip,
        snapshot._cmp,
        snapshot.icache.hits,
        snapshot.icache.misses,
    )
    backend.step(program, state, result, 10**9)
    after = (
        list(snapshot.regs),
        list(snapshot.vregs),
        snapshot.rip,
        snapshot._cmp,
        snapshot.icache.hits,
        snapshot.icache.misses,
    )
    assert before == after


def test_restore_supports_repeated_rewinds():
    """One snapshot can seed any number of replays (state_equal after
    each), e.g. for record/replay debugging over a lockstep divergence."""
    instrs = [
        I(Op.MOV, Reg.RAX, Imm(1)),
        I(Op.ADD, Reg.RAX, Reg.RAX),
        I(Op.IMUL, Reg.RAX, Imm(7)),
        I(Op.EXIT, Imm(0)),
    ]
    backend, program, state = _fresh(instrs, "reference")
    result = ExecutionResult()
    backend.step(program, state, result, 2)
    snapshot = state.clone()
    finals = []
    for _ in range(3):
        state.restore(snapshot)
        replay = ExecutionResult()
        backend.step(program, state, replay, 10**9)
        finals.append((list(state.regs), state.rip, state._exit_code))
    assert finals[0] == finals[1] == finals[2]
    assert finals[0][0][Reg.RAX] == 14
