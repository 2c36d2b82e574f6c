"""Tier 1 of the progressive-lowering pipeline: block slices + fusion.

The ``jit`` backend lowers guest code through three tiers:

* **tier 0** — the ``reference`` interpreter
  (:class:`repro.machine.backends.ReferenceBackend`), which runs cold
  spans straight off the process's instruction index;
* **tier 1** (this module) — the straight-line slice from a dynamic
  block head through its terminator (:func:`slice_block`), with adjacent
  instructions fused into *superinstructions* (compare-and-branch
  pairs, push runs; :func:`fuse_slice`);
* **tier 2** (:mod:`repro.machine.jit`) — one ``exec``-compiled Python
  function per slice, threaded together by direct jumps.

A slice is tier 2 when every instruction in it has a compiled lowering
(:func:`repro.machine.jit._classify`); slices containing generic-only
operand forms (symbolic immediates, indexed memory operands, malformed
operands) stay at tier 1 and execute on the reference interpreter via
the jit backend's deopt path.

Fusion never changes semantics, counters, or fault behaviour — a fused
pair still charges two instructions, two costs (in the reference float
order), and stores ``cpu._cmp`` for later SETcc readers.  What it
removes is re-materialization: the compare result forwards to its
branch in a local instead of round-tripping through machine state, and
a push run reads the stack pointer once.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.machine.isa import Imm, Mem, Op, Reg

__all__ = [
    "slice_block",
    "fuse_slice",
    "static_blocks",
    "TERMINATOR_OPS",
    "FUSABLE_COMPARES",
    "FUSABLE_BRANCHES",
]

#: First halves of a fused compare-and-branch superinstruction.
FUSABLE_COMPARES = frozenset({Op.CMP, Op.TEST})

#: Second halves: the conditional branches reading ``cpu._cmp``.
FUSABLE_BRANCHES = frozenset({Op.JE, Op.JNE, Op.JL, Op.JLE, Op.JG, Op.JGE})

#: Branch-family opcodes whose immediate operand is a static target.
_DIRECT_BRANCH_OPS = frozenset(
    {Op.JMP, Op.JE, Op.JNE, Op.JL, Op.JLE, Op.JG, Op.JGE, Op.CALL}
)

#: Opcodes that end a block: control transfers (taken or not), halts,
#: traps, and runtime-service calls (whose host code may remap pages,
#: invalidating fetch validation for whatever follows).
TERMINATOR_OPS = frozenset(
    {
        Op.JMP,
        Op.JE,
        Op.JNE,
        Op.JL,
        Op.JLE,
        Op.JG,
        Op.JGE,
        Op.CALL,
        Op.RET,
        Op.CALLRT,
        Op.EXIT,
        Op.TRAP,
    }
)


def _kind(operand) -> str:
    """Classify an operand for lowering (layout-independent)."""
    if operand is None:
        return "N"
    cls = operand.__class__
    if cls is Reg:
        return "R"
    if cls is Imm:
        return "I"
    if cls is Mem:
        if operand.index is not None:
            return "MX"
        return "MA" if operand.base is None else "MB"
    return "O"  # Label or malformed: only the reference path can run it


def slice_block(instructions, addr: int, limit: int = 256) -> List[tuple]:
    """The straight-line run from ``addr`` through its terminator.

    ``instructions`` is a process's decoded instruction index (address ->
    :class:`~repro.machine.isa.Instruction`).  The slice stops at the
    first :data:`TERMINATOR_OPS` member, at an address with no decoded
    instruction (the caller's fault path takes over), or at ``limit``
    instructions (a bound on single lowering units, not a semantic
    boundary — execution simply re-enters the pipeline at the cut).

    This needs no leader analysis: the tier-2 promoter lowers the
    *dynamic* run from wherever control actually entered, so a
    BTRA-displaced landing mid-block gets its own slice rather than a
    misaligned CFG node.
    """
    items = []
    get = instructions.get
    while len(items) < limit:
        instr = get(addr)
        if instr is None:
            break
        items.append((addr, instr))
        if instr.op in TERMINATOR_OPS:
            break
        addr += instr.size
    return items


def fuse_slice(items: List[tuple]) -> List[Tuple[str, int, int]]:
    """Superinstruction annotations for an instruction slice.

    ``items`` are ``(address, instruction)`` pairs; each annotation is
    ``(kind, first index, instruction count)``.  Two patterns, both
    exploited by the tier-2 code generator:

    * ``cmp+jcc`` / ``test+jcc`` — the compare's result forwards to the
      branch in a local (the store to ``cpu._cmp`` still happens, since
      later SETcc instructions and snapshots read it);
    * ``push-run`` — N >= 2 consecutive register/immediate pushes share
      one stack-pointer read (each push still updates RSP *before* its
      store, so a faulting push mid-run leaves the exact interpreter
      state).
    """
    fused: List[Tuple[str, int, int]] = []
    count = len(items)
    if (
        count >= 2
        and items[-2][1].op in FUSABLE_COMPARES
        and items[-1][1].op in FUSABLE_BRANCHES
    ):
        fused.append(("cmp+jcc", count - 2, 2))
    position = 0
    while position < count:
        if items[position][1].op is Op.PUSH:
            run = position
            while run < count and items[run][1].op is Op.PUSH:
                run += 1
            if run - position >= 2:
                fused.append(("push-run", position, run - position))
            position = run
        else:
            position += 1
    return fused


def static_blocks(instructions, limit: int = 256) -> Dict[int, List[tuple]]:
    """Partition an instruction index into static blocks, for display.

    Leaders are the first instruction, every direct branch or call
    target, and the instruction after each terminator.  Each block is
    the :func:`slice_block` run from its head, cut before the next
    leader; an address gap or a ``limit`` cut starts a new block where
    execution would re-enter the pipeline.  Returns head -> items, in
    address order.
    """
    addresses = sorted(instructions)
    leaders = set(addresses[:1])
    for addr in addresses:
        instr = instructions[addr]
        a = instr.a
        if instr.op in _DIRECT_BRANCH_OPS and a.__class__ is Imm and a.symbol is None:
            leaders.add(a.value)
        if instr.op in TERMINATOR_OPS:
            leaders.add(addr + instr.size)
    blocks: Dict[int, List[tuple]] = {}
    covered = set()
    for head in addresses:
        if head in covered:
            continue
        items = slice_block(instructions, head, limit)
        for position in range(1, len(items)):
            if items[position][0] in leaders:
                del items[position:]
                break
        covered.update(addr for addr, _ in items)
        blocks[head] = items
    return blocks
