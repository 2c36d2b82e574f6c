"""Tier 1 of the progressive-lowering pipeline: basic blocks + fusion.

The machine layer lowers guest code through three tiers:

* **tier 0** — the decoded, bound micro-op table
  (:class:`repro.machine.uops.BoundProgram`), the terminal form the
  ``fast`` backend drives directly;
* **tier 1** (this module) — a recovered basic-block CFG over the
  micro-op stream, with hot adjacent micro-ops fused into
  *superinstructions* (compare-and-branch pairs, push runs);
* **tier 2** (:mod:`repro.machine.jit`) — one ``exec``-compiled Python
  function per block, threaded together by direct jumps.

Tier 1's contract: block boundaries are **stable** — derived only from
addresses, sizes, and direct branch targets, all fixed at bind time —
and every block is a maximal straight-line run: entered only at its
head, left only at its final micro-op.  A block's *tier* records how far
down the pipeline it got: blocks whose every micro-op has a specialized
handler template lower to tier 2; blocks containing generic-fallback
handlers (symbolic immediates, indexed memory operands, malformed
operands) stay at tier 1 and execute on the *reference* interpreter via
the jit backend's deopt path.

Fusion never changes semantics, counters, or fault behaviour — a fused
pair still charges two instructions, two costs (in the reference float
order), and stores ``cpu._cmp`` for later SETcc readers.  What it
removes is re-materialization: the compare result forwards to its
branch in a local instead of round-tripping through machine state, and
a push run reads the stack pointer once.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.machine.isa import Op
from repro.machine.uops import GENERIC, BoundProgram, MicroOp, TERMINATOR_OPS

__all__ = [
    "BasicBlock",
    "BlockProgram",
    "recover_blocks",
    "fuse_blocks",
    "slice_block",
    "fuse_slice",
    "FUSABLE_COMPARES",
    "FUSABLE_BRANCHES",
]

#: First halves of a fused compare-and-branch superinstruction.
FUSABLE_COMPARES = frozenset({Op.CMP, Op.TEST})

#: Second halves: the conditional branches reading ``cpu._cmp``.
FUSABLE_BRANCHES = frozenset({Op.JE, Op.JNE, Op.JL, Op.JLE, Op.JG, Op.JGE})


class BasicBlock:
    """One recovered straight-line run of micro-ops."""

    __slots__ = ("bid", "addr", "uops", "tier", "fused", "reason")

    def __init__(self, bid: int, uops: List[MicroOp]):
        self.bid = bid
        self.addr = uops[0].rip
        self.uops = uops
        #: 2 when every micro-op lowered to compiled code, else 1.
        self.tier = 1
        #: Fusion annotations: (kind, first uop index, micro-op count).
        self.fused: List[Tuple[str, int, int]] = []
        #: Why the block stopped at tier 1 (None for tier-2 blocks).
        self.reason: Optional[str] = None

    def __len__(self) -> int:
        return len(self.uops)

    @property
    def end(self) -> int:
        """Address one past the last micro-op."""
        return self.uops[-1].next_rip

    @property
    def terminator(self) -> MicroOp:
        return self.uops[-1]

    def successors(self) -> List[Tuple[str, Optional[int]]]:
        """Static successor edges as (kind, address-or-None) pairs.

        ``None`` addresses are computed at run time (indirect jumps,
        returns).  Fall-through past a non-terminator block end (a
        straight-line block split by an incoming branch target) is a
        plain ``fall`` edge.
        """
        last = self.uops[-1]
        op = last.op
        target = last.target
        taken = target.rip if isinstance(target, MicroOp) else (
            target if isinstance(target, int) else None
        )
        if op is Op.JMP:
            return [("jump", taken)]
        if op in FUSABLE_BRANCHES:
            return [("taken", taken), ("fall", last.next_rip)]
        if op is Op.CALL:
            return [("call", taken), ("return-site", last.next_rip)]
        if op is Op.RET:
            return [("ret", None)]
        if op is Op.EXIT:
            return []
        if op is Op.TRAP:
            return [("trap", None)]
        # CALLRT and blocks split by an incoming edge fall through.
        return [("fall", last.next_rip)]


class BlockProgram:
    """The tier-1 form: a block list plus per-address lookup tables."""

    __slots__ = ("blocks", "by_addr", "steps_to_end", "bound")

    def __init__(self, blocks: List[BasicBlock], bound: BoundProgram):
        self.blocks = blocks
        self.bound = bound
        #: Block-head address -> block.
        self.by_addr: Dict[int, BasicBlock] = {b.addr: b for b in blocks}
        #: Any instruction address -> micro-op count from there through
        #: its block's terminator.  The jit driver uses this to run a
        #: mid-block entry (debugger resume, BTRA-displaced return) on
        #: the fast interpreter for *exactly* the residue of the block.
        self.steps_to_end: Dict[int, int] = {}
        for block in blocks:
            span = len(block.uops)
            for position, u in enumerate(block.uops):
                self.steps_to_end[u.rip] = span - position

    def stats(self) -> Dict[str, int]:
        tier2 = sum(1 for b in self.blocks if b.tier == 2)
        return {
            "blocks": len(self.blocks),
            "tier2_blocks": tier2,
            "tier1_blocks": len(self.blocks) - tier2,
            "superinstructions_fused": sum(len(b.fused) for b in self.blocks),
        }


def _is_generic(u: MicroOp) -> bool:
    """True when the micro-op fell back to its generic (reference-
    semantics) handler at bind time — the tier-2 disqualifier."""
    return u.handler is GENERIC.get(u.op)


def recover_blocks(
    program: BoundProgram,
    *,
    compilable: Optional[Callable[[MicroOp], bool]] = None,
) -> BlockProgram:
    """Recover the basic-block CFG of a bound program.

    Leaders are: the first micro-op, every direct branch target, and
    every instruction following a terminator.  Non-contiguous address
    runs (hand-assembled processes with gaps) also split, so the
    in-block invariant ``uops[k].next_u is uops[k+1]`` always holds.

    ``compilable`` decides per micro-op whether tier 2 can lower it
    (defaults to "has a specialized handler"); a block is tier 2 iff
    every micro-op qualifies.
    """
    order = program.order
    if compilable is None:
        compilable = lambda u: not _is_generic(u)  # noqa: E731
    leaders = set()
    if order:
        leaders.add(order[0].rip)
    for u in order:
        if isinstance(u.target, MicroOp):
            leaders.add(u.target.rip)
        if u.op in TERMINATOR_OPS and u.next_u is not None:
            leaders.add(u.next_rip)

    blocks: List[BasicBlock] = []
    current: List[MicroOp] = []

    def close() -> None:
        if current:
            blocks.append(BasicBlock(len(blocks), list(current)))
            current.clear()

    previous: Optional[MicroOp] = None
    for u in order:
        if current and (
            u.rip in leaders
            or previous is None
            or previous.next_u is not u
        ):
            close()
        current.append(u)
        previous = u
        if u.op in TERMINATOR_OPS:
            close()
            previous = None
    close()

    for block in blocks:
        bad = next((u for u in block.uops if not compilable(u)), None)
        if bad is None:
            block.tier = 2
        else:
            block.tier = 1
            block.reason = f"generic handler for {bad.op.name} at {bad.rip:#x}"
    fuse_blocks(blocks)
    return BlockProgram(blocks, program)


def slice_block(instructions, addr: int, limit: int = 256) -> List[tuple]:
    """The straight-line run from ``addr`` through its terminator.

    ``instructions`` is a process's decoded instruction index (address ->
    :class:`~repro.machine.isa.Instruction`).  The slice stops at the
    first :data:`TERMINATOR_OPS` member, at an address with no decoded
    instruction (the caller's fault path takes over), or at ``limit``
    instructions (a bound on single lowering units, not a semantic
    boundary — execution simply re-enters the pipeline at the cut).

    Unlike :func:`recover_blocks` this needs no leader analysis: the
    tier-2 promoter lowers the *dynamic* run from wherever control
    actually entered, so a BTRA-displaced landing mid-block gets its own
    slice rather than a misaligned CFG node.
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

    Same patterns and annotation format as :func:`fuse_blocks` —
    ``cmp+jcc`` forwarding and ``push-run`` sharing — computed from
    ``(address, instruction)`` pairs instead of bound micro-ops, so the
    tier-2 promoter can fuse lazily sliced blocks without a tier-0 bind.
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


def fuse_blocks(blocks: List[BasicBlock]) -> int:
    """Annotate fusable superinstructions in tier-2 blocks.

    Two patterns, both exploited by the tier-2 code generator:

    * ``cmp+jcc`` / ``test+jcc`` — the compare's result forwards to the
      branch in a local (the store to ``cpu._cmp`` still happens, since
      later SETcc micro-ops and snapshots read it);
    * ``push-run`` — N >= 2 consecutive register/immediate pushes share
      one stack-pointer read (each push still updates RSP *before* its
      store, so a faulting push mid-run leaves the exact interpreter
      state).

    Returns the number of superinstructions annotated.
    """
    fused = 0
    for block in blocks:
        block.fused = []
        if block.tier != 2:
            continue
        uops = block.uops
        count = len(uops)
        if (
            count >= 2
            and uops[-2].op in FUSABLE_COMPARES
            and uops[-1].op in FUSABLE_BRANCHES
        ):
            block.fused.append(("cmp+jcc", count - 2, 2))
        position = 0
        while position < count:
            if uops[position].op is Op.PUSH:
                run = position
                while run < count and uops[run].op is Op.PUSH:
                    run += 1
                if run - position >= 2:
                    block.fused.append(("push-run", position, run - position))
                position = run
            else:
                position += 1
        fused += len(block.fused)
    return fused
