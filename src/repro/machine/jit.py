"""Tier 2 of the progressive-lowering pipeline: lazy block compilation.

The ``jit`` backend executes nothing up front.  ``prepare`` is a cheap
handle around the process's instruction index; lowering happens *per
dynamic block head, on its second entry*:

* tier 1 — :func:`repro.machine.blocks.slice_block` recovers the
  straight-line run from the entry address through its terminator and
  :func:`~repro.machine.blocks.fuse_slice` annotates superinstructions
  (compare-and-branch forwarding, push runs);
* tier 2 — the slice compiles to one ``exec``-compiled Python function.
  Everything the interpreters re-derive per instruction is folded into
  the generated source: operand dispatch becomes specialized statements,
  per-instruction cycle charges fold into **one integer literal per
  block** (integer cycle units are associative —
  :data:`repro.machine.costs.CYCLE_UNIT`), i-cache accounting keeps only
  the genuinely uncertain probes (guaranteed intra-block hits are a baked
  constant, :func:`repro.machine.icache.block_line_plan`), and the
  instruction budget is one folded comparison in the block prolog.

Block functions thread by address: a function returns the next block
head as a non-negative ``int`` (register values are masked, so real
addresses never collide with escapes), ``None`` after EXIT, or the
bitwise complement ``~addr`` as a *deopt escape*.  The driver trampolines
between compiled functions through one dictionary lookup.

**The deopt contract.**  Anything compiled code cannot reproduce
*bit-identically* re-enters the reference interpreter mid-run with all
partial counters flushed first: cold code (fewer than two entries), slices
containing generic-only operand forms (negative-cached, interpreted
forever), stale fetch-permission epochs (prologs compare the per-block
validated epoch against the drive's mirror of
:attr:`Memory.perm_epoch`; the driver re-validates by fetch-checking the
slice and only then re-enters compiled code), budget or step-slice
exhaustion, and faults (compiled blocks charge an exact per-prefix
constant from a baked table, then re-raise with ``rip`` at the faulting
instruction).  Interpreter segments run block-granular spans on the
*reference* loop directly into the caller's result — exact, because all
cycle accounting is integer units.  A drive that starts with a trace
hook installed runs on the reference loop wholesale.  The differential
suite holds ``jit`` to byte-identical :class:`ExecutionResult`\\ s,
faults, ``rip``, counters, folded profiles, and lockstep divergence
points against ``reference``.

Compiled code objects are cached per (module fingerprint, config digest,
address-space layout, cost-model signature, accounting flags): lockstep
replicas of one image re-``exec`` shared code objects against their own
memory bindings instead of re-generating source
(:meth:`JitBackend.clone_program`).
"""

from __future__ import annotations

import sys
from typing import Dict, List, Optional, Tuple

from repro.errors import (
    BoobyTrapTriggered,
    MachineError,
    MemoryFault,
    ShadowStackViolation,
    StackMisaligned,
)
from repro.machine.blocks import (
    TERMINATOR_OPS,
    _DIRECT_BRANCH_OPS,
    _kind,
    fuse_slice,
    slice_block,
)
from repro.machine.costs import CYCLE_UNIT, costs_signature, fold_cost
from repro.machine.cpu import UNTAGGED_TAG
from repro.machine.icache import block_line_plan, line_span
from repro.machine.isa import Imm, Mem, Op, Reg
from repro.numeric import MASK64, to_signed, truncated_div

__all__ = [
    "JitBackend",
    "JitProgram",
    "JIT_STATS",
    "jit_stats_snapshot",
    "reset_jit_stats",
    "clear_jit_cache",
]

_RSP = int(Reg.RSP)
_YMM0 = int(Reg.YMM0)

#: Entries at one dynamic block head before it is lowered to tier 2.
_PROMOTE_THRESHOLD = 2

#: Upper bound on one lowering unit (not a semantic boundary: execution
#: re-enters the pipeline at the cut).
_SLICE_LIMIT = 256

#: Session-wide lowering/observability counters (reported by ``bench``).
#: The three ``trace*`` keys always read 0 (there is no trace tier); they
#: stay because ``perfbench/run.py --trace 1`` reads them.
JIT_STATS = {
    "programs": 0,
    "blocks_compiled": 0,
    "superinstructions_fused": 0,
    "deopts": 0,
    "code_cache_hits": 0,
    "traces_compiled": 0,
    "trace_guard_failures": 0,
    "traces_blacklisted": 0,
}


def jit_stats_snapshot() -> Dict[str, int]:
    return dict(JIT_STATS)


def reset_jit_stats() -> None:
    for key in JIT_STATS:
        JIT_STATS[key] = 0


# ---------------------------------------------------------------------------
# Tier-2 eligibility and per-instruction lowering records
# ---------------------------------------------------------------------------

#: Two-operand ALU result expressions ({a}/{b} are operand value exprs).
_ALU_EXPR = {
    Op.ADD: "({a} + {b})",
    Op.SUB: "({a} - {b})",
    Op.AND: "({a} & {b})",
    Op.OR: "({a} | {b})",
    Op.XOR: "({a} ^ {b})",
    Op.SHL: "({a} << ({b} & 63))",
    Op.SHR: "({a} >> ({b} & 63))",
    Op.IMUL: "(ts({a}) * ts({b}))",
}

#: ALU ops whose result cannot leave the 64-bit range when both operands
#: are in it (registers and memory words always are; immediates are
#: masked at classification) — the ``& M`` truncation is elided.
_NO_MASK_OPS = frozenset({Op.AND, Op.OR, Op.XOR, Op.SHR})

_SETCC_COND = {
    Op.SETE: "== 0",
    Op.SETNE: "!= 0",
    Op.SETL: "< 0",
    Op.SETLE: "<= 0",
    Op.SETG: "> 0",
    Op.SETGE: ">= 0",
}

_JCC_COND = {
    Op.JE: "== 0",
    Op.JNE: "!= 0",
    Op.JL: "< 0",
    Op.JLE: "<= 0",
    Op.JG: "> 0",
    Op.JGE: ">= 0",
}

_VBYTES = {Op.VLOAD: 32, Op.VLOAD512: 64, Op.VSTORE: 32, Op.VSTORE512: 64}

#: Opcodes whose generated statements can raise (memory access, division,
#: alignment/shadow checks, traps, host services).  Slices containing none
#: of these (and no memory operands) compile without a try/except wrapper.
_FAULTABLE = {
    Op.IDIV,
    Op.PUSH,
    Op.POP,
    Op.CALL,
    Op.RET,
    Op.TRAP,
    Op.CALLRT,
    Op.VLOAD,
    Op.VLOAD512,
    Op.VSTORE,
    Op.VSTORE512,
}

_MOV_FORMS = {
    ("R", "R"), ("R", "I"), ("R", "MB"), ("R", "MA"),
    ("MB", "R"), ("MA", "R"), ("MB", "I"), ("MA", "I"),
}
_ALU_FORMS = {
    ("R", "R"), ("R", "I"), ("R", "MB"), ("R", "MA"),
    ("MB", "R"), ("MB", "I"),
}
_CMP_FORMS = {("R", "R"), ("R", "I"), ("R", "MB"), ("MB", "R"), ("MB", "I")}


class _JU:
    """One instruction's lowering record: operand kinds pre-classified,
    immediates masked, memory recipes extracted."""

    __slots__ = (
        "rip", "next_rip", "size", "op", "tag", "ka", "kb",
        "a_reg", "b_reg", "imm", "a_base", "a_off", "b_base", "b_off",
        "sym", "has_mem", "target",
    )


def _supported(op: Op, ka: str, kb: str) -> bool:
    """Tier-2 eligibility for one (opcode, operand-kind) combination."""
    if op is Op.MOV:
        return (ka, kb) in _MOV_FORMS
    if op in _ALU_EXPR:
        return (ka, kb) in _ALU_FORMS
    if op is Op.LEA:
        return (ka, kb) in {("R", "MB"), ("R", "MA")}
    if op is Op.PUSH:
        return ka in ("R", "I")
    if op is Op.EXIT:
        return ka in ("R", "I", "N")
    if op is Op.POP or op is Op.NEG or op in _SETCC_COND:
        return ka == "R"
    if op is Op.IDIV:
        return ka == "R" and kb in ("R", "I")
    if op is Op.CMP:
        return (ka, kb) in _CMP_FORMS
    if op is Op.TEST:
        return (ka, kb) in {("R", "R"), ("R", "I")}
    if op is Op.JMP or op is Op.CALL:
        return ka in ("R", "I")
    if op in _JCC_COND:
        return ka == "I"
    if op in (Op.RET, Op.NOP, Op.TRAP, Op.VZEROUPPER):
        return True
    if op in (Op.VLOAD, Op.VLOAD512):
        return ka == "R" and kb in ("MB", "MA")
    if op in (Op.VSTORE, Op.VSTORE512):
        return ka in ("MB", "MA") and kb == "R"
    if op is Op.OUT:
        return ka in ("R", "I")
    return False


def _classify(addr: int, instr) -> Optional[_JU]:
    """Lower one instruction to a :class:`_JU`, or None when only the
    generic (reference-semantics) path can run it."""
    a, b = instr.a, instr.b
    op = instr.op
    # Unresolved symbolic immediates (outside CALLRT) must fault through
    # the reference operand path.
    if (
        isinstance(a, Imm) and a.symbol is not None and op is not Op.CALLRT
    ) or (isinstance(b, Imm) and b.symbol is not None):
        return None
    ka, kb = _kind(a), _kind(b)
    if op is Op.CALLRT:
        if not (isinstance(a, Imm) and a.symbol is not None):
            return None
    elif not _supported(op, ka, kb):
        return None
    ju = _JU()
    ju.rip = addr
    ju.size = instr.size
    ju.next_rip = addr + instr.size
    ju.op = op
    ju.tag = instr.tag
    ju.ka = ka
    ju.kb = kb
    ju.a_reg = int(a) if isinstance(a, Reg) else 0
    ju.b_reg = int(b) if isinstance(b, Reg) else 0
    if isinstance(b, Imm) and b.symbol is None:
        ju.imm = b.value & MASK64
    elif isinstance(a, Imm) and a.symbol is None:
        ju.imm = a.value & MASK64
    else:
        ju.imm = 0
    if isinstance(a, Mem):
        ju.a_base = None if a.base is None else int(a.base)
        ju.a_off = a.offset & MASK64 if a.base is None else a.offset
    else:
        ju.a_base = None
        ju.a_off = 0
    if isinstance(b, Mem):
        ju.b_base = None if b.base is None else int(b.base)
        ju.b_off = b.offset & MASK64 if b.base is None else b.offset
    else:
        ju.b_base = None
        ju.b_off = 0
    ju.has_mem = isinstance(a, Mem) or isinstance(b, Mem)
    ju.sym = a.symbol if isinstance(a, Imm) else None
    ju.target = ju.imm if (op in _DIRECT_BRANCH_OPS or op in _JCC_COND) and ka == "I" else None
    return ju


def _faultable(ju: _JU) -> bool:
    return ju.op in _FAULTABLE or ju.has_mem


def _mem_addr_expr(off: int, base: Optional[int]) -> str:
    if base is None:
        return repr(off)
    return f"({off!r} + r[{base}]) & M"


def _sx(expr: str) -> str:
    """Sign-extend a masked 64-bit expression inline (branchless
    ``to_signed``).  Only safe for side-effect-free expressions — the
    operand is evaluated twice."""
    return f"({expr} - (({expr} >> 63) << 64))"


def _fault_lineno() -> int:
    """Line (in the handling frame — the generated block function) where
    the in-flight exception was raised.

    The fault-attribution mechanism: instead of maintaining an ``I =
    <rip>`` bookkeeping local before every faultable instruction — pure
    happy-path overhead — the generated except handler maps the faulting
    *source line* back to its instruction address through a baked
    line-number table.  The traceback's first entry is always the handling
    frame with ``tb_lineno`` at the offending statement, whether the
    exception was raised by a nested call (memory accessors, runtime
    services) or by an inline ``raise``.
    """
    return sys.exc_info()[2].tb_lineno


def _text_fits_icache(instructions, costs) -> bool:
    """True when the program's whole text maps at most ``ways`` distinct
    lines into every i-cache set.

    Under that bound **no eviction can ever occur** — a set never grows
    past its capacity — so LRU recency is unobservable and every probe
    reduces to first-touch membership: a line misses exactly once per
    process lifetime and hits forever after.  The compiled-code prober and
    codegen exploit this (``monotone`` mode): probes skip the LRU
    ``move_to_end``/eviction mutations, and a block that has run its
    probes once to completion marks itself in ``PD`` and skips them on
    every later execution — they are all guaranteed hits with no state
    change.  The interpreter's exact-LRU probes interoperate: its
    ``move_to_end`` calls are no-ops for observability when nothing ever
    evicts.
    """
    num_sets = costs.icache_size // (costs.icache_line * costs.icache_ways)
    ways = costs.icache_ways
    line_size = costs.icache_line
    seen = set()
    per_set: Dict[int, int] = {}
    for addr, instr in instructions.items():
        for line in line_span(addr, instr.size, line_size):
            if line not in seen:
                seen.add(line)
                index = line % num_sets
                count = per_set.get(index, 0) + 1
                if count > ways:
                    return False
                per_set[index] = count
    return True


def _make_probers(ways: int, monotone: bool):
    """(probe_one, probe_many) i-cache probe helpers for generated code,
    returning the miss count.  Bound per program so ``ways`` is a closure
    constant.

    The exact variants mirror :meth:`ICache.access`'s set mutation order;
    the ``monotone`` variants (text fits the cache, see
    :func:`_text_fits_icache`) skip the unobservable LRU maintenance —
    membership insert on miss only."""

    if monotone:

        def probe_one(sets, index, line):
            entry = sets[index]
            if line in entry:
                return 0
            entry[line] = True
            return 1

        def probe_many(sets, pairs):
            misses = 0
            for index, line in pairs:
                entry = sets[index]
                if line not in entry:
                    misses += 1
                    entry[line] = True
            return misses

        return probe_one, probe_many

    def probe_one(sets, index, line):
        entry = sets[index]
        if line in entry:
            entry.move_to_end(line)
            return 0
        entry[line] = True
        if len(entry) > ways:
            entry.popitem(last=False)
        return 1

    def probe_many(sets, pairs):
        misses = 0
        for index, line in pairs:
            entry = sets[index]
            if line in entry:
                entry.move_to_end(line)
            else:
                misses += 1
                entry[line] = True
                if len(entry) > ways:
                    entry.popitem(last=False)
        return misses

    return probe_one, probe_many


# ---------------------------------------------------------------------------
# Code generation
# ---------------------------------------------------------------------------


class _SliceCompiler:
    """Generates the source of one block function.

    Two accounting strategies share the semantics emitter:

    * **lean** (no tag attribution, no opcode counting — the hot
      configuration): per-instruction instruction counts, cycle charges,
      guaranteed i-cache hits, and memory-op counts fold into *static
      integer constants* accumulated at codegen time.  The generated body
      carries only the genuinely dynamic parts — LRU probes for lines not
      guaranteed resident (hits ``h``, misses ``m``, penalty units
      ``pu``) — and the terminator flush charges ``K + pu`` in one
      statement.  Faults restore the exact executed prefix from a baked
      per-block table keyed by faulting ``rip``.
    * **rich** (attribution and/or opcode counts): per-instruction
      charges are emitted inline in the interpreters' order, with integer
      unit literals, per-tag dict updates, and per-opcode counts.
    """

    def __init__(self, addr: int, items, jus: List[_JU], fused, costs,
                 attribute: bool, count_ops: bool, monotone: bool = False):
        self.addr = addr
        self.jus = jus
        self.costs = costs
        self.attribute = attribute
        self.count_ops = count_ops
        self.rich = attribute or count_ops
        #: Text fits the i-cache (see :func:`_text_fits_icache`): lean
        #: probes are first-touch-only and skippable once the block has
        #: probed to completion.  Rich mode keeps inline exact probes.
        self.monotone = monotone and not self.rich
        self.num_sets = costs.icache_size // (costs.icache_line * costs.icache_ways)
        self.ways = costs.icache_ways
        self.penalty = costs.icache_miss_penalty_units
        self.lines: List[str] = []
        self.needs_try = any(_faultable(j) for j in jus)
        self.indent = "        " if self.needs_try else "    "
        self.fused_cmp = any(kind == "cmp+jcc" for kind, _, _ in fused)
        self.push_runs = {start: count for kind, start, count in fused if kind == "push-run"}
        self._run_positions = set()
        for start, count in self.push_runs.items():
            self._run_positions.update(range(start + 1, start + count))
        self.plan = block_line_plan([(a, i.size) for a, i in items], costs.icache_line)
        self.has_probe = any(must for probes in self.plan for _, must in probes)
        self.has_mem_any = any(j.has_mem for j in jus)
        self.used_shadow = any(j.op in (Op.CALL, Op.RET) for j in jus)
        # Lean-mode static accumulators and the per-prefix fault table.
        self.stat_x = 0
        self.stat_k = 0
        self.stat_g = 0
        self.stat_o = 0
        self.stat_p = 0
        self._pending: List[Tuple[int, int]] = []
        self.xb: Dict[int, Tuple[int, int, int, int, int]] = {}
        # Fault attribution: every emitted line is tagged with the rip of
        # the faultable instruction a fault on it attributes to (pure
        # lines attribute to the most recent faultable — identical to the
        # old ``I = <rip>`` bookkeeping, without its happy-path cost).
        # The except handler recovers the rip from the faulting line
        # number via a baked table (see :func:`_fault_lineno`).
        self._line_rip: List[int] = []
        self._ctx_rip = next((j.rip for j in jus if _faultable(j)), 0)
        # Rich-mode used flags (mirror the per-instruction emitter).
        self.used_miss = False
        self.used_mem = False

    # -- helpers -----------------------------------------------------------

    def emit(self, line: str) -> None:
        self.lines.append(self.indent + line)
        self._line_rip.append(self._ctx_rip)

    def flush_probes(self) -> None:
        """Emit the pending LRU probe batch (lean mode).

        Probes of consecutive non-faultable instructions batch into one
        generated statement: nothing between two faultable statements can
        observe i-cache state, so running the probes back-to-back at the
        next possible fault point (or the terminator) is indistinguishable
        from the interpreter's per-fetch interleaving — and it keeps the
        generated source (whose ``compile()`` time is the dominant cost of
        a cold cell) an order of magnitude smaller than inline probes.
        """
        pending = self._pending
        if not pending:
            return
        # Monotone mode: once this block has probed to completion (the
        # ``PD`` mark before its terminator), every later probe is a
        # guaranteed hit with no state change — skip the calls outright.
        guard = "if not f: " if self.monotone else ""
        if len(pending) == 1:
            index, line = pending[0]
            self.emit(f"{guard}m += PRB1(S, {index}, {line})")
        else:
            pairs = ", ".join(f"({index}, {line})" for index, line in pending)
            self.emit(f"{guard}m += PRB(S, ({pairs}))")
        self.stat_p += len(pending)
        pending.clear()

    def flush_stmts(self) -> List[str]:
        out = ["C[0] = n"]
        if self.rich:
            out.append("C[3] += h")
            if self.used_miss:
                out.append("C[4] += m")
            if self.used_mem:
                out.append("C[2] += o")
        else:
            if self.has_probe:
                out.append(f"C[1] += {self.stat_k} + m * {self.penalty}")
                out.append(f"C[3] += {self.stat_g + self.stat_p} - m")
                out.append("C[4] += m")
            else:
                out.append(f"C[1] += {self.stat_k}")
                if self.stat_g:
                    out.append(f"C[3] += {self.stat_g}")
            if self.stat_o:
                out.append(f"C[2] += {self.stat_o}")
        return out

    def emit_flush_and(self, tail: str) -> None:
        for stmt in self.flush_stmts():
            self.emit(stmt)
        self.emit(tail)

    # -- inlined memory word access (lean mode) ----------------------------
    #
    # The single hottest thing compiled code does is call
    # ``Memory.read_word``/``write_word``.  Lean blocks inline the aligned
    # single-page fast path instead: ``RMG``/``WMG`` are bound ``dict.get``
    # methods over the memory's word-view maps (page base -> 64-bit
    # memoryview, present iff the page is materialized and currently
    # grants the permission — see :class:`repro.machine.memory.Memory`),
    # so a hit licenses one indexed view access outright.  Every miss —
    # unaligned, unmaterialized, unmapped, protected, guard, big-endian
    # host — falls back to the accessor call, which reproduces the exact
    # behaviour including the fault, from a line the ``LN`` table
    # attributes to the same instruction.  Rich mode keeps plain calls
    # (observability runs are not the hot configuration).

    def emit_load_q(self, target: str, qvar: str) -> None:
        """``target = read_word(qvar)`` with the aligned path inline."""
        if self.rich:
            self.emit(f"{target} = RW({qvar})")
            return
        self.emit(f"z = {qvar} & 4095")
        self.emit(f"u = RMG({qvar} - z)")
        self.emit(f"{target} = u[z >> 3] if u is not None and not z & 7 else RW({qvar})")

    def emit_load(self, target: str, off: int, base: Optional[int]) -> None:
        """``target = read_word(off [+ r[base]])``; absolute addresses fold
        the page split and alignment test at codegen time."""
        if self.rich:
            self.emit(f"{target} = RW({_mem_addr_expr(off, base)})")
            return
        if base is None:
            z = off & 4095
            if not z & 7:
                self.emit(f"u = RMG({off - z})")
                self.emit(f"{target} = u[{z >> 3}] if u is not None else RW({off!r})")
            else:
                self.emit(f"{target} = RW({off!r})")
            return
        self.emit(f"q = ({off!r} + r[{base}]) & M")
        self.emit_load_q(target, "q")

    def emit_store_q(self, qvar: str, value: str) -> None:
        """``write_word(qvar, value)`` with the aligned path inline.
        ``value`` must be side-effect-free and already 64-bit masked (all
        register values, classified immediates, and masked ALU results
        are; the word view raises on out-of-range stores)."""
        if self.rich:
            self.emit(f"WW({qvar}, {value})")
            return
        self.emit(f"z = {qvar} & 4095")
        self.emit(f"u = WMG({qvar} - z)")
        self.emit(f"if u is None or z & 7: WW({qvar}, {value})")
        self.emit(f"else: u[z >> 3] = {value}")

    def emit_store(self, off: int, base: Optional[int], value: str) -> None:
        if self.rich:
            self.emit(f"WW({_mem_addr_expr(off, base)}, {value})")
            return
        if base is None:
            z = off & 4095
            if not z & 7:
                self.emit(f"u = WMG({off - z})")
                self.emit(f"if u is None: WW({off!r}, {value})")
                self.emit(f"else: u[{z >> 3}] = {value}")
            else:
                self.emit(f"WW({off!r}, {value})")
            return
        self.emit(f"q = ({off!r} + r[{base}]) & M")
        self.emit_store_q("q", value)

    # -- accounting --------------------------------------------------------

    def account_lean(self, position: int, ju: _JU) -> None:
        for line, must_probe in self.plan[position]:
            if not must_probe:
                self.stat_g += 1
                continue
            self._pending.append((line % self.num_sets, line))
        self.stat_x += 1
        self.stat_k += fold_cost(self.costs, ju.op, 0, ju.has_mem)
        if ju.has_mem:
            self.stat_o += 1
        if self.needs_try and _faultable(ju):
            # A fault at this instruction must observe exactly the probes
            # of instructions up to and including it — flush the batch now.
            self.flush_probes()
            self.xb[ju.rip] = (
                self.stat_x, self.stat_k, self.stat_g, self.stat_o, self.stat_p,
            )
            self._ctx_rip = ju.rip

    def account_rich(self, position: int, ju: _JU) -> None:
        if self.needs_try:
            self.emit("x += 1")
        probes = self.plan[position]
        max_miss = sum(1 for entry in probes if entry[1])
        k = [
            repr(fold_cost(self.costs, ju.op, misses, ju.has_mem))
            for misses in range(max_miss + 1)
        ]
        charge = "w = {0}" if self.attribute else "C[1] += {0}"
        if max_miss == 0:
            for _ in probes:
                self.emit("h += 1")
            self.emit(charge.format(k[0]))
        elif len(probes) == 1:
            line = probes[0][0]
            self.used_miss = True
            self.emit(f"e = S[{line % self.num_sets}]")
            self.emit(f"if {line} in e:")
            self.emit(f"    e.move_to_end({line}); h += 1; " + charge.format(k[0]))
            self.emit("else:")
            self.emit(f"    m += 1; e[{line}] = True")
            self.emit(f"    if len(e) > {self.ways}: e.popitem(last=False)")
            self.emit("    " + charge.format(k[1]))
        else:
            # Multi-line fetch with at least one real probe: count misses.
            self.used_miss = True
            self.emit("ms = 0")
            for line, must_probe in probes:
                if not must_probe:
                    self.emit("h += 1")
                    continue
                self.emit(f"e = S[{line % self.num_sets}]")
                self.emit(f"if {line} in e:")
                self.emit(f"    e.move_to_end({line}); h += 1")
                self.emit("else:")
                self.emit(f"    ms += 1; m += 1; e[{line}] = True")
                self.emit(f"    if len(e) > {self.ways}: e.popitem(last=False)")
            self.emit(charge.format(f"({', '.join(k)})[ms]"))
        if ju.has_mem:
            self.used_mem = True
            self.emit("o += 1")
        if self.attribute:
            tag = repr(ju.tag if ju.tag is not None else UNTAGGED_TAG)
            self.emit("C[1] += w")
            self.emit(f"d = C[7]; d[{tag}] = d.get({tag}, 0) + w")
            self.emit(f"d = C[8]; d[{tag}] = d.get({tag}, 0) + 1")
        if self.count_ops:
            name = f"OP_{ju.op.name}"
            self.emit(f"d = C[9]; d[{name}] = d.get({name}, 0) + 1")
        if self.needs_try and _faultable(ju):
            self._ctx_rip = ju.rip

    # -- semantics ---------------------------------------------------------

    def a_val(self, ju: _JU) -> str:
        if ju.ka == "R":
            return f"r[{ju.a_reg}]"
        if ju.ka == "I":
            return repr(ju.imm)
        raise AssertionError(ju.ka)

    def b_val(self, ju: _JU) -> str:
        kb = ju.kb
        if kb == "R":
            return f"r[{ju.b_reg}]"
        if kb == "I":
            return repr(ju.imm)
        if kb == "MB":
            return f"RW({_mem_addr_expr(ju.b_off, ju.b_base)})"
        if kb == "MA":
            return f"RW({ju.b_off!r})"
        raise AssertionError(kb)

    def emit_semantics(self, position: int, ju: _JU) -> None:
        op = ju.op
        ka, kb = ju.ka, ju.kb
        if op is Op.MOV:
            if ka == "R":
                if kb in ("MB", "MA"):
                    self.emit_load(f"r[{ju.a_reg}]", ju.b_off, ju.b_base)
                else:
                    self.emit(f"r[{ju.a_reg}] = {self.b_val(ju)}")
            else:
                self.emit_store(ju.a_off, ju.a_base, self.b_val(ju))
        elif op in _ALU_EXPR:
            expr = _ALU_EXPR[op]
            if ka == "R":
                if kb in ("MB", "MA"):
                    self.emit_load("y", ju.b_off, ju.b_base)
                    bexpr = "y"
                else:
                    bexpr = self.b_val(ju)
                if op is Op.IMUL:
                    # Inline sign extension for register/loaded operands;
                    # fold it entirely for immediates.
                    sa = _sx(f"r[{ju.a_reg}]")
                    sb = repr(to_signed(ju.imm)) if kb == "I" else _sx(bexpr)
                    body = f"({sa} * {sb})"
                else:
                    body = expr.format(a=f"r[{ju.a_reg}]", b=bexpr)
                mask = "" if op in _NO_MASK_OPS else " & M"
                self.emit(f"r[{ju.a_reg}] = {body}{mask}")
            else:  # MB destination: read-modify-write one address
                self.emit(f"q = {_mem_addr_expr(ju.a_off, ju.a_base)}")
                self.emit_load_q("y", "q")
                body = expr.format(a="y", b=self.b_val(ju))
                mask = "" if op in _NO_MASK_OPS else " & M"
                self.emit(f"y = {body}{mask}")
                self.emit_store_q("q", "y")
        elif op is Op.LEA:
            if kb == "MB":
                self.emit(f"r[{ju.a_reg}] = {_mem_addr_expr(ju.b_off, ju.b_base)}")
            else:
                self.emit(f"r[{ju.a_reg}] = {ju.b_off!r}")
        elif op is Op.PUSH:
            if position in self._run_positions:
                # Inside a fused push run: `p` already holds RSP.
                self.emit("p = (p - 8) & M")
            else:
                self.emit(f"p = (r[{_RSP}] - 8) & M")
            self.emit(f"r[{_RSP}] = p")
            self.emit_store_q("p", self.a_val(ju))
        elif op is Op.POP:
            self.emit(f"p = r[{_RSP}]")
            self.emit_load_q(f"r[{ju.a_reg}]", "p")
            self.emit(f"r[{_RSP}] = (p + 8) & M")
        elif op is Op.IDIV:
            if kb == "R":
                self.emit(f"dv = ts(r[{ju.b_reg}])")
                self.emit("if dv == 0:")
                self.emit(f"    raise ME('division by zero at {ju.rip:#x}')")
                self.emit(f"r[{ju.a_reg}] = td(ts(r[{ju.a_reg}]), dv) & M")
            else:
                divisor = to_signed(ju.imm)
                if divisor == 0:
                    self.emit(f"raise ME('division by zero at {ju.rip:#x}')")
                else:
                    self.emit(f"r[{ju.a_reg}] = td(ts(r[{ju.a_reg}]), {divisor!r}) & M")
        elif op is Op.NEG:
            self.emit(f"r[{ju.a_reg}] = (-r[{ju.a_reg}]) & M")
        elif op is Op.CMP or op is Op.TEST:
            if op is Op.CMP:
                # At most one operand is memory (_CMP_FORMS); load it into
                # a local first so sign extension can inline.
                if ka == "R":
                    lhs = _sx(f"r[{ju.a_reg}]")
                else:
                    self.emit_load("y", ju.a_off, ju.a_base)
                    lhs = _sx("y")
                if kb == "I":
                    rhs = repr(to_signed(ju.imm))
                elif kb == "R":
                    rhs = _sx(f"r[{ju.b_reg}]")
                else:
                    self.emit_load("y", ju.b_off, ju.b_base)
                    rhs = _sx("y")
                value = f"{lhs} - {rhs}"
            else:
                value = _sx(f"(r[{ju.a_reg}] & {self.b_val(ju)})")
            if self.fused_cmp and position == len(self.jus) - 2:
                self.emit(f"w_ = {value}")
                self.emit("cpu._cmp = w_")
            else:
                self.emit(f"cpu._cmp = {value}")
        elif op in _SETCC_COND:
            self.emit(f"r[{ju.a_reg}] = 1 if cpu._cmp {_SETCC_COND[op]} else 0")
        elif op in (Op.VLOAD, Op.VLOAD512):
            nbytes = _VBYTES[op]
            addr = _mem_addr_expr(ju.b_off, ju.b_base) if kb == "MB" else repr(ju.b_off)
            self.emit(f"cpu.vregs[{ju.a_reg - _YMM0}] = RD({addr}, {nbytes})")
        elif op in (Op.VSTORE, Op.VSTORE512):
            addr = _mem_addr_expr(ju.a_off, ju.a_base) if ka == "MB" else repr(ju.a_off)
            self.emit(f"WR({addr}, cpu.vregs[{ju.b_reg - _YMM0}])")
        elif op is Op.OUT:
            self.emit(f"OA({self.a_val(ju)})")
        elif op in (Op.NOP, Op.VZEROUPPER):
            pass
        else:  # pragma: no cover - terminators handled by emit_terminator
            raise AssertionError(f"unexpected straight-line op {op}")

    def emit_terminator(self, ju: _JU) -> None:
        op = ju.op
        if op is Op.EXIT:
            ka = ju.ka
            value = repr(ju.imm) if ka == "I" else (f"r[{ju.a_reg}]" if ka == "R" else "0")
            self.emit(f"cpu._exit_code = {value}")
            self.emit("cpu._halted = True")
            self.emit(f"cpu.rip = {ju.next_rip}")
            self.emit_flush_and("return None")
        elif op is Op.TRAP:
            self.emit("cpu._bk_traps += 1")
            self.emit(f"raise BTT({ju.rip})")
        elif op is Op.JMP:
            self.emit("cpu._bk_branches += 1")
            self.emit("cpu._bk_taken += 1")
            if ju.ka == "R":
                self.emit_flush_and(f"return r[{ju.a_reg}]")
            else:
                self.emit_flush_and(f"return {ju.target}")
        elif op in _JCC_COND:
            cond = _JCC_COND[op]
            value = "w_" if self.fused_cmp else "cpu._cmp"
            self.emit("cpu._bk_branches += 1")
            self.emit(f"if {value} {cond}:")
            self.emit("    cpu._bk_taken += 1")
            for stmt in self.flush_stmts():
                self.emit("    " + stmt)
            self.emit(f"    return {ju.target}")
            self.emit_flush_and(f"return {ju.next_rip}")
        elif op is Op.CALL:
            self.emit(f"if cpu.check_alignment and r[{_RSP}] % 16 != 0:")
            self.emit(
                "    raise SM('rsp=%#x not 16-byte aligned at call "
                f"({ju.rip:#x})' % r[{_RSP}])"
            )
            indirect = ju.ka == "R"
            if indirect:
                self.emit(f"tv = r[{ju.a_reg}]")
            self.emit(f"p = (r[{_RSP}] - 8) & M")
            self.emit(f"r[{_RSP}] = p")
            self.emit_store_q("p", repr(ju.next_rip))
            self.emit("if sh is not None:")
            self.emit(f"    sh.append({ju.next_rip})")
            self.emit("cpu._bk_calls += 1")
            if indirect:
                self.emit_flush_and("return tv")
            else:
                self.emit_flush_and(f"return {ju.target}")
        elif op is Op.RET:
            self.emit(f"p = r[{_RSP}]")
            self.emit_load_q("tv", "p")
            self.emit(f"r[{_RSP}] = (p + 8) & M")
            self.emit("if sh is not None:")
            self.emit("    ex = sh.pop() if sh else 0")
            self.emit("    if ex != tv:")
            self.emit("        raise SSV(ex, tv)")
            self.emit("cpu._bk_rets += 1")
            self.emit_flush_and("return tv")
        elif op is Op.CALLRT:
            self.emit(f"fn = PSV({ju.sym!r})")
            self.emit(f"cpu.rip = {ju.rip}")
            self.emit("r[0] = fn(P, cpu) & M")
            self.emit("C[6] = MEM.perm_epoch")
            self.emit_flush_and(f"return {ju.next_rip}")
        else:  # slice cut (limit / missing successor): plain fall-through
            self.emit_semantics(len(self.jus) - 1, ju)
            self.emit_flush_and(f"return {ju.next_rip}")

    # -- assembly ----------------------------------------------------------

    def generate(self) -> str:
        jus = self.jus
        last = len(jus) - 1
        for position, ju in enumerate(jus):
            if self.rich:
                self.account_rich(position, ju)
            else:
                self.account_lean(position, ju)
            if position == last:
                # Nothing can fault past here: run any still-pending probes.
                self.flush_probes()
                if self.monotone and self.has_probe:
                    # Every probe of this block has now executed at least
                    # once; its lines are resident forever (nothing ever
                    # evicts), so later executions skip the probes.
                    self.emit(f"if not f: PD[{self.addr}] = 1")
                self.emit_terminator(ju)
            else:
                self.emit_semantics(position, ju)

        addr = self.addr
        head = [
            f"def b_{addr:x}(cpu, r, S, C):",
            f"    n = C[0] + {len(jus)}",
            f"    if n > C[5] or E[{addr}] != C[6]:",
            f"        return {~addr}",
        ]
        if self.rich:
            head.append("    h = 0")
            if self.used_miss:
                head.append("    m = 0")
            if self.used_mem:
                head.append("    o = 0")
            if self.needs_try:
                head.append("    x = 0")
        elif self.has_probe:
            head.append("    m = 0")
            if self.monotone:
                head.append(f"    f = {addr} in PD")
        if self.used_shadow:
            head.append("    sh = cpu._bk_shadow")
        tail: List[str] = []
        if self.needs_try:
            head.append("    try:")
            tail.append("    except BaseException:")
            tail.append(f"        I = LN_{addr:x}[TB()]")
            if self.rich:
                tail.append("        C[0] += x")
                tail.append("        C[3] += h")
                if self.used_miss:
                    tail.append("        C[4] += m")
                if self.used_mem:
                    tail.append("        C[2] += o")
            else:
                tail.append(f"        x_, k_, g_, o_, p_ = X_{addr:x}[I]")
                tail.append("        C[0] += x_")
                if self.has_probe:
                    tail.append(f"        C[1] += k_ + m * {self.penalty}")
                    tail.append("        C[3] += g_ + p_ - m")
                    tail.append("        C[4] += m")
                else:
                    tail.append("        C[1] += k_")
                    tail.append("        C[3] += g_")
                if self.has_mem_any:
                    tail.append("        C[2] += o_")
            tail.append("        cpu.rip = I")
            tail.append("        raise")
        if self.needs_try:
            # The faulting-line -> rip map the except handler reads.  Both
            # baked tables (this and the lean fault-prefix table ``xb``)
            # are injected into the execution namespace as objects at link
            # time rather than rendered as source literals — ``compile()``
            # never parses them.
            first_body = len(head) + 1
            self.ln = {
                first_body + index: rip
                for index, rip in enumerate(self._line_rip)
            }
        else:
            self.ln = None
        return "\n".join(head + self.lines + tail)


# ---------------------------------------------------------------------------
# Compiled-code cache, variants, and programs
# ---------------------------------------------------------------------------


class _BlockUnit:
    """One compiled slice, shareable across processes of one image.

    ``x_table``/``ln_table`` are the block's baked fault tables (see
    :class:`_SliceCompiler`): linked into the execution namespace as
    plain objects so the source ``compile()`` parses stays small."""

    __slots__ = ("code", "name", "length", "fused", "x_table", "ln_table")

    def __init__(self, code, name: str, length: int, fused: int,
                 x_table=None, ln_table=None):
        self.code = code
        self.name = name
        self.length = length
        self.fused = fused
        self.x_table = x_table
        self.ln_table = ln_table


#: (fingerprint, digest, layout bases, costs signature, flags) ->
#: {block head address: _BlockUnit or None (negative-cached: interp-only)}.
_CODE_CACHE: Dict[tuple, Dict[int, Optional[_BlockUnit]]] = {}


def clear_jit_cache() -> None:
    """Drop all cached compiled units (test isolation helper)."""
    _CODE_CACHE.clear()


class _Variant:
    """One accounting-flag variant of a program, linked to one process.

    Holds the per-process execution namespace (memory accessors, runtime
    services, error types), the address -> linked-function dispatch
    table, per-head entry counts driving promotion, the negative cache of
    heads that cannot lower, and the per-head validated fetch epochs."""

    __slots__ = (
        "flags", "units", "table", "entries", "no_compile", "epochs", "namespace",
    )

    def __init__(self, program: "JitProgram", flags: Tuple[bool, bool]):
        self.flags = flags
        monotone = program.monotone()
        key = (
            None if program.cache_key is None
            else program.cache_key + flags + (monotone,)
        )
        self.units = {} if key is None else _CODE_CACHE.setdefault(key, {})
        self.table: Dict[int, object] = {}
        self.entries: Dict[int, int] = {}
        self.no_compile: set = set()
        self.epochs: Dict[int, int] = {}
        process = program.process
        memory = process.memory
        namespace = {
            "M": MASK64,
            "ts": to_signed,
            "td": truncated_div,
            "ME": MachineError,
            "SSV": ShadowStackViolation,
            "SM": StackMisaligned,
            "BTT": BoobyTrapTriggered,
            "RW": memory.read_word,
            "WW": memory.write_word,
            "RD": memory.read,
            "WR": memory.write,
            # Aligned-word dispatch maps (page base -> 64-bit view) for
            # the inlined memory fast path; see _SliceCompiler.emit_load.
            "RMG": memory._rmv.get,
            "WMG": memory._wmv.get,
            "MEM": memory,
            "P": process,
            "OA": process.output.append,
            "PSV": process.service,
            "E": self.epochs,
            "TB": _fault_lineno,
        }
        namespace["PRB1"], namespace["PRB"] = _make_probers(
            program.costs.icache_ways, monotone
        )
        # Per-variant "block fully probed" marks for monotone mode.
        namespace["PD"] = {}
        for op in Op:
            namespace[f"OP_{op.name}"] = op
        self.namespace = namespace


class JitProgram:
    """Prepared form for the ``jit`` backend: a cheap handle over the
    process's instruction index.  All lowering is lazy — no decode, no
    bind, no codegen happens here — so cold or short-lived processes pay
    nothing for selecting this backend."""

    __slots__ = (
        "process", "costs", "instructions", "variants", "cache_key",
        "_monotone",
    )

    def __init__(self, process, costs):
        self.process = process
        self.costs = costs
        self.instructions = process.instructions
        self.variants: Dict[Tuple[bool, bool], _Variant] = {}
        self._monotone: Optional[bool] = None
        binary = process.binary
        fingerprint = getattr(binary, "module_fingerprint", None)
        digest = getattr(binary, "config_digest", None)
        if fingerprint and digest:
            layout = process.layout
            self.cache_key = (
                fingerprint,
                digest,
                layout.text_base,
                layout.data_base,
                layout.heap_base,
                layout.stack_base,
                costs_signature(costs),
            )
        else:
            self.cache_key = None

    def monotone(self) -> bool:
        """Whether the text working set fits the i-cache (computed once,
        lazily — it walks the instruction index)."""
        if self._monotone is None:
            self._monotone = _text_fits_icache(self.instructions, self.costs)
        return self._monotone

    def variant(self, attribute: bool, count_ops: bool) -> _Variant:
        key = (bool(attribute), bool(count_ops))
        linked = self.variants.get(key)
        if linked is None:
            linked = _Variant(self, key)
            self.variants[key] = linked
        return linked

    def stats(self) -> Dict[str, int]:
        """Lowering statistics across this program's linked variants."""
        compiled = set()
        interp_only = set()
        fused = 0
        for variant in self.variants.values():
            for addr, unit in variant.units.items():
                if unit is None:
                    interp_only.add(addr)
                elif addr not in compiled:
                    compiled.add(addr)
                    fused += unit.fused
        return {
            "blocks": len(compiled) + len(interp_only),
            "tier2_blocks": len(compiled),
            "tier1_blocks": len(interp_only),
            "superinstructions_fused": fused,
        }


# ---------------------------------------------------------------------------
# The backend
# ---------------------------------------------------------------------------


class JitBackend:
    """Tier-2 lazily block-compiling backend (``"jit"``).

    ``prepare`` returns a cheap :class:`JitProgram`; lowering happens per
    dynamic block head on its second entry (tier 1 slice recovery +
    fusion, then tier 2 codegen, with compiled code objects shared
    through the image-keyed cache).  ``execute``/``step`` trampoline
    between compiled block functions by address, deopting to the
    reference interpreter wherever compiled code cannot reproduce
    interpreter behaviour bit-for-bit (see the module docstring)."""

    name = "jit"

    def __init__(self):
        from repro.machine.backends import ReferenceBackend

        self._reference = ReferenceBackend()

    # -- program management -------------------------------------------------

    def prepare(self, state):
        cache = state.process.uop_programs
        key = ("jit", id(state.costs))
        entry = cache.get(key)
        if entry is not None and entry[0] is state.costs:
            return entry[1]
        program = JitProgram(state.process, state.costs)
        JIT_STATS["programs"] += 1
        cache[key] = (state.costs, program)
        return program

    def clone_program(self, program, state):
        """Rebind to a replica process.  Construction is cheap (no bind,
        no codegen); replicas share compiled code objects through the
        image-keyed cache, so N lockstep variants of one image generate
        and compile each hot block's source exactly once."""
        clone = JitProgram(state.process, state.costs)
        JIT_STATS["programs"] += 1
        state.process.uop_programs[("jit", id(state.costs))] = (state.costs, clone)
        return clone

    # -- lowering -----------------------------------------------------------

    def _promote(self, program, variant, addr: int):
        """Lower the slice at ``addr`` to a linked block function, or
        negative-cache it (returns None: interpret this head forever)."""
        units = variant.units
        if addr in units:
            unit = units[addr]
            if unit is not None:
                JIT_STATS["code_cache_hits"] += 1
        else:
            unit = self._compile_slice(program, variant, addr)
            units[addr] = unit
        if unit is None:
            variant.no_compile.add(addr)
            return None
        namespace = variant.namespace
        if unit.ln_table is not None:
            namespace[f"LN_{addr:x}"] = unit.ln_table
        if unit.x_table is not None:
            namespace[f"X_{addr:x}"] = unit.x_table
        exec(unit.code, namespace)
        fn = namespace[unit.name]
        variant.epochs.setdefault(addr, -1)
        variant.table[addr] = fn
        return fn

    def _compile_slice(self, program, variant, addr: int) -> Optional[_BlockUnit]:
        items = slice_block(program.instructions, addr, _SLICE_LIMIT)
        if not items:
            return None
        jus: List[_JU] = []
        for iaddr, instr in items:
            ju = _classify(iaddr, instr)
            if ju is None:
                return None
            jus.append(ju)
        fused = fuse_slice(items)
        attribute, count_ops = variant.flags
        compiler = _SliceCompiler(
            addr, items, jus, fused, program.costs, attribute, count_ops,
            monotone=program.monotone(),
        )
        source = compiler.generate()
        code = compile(source, f"<jit:{addr:#x}>", "exec")
        JIT_STATS["blocks_compiled"] += 1
        JIT_STATS["superinstructions_fused"] += len(fused)
        return _BlockUnit(
            code, f"b_{addr:x}", len(items), len(fused),
            x_table=compiler.xb if compiler.needs_try and not compiler.rich else None,
            ln_table=compiler.ln,
        )

    # -- execution ----------------------------------------------------------

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
        if cpu.trace_fn is not None:
            # Trace hooks observe every instruction, so the whole drive
            # runs on the reference interpreter (profilers ride it).
            self._reference._drive(program.instructions, cpu, res, max_steps)
            return

        process = cpu.process
        memory = process.memory
        icache = cpu.icache
        variant = program.variant(cpu.attribute_tags, cpu.count_opcodes)
        table_get = variant.table.get
        entries = variant.entries
        no_compile = variant.no_compile
        epochs_get = variant.epochs.get

        cpu._bk_shadow = cpu.shadow_stack if cpu.shadow_stack_enabled else None
        cpu._bk_calls = 0
        cpu._bk_rets = 0
        cpu._bk_branches = 0
        cpu._bk_taken = 0
        cpu._bk_traps = 0

        max_total = None if max_steps is None else res.instructions + max_steps
        # Drive-cumulative accounting, flushed into ``res`` at interp
        # boundaries and once at the end: C[0] instructions, C[1] cycle
        # units, C[2] memory ops, C[3]/C[4] i-cache hits/misses, C[5] the
        # folded instruction allowance block prologs compare against,
        # C[6] the drive's mirror of the memory permission epoch, and the
        # result's attribution dicts (aliased, updated in place).
        C = [
            0, 0, 0, 0, 0, 0, memory.perm_epoch,
            res.tag_cycle_units, res.tag_counts, res.opcode_counts,
        ]
        self._allowance(cpu, res, C, max_total)
        r = cpu.regs
        S = icache._sets
        # "Block fully probed" marks describe one i-cache's contents; if a
        # cached program is ever re-driven against a fresh machine state
        # (new, cold i-cache), the marks must not carry over.
        namespace = variant.namespace
        if namespace.get("PD_OWNER") is not icache:
            namespace["PD"].clear()
            namespace["PD_OWNER"] = icache
        interp = self._interp
        promote = self._promote

        try:
            while True:
                rip = cpu.rip
                fn = table_get(rip)
                if fn is None:
                    if rip not in no_compile:
                        count = entries.get(rip, 0) + 1
                        entries[rip] = count
                        if count >= _PROMOTE_THRESHOLD:
                            fn = promote(program, variant, rip)
                    if fn is None:
                        if not interp(program, cpu, res, C, memory, max_total):
                            break
                        continue
                value = fn(cpu, r, S, C)
                if value is None:
                    break  # EXIT: rip and exit code already set
                if value >= 0:
                    cpu.rip = value
                    continue
                # Deopt escape: the prolog rejected the block (stale fetch
                # epoch, or the folded allowance would be exceeded).
                addr = ~value
                cpu.rip = addr
                if epochs_get(addr, -1) != C[6] and self._revalidate(
                    program, memory, variant.epochs, addr, C
                ):
                    continue
                JIT_STATS["deopts"] += 1
                if not interp(program, cpu, res, C, memory, max_total):
                    break
        finally:
            self._flush(cpu, res, C, icache, process)

    # -- driver helpers -----------------------------------------------------

    def _allowance(self, cpu, res, C, max_total: Optional[int]) -> None:
        """Recompute C[5]: how many more instructions compiled code may
        retire before budget or step-slice limits need interpreter-exact
        handling."""
        limit = cpu.instruction_budget
        if max_total is not None and max_total < limit:
            limit = max_total
        C[5] = limit - res.instructions

    def _flush(self, cpu, res, C, icache, process) -> None:
        """Fold the drive-local accumulators into the result.  Exact under
        integer cycle units; called before every interpreter segment and
        once when the drive ends (including fault exits)."""
        res.instructions += C[0]
        C[0] = 0
        res.cycle_units += C[1]
        C[1] = 0
        res.cycles = res.cycle_units / CYCLE_UNIT
        res.mem_ops += C[2]
        C[2] = 0
        icache.hits += C[3]
        C[3] = 0
        icache.misses += C[4]
        C[4] = 0
        res.icache_hits = icache.hits
        res.icache_misses = icache.misses
        res.calls += cpu._bk_calls
        cpu._bk_calls = 0
        res.rets += cpu._bk_rets
        cpu._bk_rets = 0
        res.branches += cpu._bk_branches
        cpu._bk_branches = 0
        res.branches_taken += cpu._bk_taken
        cpu._bk_taken = 0
        res.traps += cpu._bk_traps
        cpu._bk_traps = 0
        if cpu.attribute_tags and res.tag_cycle_units:
            res.tag_cycles = {
                tag: units / CYCLE_UNIT for tag, units in res.tag_cycle_units.items()
            }
        res.output = process.output

    def _interp(self, program, cpu, res, C, memory, max_total: Optional[int]) -> bool:
        """Run one block-granular span on the reference interpreter,
        directly into ``res`` (exact: all accounting is integer units).
        Returns False when the drive is over (halt or step exhaustion)."""
        self._flush(cpu, res, C, cpu.icache, cpu.process)
        if cpu._halted:
            return False
        if max_total is not None and res.instructions >= max_total:
            return False
        instructions = program.instructions
        get = instructions.get
        addr = cpu.rip
        span = 0
        while span < _SLICE_LIMIT:
            instr = get(addr)
            span += 1
            # A missing instruction is included: the reference loop walks
            # into it and raises the exact fetch fault / InvalidInstruction.
            if instr is None or instr.op in TERMINATOR_OPS:
                break
            addr += instr.size
        if max_total is not None:
            left = max_total - res.instructions
            if span > left:
                span = left
        self._reference._drive(instructions, cpu, res, span)
        C[6] = memory.perm_epoch
        self._allowance(cpu, res, C, max_total)
        if cpu._halted:
            return False
        if max_total is not None and res.instructions >= max_total:
            return False
        return True

    def _revalidate(self, program, memory, epochs, addr: int, C) -> bool:
        """Fetch-check the slice at ``addr`` against current permissions.
        On success the block's epoch is stamped and compiled code may
        skip per-instruction fetch checks; on failure the caller falls
        to the interpreter, which faults with exact counters."""
        try:
            for iaddr, instr in slice_block(program.instructions, addr, _SLICE_LIMIT):
                memory.fetch_check(iaddr, instr.size)
        except MemoryFault:
            return False
        epoch = memory.perm_epoch
        epochs[addr] = epoch
        C[6] = epoch
        return True
