"""Static gadget dataflow miner: census, invariants, chain synthesis.

The attack-side counterpart of the binary invariant checker.  Where
:mod:`repro.analysis.binverify` proves defender invariants, this module
computes what a *systematic* code-reuse adversary can prove about a
binary from static analysis alone (their own copy of the software — the
Section 3 threat model's reference knowledge):

* **Gadget census** — every straight-line instruction suffix ending at a
  ``ret`` (ROP) or an indirect ``jmp``/``call`` (JOP) is summarized by
  abstract interpretation over the reference machine semantics
  (:mod:`repro.machine.backends`): registers read/written, final register
  values as symbolic expressions over the gadget's entry state, stack
  delta, memory load/store effects, and the clobber set.  Two gadgets are
  equal **by effect**, not by text — the equivalence *Hiding in the
  Particles* shows real miners exploit.
* **Invariant-gadget search** — censuses of N diversified variants are
  intersected by semantic class, in *position-pinned* mode (same text
  offset and same effect: directly reusable by a fixed payload) and
  *position-independent* mode (same effect anywhere: reusable after one
  pointer disclosure).  :mod:`repro.analysis.entropy` reports the
  resulting survival fractions next to its historical offset+text metric.
* **Chain synthesizer** — given a goal spec (emit-output,
  reg-load-then-call, write-what-where, stack-pivot) it solves for a
  gadget sequence plus exact stack layout using the semantic summaries,
  producing a :class:`Chain` whose words an attack hook can write through
  :class:`repro.attacks.surface.AttackerView` (see
  :mod:`repro.attacks.mined`).

Everything here is *attacker-side* static analysis: it reads only the
position-independent :class:`~repro.toolchain.binary.Binary` image (text
stream, data relocations, symbols) — never frame records, call-site
records, or plan metadata.

``python -m repro mine <workload>`` drives the census over N seed
variants and writes a schema-versioned ``repro-gadgets/v1`` artifact
(:class:`MineReport`, :func:`validate`).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.analysis.findings import Finding, FindingsReport
from repro.machine.isa import Imm, Instruction, Mem, Op, Reg
from repro.numeric import MASK64, to_signed, truncated_div
from repro.toolchain.binary import Binary
from repro.toolchain.disasm import render_instruction

WORD = 8

#: Census window: longest suffix considered, in instructions including
#: the terminator.  Wider than the entropy auditor's historical window
#: (5) because semantic mining profits from whole epilogues (register
#: restores + stack release + ret is typically 6-9 instructions).
GADGET_WINDOW = 9

#: Ops that end a straight-line run — a gadget suffix never crosses one.
#: ``callrt`` is included: runtime services (malloc, output hooks) have
#: arbitrary effects no summary can carry.
_STOPPERS = frozenset(
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
        Op.TRAP,
        Op.EXIT,
        Op.CALLRT,
    }
)

#: Stack-layout filler word for chain slots the synthesizer leaves free.
FILLER_WORD = 0x0F1D_0F1D_0F1D_0F1D

# ---------------------------------------------------------------------------
# abstract values
# ---------------------------------------------------------------------------
#
# Values are plain tuples, symbolic over the gadget's *entry* state:
#
#   ("ireg", r, off)   entry value of GPR r, plus a constant
#   ("const", v)       known 64-bit constant
#   ("sld", k, off)    word loaded from [entry_rsp + k], plus a constant
#   ("rsp", d)         entry_rsp + d
#   ("glob", sym, off) word loaded from data global sym (+byte offset)
#   ("sym", name, a)   link-time absolute address of a symbol (+addend)
#   ("mem",)           unknown load
#   ("expr",)          any other derived value (top)
#
# Abstract addresses:
#
#   ("stack", k)       entry_rsp + k
#   ("reg", r, off)    entry GPR r + offset
#   ("sval", k, off)   word at [entry_rsp+k] + offset (pointer from stack)
#   ("global", sym, o) data symbol + offset
#   ("abs", a)         absolute constant address
#   ("unknown",)

_EXPR = ("expr",)
_MEM = ("mem",)


def _add_const(value: Tuple, c: int) -> Tuple:
    """Fold ``value + c`` where the domain permits, else top."""
    kind = value[0]
    if kind == "const":
        return ("const", (value[1] + c) & MASK64)
    if kind in ("ireg", "sld"):
        return (kind, value[1], value[2] + c)
    if kind == "rsp":
        return ("rsp", value[1] + c)
    if kind == "sym":
        return ("sym", value[1], value[2] + c)
    return _EXPR


class _AbstractState:
    """One abstract machine state, mirroring ReferenceBackend semantics."""

    def __init__(self) -> None:
        self.regs: Dict[int, Tuple] = {}  # GPR -> abstract value (absent = entry)
        self.sp: Optional[int] = 0  # byte delta of rsp from entry (None = lost)
        self.flags: Tuple = ("init-flags",)
        self.loads: List[Tuple] = []
        self.stores: List[Tuple[Tuple, Tuple]] = []
        self.stack_writes: Dict[int, Tuple] = {}  # entry-relative stores
        self.out_values: List[Tuple] = []
        self.pivot: Optional[Tuple] = None
        self.regs_read: Set[str] = set()
        self.regs_written: Set[str] = set()
        self.reads_flags = False
        self.writes_flags = False
        self.hazards: Set[str] = set()

    # -- register file -------------------------------------------------------

    def read_reg(self, reg: Reg) -> Tuple:
        self.regs_read.add(reg.name.lower())
        if reg is Reg.RSP:
            return ("rsp", self.sp) if self.sp is not None else _EXPR
        if reg >= Reg.YMM0:
            self.hazards.add("vector")
            return _EXPR
        return self.regs.get(int(reg), ("ireg", int(reg), 0))

    def write_reg(self, reg: Reg, value: Tuple) -> None:
        self.regs_written.add(reg.name.lower())
        if reg is Reg.RSP:
            if value[0] == "rsp":
                self.sp = value[1]
            else:
                # The stack pointer now derives from attacker-relevant
                # state: a pivot.  Framing below the pivot is lost.
                self.pivot = value
                self.sp = None
            return
        if reg >= Reg.YMM0:
            self.hazards.add("vector")
            return
        self.regs[int(reg)] = value

    # -- memory --------------------------------------------------------------

    def address_of(self, mem: Mem) -> Tuple:
        if mem.symbol is not None:
            if mem.base is None and mem.index is None:
                return ("global", mem.symbol, mem.offset)
            return ("unknown",)
        offset = mem.offset
        if mem.index is not None:
            index = self.read_reg(mem.index)
            if index[0] != "const":
                return ("unknown",)
            offset += index[1] * mem.scale
        if mem.base is None:
            return ("abs", offset)
        base = self.read_reg(mem.base)
        kind = base[0]
        if kind == "rsp":
            return ("stack", base[1] + offset)
        if kind == "ireg" and base[2] == 0:
            return ("reg", base[1], offset)
        if kind == "ireg":
            return ("reg", base[1], base[2] + offset)
        if kind == "sld":
            return ("sval", base[1], base[2] + offset)
        if kind == "const":
            return ("abs", (base[1] + offset) & MASK64)
        if kind == "sym":
            return ("global", base[1], base[2] + offset)
        return ("unknown",)

    def load(self, address: Tuple) -> Tuple:
        self.loads.append(address)
        if address[0] == "stack":
            # A store earlier in the same gadget shadows the entry word.
            if address[1] in self.stack_writes:
                return self.stack_writes[address[1]]
            return ("sld", address[1], 0)
        if address[0] == "global":
            return ("glob", address[1], address[2])
        self.hazards.add("load:" + address[0])
        return _MEM

    def store(self, address: Tuple, value: Tuple) -> None:
        self.stores.append((address, value))
        if address[0] == "stack":
            self.stack_writes[address[1]] = value
            return
        self.hazards.add("store:" + address[0])

    # -- operands ------------------------------------------------------------

    def read_operand(self, operand) -> Tuple:
        if isinstance(operand, Reg):
            return self.read_reg(operand)
        if isinstance(operand, Imm):
            if operand.symbol is not None:
                return ("sym", operand.symbol, operand.value)
            return ("const", operand.value & MASK64)
        if isinstance(operand, Mem):
            return self.load(self.address_of(operand))
        return _EXPR

    def write_operand(self, operand, value: Tuple) -> None:
        if isinstance(operand, Reg):
            self.write_reg(operand, value)
        elif isinstance(operand, Mem):
            self.store(self.address_of(operand), value)


def _fold_binop(op: Op, va: Tuple, vb: Tuple) -> Tuple:
    """Mirror the reference backend's arithmetic on the abstract domain."""
    if va[0] == "const" and vb[0] == "const":
        a, b = va[1], vb[1]
        if op is Op.ADD:
            return ("const", (a + b) & MASK64)
        if op is Op.SUB:
            return ("const", (a - b) & MASK64)
        if op is Op.AND:
            return ("const", a & b)
        if op is Op.OR:
            return ("const", a | b)
        if op is Op.XOR:
            return ("const", a ^ b)
        if op is Op.SHL:
            return ("const", (a << (b & 63)) & MASK64)
        if op is Op.SHR:
            return ("const", (a & MASK64) >> (b & 63))
        if op is Op.IMUL:
            return ("const", (to_signed(a) * to_signed(b)) & MASK64)
        if op is Op.IDIV:
            if to_signed(b) == 0:
                return _EXPR
            return ("const", truncated_div(to_signed(a), to_signed(b)) & MASK64)
    if op is Op.ADD and vb[0] == "const":
        return _add_const(va, to_signed(vb[1]))
    if op is Op.ADD and va[0] == "const":
        return _add_const(vb, to_signed(va[1]))
    if op is Op.SUB and vb[0] == "const":
        return _add_const(va, -to_signed(vb[1]))
    return _EXPR


# ---------------------------------------------------------------------------
# the semantic summary
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GadgetSummary:
    """Effect of executing one gadget suffix, symbolic over entry state."""

    terminator: str  # "ret" | "jop-jmp" | "jop-call"
    length: int
    regs_read: Tuple[str, ...]
    regs_written: Tuple[str, ...]
    #: Final register values expressible over the entry state.
    reg_effects: Tuple[Tuple[str, Tuple], ...]
    #: Registers written with values the domain cannot express.
    clobbered: Tuple[str, ...]
    #: Bytes rsp has moved once control leaves (for ret: including the
    #: RIP pop).  None when the gadget loses static track of rsp.
    stack_delta: Optional[int]
    #: For ret gadgets: entry-relative byte offset of the word that
    #: becomes the next RIP.
    ret_slot: Optional[int]
    #: For indirect transfers: the abstract transfer target.
    target: Optional[Tuple]
    loads: Tuple[Tuple, ...]
    stores: Tuple[Tuple[Tuple, Tuple], ...]
    out_values: Tuple[Tuple, ...]
    reads_flags: bool
    writes_flags: bool
    #: Hazard labels ("callrt" never appears — stopped at census time):
    #: "idiv", "vector", "load:reg", "store:unknown", ...
    hazards: Tuple[str, ...]

    @property
    def pure(self) -> bool:
        """Statically executable: no op whose effect the domain lost."""
        return not self.hazards

    def semantic_key(self) -> str:
        """Position-independent identity: the hash of the effect."""
        payload = repr(
            (
                self.terminator,
                self.reg_effects,
                sorted(self.clobbered),
                self.stack_delta,
                self.ret_slot,
                self.target,
                self.loads,
                self.stores,
                self.out_values,
                self.writes_flags,
                sorted(self.hazards),
            )
        )
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    def capabilities(self) -> FrozenSet[str]:
        """What an attacker can do with this gadget (the danger classes)."""
        caps = set()
        for reg, value in self.reg_effects:
            if value[0] == "sld":
                caps.add(f"load-reg:{reg}")
        for address, value in self.stores:
            if address[0] in ("reg", "sval") and value[0] in ("ireg", "sld", "const"):
                caps.add("write-mem")
        for value in self.out_values:
            if value[0] in ("ireg", "sld", "const"):
                caps.add("emit-out")
        if self.terminator == "ret" and self.stack_delta is not None and self.stack_delta > WORD:
            caps.add("shift-stack")
        if self.terminator in ("jop-jmp", "jop-call") and self.target is not None:
            if self.target[0] in ("ireg", "sld"):
                caps.add("dispatch")
        if self.stack_delta is None:
            caps.add("stack-pivot")
        return frozenset(caps)


def summarize(instructions: Sequence[Instruction]) -> GadgetSummary:
    """Abstract-interpret one straight-line suffix ending at a terminator.

    Semantics mirror ``ReferenceBackend._drive`` exactly; the hypothesis
    property in ``tests/test_gadgets.py`` holds every pure summary to
    concrete single-step execution on the reference backend.
    """
    state = _AbstractState()
    terminator = "ret"
    target: Optional[Tuple] = None
    ret_slot: Optional[int] = None

    for position, instr in enumerate(instructions):
        op = instr.op
        last = position == len(instructions) - 1
        if op is Op.MOV:
            state.write_operand(instr.a, state.read_operand(instr.b))
        elif op is Op.LEA:
            address = state.address_of(instr.b)
            if address[0] == "stack":
                state.write_operand(instr.a, ("rsp", address[1]))
            elif address[0] == "reg":
                state.write_operand(instr.a, ("ireg", address[1], address[2]))
            elif address[0] == "abs":
                state.write_operand(instr.a, ("const", address[1] & MASK64))
            elif address[0] == "global":
                state.write_operand(instr.a, ("sym", address[1], address[2]))
            else:
                state.write_operand(instr.a, _EXPR)
        elif op is Op.PUSH:
            value = state.read_operand(instr.a)
            if state.sp is not None:
                state.sp -= WORD
                state.store(("stack", state.sp), value)
            else:
                state.hazards.add("store:unknown")
        elif op is Op.POP:
            if state.sp is not None:
                value = state.load(("stack", state.sp))
                state.sp += WORD
            else:
                value = _MEM
                state.hazards.add("load:unknown")
            state.write_operand(instr.a, value)
        elif op in (Op.ADD, Op.SUB, Op.AND, Op.OR, Op.XOR, Op.SHL, Op.SHR, Op.IMUL):
            state.write_operand(
                instr.a,
                _fold_binop(op, state.read_operand(instr.a), state.read_operand(instr.b)),
            )
        elif op is Op.IDIV:
            divisor = state.read_operand(instr.b)
            if divisor[0] != "const" or to_signed(divisor[1]) == 0:
                state.hazards.add("idiv")
            state.write_operand(
                instr.a, _fold_binop(op, state.read_operand(instr.a), divisor)
            )
        elif op is Op.NEG:
            value = state.read_operand(instr.a)
            if value[0] == "const":
                state.write_operand(instr.a, ("const", (-value[1]) & MASK64))
            else:
                state.write_operand(instr.a, _EXPR)
        elif op is Op.CMP:
            va, vb = state.read_operand(instr.a), state.read_operand(instr.b)
            state.writes_flags = True
            if va[0] == "const" and vb[0] == "const":
                state.flags = ("cmp", to_signed(va[1]) - to_signed(vb[1]))
            else:
                state.flags = ("unknown-flags",)
        elif op is Op.TEST:
            va, vb = state.read_operand(instr.a), state.read_operand(instr.b)
            state.writes_flags = True
            if va[0] == "const" and vb[0] == "const":
                state.flags = ("cmp", to_signed(va[1] & vb[1]))
            else:
                state.flags = ("unknown-flags",)
        elif op in (Op.SETE, Op.SETNE, Op.SETL, Op.SETLE, Op.SETG, Op.SETGE):
            state.reads_flags = True
            if state.flags[0] == "cmp":
                cmp = state.flags[1]
                taken = {
                    Op.SETE: cmp == 0,
                    Op.SETNE: cmp != 0,
                    Op.SETL: cmp < 0,
                    Op.SETLE: cmp <= 0,
                    Op.SETG: cmp > 0,
                    Op.SETGE: cmp >= 0,
                }[op]
                state.write_operand(instr.a, ("const", 1 if taken else 0))
            else:
                state.write_operand(instr.a, _EXPR)
        elif op is Op.NOP or op is Op.VZEROUPPER:
            pass
        elif op in (Op.VLOAD, Op.VLOAD512):
            state.hazards.add("vector")
            if isinstance(instr.b, Mem):
                state.loads.append(state.address_of(instr.b))
        elif op in (Op.VSTORE, Op.VSTORE512):
            state.hazards.add("vector")
            if isinstance(instr.a, Mem):
                state.store(state.address_of(instr.a), _EXPR)
        elif op is Op.OUT:
            state.out_values.append(state.read_operand(instr.a))
        elif op is Op.RET:
            if not last:
                raise ValueError("ret mid-suffix: census window is broken")
            terminator = "ret"
            ret_slot = state.sp
        elif op is Op.JMP or op is Op.CALL:
            if not last:
                raise ValueError("transfer mid-suffix: census window is broken")
            terminator = "jop-jmp" if op is Op.JMP else "jop-call"
            target = state.read_operand(instr.a)
            if op is Op.CALL and state.sp is not None:
                state.sp -= WORD  # the pushed return address
        else:
            # trap/exit/callrt/jcc are stoppers and never reach here.
            raise ValueError(f"unexpected opcode in gadget suffix: {op}")

    stack_delta: Optional[int] = None
    if terminator == "ret":
        if state.sp is not None:
            stack_delta = state.sp + WORD
    elif state.sp is not None:
        stack_delta = state.sp

    reg_effects = []
    clobbered = []
    for reg_index in sorted(state.regs):
        value = state.regs[reg_index]
        name = Reg(reg_index).name.lower()
        if value == ("ireg", reg_index, 0):
            continue  # identity: final == entry
        if value[0] in ("ireg", "const", "sld", "rsp", "glob", "sym"):
            reg_effects.append((name, value))
        else:
            clobbered.append(name)
    for name in sorted(state.regs_written):
        if name in ("rsp",):
            continue
        reg_index = Reg[name.upper()] if name.upper() in Reg.__members__ else None
        if reg_index is not None and int(reg_index) >= int(Reg.YMM0):
            clobbered.append(name)

    return GadgetSummary(
        terminator=terminator,
        length=len(instructions),
        regs_read=tuple(sorted(state.regs_read)),
        regs_written=tuple(sorted(state.regs_written)),
        reg_effects=tuple(reg_effects),
        clobbered=tuple(sorted(set(clobbered))),
        stack_delta=stack_delta,
        ret_slot=ret_slot,
        target=target,
        loads=tuple(state.loads),
        stores=tuple(state.stores),
        out_values=tuple(state.out_values),
        reads_flags=state.reads_flags,
        writes_flags=state.writes_flags,
        hazards=tuple(sorted(state.hazards)),
    )


# ---------------------------------------------------------------------------
# the census
# ---------------------------------------------------------------------------


@dataclass
class GadgetRecord:
    """One censused gadget: a concrete suffix plus its semantic identity."""

    offset: int  # text offset of the suffix's first instruction
    length: int
    kind: str  # "ret" | "jop-jmp" | "jop-call"
    text: Tuple[str, ...]
    summary: GadgetSummary
    key: str  # summary.semantic_key(), cached


@dataclass
class GadgetCensus:
    """Every gadget mined from one binary."""

    seed: Optional[int]
    window: int
    records: List[GadgetRecord] = field(default_factory=list)

    @property
    def counts(self) -> Dict[str, int]:
        tally = {"ret": 0, "jop-jmp": 0, "jop-call": 0}
        for record in self.records:
            tally[record.kind] += 1
        return tally

    def keys(self) -> FrozenSet[str]:
        """Position-independent semantic classes."""
        return frozenset(record.key for record in self.records)

    def pinned(self) -> FrozenSet[Tuple[int, str]]:
        """Position-pinned classes: (text offset, semantic class)."""
        return frozenset((record.offset, record.key) for record in self.records)

    def texts(self) -> FrozenSet[Tuple[int, Tuple[str, ...]]]:
        """The historical offset+rendering identity (entropy continuity)."""
        return frozenset((record.offset, record.text) for record in self.records)


def _is_indirect(operand) -> bool:
    return isinstance(operand, (Reg, Mem))


def take_census(
    binary: Binary, *, window: int = GADGET_WINDOW, seed: Optional[int] = None
) -> GadgetCensus:
    """Mine every gadget suffix from a binary's text stream.

    Walks the decoded instruction stream (the same lossless
    representation :func:`repro.toolchain.disasm.parse_listing` round-trips
    and :func:`repro.machine.blocks.static_blocks` derives block
    boundaries from): each ``ret`` / indirect transfer terminates the
    suffixes; the backward window stops at control-transfer boundaries
    and at text discontinuities, so every censused suffix is a
    straight-line run an attacker could actually enter mid-stream.
    """
    census = GadgetCensus(seed=seed, window=window)
    text = binary.text
    for index, (offset, instr) in enumerate(text):
        if instr.op is Op.RET:
            kind = "ret"
        elif instr.op is Op.JMP and _is_indirect(instr.a):
            kind = "jop-jmp"
        elif instr.op is Op.CALL and _is_indirect(instr.a):
            kind = "jop-call"
        else:
            continue
        start = index
        while start > index - window + 1 and start > 0:
            prev_offset, prev = text[start - 1]
            if prev.op in _STOPPERS:
                break
            if prev_offset + prev.size != text[start][0]:
                break  # text discontinuity (inter-function padding)
            start -= 1
        for begin in range(start, index + 1):
            suffix = [item[1] for item in text[begin : index + 1]]
            summary = summarize(suffix)
            census.records.append(
                GadgetRecord(
                    offset=text[begin][0],
                    length=len(suffix),
                    kind=kind,
                    text=tuple(render_instruction(item) for item in suffix),
                    summary=summary,
                    key=summary.semantic_key(),
                )
            )
    return census


# ---------------------------------------------------------------------------
# cross-variant invariant search
# ---------------------------------------------------------------------------


def semantic_survival(
    a: GadgetCensus, b: GadgetCensus, *, position_independent: bool = True
) -> float:
    """Fraction of semantic classes shared between two variants.

    Normalized by the smaller census (the attacker mines the variant
    they have and asks what carries over) — same convention as the
    historical offset+text metric in :mod:`repro.analysis.entropy`.
    """
    keys_a = a.keys() if position_independent else a.pinned()
    keys_b = b.keys() if position_independent else b.pinned()
    smaller = min(len(keys_a), len(keys_b)) or 1
    return len(keys_a & keys_b) / smaller


@dataclass
class InvariantReport:
    """Gadget classes that survive across *every* variant in a set."""

    seeds: List[int]
    variant_counts: List[Dict[str, int]]
    #: (offset, semantic class, kind) present in all variants — directly
    #: reusable by a position-dependent payload.
    pinned: List[Tuple[int, str, str]]
    #: (semantic class, kind) present in all variants at *some* offset.
    independent: List[Tuple[str, str]]
    pairwise_pinned: List[Tuple[int, int, float]]
    pairwise_independent: List[Tuple[int, int, float]]


def find_invariants(censuses: Sequence[GadgetCensus], seeds: Sequence[int]) -> InvariantReport:
    """Intersect N censuses by semantic class, both survival modes."""
    if len(censuses) < 2:
        raise ValueError("invariant search needs at least two variants")
    by_key: Dict[str, str] = {}
    by_pinned: Dict[Tuple[int, str], str] = {}
    for census in censuses:
        for record in census.records:
            by_key.setdefault(record.key, record.kind)
            by_pinned.setdefault((record.offset, record.key), record.kind)

    pinned_common = set(censuses[0].pinned())
    key_common = set(censuses[0].keys())
    for census in censuses[1:]:
        pinned_common &= census.pinned()
        key_common &= census.keys()

    pairwise_pinned = []
    pairwise_independent = []
    for i in range(len(censuses)):
        for j in range(i + 1, len(censuses)):
            pairwise_pinned.append(
                (seeds[i], seeds[j], semantic_survival(censuses[i], censuses[j], position_independent=False))
            )
            pairwise_independent.append(
                (seeds[i], seeds[j], semantic_survival(censuses[i], censuses[j], position_independent=True))
            )

    return InvariantReport(
        seeds=list(seeds),
        variant_counts=[census.counts for census in censuses],
        pinned=sorted((off, key, by_pinned[(off, key)]) for off, key in pinned_common),
        independent=sorted((key, by_key[key]) for key in key_common),
        pairwise_pinned=pairwise_pinned,
        pairwise_independent=pairwise_independent,
    )


# ---------------------------------------------------------------------------
# chain synthesis
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EmitOutput:
    """Goal: make the victim emit ``value`` on its output stream."""

    value: int


@dataclass(frozen=True)
class RegLoadThenCall:
    """Goal: load ``value`` into ``reg`` (name, or None for any loadable
    register), then transfer to text offset ``target_offset``."""

    reg: Optional[str]
    value: int
    target_offset: int


@dataclass(frozen=True)
class WriteWhatWhere:
    """Goal: write ``value`` to absolute ``address``."""

    address: int
    value: int


@dataclass(frozen=True)
class StackPivot:
    """Goal: repoint rsp at absolute ``new_rsp``."""

    new_rsp: int


GoalSpec = (EmitOutput, RegLoadThenCall, WriteWhatWhere, StackPivot)

#: A chain stack word: ("text", offset) relocates against the leaked
#: text base; ("imm", value) is written verbatim.
WordSpec = Tuple[str, int]


@dataclass
class Chain:
    """A solved gadget sequence plus its exact stack layout."""

    goal: str
    words: List[WordSpec]
    gadgets: List[GadgetRecord]

    def materialize(self, text_base: int) -> List[int]:
        """Resolve the layout against a disclosed text base."""
        resolved = []
        for kind, value in self.words:
            if kind == "text":
                resolved.append((text_base + value) & MASK64)
            else:
                resolved.append(value & MASK64)
        return resolved

    def transfers_to(self, census: GadgetCensus) -> bool:
        """Does every gadget survive position-pinned in another variant?"""
        pinned = census.pinned()
        return all((record.offset, record.key) for record in self.gadgets) and all(
            (record.offset, record.key) in pinned for record in self.gadgets
        )


def _chainable(summary: GadgetSummary) -> bool:
    """Usable as an interior chain link: pure ret gadget, framable."""
    return (
        summary.terminator == "ret"
        and summary.pure
        and summary.stack_delta is not None
        and summary.ret_slot is not None
        and summary.ret_slot >= 0
        and summary.ret_slot % WORD == 0
        and summary.stack_delta % WORD == 0
        and all(address[0] == "stack" and address[1] >= 0 for address in summary.loads)
        and all(address[0] == "stack" for address, _ in summary.stores)
    )


def _loader_index(census: GadgetCensus) -> Dict[str, Tuple[GadgetRecord, int, int]]:
    """Best ``reg := stack slot`` gadget per register.

    Returns reg name -> (record, slot byte offset, value addend): after
    the gadget, reg == word-at-slot + addend.  "Best" = smallest frame.
    """
    best: Dict[str, Tuple[GadgetRecord, int, int]] = {}
    for record in census.records:
        summary = record.summary
        if not _chainable(summary) or summary.stores:
            continue
        for reg, value in summary.reg_effects:
            if value[0] != "sld":
                continue
            slot, addend = value[1], value[2]
            if slot < 0 or slot % WORD or slot == summary.ret_slot:
                continue
            if slot >= summary.stack_delta:
                continue
            current = best.get(reg)
            # Prefer loaders with no side output (a stray ``out`` would
            # pollute the victim's stream), then the smallest frame.
            rank = (bool(summary.out_values), summary.stack_delta)
            if current is None or rank < (
                bool(current[0].summary.out_values),
                current[0].summary.stack_delta,
            ):
                best[reg] = (record, slot, addend)
    return best


def _assemble(goal: str, steps: List[Tuple[GadgetRecord, Dict[int, WordSpec]]], tail: WordSpec) -> Chain:
    """Lay out a ret-to-ret chain: each gadget's frame in sequence, the
    ret slot of one holding the text address of the next."""
    words: List[WordSpec] = [("imm", FILLER_WORD)]
    address_slot = 0
    for record, slot_values in steps:
        words[address_slot] = ("text", record.offset)
        frame_start = len(words)
        frame_words = record.summary.stack_delta // WORD
        words.extend([("imm", FILLER_WORD)] * frame_words)
        for slot, spec in slot_values.items():
            words[frame_start + slot // WORD] = spec
        address_slot = frame_start + record.summary.ret_slot // WORD
    words[address_slot] = tail
    return Chain(goal=goal, words=words, gadgets=[record for record, _ in steps])


def _steps_interfere(steps: List[Tuple[GadgetRecord, Dict[int, WordSpec]]], loaded: List[str]) -> bool:
    """A loaded register must survive the steps *between* its loader and
    the final consuming gadget.  The consumer's own writes are fine: its
    summary expresses effects over entry state, so an epilogue restoring
    the register after the consuming instruction cannot interfere."""
    for position, reg in enumerate(loaded):
        for record, _ in steps[position + 1 : -1]:
            if reg in record.summary.regs_written:
                return True
    return False


def synthesize(census: GadgetCensus, goal) -> Optional[Chain]:
    """Solve a goal spec against one census; None when no chain exists."""
    loaders = _loader_index(census)

    if isinstance(goal, EmitOutput):
        candidates = []
        for record in census.records:
            summary = record.summary
            if not _chainable(summary):
                continue
            for source in summary.out_values:
                candidates.append((record, source))
        # Prefer direct stack-sourced emitters, then single-loader chains.
        for record, source in sorted(candidates, key=lambda c: c[0].summary.length):
            summary = record.summary
            if source[0] == "sld" and 0 <= source[1] < summary.stack_delta and source[1] != summary.ret_slot:
                slot_word = ("imm", (goal.value - source[2]) & MASK64)
                return _assemble("emit-output", [(record, {source[1]: slot_word})], ("imm", FILLER_WORD))
        for record, source in sorted(candidates, key=lambda c: c[0].summary.length):
            if source[0] != "ireg":
                continue
            reg_name = Reg(source[1]).name.lower()
            loader = loaders.get(reg_name)
            if loader is None:
                continue
            loader_record, slot, addend = loader
            want = (goal.value - source[2] - addend) & MASK64
            steps = [(loader_record, {slot: ("imm", want)}), (record, {})]
            if _steps_interfere(steps, [reg_name]):
                continue
            return _assemble("emit-output", steps, ("imm", FILLER_WORD))
        return None

    if isinstance(goal, RegLoadThenCall):
        wanted = [goal.reg] if goal.reg is not None else sorted(loaders)
        for reg_name in wanted:
            loader = loaders.get(reg_name)
            if loader is None:
                continue
            record, slot, addend = loader
            value = (goal.value - addend) & MASK64
            return _assemble(
                "reg-load-then-call",
                [(record, {slot: ("imm", value)})],
                ("text", goal.target_offset),
            )
        return None

    if isinstance(goal, WriteWhatWhere):
        for record in census.records:
            summary = record.summary
            if summary.terminator != "ret" or summary.stack_delta is None:
                continue
            if summary.ret_slot is None or summary.ret_slot < 0 or summary.ret_slot % WORD:
                continue
            # The write itself goes through an attacker-pointed register
            # or a pointer taken from the controlled stack; everything
            # else must stay statically executable.
            if any(not h.startswith("store:reg") and not h.startswith("store:sval") for h in summary.hazards):
                continue
            if any(a[0] not in ("stack",) or a[1] < 0 for a in summary.loads):
                continue
            for address, value in summary.stores:
                if address[0] == "sval" and value[0] == "sld":
                    addr_slot, addr_off = address[1], address[2]
                    val_slot, val_off = value[1], value[2]
                    usable = (
                        0 <= addr_slot < summary.stack_delta
                        and 0 <= val_slot < summary.stack_delta
                        and addr_slot % WORD == 0
                        and val_slot % WORD == 0
                        and len({addr_slot, val_slot, summary.ret_slot}) == 3
                    )
                    if usable:
                        slots = {
                            addr_slot: ("imm", (goal.address - addr_off) & MASK64),
                            val_slot: ("imm", (goal.value - val_off) & MASK64),
                        }
                        return _assemble("write-what-where", [(record, slots)], ("imm", FILLER_WORD))
                if address[0] == "reg" and value[0] == "ireg":
                    addr_reg = Reg(address[1]).name.lower()
                    val_reg = Reg(value[1]).name.lower()
                    if addr_reg == val_reg:
                        continue
                    addr_loader = loaders.get(addr_reg)
                    val_loader = loaders.get(val_reg)
                    if addr_loader is None or val_loader is None:
                        continue
                    steps = [
                        (val_loader[0], {val_loader[1]: ("imm", (goal.value - value[2] - val_loader[2]) & MASK64)}),
                        (addr_loader[0], {addr_loader[1]: ("imm", (goal.address - address[2] - addr_loader[2]) & MASK64)}),
                        (record, {}),
                    ]
                    if _steps_interfere(steps, [val_reg, addr_reg]):
                        continue
                    return _assemble("write-what-where", steps, ("imm", FILLER_WORD))
        return None

    if isinstance(goal, StackPivot):
        for record in census.records:
            summary = record.summary
            # A pivot gadget lost rsp tracking by construction; require
            # the pivot source to be attacker-settable.
            if summary.stack_delta is not None:
                continue
            pivot_sources = [
                value
                for reg, value in summary.reg_effects
                if reg == "rsp"
            ]
            # rsp effects are not in reg_effects (tracked separately), so
            # look at the recorded pivot via hazards-free heuristic: any
            # ret gadget with unknown delta whose regs_written includes
            # rsp and whose reads include a loadable register.
            if "rsp" not in summary.regs_written:
                continue
            del pivot_sources
            for reg_name in summary.regs_read:
                loader = loaders.get(reg_name)
                if loader is None or reg_name == "rsp":
                    continue
                loader_record, slot, addend = loader
                steps = [(loader_record, {slot: ("imm", (goal.new_rsp - addend) & MASK64)})]
                return _assemble("stack-pivot", steps, ("text", record.offset))
        return None

    raise TypeError(f"unknown goal spec {goal!r}")


# ---------------------------------------------------------------------------
# mined data-pointer map (the AOCR side of the census)
# ---------------------------------------------------------------------------


@dataclass
class DataPointerMap:
    """Statically mined data-section attack surface of one binary.

    All offsets are data-section offsets from the attacker's own copy;
    deriving them needs only the position-independent image (data
    relocations + a text scan) — no defender metadata.
    """

    #: Data slots initialized with code pointers: (data offset, target fn).
    code_pointer_slots: List[Tuple[int, str]]
    #: The slot whose content flows into an indirect call (live handler).
    handler_slot: Optional[int]
    #: Data slot loaded into an argument register at the same call (the
    #: parameter the handler will be invoked with).
    param_slot: Optional[int]
    #: Code-pointer slots whose targets are never directly called —
    #: dormant capabilities worth stealing (data offset, target fn).
    dormant_slots: List[Tuple[int, str]]
    #: Data symbols whose addresses are materialized in text: candidate
    #: identities for a data pointer leaked from the heap (offsets).
    anchor_offsets: List[int]


def mine_data_pointers(binary: Binary) -> DataPointerMap:
    """Mine the data-section pointer topology from a reference binary."""
    from repro.toolchain.callconv import ARG_REGS

    code_pointer_slots = [
        (offset, symbol)
        for offset, symbol, _ in binary.data_relocs
        if symbol in binary.symbols_text
    ]
    direct_targets = set()
    anchors = set()
    for _, instr in binary.text:
        if instr.op is Op.CALL and isinstance(instr.a, Imm) and instr.a.symbol:
            direct_targets.add(instr.a.symbol)
        for operand in (instr.a, instr.b):
            if isinstance(operand, Imm) and operand.symbol in binary.symbols_data:
                anchors.add(binary.symbols_data[operand.symbol])
            if isinstance(operand, Mem) and operand.symbol in binary.symbols_data:
                # Globals addressed directly also anchor the section.
                anchors.add(binary.symbols_data[operand.symbol])

    handler_slot: Optional[int] = None
    param_slot: Optional[int] = None
    arg_names = {reg.name.lower() for reg in ARG_REGS}
    text = binary.text
    for index, (_, instr) in enumerate(text):
        if instr.op is not Op.CALL or not isinstance(instr.a, Reg):
            continue
        # Forward mini-dataflow over the preceding straight-line window:
        # which data symbol flows into the called register, and which
        # into an argument register?
        provenance: Dict[str, Optional[str]] = {}
        start = max(0, index - 16)
        for _, prior in text[start:index]:
            if prior.op in _STOPPERS:
                provenance.clear()
                continue
            if prior.op is Op.MOV and isinstance(prior.a, Reg):
                dest = prior.a.name.lower()
                if isinstance(prior.b, Mem) and prior.b.symbol in binary.symbols_data:
                    provenance[dest] = prior.b.symbol
                elif isinstance(prior.b, Reg):
                    provenance[dest] = provenance.get(prior.b.name.lower())
                else:
                    provenance[dest] = None
        called = provenance.get(instr.a.name.lower())
        if called is not None:
            handler_slot = binary.symbols_data[called]
            for name in arg_names:
                symbol = provenance.get(name)
                if symbol is not None and binary.symbols_data[symbol] != handler_slot:
                    param_slot = binary.symbols_data[symbol]
                    break
            break

    dormant = [
        (offset, symbol)
        for offset, symbol in code_pointer_slots
        if symbol not in direct_targets and offset != handler_slot
    ]
    return DataPointerMap(
        code_pointer_slots=sorted(code_pointer_slots),
        handler_slot=handler_slot,
        param_slot=param_slot,
        dormant_slots=sorted(dormant),
        anchor_offsets=sorted(anchors),
    )


# ---------------------------------------------------------------------------
# concrete validation (the GADGET004 self-check)
# ---------------------------------------------------------------------------


def executable(record: GadgetRecord) -> bool:
    """Can the summary be validated by concrete execution?  Pure ret
    gadgets whose memory effects stay on the (attacker-seeded) stack."""
    summary = record.summary
    if record.kind != "ret" or not summary.pure or summary.stack_delta is None:
        return False
    slots = [address[1] for address in summary.loads]
    slots += [address[1] for address, _ in summary.stores]
    if summary.ret_slot is not None:
        slots.append(summary.ret_slot)
    return all(abs(slot) < 4096 for slot in slots)


def concrete_check(
    binary: Binary, record: GadgetRecord, *, load_seed: int = 0xC0FFEE, rng_seed: int = 0
) -> Optional[str]:
    """Execute the suffix on the reference backend and compare against
    the summary's predictions.  Returns a mismatch description or None.

    The machine stack is seeded with pseudo-random words, every GPR with
    a pseudo-random value, and the gadget entered mid-stream at its text
    offset — exactly how a hijacked return would land on it.
    """
    import random

    from repro.machine.cpu import CPU, ExecutionResult
    from repro.machine.costs import get_costs
    from repro.machine.loader import load_binary

    if not executable(record):
        return "record is not statically executable"
    summary = record.summary
    process = load_binary(binary, seed=load_seed, execute_only=False)
    cpu = CPU(process, get_costs("epyc-rome"), backend="reference")
    layout = process.layout

    rng = random.Random((rng_seed << 16) ^ record.offset ^ record.length)
    entry_rsp = layout.stack_base + (layout.stack_size // 2 & ~0xF)
    init_regs: Dict[int, int] = {}
    for reg in range(16):
        if reg == int(Reg.RSP):
            continue
        value = rng.getrandbits(64)
        cpu.regs[reg] = value
        init_regs[reg] = value
    cpu.regs[Reg.RSP] = entry_rsp

    low = entry_rsp - 8 * 1024
    high = entry_rsp + 8 * 1024
    stack_words: Dict[int, int] = {}
    for address in range(low, high, WORD):
        word = rng.getrandbits(64)
        process.memory.write_word(address, word)
        stack_words[address] = word

    def evaluate(value: Tuple) -> Optional[int]:
        kind = value[0]
        if kind == "const":
            return value[1] & MASK64
        if kind == "ireg":
            return (init_regs[value[1]] + value[2]) & MASK64
        if kind == "sld":
            return (stack_words[entry_rsp + value[1]] + value[2]) & MASK64
        if kind == "rsp":
            return (entry_rsp + value[1]) & MASK64
        return None  # glob/sym need the image map; skip

    cpu.rip = layout.text_base + record.offset
    result = ExecutionResult()
    output_before = len(process.output)
    cpu.step(result, max_steps=record.length)

    if summary.stack_delta is not None:
        want_rsp = (entry_rsp + summary.stack_delta) & MASK64
        if cpu.regs[Reg.RSP] != want_rsp:
            return f"rsp: predicted {want_rsp:#x}, got {cpu.regs[Reg.RSP]:#x}"
    if summary.ret_slot is not None:
        want_rip = stack_words[entry_rsp + summary.ret_slot]
        if cpu.rip != want_rip:
            return f"rip: predicted {want_rip:#x}, got {cpu.rip:#x}"
    for reg_name, value in summary.reg_effects:
        predicted = evaluate(value)
        if predicted is None:
            continue
        got = cpu.regs[Reg[reg_name.upper()]]
        if got != predicted:
            return f"{reg_name}: predicted {predicted:#x}, got {got:#x}"
    emitted = process.output[output_before:]
    predicted_out = [evaluate(value) for value in summary.out_values]
    if len(emitted) != len(predicted_out):
        return f"out: predicted {len(predicted_out)} words, got {len(emitted)}"
    for index, (want, got) in enumerate(zip(predicted_out, emitted)):
        if want is not None and want != got:
            return f"out[{index}]: predicted {want:#x}, got {got:#x}"
    return None


# ---------------------------------------------------------------------------
# findings (GADGET rule family)
# ---------------------------------------------------------------------------

#: Capabilities that make a surviving gadget *dangerous* — directly
#: usable by the synthesizer rather than mere chaff.
DANGEROUS_CAPABILITIES = frozenset(
    {"write-mem", "emit-out", "stack-pivot", "dispatch"}
)


def _is_dangerous(summary: GadgetSummary) -> bool:
    caps = summary.capabilities()
    if caps & DANGEROUS_CAPABILITIES:
        return True
    return any(cap.startswith("load-reg:") for cap in caps)


def gadget_findings(
    censuses: Sequence[GadgetCensus],
    seeds: Sequence[int],
    *,
    diversified: bool,
    chains: Sequence[Chain] = (),
) -> FindingsReport:
    """Report invariant dangerous gadgets and transferring chains.

    Only *diversified* variant sets produce findings: surviving gadgets
    across identical builds are expected, not a defect.
    """
    report = FindingsReport()
    if not diversified or len(censuses) < 2:
        return report
    invariants = find_invariants(censuses, seeds)
    by_pinned: Dict[Tuple[int, str], GadgetRecord] = {}
    for census in censuses:
        for record in census.records:
            by_pinned.setdefault((record.offset, record.key), record)
    for offset, key, kind in invariants.pinned:
        record = by_pinned[(offset, key)]
        if not _is_dangerous(record.summary):
            continue
        rule = "GADGET001" if kind == "ret" else "GADGET002"
        report.add(
            rule,
            where=f"text+{offset:#x}",
            message=f"{kind} gadget survives position-pinned across seeds {list(seeds)}",
            detail="; ".join(record.text),
        )
    for chain in chains:
        for index, census in enumerate(censuses[1:], start=1):
            if chain.transfers_to(census):
                report.add(
                    "GADGET003",
                    where=f"chain:{chain.goal}",
                    message=(
                        f"synthesized {chain.goal} chain from seed {seeds[0]} "
                        f"transfers position-pinned to seed {seeds[index]}"
                    ),
                    detail=f"{len(chain.gadgets)} gadgets, {len(chain.words)} stack words",
                )
    return report


def selfcheck(
    binary: Binary, census: GadgetCensus, *, sample: int = 24, rng_seed: int = 0
) -> Tuple[int, FindingsReport]:
    """Concretely validate a deterministic sample of executable records.

    Returns (records checked, findings) — any mismatch is a GADGET004.
    """
    report = FindingsReport()
    candidates = [record for record in census.records if executable(record)]
    # Deterministic spread across the census, longest suffixes first so
    # multi-effect summaries get covered.
    candidates.sort(key=lambda record: (-record.length, record.offset))
    step = max(1, len(candidates) // sample) if candidates else 1
    chosen = candidates[::step][:sample]
    for record in chosen:
        mismatch = concrete_check(binary, record, rng_seed=rng_seed)
        if mismatch is not None:
            report.add(
                "GADGET004",
                where=f"text+{record.offset:#x}+{record.length}",
                message="semantic summary failed concrete re-execution",
                detail=mismatch,
            )
    return len(chosen), report


# ---------------------------------------------------------------------------
# the repro-gadgets/v1 artifact
# ---------------------------------------------------------------------------

SCHEMA = "repro-gadgets/v1"


@dataclass
class MineReport:
    """Everything one ``python -m repro mine`` invocation measured."""

    workload: str
    config: str
    seeds: List[int]
    window: int
    variants: List[Dict[str, object]] = field(default_factory=list)
    survival: Dict[str, Dict[str, object]] = field(default_factory=dict)
    invariants: Dict[str, object] = field(default_factory=dict)
    synthesis: List[Dict[str, object]] = field(default_factory=list)
    data_map: Dict[str, object] = field(default_factory=dict)
    selfcheck: Dict[str, int] = field(default_factory=dict)
    findings: List[Dict[str, object]] = field(default_factory=list)
    ok: bool = True

    def to_json(self) -> str:
        payload = {
            "schema": SCHEMA,
            "workload": self.workload,
            "config": self.config,
            "seeds": self.seeds,
            "window": self.window,
            "variants": self.variants,
            "survival": self.survival,
            "invariants": self.invariants,
            "synthesis": self.synthesis,
            "data_map": self.data_map,
            "selfcheck": self.selfcheck,
            "findings": self.findings,
            "ok": self.ok,
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    def render(self) -> str:
        lines = [
            f"gadget census: {self.workload} under {self.config}, "
            f"{len(self.seeds)} variants (seeds {self.seeds}), window {self.window}"
        ]
        for variant in self.variants:
            counts = variant["counts"]
            lines.append(
                f"  seed {variant['seed']:>4}: {variant['total']:5d} gadgets "
                f"(ret {counts['ret']}, jop-jmp {counts['jop-jmp']}, "
                f"jop-call {counts['jop-call']}), "
                f"{variant['semantic_classes']} semantic classes"
            )
        for mode in ("text_pinned", "semantic_pinned", "semantic_independent"):
            if mode in self.survival:
                row = self.survival[mode]
                lines.append(
                    f"  survival [{mode:>20}]: mean {row['mean']:.4f}, max {row['max']:.4f}"
                )
        if self.invariants:
            lines.append(
                f"  invariant classes: {self.invariants['position_pinned']} pinned, "
                f"{self.invariants['position_independent']} position-independent "
                f"({self.invariants['dangerous_pinned']} dangerous pinned)"
            )
        for row in self.synthesis:
            status = "solved" if row["solved"] else "unsolved"
            extra = (
                f": {row['gadgets']} gadgets, {row['words']} stack words"
                if row["solved"]
                else ""
            )
            lines.append(f"  synthesize [{row['goal']:>18}]: {status}{extra}")
        if self.selfcheck:
            lines.append(
                f"  selfcheck: {self.selfcheck['checked']} summaries re-executed, "
                f"{self.selfcheck['mismatches']} mismatches"
            )
        lines.append(f"  findings: {len(self.findings)}")
        return "\n".join(lines)


def validate(payload: Dict[str, object]) -> List[str]:
    """Schema check for a parsed repro-gadgets/v1 artifact."""
    problems = []
    if payload.get("schema") != SCHEMA:
        problems.append(f"schema is {payload.get('schema')!r}, want {SCHEMA!r}")
        return problems
    for field_name in ("workload", "config", "seeds", "window", "variants", "survival", "synthesis"):
        if field_name not in payload:
            problems.append(f"missing field {field_name!r}")
    seeds = payload.get("seeds")
    if not isinstance(seeds, list) or len(seeds) < 2:
        problems.append("seeds must list at least two variants")
    variants = payload.get("variants", [])
    if isinstance(variants, list):
        if isinstance(seeds, list) and len(variants) != len(seeds):
            problems.append("one variants row per seed required")
        for row in variants:
            counts = row.get("counts", {}) if isinstance(row, dict) else {}
            for kind in ("ret", "jop-jmp", "jop-call"):
                if kind not in counts:
                    problems.append(f"variant row missing count {kind!r}")
                    break
            if isinstance(row, dict) and row.get("total", -1) != sum(counts.values()):
                problems.append("variant total does not equal the kind counts")
    else:
        problems.append("variants must be a list")
    survival = payload.get("survival", {})
    if isinstance(survival, dict):
        for mode in ("text_pinned", "semantic_pinned", "semantic_independent"):
            row = survival.get(mode)
            if not isinstance(row, dict) or "mean" not in row or "max" not in row:
                problems.append(f"survival missing mode {mode!r}")
            else:
                for stat in ("mean", "max"):
                    value = row[stat]
                    if not isinstance(value, (int, float)) or not 0.0 <= value <= 1.0:
                        problems.append(f"survival {mode}.{stat} out of [0,1]")
    else:
        problems.append("survival must be a mapping")
    for row in payload.get("synthesis", []) or []:
        if not isinstance(row, dict) or "goal" not in row or "solved" not in row:
            problems.append("synthesis rows need goal and solved")
            break
    return problems


def mine(
    module,
    config,
    seeds: Sequence[int],
    *,
    workload: str = "module",
    config_name: str = "config",
    entry: str = "main",
    window: int = GADGET_WINDOW,
    check_sample: int = 24,
) -> MineReport:
    """Compile N variants, census them, intersect, synthesize, self-check."""
    from repro.core.compiler import compile_module  # deferred: avoids cycle

    seeds = list(seeds)
    if len(seeds) < 2:
        raise ValueError("mining needs at least two seed variants")
    binaries = []
    censuses = []
    for seed in seeds:
        variant_config = config.replace(seed=seed, verify=False)
        binary = compile_module(module, variant_config, entry=entry)
        binaries.append(binary)
        censuses.append(take_census(binary, window=window, seed=seed))

    report = MineReport(
        workload=workload, config=config_name, seeds=seeds, window=window
    )
    for seed, census in zip(seeds, censuses):
        report.variants.append(
            {
                "seed": seed,
                "counts": census.counts,
                "total": len(census.records),
                "semantic_classes": len(census.keys()),
            }
        )

    def survival_stats(pairs: List[Tuple[int, int, float]]) -> Dict[str, object]:
        fractions = [fraction for _, _, fraction in pairs]
        return {
            "pairs": [[a, b, round(fraction, 6)] for a, b, fraction in pairs],
            "mean": sum(fractions) / len(fractions) if fractions else 0.0,
            "max": max(fractions, default=0.0),
        }

    text_pairs = []
    for i in range(len(censuses)):
        for j in range(i + 1, len(censuses)):
            texts_i, texts_j = censuses[i].texts(), censuses[j].texts()
            smaller = min(len(texts_i), len(texts_j)) or 1
            text_pairs.append((seeds[i], seeds[j], len(texts_i & texts_j) / smaller))
    invariants = find_invariants(censuses, seeds)
    report.survival = {
        "text_pinned": survival_stats(text_pairs),
        "semantic_pinned": survival_stats(invariants.pairwise_pinned),
        "semantic_independent": survival_stats(invariants.pairwise_independent),
    }
    dangerous_pinned = 0
    by_pinned: Dict[Tuple[int, str], GadgetRecord] = {}
    for census in censuses:
        for record in census.records:
            by_pinned.setdefault((record.offset, record.key), record)
    for offset, key, _ in invariants.pinned:
        if _is_dangerous(by_pinned[(offset, key)].summary):
            dangerous_pinned += 1
    report.invariants = {
        "position_pinned": len(invariants.pinned),
        "position_independent": len(invariants.independent),
        "dangerous_pinned": dangerous_pinned,
    }

    # Synthesis against the first variant (the attacker's copy).
    first = censuses[0]
    entry_offset = min(
        (record.entry_offset for record in binaries[0].frame_records.values()),
        default=0,
    )
    goals = [
        ("emit-output", EmitOutput(0xDEAD_5CA7)),
        ("reg-load-then-call", RegLoadThenCall(None, 0x5CA7, entry_offset)),
        ("write-what-where", WriteWhatWhere(0xD47A_0000, 0x5CA7)),
        ("stack-pivot", StackPivot(0x57AC_0000)),
    ]
    chains = []
    for name, goal in goals:
        chain = synthesize(first, goal)
        row: Dict[str, object] = {"goal": name, "solved": chain is not None}
        if chain is not None:
            chains.append(chain)
            row["gadgets"] = len(chain.gadgets)
            row["words"] = len(chain.words)
            row["transfers"] = {
                str(seeds[index]): chain.transfers_to(censuses[index])
                for index in range(1, len(censuses))
            }
        report.synthesis.append(row)

    data_map = mine_data_pointers(binaries[0])
    report.data_map = {
        "code_pointer_slots": [[offset, symbol] for offset, symbol in data_map.code_pointer_slots],
        "handler_slot": data_map.handler_slot,
        "param_slot": data_map.param_slot,
        "dormant_slots": [[offset, symbol] for offset, symbol in data_map.dormant_slots],
        "anchor_offsets": data_map.anchor_offsets,
    }

    checked, check_report = selfcheck(binaries[0], first, sample=check_sample)
    report.selfcheck = {"checked": checked, "mismatches": len(check_report.findings)}

    findings = gadget_findings(
        censuses, seeds, diversified=config.any_diversification, chains=chains
    )
    findings.extend(check_report)
    report.findings = [
        {
            "rule": finding.rule,
            "where": finding.where,
            "message": finding.message,
            "detail": finding.detail,
        }
        for finding in findings
    ]
    report.ok = not check_report.findings
    return report
