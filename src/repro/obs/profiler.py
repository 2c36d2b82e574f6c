"""Hot-path profiler: per-RIP / per-function cycle attribution.

:class:`CycleProfiler` rides the CPU's per-instruction trace hook
(``cpu.trace_fn``), which every execution backend invokes *before* each
instruction with identical streams.  It recomputes each instruction's
cycle cost exactly as the backends do — per-opcode base cost, i-cache
miss penalties replayed through a private shadow :class:`ICache` fed the
same access sequence, and the memory-operand surcharge — accumulated in
the same exact integer cycle units the backends fold
(:data:`repro.machine.costs.CYCLE_UNIT`), so the profile is
byte-identical across backends and its total equals
``ExecutionResult.cycles`` exactly: both sides sum the same integers and
divide once.

Call stacks are walked from control flow, not from stack memory: a
``CALL`` opens a frame, a ``RET`` closes one.  That is what makes the
stacks correct under R2C's camouflage — BTRA displaces return addresses
on the *stack*, but the executed instruction stream still brackets every
frame with CALL/RET.  Two deliberate resync rules absorb the remaining
diversification shapes:

* An intra-frame transfer into a different symbol (a CPH trampoline
  ``JMP``-ing to its target, fall-through past a function boundary)
  renames the current frame rather than pushing a bogus one.
* A ``RET`` that lands somewhere other than the symbol that called out
  (a detonating booby trap, a mid-unwind fault) re-anchors the top frame
  at the landing symbol.

Output shapes: a per-function table (:meth:`report`), per-RIP buckets
(:attr:`rip_cycles`), and Brendan-Gregg folded stacks
(:meth:`folded_stacks`) ready for ``flamegraph.pl`` or any flamegraph
viewer.  Exposed on the CLI as ``python -m repro profile <workload>``.

The profiler is strictly passive: it reads machine state and never
mutates it, so attaching one cannot change ``ExecutionResult``, faults,
or the final ``rip`` (a property test enforces this).
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, List, Optional, Tuple

from repro.machine.costs import CYCLE_UNIT
from repro.machine.icache import ICache
from repro.machine.isa import Mem, Op

__all__ = ["CycleProfiler"]

#: Frame label for instructions outside every known text symbol.
UNKNOWN_FUNCTION = "?"


class CycleProfiler:
    """Attach to a :class:`~repro.machine.cpu.CPU`, run, read the profile.

    Usage::

        cpu = CPU(process, costs, backend="jit")
        profiler = CycleProfiler(cpu)
        cpu.run()
        print(profiler.report())

    The constructor installs itself as ``cpu.trace_fn`` (chaining any
    hook already present — the debugger, a test spy — which keeps firing
    first); :meth:`detach` restores the previous hook.

    ``variant`` optionally names the machine state being profiled (e.g.
    ``"v1"`` in an N-variant lockstep group): it becomes the root frame
    of every folded stack, so N per-variant profiles concatenate into one
    flamegraph with a subtree per variant.  The default (``None``) leaves
    all keys exactly as before.
    """

    def __init__(self, cpu, *, variant: Optional[str] = None):
        self.cpu = cpu
        self.variant = variant
        self._prefix = f"{variant};" if variant else ""
        costs = cpu.costs
        self._op_units = costs.op_unit_costs
        self._mem_extra_units = costs.mem_operand_extra_units
        self._miss_penalty_units = costs.icache_miss_penalty_units
        # Shadow replay: fed the same access stream as the real i-cache
        # (the trace hook fires before the backend's own access), this
        # cache reproduces each instruction's hit/miss outcome exactly.
        self._shadow = ICache(costs.icache_size, costs.icache_line, costs.icache_ways)
        self._starts, self._names = self._symbol_table(cpu.process)
        #: Cycle units / executed-instruction counts keyed by address.
        self.rip_cycle_units: Dict[int, int] = {}
        self.rip_counts: Dict[int, int] = {}
        #: Cycle units keyed by enclosing function symbol.
        self.func_cycle_units: Dict[str, int] = {}
        #: Cycle units keyed by semicolon-joined call stack (folded form).
        self.stack_cycle_units: Dict[str, int] = {}
        #: Exact integer-unit total — ``CYCLE_UNIT`` units per cycle.
        self.total_cycle_units = 0
        self.instructions = 0
        self._stack: List[str] = []
        self._pending: Optional[str] = None
        self._chained = cpu.trace_fn
        # One stable bound-method object: attribute access mints a fresh
        # one each time, which would defeat detach()'s identity check.
        self._hook = self._trace
        cpu.trace_fn = self._hook

    @staticmethod
    def _symbol_table(process) -> Tuple[List[int], List[str]]:
        layout = process.layout
        text_end = layout.text_base + layout.text_size
        pairs = sorted(
            (address, name)
            for name, address in process.symbols.items()
            # Block labels ("fn::.Lbb") would fragment frames into basic
            # blocks; attribution is per function symbol.
            if layout.text_base <= address < text_end and "::" not in name
        )
        return [address for address, _ in pairs], [name for _, name in pairs]

    def _function_at(self, rip: int) -> str:
        index = bisect_right(self._starts, rip) - 1
        return self._names[index] if index >= 0 else UNKNOWN_FUNCTION

    def detach(self) -> None:
        """Restore the trace hook this profiler displaced."""
        if self.cpu.trace_fn is self._hook:
            self.cpu.trace_fn = self._chained

    # -- derived float views (one exact division per value) ------------------

    @property
    def total_cycles(self) -> float:
        """Total cycles — equals ``ExecutionResult.cycles`` exactly."""
        return self.total_cycle_units / CYCLE_UNIT

    @property
    def rip_cycles(self) -> Dict[int, float]:
        return {rip: units / CYCLE_UNIT for rip, units in self.rip_cycle_units.items()}

    @property
    def func_cycles(self) -> Dict[str, float]:
        return {fn: units / CYCLE_UNIT for fn, units in self.func_cycle_units.items()}

    @property
    def stack_cycles(self) -> Dict[str, float]:
        return {key: units / CYCLE_UNIT for key, units in self.stack_cycle_units.items()}

    # -- the hook -----------------------------------------------------------

    def _trace(self, cpu, rip, instr) -> None:
        if self._chained is not None:
            self._chained(cpu, rip, instr)
        op = instr.op
        cost = self._op_units[op]
        misses = self._shadow.access(rip, instr.size)
        if misses:
            cost += misses * self._miss_penalty_units
        if isinstance(instr.a, Mem) or isinstance(instr.b, Mem):
            cost += self._mem_extra_units

        fn = self._function_at(rip)
        stack = self._stack
        pending = self._pending
        if pending == "call":
            stack.append(fn)
        elif pending == "ret":
            if stack:
                stack.pop()
            if not stack:
                stack.append(fn)
            elif stack[-1] != fn:
                # Returned somewhere other than the caller symbol (booby
                # trap detonation path, mid-unwind landing): re-anchor.
                stack[-1] = fn
        else:
            if not stack:
                stack.append(fn)
            elif stack[-1] != fn:
                # Intra-frame transfer into another symbol: a CPH
                # trampoline JMP-ing to its target, or fall-through past
                # a boundary.  Same frame, new name.
                stack[-1] = fn
        self._pending = (
            "call" if op is Op.CALL else ("ret" if op is Op.RET else None)
        )

        self.instructions += 1
        self.total_cycle_units += cost
        units = self.rip_cycle_units
        units[rip] = units.get(rip, 0) + cost
        self.rip_counts[rip] = self.rip_counts.get(rip, 0) + 1
        units = self.func_cycle_units
        units[fn] = units.get(fn, 0) + cost
        key = self._prefix + ";".join(stack)
        units = self.stack_cycle_units
        units[key] = units.get(key, 0) + cost

    # -- output -------------------------------------------------------------

    def folded_stacks(self) -> str:
        """Folded-stack (flamegraph collapse) text: ``a;b;c <cycles>``.

        Deterministic: sorted by stack key, cycle counts formatted
        identically for identical runs — the differential tests compare
        this string byte-for-byte across backends.
        """
        return "\n".join(
            f"{key} {units / CYCLE_UNIT:.3f}"
            for key, units in sorted(self.stack_cycle_units.items())
        )

    def per_function(self) -> List[Tuple[str, float]]:
        """(function, cycles) hottest-first; ties broken by name."""
        ranked = sorted(self.func_cycle_units.items(), key=lambda kv: (-kv[1], kv[0]))
        return [(fn, units / CYCLE_UNIT) for fn, units in ranked]

    def hottest_rips(self, count: int = 10) -> List[Tuple[int, float, int]]:
        """(rip, cycles, executions) for the ``count`` hottest addresses."""
        ranked = sorted(
            self.rip_cycle_units.items(), key=lambda kv: (-kv[1], kv[0])
        )[:count]
        return [(rip, units / CYCLE_UNIT, self.rip_counts[rip]) for rip, units in ranked]

    def report(self, top: int = 15) -> str:
        """Human-readable profile: per-function table + hottest addresses."""
        lines = [
            f"Cycle profile: {self.instructions} instructions, "
            f"{self.total_cycles:.0f} cycles",
            "",
            f"{'function':24s} {'cycles':>12s} {'share':>7s}",
        ]
        total = self.total_cycles or 1.0
        for name, cycles in self.per_function()[:top]:
            lines.append(f"{name:24s} {cycles:12.0f} {100.0 * cycles / total:6.1f}%")
        lines.append("")
        lines.append(f"{'address':>10s} {'cycles':>12s} {'execs':>8s} function")
        for rip, cycles, execs in self.hottest_rips(top):
            lines.append(
                f"{rip:#10x} {cycles:12.0f} {execs:8d} {self._function_at(rip)}"
            )
        return "\n".join(lines)
