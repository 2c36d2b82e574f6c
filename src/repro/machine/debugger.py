"""A single-stepping debugger over the backend ``step`` primitive.

Supports breakpoints (by address or symbol), single-stepping, and memory
watchpoints.  The debugger drives a :class:`MachineState` explicitly
through :meth:`ExecutionBackend.step` — it does not occupy the trace
hook, so profilers and test spies can ride ``trace_fn`` unchanged while
a debugging session is active.

Because backend stepping is byte-identical to uninterrupted execution
(same counters, same float ``cycles`` fold, same faults — see
:mod:`repro.machine.backends`), a debugged run's accumulated
:class:`ExecutionResult` now *equals* the undebugged run's exactly.
Historical note: the previous trace-hook implementation aborted out of
the interpreter loop with an internal exception after the stopped-at
instruction had already been fetched and counted, so every stop inflated
the instruction count by one and resuming re-fetched the same
instruction.  The step-based debugger has no such refetch — stopping is
simply not-yet-executing.

The wrapped target can be a full :class:`~repro.machine.cpu.CPU` (its
bound backend is used) or a bare :class:`MachineState` plus a backend
name — the tooling used by the race-window ablation and handy for
diagnosing diversified binaries.

Stepping composes with the ``jit`` backend through its deopt contract: a
one-instruction step slice can never satisfy a compiled block prolog's
folded instruction allowance, so stepped segments run interpreter-exact
and a later ``cont`` re-enters compiled code at the next block head —
with identical counters either way (``tests/test_jit.py`` holds a
breakpointed, stepped jit session byte-identical to ``reference``, including
through BTRA-displaced returns).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.errors import MachineError
from repro.machine.cpu import ExecutionResult
from repro.machine.state import MachineState


class Debugger:
    """Wraps a machine state with breakpoints, stepping, and watchpoints."""

    def __init__(self, target: MachineState, *, backend: Optional[str] = None):
        from repro.machine.backends import DEFAULT_BACKEND, get_backend

        # One driver per state: a second debugger would fight the first
        # over stepping and fetch state.  (Passive trace hooks — the
        # profiler, test spies — may still chain on ``trace_fn``.)
        if getattr(target, "debugger_attached", False):
            raise ValueError("a debugger is already attached to this CPU")
        target.debugger_attached = True
        self.state = target
        name = backend if backend is not None else getattr(target, "backend_name", None)
        self._backend = get_backend(name if name is not None else DEFAULT_BACKEND)
        self._program = self._backend.prepare(target)
        self.breakpoints: Set[int] = set()
        self.watchpoints: Dict[int, int] = {}  # address -> last seen value
        self.watch_hits: List[Dict] = []
        self.result = ExecutionResult()
        self._started = False
        self._finished = False

    # -- configuration ----------------------------------------------------

    def add_breakpoint(self, address: int) -> None:
        self.breakpoints.add(address)

    def break_at(self, symbol: str) -> int:
        """Breakpoint at a symbol; returns the resolved address."""
        address = self.state.process.symbols[symbol]
        self.add_breakpoint(address)
        return address

    def remove_breakpoint(self, address: int) -> None:
        self.breakpoints.discard(address)

    def add_watchpoint(self, address: int) -> None:
        self.watchpoints[address] = self.state.process.memory.load_word_raw(address)

    # -- execution ----------------------------------------------------------

    def _ensure_started(self) -> None:
        if self._started:
            return
        entry = self.state.process.entry_point
        if entry is None:
            raise MachineError("process has no entry point")
        self.state.rip = entry
        self.state._halted = False
        self._started = True

    def _check_watchpoints(self) -> None:
        if not self.watchpoints:
            return
        rip = self.state.rip
        memory = self.state.process.memory
        for address, old in list(self.watchpoints.items()):
            new = memory.load_word_raw(address)
            if new != old:
                self.watch_hits.append(
                    {"address": address, "old": old, "new": new, "rip": rip}
                )
                self.watchpoints[address] = new

    def _step_one(self) -> bool:
        """Advance exactly one instruction; returns True on program exit."""
        finished = self._backend.step(self._program, self.state, self.result, 1)
        self._check_watchpoints()
        if finished:
            self._finished = True
        return finished

    def cont(self) -> bool:
        """Continue to the next breakpoint (or program exit).

        Stops *before* executing a breakpointed instruction (``rip``
        parks on the breakpoint address); the next ``cont``/``step``
        executes it first, so resuming never re-fetches anything.
        """
        self._ensure_started()
        while True:
            if self._step_one():
                return True
            if self.state.rip in self.breakpoints:
                return False

    def step(self, count: int = 1) -> bool:
        """Execute ``count`` instructions, then stop.  Returns True if the
        program finished within the allotted steps."""
        self._ensure_started()
        if not self.watchpoints:
            finished = self._backend.step(self._program, self.state, self.result, count)
            if finished:
                self._finished = True
            return finished
        for _ in range(count):
            if self._step_one():
                return True
        return False

    # -- inspection --------------------------------------------------------------

    @property
    def finished(self) -> bool:
        return self._finished

    @property
    def rip(self) -> int:
        return self.state.rip

    def current_function(self) -> Optional[str]:
        process = self.state.process
        if process.binary is None:
            return None
        return process.binary.function_at_offset(self.rip - process.text_base)

    def read_words(self, address: int, count: int) -> List[int]:
        memory = self.state.process.memory
        return [memory.load_word_raw(address + 8 * k) for k in range(count)]
