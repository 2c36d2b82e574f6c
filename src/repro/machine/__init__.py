"""Simulated x86-64-style machine: memory, ISA, CPU, process image.

This package is the hardware/OS substrate the paper's LLVM prototype
assumes.  It provides:

* :mod:`repro.machine.memory` — paged virtual memory with R/W/X permissions,
  execute-only pages, and guard pages (the mechanism behind BTDPs).
* :mod:`repro.machine.isa` — the instruction set the toolchain targets,
  including ``push``/``call``/``ret`` with x86 semantics (a ``call``
  overwrites the word at the new stack-pointer position, which the BTRA
  setup sequence of Section 5.1 relies on) and AVX2-style batched stores.
* :mod:`repro.machine.icache` / :mod:`repro.machine.costs` — the cycle cost
  model, including an instruction-cache simulator that reproduces why the
  push-based BTRA setup is slower than the AVX2 one (Section 6.2.1).
* :mod:`repro.machine.state` — :class:`MachineState`, the architectural
  state (registers, flags, shadow stack, i-cache) as a first-class,
  snapshot-able value; one decoded program can drive N states.
* :mod:`repro.machine.cpu` — the classic ``CPU`` façade: one state bound
  to one decoded program under a named backend, with cycle/call
  accounting in :class:`ExecutionResult`.
* :mod:`repro.machine.backends` / :mod:`repro.machine.jit` — the
  execution backends: the ``reference`` interpreter loop (the oracle)
  and the ``jit`` engine, which lowers hot blocks lazily to compiled
  Python functions (:mod:`repro.machine.blocks`) and runs cold spans on
  the reference loop, with byte-identical results.
* :mod:`repro.machine.process` — the process image with ASLR over text,
  data, heap and stack regions.
* :mod:`repro.machine.loader` — maps a linked binary into a process.
"""

from repro.machine.memory import Memory, Perm, PAGE_SIZE
from repro.machine.isa import (
    Imm,
    Instruction,
    Label,
    Mem,
    Op,
    Reg,
    WORD,
)
from repro.machine.costs import MachineCosts, MACHINE_PRESETS
from repro.machine.icache import ICache
from repro.machine.state import MachineState
from repro.machine.cpu import CPU, ExecutionResult
from repro.machine.backends import (
    ExecutionBackend,
    available_backends,
    get_backend,
    register_backend,
)
from repro.machine.process import AddressSpaceLayout, Process
from repro.machine.loader import load_binary

__all__ = [
    "Memory",
    "Perm",
    "PAGE_SIZE",
    "WORD",
    "Op",
    "Reg",
    "Imm",
    "Mem",
    "Label",
    "Instruction",
    "MachineCosts",
    "MACHINE_PRESETS",
    "ICache",
    "MachineState",
    "CPU",
    "ExecutionResult",
    "ExecutionBackend",
    "available_backends",
    "get_backend",
    "register_backend",
    "AddressSpaceLayout",
    "Process",
    "load_binary",
]
