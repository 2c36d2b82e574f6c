"""Per-layer instrumentation for the benchmark, installed from outside the package.

Two pieces, both reversible:

* :class:`SimCounter` sums the simulated counters of every ``CPU.run``
  (instructions, cycles, i-cache hits and misses).  It is installed in
  every run, traced or not: it adds one object allocation and four
  additions per guest run, never per guest instruction.
* :class:`LayerTracer` turns the program's own ``repro.obs.tracing``
  spans on and adds spans around the public functions of the layers that
  have none of their own.  It is installed for the traced phase only.

Many modules bind these functions with ``from … import``, so a wrapper
replaces the name in every loaded ``repro`` module that holds the
original object, and :meth:`LayerTracer.uninstall` puts every one back.

A span's *self time* is its duration minus the part of it its children
cover; summed over an op's span tree, self times add up to the op span's
duration.  Each span name maps to one layer (:func:`layer_of`); a span
whose name maps to none (for example one a later version of the program
adds) is charged to its nearest mapped ancestor.
"""

from __future__ import annotations

import builtins
import sys
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.obs import tracing
from repro.obs.tracing import Span

#: Span names opened by the benchmark's own wrappers.
OP_SPAN = "bench/op"
LOAD_SPAN = "machine/load"
RUN_SPAN = "machine/run"
CODEGEN_SPAN = "machine/jit-codegen"
BTDP_SPAN = "core/btdp-ctor"
MALLOC_SPAN = "heap/malloc"
PROBE_SPAN = "attacks/probe"
LOCKSTEP_SPAN = "defenses/lockstep"
MINE_SPAN = "analysis/mine"

_FIXED_LAYERS = {
    OP_SPAN: "bench.op_self_ms",
    LOAD_SPAN: "machine.load_ms",
    RUN_SPAN: "machine.jit.exec_self_ms",
    CODEGEN_SPAN: "machine.jit.codegen_ms",
    BTDP_SPAN: "core.btdp_ctor_ms",
    MALLOC_SPAN: "heap.malloc_ms",
    PROBE_SPAN: "attacks.probe_ms",
    LOCKSTEP_SPAN: "defenses.lockstep_ms",
    MINE_SPAN: "analysis.mine_ms",
    "compile/opt": "toolchain.opt_ms",
    "compile/link": "toolchain.link_ms",
}


def layer_of(name: str) -> Optional[str]:
    """The self-time metric a span of this name is charged to, if any."""
    layer = _FIXED_LAYERS.get(name)
    if layer is not None:
        return layer
    if name.startswith("compile/pass:"):
        return f"core.pass.{name[len('compile/pass:'):]}_ms"
    if name.startswith("compile/"):
        return "core.compile_ms"
    if name.startswith("engine/"):
        return "eval.engine_self_ms"
    return None


class SimCounter:
    """Sums the simulated counters of every ``CPU.run`` while installed."""

    def __init__(self) -> None:
        self.instructions = 0
        self.cycles = 0.0
        self.icache_hits = 0
        self.icache_misses = 0
        self.runs = 0
        self._original: Optional[Callable] = None

    def install(self) -> None:
        from repro.machine.cpu import CPU, ExecutionResult

        original = self._original = CPU.run
        counter = self

        def run(cpu, entry=None, result=None):
            # Passing a result in keeps the counters of a run that faults.
            res = result if result is not None else ExecutionResult()
            try:
                return original(cpu, entry, res)
            finally:
                counter.instructions += res.instructions
                counter.cycles += res.cycles
                counter.icache_hits += res.icache_hits
                counter.icache_misses += res.icache_misses
                counter.runs += 1

        CPU.run = run

    def uninstall(self) -> None:
        from repro.machine.cpu import CPU

        if self._original is not None:
            CPU.run = self._original
            self._original = None

    def snapshot(self) -> Tuple[int, float, int, int, int]:
        return (self.instructions, self.cycles, self.icache_hits, self.icache_misses, self.runs)


def _rebind(original: Callable, replacement: Callable) -> List[Tuple[object, str]]:
    """Point every loaded ``repro`` module's binding of ``original`` at
    ``replacement``; returns the (module, name) pairs changed."""
    changed = []
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "repro" or module_name.startswith("repro.")):
            continue
        for name, value in list(vars(module).items()):
            if value is original:
                setattr(module, name, replacement)
                changed.append((module, name))
    return changed


class LayerTracer:
    """Turns tracing on and wraps each layer's public entry points in spans.

    ``install`` and ``uninstall`` bracket the traced phase; the spans stay
    in the program's process collector until :meth:`take_spans`.
    """

    def __init__(self) -> None:
        self._restore: List[Callable[[], None]] = []
        self._was_enabled = False
        #: Distinct loaded images: (module fingerprint, config digest) -> text bytes.
        self.text_bytes: Dict[Tuple[str, str], int] = {}
        self._mark = 0

    # -- wrapping -----------------------------------------------------------

    @staticmethod
    def _spanned(original: Callable, span_name: str, args_of: Optional[Callable]) -> Callable:
        def wrapper(*args, **kwargs):
            extra = args_of(*args, **kwargs) if args_of is not None else {}
            with tracing.span(span_name, "bench", **extra):
                return original(*args, **kwargs)

        return wrapper

    def _wrap_function(self, owner: object, attr: str, span_name: str,
                       args_of: Optional[Callable] = None) -> None:
        original = getattr(owner, attr)
        wrapper = self._spanned(original, span_name, args_of)
        changed = _rebind(original, wrapper)
        if not any(module is owner for module, _ in changed):
            setattr(owner, attr, wrapper)
            changed.append((owner, attr))

        def restore() -> None:
            for module, name in changed:
                setattr(module, name, original)

        self._restore.append(restore)

    def _wrap_method(self, cls: type, attr: str, span_name: str,
                     args_of: Optional[Callable] = None) -> None:
        original = cls.__dict__[attr]
        setattr(cls, attr, self._spanned(original, span_name, args_of))
        self._restore.append(lambda: setattr(cls, attr, original))

    def install(self) -> None:
        from repro.analysis import gadgets
        from repro.attacks.scenario import VictimSession
        from repro.core.runtime import BtdpConstructor
        from repro.defenses.lockstep import LockstepGroup
        from repro.heap.allocator import Allocator
        from repro.machine import loader
        from repro.machine.cpu import CPU

        def load_args(binary, *args, **kwargs):
            metadata = binary.metadata
            key = (str(metadata.get("module_fingerprint")), str(metadata.get("config_digest")))
            self.text_bytes[key] = binary.text_size
            return {}

        def run_args(cpu, *args, **kwargs):
            binary = getattr(cpu.process, "binary", None)
            return {"program": getattr(binary, "name", "?")}

        self._wrap_function(loader, "load_binary", LOAD_SPAN, load_args)
        self._wrap_method(CPU, "run", RUN_SPAN, run_args)
        self._wrap_function(builtins, "compile", CODEGEN_SPAN)
        self._wrap_method(BtdpConstructor, "__call__", BTDP_SPAN)
        self._wrap_method(Allocator, "malloc", MALLOC_SPAN)
        self._wrap_method(Allocator, "malloc_aligned", MALLOC_SPAN)
        self._wrap_method(VictimSession, "probe_ex", PROBE_SPAN)
        self._wrap_method(LockstepGroup, "run", LOCKSTEP_SPAN)
        for name in ("take_census", "mine_data_pointers", "synthesize"):
            self._wrap_function(gadgets, name, MINE_SPAN)
        self._mark = len(tracing.get_collector().spans)
        self._was_enabled = tracing.enable_tracing(True)

    def uninstall(self) -> None:
        tracing.enable_tracing(self._was_enabled)
        while self._restore:
            self._restore.pop()()

    def take_spans(self) -> List[Span]:
        """The spans finished since :meth:`install`, removed from the collector."""
        collector = tracing.get_collector()
        spans = collector.spans[self._mark:]
        del collector.spans[self._mark:]
        return spans


# -- self time -----------------------------------------------------------------

def _covered(start: float, end: float, intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of [start, end] covered by the union of ``intervals``."""
    covered = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return covered


def op_trees(spans: List[Span]) -> Dict[int, List[Span]]:
    """Group spans by the ``bench/op`` span they descend from.

    Returns {op span id: [op span, descendants...]}; spans outside any op
    are dropped.  Every span of an op gets its ``op`` id in ``args``.
    """
    by_id = {s.span_id: s for s in spans}
    root_of: Dict[int, Optional[int]] = {}

    def root(span: Span) -> Optional[int]:
        chain = []
        current: Optional[Span] = span
        found: Optional[int] = None
        while current is not None:
            if current.span_id in root_of:
                found = root_of[current.span_id]
                break
            chain.append(current.span_id)
            if current.name == OP_SPAN:
                found = current.span_id
                break
            current = by_id.get(current.parent_id) if current.parent_id is not None else None
        for span_id in chain:
            root_of[span_id] = found
        return found

    trees: Dict[int, List[Span]] = {}
    for span in spans:
        op_root = root(span)
        if op_root is not None:
            trees.setdefault(op_root, []).append(span)
            span.args.setdefault("op", by_id[op_root].args.get("op"))
    return trees


def self_times(tree: List[Span]) -> List[Tuple[Span, float]]:
    """(span, self time in microseconds) for every span of one op tree."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in tree:
        if span.parent_id is not None:
            children.setdefault(span.parent_id, []).append(
                (span.start_us, span.start_us + span.duration_us)
            )
    return [
        (span, span.duration_us - _covered(
            span.start_us, span.start_us + span.duration_us, children.get(span.span_id, ())))
        for span in tree
    ]


def charged_layer(span: Span, by_id: Dict[int, Span], declared: Iterable[str]) -> str:
    """The declared layer a span's self time is charged to: its own, or
    its nearest ancestor's when its name maps to no declared layer."""
    current: Optional[Span] = span
    while current is not None:
        layer = layer_of(current.name)
        if layer in declared:
            return layer
        current = by_id.get(current.parent_id) if current.parent_id is not None else None
    return _FIXED_LAYERS[OP_SPAN]
