"""Machine-level performance counters.

:class:`PerfCounters` is the observability view over one
:class:`~repro.machine.cpu.ExecutionResult`: every architectural event
the simulated machine counts, in one flat, JSON-stable structure.  Every
execution backend — the ``reference`` loop and the block-compiling
``jit`` — fills the underlying
counters **byte-identically**: same integers, same float ``cycles`` (one
exact division of the shared integer cycle units), same per-tag buckets.
A ``PerfCounters`` is therefore backend-invariant by construction and
the differential tests in ``tests/test_backends.py`` compare them
wholesale.  How a backend *got* the numbers (blocks compiled, deopts
taken) is host-side observability, not machine state — the bench
artifact's ``tiers`` section records that instead.

Counter definitions (also in DESIGN.md §3.5):

``instructions``
    Instructions executed, including the one that faulted (the budget
    check and trace hook run before execution, matching the reference
    loop).
``cycles``
    Simulated cycles: per-opcode base cost + i-cache miss penalties +
    the memory-operand surcharge.
``branches`` / ``branches_taken`` / ``branch_mispredicts``
    Branch-family instructions executed (JMP + all Jcc; CALL/RET are
    counted separately), the subset that actually redirected control
    flow, and the mispredict-equivalent under the machine's static
    never-taken model — the simulated frontend always predicts
    fall-through, so every taken branch is a mispredict and
    ``branch_mispredicts == branches_taken``.  A faulting indirect
    branch target is not counted as taken (the fault wins, exactly as
    the reference loop orders it).
``mem_ops``
    Instructions carrying a memory operand — the same predicate that
    charges ``mem_operand_extra`` cycles, so ``mem_ops`` is also "how
    many times the memory surcharge was paid".
``traps``
    Booby traps detonated (executed ``TRAP`` instructions).  Counted
    before the :class:`~repro.errors.BoobyTrapTriggered` fault
    propagates, so a crashed run still reports its trap.
``btra_events`` / ``btdp_events``
    Executed instructions carrying a ``btra-*`` / ``btdp`` tag —
    reactive-camouflage work actually performed at run time.  Derived
    from ``tag_counts``, so they require ``attribute_tags=True``
    (they read 0 otherwise, like ``tag_cycles`` always has).
``tag_cycles`` / ``tag_counts``
    Per-diversification-tag cycle and instruction attribution.  With
    ``attribute_tags=True`` every executed instruction lands in exactly
    one bucket — untagged (application) instructions under
    :data:`UNTAGGED_TAG` — so the buckets decompose the totals:
    ``sum(tag_counts.values()) == instructions`` exactly, and
    ``sum(tag_cycles.values())`` equals ``cycles`` up to float
    re-association (the buckets sum in a different order than the
    sequential total; compare with ``math.isclose``).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from typing import Dict

from repro.machine.cpu import UNTAGGED_TAG, ExecutionResult

__all__ = ["PerfCounters", "UNTAGGED_TAG", "merge_variant_counters"]


@dataclass
class PerfCounters:
    """Flat, backend-invariant counter snapshot of one run."""

    instructions: int = 0
    cycles: float = 0.0
    calls: int = 0
    rets: int = 0
    branches: int = 0
    branches_taken: int = 0
    branch_mispredicts: int = 0
    icache_hits: int = 0
    icache_misses: int = 0
    mem_ops: int = 0
    traps: int = 0
    btra_events: int = 0
    btdp_events: int = 0
    tag_cycles: Dict[str, float] = field(default_factory=dict)
    tag_counts: Dict[str, int] = field(default_factory=dict)

    @classmethod
    def from_result(cls, result: ExecutionResult) -> "PerfCounters":
        """Build the counter view over a (possibly partial) run result."""
        tag_counts = dict(result.tag_counts)
        return cls(
            instructions=result.instructions,
            cycles=result.cycles,
            calls=result.calls,
            rets=result.rets,
            branches=result.branches,
            branches_taken=result.branches_taken,
            # Static never-taken frontend: every taken branch mispredicts.
            branch_mispredicts=result.branches_taken,
            icache_hits=result.icache_hits,
            icache_misses=result.icache_misses,
            mem_ops=result.mem_ops,
            traps=result.traps,
            btra_events=sum(
                count for tag, count in tag_counts.items() if tag.startswith("btra")
            ),
            btdp_events=sum(
                count for tag, count in tag_counts.items() if tag.startswith("btdp")
            ),
            tag_cycles=dict(result.tag_cycles),
            tag_counts=tag_counts,
        )

    @property
    def icache_miss_rate(self) -> float:
        total = self.icache_hits + self.icache_misses
        return self.icache_misses / total if total else 0.0

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps({"schema": "repro-counters/v1", **asdict(self)}, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "PerfCounters":
        """Load counters written by :meth:`to_json`; unknown keys dropped
        (the ``RunRecord.from_json`` forward-compatibility convention)."""
        data = json.loads(text)
        known = {f.name for f in fields(cls)}
        return cls(**{key: value for key, value in data.items() if key in known})


def merge_variant_counters(per_variant: Dict[str, "PerfCounters"]) -> PerfCounters:
    """Merge N variants' counters into one group view with per-variant
    tag attribution.

    Scalar events sum across variants (a lockstep group really executed
    that many instructions / paid that many cycles).  Tag buckets are
    namespaced ``<label>/<tag>`` (e.g. ``v1/btra-setup``, ``v0/app``) so
    the decomposition invariant survives the merge —
    ``sum(tag_counts.values())`` still equals the merged ``instructions``
    when every variant ran with ``attribute_tags=True`` — while keeping
    each variant's diversification overhead individually attributable.
    """
    merged = PerfCounters()
    for label, counters in per_variant.items():
        merged.instructions += counters.instructions
        merged.cycles += counters.cycles
        merged.calls += counters.calls
        merged.rets += counters.rets
        merged.branches += counters.branches
        merged.branches_taken += counters.branches_taken
        merged.branch_mispredicts += counters.branch_mispredicts
        merged.icache_hits += counters.icache_hits
        merged.icache_misses += counters.icache_misses
        merged.mem_ops += counters.mem_ops
        merged.traps += counters.traps
        merged.btra_events += counters.btra_events
        merged.btdp_events += counters.btdp_events
        for tag, cycles in counters.tag_cycles.items():
            merged.tag_cycles[f"{label}/{tag}"] = cycles
        for tag, count in counters.tag_counts.items():
            merged.tag_counts[f"{label}/{tag}"] = count
    return merged
