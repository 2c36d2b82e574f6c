"""Nothing is decoded ahead of execution, so there is no decode cache.

The ``reference`` interpreter reads a process's instruction index
directly and the ``jit`` lowers blocks lazily from the same index
(:mod:`repro.machine.blocks`, :mod:`repro.machine.jit`).
:func:`clear_decode_cache` stays only because benchmark harnesses call
it between runs.
"""

from __future__ import annotations

__all__ = ["clear_decode_cache"]


def clear_decode_cache() -> None:
    """No-op: there is no decode cache to clear."""
