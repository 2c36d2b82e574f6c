"""Paged virtual memory with per-page permissions.

The memory model is the part of the substrate R2C's reactive features rest
on.  Three permission configurations matter:

* **execute-only** (``Perm.X`` without ``Perm.R``): the text section is
  mapped this way, so an attacker's read primitive cannot disclose code —
  the leakage-resilience baseline R2C assumes (Section 3 of the paper).
* **guard pages** (``Perm.NONE``): the R2C runtime constructor strips read
  permission from the heap pages BTDPs point into; any dereference raises
  :class:`~repro.errors.GuardPageFault`, the "immediate fault, giving
  defenders a way to respond" of Section 4.2.
* ordinary ``RW`` data / stack pages, which the attacker *can* read — the
  whole point of the paper is surviving that.

Addresses are 64-bit; words are little-endian 8-byte integers.
"""

from __future__ import annotations

import enum
import sys
from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import GuardPageFault, MemoryFault

PAGE_SIZE = 4096
PAGE_MASK = PAGE_SIZE - 1
WORD_BYTES = 8

#: Largest in-page offset a whole word fits at.
_WORD_SPAN = PAGE_SIZE - WORD_BYTES
_WORD_MASK = (1 << 64) - 1


class Perm(enum.IntFlag):
    """Page permission bits (mmap/mprotect style)."""

    NONE = 0
    R = 1
    W = 2
    X = 4
    RW = R | W
    RX = R | X
    RWX = R | W | X


def page_base(address: int) -> int:
    """Return the base address of the page containing ``address``."""
    return address & ~PAGE_MASK


def page_range(address: int, size: int) -> Iterator[int]:
    """Yield the base of every page overlapped by ``[address, address+size)``."""
    if size <= 0:
        return
    first = page_base(address)
    last = page_base(address + size - 1)
    for base in range(first, last + 1, PAGE_SIZE):
        yield base


class _Page:
    """One mapped page: backing bytes plus its current permissions.

    ``bits`` mirrors ``perm`` as a plain ``int`` so the single-page access
    fast paths can test permissions with an integer AND instead of the much
    slower ``enum.IntFlag.__and__`` — on interpreter-bound runs the enum op
    alone is a measurable fraction of every memory access.

    A descriptor exists only for a page something has touched: mapping
    records a reserved range (see :class:`Memory`), and the first access,
    permission change or fetch creates the page's descriptor from it.
    ``data`` is demand-zero on top of that: ``None`` until the first byte
    access materializes the backing ``bytearray``.  So mapping a
    multi-megabyte heap arena allocates nothing per page, load time scales
    with the pages actually touched, not the address space reserved, and
    :meth:`Memory.clone` copies only described pages.

    ``mv`` is a 64-bit view of ``data`` (``memoryview.cast("Q")``), created
    at materialization on little-endian hosts.  Aligned word accesses — the
    overwhelmingly common case: stack operations and compiler-emitted loads
    and stores are all 8-byte aligned — become a single indexed read or
    write instead of a slice plus ``int.from_bytes``/``to_bytes`` round
    trip.  The view shares the page's buffer, so byte-level writes and bit
    corruption stay coherent with it; pages are never resized, so exporting
    the buffer is safe.
    """

    __slots__ = ("data", "perm", "guard", "bits", "mv")

    def __init__(self, perm: Perm, guard: bool = False):
        self.data = None
        self.mv = None
        self.perm = perm
        self.guard = guard
        self.bits = int(perm)


#: ``memoryview.cast("Q")`` reads native byte order; guest words are
#: little-endian, so the word view only exists on little-endian hosts
#: (big-endian falls back to the byte-slice path — correct, just slower).
_LITTLE_ENDIAN = sys.byteorder == "little"


class Memory:
    """Sparse paged address space with lazy reservation.

    :meth:`map_region` records an immutable ``(first, end, perm)`` range
    and nothing per page.  A page's :class:`_Page` descriptor is created
    on first touch by :meth:`_page`, which every slow path goes through;
    from then on the descriptor, not the range, holds the page's
    permissions, guard flag and bytes.  Every descriptor lies inside a
    range, so a page is mapped iff some range covers it.  Permissions are
    checked on every access.  A page flagged as *guard* raises
    :class:`GuardPageFault` instead of the generic :class:`MemoryFault` so
    the attack monitor can attribute the crash to a booby trap.
    """

    def __init__(self) -> None:
        # Described pages: base -> descriptor, for touched pages only.
        self._pages: Dict[int, _Page] = {}
        # Reserved ranges ``(first, end, perm)``, page-aligned and
        # disjoint.  The tuple is never mutated, so clones share it.
        self._ranges: Tuple[Tuple[int, int, Perm], ...] = ()
        # Monotonic permission epoch: bumped by every map/unmap/protect so
        # execution backends may memoize per-address fetch-permission checks
        # and revalidate only when the permission landscape actually moved.
        self.perm_epoch = 0
        # Pages fetched from without materializing data (execute-only text
        # never allocates backing bytes).  Everything else materializes the
        # page, bumping ``_resident``; residency is ``materialized ∪
        # _touched`` — see :meth:`resident_bytes`.  Mapping a region does
        # not make it resident (demand paging), which is what lets the
        # maxrss experiment of Section 6.2.5 distinguish BTDP guard pages
        # (touched by the allocator) from merely reserved space.
        self._touched: set = set()
        self._resident = 0
        # Aligned-word dispatch tables for the jit backend's inlined memory
        # fast path: page base -> 64-bit word view, one table per required
        # permission.  A base is present iff the page is materialized AND
        # currently grants the permission, so a hit licenses the access
        # outright; every miss (unmapped, unmaterialized, protected, guard,
        # big-endian host) falls back to :meth:`read_word` /
        # :meth:`write_word`, which reproduce the exact fault.  Maintained
        # by materialization, :meth:`protect`, :meth:`unmap_region`, and
        # :meth:`clone`; the dict objects themselves are never replaced, so
        # bound ``.get`` references stay valid for the memory's lifetime.
        self._rmv: Dict[int, object] = {}
        self._wmv: Dict[int, object] = {}

    def _page(self, base: int) -> Optional[_Page]:
        """Return the descriptor of the page at ``base``, creating it from
        its reserved range on first touch; ``None`` if it is unmapped."""
        page = self._pages.get(base)
        if page is None:
            for first, end, perm in self._ranges:
                if first <= base < end:
                    page = self._pages[base] = _Page(perm)
                    break
        return page

    def _materialize(self, base: int, page: _Page) -> bytearray:
        """Allocate a page's demand-zero backing store (and word views)."""
        data = page.data = bytearray(PAGE_SIZE)
        if _LITTLE_ENDIAN:
            mv = page.mv = memoryview(data).cast("Q")
            bits = page.bits
            if bits & 1:
                self._rmv[base] = mv
            if bits & 2:
                self._wmv[base] = mv
        # A fetch-touched page moves from the ``_touched`` tally to the
        # materialized tally; the discard keeps the sum counting it once.
        self._resident += 1
        self._touched.discard(base)
        return data

    def _refresh_views(self, base: int, page: _Page) -> None:
        """Re-derive the word-map entries for one page after a permission
        change (or removal on unmap)."""
        mv = page.mv
        if mv is None:
            return
        bits = page.bits
        if bits & 1:
            self._rmv[base] = mv
        else:
            self._rmv.pop(base, None)
        if bits & 2:
            self._wmv[base] = mv
        else:
            self._wmv.pop(base, None)

    # -- mapping -----------------------------------------------------------

    def map_region(self, address: int, size: int, perm: Perm) -> None:
        """Map ``size`` bytes at ``address`` (page-granular) with ``perm``.

        Overlapping an existing mapping maps the pages below the first
        clash and raises "already mapped" at it."""
        self.perm_epoch += 1
        if size <= 0:
            return
        first = page_base(address)
        end = page_base(address + size - 1) + PAGE_SIZE
        clash = min(
            (max(lo, first) for lo, hi, _ in self._ranges if lo < end and first < hi),
            default=None,
        )
        if clash is not None:
            if clash > first:
                self._ranges += ((first, clash, perm),)
            raise MemoryFault("write", clash, "already mapped")
        self._ranges += ((first, end, perm),)

    def unmap_region(self, address: int, size: int) -> None:
        self.perm_epoch += 1
        if size <= 0:
            return
        first = page_base(address)
        end = page_base(address + size - 1) + PAGE_SIZE
        kept = []
        for lo, hi, perm in self._ranges:
            if lo < first:
                kept.append((lo, min(hi, first), perm))
            if end < hi:
                kept.append((max(lo, end), hi, perm))
        self._ranges = tuple(kept)
        for base in [base for base in self._pages if first <= base < end]:
            page = self._pages.pop(base)
            if page.data is not None:
                self._resident -= 1
                self._rmv.pop(base, None)
                self._wmv.pop(base, None)

    def protect(self, address: int, size: int, perm: Perm, *, guard: bool = False) -> None:
        """Change permissions of mapped pages (mprotect analogue).

        ``guard=True`` marks the pages as booby-trap guard pages so that
        faults on them are classified as detections.
        """
        self.perm_epoch += 1
        for base in page_range(address, size):
            page = self._page(base)
            if page is None:
                raise MemoryFault("write", base, "unmapped")
            page.perm = perm
            page.bits = int(perm)
            page.guard = guard
            self._refresh_views(base, page)

    def clone(self) -> "Memory":
        """Deep-copy the address space: page contents, permissions, guard
        flags, the permission epoch, and the resident set.

        The clone is fully independent — writes and protection changes on
        either side never show through.  Only described pages are copied;
        the reserved ranges are an immutable tuple and are shared.  This
        is the substrate for replica processes and respawned workers
        (:meth:`repro.machine.process.Process.clone`)."""
        clone = Memory.__new__(Memory)
        pages: Dict[int, _Page] = {}
        rmv: Dict[int, object] = {}
        wmv: Dict[int, object] = {}
        for base, page in self._pages.items():
            copy = _Page.__new__(_Page)
            data = page.data
            if data is None:
                copy.data = None
                copy.mv = None
            else:
                copy.data = data = bytearray(data)
                mv = copy.mv = memoryview(data).cast("Q") if _LITTLE_ENDIAN else None
                if mv is not None:
                    bits = page.bits
                    if bits & 1:
                        rmv[base] = mv
                    if bits & 2:
                        wmv[base] = mv
            copy.perm = page.perm
            copy.guard = page.guard
            copy.bits = page.bits
            pages[base] = copy
        clone._pages = pages
        clone._ranges = self._ranges
        clone.perm_epoch = self.perm_epoch
        clone._touched = set(self._touched)
        clone._resident = self._resident
        clone._rmv = rmv
        clone._wmv = wmv
        return clone

    def is_mapped(self, address: int) -> bool:
        return self._page(page_base(address)) is not None

    def perm_at(self, address: int) -> Optional[Perm]:
        page = self._page(page_base(address))
        return None if page is None else page.perm

    def is_guard(self, address: int) -> bool:
        page = self._page(page_base(address))
        return bool(page and page.guard)

    def mapped_pages(self) -> List[Tuple[int, Perm]]:
        """Return (base, perm) for every mapped page, sorted by address."""
        pages = {base: page.perm for base, page in self._pages.items()}
        for first, end, perm in self._ranges:
            for base in range(first, end, PAGE_SIZE):
                pages.setdefault(base, perm)
        return sorted(pages.items())

    def resident_bytes(self) -> int:
        """Total bytes of *touched* pages — the maxrss analogue (Section 6.2.5).

        A page is resident when its backing store was materialized (any
        read or write does this) or when it was fetched from
        (execute-only text never materializes data).  Both tallies are
        maintained incrementally — a counter bumped at materialization
        plus the fetch-only ``_touched`` set — so sampling residency is
        O(1) and the per-access fast paths carry no extra bookkeeping.
        """
        return (self._resident + len(self._touched)) * PAGE_SIZE

    # -- access checks -----------------------------------------------------

    def _check(self, kind: str, need: Perm, address: int, size: int) -> None:
        for base in page_range(address, size):
            page = self._page(base)
            if page is None:
                raise MemoryFault(kind, address, "unmapped")
            if not (page.perm & need):
                if page.guard:
                    raise GuardPageFault(kind, address, "guard page")
                raise MemoryFault(kind, address, "protection")

    # -- data access -------------------------------------------------------
    #
    # Every accessor has a single-page fast path: when the access lies
    # inside one described page that already grants the needed
    # permission, service it with one dict probe and an integer AND.
    # Anything else — page-spanning, unmapped, not yet described,
    # insufficient permission, guard pages — falls through to the
    # ``_check`` + copy path, which describes the page on first touch, so
    # every fault is raised from exactly the same place with exactly the
    # same message.
    # Materializing the backing store marks the page resident (see
    # :meth:`resident_bytes`), so the fast paths carry no ``_touched``
    # bookkeeping.  Aligned word accesses go through the page's 64-bit
    # view — one indexed operation instead of a slice and a byte-order
    # conversion.

    def read(self, address: int, size: int) -> bytes:
        """Read ``size`` bytes; requires ``Perm.R`` on every touched page."""
        offset = address & PAGE_MASK
        if 0 < size <= PAGE_SIZE - offset:
            base = address - offset
            page = self._pages.get(base)
            if page is not None and page.bits & 1:  # Perm.R
                data = page.data
                if data is None:
                    data = self._materialize(base, page)
                return bytes(data[offset : offset + size])
        self._check("read", Perm.R, address, size)
        return self._copy_out(address, size)

    def write(self, address: int, data: bytes) -> None:
        """Write bytes; requires ``Perm.W`` on every touched page."""
        size = len(data)
        offset = address & PAGE_MASK
        if 0 < size <= PAGE_SIZE - offset:
            base = address - offset
            page = self._pages.get(base)
            if page is not None and page.bits & 2:  # Perm.W
                backing = page.data
                if backing is None:
                    backing = self._materialize(base, page)
                backing[offset : offset + size] = data
                return
        self._check("write", Perm.W, address, size)
        self._copy_in(address, data)

    def read_word(self, address: int) -> int:
        offset = address & PAGE_MASK
        if offset <= _WORD_SPAN:
            base = address - offset
            page = self._pages.get(base)
            if page is not None and page.bits & 1:  # Perm.R
                data = page.data
                if data is None:
                    data = self._materialize(base, page)
                if not offset & 7:
                    mv = page.mv
                    if mv is not None:
                        return mv[offset >> 3]
                return int.from_bytes(data[offset : offset + WORD_BYTES], "little")
        return int.from_bytes(self.read(address, WORD_BYTES), "little")

    def write_word(self, address: int, value: int) -> None:
        offset = address & PAGE_MASK
        if offset <= _WORD_SPAN:
            base = address - offset
            page = self._pages.get(base)
            if page is not None and page.bits & 2:  # Perm.W
                data = page.data
                if data is None:
                    data = self._materialize(base, page)
                if not offset & 7:
                    mv = page.mv
                    if mv is not None:
                        mv[offset >> 3] = value & _WORD_MASK
                        return
                data[offset : offset + WORD_BYTES] = (value & _WORD_MASK).to_bytes(
                    WORD_BYTES, "little"
                )
                return
        self.write(address, (value & _WORD_MASK).to_bytes(WORD_BYTES, "little"))

    def fetch_check(self, address: int, size: int = 1) -> None:
        """Verify that instruction fetch from ``address`` is allowed."""
        offset = address & PAGE_MASK
        if 0 < size <= PAGE_SIZE - offset:
            base = address - offset
            page = self._pages.get(base)
            if page is not None and page.bits & 4:  # Perm.X
                # Materialized pages are already in the resident tally.
                if page.data is None:
                    self._touched.add(base)
                return
        self._check("fetch", Perm.X, address, size)
        base = address & ~PAGE_MASK
        page = self._page(base)
        if page is not None and page.data is None:
            self._touched.add(base)

    # -- privileged access (loader / runtime, bypasses permissions) ---------

    def store_raw(self, address: int, data: bytes) -> None:
        """Write ignoring permissions.  Used by the loader and runtime only."""
        for base in page_range(address, len(data)):
            if self._page(base) is None:
                raise MemoryFault("write", base, "unmapped")
        self._copy_in(address, data)

    def load_raw(self, address: int, size: int) -> bytes:
        """Read ignoring permissions.  Used by the runtime/debugger only."""
        for base in page_range(address, size):
            if self._page(base) is None:
                raise MemoryFault("read", base, "unmapped")
        return self._copy_out(address, size)

    def store_word_raw(self, address: int, value: int) -> None:
        self.store_raw(address, (value & (2**64 - 1)).to_bytes(WORD_BYTES, "little"))

    def load_word_raw(self, address: int) -> int:
        return int.from_bytes(self.load_raw(address, WORD_BYTES), "little")

    # -- fault injection -----------------------------------------------------

    def corrupt_bit(self, address: int, bit: int) -> None:
        """Flip one bit in a mapped page, ignoring permissions.

        The reliability layer's bitflip injection (:mod:`repro.reliability.
        faults`) models single-event upsets / rowhammer-style corruption:
        the flip bypasses permissions (like the hardware would) but still
        requires the page to be mapped — flipping unmapped addresses is a
        plan bug, not a simulated fault.
        """
        base = page_base(address)
        page = self._page(base)
        if page is None:
            raise MemoryFault("write", address, "unmapped")
        data = page.data
        if data is None:
            data = self._materialize(base, page)
        data[address & PAGE_MASK] ^= 1 << (bit & 7)

    # -- internals ----------------------------------------------------------

    def _copy_out(self, address: int, size: int) -> bytes:
        out = bytearray(size)
        pos = 0
        while pos < size:
            addr = address + pos
            base = page_base(addr)
            offset = addr - base
            take = min(PAGE_SIZE - offset, size - pos)
            page = self._page(base)
            backing = page.data
            if backing is None:
                backing = self._materialize(base, page)
            out[pos : pos + take] = backing[offset : offset + take]
            pos += take
        return bytes(out)

    def _copy_in(self, address: int, data: bytes) -> None:
        pos = 0
        size = len(data)
        while pos < size:
            addr = address + pos
            base = page_base(addr)
            offset = addr - base
            take = min(PAGE_SIZE - offset, size - pos)
            page = self._page(base)
            backing = page.data
            if backing is None:
                backing = self._materialize(base, page)
            backing[offset : offset + take] = data[pos : pos + take]
            pos += take
