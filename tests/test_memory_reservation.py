"""Lazy reservation is invisible: :class:`Memory` against an eager model.

``EagerMemory`` below is the address space as it was before lazy
reservation: ``map_region`` builds one descriptor per page up front, and
every access goes through one permission check and one copy loop.  It
lives here only, as the oracle.  Random operation sequences run against
both and must agree on every value, every exception (type, message and
address), ``mapped_pages()``, ``resident_bytes()`` and ``perm_epoch``,
including across clones and after partial unmaps.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.errors import GuardPageFault, MemoryFault
from repro.machine.memory import Memory, PAGE_MASK, PAGE_SIZE, Perm, page_base, page_range

BASE = 0x6200_0000_0000
PAGES = 12
WORD_MASK = (1 << 64) - 1
PERMS = [Perm.NONE, Perm.R, Perm.W, Perm.X, Perm.RW, Perm.RX, Perm.RWX]


class EagerMemory:
    """One ``[perm, guard, data]`` descriptor per mapped page, made at map
    time; ``data`` is demand-zero, as in the real memory."""

    def __init__(self):
        self.pages = {}
        self.touched = set()
        self.resident = 0
        self.perm_epoch = 0

    def clone(self):
        clone = EagerMemory()
        clone.pages = {
            base: [perm, guard, None if data is None else bytearray(data)]
            for base, (perm, guard, data) in self.pages.items()
        }
        clone.touched = set(self.touched)
        clone.resident = self.resident
        clone.perm_epoch = self.perm_epoch
        return clone

    def _data(self, base):
        page = self.pages[base]
        if page[2] is None:
            page[2] = bytearray(PAGE_SIZE)
            self.resident += 1
            self.touched.discard(base)
        return page[2]

    @staticmethod
    def _spans(address, size):
        pos = 0
        while pos < size:
            addr = address + pos
            offset = addr & PAGE_MASK
            take = min(PAGE_SIZE - offset, size - pos)
            yield addr - offset, offset, pos, take
            pos += take

    def _copy_out(self, address, size):
        out = bytearray(size)
        for base, offset, pos, take in self._spans(address, size):
            out[pos : pos + take] = self._data(base)[offset : offset + take]
        return bytes(out)

    def _copy_in(self, address, data):
        for base, offset, pos, take in self._spans(address, len(data)):
            self._data(base)[offset : offset + take] = data[pos : pos + take]

    def _check(self, kind, need, address, size):
        for base in page_range(address, size):
            page = self.pages.get(base)
            if page is None:
                raise MemoryFault(kind, address, "unmapped")
            if not page[0] & need:
                if page[1]:
                    raise GuardPageFault(kind, address, "guard page")
                raise MemoryFault(kind, address, "protection")

    def _require_mapped(self, kind, address, size):
        for base in page_range(address, size):
            if base not in self.pages:
                raise MemoryFault(kind, base, "unmapped")

    def map_region(self, address, size, perm):
        self.perm_epoch += 1
        for base in page_range(address, size):
            if base in self.pages:
                raise MemoryFault("write", base, "already mapped")
            self.pages[base] = [perm, False, None]

    def unmap_region(self, address, size):
        self.perm_epoch += 1
        for base in page_range(address, size):
            page = self.pages.pop(base, None)
            if page is not None and page[2] is not None:
                self.resident -= 1

    def protect(self, address, size, perm, *, guard=False):
        self.perm_epoch += 1
        for base in page_range(address, size):
            page = self.pages.get(base)
            if page is None:
                raise MemoryFault("write", base, "unmapped")
            page[0] = perm
            page[1] = guard

    def read(self, address, size):
        self._check("read", Perm.R, address, size)
        return self._copy_out(address, size)

    def write(self, address, data):
        self._check("write", Perm.W, address, len(data))
        self._copy_in(address, data)

    def read_word(self, address):
        return int.from_bytes(self.read(address, 8), "little")

    def write_word(self, address, value):
        self.write(address, (value & WORD_MASK).to_bytes(8, "little"))

    def fetch_check(self, address, size=1):
        self._check("fetch", Perm.X, address, size)
        base = page_base(address)
        page = self.pages.get(base)
        if page is not None and page[2] is None:
            self.touched.add(base)

    def store_raw(self, address, data):
        self._require_mapped("write", address, len(data))
        self._copy_in(address, data)

    def load_raw(self, address, size):
        self._require_mapped("read", address, size)
        return self._copy_out(address, size)

    def corrupt_bit(self, address, bit):
        base = page_base(address)
        if base not in self.pages:
            raise MemoryFault("write", address, "unmapped")
        self._data(base)[address & PAGE_MASK] ^= 1 << (bit & 7)

    def is_mapped(self, address):
        return page_base(address) in self.pages

    def perm_at(self, address):
        page = self.pages.get(page_base(address))
        return None if page is None else page[0]

    def is_guard(self, address):
        page = self.pages.get(page_base(address))
        return bool(page and page[1])

    def mapped_pages(self):
        return sorted((base, page[0]) for base, page in self.pages.items())

    def resident_bytes(self):
        return (self.resident + len(self.touched)) * PAGE_SIZE


# Addresses cluster on page edges, where single-page fast paths end.
addresses = st.builds(
    lambda page, offset: BASE + page * PAGE_SIZE + offset,
    st.integers(-1, PAGES),
    st.one_of(
        st.sampled_from([0, 1, 7, 8, PAGE_SIZE - 8, PAGE_SIZE - 7, PAGE_SIZE - 1]),
        st.integers(0, PAGE_SIZE - 1),
    ),
)
region_sizes = st.integers(0, 4 * PAGE_SIZE)
access_sizes = st.one_of(st.integers(0, 16), st.integers(0, 2 * PAGE_SIZE + 16))
perms = st.sampled_from(PERMS)

operations = st.one_of(
    st.tuples(st.just("map_region"), addresses, region_sizes, perms),
    st.tuples(st.just("unmap_region"), addresses, region_sizes),
    st.tuples(st.just("protect"), addresses, region_sizes, perms, st.booleans()),
    st.tuples(st.just("read"), addresses, access_sizes),
    st.tuples(st.just("write"), addresses, st.binary(max_size=2 * PAGE_SIZE)),
    st.tuples(st.just("read_word"), addresses),
    st.tuples(st.just("write_word"), addresses, st.integers(-(1 << 64), 1 << 65)),
    st.tuples(st.just("fetch_check"), addresses, st.integers(0, PAGE_SIZE + 8)),
    st.tuples(st.just("store_raw"), addresses, st.binary(max_size=PAGE_SIZE + 16)),
    st.tuples(st.just("load_raw"), addresses, access_sizes),
    st.tuples(st.just("corrupt_bit"), addresses, st.integers(0, 7)),
    st.tuples(st.just("is_mapped"), addresses),
    st.tuples(st.just("perm_at"), addresses),
    st.tuples(st.just("is_guard"), addresses),
    st.tuples(st.just("clone")),
)


def apply(memory, op):
    name, *args = op
    try:
        if name == "protect":
            address, size, perm, guard = args
            return memory.protect(address, size, perm, guard=guard)
        return getattr(memory, name)(*args)
    except MemoryFault as exc:
        return (type(exc), str(exc), exc.kind, exc.address, exc.reason)


def observe(memory):
    return memory.mapped_pages(), memory.resident_bytes(), memory.perm_epoch


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    st.lists(st.tuples(st.integers(0, 3), operations), max_size=40),
    st.lists(st.tuples(st.integers(-1, PAGES), st.integers(1, 6), perms), max_size=3),
)
def test_lazy_reservation_matches_eager_model(steps, initial):
    real, model = Memory(), EagerMemory()
    for page, count, perm in initial:
        address = BASE + page * PAGE_SIZE
        assert apply(real, ("map_region", address, count * PAGE_SIZE, perm)) == apply(
            model, ("map_region", address, count * PAGE_SIZE, perm)
        )
    pairs = [(real, model)]
    for target, op in steps:
        real, model = pairs[target % len(pairs)]
        if op[0] == "clone":
            pairs.append((real.clone(), model.clone()))
        else:
            assert apply(real, op) == apply(model, op), op
        assert observe(real) == observe(model), op
    for real, model in pairs:
        assert observe(real) == observe(model)
        for base, _ in model.mapped_pages():
            assert real.load_raw(base, PAGE_SIZE) == model.load_raw(base, PAGE_SIZE)


def test_map_records_a_range_not_pages():
    memory = Memory()
    memory.map_region(BASE, 2048 * PAGE_SIZE, Perm.RW)
    assert memory._pages == {}
    memory.write_word(BASE + 5 * PAGE_SIZE, 1)
    assert list(memory._pages) == [BASE + 5 * PAGE_SIZE]
    clone = memory.clone()
    assert clone._ranges is memory._ranges
    assert list(clone._pages) == [BASE + 5 * PAGE_SIZE]
