"""Spawn-as-fork: a respawned worker is a clone of the session's pristine
image, and must be indistinguishable from a fresh ``load_binary``.

Covered: every Table 3 defense configuration, both supervised victims and
an N-variant (``variants=3``) session.  Equality is checked on the whole
observable process state (pages, residency, allocator, symbols, runtime
record, services) and on execution itself (byte-identical
``ExecutionResult``, fault and rip on ``reference`` and ``jit``).
"""

import dataclasses

import pytest

from repro.attacks.scenario import VictimSession
from repro.core.config import R2CConfig
from repro.defenses.related import DEFENSE_MODELS
from repro.errors import MachineError
from repro.machine.costs import get_costs
from repro.machine.cpu import CPU
from repro.machine.loader import load_binary
from repro.machine.memory import PAGE_SIZE
from repro.reliability import SupervisedSession

BACKENDS = ("reference", "jit")
WILD_ADDRESS = 0xDEAD_0000_0000


def _table3_session(name):
    model = DEFENSE_MODELS[name]
    return VictimSession(
        model.victim_config(seed=100),
        execute_only=model.execute_only,
        shadow_stack=model.shadow_stack,
        variants=model.variants,
        load_seed=100,
    )


def _supervised_session(victim):
    config = R2CConfig.baseline() if victim == "baseline" else R2CConfig.full(seed=300)
    return SupervisedSession(
        config, policy="restart-same", execute_only=victim != "baseline", load_seed=300
    )


SESSIONS = {f"table3/{name}": (lambda name=name: _table3_session(name)) for name in DEFENSE_MODELS}
SESSIONS["supervised/baseline"] = lambda: _supervised_session("baseline")
SESSIONS["supervised/r2c"] = lambda: _supervised_session("r2c")
SESSIONS["variants=3"] = lambda: VictimSession(R2CConfig.full(seed=5), variants=3, load_seed=9)


def _fresh(session, index, seed):
    return load_binary(
        session.variant_binaries[index], seed=seed, execute_only=session.execute_only
    )


def snapshot(process):
    """Everything observable about a loaded process, as plain data.

    Residency is read first: reading page bytes materializes them."""
    memory = process.memory
    state = {
        "perm_epoch": memory.perm_epoch,
        "resident": memory.resident_bytes(),
        "max_rss": process.max_rss,
        "layout": process.layout,
        "symbols": dict(process.symbols),
        "entry": process.entry_point,
        "r2c_runtime": getattr(process, "r2c_runtime", None),
        "services": sorted(process._services),
        "output": list(process.output),
        "free": list(process.allocator._free),
        "live": process.allocator.live_allocations(),
        "allocated": (process.allocator.allocated_bytes, process.allocator.peak_allocated),
    }
    pages = memory.mapped_pages()
    state["pages"] = [
        (base, perm, memory.is_guard(base), memory.load_raw(base, PAGE_SIZE))
        for base, perm in pages
    ]
    return state


def _hook_for(process):
    """An attack hook that faults: a BTDP dereference on R2C victims, a
    wild read otherwise."""
    runtime = getattr(process, "r2c_runtime", None)
    target = runtime["btdp_values"][0] if runtime else WILD_ADDRESS

    def hook(proc, cpu):
        return proc.memory.read_word(target)

    return hook


def run(process, backend, *, fault):
    if fault:
        process.register_service("attack_hook", _hook_for(process))
    else:
        process.register_service("attack_hook", lambda proc, cpu: 0)
    cpu = CPU(process, get_costs("epyc-rome"), backend=backend)
    try:
        result = cpu.run()
    except MachineError as exc:
        return ("fault", type(exc).__name__, str(exc), cpu.rip, list(process.output))
    return ("ok", dataclasses.asdict(result), cpu.rip)


@pytest.mark.parametrize("name", sorted(SESSIONS))
def test_spawn_equals_fresh_load(name):
    session = SESSIONS[name]()
    seed = session.load_seed
    for index in range(session.variants):
        fresh = _fresh(session, index, seed)
        if index == 0:
            spawned, _ = session.spawn()
        else:
            spawned = session._fork(index, seed)
        assert snapshot(spawned) == snapshot(fresh)


@pytest.mark.parametrize("name", sorted(SESSIONS))
@pytest.mark.parametrize("backend", BACKENDS)
def test_spawn_runs_like_fresh_load(name, backend):
    session = SESSIONS[name]()
    for fault in (False, True):
        spawned, _ = session.spawn()
        fresh = _fresh(session, 0, session.load_seed)
        assert run(spawned, backend, fault=fault) == run(fresh, backend, fault=fault)


def test_write_in_one_spawn_is_invisible_to_the_next():
    session = VictimSession(R2CConfig.full(seed=3))
    first, _ = session.spawn()
    heap = first.allocator.malloc(64)
    first.memory.write_word(heap, 0x1234)
    data = first.layout.data_base
    first.memory.store_word_raw(data, 0xBAD)
    first.memory.corrupt_bit(first.layout.text_base, 0)
    second, _ = session.spawn()
    fresh = _fresh(session, 0, session.load_seed)
    assert second.allocator.live_allocations() == fresh.allocator.live_allocations()
    assert second.memory.load_word_raw(data) == fresh.memory.load_word_raw(data)
    assert snapshot(second) == snapshot(fresh)


def test_spawned_runtime_record_is_private():
    session = VictimSession(R2CConfig.full(seed=3, btra_mode="avx"))
    first, _ = session.spawn()
    runtime = first.r2c_runtime
    for key in ("guard_pages", "btdp_values", "decoy_values"):
        if key in runtime:
            runtime[key].append(0xDEAD)
            runtime[key][0] = 0
    runtime["array_addr"] = 0
    second, _ = session.spawn()
    assert second.r2c_runtime == _fresh(session, 0, session.load_seed).r2c_runtime


def test_rerandomized_spawns_get_fresh_layouts():
    session = VictimSession(R2CConfig.baseline(), rerandomize_on_restart=True, load_seed=40)
    layouts = []
    for count in range(3):
        spawned, _ = session.spawn()
        assert snapshot(spawned) == snapshot(_fresh(session, 0, 40 + count))
        layouts.append(spawned.layout)
    assert len({(layout.text_base, layout.heap_base) for layout in layouts}) == 3
    # One pristine image per variant: each new seed replaces the last.
    assert len(session._images) == 1
