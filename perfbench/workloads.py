"""The benchmark's three workloads: seeded inputs, set-up, ops and checks.

Every workload is a closed loop with one client: the next op starts when
the previous one returns.  Everything runs in this process, on one
thread, with ``jobs=1`` and the production engine backend ``jit`` at its
default settings (``probe`` installs a ``jit`` session engine, which its
experiment functions do not yet use).

Inputs come only from the seed.  A run executes whole *rounds*; every
round holds the same mix of op kinds in a seeded order with seeded
build/load/attacker seeds, so two seeds do the same kinds of work and
differ only in the diversity dice.  That keeps the per-seed spread of
the end-to-end metrics small although single ops differ in cost by up
to 100x.

Correctness: an op fails when its guest result differs from the oracle
computed in set-up (the IR interpreter for ``diversify`` and ``steady``,
the paper's Table 3 shape for ``probe``) or when it raises.  After the
timed loop, a seeded sample of ops is rerun on the ``reference``
backend and its simulated counters or outcome tallies must match.
``probe`` cells run on the reference backend today whatever engine is
installed (see :func:`_install_session_engine`), so for ``probe`` that
rerun checks only that a cell repeats.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

#: Simulated counters compared against the reference backend.
COUNTER_FIELDS = ("cycles", "instructions", "icache_hits", "icache_misses")


@dataclass
class OpOutcome:
    """What one op produced: ``error`` is empty when every check passed."""

    error: str = ""
    #: Data the post-run reference check compares against.
    observed: object = None


def _rng(*parts: object) -> random.Random:
    # String seeds hash through SHA-512, so the stream does not depend on
    # PYTHONHASHSEED or the platform.
    return random.Random("/".join(str(part) for part in parts))


def _counters(result) -> Tuple:
    return tuple(getattr(result, name) for name in COUNTER_FIELDS)


def reset_process_caches() -> None:
    """Drop the process-wide decode and jit code caches.

    Repeated set-ups and the traced phase start from the same cold state
    as the first set-up, so they repeat its work instead of hitting the
    caches it filled.
    """
    from repro.machine.jit import clear_jit_cache
    from repro.machine.uops import clear_decode_cache

    clear_jit_cache()
    clear_decode_cache()


class Workload:
    """Base class: one workload for one seed."""

    name = ""
    #: Host seconds one round takes on the reference host (2-core x86
    #: container, CPython 3.11); sets how many rounds fill ``--seconds``.
    round_seconds = 1.0
    #: Ops rerun on the reference backend after the timed loop.
    reference_sample = 2

    def __init__(self, seed: int):
        self.seed = seed

    def rounds_for(self, seconds: float) -> int:
        return max(1, round(seconds / self.round_seconds))

    def setup_inputs(self) -> Dict[str, object]:
        return {}

    def round_ops(self, index: int) -> List[Dict[str, object]]:
        raise NotImplementedError

    def op_specs(self, rounds: int) -> List[Dict[str, object]]:
        return [op for index in range(rounds) for op in self.round_ops(index)]

    def setup(self) -> None:
        """Build inputs and the engine; warm what users would have warm."""

    def compute_oracle(self) -> None:
        """The benchmark's own expected results (not timed)."""

    def run_op(self, spec: Dict[str, object]) -> OpOutcome:
        raise NotImplementedError

    def reference_check(self, spec: Dict[str, object], observed: object) -> str:
        """Rerun ``spec`` on the reference backend; '' when it matches."""
        raise NotImplementedError

    def layer_counts(self) -> Dict[str, float]:
        """Workload-level per-layer counts since the last :meth:`setup`."""
        return {}


# ---------------------------------------------------------------------------
# diversify: one distinct R2C variant compiled, loaded and run per op
# ---------------------------------------------------------------------------

class Diversify(Workload):
    name = "diversify"
    round_seconds = 6.3
    reference_sample = 3
    #: Per round, this many ops come back on a second cost model with
    #: the same build, so the compile cache sees hits.
    revisits = 6

    CONFIGS = ("baseline", "full-avx", "full-push")

    def __init__(self, seed: int):
        super().__init__(seed)
        from repro.machine.costs import MACHINE_PRESETS
        from repro.workloads.spec import SPEC_BENCHMARKS

        self.programs = sorted(SPEC_BENCHMARKS)
        self.machines = sorted(MACHINE_PRESETS)  # Figure 6's cost models
        self.engine = None
        self.modules: Dict[str, object] = {}
        self.expected: Dict[str, Tuple[int, List[int]]] = {}
        self._cache_base = (0, 0)

    @staticmethod
    def config(name: str, build_seed: int):
        from repro.core.config import R2CConfig

        if name == "baseline":
            return R2CConfig.baseline(seed=build_seed)
        return R2CConfig.full(seed=build_seed, btra_mode=name.split("-")[1])

    def setup_inputs(self) -> Dict[str, object]:
        rng = _rng("diversify", self.seed, "warmup")
        return {
            "scale": 1,
            "warmup": {"program": "lbm", "config": "full-avx", "machine": "epyc-rome",
                       "build_seed": rng.randrange(1, 2**31), "load_seed": rng.randrange(1, 2**31)},
        }

    def round_ops(self, index: int) -> List[Dict[str, object]]:
        rng = _rng("diversify", self.seed, "round", index)
        combos = [(p, c) for p in self.programs for c in self.CONFIGS]
        rng.shuffle(combos)
        fresh = [
            {"program": p, "config": c, "build_seed": rng.randrange(1, 2**31),
             "machine": rng.choice(self.machines), "load_seed": rng.randrange(1, 2**31)}
            for p, c in combos
        ]
        slots = [(float(i), op) for i, op in enumerate(fresh)]
        for i in sorted(rng.sample(range(len(fresh) - 1), self.revisits)):
            first = fresh[i]
            other = rng.choice([m for m in self.machines if m != first["machine"]])
            revisit = dict(first, machine=other, load_seed=rng.randrange(1, 2**31))
            slots.append((rng.uniform(i + 0.5, len(fresh)), revisit))
        slots.sort(key=lambda slot: slot[0])
        return [op for _, op in slots]

    def _request(self, spec: Dict[str, object]):
        from repro.eval.engine import RunRequest

        return RunRequest(
            module=self.modules[spec["program"]],
            config=self.config(spec["config"], spec["build_seed"]),
            machine=spec["machine"],
            load_seed=spec["load_seed"],
            label=f"perfbench/diversify/{spec['program']}/{spec['config']}",
        )

    def setup(self) -> None:
        from repro.eval.engine import ExperimentEngine
        from repro.workloads.spec import build_spec_benchmark

        inputs = self.setup_inputs()
        self.modules = {p: build_spec_benchmark(p, inputs["scale"]) for p in self.programs}
        self.engine = ExperimentEngine(jobs=1, backend="jit")
        # One throwaway variant pays the first-call costs (lazy imports,
        # interpreter warm-up) that no later op repeats.
        self.engine.run(self._request(inputs["warmup"]))
        cache = self.engine.cache
        self._cache_base = (cache.hits, cache.misses)

    def compute_oracle(self) -> None:
        from repro.toolchain.interp import interpret_module

        self.expected = {p: tuple(interpret_module(m)) for p, m in self.modules.items()}

    def run_op(self, spec: Dict[str, object]) -> OpOutcome:
        record = self.engine.run(self._request(spec))
        observed = (record.exit_code, list(record.output), _counters(record))
        if record.outcome != "ok":
            return OpOutcome(f"engine outcome {record.outcome}: {record.failure}", observed)
        exit_code, output = self.expected[spec["program"]]
        if (record.exit_code, list(record.output)) != (exit_code, list(output)):
            return OpOutcome("guest exit/output differs from the IR interpreter", observed)
        return OpOutcome("", observed)

    def reference_check(self, spec: Dict[str, object], observed: object) -> str:
        from dataclasses import replace
        from repro.eval.engine import ExperimentEngine

        with ExperimentEngine(jobs=1, backend="reference") as engine:
            record = engine.run(replace(self._request(spec), backend="reference"))
        expected = (record.exit_code, list(record.output), _counters(record))
        return "" if expected == observed else f"reference backend differs: {expected} != {observed}"

    def layer_counts(self) -> Dict[str, float]:
        cache = self.engine.cache
        hits = cache.hits - self._cache_base[0]
        lookups = hits + cache.misses - self._cache_base[1]
        return {"eval.compile_cache_hits": hits, "eval.compile_cache_lookups": lookups}


# ---------------------------------------------------------------------------
# steady: warm re-executions of already-compiled programs, same layout
# ---------------------------------------------------------------------------

class Steady(Workload):
    name = "steady"
    round_seconds = 1.75
    reference_sample = 1

    #: Loop-heavy (xz, lbm, mcf, nab) and call-heavy (omnetpp, perlbench,
    #: leela) programs.
    PROGRAMS = ("xz", "lbm", "mcf", "nab", "omnetpp", "perlbench", "leela")
    SCALE = 4
    MACHINE = "epyc-rome"

    def __init__(self, seed: int):
        super().__init__(seed)
        self.builds: Dict[str, Dict[str, int]] = {}
        self.binaries: Dict[str, object] = {}
        self.modules: Dict[str, object] = {}
        self.warm: Dict[str, Tuple] = {}
        self.expected: Dict[str, Tuple[int, List[int]]] = {}

    def setup_inputs(self) -> Dict[str, object]:
        # One fixed build per program: the warm cost of a diversified build
        # moves with its build seed (BTRA and trap counts), which would add
        # seed-to-seed spread to a workload meant to time the engine.
        rng = _rng("steady", "builds")
        return {
            "scale": self.SCALE,
            "machine": self.MACHINE,
            "builds": {p: {"build_seed": rng.randrange(1, 2**31), "load_seed": rng.randrange(1, 2**31)}
                       for p in self.PROGRAMS},
        }

    def round_ops(self, index: int) -> List[Dict[str, object]]:
        order = list(self.PROGRAMS)
        _rng("steady", self.seed, "round", index).shuffle(order)
        return [{"program": p} for p in order]

    def _execute(self, program: str, backend: str):
        from repro.machine.costs import get_costs
        from repro.machine.cpu import CPU
        from repro.machine.loader import load_binary

        process = load_binary(self.binaries[program], seed=self.builds[program]["load_seed"])
        return CPU(process, get_costs(self.MACHINE), backend=backend).run()

    def setup(self) -> None:
        from repro.core.compiler import compile_module
        from repro.core.config import R2CConfig
        from repro.workloads.spec import build_spec_benchmark

        inputs = self.setup_inputs()
        self.builds = inputs["builds"]
        self.modules = {p: build_spec_benchmark(p, self.SCALE) for p in self.PROGRAMS}
        self.binaries = {
            p: compile_module(self.modules[p], R2CConfig.full(seed=self.builds[p]["build_seed"]))
            for p in self.PROGRAMS
        }
        self.warm = {}
        for program in self.PROGRAMS:
            result = self._execute(program, "jit")
            self.warm[program] = (result.exit_code, list(result.output), _counters(result))

    def compute_oracle(self) -> None:
        from repro.toolchain.interp import interpret_module

        self.expected = {
            p: tuple(interpret_module(m, step_budget=200_000_000)) for p, m in self.modules.items()
        }

    def run_op(self, spec: Dict[str, object]) -> OpOutcome:
        program = spec["program"]
        result = self._execute(program, "jit")
        observed = (result.exit_code, list(result.output), _counters(result))
        exit_code, output = self.expected[program]
        if (result.exit_code, list(result.output)) != (exit_code, list(output)):
            return OpOutcome("guest exit/output differs from the IR interpreter", observed)
        if observed != self.warm[program]:
            return OpOutcome("warm re-run differs from the warm-up run", observed)
        return OpOutcome("", observed)

    def reference_check(self, spec: Dict[str, object], observed: object) -> str:
        result = self._execute(spec["program"], "reference")
        expected = (result.exit_code, list(result.output), _counters(result))
        return "" if expected == observed else f"reference backend differs: {expected} != {observed}"


# ---------------------------------------------------------------------------
# probe: Table 3 and supervised attack-campaign cells
# ---------------------------------------------------------------------------

#: Table 3 rows protected by full R2C: none of their cells may succeed.
R2C_DEFENSES = ("r2c", "r2c-mvee")
#: Every cell replays its experiment's default base seed, as ``python -m
#: repro table3 supervised`` runs it; the seed draws the order.  With
#: seeded base seeds the cost of one cell is set by where the shuffled
#: layout puts the attack's target: a Blind ROP cell took 0.3 s to 6.6 s
#: across base seeds, and one indirect-jitrop/krx victim spun for 17.7 s
#: to its 5M-instruction budget, so ops_per_s swung by 3x with the seed.
BASE_SEEDS = {"table3": 100, "supervised": 300}
#: Supervised cells.  ``restart-rerandomize`` is left out: one such cell
#: makes ~1200 spawns and takes 5-12 s, a third of a run on its own,
#: while its spawn path is the one restart-same and the blindrop cells
#: already exercise.
SUPERVISED_CELLS = tuple((v, p) for v in ("baseline", "r2c") for p in ("none", "restart-same"))


def _install_session_engine(backend: str) -> None:
    """What ``python -m repro table3 supervised --backend B`` does first.

    Inert today: ``experiment_table3`` and ``experiment_supervised`` read
    no engine, and every ``VictimSession`` they build runs on its default
    ``reference`` backend (ROADMAP item 3).  So ``probe`` times the
    reference backend, and the post-run reference rerun checks only that
    a cell repeats.  Once those functions honour the session engine, the
    same code times ``jit`` and the rerun becomes a jit-vs-reference check.
    """
    from repro.eval.engine import ExperimentEngine, set_session_engine

    set_session_engine(ExperimentEngine(jobs=1, backend=backend))


def run_cell(spec: Dict[str, object]) -> Dict[str, object]:
    """One attack-campaign cell through its experiment function; its outcome."""
    from repro.eval.experiments import experiment_table3, experiment_supervised

    if spec["kind"] == "table3":
        matrix = experiment_table3(trials=1, attacks=[spec["attack"]], defenses=[spec["defense"]],
                                   base_seed=spec["base_seed"])
        return {"tallies": matrix[spec["defense"]][spec["attack"]]}
    rows = experiment_supervised(trials=1, victims=[spec["victim"]], policies=[spec["policy"]],
                                 base_seed=spec["base_seed"])
    return dict(rows[(spec["victim"], spec["policy"])])


def shape_error(spec: Dict[str, object], outcome: Dict[str, object]) -> str:
    """'' when the cell matches the paper's shape, else what broke."""
    tallies = outcome["tallies"]
    if sum(tallies.values()) != 1:
        return f"trials=1 cell tallied {tallies}"
    if spec["kind"] == "table3":
        if spec["defense"] in R2C_DEFENSES and tallies["success"]:
            return f"{spec['attack']} succeeded against {spec['defense']}"
        return ""
    if spec["victim"] == "r2c" and tallies["success"]:
        return f"supervised r2c/{spec['policy']} reached success"
    if (spec["victim"], spec["policy"]) == ("baseline", "restart-same") and not tallies["success"]:
        return "supervised baseline/restart-same did not reach success"
    return ""


class Probe(Workload):
    name = "probe"
    round_seconds = 10.3
    reference_sample = 3

    def __init__(self, seed: int):
        super().__init__(seed)
        from repro.attacks import ALL_ATTACKS
        from repro.defenses.related import DEFENSE_MODELS

        self.cells: List[Dict[str, object]] = [
            {"kind": "table3", "attack": a, "defense": d} for d in DEFENSE_MODELS for a in ALL_ATTACKS
        ] + [{"kind": "supervised", "victim": v, "policy": p} for v, p in SUPERVISED_CELLS]
        self.restarts = 0
        self.crashes = 0

    def round_ops(self, index: int) -> List[Dict[str, object]]:
        rng = _rng("probe", self.seed, "round", index)
        cells = [dict(cell) for cell in self.cells]
        rng.shuffle(cells)
        for cell in cells:
            cell["base_seed"] = BASE_SEEDS[cell["kind"]]
        return cells

    def setup(self) -> None:
        _install_session_engine("jit")
        self.restarts = self.crashes = 0

    def run_op(self, spec: Dict[str, object]) -> OpOutcome:
        outcome = run_cell(spec)
        if spec["kind"] == "supervised":
            self.restarts += outcome["restarts"]
            self.crashes += outcome["crashes"]
        return OpOutcome(shape_error(spec, outcome), outcome)

    def reference_check(self, spec: Dict[str, object], observed: object) -> str:
        _install_session_engine("reference")
        try:
            expected = run_cell(spec)
        finally:
            _install_session_engine("jit")
        return "" if expected == observed else f"reference rerun differs: {expected} != {observed}"

    def layer_counts(self) -> Dict[str, float]:
        return {"reliability.restarts": self.restarts, "reliability.crashes": self.crashes}


WORKLOADS = {cls.name: cls for cls in (Diversify, Steady, Probe)}


def sample_indices(workload: str, seed: int, count: int, size: int) -> List[int]:
    """A seeded sample of op positions for the reference-backend rerun."""
    return sorted(_rng(workload, seed, "reference").sample(range(size), min(count, size)))


def inputs_bytes(workload: str, seed: int, rounds: int = 2) -> bytes:
    """Canonical bytes of everything the program receives for this seed."""
    import json

    instance = WORKLOADS[workload](seed)
    payload = {"setup": instance.setup_inputs(), "ops": instance.op_specs(rounds)}
    return json.dumps(payload, sort_keys=True).encode()

