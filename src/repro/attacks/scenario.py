"""Victim sessions and the attack execution harness.

A :class:`VictimSession` wraps one deployed victim: a binary compiled under
the defense configuration being evaluated, plus the attacker's *reference*
build of the same source (their own copy of the software).  ``spawn``
starts a worker process; respawns reuse the same ASLR seed, modelling the
fork-server/worker-restart behaviour Blind ROP exploits ("some servers
restart crashed worker processes without reloading their binary code
images", Section 4).  A respawn is literally a fork: the session loads
each variant once per load seed into a pristine image it keeps for its
own lifetime, and every worker is a :meth:`Process.clone` of that image.

:func:`run_attack` executes a single-shot attack: it arms the victim's
``attack_hook`` vulnerability with the attack function, runs the victim,
and classifies the outcome.  Multi-probe attacks (Blind ROP, PIROP) drive
:meth:`VictimSession.probe` in their own loops.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.attacks.monitor import DefenseMonitor
from repro.attacks.outcomes import AttackOutcome, AttackResult
from repro.attacks.surface import AttackerView, ReferenceKnowledge
from repro.core.compiler import compile_module
from repro.core.config import R2CConfig
from repro.errors import MachineError
from repro.machine.cpu import CPU, ExecutionResult
from repro.machine.costs import get_costs
from repro.machine.loader import load_binary
from repro.machine.process import Process
from repro.rng import DiversityRng
from repro.toolchain.ir import Module
from repro.workloads.victim import (
    ATTACK_ARG,
    SUCCESS_TAG,
    VictimLayoutInfo,
    build_victim,
    fire_once,
)

AttackFn = Callable[[AttackerView], None]


class AttackAborted(Exception):
    """Raised by attack code to give up cleanly (no leak, no consensus).

    The victim keeps running normally; the outcome becomes FAILED unless
    the corruption already performed reaches the goal anyway.
    """


def output_success(output, *, require_arg: bool = False) -> bool:
    """Did target_exec run under attacker control?"""
    for word in output:
        if word & 0xFFFF_0000 == SUCCESS_TAG:
            if not require_arg or word == (SUCCESS_TAG | ATTACK_ARG):
                return True
    return False


@dataclass
class ProbeResult:
    """Everything one probe produced, for callers that need more than the
    (status, result) pair — the reactive supervisor builds crash reports
    from the exception and the post-mortem CPU/process state."""

    # "success" | "clean" | "detected" | "crashed" | "diverged" |
    # "timed-out" (supervised probes under a per-probe deadline)
    status: str
    result: Optional[ExecutionResult]
    exception: Optional[MachineError]
    #: The (leader) machine state post-mortem — a CPU for single-variant
    #: probes, the leader's MachineState for N-variant lockstep probes.
    cpu: object
    process: object
    #: True when a per-probe deadline classified this probe as a hang
    #: (:class:`~repro.reliability.supervisor.SupervisedSession` sets it;
    #: plain sessions never do).
    timed_out: bool = False


class VictimSession:
    """One deployed victim + the attacker's reference knowledge."""

    def __init__(
        self,
        config: R2CConfig,
        *,
        module: Optional[Module] = None,
        build_seed: Optional[int] = None,
        load_seed: int = 0xC0FFEE,
        execute_only: bool = True,
        detection_budget: int = 3,
        layout_info: Optional[VictimLayoutInfo] = None,
        rerandomize_on_restart: bool = False,
        shadow_stack: bool = False,
        backend: str = "reference",
        variants: int = 1,
        sync_every: int = 256,
        instruction_budget: int = 5_000_000,
    ):
        if build_seed is not None:
            config = config.replace(seed=build_seed)
        self.config = config
        self.module = module if module is not None else build_victim()
        self.layout = layout_info if layout_info is not None else VictimLayoutInfo()
        self.load_seed = load_seed
        self.execute_only = execute_only
        # Section 7.3's proposed mitigation for the residual brute-force
        # surface: re-randomize at (re)load time, so no two probes see the
        # same layout.
        self.rerandomize_on_restart = rerandomize_on_restart
        self.shadow_stack = shadow_stack
        self.backend = backend
        if variants < 1:
            raise ValueError("a session needs at least one variant")
        #: N-variant mode (Section 7.3): every probe deploys ``variants``
        #: differently-diversified builds in batched lockstep and adds
        #: "diverged" to the probe statuses.
        self.variants = variants
        self.sync_every = sync_every
        #: Per-probe instruction ceiling — the supervised session tightens
        #: it into a virtual-clock probe deadline.
        self.instruction_budget = instruction_budget
        self._spawn_count = 0
        # Variant index -> (load seed, pristine loaded image).  Workers are
        # clones of it; a new seed (rerandomize_on_restart) replaces it.
        self._images: Dict[int, Tuple[int, Process]] = {}
        self.binary = compile_module(self.module, config)
        # Follower builds roll different diversification dice (same seed
        # spacing as the MVEE), leaving the leader binary — and therefore
        # every single-variant code path — bit-identical to before.
        self.variant_binaries = [self.binary] + [
            compile_module(self.module, config.replace(seed=config.seed + 1000 * index))
            for index in range(1, variants)
        ]
        # The attacker's own copy: identical software, independently built.
        # Without diversification the builds are bit-identical (the
        # monoculture); with diversification the attacker's copy rolled
        # different dice.
        reference_config = (
            config.replace(seed=config.seed + 0x5EED) if config.any_diversification else config
        )
        self.reference = ReferenceKnowledge(compile_module(self.module, reference_config))
        self.monitor = DefenseMonitor(detection_budget=detection_budget)

    # -- process management ------------------------------------------------------

    def _next_seed(self) -> int:
        """Count one spawn and return its load seed."""
        seed = self.load_seed
        if self.rerandomize_on_restart:
            seed += self._spawn_count
        self._spawn_count += 1
        return seed

    def _fork(self, index: int, seed: int) -> Process:
        """Fork a worker of variant ``index`` from its pristine image,
        loading the image first if ``seed`` is new for this variant."""
        image = self._images.get(index)
        if image is None or image[0] != seed:
            process = load_binary(
                self.variant_binaries[index], seed=seed, execute_only=self.execute_only
            )
            image = self._images[index] = (seed, process)
        return image[1].clone()

    def spawn(self) -> Tuple[object, CPU]:
        """Start a worker.

        Default: same image, same ASLR — a forked worker restarting
        "without reloading their binary code images" (Section 4).  With
        ``rerandomize_on_restart`` every spawn re-randomizes the layout
        (the Section 7.3 mitigation), which breaks cross-probe inference.
        """
        process = self._fork(0, self._next_seed())
        cpu = CPU(
            process,
            get_costs("epyc-rome"),
            instruction_budget=self.instruction_budget,
            shadow_stack=self.shadow_stack,
            backend=self.backend,
        )
        return process, cpu

    def probe(
        self, hook: AttackFn, *, attacker_seed: int = 0
    ) -> Tuple[str, Optional[ExecutionResult]]:
        """One attack probe: spawn, arm the hook, run to completion.

        Returns (status, result): status is "success", "clean" (ran to
        exit without reaching the goal), "detected", or "crashed".
        """
        probe = self.probe_ex(hook, attacker_seed=attacker_seed)
        return probe.status, probe.result

    def probe_ex(self, hook: AttackFn, *, attacker_seed: int = 0) -> ProbeResult:
        """Like :meth:`probe`, returning the full :class:`ProbeResult`
        (exception + post-mortem CPU/process for crash triage)."""
        if self.variants > 1:
            return self._probe_lockstep(hook, attacker_seed=attacker_seed)
        process, cpu = self.spawn()

        def service(proc, running_cpu):
            view = AttackerView(
                proc,
                running_cpu,
                self.reference,
                rng=DiversityRng(attacker_seed).child("attacker"),
            )
            try:
                hook(view)
            except AttackAborted:
                pass  # the attacker gave up; the victim continues untouched

        process.register_service("attack_hook", fire_once(service))
        try:
            result = cpu.run()
        except MachineError as exc:
            status = self.monitor.classify(exc)
            # Payload-then-crash still counts: the attacker's code ran.
            if output_success(process.output):
                status = "success"
            return ProbeResult(status, None, exc, cpu, process)
        status = "success" if output_success(result.output) else "clean"
        return ProbeResult(status, result, None, cpu, process)

    def _probe_lockstep(self, hook: AttackFn, *, attacker_seed: int = 0) -> ProbeResult:
        """N-variant probe: deploy every variant binary under one layout
        seed, attack the leader (writes recorded), replay into followers,
        and step the group in batched lockstep (Section 7.3).

        Adds "diverged" to the probe statuses: the lockstep cross-check
        caught the variants disagreeing — a detection the Table 3 tallies
        and the reactive supervisor can act on.
        """
        # Imported here: defenses.lockstep/mvee import this module.
        from repro.defenses.lockstep import LockstepGroup, MveeOutcome
        from repro.defenses.mvee import _RecordingView

        seed = self._next_seed()
        write_log = []
        leader_fired = [False]
        processes = []
        for index in range(self.variants):
            process = self._fork(index, seed)
            if index == 0:

                def leader_service(proc, running_cpu):
                    view = _RecordingView(
                        proc,
                        running_cpu,
                        self.reference,
                        rng=DiversityRng(attacker_seed).child("attacker"),
                    )
                    try:
                        hook(view)
                    except AttackAborted:
                        pass
                    write_log.extend(view.write_log)
                    leader_fired[0] = True

                process.register_service("attack_hook", fire_once(leader_service))
            else:

                def follower_service(proc, running_cpu):
                    for address, data in write_log:
                        try:
                            proc.memory.write(address, data)
                        except MachineError:
                            pass  # landed in an unmapped/protected spot here

                process.register_service("attack_hook", fire_once(follower_service))
            processes.append(process)

        group = LockstepGroup(
            processes,
            backend=self.backend,
            sync_every=self.sync_every,
            instruction_budget=self.instruction_budget,
            shadow_stack=self.shadow_stack,
            monitor=self.monitor,
            compare_state=False,
        )
        group.run_variant_until(0, lambda variant: leader_fired[0])
        lockstep = group.run()
        leader = group.variants[0]
        if any(variant.status == "detected" for variant in group.variants):
            status = "detected"
        elif all(output_success(variant.output) for variant in group.variants):
            status = "success"
        elif lockstep.outcome is MveeOutcome.DIVERGED:
            status = "diverged"
        elif leader.status == "crashed":
            status = "crashed"
        else:
            status = "clean"
        return ProbeResult(
            status,
            leader.result,
            leader.error,
            leader.state,
            leader.process,
        )


def run_attack(
    session: VictimSession,
    attack_fn: AttackFn,
    name: str,
    *,
    attacker_seed: int = 0,
) -> AttackResult:
    """Run a single-shot attack and classify its outcome."""
    result = AttackResult(attack=name, outcome=AttackOutcome.FAILED, probes=1)
    status, _ = session.probe(attack_fn, attacker_seed=attacker_seed)
    result.detections = session.monitor.detections
    result.crashes = session.monitor.crashes
    if status == "success":
        result.outcome = AttackOutcome.SUCCESS
    elif status == "detected":
        result.outcome = AttackOutcome.DETECTED
    elif status == "diverged":
        result.outcome = AttackOutcome.DIVERGED
    elif status == "crashed":
        result.outcome = AttackOutcome.CRASHED
    else:
        result.outcome = AttackOutcome.FAILED
    return result
