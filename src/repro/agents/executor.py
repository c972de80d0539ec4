"""Mission executor: runs one embodied task end to end under a fault environment.

This is the experimental engine behind every resilience / energy number in the
repository: it wires the deployed planner and controller to the world, builds
the fault-injection and anomaly-clearance hooks described by
:class:`~repro.core.create.ProtectionConfig`, drives autonomy-adaptive voltage
scaling, and accounts MACs per operating voltage so the energy model can price
the trial afterwards.

The control flow mirrors JARVIS-1 (paper Sec. 2.1): the planner is invoked
once up front; the controller then executes the plan step by step; if a
subtask exceeds its step budget the planner is re-invoked with the current
progress; the task fails when the total step budget is exhausted.

Trials run as lanes of a group (:meth:`MissionExecutor.run_trial_group`);
a single trial is a one-lane group.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from ..core.anomaly import AnomalyDetector
from ..core.create import ProtectionConfig
from ..core.entropy import EntropyTrace
from ..core.predictor import EntropyPredictor
from ..core.voltage_scaling import AdaptiveVoltageController
from ..env.subtasks import ALL_SUBTASKS, SubtaskRegistry
from ..env.tasks import TaskSuite
from ..env.world import EmbodiedWorld, WorldConfig
from ..faults.injector import ErrorInjector
from ..faults.models import VoltageErrorModel
from ..hardware.energy import EnergyModel
from ..hardware.timing import NOMINAL_VOLTAGE, TimingErrorModel
from ..nn.functional import entropy as _shannon_entropy
from ..nn.functional import softmax
from ..quant import GemmHooks
from .controller import DeployedController
from .planner import DeployedPlanner

__all__ = ["TrialResult", "MissionExecutor", "build_protection_hooks"]


@dataclass
class TrialResult:
    """Everything measured during one task attempt."""

    task: str
    success: bool
    steps: int
    planner_invocations: int
    controller_steps: int
    planner_macs_by_voltage: dict[float, float] = field(default_factory=dict)
    controller_macs_by_voltage: dict[float, float] = field(default_factory=dict)
    predictor_macs_by_voltage: dict[float, float] = field(default_factory=dict)
    entropy_trace: EntropyTrace = field(default_factory=EntropyTrace)
    planner_bits_flipped: int = 0
    controller_bits_flipped: int = 0
    planner_elements_clamped: int = 0
    controller_elements_clamped: int = 0
    voltage_summary: dict[str, float] = field(default_factory=dict)

    def macs_by_voltage(self) -> dict[float, float]:
        """All MACs of the trial grouped by operating voltage."""
        merged: dict[float, float] = {}
        for source in (self.planner_macs_by_voltage, self.controller_macs_by_voltage,
                       self.predictor_macs_by_voltage):
            for voltage, macs in source.items():
                merged[voltage] = merged.get(voltage, 0.0) + macs
        return merged

    def computational_energy_j(self, energy_model: EnergyModel | None = None) -> float:
        model = energy_model or EnergyModel()
        return model.compute_energy_j(self.macs_by_voltage())

    def effective_voltage(self, energy_model: EnergyModel | None = None) -> float:
        model = energy_model or EnergyModel()
        return model.effective_voltage(self.macs_by_voltage())


def build_protection_hooks(protection: ProtectionConfig, rng: np.random.Generator,
                           timing_model: TimingErrorModel | None = None
                           ) -> tuple[GemmHooks, ErrorInjector | None, AnomalyDetector | None]:
    """Translate a :class:`ProtectionConfig` into quantized-GEMM hooks."""
    timing_model = timing_model or TimingErrorModel()
    targets = list(protection.target_components) if protection.target_components else None

    error_model = protection.error_model
    if error_model is None and (protection.voltage is not None
                                or protection.voltage_scaling is not None):
        voltage = protection.voltage if protection.voltage is not None else NOMINAL_VOLTAGE
        error_model = VoltageErrorModel(voltage, timing_model)

    injector: ErrorInjector | None = None
    if error_model is not None:
        if protection.injector_kind == "thundervolt":
            from ..core.baselines import ThUnderVoltInjector

            injector = ThUnderVoltInjector(error_model, rng=rng,
                                           exposure_scale=protection.exposure_scale)
            injector.target_components = targets
        else:
            injector = ErrorInjector(error_model, rng=rng,
                                     exposure_scale=protection.exposure_scale,
                                     target_components=targets)
    detector = AnomalyDetector() if protection.anomaly_detection else None
    hooks = GemmHooks(injector=injector, anomaly_clamp=detector)
    return hooks, injector, detector


@dataclass
class _TrialSetup:
    """Deterministic pre-decode state of one trial (see ``_prepare_trial``)."""

    task: object
    rng: np.random.Generator
    world: EmbodiedWorld
    controller_protection: ProtectionConfig
    planner_kernel: object
    controller_kernel: object
    planner_voltage: float
    vs_runtime: AdaptiveVoltageController | None
    planner_injector: ErrorInjector | None
    controller_injector: ErrorInjector | None
    planner_detector: AnomalyDetector | None
    controller_detector: AnomalyDetector | None
    result: TrialResult


class MissionExecutor:
    """Runs task trials for one (planner, controller) system on one benchmark."""

    def __init__(self, controller: DeployedController, suite: TaskSuite,
                 registry: SubtaskRegistry, planner: DeployedPlanner | None = None,
                 predictor: EntropyPredictor | None = None,
                 world_config: WorldConfig | None = None,
                 timing_model: TimingErrorModel | None = None,
                 action_temperature: float = 1.0,
                 max_replans: int = 8,
                 invalid_token_penalty: int = 10,
                 id_registry: SubtaskRegistry | None = None):
        self.controller = controller
        self.planner = planner
        self.suite = suite
        self.registry = registry
        #: Subtask-id space the controller was trained with.  Table-10
        #: controllers share the frozen ``ALL_SUBTASKS`` ids; scenario
        #: systems pass their scenario's own registry.
        self.id_registry = id_registry or ALL_SUBTASKS
        self.predictor = predictor
        self.world_config = world_config or WorldConfig()
        self.timing_model = timing_model or TimingErrorModel()
        self.action_temperature = action_temperature
        self.max_replans = max_replans
        self.invalid_token_penalty = invalid_token_penalty

    # ------------------------------------------------------------------
    def plan_cache_state(self) -> str:
        """Kernel-plan provenance across this executor's models.

        ``"shm"`` when any model adopted a shared-memory weight plane,
        ``"miss"`` when any model would still build its plan from scratch,
        ``"hit"`` when every model reuses a process-local plan, and ``""``
        when no model exposes provenance (e.g. test doubles).  Stamped into
        the run table's ``plan_cache`` profile column by the campaign engine.
        """
        states = []
        for model in (getattr(self, "planner", None),
                      getattr(self, "controller", None)):
            provenance = getattr(model, "plan_provenance", None)
            if callable(provenance):
                states.append(provenance())
        if not states:
            return ""
        if "shm" in states:
            return "shm"
        if "miss" in states:
            return "miss"
        return "hit"

    # ------------------------------------------------------------------
    # Planning helpers
    # ------------------------------------------------------------------
    def _progress(self, world: EmbodiedWorld, task) -> int:
        return sum(1 for subtask in task.plan if subtask in world.inventory)

    def _account_plan(self, plan: list[str], result: TrialResult,
                      voltage: float) -> None:
        """MAC/invocation accounting of one planner decode."""
        result.planner_invocations += 1
        generated = len(plan) + 1  # +1 for the EOS decode step
        prompt_len = 4
        macs = sum(self.planner.macs_per_decode_step(prompt_len + i)
                   for i in range(generated))
        result.planner_macs_by_voltage[voltage] = (
            result.planner_macs_by_voltage.get(voltage, 0.0) + macs)

    # ------------------------------------------------------------------
    # Trial execution
    # ------------------------------------------------------------------
    def _prepare_trial(self, task_name: str, seed: int,
                       planner_protection: ProtectionConfig | None,
                       controller_protection: ProtectionConfig | None
                       ) -> "_TrialSetup":
        """Build one trial's deterministic state, before any planner decode.

        RNG streams are derived from the seed (trial / world / planner /
        controller at ``seed`` / ``+10k`` / ``+20k`` / ``+30k``), so a
        trial's results depend on its own ``(task, seed)`` only, never on
        the group it runs in.
        """
        planner_protection = planner_protection or ProtectionConfig()
        controller_protection = controller_protection or ProtectionConfig()
        task = self.suite.get(task_name)
        rng = np.random.default_rng(seed)
        world = EmbodiedWorld(task, self.registry, self.world_config,
                              np.random.default_rng(seed + 10_000))

        planner_hooks, planner_injector, planner_detector = build_protection_hooks(
            planner_protection, np.random.default_rng(seed + 20_000), self.timing_model)
        controller_hooks, controller_injector, controller_detector = build_protection_hooks(
            controller_protection, np.random.default_rng(seed + 30_000), self.timing_model)

        # One fused kernel context per model per trial: its counters and
        # injector stream span all of the trial's steps.
        planner_kernel = self.planner.kernel_context(planner_hooks) \
            if self.planner is not None else None
        controller_kernel = self.controller.kernel_context(controller_hooks)

        planner_voltage = planner_protection.static_voltage() or NOMINAL_VOLTAGE

        vs_runtime: AdaptiveVoltageController | None = None
        if controller_protection.voltage_scaling is not None:
            predictor = self.predictor \
                if controller_protection.voltage_scaling.entropy_source == "predictor" else None
            vs_runtime = AdaptiveVoltageController(
                config=controller_protection.voltage_scaling,
                predictor=predictor,
                injector=controller_injector,
                timing_model=self.timing_model,
            )
            vs_runtime.begin_trial()

        result = TrialResult(task=task_name, success=False, steps=0,
                             planner_invocations=0, controller_steps=0)
        return _TrialSetup(
            task=task, rng=rng, world=world,
            controller_protection=controller_protection,
            planner_kernel=planner_kernel, controller_kernel=controller_kernel,
            planner_voltage=planner_voltage, vs_runtime=vs_runtime,
            planner_injector=planner_injector,
            controller_injector=controller_injector,
            planner_detector=planner_detector,
            controller_detector=controller_detector, result=result)

    def run_trial(self, task_name: str, seed: int = 0,
                  planner_protection: ProtectionConfig | None = None,
                  controller_protection: ProtectionConfig | None = None) -> TrialResult:
        """One trial: a one-lane :meth:`run_trial_group`."""
        return self.run_trial_group([(task_name, seed)],
                                    planner_protection=planner_protection,
                                    controller_protection=controller_protection)[0]

    def run_trial_group(self, trials: list[tuple[str, int]],
                        planner_protection: ProtectionConfig | None = None,
                        controller_protection: ProtectionConfig | None = None
                        ) -> list[TrialResult]:
        """Run one trial per ``(task_name, seed)`` pair as lanes of one group.

        The world loops advance in lock-step through :meth:`_run_lanes`: on
        every simulation tick the group's pending planner decodes run as one
        cross-prompt batched decode (:meth:`DeployedPlanner.plan_batch`) and
        its pending controller forwards as one row-stacked
        :class:`~repro.quant.BatchedKernel` pass
        (:meth:`DeployedController.act_logits_batch`).  Lanes may run
        different tasks (the fleet runtime,
        :class:`~repro.agents.fleet.FleetExecutor`, assigns them
        round-robin).  Every lane keeps its own RNG streams, kernel hooks,
        and accounting, so each result equals the one-lane run of its pair
        byte for byte — fault-free and under injection.
        """
        setups = [self._prepare_trial(task_name, seed, planner_protection,
                                      controller_protection)
                  for task_name, seed in trials]
        return self._run_lanes(setups)

    def _plan_steps(self, setup: "_TrialSetup"):
        """The plan queue for the trial's current progress.

        Ground truth for planner-less systems; otherwise one ``("plan", ...)``
        request whose decoded plan is accounted to the trial.
        """
        task = setup.task
        progress = self._progress(setup.world, task)
        if self.planner is None:
            # Ground-truth planning (controller-only studies).
            return deque(task.plan[progress:])
        plan = yield ("plan", task.name, progress)
        self._account_plan(plan, setup.result, setup.planner_voltage)
        return deque(plan)

    def _trial_steps(self, setup: "_TrialSetup"):
        """The world loop of one prepared trial as an inference-request generator.

        Yields ``("plan", task_name, progress)`` when the planner must be
        invoked — first for the initial plan, then for every replan — and
        ``("act", subtask_token, observation)`` for every controller forward;
        the driver (:meth:`_run_lanes`) answers via ``send()`` with the
        decoded plan / the ``(entropy, sampling distribution)`` of the
        action logits.  Everything else — world stepping, voltage scaling,
        MAC and entropy accounting, action sampling with the lane's own RNG,
        finalization — happens inside the generator: each lane's own call
        order is fixed by the generator, and cross-lane interleaving touches
        no lane-local state.
        """
        rng = setup.rng
        world = setup.world
        controller_protection = setup.controller_protection
        vs_runtime = setup.vs_runtime
        result = setup.result
        replans = 0
        controller_macs = self.controller.macs_per_step
        predictor_macs = self.predictor.macs_per_call if self.predictor is not None else 0

        # The initial plan is a planner invocation but not a replan.
        plan_queue = yield from self._plan_steps(setup)
        while not world.task_completed and not world.task_budget_exhausted():
            if not plan_queue:
                replans += 1
                if replans > self.max_replans:
                    break
                plan_queue = yield from self._plan_steps(setup)
                if not plan_queue:
                    break
                continue

            subtask = plan_queue.popleft()
            if not world.set_subtask(subtask):
                world.waste_steps(self.invalid_token_penalty)
                continue
            subtask_token = self.id_registry.token_id(subtask) \
                if subtask in self.id_registry else 0

            completed = False
            while not world.task_budget_exhausted():
                if vs_runtime is not None:
                    voltage, predicted = vs_runtime.before_step(world, subtask_token)
                    if predicted:
                        result.predictor_macs_by_voltage[NOMINAL_VOLTAGE] = (
                            result.predictor_macs_by_voltage.get(NOMINAL_VOLTAGE, 0.0)
                            + predictor_macs)
                else:
                    voltage = controller_protection.static_voltage() or NOMINAL_VOLTAGE

                entropy_value, probs = yield ("act", subtask_token,
                                              world.observation())
                result.controller_steps += 1
                result.controller_macs_by_voltage[voltage] = (
                    result.controller_macs_by_voltage.get(voltage, 0.0) + controller_macs)
                result.entropy_trace.record(entropy_value,
                                            world.is_critical_step(), voltage)

                action = int(rng.choice(probs.size, p=probs))
                step = world.step(action)
                if step.subtask_completed:
                    completed = True
                    break
                if world.subtask_budget_exhausted():
                    break

            if not completed and not world.task_completed:
                # Subtask retry budget exhausted: force a replanning round.
                plan_queue.clear()

        result.success = world.task_completed
        result.steps = world.steps_taken
        if not result.success:
            # Failed tasks are charged the full execution budget (paper Sec. 6.1).
            remaining = max(self.world_config.task_step_limit - result.steps, 0)
            fallback_voltage = controller_protection.static_voltage() or NOMINAL_VOLTAGE
            if vs_runtime is not None:
                fallback_voltage = vs_runtime.voltage
            result.controller_macs_by_voltage[fallback_voltage] = (
                result.controller_macs_by_voltage.get(fallback_voltage, 0.0)
                + remaining * controller_macs)
            result.steps = self.world_config.task_step_limit

        if setup.planner_injector is not None:
            result.planner_bits_flipped = setup.planner_injector.stats.bits_flipped
        if setup.controller_injector is not None:
            result.controller_bits_flipped = setup.controller_injector.stats.bits_flipped
        if setup.planner_detector is not None:
            result.planner_elements_clamped = setup.planner_detector.stats.elements_clamped
        if setup.controller_detector is not None:
            result.controller_elements_clamped = setup.controller_detector.stats.elements_clamped
        if vs_runtime is not None:
            result.voltage_summary = vs_runtime.schedule_summary()
        return result

    def _run_lanes(self, setups: list["_TrialSetup"]) -> list[TrialResult]:
        """Drive N prepared trials lock-step, batching cross-lane inference.

        On every tick, the pending requests of all live lanes are gathered
        and serviced as (at most) one batched planner decode
        (:meth:`DeployedPlanner.plan_batch`) plus one batched controller
        forward (:meth:`DeployedController.act_logits_batch`) — one quantize
        and one INT GEMM per projection for the whole group.  Lanes finish
        independently (StopIteration drops them from the round).  The logit
        post-processing (entropy and sampling distribution) is vectorized
        over the act lanes: every operation is elementwise or a last-axis
        reduction, so each row equals a one-lane computation bit for bit.
        """
        lanes = [self._trial_steps(setup) for setup in setups]
        responses: list[object] = [None] * len(lanes)
        alive = list(range(len(lanes)))
        while alive:
            pending = []
            plan_lanes, plan_requests = [], []
            act_lanes, act_requests = [], []
            for index in alive:
                try:
                    kind, *request = lanes[index].send(responses[index])
                except StopIteration:
                    continue
                pending.append(index)
                if kind == "plan":
                    plan_lanes.append(index)
                    plan_requests.append(request)
                else:
                    act_lanes.append(index)
                    act_requests.append(request)
            if plan_lanes:
                plans = self.planner.plan_batch(
                    plan_requests,
                    contexts=[setups[i].planner_kernel for i in plan_lanes])
                for index, plan in zip(plan_lanes, plans):
                    responses[index] = plan
            if act_lanes:
                logits = self.controller.act_logits_batch(
                    act_requests,
                    contexts=[setups[i].controller_kernel for i in act_lanes])
                entropies = _shannon_entropy(softmax(logits))
                probs = self._action_probs(logits)
                for j, index in enumerate(act_lanes):
                    responses[index] = (float(entropies[j]), probs[j])
            alive = pending
        return [setup.result for setup in setups]

    def _action_probs(self, logits: np.ndarray) -> np.ndarray:
        """Temperature-scaled sampling distribution of (stacked) logits.

        Every operation is elementwise or a last-axis reduction, so each row
        of a stacked call equals the row's own 1-D call bit for bit.
        """
        scaled = np.asarray(logits, dtype=np.float64) / self.action_temperature
        scaled = np.nan_to_num(scaled, nan=0.0, posinf=60.0, neginf=-60.0)
        scaled = np.clip(scaled, -60.0, 60.0)
        return softmax(scaled)

    # ------------------------------------------------------------------
    def run_trials(self, task_name: str, num_trials: int, seed: int = 0,
                   planner_protection: ProtectionConfig | None = None,
                   controller_protection: ProtectionConfig | None = None
                   ) -> list[TrialResult]:
        """Repeat a trial with distinct seeds (the paper repeats >= 100 times)."""
        if num_trials <= 0:
            raise ValueError("num_trials must be positive")
        return self.run_trial_group(
            [(task_name, seed + index) for index in range(num_trials)],
            planner_protection=planner_protection,
            controller_protection=controller_protection)
