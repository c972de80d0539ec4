"""Declarative trial campaigns: parallel, batched, streaming execution with
persistent run tables.

This is the experiment platform behind every trial-loop study in
:mod:`repro.eval.experiments` and :mod:`repro.eval.resilience`.  An experiment
declares its conditions as :class:`TrialSpec` rows — system key, task, base
seed, planner/controller :class:`~repro.core.create.ProtectionConfig` — and a
:class:`CampaignRunner` executes the (spec, seed) cells:

* **deterministically** — every trial is a pure function of (system, task,
  seed, protections), so serial, parallel, and batched execution produce
  bit-identical canonical run tables;
* **in parallel** — cells are distributed over a
  :class:`~concurrent.futures.ProcessPoolExecutor`; workers rebuild systems
  from the picklable factory keys of :mod:`repro.agents.registry` and cache
  them per process (deployed systems are deliberately never pickled);
* **in batches** — several cells ride in one worker task (``batch=`` knob,
  auto-tuned by default) so very short trials amortize process-pool IPC;
  batching groups cells without reordering or reseeding them — and cuts the
  chunks at spec boundaries — so it cannot change results;
* **as lane groups** — consecutive cells of the same spec (identical
  system, task and protections; only the seed differs) execute as the lanes
  of one :meth:`~repro.agents.executor.MissionExecutor.run_trial_group`
  call, which batches their planner decodes and controller forwards into
  one stacked GEMM per projection per tick.  Every trial keeps its own RNG
  streams, so a group's rows equal one-lane runs of its cells byte for
  byte; ``vector=False`` caps every group at one cell;
* **streamed to disk** — with an output directory, completed rows are
  appended to ``<out>/<name>.csv`` *as they finish* (flushed per row), so a
  campaign killed mid-flight leaves a crash-safe partial table behind;
* **incrementally** — re-runs load the persisted table (tolerating a torn
  final row from a crash) and only execute the missing (spec, seed) cells.

Each executed cell is also timed and attributed to its worker process and
execution path; the profile lands in the ``wall_time_s`` / ``worker_id`` /
``batch_size`` / ``vector_path`` columns of the in-memory
:class:`~repro.eval.runtable.RunRecord` rows, in the append-only
``<out>/profiles/<name>.csv`` sidecar, and in the
:meth:`CampaignResult.profile` summary.  Profile columns are *excluded* from
the canonical ``<name>.csv`` / ``<name>.json`` files — wall time depends on
machine load, and the canonical files must stay byte-identical across
serial/parallel/batched runs.

Systems may also be passed as live :class:`~repro.agents.EmbodiedSystem` /
:class:`~repro.agents.MissionExecutor` objects (``systems=`` mapping); those
run in-process, which restricts the campaign to serial execution.

See ``docs/campaigns.md`` for a walkthrough and ``docs/runtable-schema.md``
for the on-disk format.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import hashlib
import json
import os
import socket
import time
from dataclasses import dataclass, is_dataclass, asdict, replace
from pathlib import Path
from typing import Callable, Iterator, Mapping, Sequence, Union

from ..agents.executor import MissionExecutor
from ..agents.jarvis import EmbodiedSystem
from ..core.create import ProtectionConfig
from ..core.voltage_scaling import VoltageScalingConfig
from .metrics import TrialSummary
from .runtable import (RunRecord, RunTable, RunTableWriter, record_from_trial,
                       summarize_records)
from .shard import Shard

__all__ = ["TrialSpec", "CampaignResult", "CampaignRunner", "run_campaign",
           "CampaignProfile", "ProfileBucket", "collect_results",
           "protection_signature", "system_ref", "merge_overrides", "slugify",
           "SystemLike", "PlannedCampaign", "planning", "shard_scope",
           "enumerate_cells", "pending_cells", "placeholder_record"]

#: Anything an experiment accepts as "the system under test".
SystemLike = Union[str, EmbodiedSystem, MissionExecutor]

#: Largest batch the auto-tuner will pick; keeps streaming granular even for
#: huge campaigns (a batch only reaches the parent — and the disk — whole).
_MAX_AUTO_BATCH = 32


def slugify(text: str) -> str:
    """File-name-safe campaign name derived from a free-form label."""
    cleaned = "".join(c if c.isalnum() or c in "-_." else "-" for c in text.lower())
    while "--" in cleaned:
        cleaned = cleaned.replace("--", "-")
    return cleaned.strip("-") or "campaign"


# ----------------------------------------------------------------------
# Canonical signatures (drive spec keys and resume safety)
# ----------------------------------------------------------------------
def _error_model_signature(model) -> str:
    if model is None:
        return "none"
    from ..faults.models import UniformErrorModel, VoltageErrorModel

    if isinstance(model, UniformErrorModel):
        return f"uniform(ber={model.ber!r})"
    if isinstance(model, VoltageErrorModel):
        return f"voltage(v={model.voltage!r})"
    if is_dataclass(model):
        return f"{type(model).__name__}({sorted(asdict(model).items())!r})"
    return f"{type(model).__name__}({model.describe()})"


def _vs_signature(scaling: VoltageScalingConfig | None) -> str:
    if scaling is None:
        return "none"
    policy = scaling.policy
    return (f"{policy.name}[{policy.thresholds!r}->{policy.voltages!r}]"
            f"/every{scaling.update_interval}/{scaling.entropy_source}")


def protection_signature(protection: ProtectionConfig | None) -> str:
    """Canonical, collision-resistant description of a protection config.

    The signature feeds :meth:`TrialSpec.key`, which keys run-table rows: two
    protections with any observable difference (voltage, error model, AD flag,
    VS policy/interval/source, target components, exposure, injector kind)
    must produce different signatures, or resume would silently reuse rows
    from the wrong condition.
    """
    if protection is None:
        return "default"
    return ";".join([
        f"voltage={protection.voltage!r}",
        f"model={_error_model_signature(protection.error_model)}",
        f"ad={protection.anomaly_detection}",
        f"vs={_vs_signature(protection.voltage_scaling)}",
        f"components={protection.target_components!r}",
        f"exposure={protection.exposure_scale!r}",
        f"injector={protection.injector_kind}",
    ])


# ----------------------------------------------------------------------
# Specs
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TrialSpec:
    """One experimental condition: which system runs which task, how protected.

    A spec expands into ``num_trials`` run-table cells seeded ``seed`` ..
    ``seed + num_trials - 1``; growing ``num_trials`` on a later run only
    executes the new cells.  ``params`` carries free-form condition labels
    (e.g. ``(("ber", "1e-3"),)``) that are stored verbatim in the run table.

    ``fleet`` is the fleet-runtime axis: each cell still records one agent's
    trial, but cells of a ``fleet > 1`` spec execute in co-stepped groups of
    ``fleet`` agents through the cross-agent batched path (see
    :mod:`repro.agents.fleet`).  Results are bit-identical either way, so
    ``fleet`` is an execution-shape knob and — like ``num_trials`` — is
    excluded from :meth:`signature` when left at 1, keeping every existing
    spec key stable.
    """

    condition: str
    system: str
    task: str
    num_trials: int
    seed: int = 0
    planner_protection: ProtectionConfig | None = None
    controller_protection: ProtectionConfig | None = None
    params: tuple[tuple[str, str], ...] = ()
    fleet: int = 1

    def __post_init__(self):
        if not self.condition:
            raise ValueError("condition label must be non-empty")
        if self.num_trials <= 0:
            raise ValueError("num_trials must be positive")
        if not 1 <= self.fleet <= 1000:
            raise ValueError("fleet size must be in 1..1000")

    def seeds(self) -> range:
        """The seeds of this spec's cells, one per trial."""
        return range(self.seed, self.seed + self.num_trials)

    def signature(self) -> str:
        """Human-readable identity of the condition (everything but trial count)."""
        return "|".join([
            self.condition, self.system, self.task,
            protection_signature(self.planner_protection),
            protection_signature(self.controller_protection),
            json.dumps(dict(self.params)),
        ])

    def key(self) -> str:
        """Short stable hash of :meth:`signature`; the run table's ``spec_key``."""
        return hashlib.sha1(self.signature().encode()).hexdigest()[:16]

    def params_json(self) -> str:
        return json.dumps(dict(self.params))


def system_ref(system: SystemLike, hint: str = "") -> tuple[str, dict[str, object]]:
    """Normalize a system argument into (key, in-process overrides).

    Registry key strings pass through untouched.  Live objects get a stable
    pseudo-key (so run tables can still resume) and are returned as an
    override mapping for :class:`CampaignRunner`'s in-process execution path.
    The pseudo-key encodes the system's observable configuration (name,
    rotation, quantization, predictor) — pass distinct ``hint`` values to
    disambiguate systems this cannot tell apart.
    """
    if isinstance(system, str):
        return system, {}
    if isinstance(system, EmbodiedSystem):
        parts = ["local", system.name,
                 "rotated" if system.planner_rotated else "plain",
                 str(system.controller.spec).lower()]
        if system.planner is None:
            parts.append("noplanner")
        if system.predictor is None:
            parts.append("nopredictor")
        if hint:
            parts.append(hint)
        key = "/".join(parts)
        return key, {key: system}
    if isinstance(system, MissionExecutor):
        key = "/".join(p for p in ("local", "executor", hint) if p)
        return key, {key: system}
    raise TypeError(f"expected a system key, EmbodiedSystem or MissionExecutor, "
                    f"got {type(system).__name__}")


def merge_overrides(target: dict[str, object],
                    overrides: Mapping[str, object]) -> dict[str, object]:
    """Merge in-process system overrides, refusing silent key collisions."""
    for key, system in overrides.items():
        if key in target and target[key] is not system:
            raise ValueError(
                f"two distinct in-process systems map to the key {key!r}; pass "
                "registry keys (repro.agents.registry) or distinct system_ref hints")
        target[key] = system
    return target


# ----------------------------------------------------------------------
# Cell execution (worker side)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _Cell:
    """One (spec, seed) unit of work — fully picklable."""

    spec_key: str
    condition: str
    system: str
    task: str
    seed: int
    trial_index: int
    planner_protection: ProtectionConfig | None
    controller_protection: ProtectionConfig | None
    params: str
    fleet: int = 1


def _spec_cells(spec: TrialSpec, key: str | None = None) -> Iterator[_Cell]:
    key = key or spec.key()
    params = spec.params_json()
    for index, seed in enumerate(spec.seeds()):
        yield _Cell(spec_key=key, condition=spec.condition, system=spec.system,
                    task=spec.task, seed=seed, trial_index=index,
                    planner_protection=spec.planner_protection,
                    controller_protection=spec.controller_protection,
                    params=params, fleet=spec.fleet)


def enumerate_cells(specs: Sequence[TrialSpec]) -> list[_Cell]:
    """The full (spec, seed) cell grid of a campaign, in canonical order.

    This is the planner half of the engine's planner/executor split: the
    grid enumeration is a pure function of the specs, so every participant
    of a distributed campaign — the enqueuing planner, each worker daemon,
    each static shard, and the final merge — derives the identical grid
    independently.  :class:`repro.eval.scheduler.CampaignPlan` builds on it.
    """
    return [cell for spec in specs for cell in _spec_cells(spec)]


def pending_cells(specs: Sequence[TrialSpec], table: RunTable) -> list[_Cell]:
    """The cells of the grid not yet present in ``table`` (resume filter)."""
    return [cell for cell in enumerate_cells(specs)
            if not table.has(cell.spec_key, cell.seed)]


def placeholder_record(cell: _Cell) -> RunRecord:
    """A synthetic row standing in for a cell this process did not execute.

    Plan-capture mode and shard execution return campaign results whose
    tables cover the full grid so downstream aggregation code (summaries,
    sweep printers) keeps working; cells owned by other shards / not yet
    executed are filled with these neutral rows.  Placeholders are **never
    written to disk** — persisted tables contain only measured cells — and
    are recognizable by ``worker_id == "placeholder"``.
    """
    return RunRecord(
        spec_key=cell.spec_key, condition=cell.condition, system=cell.system,
        task=cell.task, seed=cell.seed, trial_index=cell.trial_index,
        success=False, steps=0, planner_invocations=0, controller_steps=0,
        energy_j=0.0, effective_voltage=0.0, planner_bits_flipped=0,
        controller_bits_flipped=0, planner_elements_clamped=0,
        controller_elements_clamped=0, mean_entropy=float("nan"),
        entropy_records=0, planner_macs="{}", controller_macs="{}",
        predictor_macs="{}", params=cell.params, worker_id="placeholder")


# ----------------------------------------------------------------------
# Plan capture and shard scope (the distributed-scheduling hooks)
# ----------------------------------------------------------------------
@dataclass
class PlannedCampaign:
    """One campaign captured by :func:`planning` instead of being executed.

    ``pending`` holds the cells a normal run would have executed (the grid
    minus rows resumed from ``out``); ``existing_rows`` counts the resumed
    rows.  The scheduler turns these into queue tasks or dry-run reports.
    """

    name: str
    specs: list[TrialSpec]
    out: Path | None
    pending: list[_Cell]
    existing_rows: int

    @property
    def total_cells(self) -> int:
        return sum(spec.num_trials for spec in self.specs)


_PLAN_SINKS: list[list[PlannedCampaign]] = []


@contextlib.contextmanager
def planning() -> Iterator[list[PlannedCampaign]]:
    """Capture campaign plans instead of executing trials.

    Inside the block, :meth:`CampaignRunner.run` enumerates each campaign's
    cells (respecting resume against ``out``), records a
    :class:`PlannedCampaign` in the yielded list, and returns a result built
    from placeholder rows — executing nothing, training nothing, and writing
    nothing to disk.  This is how ``repro-create campaign --dry-run`` counts
    cells and how ``--queue`` enqueues work without running it: the preset's
    experiment code runs unmodified, only the engine underneath is swapped.

    The numbers in any aggregate the experiment computes inside the block
    are placeholder garbage; callers must discard them (the CLI suppresses
    the preset's printing in plan mode).  Adaptive experiments that branch
    on trial *results* (e.g. ``minimum_voltage_search``) cannot be planned
    meaningfully — their later campaigns would be planned from placeholder
    outcomes.
    """
    sink: list[PlannedCampaign] = []
    _PLAN_SINKS.append(sink)
    try:
        yield sink
    finally:
        _PLAN_SINKS[:] = [s for s in _PLAN_SINKS if s is not sink]


_SHARD_STACK: list[Shard] = []


@contextlib.contextmanager
def shard_scope(shard: Shard | None) -> Iterator[None]:
    """Restrict campaigns inside the block to one static shard of their grid.

    Every :meth:`CampaignRunner.run` call in the block executes only the
    cells ``shard`` owns (see :mod:`repro.eval.shard`); the persisted table
    holds just those cells, and the in-memory result is padded with
    placeholder rows so aggregation code does not crash (its numbers are
    only meaningful once all shard tables are merged).  ``shard=None`` is a
    no-op, so callers can pass an optional shard through unconditionally.
    """
    if shard is None:
        yield
        return
    _SHARD_STACK.append(shard)
    try:
        yield
    finally:
        _SHARD_STACK[:] = [s for s in _SHARD_STACK if s is not shard]


def _active_shard() -> Shard | None:
    return _SHARD_STACK[-1] if _SHARD_STACK else None


def _worker_id() -> str:
    """Globally unique attribution of the executing worker.

    Hostname and pid are included because distributed campaigns (queue
    workers, static shards) run cells on several hosts: the multiprocessing
    process name alone ("ForkProcess-1") collides across hosts and across
    successive pools, which made profile sidecars ambiguous.
    """
    import multiprocessing

    return (f"{socket.gethostname()}-{os.getpid()}-"
            f"{multiprocessing.current_process().name}")


def _plan_cache_state(executor) -> str:
    """``plan_cache`` profile stamp: the executor's plan provenance, or ``""``.

    Queried *before* the cell runs, so the first cell over a freshly built
    executor stamps ``miss`` (it pays the plan build) and later cells stamp
    ``hit`` / ``shm``.  Duck-typed executor stand-ins without the method
    stamp the empty string, like legacy rows.
    """
    state = getattr(executor, "plan_cache_state", None)
    return state() if callable(state) else ""


def _spec_groups(cells: Sequence[_Cell]) -> list[list[_Cell]]:
    """Consecutive same-spec runs of a cell sequence, in order.

    Cells of one group share (system, task, protections) — a spec key hashes
    exactly those — and differ only in seed, which is the shape a lane group
    runs.  Grouping never reorders cells.
    """
    groups: list[list[_Cell]] = []
    for cell in cells:
        if groups and groups[-1][0].spec_key == cell.spec_key:
            groups[-1].append(cell)
        else:
            groups.append([cell])
    return groups


def _chunk_cells(cells: Sequence[_Cell], size: int) -> list[tuple[_Cell, ...]]:
    """Split cells into pool-task chunks of at most ``size``, cut at spec
    boundaries.

    The flat ``cells[i:i+size]`` slicing this replaces ignored shape
    homogeneity: a chunk could straddle two specs, splitting each spec's
    run across workers and shrinking the same-spec lane groups.  Cutting at
    spec boundaries keeps every chunk a single lane group; no cell is
    reordered or reseeded, so the canonical table is unchanged.
    """
    chunks: list[tuple[_Cell, ...]] = []
    run: list[_Cell] = []
    for cell in cells:
        if run and (len(run) >= size or run[0].spec_key != cell.spec_key):
            chunks.append(tuple(run))
            run = []
        run.append(cell)
    if run:
        chunks.append(tuple(run))
    return chunks


def _lane_groups(cells: Sequence[_Cell], vector: bool = True
                 ) -> list[Sequence[_Cell]]:
    """The lane groups a cell sequence executes as, in order.

    Each same-spec run is one group; ``fleet > 1`` specs cut it into
    co-stepped fleets of ``fleet`` agents, and ``vector=False`` into single
    cells.  Result columns never depend on the cut — it only reshapes which
    lanes share a kernel pass.
    """
    groups: list[Sequence[_Cell]] = []
    for run in _spec_groups(cells):
        if not vector:
            size = 1
        elif run[0].fleet > 1:
            size = run[0].fleet
        else:
            size = len(run)
        groups.extend(run[lo:lo + size] for lo in range(0, len(run), size))
    return groups


def _run_lane_group(cells: Sequence[_Cell],
                    executor: MissionExecutor) -> list[RunRecord]:
    """Run one same-spec lane group and stamp its profile attribution.

    All lanes ride one :meth:`MissionExecutor.run_trial_group` call.  Wall
    time is attributed evenly across the group; ``vector_path`` is
    ``scalar`` for a one-lane group, ``fleet`` for a fleet of a
    ``fleet > 1`` spec, and ``batched`` otherwise.
    """
    first = cells[0]
    plan_cache = _plan_cache_state(executor)
    start = time.perf_counter()
    trials = executor.run_trial_group(
        [(cell.task, cell.seed) for cell in cells],
        planner_protection=first.planner_protection,
        controller_protection=first.controller_protection)
    share = (time.perf_counter() - start) / len(cells)
    vector_path = "scalar" if len(cells) == 1 \
        else "fleet" if first.fleet > 1 else "batched"
    worker = _worker_id()
    records = []
    for cell, trial in zip(cells, trials):
        record = record_from_trial(trial, spec_key=cell.spec_key,
                                   condition=cell.condition, system=cell.system,
                                   task=cell.task, seed=cell.seed,
                                   trial_index=cell.trial_index, params=cell.params)
        records.append(replace(record, wall_time_s=share, worker_id=worker,
                               batch_size=len(cells), vector_path=vector_path,
                               queue_backend="local", fleet_size=cell.fleet,
                               plan_cache=plan_cache))
    return records


_WORKER_EXECUTORS: dict[str, MissionExecutor] = {}

#: Parent-side weight-plane state: system key -> role -> PlanManifest for
#: every plan this process has published.  The manifests (small, picklable)
#: travel to pool workers as task arguments; the arrays travel through the
#: shared segments.  Evicted together with the system cache.
_SHM_MANIFESTS: dict[str, dict[str, object]] = {}


def _publish_system_plans(systems: set[str]):
    """Parent-side: publish each registry system's kernel plans to shm.

    Builds the system in the parent (once — pool children forked afterwards
    inherit it, and non-forked workers verify by content hash), publishes
    its planner/controller plans, and returns ``{system: {role: manifest}}``
    for the pool tasks.  Returns ``None`` — per-process fallback — when the
    plane is disabled or shared memory is unavailable; trial results are
    identical either way.
    """
    from ..quant import weightplane

    if not weightplane.enabled():
        return None
    weightplane.sweep_orphans()
    manifests: dict[str, dict[str, object]] = {}
    for key in sorted(systems):
        entry = _SHM_MANIFESTS.get(key)
        if entry is None:
            from ..agents.registry import SYSTEM_FACTORIES, get_system

            if key not in SYSTEM_FACTORIES:
                continue
            entry = {}
            system = get_system(key)
            for role in ("planner", "controller"):
                model = getattr(system, role, None)
                if model is None or not hasattr(model, "kernel_plan"):
                    continue
                try:
                    entry[role] = weightplane.publish(model.kernel_plan())
                except weightplane.SharedMemoryUnavailable:
                    return None
            _SHM_MANIFESTS[key] = entry
        if entry:
            manifests[key] = entry
    return manifests or None


def _unpublish_system_plans() -> None:
    """Parent-side teardown: destroy published segments, forget manifests."""
    from ..quant import weightplane

    _SHM_MANIFESTS.clear()
    weightplane.unlink_all()


def _adopt_shared_plans(key: str, system, shm_plans) -> None:
    """Worker-side: swap the system's kernel plans for attached shm views.

    Adoption is hash-verified (see ``adopt_plan``) and best-effort: a missing
    segment, a disabled plane, or a checkpoint mismatch silently keeps the
    process-private plan — the fallback changes memory footprint, never a
    result.
    """
    entry = (shm_plans or {}).get(key) or _SHM_MANIFESTS.get(key)
    if not entry:
        return
    from ..quant import weightplane

    for role in ("planner", "controller"):
        manifest = entry.get(role)
        model = getattr(system, role, None)
        if manifest is None or model is None or not hasattr(model, "adopt_plan"):
            continue
        if getattr(model, "plan_provenance", lambda: "")() == "shm":
            continue
        try:
            model.adopt_plan(weightplane.attach(manifest))
        except (weightplane.SharedMemoryUnavailable, ValueError):
            continue


def _worker_executor(key: str, shm_plans=None) -> MissionExecutor:
    """This worker's cached executor for a system key (built on first use)."""
    executor = _WORKER_EXECUTORS.get(key)
    if executor is None:
        from ..agents.registry import get_system

        system = get_system(key)
        _adopt_shared_plans(key, system, shm_plans)
        executor = system.executor()
        _WORKER_EXECUTORS[key] = executor
    return executor


def _register_eviction_hook() -> None:
    """Tie the worker caches to the registry's system-cache lifetime.

    ``clear_system_cache()`` / ``register_system(..., overwrite=True)`` must
    not leave behind executors (or published weight-plane manifests) built
    over systems the registry no longer serves — a stale executor would keep
    running trials on the old instance in-process.
    """
    from ..agents.registry import on_system_eviction

    @on_system_eviction
    def _evict_worker_state(key: str | None) -> None:
        if key is None:
            _WORKER_EXECUTORS.clear()
            _SHM_MANIFESTS.clear()
        else:
            _WORKER_EXECUTORS.pop(key, None)
            _SHM_MANIFESTS.pop(key, None)


_register_eviction_hook()


def _pool_run_batch(cells: tuple[_Cell, ...], vector: bool = True,
                    shm_plans: dict | None = None) -> list[RunRecord]:
    """Worker entry point: run a batch of cells on this worker's cached systems.

    Cells arrive in campaign order and run in that order, as the lane
    groups of :func:`_lane_groups`; every trial is seeded by its own cell,
    so batch composition cannot change results — it only amortizes the
    per-task pickle/IPC cost over ``len(cells)`` trials.  ``shm_plans``
    carries the parent's weight-plane manifests (see
    :func:`_publish_system_plans`); workers attach zero-copy instead of
    holding private plan arrays, falling back silently when they can't.
    """
    records = []
    for group in _lane_groups(cells, vector):
        executor = _worker_executor(group[0].system, shm_plans)
        records.extend(_run_lane_group(group, executor))
    return records


# ----------------------------------------------------------------------
# Profiling
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ProfileBucket:
    """Aggregate of the cells attributed to one worker or condition."""

    cells: int
    wall_time_s: float


@dataclass(frozen=True)
class CampaignProfile:
    """Execution profile of one campaign run (only the cells it executed).

    Rows loaded from a resumed table carry no timing (``wall_time_s`` is NaN)
    and count as ``cached_trials``; everything else aggregates the freshly
    executed cells recorded in the run table's profile columns.
    """

    executed_trials: int
    cached_trials: int
    total_wall_time_s: float
    mean_cell_wall_time_s: float
    max_cell_wall_time_s: float
    per_worker: dict[str, ProfileBucket]
    per_condition: dict[str, ProfileBucket]

    def format(self) -> str:
        """Multi-line human-readable summary (used by the CLI)."""
        lines = [f"executed {self.executed_trials} cells "
                 f"({self.cached_trials} cached) in "
                 f"{self.total_wall_time_s:.2f} s of worker time; "
                 f"mean {self.mean_cell_wall_time_s:.3f} s/cell, "
                 f"max {self.max_cell_wall_time_s:.3f} s"]
        for worker in sorted(self.per_worker):
            bucket = self.per_worker[worker]
            lines.append(f"  {worker}: {bucket.cells} cells, "
                         f"{bucket.wall_time_s:.2f} s")
        return "\n".join(lines)


def _profile_records(records: Sequence[RunRecord]) -> CampaignProfile:
    executed = [r for r in records if r.profiled()]
    times = [r.wall_time_s for r in executed]
    per_worker: dict[str, list[float]] = {}
    per_condition: dict[str, list[float]] = {}
    for record in executed:
        per_worker.setdefault(record.worker_id, []).append(record.wall_time_s)
        per_condition.setdefault(record.condition, []).append(record.wall_time_s)
    bucket = lambda values: ProfileBucket(cells=len(values),
                                          wall_time_s=float(sum(values)))
    return CampaignProfile(
        executed_trials=len(executed),
        cached_trials=len(records) - len(executed),
        total_wall_time_s=float(sum(times)),
        mean_cell_wall_time_s=float(sum(times) / len(times)) if times else 0.0,
        max_cell_wall_time_s=float(max(times)) if times else 0.0,
        per_worker={k: bucket(v) for k, v in per_worker.items()},
        per_condition={k: bucket(v) for k, v in per_condition.items()},
    )


# ----------------------------------------------------------------------
# Result collection (used by chained presets, e.g. the full-paper sweep)
# ----------------------------------------------------------------------
_RESULT_SINKS: list[list["CampaignResult"]] = []


@contextlib.contextmanager
def collect_results() -> Iterator[list["CampaignResult"]]:
    """Collect every :class:`CampaignResult` produced inside the block.

    Experiment helpers return figure-level aggregates and drop the underlying
    :class:`CampaignResult`; chained drivers (the CLI's ``campaign paper``
    preset, scripts looping over experiments) use this to observe how many
    cells actually executed::

        with collect_results() as results:
            experiments.interval_sweep("jarvis", "wooden", out=out)
        executed = sum(r.executed_trials for r in results)

    Nesting is allowed; each active block receives every result.
    """
    sink: list[CampaignResult] = []
    _RESULT_SINKS.append(sink)
    try:
        yield sink
    finally:
        # Remove by identity: equality would match any other empty sink list
        # (e.g. an enclosing nested block) and detach the wrong one.
        _RESULT_SINKS[:] = [s for s in _RESULT_SINKS if s is not sink]


# ----------------------------------------------------------------------
# Runner
# ----------------------------------------------------------------------
@dataclass
class CampaignResult:
    """Run table plus the specs that produced it.

    ``executed_trials`` counts the cells executed by *this* run (resumed
    cells are excluded); ``csv_path``/``json_path`` point at the canonical
    persisted table when the campaign ran with an output directory.
    """

    specs: list[TrialSpec]
    table: RunTable
    executed_trials: int
    csv_path: Path | None = None
    json_path: Path | None = None
    profile_path: Path | None = None
    #: Cells represented by synthetic placeholder rows (plan mode, or cells
    #: owned by other shards of a ``shard_scope`` run).  Non-zero means the
    #: aggregates computed from this result are partial/meaningless until
    #: the shard tables are merged.
    placeholder_trials: int = 0

    def _spec(self, condition: str) -> TrialSpec:
        for spec in self.specs:
            if spec.condition == condition:
                return spec
        raise KeyError(f"unknown condition {condition!r}")

    def records(self, condition: str) -> list[RunRecord]:
        """This condition's rows, one per seed, in trial order."""
        spec = self._spec(condition)
        key = spec.key()
        records = []
        for seed in spec.seeds():
            record = self.table.get(key, seed)
            if record is None:
                raise KeyError(f"run table is missing ({condition!r}, seed={seed})")
            records.append(record)
        return records

    def summary(self, condition: str) -> TrialSummary:
        """Aggregate one condition's rows into a :class:`TrialSummary`."""
        return summarize_records(self.records(condition))

    def summaries(self) -> dict[str, TrialSummary]:
        """Condition label -> :class:`TrialSummary`, in spec order."""
        return {spec.condition: self.summary(spec.condition) for spec in self.specs}

    def grouped(self, by: tuple[str, ...] = ("condition",),
                confidence: float = 0.95):
        """Grouped statistics with confidence intervals over this table.

        Delegates to :func:`repro.eval.analysis.group_records`, so the axes
        can be record fields *or* spec ``params`` labels (``ber``,
        ``policy``, ...) — the same grouping the publication pack uses.
        """
        from .analysis import group_records

        return group_records(self.table, by=by, confidence=confidence)

    def profile(self) -> CampaignProfile:
        """Execution profile of this run (wall time per cell/worker/condition).

        Only cells executed by this run carry timing; cells loaded from a
        resumed table appear as ``cached_trials``.
        """
        return _profile_records(list(self.table))


class CampaignRunner:
    """Executes trial specs serially or across a process pool, with resume.

    Parameters
    ----------
    jobs:
        Worker processes.  ``1`` runs in-process; ``> 1`` requires every spec
        to name a system key from :mod:`repro.agents.registry` (or one of the
        ``systems`` overrides backed by a registry key).
    out:
        Directory for the persistent run table (``<out>/<name>.csv`` and
        ``.json``, plus the ``profiles/<name>.csv`` execution log).  ``None``
        keeps the campaign in memory.  While the campaign runs, completed
        rows are appended to the CSV and flushed immediately; on completion
        the file is rewritten in canonical (spec order, then seed) order.
    systems:
        Optional mapping of system key to a live :class:`EmbodiedSystem` or
        :class:`MissionExecutor` used for in-process execution.
    resume:
        When true (default) and ``out`` holds a table, completed
        (spec, seed) cells are loaded instead of re-executed.  A truncated
        final row (campaign killed mid-write) is dropped and re-executed.
        ``resume=False`` means "discard and re-measure": any existing table
        files for ``name`` are deleted *before* execution starts, so the
        old results are gone even if the re-run is interrupted early.
    batch:
        Cells per worker task when running in parallel.  ``None`` (default)
        auto-tunes to roughly four batches per worker, capped at
        ``32`` cells; ``1`` restores one-cell-per-task dispatch.  Batching
        never reorders or reseeds cells — and chunks are cut at spec
        boundaries so each worker task stays a single lane group — so any
        value produces the same canonical table byte for byte.
    vector:
        When true (default), consecutive same-spec cells run as the lanes
        of one :meth:`MissionExecutor.run_trial_group` call.  ``False``
        caps every group at one cell (one-lane groups; useful for profiling
        comparisons — the ``vector_path`` sidecar column records each
        cell's group shape).  Results are byte-identical either way.
    shard:
        Execute only this static slice of the cell grid (see
        :mod:`repro.eval.shard`); ``None`` (default) inherits the ambient
        :func:`shard_scope` if one is active, else runs everything.  Cells
        owned by other shards appear as placeholder rows in the returned
        result and are never written to disk; a plan file is saved under
        ``<out>/plans/`` so ``repro-create merge`` can restore the canonical
        row order across shard tables.
    """

    def __init__(self, jobs: int = 1, out: str | Path | None = None,
                 systems: Mapping[str, object] | None = None, resume: bool = True,
                 batch: int | None = None, shard: Shard | None = None,
                 vector: bool = True):
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        if batch is not None and batch < 1:
            raise ValueError("batch must be >= 1 (or None to auto-tune)")
        self.jobs = jobs
        self.out = Path(out) if out is not None else None
        self.systems: dict[str, object] = dict(systems or {})
        self.resume = resume
        self.batch = batch
        self.shard = shard
        self.vector = vector
        self._executors: dict[str, MissionExecutor] = {}

    # ------------------------------------------------------------------
    def _executor_for(self, key: str) -> MissionExecutor:
        executor = self._executors.get(key)
        if executor is None:
            obj = self.systems.get(key)
            if obj is None:
                from ..agents.registry import get_system

                obj = get_system(key)
            executor = obj if isinstance(obj, MissionExecutor) else obj.executor()
            self._executors[key] = executor
        return executor

    def _can_parallelize(self, systems: set[str]) -> bool:
        """Workers can only run systems they can rebuild from the registry;
        ``systems`` overrides are in-process objects, so they force serial."""
        from ..agents.registry import SYSTEM_FACTORIES

        return all(key in SYSTEM_FACTORIES and key not in self.systems
                   for key in systems)

    def _batch_size(self, num_cells: int) -> int:
        """Cells per worker task: explicit ``batch=``, else auto-tuned.

        The auto-tuner targets about four batches per worker — enough slack
        for load balancing when cell durations vary — and caps the batch at
        :data:`_MAX_AUTO_BATCH` so results keep streaming to disk at a
        reasonable cadence (a batch reaches the parent only when whole).
        """
        if self.batch is not None:
            return self.batch
        return max(1, min(_MAX_AUTO_BATCH, num_cells // (self.jobs * 4)))

    def _run_pool(self, cells: list[_Cell], cell_systems: set[str],
                  sink: Callable[[RunRecord], None]) -> list[RunRecord]:
        """Execute cells on a process pool, forking when possible.

        Fork lets workers inherit ``register_system``-added factories and warm
        caches; where fork is unavailable (spawn-only platforms), workers
        re-import the registry and can only rebuild the built-in systems.

        Cells are grouped into :meth:`_batch_size`-capped, spec-aligned
        chunks (:func:`_chunk_cells`), one pool task per chunk; completed
        chunks are handed to ``sink`` (the streaming writer) the moment they
        finish, in completion order.
        """
        import multiprocessing

        try:
            context = multiprocessing.get_context("fork")
        except ValueError:
            context = None
            from ..agents.registry import BUILTIN_SYSTEM_KEYS

            custom = sorted(cell_systems - BUILTIN_SYSTEM_KEYS)
            if custom:
                raise ValueError(
                    "parallel campaigns over custom-registered systems need the "
                    "'fork' start method, which this platform lacks; run with "
                    "jobs=1 for: " + ", ".join(custom))
        size = self._batch_size(len(cells))
        batches = _chunk_cells(cells, size)
        records: list[RunRecord] = []
        consumed: set = set()

        def drain(future) -> None:
            for record in future.result():
                sink(record)
                records.append(record)
            consumed.add(future)

        # Publish the weight plane before the pool exists: fork-started
        # workers then inherit the parent-built systems (copy-on-write) and
        # attach the published plans zero-copy instead of each paying a
        # private rebuild.  None — plane disabled or unavailable — falls
        # back to per-process plans with identical results.
        shm_plans = _publish_system_plans(cell_systems)
        pool = concurrent.futures.ProcessPoolExecutor(max_workers=self.jobs,
                                                      mp_context=context)
        try:
            futures = [pool.submit(_pool_run_batch, chunk, self.vector,
                                   shm_plans)
                       for chunk in batches]
            failure: BaseException | None = None
            for future in concurrent.futures.as_completed(futures):
                try:
                    drain(future)
                except BaseException as exc:
                    failure = exc
                    break
            if failure is not None:
                # Don't waste workers on batches whose results would be
                # discarded, but do stream every batch that already finished
                # — those rows are valid and make the resume cheaper.
                pool.shutdown(wait=True, cancel_futures=True)
                for future in futures:
                    if future in consumed or future.cancelled() or not future.done():
                        continue
                    try:
                        drain(future)
                    except BaseException:
                        pass
                raise failure
        finally:
            # cancel_futures also covers exceptions raised outside drain()
            # (e.g. KeyboardInterrupt while blocked in as_completed): queued
            # batches would otherwise run to completion just to be discarded.
            # Harmless on the normal path, where every future is already done.
            pool.shutdown(wait=True, cancel_futures=True)
            # Parent-owned lifecycle: the segments die with the pool that
            # attached them, keeping the /dev/shm namespace clean between
            # campaigns (and after exceptions — this is the finally block).
            _unpublish_system_plans()
        return records

    def _run_serial(self, cells: list[_Cell],
                    sink: Callable[[RunRecord], None]) -> list[RunRecord]:
        """Execute cells in-process, streaming each group's rows as it completes.

        A lane group is the unit of execution, so its rows reach the sink
        together; with ``vector=False`` every cell is its own group and rows
        stream one by one.
        """
        records: list[RunRecord] = []
        for group in _lane_groups(cells, self.vector):
            executor = self._executor_for(group[0].system)
            for record in _run_lane_group(group, executor):
                sink(record)
                records.append(record)
        return records

    # ------------------------------------------------------------------
    def run(self, specs: Sequence[TrialSpec], name: str = "campaign") -> CampaignResult:
        """Execute the missing cells of ``specs`` and return the full table.

        The campaign's canonical files are ``<out>/<name>.csv`` (source of
        truth for resume) and ``<out>/<name>.json`` (strict-JSON mirror);
        both are rewritten in canonical order on completion.  During the run
        the CSV receives completed rows in completion order — the file grows
        while the campaign executes, and an interrupted run resumes from it.

        Under an active :func:`planning` block the run only *plans*: it
        records the pending cells and returns a placeholder-row result
        without executing or writing anything.  Under a shard (constructor
        argument or ambient :func:`shard_scope`) it executes and persists
        only the shard's cells.
        """
        specs = list(specs)
        if not specs:
            raise ValueError("a campaign needs at least one spec")
        conditions = [spec.condition for spec in specs]
        if len(set(conditions)) != len(conditions):
            raise ValueError("condition labels must be unique within a campaign")

        planning_mode = bool(_PLAN_SINKS)
        csv_path = self.out / f"{name}.csv" if self.out is not None else None
        json_path = self.out / f"{name}.json" if self.out is not None else None
        profile_path = (self.out / "profiles" / f"{name}.csv"
                        if self.out is not None else None)
        table = RunTable()
        if csv_path is not None and csv_path.exists():
            if self.resume:
                table = RunTable.read_csv(csv_path, strict=False)
            elif planning_mode:
                pass  # plan resume=False as a full re-run, but touch nothing
            else:
                # Forced re-execution must not append after stale rows: a
                # crash before the completion rewrite would otherwise leave
                # duplicates where the stale row wins on the next resume.
                # The stale JSON mirror goes too, so no file contradicts
                # the stream.
                csv_path.unlink()
                if json_path is not None and json_path.exists():
                    json_path.unlink()

        keys = [spec.key() for spec in specs]
        cells = pending_cells(specs, table)

        if planning_mode:
            planned = PlannedCampaign(name=name, specs=specs, out=self.out,
                                      pending=cells, existing_rows=len(table))
            for sink in _PLAN_SINKS:
                sink.append(planned)
            return self._finalize(specs, keys, table, executed=0,
                                  placeholders=cells)

        shard = self.shard if self.shard is not None else _active_shard()
        foreign: list[_Cell] = []
        if shard is not None:
            cells, foreign = shard.split(cells)

        if cells:
            cell_systems = {cell.system for cell in cells}
            parallel = self.jobs > 1 and self._can_parallelize(cell_systems)
            if self.jobs > 1 and not parallel:
                from ..agents.registry import SYSTEM_FACTORIES

                blockers = sorted(key for key in cell_systems
                                  if key not in SYSTEM_FACTORIES
                                  or key in self.systems)
                raise ValueError(
                    "parallel campaigns require registry system keys "
                    "(see repro.agents.registry); cannot parallelize over: "
                    + ", ".join(blockers))
            with contextlib.ExitStack() as stack:
                writers: list[RunTableWriter] = []
                # Profile sidecar first: if a crash lands between the two
                # writes, the cell is re-executed (its canonical row is
                # missing) and the sidecar merely logs both attempts; the
                # reverse order would leave a completed cell with no profile
                # row forever.
                if profile_path is not None:
                    writers.append(stack.enter_context(
                        RunTableWriter(profile_path, profile=True)))
                if csv_path is not None:
                    writers.append(stack.enter_context(RunTableWriter(csv_path)))

                def sink(record: RunRecord) -> None:
                    for writer in writers:
                        writer.write(record)

                if parallel:
                    records = self._run_pool(cells, cell_systems, sink)
                else:
                    records = self._run_serial(cells, sink)
            for record in records:
                table.add(record)

        table = table.sorted({key: index for index, key in enumerate(keys)})
        if csv_path is not None:
            table.write_csv(csv_path)
        if json_path is not None:
            table.write_json(json_path)
        if shard is not None and self.out is not None:
            self._save_plan(specs, name)
        return self._finalize(specs, keys, table, executed=len(cells),
                              placeholders=foreign, csv_path=csv_path,
                              json_path=json_path, profile_path=profile_path)

    def _save_plan(self, specs: list[TrialSpec], name: str) -> None:
        """Persist the campaign plan beside a shard's partial table.

        ``repro-create merge`` reads it to restore the canonical (spec
        order, then seed) row order across shard tables — without it the
        merge falls back to sorting by ``spec_key``, which is deterministic
        but not byte-identical to a single-host run.  Best-effort: specs
        over live in-process systems have no JSON form and are skipped.
        """
        from .scheduler import CampaignPlan

        try:
            CampaignPlan(name=name, specs=specs).save(self.out / "plans")
        except ValueError:
            pass

    def _finalize(self, specs: list[TrialSpec], keys: list[str], table: RunTable,
                  executed: int, placeholders: Sequence[_Cell],
                  csv_path: Path | None = None, json_path: Path | None = None,
                  profile_path: Path | None = None) -> CampaignResult:
        """Assemble the result: pad unexecuted cells, notify collect sinks."""
        result_table = table
        if placeholders:
            result_table = RunTable(table)
            for cell in placeholders:
                result_table.add(placeholder_record(cell))
            result_table = result_table.sorted(
                {key: index for index, key in enumerate(keys)})
        result = CampaignResult(specs=specs, table=result_table,
                                executed_trials=executed, csv_path=csv_path,
                                json_path=json_path, profile_path=profile_path,
                                placeholder_trials=len(placeholders))
        for sink_list in _RESULT_SINKS:
            sink_list.append(result)
        return result


def run_campaign(specs: Sequence[TrialSpec], jobs: int = 1,
                 out: str | Path | None = None, name: str = "campaign",
                 systems: Mapping[str, object] | None = None,
                 resume: bool = True, batch: int | None = None,
                 shard: Shard | None = None, vector: bool = True) -> CampaignResult:
    """One-shot convenience wrapper around :class:`CampaignRunner`."""
    return CampaignRunner(jobs=jobs, out=out, systems=systems, resume=resume,
                          batch=batch, shard=shard,
                          vector=vector).run(specs, name=name)
