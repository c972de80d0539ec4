"""The benchmark's workloads: inputs from a seed, one timed pass, checks.

Every workload is a closed loop driven from one process: the next campaign
pass starts only when the previous one has finished.  A pass is a fixed set
of campaigns determined by the seed, so repeating it measures the same work
every time, and every pass's run tables must hash to the same reference.

* ``planner-ber-sweep`` runs the ``campaign wr`` preset's specs in-process:
  the plain and the weight-rotated JARVIS planner under planner BERs
  1e-4/1e-3/3e-3.  It exists to measure the planner sweep of the paper,
  which stresses planner decode, the batched lane kernel and injection.
* ``controller-protect`` runs the ``ad-controller`` preset's specs (controller
  BERs with and without AD) and the ``vs`` preset's constant and adaptive
  policies in-process.  It exists because it is the only workload where
  injection dominates and where clamp, voltage scaling and the entropy
  predictor run at all.
* ``queued-nominal`` enqueues fault-free nominal-voltage trials of every
  Minecraft (Table 10) task as one-cell tasks on an in-process campaign
  service and drains them with one worker daemon running a process pool over
  the shared-memory weight plane, while a progress poller reads alongside at
  the autoscaler's cadence; the worker tables are then merged.  It exists as the bypass
  workload: no injection and no lane batching, so its time is queue, pool
  and run-table overhead.

The seed picks one of :data:`SLOTS` input slots (``seed % SLOTS``); each slot
has its own trial seeds, and the reference digests of every slot are stored
in ``references.json`` together with the kernel-plan hashes they came from.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import re
import shutil
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

#: Distinct input slots; the seed is taken modulo this.
SLOTS = 16

REFERENCES = Path(__file__).resolve().parent / "references.json"


def slot_of(seed: int) -> int:
    return seed % SLOTS


def plan_hashes(systems: dict) -> dict[str, dict[str, str]]:
    """Registry key -> role -> content hash of the role's kernel plan.

    Building a plan is part of set-up, so this is called on freshly built
    systems both by the set-up probe and by the workload process.
    """
    return {key: {role: getattr(system, role).kernel_plan().content_hash
                  for role in ("planner", "controller")
                  if getattr(system, role, None) is not None}
            for key, system in systems.items()}


def sha256_file(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@dataclass
class PassResult:
    """What one campaign pass did and whether its tables verified."""

    attempted: int = 0
    verified: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    #: Per-task (queued) or per-cell (in-process) times in seconds.
    task_s: list[float] = field(default_factory=list)
    #: Counts read from the verified canonical run tables.
    counts: dict[str, float] = field(default_factory=dict)
    #: ``plan_cache`` values of the profile sidecar rows.
    plan_cache: dict[str, int] = field(default_factory=dict)
    #: Sum of the sidecar's per-cell ``wall_time_s``.
    cell_wall_s: float = 0.0
    #: Bytes of run-table files (canonical, mirror, sidecar) the pass left.
    table_bytes: int = 0
    extra: dict[str, object] = field(default_factory=dict)


def table_counts(table) -> dict[str, float]:
    """Exact-repeat counts of one canonical run table."""
    counts = Counter()
    for record in table:
        counts["trials"] += 1
        counts["steps"] += record.steps
        counts["controller_steps"] += record.controller_steps
        counts["planner_invocations"] += record.planner_invocations
        counts["bits_flipped"] += (record.planner_bits_flipped
                                   + record.controller_bits_flipped)
        counts["elements_clamped"] += (record.planner_elements_clamped
                                       + record.controller_elements_clamped)
        counts["macs"] += sum(record.macs_by_voltage().values())
    return dict(counts)


def sidecar_stats(paths) -> tuple[dict[str, int], float]:
    """``plan_cache`` histogram and wall-time sum over profile sidecars."""
    from repro.eval.runtable import RunTable

    cache: Counter = Counter()
    wall = 0.0
    for path in paths:
        for record in RunTable.read_csv(path):
            cache[record.plan_cache or "none"] += 1
            wall += record.wall_time_s
    return dict(cache), wall


def table_bytes(directory: Path) -> int:
    """Bytes of run-table files under ``directory`` (CSV and JSON mirrors)."""
    total = 0
    for path in directory.rglob("*.csv"):
        total += path.stat().st_size
        mirror = path.with_suffix(".json")
        if mirror.exists():
            total += mirror.stat().st_size
    return total


def _verify(name: str, csv_path: Path, expected_cells: int,
            reference: dict[str, str], result: PassResult):
    """Hash one campaign table; count its cells verified or failed."""
    from repro.eval.runtable import RunTable

    result.attempted += expected_cells
    digest = sha256_file(csv_path)
    table = RunTable.read_csv(csv_path)
    if reference.get(name) != digest:
        result.failed += expected_cells
        result.problems.append(f"{name}: digest {digest[:16]} does not match "
                               f"reference {str(reference.get(name))[:16]}")
        return None
    if len(table) != expected_cells:
        result.failed += expected_cells
        result.problems.append(f"{name}: {len(table)} rows, expected "
                               f"{expected_cells}")
        return None
    result.verified += expected_cells
    return table


class Workload:
    """One workload: the campaigns of a pass and how to run and check them."""

    name = ""
    systems: tuple[str, ...] = ()
    #: Worker processes the workload runs trials on.
    jobs = 1

    def __init__(self, seed: int):
        self.slot = slot_of(seed)
        self.base_seed = 1000 * self.slot

    def build(self) -> dict[str, dict[str, str]]:
        """Build every system, executor and kernel plan; return plan hashes."""
        from repro.agents.registry import get_system

        systems = {key: get_system(key) for key in self.systems}
        for system in systems.values():
            system.executor()
        return plan_hashes(systems)

    def campaigns(self) -> list[tuple[str, list]]:
        """(name, specs) of every campaign a pass runs, without running them."""
        raise NotImplementedError

    @contextlib.contextmanager
    def pass_scope(self, directory: Path):
        """Untimed set-up and tear-down around one timed :meth:`run_pass`."""
        yield

    def run_pass(self, directory: Path, reference: dict[str, str]) -> PassResult:
        raise NotImplementedError


class _InProcess(Workload):
    """A workload of ``repro.eval.experiments`` calls at jobs=1."""

    def experiment(self, out: str | None) -> None:
        raise NotImplementedError

    def campaigns(self):
        from repro.eval.campaign import planning

        with planning() as plans:
            self.experiment(None)
        return [(plan.name, plan.specs) for plan in plans]

    def run_pass(self, directory: Path, reference: dict[str, str]) -> PassResult:
        from repro.eval.campaign import collect_results

        result = PassResult()
        try:
            with collect_results() as campaigns:
                self.experiment(str(directory))
        except Exception as error:  # counted as failed cells, run continues
            result.problems.append(f"pass raised {type(error).__name__}: {error}")
            expected = sum(spec.num_trials for _, specs in self.campaigns()
                           for spec in specs)
            result.attempted += expected
            result.failed += expected
            return result
        counts: Counter = Counter()
        sidecars = []
        for campaign in campaigns:
            expected = sum(spec.num_trials for spec in campaign.specs)
            table = _verify(campaign.csv_path.stem, campaign.csv_path, expected,
                            reference, result)
            if table is not None:
                counts.update(table_counts(table))
                result.task_s.extend(record.wall_time_s
                                     for record in campaign.table)
            sidecars.append(campaign.profile_path)
        result.counts = dict(counts)
        result.plan_cache, result.cell_wall_s = sidecar_stats(sidecars)
        result.table_bytes = table_bytes(directory)
        return result


class PlannerBerSweep(_InProcess):
    name = "planner-ber-sweep"
    systems = ("jarvis", "jarvis-rotated")
    task = "wooden"
    bers = [1e-4, 1e-3, 3e-3]
    trials = 6

    def experiment(self, out):
        from repro.eval import experiments

        experiments.wr_evaluation("jarvis", "jarvis-rotated", self.task,
                                  self.bers, num_trials=self.trials,
                                  seed=self.base_seed, out=out)


class ControllerProtect(_InProcess):
    name = "controller-protect"
    systems = ("jarvis",)
    task = "wooden"
    bers = [1e-4, 1e-3, 3e-3]
    trials = 2

    def experiment(self, out):
        from repro.eval import experiments

        experiments.ad_evaluation("jarvis", self.task, self.bers,
                                  target="controller", num_trials=self.trials,
                                  seed=self.base_seed, out=out)
        experiments.vs_evaluation("jarvis", self.task, num_trials=self.trials,
                                  seed=self.base_seed, out=out)


class _DaemonLog:
    """WorkerDaemon ``log=`` sink: claim/settle times and retry count."""

    _CLAIMED = re.compile(r"^task (\S+): claimed")
    _DONE = re.compile(r"^task (\S+): \d+ cells done")

    def __init__(self):
        self.claimed: dict[str, float] = {}
        self.task_s: list[float] = []
        self.retries = 0

    def __call__(self, message: str) -> None:
        now = time.perf_counter()
        match = self._CLAIMED.match(message)
        if match:
            self.claimed[match.group(1)] = now
            return
        match = self._DONE.match(message)
        if match and match.group(1) in self.claimed:
            self.task_s.append(now - self.claimed.pop(match.group(1)))
        elif "retrying" in message:
            self.retries += 1


class _ProgressPoller:
    """Fixed-rate ``/api/progress`` reader beside the drain (open loop).

    Each read is due at ``start + k * period``; ``lag_s`` records how late
    it was sent (its latency is traced with every other request).
    """

    def __init__(self, url: str, period: float):
        from repro.eval.service import QueueClient

        self.client = QueueClient(url)
        self.period = period
        self.lag_s: list[float] = []
        self.errors = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, name="progress-poller",
                                        daemon=True)

    def _loop(self) -> None:
        start = time.perf_counter()
        tick = 0
        while True:
            due = start + tick * self.period
            if self._stop.wait(max(0.0, due - time.perf_counter())):
                return
            self.lag_s.append(time.perf_counter() - due)
            try:
                self.client.progress()
            except OSError:
                self.errors += 1
            tick += 1

    def __enter__(self) -> "_ProgressPoller":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(timeout=30)
        self.client.close()


class QueuedNominal(Workload):
    name = "queued-nominal"
    systems = ("jarvis",)
    trials = 8
    #: Seconds between progress reads: the default poll interval of
    #: ``repro.eval.service.AutoScaler``, the repo's only periodic reader of a
    #: campaign service, so a dashboard adds traffic at the same cadence.
    poll_period = 0.5

    def __init__(self, seed: int):
        super().__init__(seed)
        self.jobs = len(os.sched_getaffinity(0))
        self._service = None

    def plan(self):
        from repro.env.tasks import MINECRAFT_SUITE
        from repro.eval.campaign import TrialSpec
        from repro.eval.scheduler import CampaignPlan

        specs = [TrialSpec(condition=f"nominal/{task}", system="jarvis",
                           task=task, num_trials=self.trials,
                           seed=self.base_seed)
                 for task in MINECRAFT_SUITE.task_names]
        return CampaignPlan(name=f"queued-nominal-slot{self.slot}", specs=specs)

    def campaigns(self):
        plan = self.plan()
        return [(plan.name, plan.specs)]

    @contextlib.contextmanager
    def pass_scope(self, directory: Path):
        """A fresh service over a fresh queue directory for every pass.

        Its start and its close stay outside the timed pass: a campaign
        service outlives the campaigns it serves, and closing one waits for
        the HTTP server's half-second poll, which would otherwise add a
        0-0.5 s step to every pass.
        """
        from repro.eval.service import CampaignService

        self._service = CampaignService(directory / "queue").start()
        try:
            yield
        finally:
            self._service.close()
            self._service = None

    def run_pass(self, directory: Path, reference: dict[str, str]) -> PassResult:
        from repro.eval.scheduler import WorkerDaemon, merge_run_tables
        from repro.eval.service import QueueClient

        plan = self.plan()
        result = PassResult()
        service = self._service
        root = service.queue.root
        log = _DaemonLog()
        try:
            client = QueueClient(service.url)
            try:
                client.enqueue(plan, batch=1)
                with _ProgressPoller(service.url, self.poll_period) as poller:
                    WorkerDaemon(client, jobs=self.jobs, log=log).run()
            finally:
                client.close()
            failed_tasks = len(service.queue.failed_ids())
            merged = merge_run_tables(directory / "merged", [root])
        except Exception as error:  # counted as failed cells, run continues
            result.problems.append(f"pass raised {type(error).__name__}: {error}")
            result.attempted += plan.total_cells
            result.failed += plan.total_cells
            return result
        tables = {entry.name: entry for entry in merged}
        entry = tables.get(plan.name)
        if entry is None:
            result.attempted += plan.total_cells
            result.failed += plan.total_cells
            result.problems.append(f"{plan.name}: no merged table")
            return result
        if entry.missing_cells:
            result.problems.append(f"{plan.name}: {entry.missing_cells} cells "
                                   "missing from the merged table")
        table = _verify(plan.name, entry.csv_path, plan.total_cells, reference,
                        result)
        if table is not None:
            result.counts = table_counts(table)
        result.task_s = log.task_s
        result.plan_cache, result.cell_wall_s = sidecar_stats(
            (root / "results").glob(f"*/profiles/{plan.name}.csv"))
        result.table_bytes = table_bytes(directory)
        if poller.errors:
            result.problems.append(f"{poller.errors} progress reads failed")
        if failed_tasks:
            result.problems.append(f"{failed_tasks} queue tasks failed")
        result.extra = {"progress_lag_s": poller.lag_s,
                        "retries": log.retries, "failed_tasks": failed_tasks}
        return result


WORKLOADS = {cls.name: cls for cls in
             (PlannerBerSweep, ControllerProtect, QueuedNominal)}


# ----------------------------------------------------------------------
# Reference digests
# ----------------------------------------------------------------------
def campaign_plans(workload: Workload) -> dict[str, str]:
    """Campaign name -> plan hash (name, specs, seeds, trial counts) of a pass."""
    from repro.eval.scheduler import CampaignPlan

    return {name: CampaignPlan(name=name, specs=specs).plan_hash()
            for name, specs in workload.campaigns()}


def derive_reference(workload: Workload, directory: Path) -> dict[str, str]:
    """Digest of every campaign of a pass, run serially on the scalar path.

    ``run_campaign(..., jobs=1, vector=False)`` executes cell by cell
    in-process, a different path from every timed pass (lane batching,
    queue workers), so agreement checks both against the serial engine.
    """
    from repro.eval.campaign import run_campaign

    digests = {}
    for name, specs in workload.campaigns():
        result = run_campaign(specs, jobs=1, out=directory, name=name,
                              vector=False)
        digests[name] = sha256_file(result.csv_path)
    return digests


def stored_references() -> dict:
    if not REFERENCES.exists():
        return {"workloads": {}}
    return json.loads(REFERENCES.read_text())


def resolve_reference(workload: Workload, plan_hashes: dict,
                      cache_dir: Path) -> tuple[dict[str, str], str]:
    """The slot's reference digests and where they came from.

    Stored digests apply only when the stored kernel-plan hashes equal this
    host's and the stored campaign plan hashes equal this benchmark's
    campaigns; otherwise the reference is derived once (untimed) and cached
    in ``cache_dir`` under a key of both.
    """
    plans = campaign_plans(workload)
    entry = stored_references().get("workloads", {}).get(workload.name, {})
    stored = entry.get("slots", {}).get(str(workload.slot), {})
    if (entry.get("plan_hashes") == plan_hashes
            and stored.get("campaigns") == plans):
        return stored["sha256"], "stored"
    key = hashlib.sha1(json.dumps([plan_hashes, plans], sort_keys=True)
                       .encode()).hexdigest()[:12]
    cached = cache_dir / f"{workload.name}-slot{workload.slot}-{key}.json"
    if cached.exists():
        return json.loads(cached.read_text()), "derived earlier on this host"
    scratch = cache_dir / f"derive-{os.getpid()}"
    try:
        digests = derive_reference(workload, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    cache_dir.mkdir(parents=True, exist_ok=True)
    cached.write_text(json.dumps(digests, indent=1) + "\n")
    return digests, ("derived on this host (no stored digest for these "
                     "kernel plans and campaigns)")
