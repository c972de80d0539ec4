"""End-to-end campaign benchmark of the CREATE reproduction.

Usage (from the repository root)::

    python3 perfbench/run.py --workload planner-ber-sweep --seed 1 \\
        --seconds 20 --trace 0

One run measures set-up in fresh interpreters, then drives the workload in a
child process for ``--seconds`` of timed campaign passes, checks every pass's
run tables against the reference digests, prints every metric with its unit
and the environment, and ends with one JSON line::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes in one workload process and reports the
per-layer metrics of the traced passes, with the tracing overhead between
the two kinds of pass.  See ``perfbench/README.md`` for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".perfbench"

from speed import BLOCK_S  # noqa: E402
from tracing import IDLE  # noqa: E402
from workloads import WORKLOADS, slot_of  # noqa: E402

#: Fresh-interpreter set-up probes per run (the median is reported).
SETUP_PROBES = 5
#: Fewest meter blocks a timed span must contain to be scaled.
MIN_METER_BLOCKS = 10
#: A run must end within this many seconds ...
RUN_BUDGET_S = 170.0
#: ... unless the model cache was cold and the warm-up had to train.
COLD_BUDGET_S = 880.0


class BenchError(RuntimeError):
    """A step of the benchmark could not run; no result is printed."""


def _run(cmd: list[str], env: dict, timeout: float) -> tuple[str, str]:
    """Run a child in its own session; kill the whole group on timeout."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env, cwd=ROOT, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{' '.join(cmd[1:3])} timed out after {timeout:.0f} s")
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd[1:3])} exited with {proc.returncode}:\n"
                         + err[-4000:])
    return out, err


class SpeedMeter:
    """The core-speed meter (``speed.py``) as a child for a whole run."""

    def __init__(self, env: dict):
        self.samples: list[list[float]] = []
        self._proc = subprocess.Popen(
            [sys.executable, str(HERE / "speed.py")], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=ROOT,
            text=True, start_new_session=True)

    def __enter__(self) -> "SpeedMeter":
        return self

    def __exit__(self, *exc) -> None:
        """Stop the meter (closing its stdin) and collect its samples."""
        try:
            out, err = self._proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            os.killpg(self._proc.pid, signal.SIGKILL)
            self._proc.communicate()
            raise BenchError("the core-speed meter did not stop")
        if self._proc.returncode != 0:
            raise BenchError(f"the core-speed meter exited with "
                             f"{self._proc.returncode}:\n{err[-4000:]}")
        self.samples = json.loads(out)

    def block_s(self, *spans: list[float]) -> float:
        """Mean CPU seconds of the meter's blocks that ended in the spans."""
        inside = [cpu for at, cpu in self.samples
                  if any(start <= at <= end for start, end in spans)]
        if len(inside) < MIN_METER_BLOCKS:
            raise BenchError(f"the core-speed meter timed {len(inside)} "
                             f"blocks in {len(spans)} span(s)")
        return statistics.fmean(inside)


def _scale(meter: SpeedMeter, probes: list[dict], run: dict) -> None:
    """Scale the run's CPU times to the meter's reference core.

    Each pass's CPU seconds are multiplied by ``BLOCK_S / b``, where ``b``
    is the mean meter block during that pass.  The probes, about two
    seconds each, share one ``b``: the mean block over all of them.
    """
    run["probe_block_s"] = meter.block_s(*(p["window"] for p in probes))
    factor = BLOCK_S / run["probe_block_s"]
    for probe in probes:
        probe["setup_s"] = probe["cpu_s"] * factor
        for key in ("import_s", "system_build_s", "plan_build_s"):
            probe[key] *= factor
    run["pass_block_s"] = [meter.block_s(window)
                           for window in run["pass_window"]]
    run["pass_ref_s"] = [cpu * BLOCK_S / block for cpu, block
                         in zip(run["pass_cpu_s"], run["pass_block_s"])]


def _percentile(values: list[float], q: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _scipy_import_s(importtime_log: str) -> float:
    """Cumulative import time of scipy from a ``-X importtime`` log.

    The log lists modules in post-order with two spaces of indent per
    nesting level; a scipy module counts once unless a scipy ancestor
    already includes it.
    """
    rows = []
    for line in importtime_log.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cumulative, name = line.split("|", 2)
        level = (len(name) - len(name.lstrip()) - 1) // 2
        rows.append((level, name.strip(), int(cumulative)))
    is_scipy = lambda name: name == "scipy" or name.startswith("scipy.")
    total = 0
    ancestors: list[tuple[int, str]] = []
    for level, name, cumulative in reversed(rows):
        while ancestors and ancestors[-1][0] >= level:
            ancestors.pop()
        if is_scipy(name) and not any(is_scipy(a) for _, a in ancestors):
            total += cumulative
        ancestors.append((level, name))
    return total / 1e6


def _cache_listing() -> list[str]:
    cache = ROOT / ".model_cache"
    return sorted(p.name for p in cache.glob("*.npz")) if cache.is_dir() else []


def _probe(systems: tuple[str, ...], env: dict, timeout: float) -> dict:
    spawned = time.time()
    window = [time.monotonic()]
    out, err = _run([sys.executable, "-X", "importtime", str(HERE / "probe.py"),
                     *systems], env, timeout)
    window.append(time.monotonic())
    probe = json.loads(out.strip().splitlines()[-1])
    probe["window"] = window
    probe["setup_wall_s"] = probe["ready_at"] - spawned
    probe["import_scipy_s"] = _scipy_import_s(err)
    return probe


def _warm_up(systems: tuple[str, ...], env: dict) -> tuple[str, bool]:
    """Untimed warm-up when the model cache or bytecode may be cold.

    Runs one set-up probe (which trains missing surrogates and compiles
    bytecode) unless this checkout already warmed up with the same model
    cache; returns a note for the output and whether it had to train.
    """
    marker = WORKDIR / "warm.json"
    before = _cache_listing()
    if marker.exists() and json.loads(marker.read_text()) == before:
        return "model cache warm", False
    start = time.perf_counter()
    _probe(systems, env, COLD_BUDGET_S - 60)
    after = _cache_listing()
    marker.write_text(json.dumps(after))
    trained = sorted(set(after) - set(before))
    if trained:
        return (f"model cache was cold: trained {len(trained)} checkpoint(s) "
                f"in an untimed warm-up of {time.perf_counter() - start:.1f} s "
                "(not part of setup_s)"), True
    return "model cache warm (bytecode warm-up run untimed)", False


def _worker(args, env: dict, timeout: float) -> dict:
    result = (WORKDIR / "results"
              / f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    result.unlink(missing_ok=True)
    _, err = _run([sys.executable, str(HERE / "worker.py"),
                   "--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace),
                   "--workdir", str(WORKDIR), "--result", str(result)],
                  env, timeout)
    if err.strip():
        print(err.rstrip(), file=sys.stderr)
    return json.loads(result.read_text())


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def trials_per_s(run: dict, traced: bool = False, clock: str = "pass_ref_s"
                 ) -> float:
    """Median over passes of verified trials per second of pass time.

    ``clock`` is ``pass_ref_s`` (CPU seconds of the workload process and
    its pool children, scaled to the reference core), ``pass_cpu_s`` (the
    same, unscaled) or ``pass_s`` (wall seconds).  Every pass of a run
    repeats the same campaigns, so the passes are samples of one quantity.
    ``traced`` picks the traced or the untraced passes of a ``--trace 1``
    run.
    """
    return statistics.median(
        verified / elapsed for verified, elapsed, recorded
        in zip(run["pass_verified"], run[clock], run["pass_traced"])
        if recorded == traced)


def task_ms(run: dict, q: int, traced: bool = False) -> float:
    """``q``-th percentile of the task times of the (un)traced passes."""
    return _percentile([t * 1e3 for times, recorded
                        in zip(run["pass_task_s"], run["pass_traced"])
                        if recorded == traced for t in times], q)


def end_to_end(run: dict, probes: list[dict]) -> dict[str, tuple[float, str]]:
    return {
        "trials_per_cpu_s": (trials_per_s(run), "1/s"),
        "setup_s": (statistics.median(p["setup_s"] for p in probes), "s"),
        "peak_rss_mb": ((run["rss_self_kb"] + run["rss_children_kb"]) / 1024,
                        "MB"),
    }


#: Per-layer metrics read from the run tables: they repeat exactly for a seed.
EXACT_REPEAT = frozenset({
    "quant.kernel.macs", "faults.injector.bits_flipped",
    "core.anomaly.elements_clamped", "env.world.steps",
    "agents.executor.trials", "agents.executor.controller_steps",
    "agents.executor.planner_invocations", "eval.campaign.cells"})


def per_layer(run: dict, probes: list[dict]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of the traced passes; counts and times are per pass."""
    trace = run["trace"]
    picked = [i for i, recorded in enumerate(run["pass_traced"]) if recorded]
    passes = len(picked)
    pick = lambda key: [run[key][i] for i in picked]
    layers = trace["layers"]
    durations = trace["durations"]
    counts = run["counts"]
    extra = pick("extra")

    def layer(name: str, key: str) -> float:
        return layers.get(name, {}).get(key, 0)

    def per_pass(name: str, key: str) -> float:
        return layer(name, key) / passes

    def ratio(name: str, key: str, base: str, scale: float = 1.0) -> float:
        calls = layer(name, base)
        return layer(name, key) / calls * scale if calls else 0.0

    def request_ms(path: str, q: int) -> float:
        return _percentile([d * 1e3 for d in
                            durations.get(f"QueueClient._request:{path}", [])], q)

    def mean_extra(key: str) -> float:
        return sum(e.get(key, 0) for e in extra) / passes

    def plan_cache(state: str) -> float:
        return sum(c.get(state, 0) for c in pick("plan_cache")) / passes

    enqueued_at = None
    waits = []
    for end, name in trace["events"]:
        if name == "WorkQueue.enqueue":
            enqueued_at = end
        elif enqueued_at is not None:
            waits.append((end - enqueued_at) * 1e3)
    daemon_s = sum(durations.get("WorkerDaemon.run", []))
    merge_s = sum(durations.get("repro.eval.scheduler.merge_run_tables", []))
    lag_ms = [lag * 1e3 for e in extra for lag in e.get("progress_lag_s", [])]
    requests = sum(len(v) for k, v in durations.items()
                   if k.startswith("QueueClient._request:"))
    covered = sum(self_s for name, self_s in trace["main_self_s"].items()
                  if name != IDLE)
    traced_rate = trials_per_s(run, traced=True)
    untraced_rate = trials_per_s(run, traced=False)
    setup = lambda key: statistics.median(p[key] for p in probes)
    return {
        "agents.planner.calls": (per_pass("agents.planner", "calls"), "calls/pass"),
        "agents.planner.lanes_per_call":
            (ratio("agents.planner", "lanes", "calls"), "lanes/call"),
        "agents.planner.busy_s": (per_pass("agents.planner", "busy_s"), "s/pass"),
        "agents.planner.self_s": (per_pass("agents.planner", "self_s"), "s/pass"),
        "agents.controller.calls":
            (per_pass("agents.controller", "calls"), "calls/pass"),
        "agents.controller.rows_per_call":
            (ratio("agents.controller", "rows", "calls"), "rows/call"),
        "agents.controller.busy_s":
            (per_pass("agents.controller", "busy_s"), "s/pass"),
        "agents.controller.self_s":
            (per_pass("agents.controller", "self_s"), "s/pass"),
        "quant.kernel.calls": (per_pass("quant.kernel", "calls"), "calls/pass"),
        "quant.kernel.self_s": (per_pass("quant.kernel", "self_s"), "s/pass"),
        "quant.kernel.us_per_call":
            (ratio("quant.kernel", "self_s", "calls", 1e6), "us/call"),
        "quant.kernel.macs": (counts.get("macs", 0), "MAC/pass"),
        "faults.injector.calls":
            (per_pass("faults.injector", "calls"), "calls/pass"),
        "faults.injector.busy_s":
            (per_pass("faults.injector", "busy_s"), "s/pass"),
        "faults.injector.us_per_call":
            (ratio("faults.injector", "busy_s", "calls", 1e6), "us/call"),
        "faults.injector.elements":
            (per_pass("faults.injector", "elements"), "elements/pass"),
        "faults.injector.bits_flipped":
            (counts.get("bits_flipped", 0), "bits/pass"),
        "core.anomaly.calls": (per_pass("core.anomaly", "calls"), "calls/pass"),
        "core.anomaly.busy_s": (per_pass("core.anomaly", "busy_s"), "s/pass"),
        "core.anomaly.elements_clamped":
            (counts.get("elements_clamped", 0), "elements/pass"),
        "core.voltage_scaling.calls":
            (per_pass("core.voltage_scaling", "calls"), "calls/pass"),
        "core.voltage_scaling.self_s":
            (per_pass("core.voltage_scaling", "self_s"), "s/pass"),
        "core.predictor.calls":
            (per_pass("core.predictor", "calls"), "calls/pass"),
        "core.predictor.busy_s":
            (per_pass("core.predictor", "busy_s"), "s/pass"),
        "env.world.steps": (counts.get("steps", 0), "steps/pass"),
        "env.world.busy_s": (per_pass("env.world", "busy_s"), "s/pass"),
        "agents.executor.trials": (counts.get("trials", 0), "trials/pass"),
        "agents.executor.controller_steps":
            (counts.get("controller_steps", 0), "steps/pass"),
        "agents.executor.planner_invocations":
            (counts.get("planner_invocations", 0), "calls/pass"),
        "agents.executor.self_s":
            (per_pass("agents.executor", "self_s"), "s/pass"),
        "agents.executor.cell_wall_s":
            (sum(pick("cell_wall_s")) / passes, "s/pass"),
        "eval.campaign.cells": (sum(pick("pass_verified")) / passes,
                                "cells/pass"),
        "eval.campaign.self_s": (per_pass("eval.campaign", "self_s"), "s/pass"),
        "eval.runtable.rows_written":
            (per_pass("eval.runtable", "rows_written"), "rows/pass"),
        "eval.runtable.write_s":
            ((layer("eval.runtable", "busy_s") - merge_s) / passes, "s/pass"),
        "eval.runtable.merge_s": (merge_s / passes, "s/pass"),
        "eval.runtable.bytes":
            (sum(pick("table_bytes")) / passes, "bytes/pass"),
        "eval.scheduler.claims":
            (per_pass("eval.scheduler", "claims"), "tasks/pass"),
        "eval.scheduler.completes":
            (per_pass("eval.scheduler", "completes"), "tasks/pass"),
        "eval.scheduler.heartbeats":
            (len(durations.get("QueueClient._request:/api/heartbeat", []))
             / passes, "requests/pass"),
        "eval.scheduler.reclaims":
            (per_pass("eval.scheduler", "reclaims"), "tasks/pass"),
        "eval.scheduler.failed_tasks": (mean_extra("failed_tasks"), "tasks/pass"),
        "eval.scheduler.queue_wait_ms_p50": (_percentile(waits, 50), "ms"),
        "eval.scheduler.task_ms_p50": (task_ms(run, 50, traced=True), "ms"),
        "eval.scheduler.task_ms_p95": (task_ms(run, 95, traced=True), "ms"),
        "eval.scheduler.server_s":
            ((layer("eval.scheduler", "busy_s") - daemon_s) / passes, "s/pass"),
        "eval.scheduler.pool_wait_s": (per_pass(IDLE, "busy_s"), "s/pass"),
        "eval.service.requests": (requests / passes, "requests/pass"),
        "eval.service.claim_ms_p50": (request_ms("/api/claim", 50), "ms"),
        "eval.service.complete_ms_p50": (request_ms("/api/complete", 50), "ms"),
        "eval.service.rows_ms_p50": (request_ms("/api/rows", 50), "ms"),
        "eval.service.progress_ms_p50": (request_ms("/api/progress", 50), "ms"),
        "eval.service.progress_ms_p95": (request_ms("/api/progress", 95), "ms"),
        "eval.service.progress_lag_ms": (_percentile(lag_ms, 50), "ms"),
        "eval.service.retries": (mean_extra("retries"), "retries/pass"),
        "quant.weightplane.publish_s":
            (per_pass("quant.weightplane", "busy_s"), "s/pass"),
        "quant.weightplane.bytes_published":
            (per_pass("quant.weightplane", "bytes_published"), "bytes/pass"),
        "quant.weightplane.shm_rows": (plan_cache("shm"), "rows/pass"),
        "quant.weightplane.miss_rows": (plan_cache("miss"), "rows/pass"),
        "setup.import_s": (setup("import_s"), "s"),
        "setup.import_scipy_s": (setup("import_scipy_s"), "s"),
        "setup.system_build_s": (setup("system_build_s"), "s"),
        "setup.plan_build_s": (setup("plan_build_s"), "s"),
        "trace.coverage_pct": (covered / sum(pick("pass_s")) * 100, "%"),
        "trace.overhead_pct":
            ((untraced_rate - traced_rate) / untraced_rate * 100, "%"),
    }


def _verdict(run: dict, probes: list[dict]) -> list[str]:
    """Reasons the run is not correct (empty when it is)."""
    problems = list(run["problems"])
    if run["failed"]:
        problems.append(f"{run['failed']} of {run['attempted']} cells failed")
    if not run["counts_repeat_exactly"]:
        problems.append("run-table counts differ between passes of the "
                        "same campaign")
    if any(p["plan_hashes"] != run["plan_hashes"] for p in probes):
        problems.append("set-up probes built different kernel plans than "
                        "the workload process")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end campaign benchmark (see perfbench/README.md)")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="timed campaign passes per run (seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    started = time.perf_counter()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2

    WORKDIR.mkdir(exist_ok=True)
    (WORKDIR / "tmp").mkdir(exist_ok=True)
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env.update(PYTHONPATH=str(ROOT / "src"), TMPDIR=str(WORKDIR / "tmp"))
    systems = WORKLOADS[args.workload].systems
    try:
        warm_note, trained = _warm_up(systems, env)
        budget = COLD_BUDGET_S if trained else RUN_BUDGET_S
        remaining = lambda: budget - (time.perf_counter() - started)
        with SpeedMeter(env) as meter:
            probes = [_probe(systems, env, remaining())
                      for _ in range(SETUP_PROBES)]
            for probe in probes:
                if (Path(probe["repro_file"]).resolve().parents[1]
                        != ROOT / "src"):
                    raise BenchError(f"imported repro from "
                                     f"{probe['repro_file']}, not from "
                                     f"{ROOT / 'src'}")
            run = _worker(args, env, remaining())
        _scale(meter, probes, run)
    except BenchError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1

    problems = _verdict(run, probes)
    if args.trace:
        metrics = per_layer(run, probes)
    else:
        metrics = end_to_end(run, probes)

    hashes = ", ".join(f"{key}:{role}={digest[:12]}"
                       for key, roles in run["plan_hashes"].items()
                       for role, digest in roles.items())
    print(f"workload {args.workload}  seed {args.seed} (input slot "
          f"{slot_of(args.seed)})  trace {args.trace}")
    print(f"environment: python {probes[0]['python']}, numpy "
          f"{probes[0]['numpy']}, nproc {len(os.sched_getaffinity(0))}, "
          f"pool jobs {run['jobs']}")
    print(f"kernel plans: {hashes}")
    print(f"set-up: {warm_note}; {SETUP_PROBES} fresh-interpreter probes")
    print("  scaled CPU s " + " ".join(f"{p['setup_s']:.3f}" for p in probes)
          + " | CPU s " + " ".join(f"{p['cpu_s']:.3f}" for p in probes)
          + " | wall s " + " ".join(f"{p['setup_wall_s']:.3f}" for p in probes)
          + f" | mean meter block {run['probe_block_s'] * 1e3:.2f} ms")
    print(f"reference digests: {run['reference']}")
    print(f"run: {run['passes']} passes ({sum(run['pass_traced'])} traced) in "
          f"{run['timed_s']:.2f} s wall, {sum(run['pass_cpu_s']):.2f} s CPU, "
          f"{run['verified']}/{run['attempted']} cells verified, "
          f"failed_share {run['failed'] / run['attempted']:.4f}")
    print(f"core-speed meter: mean block per pass (reference "
          f"{BLOCK_S * 1e3:.2f} ms): "
          + " ".join(f"{b * 1e3:.2f}" for b in run["pass_block_s"]) + " ms")
    print("unscaled (informational, not gated): "
          f"{trials_per_s(run, clock='pass_cpu_s'):.4g} trials per CPU s, "
          f"{trials_per_s(run, clock='pass_s'):.4g} trials per wall s, "
          f"task time p50 {task_ms(run, 50):.4g} ms, p95 "
          f"{task_ms(run, 95):.4g} ms (wall)")
    if args.trace:
        trace = run["trace"]
        print(f"trace: {trace['spans_seen']} spans, first {trace['spans_kept']} "
              f"written to {Path(run['trace_file']).relative_to(ROOT)}; "
              "in-process layers only (pool children are seen through the "
              "profile sidecar: agents.executor.cell_wall_s, "
              "quant.weightplane.*_rows; the daemon's wait on them is "
              "eval.scheduler.pool_wait_s, outside trace.coverage_pct)")
        traced_s = sum(t for t, recorded in zip(run["pass_s"], run["pass_traced"])
                       if recorded)
        wait_pct = trace["layers"].get(IDLE, {}).get("busy_s", 0) / traced_s * 100
        print(f"main thread: {metrics['trace.coverage_pct'][0]:.1f}% self time "
              f"of named layers, {wait_pct:.1f}% blocked in pool waits and "
              "sleeps")
    for name, (value, unit) in metrics.items():
        tag = "  [exact-repeat count from run tables]" \
            if name in EXACT_REPEAT else ""
        print(f"  {name:38s} {value:14.6g} {unit}{tag}")
    print("correctness: " + ("PASS" if not problems else
                             "FAIL\n  " + "\n  ".join(problems)))
    print(json.dumps({
        "correct": not problems,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
