"""One workload run in its own process: build, check reference, time passes.

Started by ``run.py``; writes its measurements as JSON to ``--result``.
Running the workload in a child keeps the orchestrator's set-up probes out of
this process's ``RUSAGE_CHILDREN``, so the peak-memory figure covers exactly
this process and its pool children.

With ``--trace 1`` the span wrappers are installed before any system or
kernel context is built, and the passes alternate untraced and traced: the
wrappers stay installed and record spans only inside the timed traced
passes (a workload's untimed per-pass set-up, such as starting the campaign
service, is never traced).  Neighbouring passes of one process and seed
thus give the tracing overhead as a paired comparison.

Every pass records its wall time and its CPU time: user plus system time of
this process and of the children it reaped during the pass (the pool
workers of ``queued-nominal``, joined when the daemon's drain ends).
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def cpu_s() -> float:
    """User plus system seconds of this process and its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    from workloads import WORKLOADS, resolve_reference

    workload = WORKLOADS[args.workload](args.seed)
    plan_hashes = workload.build()
    reference, origin = resolve_reference(workload, plan_hashes,
                                          args.workdir / "references")

    run_dir = args.workdir / f"passes-{args.workload}-{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    passes = []
    pass_cpu = []
    pass_window = []
    traced = []
    timed = 0.0
    min_passes = 2 if tracer is not None else 1
    try:
        # Start another pass only while it should end within half a pass of
        # --seconds, so a run's timed length stays near --seconds.
        while (len(passes) < min_passes
               or timed * (1 + 0.5 / len(passes)) <= args.seconds):
            directory = run_dir / f"pass-{len(passes)}"
            recording = tracer is not None and len(passes) % 2 == 1
            with workload.pass_scope(directory):
                if recording:
                    tracer.recording = True
                start = time.perf_counter()
                window = [time.monotonic()]
                start_cpu = cpu_s()
                try:
                    outcome = workload.run_pass(directory, reference)
                finally:
                    elapsed = time.perf_counter() - start
                    cpu = cpu_s() - start_cpu
                    window.append(time.monotonic())
                    if tracer is not None:
                        tracer.recording = False
            timed += elapsed
            passes.append((elapsed, outcome))
            pass_cpu.append(cpu)
            pass_window.append(window)
            traced.append(recording)
            shutil.rmtree(directory, ignore_errors=True)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    counts = [outcome.counts for _, outcome in passes if outcome.counts]
    payload = {
        "workload": workload.name,
        "slot": workload.slot,
        "jobs": workload.jobs,
        "plan_hashes": plan_hashes,
        "reference": origin,
        "passes": len(passes),
        "timed_s": timed,
        "pass_s": [elapsed for elapsed, _ in passes],
        "pass_cpu_s": pass_cpu,
        "pass_window": pass_window,
        "pass_verified": [o.verified for _, o in passes],
        "pass_traced": traced,
        "attempted": sum(o.attempted for _, o in passes),
        "verified": sum(o.verified for _, o in passes),
        "failed": sum(o.failed for _, o in passes),
        "problems": [p for _, o in passes for p in o.problems],
        "counts_repeat_exactly": all(c == counts[0] for c in counts),
        "counts": counts[0] if counts else {},
        "pass_task_s": [o.task_s for _, o in passes],
        "plan_cache": [o.plan_cache for _, o in passes],
        "cell_wall_s": [o.cell_wall_s for _, o in passes],
        "table_bytes": [o.table_bytes for _, o in passes],
        "extra": [o.extra for _, o in passes],
        "rss_self_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "rss_children_kb":
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    }
    if tracer is not None:
        payload["trace"] = tracer.summary()
        payload["trace_file"] = str(tracer.write_spans(
            args.workdir / "traces" / f"{workload.name}.jsonl"))
    args.result.parent.mkdir(parents=True, exist_ok=True)
    args.result.write_text(json.dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
