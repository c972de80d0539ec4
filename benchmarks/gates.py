"""Every benchmark gate, declared once as data.

One table per committed ``BENCH_<name>.json`` at the repository root.
``tools/check_bench.py`` is the only code that evaluates them: on a fresh
run and on the committed baseline in CI, and as the exit gate of each
``benchmarks/bench_<name>.py``.  ``tools/check_docs.py`` checks the prose
quotes of the floors against the same rows.  This module imports nothing,
so every caller can read it without building a system or starting a
service.

A table holds:

``floors``
    Rows checked on every document.  The value at the dotted JSON
    ``path`` must be at least ``min``, at most ``max``, or equal to the
    value at the dotted path ``equals``; a list-valued path is gated on its
    length.  ``full_only`` rows are skipped on ``--smoke`` runs.  ``quote``
    is the phrase the prose puts after the number ("3x decode-speedup"
    quotes ``"x decode-speedup"``); every row that has one must be quoted
    by at least one markdown file, with the row's value.
``regressed``
    Dotted paths of higher-is-better metrics a fresh run must keep within
    ``tolerance`` (a fraction) of the committed baseline.  A ``*`` segment
    expands over the keys the baseline holds at that point.
"""

#: Required speedup of cached fused decode over the legacy path (full runs).
DECODE_SPEEDUP_TARGET = 3.0

#: Required speedup of batch=8 batched decode over 8 serial decodes.
BATCHED_DECODE_TARGET = 2.0

#: Required speedup of the stacked Q/K/V GEMM over three split projections.
#: A fused path that loses to split is a regression by definition — fusion
#: exists only to beat per-call dispatch.
FUSED_QKV_TARGET = 1.0

#: Required speedup of plan-backed trial setup over rebuilding kernel
#: entries from the quantized layers.
PLAN_REUSE_TARGET = 2.0

#: Required speedup of in-place kernel injection over the copy path through
#: the public primitives.
INJECT_SPEEDUP_TARGET = 2.0

#: Required speedup of fleet-batched stepping over the per-agent serial
#: loop at the gated fleet size, measured in agent-steps/s.  One quantize +
#: one INT GEMM per layer for the whole fleet has to beat N per-agent
#: passes by a wide margin or the fleet runtime is not earning its
#: complexity.
FLEET_STEPPING_TARGET = 3.0

#: Required sustained lease-report round trips per second.  One round trip
#: is four HTTP requests plus four queue state transitions; 500/s of them
#: keeps the service comfortably ahead of any realistic worker fleet (a
#: real task takes seconds of trial simulation per lease).
ROUND_TRIP_TARGET = 500.0

#: Maximum tolerated p95 round-trip latency, milliseconds.  Latency is the
#: autoscaler's signal quality: depth polls and lease settles must stay
#: cheap even while a fleet is streaming rows.
ROUND_TRIP_P95_MS_LIMIT = 50.0

GATES = {
    "kernels": {
        "floors": (
            {"gate": "CACHED_NOT_SLOWER",
             "path": "fig16_decode.cached_vs_uncached_speedup", "min": 1.0},
            {"gate": "DECODE_SPEEDUP_TARGET",
             "path": "fig16_decode.cached_vs_legacy_speedup",
             "min": DECODE_SPEEDUP_TARGET, "full_only": True,
             "quote": "x decode-speedup"},
            {"gate": "FUSED_QKV_TARGET", "path": "fused_qkv.speedup",
             "min": FUSED_QKV_TARGET},
            {"gate": "BATCHED_DECODE_TARGET",
             "path": "batched_decode.batch8_speedup",
             "min": BATCHED_DECODE_TARGET, "quote": "x batched-decode"},
            {"gate": "PLAN_REUSE_TARGET", "path": "plan_reuse.speedup",
             "min": PLAN_REUSE_TARGET, "quote": "x plan-reuse"},
            {"gate": "INJECT_SPEEDUP_TARGET", "path": "injection.speedup",
             "min": INJECT_SPEEDUP_TARGET, "quote": "x in-place-injection"},
        ),
        "regressed": (
            "qgemm.speedup",
            "fused_qkv.speedup",
            "fig16_decode.cached_vs_legacy_speedup",
            "batched_decode.by_batch.*.speedup",
            "controller_step.speedup",
            "plan_reuse.speedup",
            "injection.speedup",
        ),
        # Absorbs CI machine noise; a lost fast path shows up as 2-4x.
        "tolerance": 0.20,
    },
    "fleet": {
        "floors": (
            {"gate": "FLEET_STEPPING_TARGET", "path": "gated_speedup",
             "min": FLEET_STEPPING_TARGET, "quote": "x fleet-stepping"},
        ),
        # The ``injected`` arm is informational: it is single-pass timed
        # (its missions run to budget exhaustion), so holding it to the
        # tolerance would gate on timing noise.
        "regressed": ("by_fleet.*.speedup",),
        "tolerance": 0.20,
    },
    "service": {
        "floors": (
            {"gate": "ROUND_TRIP_TARGET", "path": "service.round_trips_per_s",
             "min": ROUND_TRIP_TARGET, "quote": "/s round-trip floor"},
            {"gate": "ROUND_TRIP_P95_MS_LIMIT",
             "path": "service.latency_ms.round_trip.p95",
             "max": ROUND_TRIP_P95_MS_LIMIT, "quote": "ms round-trip p95"},
            {"gate": "NO_TRANSPORT_ERRORS", "path": "service.errors",
             "max": 0},
            {"gate": "ALL_TASKS_DRAINED", "path": "service.round_trips",
             "equals": "service.tasks"},
        ),
        # Wider than the kernel tolerance because HTTP throughput is
        # hostage to CI network stacks; a lost fast path (per-claim
        # directory rescans, Nagle stalls) shows up as 3-40x, not 30%.
        "regressed": ("service.round_trips_per_s",),
        "tolerance": 0.30,
    },
}
