"""Kernel-benchmark regression gate (the CI ``kernels`` job).

Compares a fresh ``BENCH_kernels.json`` (produced by
``benchmarks/bench_kernels.py`` earlier in the job) against the baseline
committed at the repository root:

1. **floors** — the committed baseline must satisfy the hard speedup floors
   declared in ``benchmarks/bench_kernels.py`` (``DECODE_SPEEDUP_TARGET``,
   ``BATCHED_DECODE_TARGET``, ``FUSED_QKV_TARGET``, ``PLAN_REUSE_TARGET``,
   ``INJECT_SPEEDUP_TARGET``).  A baseline below its own gate means the
   committed numbers and the gate constants drifted apart;
2. **regression** — every speedup in the fresh run must be within
   :data:`REGRESSION_TOLERANCE` (20%) of the committed baseline.  The
   tolerance absorbs CI machine noise while still catching real
   regressions (a lost fast path shows up as 2-4x, not 20%).

Run from the repository root::

    PYTHONPATH=src python tools/check_bench.py /tmp/BENCH_kernels.json

Exit status 0 means clean; 1 prints one line per problem.  The floor
constants are parsed from the benchmark source (not imported), so this
check needs no system build; ``tools/check_docs.py`` reuses
:func:`bench_floors` to verify the floors quoted in the documentation.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
BASELINE_PATH = REPO_ROOT / "BENCH_kernels.json"
BENCH_SOURCE = REPO_ROOT / "benchmarks" / "bench_kernels.py"

#: Maximum tolerated fractional speedup drop vs the committed baseline.
REGRESSION_TOLERANCE = 0.20

_FLOOR = re.compile(r"^(DECODE_SPEEDUP_TARGET|BATCHED_DECODE_TARGET|"
                    r"FUSED_QKV_TARGET|PLAN_REUSE_TARGET|"
                    r"INJECT_SPEEDUP_TARGET)\s*=\s*"
                    r"(\d+(?:\.\d+)?)\s*$", re.MULTILINE)


def bench_floors() -> dict[str, float]:
    """The hard speedup floors declared in ``benchmarks/bench_kernels.py``.

    Parsed from source so callers (this gate, ``check_docs``) need neither a
    trained system nor the benchmark's import side effects.
    """
    floors = {name: float(value)
              for name, value in _FLOOR.findall(BENCH_SOURCE.read_text())}
    missing = {"DECODE_SPEEDUP_TARGET", "BATCHED_DECODE_TARGET",
               "FUSED_QKV_TARGET", "PLAN_REUSE_TARGET",
               "INJECT_SPEEDUP_TARGET"} - set(floors)
    if missing:
        raise ValueError(f"could not parse {sorted(missing)} from "
                         f"{BENCH_SOURCE.relative_to(REPO_ROOT)}")
    return floors


def speedups(results: dict) -> dict[str, float]:
    """Flatten every speedup a ``BENCH_kernels.json`` document carries."""
    values = {
        "qgemm": results["qgemm"]["speedup"],
        "fig16_decode.cached_vs_legacy":
            results["fig16_decode"]["cached_vs_legacy_speedup"],
        "controller_step": results["controller_step"]["speedup"],
    }
    # Sections introduced with the batched runtime; tolerate their absence so
    # the gate can diff a fresh run against a pre-batching baseline once.
    if "fused_qkv" in results:
        values["fused_qkv"] = results["fused_qkv"]["speedup"]
    for size, entry in results.get("batched_decode", {}).get("by_batch", {}).items():
        values[f"batched_decode.batch{size}"] = entry["speedup"]
    # Section introduced with the plan/context split; same one-time tolerance.
    if "plan_reuse" in results:
        values["plan_reuse"] = results["plan_reuse"]["speedup"]
    # Section introduced with in-place injection; same one-time tolerance.
    if "injection" in results:
        values["injection"] = results["injection"]["speedup"]
    return values


def check_floors(baseline: dict, errors: list[str]) -> None:
    """The committed baseline must satisfy the benchmark's own gates."""
    floors = bench_floors()
    legacy = baseline["fig16_decode"]["cached_vs_legacy_speedup"]
    if legacy < floors["DECODE_SPEEDUP_TARGET"]:
        errors.append(
            f"committed baseline decode speedup {legacy:.2f}x is below the "
            f"{floors['DECODE_SPEEDUP_TARGET']:.1f}x DECODE_SPEEDUP_TARGET")
    fused_qkv = baseline.get("fused_qkv")
    if fused_qkv is None:
        errors.append("committed baseline lacks the fused_qkv section")
    elif fused_qkv["speedup"] < floors["FUSED_QKV_TARGET"]:
        errors.append(
            f"committed baseline fused QKV speedup "
            f"{fused_qkv['speedup']:.2f}x is below the "
            f"{floors['FUSED_QKV_TARGET']:.1f}x FUSED_QKV_TARGET")
    batched = baseline.get("batched_decode")
    if batched is None:
        errors.append("committed baseline lacks the batched_decode section")
    elif batched["batch8_speedup"] < floors["BATCHED_DECODE_TARGET"]:
        errors.append(
            f"committed baseline batch=8 decode speedup "
            f"{batched['batch8_speedup']:.2f}x is below the "
            f"{floors['BATCHED_DECODE_TARGET']:.1f}x BATCHED_DECODE_TARGET")
    plan_reuse = baseline.get("plan_reuse")
    if plan_reuse is None:
        errors.append("committed baseline lacks the plan_reuse section")
    elif plan_reuse["speedup"] < floors["PLAN_REUSE_TARGET"]:
        errors.append(
            f"committed baseline plan-reuse setup speedup "
            f"{plan_reuse['speedup']:.2f}x is below the "
            f"{floors['PLAN_REUSE_TARGET']:.1f}x PLAN_REUSE_TARGET")
    injection = baseline.get("injection")
    if injection is None:
        errors.append("committed baseline lacks the injection section")
    elif injection["speedup"] < floors["INJECT_SPEEDUP_TARGET"]:
        errors.append(
            f"committed baseline in-place injection speedup "
            f"{injection['speedup']:.2f}x is below the "
            f"{floors['INJECT_SPEEDUP_TARGET']:.1f}x INJECT_SPEEDUP_TARGET")


def check_regressions(baseline: dict, fresh: dict, errors: list[str]) -> None:
    """Every fresh speedup must be within tolerance of the baseline's."""
    base = speedups(baseline)
    new = speedups(fresh)
    for key, reference in sorted(base.items()):
        measured = new.get(key)
        if measured is None:
            errors.append(f"fresh results lack the {key!r} speedup "
                          "(section removed?)")
            continue
        floor = reference * (1.0 - REGRESSION_TOLERANCE)
        if measured < floor:
            errors.append(
                f"{key}: speedup regressed to {measured:.2f}x "
                f"(baseline {reference:.2f}x, tolerance floor {floor:.2f}x)")


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: check_bench.py FRESH_BENCH_JSON", file=sys.stderr)
        return 2
    fresh_path = Path(argv[0])
    baseline = json.loads(BASELINE_PATH.read_text())
    fresh = json.loads(fresh_path.read_text())

    errors: list[str] = []
    check_floors(baseline, errors)
    check_regressions(baseline, fresh, errors)
    for error in errors:
        print(f"ERROR: {error}")
    if errors:
        print(f"{len(errors)} benchmark problem(s)")
        return 1
    print(f"bench OK: {len(speedups(fresh))} speedups within "
          f"{REGRESSION_TOLERANCE:.0%} of the committed baseline, "
          "floors satisfied")
    return 0


if __name__ == "__main__":
    sys.exit(main())
