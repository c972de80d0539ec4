"""Benchmark gate checker (the CI ``kernels``, ``fleet`` and ``service`` jobs).

Evaluates the gate table of ``benchmarks/gates.py`` for a fresh
``BENCH_<name>.json``, against the committed baseline of the same file
name at the repository root:

1. **floors** — both documents must satisfy every floor row.  A committed
   baseline below its own gate means the committed numbers and the gate
   table drifted apart; ``full_only`` rows are skipped on a fresh
   ``--smoke`` run (the baseline is always held to them);
2. **regression** — every regressed metric of the fresh run must be within
   the table's tolerance of the committed baseline.

A section missing from either document is an error.  Run from the
repository root::

    PYTHONPATH=src python tools/check_bench.py /tmp/BENCH_kernels.json

Exit status 0 means clean; 1 prints one line per problem.  The bench
scripts call :func:`check_floors` as their own exit gate, so a floor is
evaluated by this one function everywhere.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

sys.path.insert(0, str(REPO_ROOT / "benchmarks"))
try:
    from gates import GATES
finally:
    sys.path.pop(0)


def lookup(document: dict, path: str):
    """The value at a dotted JSON path, or ``None`` when any part is absent."""
    value = document
    for key in path.split("."):
        if not isinstance(value, dict) or key not in value:
            return None
        value = value[key]
    return value


def _expand(document: dict, path: str) -> list[str]:
    """``a.*.b`` -> one path per key of ``a`` in ``document``."""
    head, star, tail = path.partition(".*")
    section = lookup(document, head) if star else None
    if not isinstance(section, dict):
        return [path]
    return [f"{head}.{key}{tail}" for key in section]


def check_floors(name: str, document: dict, label: str,
                 full: bool | None = None) -> list[str]:
    """Every floor row of ``GATES[name]`` that ``document`` violates.

    ``full`` decides whether ``full_only`` rows apply; by default they
    apply unless the document records a smoke run.
    """
    if full is None:
        full = not (document.get("mode") == "smoke"
                    or document.get("smoke") is True)
    errors = []
    for row in GATES[name]["floors"]:
        if row.get("full_only") and not full:
            continue
        gate, path = row["gate"], row["path"]
        value = lookup(document, path)
        if isinstance(value, list):
            value = len(value)
        if value is None:
            errors.append(f"{label} lacks {path} ({gate})")
        elif "min" in row and value < row["min"]:
            errors.append(f"{label}: {path} = {value:.4g} is below the "
                          f"{row['min']:g} {gate} floor")
        elif "max" in row and value > row["max"]:
            errors.append(f"{label}: {path} = {value:.4g} exceeds the "
                          f"{row['max']:g} {gate} limit")
        elif "equals" in row and value != lookup(document, row["equals"]):
            errors.append(f"{label}: {path} = {value} differs from "
                          f"{row['equals']} = "
                          f"{lookup(document, row['equals'])} ({gate})")
    return errors


def check_regressions(name: str, baseline: dict, fresh: dict) -> list[str]:
    """Every regressed metric must stay within tolerance of the baseline."""
    tolerance = GATES[name]["tolerance"]
    errors = []
    for pattern in GATES[name]["regressed"]:
        for path in _expand(baseline, pattern):
            reference, measured = lookup(baseline, path), lookup(fresh, path)
            if reference is None:
                errors.append(f"committed baseline lacks {path}")
            elif measured is None:
                errors.append(f"fresh run lacks {path}")
            elif measured < reference * (1.0 - tolerance):
                errors.append(
                    f"{path} regressed to {measured:.4g} (baseline "
                    f"{reference:.4g}, {tolerance:.0%} tolerance floor "
                    f"{reference * (1.0 - tolerance):.4g})")
    return errors


def check(name: str, baseline: dict, fresh: dict) -> list[str]:
    """Floors on both documents plus the regression diff."""
    return (check_floors(name, baseline, "committed baseline", full=True)
            + check_floors(name, fresh, "fresh run")
            + check_regressions(name, baseline, fresh))


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    fresh_path = Path(argv[0]) if len(argv) == 1 else None
    name = fresh_path.stem.removeprefix("BENCH_") if fresh_path else None
    if name not in GATES or not fresh_path.name.startswith("BENCH_"):
        print("usage: check_bench.py BENCH_{" + ",".join(GATES) + "}.json",
              file=sys.stderr)
        return 2
    baseline = json.loads((REPO_ROOT / fresh_path.name).read_text())
    fresh = json.loads(fresh_path.read_text())

    errors = check(name, baseline, fresh)
    for error in errors:
        print(f"ERROR: {error}")
    if errors:
        print(f"{len(errors)} {name} benchmark problem(s)")
        return 1
    print(f"{name} bench OK: floors satisfied on both documents, regressed "
          f"metrics within {GATES[name]['tolerance']:.0%} of the committed "
          "baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
