"""Regenerate ``references.json``: reference digests of every input slot.

Usage (from the repository root; a few minutes on one core)::

    PYTHONPATH=src python3 perfbench/make_references.py [WORKLOAD ...]

Each digest is the sha256 of a campaign's canonical run-table CSV, derived
serially on the scalar path (``run_campaign(..., jobs=1, vector=False)``),
and stored with the kernel-plan hashes of the systems that produced it and
the plan hash of the campaign it belongs to.  Run
it only when a change is meant to alter trial results; a run whose tables
stop matching the stored digests reports itself as incorrect.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path


from workloads import (REFERENCES, SLOTS, WORKLOADS, campaign_plans,  # noqa: E402
                       derive_reference, stored_references)


def main(names: list[str]) -> int:
    stored = stored_references()
    for name in names or sorted(WORKLOADS):
        slots = {}
        plan_hashes = None
        for slot in range(SLOTS):
            workload = WORKLOADS[name](slot)
            plan_hashes = plan_hashes or workload.build()
            scratch = Path(tempfile.mkdtemp(prefix="perfbench-ref-"))
            try:
                digests = derive_reference(workload, scratch)
            finally:
                shutil.rmtree(scratch, ignore_errors=True)
            slots[str(slot)] = {"campaigns": campaign_plans(workload),
                                "sha256": digests}
            print(f"{name} slot {slot}: {len(digests)} campaign(s)", flush=True)
        stored["workloads"][name] = {"plan_hashes": plan_hashes, "slots": slots}
        REFERENCES.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
