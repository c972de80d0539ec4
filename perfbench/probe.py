"""Set-up probe: a fresh interpreter imports ``repro`` and builds systems.

Run by ``run.py`` as ``python3 -X importtime perfbench/probe.py KEY...`` so
that the import of scipy is measured from the interpreter's own import log.
It builds every named registry system from the on-disk model cache
(training it first if the cache is cold), an executor for each, and both
kernel plans, then prints one JSON line with its timings.  ``cpu_s`` is
the CPU time (user plus system, every thread) this interpreter used from
its start until it was ready, and the ``*_s`` steps split it (CPU time as
well).  ``ready_at`` is wall-clock time, so the parent can also time
set-up from the moment it spawned this process.
"""

import json
import sys
import time
from pathlib import Path

start = time.process_time()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy  # noqa: E402

import repro  # noqa: E402
import repro.eval.experiments  # noqa: E402,F401
import repro.eval.scheduler  # noqa: E402,F401
import repro.eval.service  # noqa: E402,F401
from repro.agents.registry import get_system  # noqa: E402
from workloads import plan_hashes  # noqa: E402

imported = time.process_time()
systems = {key: get_system(key) for key in sys.argv[1:]}
for system in systems.values():
    system.executor()
built = time.process_time()
hashes = plan_hashes(systems)
planned = time.process_time()
print(json.dumps({
    "cpu_s": planned,
    "ready_at": time.time(),
    "import_s": imported - start,
    "system_build_s": built - imported,
    "plan_build_s": planned - built,
    "plan_hashes": hashes,
    "python": sys.version.split()[0],
    "numpy": numpy.__version__,
    "repro_file": repro.__file__,
}))
