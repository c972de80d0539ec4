"""Core-speed meter: times a fixed block of work beside the benchmark.

The benchmark counts CPU seconds, which leave out the time a shared host or
another process holds the CPU, but a shared host also changes how fast a
core runs while the benchmark has it: on a shared 2-vCPU Intel Xeon VM the
same trial took from 0.02 to 0.04 CPU seconds within a minute.  This meter
runs beside the set-up probes and the workload for a whole run, starts a
block of work every :data:`PERIOD_S`, and records how many CPU seconds each
block took.  The block mixes, in about equal parts, the two kinds of work a
campaign's CPU time goes to: interpreter-bound object and dict traffic, and
short numpy calls like the fault injector's (binomial and integer draws,
repeat, unique) and the kernels' (a small GEMV).  It runs none of the
repository's code.  The mean block during a timed span stands for the
cores' speed during that span, and ``run.py`` scales the span's CPU seconds
to a core on which one block takes :data:`BLOCK_S`.

Usage (started by ``run.py``)::

    python3 perfbench/speed.py

It runs until its standard input is closed, then prints one JSON list of
``[end, cpu_s]`` samples (``end`` on ``time.monotonic``, which every process
on the host shares) and exits.

The block, :data:`BLOCK_S` and :data:`PERIOD_S` are fixed: changing any of
them changes every scaled figure, and results from before and after the
change cannot be compared.
"""

from __future__ import annotations

import json
import sys
import threading
import time

import numpy

#: CPU seconds one :func:`block` takes on the reference core (roughly its
#: median on an idle 2-vCPU Intel Xeon VM, Python 3.11, numpy 2.4).
BLOCK_S = 0.005
#: Seconds from the start of one block to the start of the next.
PERIOD_S = 0.025

_MATRIX = numpy.linspace(-1.0, 1.0, 64 * 64).reshape(64, 64)
_VECTOR = numpy.linspace(0.0, 1.0, 64)
_RATES = numpy.geomspace(1e-5, 1e-2, 32)


class _Item:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int):
        self.key = key
        self.value = value


def block(n: int = 3_000) -> float:
    """Object, attribute, dict and str() traffic; short numpy calls."""
    rng = numpy.random.default_rng(0)
    table: dict[int, int] = {}
    total = 0.0
    for i in range(n):
        item = _Item(i & 255, i)
        table[item.key] = item.value
        total += len(str(i)) + table.get(i & 127, 0)
        if i % 75 == 0:
            counts = rng.binomial(4096, _RATES)
            indices = rng.integers(0, 4096, size=int(counts.sum()) + 1)
            bits = numpy.repeat(numpy.arange(32), counts)
            total += numpy.unique(indices).size + bits.size
            total += float(numpy.tanh(_MATRIX @ _VECTOR).sum())
    return total


def main() -> int:
    closed = threading.Event()
    threading.Thread(target=lambda: (sys.stdin.read(), closed.set()),
                     daemon=True).start()
    block()  # warm-up, not recorded
    samples = []
    due = time.monotonic()
    while not closed.is_set():
        start = time.thread_time()
        block()
        samples.append([time.monotonic(), time.thread_time() - start])
        due += PERIOD_S
        closed.wait(max(0.0, due - time.monotonic()))
    json.dump(samples, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
