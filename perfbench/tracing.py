"""Outside-in span tracer: wraps the program's public methods from here.

Nothing under ``src/`` knows about this module.  :meth:`Tracer.install`
replaces a fixed list of methods (``TARGETS``) on their classes with thin
wrappers, so every instance records one span per call while
:attr:`Tracer.recording` is on.  Call it before any system or kernel context
is built.

A span carries its name, start, end, parent span and trace id.  The trace id
is the id of the root span of its thread's stack, so every span of one
campaign run (or one worker-daemon drain) shares one id on the main thread,
and every server-side span of one HTTP request shares the id of its handler
span.

Self time is computed online: a span's duration minus the time its direct
children cover.  Per layer the tracer keeps ``calls`` and ``busy_s`` for the
outermost span of that layer on a stack (a nested call into the same layer
is not counted twice) and ``self_s`` for every span.  Spans are aggregated
per thread without locks and merged at the end.

Full span records are kept in memory for the first :data:`KEEP_SPANS` spans
and written as JSON lines by :meth:`Tracer.write_spans`; the aggregates
cover every span.  Forked pool children inherit the wrappers but stop
recording at fork, so in-child work is seen only through the run tables'
profile sidecar.  The parent's blocking waits on those children (and its
sleeps) are wrapped too, as the :data:`IDLE` pseudo-layer, so that waiting
is not mistaken for self time of the span that waits.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import threading
import time
from pathlib import Path

#: Span records kept for the JSON-lines dump (aggregates cover every span).
KEEP_SPANS = 50_000

_clock = time.perf_counter


def _lanes(args, kwargs, result):
    return {"lanes": len(args[1])}


def _one_lane(args, kwargs, result):
    return {"lanes": 1}


def _rows(args, kwargs, result):
    return {"rows": len(args[1])}


def _one_row(args, kwargs, result):
    return {"rows": 1}


def _elements(args, kwargs, result):
    return {"elements": int(args[1].size)}


def _claimed(args, kwargs, result):
    return {"claims": 1} if result is not None else {}


def _completed(args, kwargs, result):
    return {"completes": 1} if result else {}


def _reclaimed(args, kwargs, result):
    return {"reclaims": len(result)}


def _published_bytes(args, kwargs, result):
    plan = args[0]
    total = 0
    for entry in plan.entries.values():
        for array in (entry.weight_q, entry.weight_f, entry.bias):
            if array is not None:
                total += array.nbytes
    return {"bytes_published": total}


def _rows_written(args, kwargs, result):
    return {"rows_written": 1}


#: Pseudo-layer of blocking waits; it is no layer of the program, so its
#: time does not count as covered by named layers.
IDLE = "idle"

#: (layer, module, class or None for a module function, attribute, counter).
TARGETS = (
    ("eval.campaign", "repro.eval.campaign", "CampaignRunner", "run", None),
    ("agents.executor", "repro.agents.executor", "MissionExecutor",
     "run_trial", None),
    ("agents.executor", "repro.agents.executor", "MissionExecutor",
     "run_trial_group", None),
    ("agents.planner", "repro.agents.planner", "DeployedPlanner", "plan",
     _one_lane),
    ("agents.planner", "repro.agents.planner", "DeployedPlanner",
     "plan_batch", _lanes),
    ("agents.controller", "repro.agents.controller", "DeployedController",
     "act_logits", _one_row),
    ("agents.controller", "repro.agents.controller", "DeployedController",
     "act_logits_batch", _rows),
    ("quant.kernel", "repro.quant.kernel", "KernelContext", "qgemm", None),
    ("quant.kernel", "repro.quant.kernel", "KernelContext", "qgemm_multi",
     None),
    ("quant.kernel", "repro.quant.kernel", "BatchedKernel", "qgemm", None),
    ("quant.kernel", "repro.quant.kernel", "BatchedKernel", "qgemm_multi",
     None),
    ("faults.injector", "repro.faults.injector", "ErrorInjector", "inject",
     _elements),
    ("core.anomaly", "repro.core.anomaly", "AnomalyDetector", "__call__",
     None),
    ("core.voltage_scaling", "repro.core.voltage_scaling",
     "AdaptiveVoltageController", "before_step", None),
    ("core.predictor", "repro.core.predictor", "EntropyPredictor", "predict",
     None),
    ("env.world", "repro.env.world", "EmbodiedWorld", "step", None),
    ("env.world", "repro.env.world", "EmbodiedWorld", "observation", None),
    ("eval.runtable", "repro.eval.runtable", "RunTableWriter", "write",
     _rows_written),
    ("eval.runtable", "repro.eval.runtable", "RunTable", "write_csv", None),
    ("eval.runtable", "repro.eval.runtable", "RunTable", "write_json", None),
    ("eval.scheduler", "repro.eval.scheduler", "WorkQueue", "enqueue", None),
    ("eval.scheduler", "repro.eval.scheduler", "WorkQueue", "claim",
     _claimed),
    ("eval.scheduler", "repro.eval.scheduler", "WorkQueue", "complete",
     _completed),
    ("eval.scheduler", "repro.eval.scheduler", "WorkQueue", "fail", None),
    ("eval.scheduler", "repro.eval.scheduler", "WorkQueue",
     "reclaim_expired", _reclaimed),
    ("eval.scheduler", "repro.eval.scheduler", "WorkerDaemon", "run", None),
    ("eval.runtable", "repro.eval.scheduler", None, "merge_run_tables", None),
    ("eval.service", "repro.eval.service", "QueueClient", "_request", None),
    ("eval.service", "repro.eval.service", "CampaignService", "_get", None),
    ("eval.service", "repro.eval.service", "CampaignService", "_post", None),
    ("quant.weightplane", "repro.quant.weightplane", None, "publish",
     _published_bytes),
    # Time a thread spends blocked rather than working: the worker daemon
    # waiting on its pool children, and its poll and retry sleeps.
    (IDLE, "concurrent.futures", None, "wait", None),
    (IDLE, "time", None, "sleep", None),
)

#: Spans whose per-call durations are kept, so that percentiles and
#: per-method sums can be reported (everything else keeps only layer sums).
#: ``QueueClient._request`` durations are keyed by endpoint path.
DURATION_SPANS = frozenset({"QueueClient._request", "WorkerDaemon.run",
                            "repro.eval.scheduler.merge_run_tables"})

#: Spans whose end times are kept when they return a value: enqueue and
#: successful claim times give each task's wait in the queue.
EVENT_SPANS = frozenset({"WorkQueue.enqueue", "WorkQueue.claim"})


class _ThreadState:
    """One thread's span stack and its lock-free aggregates."""

    __slots__ = ("stack", "layers", "counts", "durations", "events",
                 "thread", "spans")

    def __init__(self, thread: str):
        self.stack: list[list] = []
        #: layer -> [calls, busy_s, self_s]
        self.layers: dict[str, list] = {}
        #: layer -> counter name -> total
        self.counts: dict[str, dict[str, float]] = {}
        #: "name" or "name:key" -> durations in seconds
        self.durations: dict[str, list[float]] = {}
        #: (end time, span name) of EVENT_SPANS calls that returned a value
        self.events: list[tuple[float, str]] = []
        self.thread = thread
        self.spans = 0


class Tracer:
    """Records spans of the wrapped methods while :attr:`recording` is on."""

    def __init__(self):
        self.recording = False
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._states_lock = threading.Lock()
        os.register_at_fork(after_in_child=self._stop_in_child)

    def _stop_in_child(self) -> None:
        self.recording = False

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState(threading.current_thread().name)
            self._local.state = state
            with self._states_lock:
                self._states.append(state)
        return state

    # ------------------------------------------------------------------
    def wrap(self, layer: str, name: str, original, counter=None):
        """A wrapper of ``original`` recording one ``layer`` span per call."""
        tracer = self
        keep_duration = name in DURATION_SPANS
        keep_event = name in EVENT_SPANS

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not tracer.recording:
                return original(*args, **kwargs)
            state = tracer._state()
            stack = state.stack
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else None
            # [layer, start, time covered by children, span id, trace id]
            frame = [layer, 0.0, 0.0, span_id,
                     parent[4] if parent is not None else span_id]
            stack.append(frame)
            result = None
            start = _clock()
            frame[1] = start
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                end = _clock()
                stack.pop()
                duration = end - start
                stats = state.layers.get(layer)
                if stats is None:
                    stats = state.layers[layer] = [0, 0.0, 0.0]
                outermost = parent is None or parent[0] != layer
                if outermost:
                    stats[0] += 1
                    stats[1] += duration
                stats[2] += duration - frame[2]
                if parent is not None:
                    parent[2] += duration
                if counter is not None and outermost:
                    counts = state.counts.setdefault(layer, {})
                    for key, value in counter(args, kwargs, result).items():
                        counts[key] = counts.get(key, 0) + value
                if keep_duration:
                    key = f"{name}:{args[1]}" if name == "QueueClient._request" \
                        else name
                    state.durations.setdefault(key, []).append(duration)
                if keep_event and result is not None:
                    state.events.append((end, name))
                state.spans += 1
                if len(tracer.spans) < KEEP_SPANS:
                    tracer.spans.append((span_id,
                                         parent[3] if parent is not None else 0,
                                         frame[4], name, start, end,
                                         state.thread))

        return traced

    def install(self) -> None:
        """Wrap every :data:`TARGETS` method; call once, before any build."""
        for layer, module_name, class_name, attr, counter in TARGETS:
            module = importlib.import_module(module_name)
            owner = module if class_name is None else getattr(module, class_name)
            original = owner.__dict__[attr]
            name = f"{class_name}.{attr}" if class_name else f"{module_name}.{attr}"
            if isinstance(original, (classmethod, staticmethod)):
                raise TypeError(f"cannot wrap {name}: not a plain function")
            setattr(owner, attr, self.wrap(layer, name, original, counter))

    # ------------------------------------------------------------------
    def summary(self) -> dict:
        """Per-layer aggregates over every recorded span and thread.

        ``main_self_s`` sums self time on the main thread only: server
        threads run concurrently with it, so their time cannot be added to
        the main thread's wall time when checking coverage.
        """
        layers: dict[str, dict] = {}
        durations: dict[str, list[float]] = {}
        events: list[tuple[float, str]] = []
        main_self: dict[str, float] = {}
        for state in self._states:
            for layer, (calls, busy, self_s) in state.layers.items():
                entry = layers.setdefault(layer, {"calls": 0, "busy_s": 0.0,
                                                  "self_s": 0.0})
                entry["calls"] += calls
                entry["busy_s"] += busy
                entry["self_s"] += self_s
                if state.thread == "MainThread":
                    main_self[layer] = main_self.get(layer, 0.0) + self_s
            for layer, counts in state.counts.items():
                entry = layers.setdefault(layer, {"calls": 0, "busy_s": 0.0,
                                                  "self_s": 0.0})
                for key, value in counts.items():
                    entry[key] = entry.get(key, 0) + value
            for key, values in state.durations.items():
                durations.setdefault(key, []).extend(values)
            events.extend(state.events)
        return {"layers": layers, "durations": durations,
                "events": sorted(events), "main_self_s": main_self,
                "spans_seen": sum(state.spans for state in self._states),
                "spans_kept": len(self.spans)}

    def write_spans(self, path: Path) -> Path:
        """Write the kept span records as JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            for span_id, parent, trace, name, start, end, thread in self.spans:
                handle.write(json.dumps({
                    "id": span_id, "parent": parent, "trace": trace,
                    "name": name, "start": start, "end": end,
                    "thread": thread}) + "\n")
        return path
