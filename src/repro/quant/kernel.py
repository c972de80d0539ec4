"""Fused quantized-kernel runtime: the fast path of the deployed pipeline.

:func:`repro.quant.quantized_matmul` is the reference implementation of the
paper's accelerator dataflow (quantize → INT GEMM → 24-bit wrap → injection →
anomaly clearance → dequantize), but it pays per-call costs that dominate
trial time at surrogate scale: scale/bound lookups through ``QuantParams``
objects, fresh int64 accumulator allocations, and closure-based dispatch.
This module is the same pipeline compiled into long-lived runtime objects:

* every registered :class:`~repro.quant.qgemm.QuantizedLinear` is flattened
  into a plain-attribute entry (inverse input scale, combined output scale,
  integer anomaly bound, bias) resolved with a single dict lookup per call
  (the dequantized float output is always a fresh array, so callers can
  hold onto results safely);
* injection and anomaly clearance run as in-pipeline stages on the shared
  injector / detector objects, in place on views of the accumulator stack
  (:meth:`~repro.faults.ErrorInjector.inject_in_place`), so their
  per-object stats keep working, while
  each :class:`KernelContext` additionally maintains one unified
  :class:`KernelCounters` that energy/latency accounting can consume
  instead of reading ``GemmStats`` + ``InjectionStats`` + ``AnomalyStats``
  separately.

``qgemm`` results are bit-identical to ``quantized_matmul`` — the fused path
changes bookkeeping, not arithmetic — which the kernel equivalence tests
assert.

One pipeline, N lanes
---------------------
:class:`BatchedKernel` is the only implementation of the pipeline.  It
row-stacks the inputs of N independent per-lane :class:`KernelContext`
objects, quantizes once and runs one GEMM for the whole stack, then applies
each lane's injector / clamp / counters to its own row slice.  A
:class:`KernelContext` holds only per-lane state (hooks, injector RNG stream,
counters, plan); its own :meth:`KernelContext.qgemm` is a one-lane entry into
that pipeline.  Two exactness arguments make every lane count equivalent (a
float64 GEMM over integer-valued operands is exact below 2^52, and every
per-element stage — wrap, injection, clamp, dequantize — commutes with row or
column slicing):

* **Lanes** keep their own RNG streams and see row blocks of exactly the
  shapes a one-lane call would produce, so N lanes are bit-identical to N
  one-lane calls — fault-free and under injection.
* **Component groups** (:meth:`BatchedKernel.qgemm_multi`) stack the weight
  matrices of components that read the same input under one shared
  calibration scale (Q/K/V, Gate/Up) column-wise and run them as one GEMM.
  Injection, anomaly clearance, MAC attribution and dequantization still run
  per component on the column slice, so a fault targeted at ``*.k`` lands
  only in the K slice and every counter matches separate calls bit for bit.
  A single-component call is the one-column-block case of the same group.

Logical-row accounting
----------------------
Incremental (KV-cached) decoding computes GEMMs only for new token rows, but
energy / latency accounting must stay decode-strategy-invariant: the
``logical_rows`` argument of :meth:`KernelContext.qgemm` records MACs for the
full logical row count of the modelled dataflow while the arithmetic (and
therefore the fault exposure of the *produced* accumulator elements) covers
only the rows actually computed.  Cached and uncached decode thus report
identical MAC counts, and injection keeps the expected number of corrupted
elements per produced accumulator element unchanged.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from typing import Callable

from .qgemm import GemmHooks, QuantizedLinear
from .qtypes import INT8, QuantSpec

__all__ = ["KernelCounters", "KernelContext", "KernelPlan", "FloatKernel",
           "KVCache", "BatchedKernel"]

#: Fused-entry memo miss marker (``None`` is a valid cached value: unfusable).
_UNRESOLVED = object()


@dataclass
class KernelCounters:
    """Unified per-context counters of the fused pipeline.

    One object carries what previously required reading three: GEMM work
    (``GemmStats``), injection activity (``InjectionStats``) and clamp
    activity (``AnomalyStats``).  ``macs`` follows the logical-row accounting
    described in the module docstring; ``output_elements`` counts the
    accumulator elements actually produced (the fault-exposure surface).
    """

    gemm_calls: int = 0
    macs: int = 0
    output_elements: int = 0
    bits_flipped: int = 0
    elements_corrupted: int = 0
    elements_clamped: int = 0
    macs_per_component: dict[str, int] = field(default_factory=dict)

    def record_gemm(self, component: str | None, macs: int, outputs: int) -> None:
        self.gemm_calls += 1
        self.macs += macs
        self.output_elements += outputs
        if component is not None:
            self.macs_per_component[component] = (
                self.macs_per_component.get(component, 0) + macs
            )

    def reset(self) -> None:
        self.gemm_calls = 0
        self.macs = 0
        self.output_elements = 0
        self.bits_flipped = 0
        self.elements_corrupted = 0
        self.elements_clamped = 0
        self.macs_per_component.clear()

    @property
    def observed_element_error_rate(self) -> float:
        """Corrupted fraction of the accumulator elements actually produced."""
        if self.output_elements == 0:
            return 0.0
        return self.elements_corrupted / self.output_elements

    def as_dict(self) -> dict[str, int | float]:
        return {
            "gemm_calls": self.gemm_calls,
            "macs": self.macs,
            "output_elements": self.output_elements,
            "bits_flipped": self.bits_flipped,
            "elements_corrupted": self.elements_corrupted,
            "elements_clamped": self.elements_clamped,
        }


class _KernelEntry:
    """Flattened per-layer constants of the fused pipeline (one dict lookup)."""

    __slots__ = ("weight_q", "weight_f", "x_scale", "combined_scale", "bound_acc",
                 "bias", "in_features", "out_features", "qmin", "qmax",
                 "wrap_free", "exact_float")

    def __init__(self, layer: QuantizedLinear):
        spec = layer.spec
        self.weight_q = layer.weight_q
        # Float copy of the integer weights: for the magnitudes the formats
        # allow, a float64 GEMM over integer-valued operands is *exact* and
        # runs through BLAS instead of numpy's integer matmul loop.
        self.weight_f = layer.weight_q.astype(np.float64)
        self.x_scale = layer.x_params.scale
        self.combined_scale = layer.x_params.scale * layer.w_params.scale
        # The integer clamp bound is always resolved (plans are shared by
        # clamped and clamp-less contexts alike); every pipeline stage that
        # uses it still gates on the context's own ``clamp`` hook, so a
        # clamp-less context never reads it.
        self.bound_acc = None
        if layer.output_bound is not None:
            self.bound_acc = int(np.ceil(layer.output_bound / self.combined_scale))
        self.bias = layer.bias
        self.in_features = layer.in_features
        self.out_features = layer.out_features
        self.qmin = spec.qmin
        self.qmax = spec.qmax
        # Largest accumulator magnitude any in-range input can produce.
        acc_bound = spec.qmax * int(np.abs(layer.weight_q).sum(axis=0).max())
        # When that bound fits the accumulator, wrapping is the identity and
        # the wrap stage can be skipped without changing a single bit.
        self.wrap_free = acc_bound < (1 << (spec.accumulator_bits - 1))
        # When it also fits the float64 integer range, the BLAS result is
        # bit-exact; otherwise fall back to the integer matmul.
        self.exact_float = acc_bound < (1 << 52)

    @classmethod
    def from_parts(cls, *, weight_q: np.ndarray, weight_f: np.ndarray,
                   x_scale: float, combined_scale: float,
                   bound_acc: int | None, bias: np.ndarray | None,
                   qmin: int, qmax: int, wrap_free: bool,
                   exact_float: bool) -> "_KernelEntry":
        """Rebuild an entry from already-resolved constants and array views.

        Used by the shared-memory weight plane: the arrays may be read-only
        views into a shared segment, and every scalar is carried verbatim
        (never recomputed), so an attached entry is bit-identical to the
        published one.
        """
        entry = cls.__new__(cls)
        entry.weight_q = weight_q
        entry.weight_f = weight_f
        entry.x_scale = x_scale
        entry.combined_scale = combined_scale
        entry.bound_acc = bound_acc
        entry.bias = bias
        entry.in_features = int(weight_q.shape[0])
        entry.out_features = int(weight_q.shape[1])
        entry.qmin = qmin
        entry.qmax = qmax
        entry.wrap_free = wrap_free
        entry.exact_float = exact_float
        return entry


class _FusedEntry:
    """Column-stacked constants of a component group sharing one input scale.

    Components whose GEMMs read the same activation tensor under the same
    calibration scale (Q/K/V off the attention norm, Gate/Up off the MLP
    norm) can run as one GEMM over the column-concatenated weights.  The
    per-component stages (injection, clamp, dequantize, counters) keep using
    the original :class:`_KernelEntry` objects on column slices, so fusion
    never changes a bit of any component's output or bookkeeping.  A
    one-component group aliases its entry's arrays (no copy): it is how a
    plain :meth:`BatchedKernel.qgemm` enters the same pipeline.
    """

    __slots__ = ("slices", "components", "weight_q", "weight_f", "x_scale",
                 "in_features", "out_features", "qmin", "qmax", "wrap_free",
                 "exact_float", "scale")

    def __init__(self, names: tuple[str, ...], entries: list[_KernelEntry]):
        slices = []
        offset = 0
        for name, entry in zip(names, entries):
            slices.append((name, entry, offset, offset + entry.out_features))
            offset += entry.out_features
        self.slices: tuple[tuple[str, _KernelEntry, int, int], ...] = tuple(slices)
        # Per-call counter template: (name, macs-per-logical-row, columns)
        # per component, so the hot path records MACs with plain arithmetic.
        self.components = tuple(
            (name, entry.in_features * entry.out_features, entry.out_features)
            for name, entry, _, _ in slices)
        if len(entries) == 1:
            self.weight_q = entries[0].weight_q
            self.weight_f = entries[0].weight_f
        else:
            self.weight_q = np.concatenate([e.weight_q for e in entries], axis=1)
            self.weight_f = np.concatenate([e.weight_f for e in entries], axis=1)
        # Dequantization factor: a scalar when every component shares one
        # combined scale, else a full-width row holding each component's
        # scalar in its columns.  Both give the per-element product of
        # per-component scaling bit for bit.
        scales = {e.combined_scale for e in entries}
        if len(scales) == 1:
            self.scale = entries[0].combined_scale
        else:
            self.scale = np.concatenate([
                np.full(e.out_features, e.combined_scale) for e in entries])
        first = entries[0]
        self.x_scale = first.x_scale
        self.in_features = first.in_features
        self.out_features = offset
        self.qmin = first.qmin
        self.qmax = first.qmax
        self.wrap_free = all(e.wrap_free for e in entries)
        self.exact_float = all(e.exact_float for e in entries)

    @staticmethod
    def fusable(entries: list[_KernelEntry]) -> bool:
        """Whether the components share the input geometry and quantization."""
        first = entries[0]
        return all(e.in_features == first.in_features
                   and e.x_scale == first.x_scale
                   and e.qmin == first.qmin and e.qmax == first.qmax
                   for e in entries[1:])


class KernelPlan:
    """Immutable, content-addressed compiled form of a deployed model.

    A plan holds everything about a set of pre-quantized layers that does
    not change between trials: the flattened :class:`_KernelEntry` constants
    (integer weights, their float copies, scales, clamp bounds), the memo of
    :class:`_FusedEntry` group layouts (keyed by a component name for a
    one-component group, by a name tuple for a stacked one), and the
    quantization
    spec.  Building those is the dominant cost of ``KernelContext``
    construction — float copies of every weight matrix plus a per-layer
    column-sum reduction — so deployed agents build one plan per calibration
    and hand it to every per-trial context, which then only allocates its
    tiny mutable state (counters, hook wiring).

    ``content_hash`` is a SHA-256 over the spec, layer names, scales, bounds
    and weight bytes: two plans with equal hashes are bit-identical, which is
    what lets the shared-memory weight plane key segments by hash and lets
    workers verify an attached plan matches their own checkpoint before
    adopting it.

    Plans are shared (across trials, pool workers, and fleets) and therefore
    never mutated after construction; ``KernelContext.register`` on a
    plan-backed context forks private copies first (copy-on-write).
    """

    __slots__ = ("spec", "entries", "fused_memo", "content_hash", "shared",
                 "_shm")

    def __init__(self, layers: dict[str, QuantizedLinear],
                 spec: QuantSpec = INT8):
        self.spec = spec
        self.entries: dict[str, _KernelEntry] = {}
        for name, layer in layers.items():
            if layer.spec != spec:
                raise ValueError(
                    f"layer {name!r} uses {layer.spec}, plan uses {spec}")
            self.entries[name] = _KernelEntry(layer)
        self.fused_memo: dict[str | tuple[str, ...], _FusedEntry | None] = {}
        self.content_hash = self.hash_layers(layers, spec)
        #: True when the entry arrays live in an attached shared-memory
        #: segment rather than process-private memory.
        self.shared = False
        # Keeps the attached SharedMemory mapping alive while any entry
        # array views its buffer; None for process-private plans.
        self._shm = None

    @classmethod
    def from_entries(cls, entries: dict[str, _KernelEntry],
                     spec: QuantSpec, content_hash: str, *,
                     shared: bool = False, shm=None) -> "KernelPlan":
        """Assemble a plan from prebuilt entries (shared-memory attach path)."""
        plan = cls.__new__(cls)
        plan.spec = spec
        plan.entries = dict(entries)
        plan.fused_memo = {}
        plan.content_hash = content_hash
        plan.shared = shared
        plan._shm = shm
        return plan

    @staticmethod
    def hash_layers(layers: dict[str, QuantizedLinear],
                    spec: QuantSpec) -> str:
        """Canonical content hash of a layer set (order-independent).

        Covers everything an entry is derived from — spec, per-layer scales,
        output bounds, bias bytes and quantized-weight bytes — so equal
        hashes imply bit-identical plans.
        """
        digest = hashlib.sha256()
        digest.update(repr(spec).encode())
        for name in sorted(layers):
            layer = layers[name]
            bound = layer.output_bound
            digest.update(name.encode())
            digest.update(repr((float(layer.x_params.scale),
                                float(layer.w_params.scale),
                                None if bound is None else float(bound),
                                layer.bias is not None)).encode())
            digest.update(np.ascontiguousarray(layer.weight_q).tobytes())
            if layer.bias is not None:
                digest.update(np.ascontiguousarray(layer.bias).tobytes())
        return digest.hexdigest()

    def component_names(self) -> list[str]:
        return sorted(self.entries)


class KernelContext:
    """Per-lane state of the fused pipeline: hooks, injector RNG, counters, plan.

    Parameters
    ----------
    layers:
        Pre-quantized layers to register up front (more can be added with
        :meth:`register`).
    hooks:
        The same :class:`~repro.quant.qgemm.GemmHooks` the reference pipeline
        takes; injector / anomaly-clamp / stats objects are shared, so their
        own counters stay live alongside :attr:`counters`.
    spec:
        Quantization format of the registered layers.
    rng:
        Optional per-context random stream.  When given, the context's
        injector is reseeded with it (see
        :meth:`repro.faults.ErrorInjector.reseed`), so every context draws
        from its own reproducible stream.
    plan:
        Optional shared :class:`KernelPlan`.  A plan-backed context skips
        layer flattening entirely — construction touches no weight array —
        and shares the plan's entries and group memo with every other
        context over the same plan.  ``layers``/``spec`` are taken from the
        plan; registering additional layers forks private copies first
        (copy-on-write), so a shared plan is never mutated.

    The arithmetic lives in :class:`BatchedKernel`; :meth:`qgemm` and
    :meth:`qgemm_multi` run this context as a one-lane group of it.
    """

    def __init__(self, layers: dict[str, QuantizedLinear] | None = None,
                 hooks: GemmHooks | None = None, spec: QuantSpec = INT8,
                 rng: np.random.Generator | None = None,
                 plan: KernelPlan | None = None):
        hooks = hooks or GemmHooks()
        if plan is not None:
            spec = plan.spec
        self.spec = spec
        self.hooks = hooks
        self.injector = hooks.injector
        self.clamp = hooks.anomaly_clamp
        self.stats = hooks.stats
        self.counters = KernelCounters()
        if rng is not None and self.injector is not None:
            self.injector.reseed(rng)
        self._plan = plan
        if plan is not None:
            # Shared, read-only: entries and the group memo alias the plan's
            # own dicts (the memo fills in deterministically, so sharing it
            # across contexts changes no results).
            self._entries = plan.entries
            self._fused_entries = plan.fused_memo
        else:
            self._entries: dict[str, _KernelEntry] = {}
            self._fused_entries: dict[str | tuple[str, ...],
                                      _FusedEntry | None] = {}
        self._lane: BatchedKernel | None = None
        if layers:
            self.register_all(layers)

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    @property
    def plan(self) -> KernelPlan | None:
        """The shared plan backing this context (None when self-registered)."""
        return self._plan

    def register(self, layer: QuantizedLinear) -> None:
        """Flatten one pre-quantized layer into the context."""
        if layer.spec != self.spec:
            raise ValueError(
                f"layer {layer.name!r} uses {layer.spec}, context uses {self.spec}")
        if self._plan is not None:
            # Copy-on-write: a plan is shared across trials and workers, so
            # a context that grows past it gets private dicts of its own.
            self._entries = dict(self._entries)
            self._fused_entries = {}
            self._plan = None
        self._entries[layer.name] = _KernelEntry(layer)
        self._fused_entries.clear()

    def register_all(self, layers: dict[str, QuantizedLinear]) -> None:
        for layer in layers.values():
            self.register(layer)

    def component_names(self) -> list[str]:
        return sorted(self._entries)

    def reset(self, rng: np.random.Generator | None = None) -> None:
        """O(1) per-trial reset: counters and input memo, never plan state.

        When ``rng`` is given the injector is reseeded, mirroring
        construction.
        """
        self.counters.reset()
        if self._lane is not None:
            self._lane.release_inputs()
        if rng is not None and self.injector is not None:
            self.injector.reseed(rng)

    def _group(self, key: str | tuple[str, ...]) -> _FusedEntry | None:
        """Memoized group layout: one component (a name) or a stack (a tuple).

        ``None`` marks a tuple whose components cannot share one GEMM.
        """
        group = self._fused_entries.get(key, _UNRESOLVED)
        if group is _UNRESOLVED:
            if type(key) is str:
                group = _FusedEntry((key,), [self._entries[key]])
            else:
                entries = [self._entries[name] for name in key]
                group = _FusedEntry(key, entries) \
                    if _FusedEntry.fusable(entries) else None
            self._fused_entries[key] = group
        return group

    # ------------------------------------------------------------------
    # One-lane entry points
    # ------------------------------------------------------------------
    @property
    def lane(self) -> "BatchedKernel":
        """This context as a one-lane :class:`BatchedKernel` (built once)."""
        if self._lane is None:
            self._lane = BatchedKernel([self])
        return self._lane

    def qgemm(self, name: str, x: np.ndarray,
              logical_rows: int | None = None) -> np.ndarray:
        """Fused quantize → INT GEMM → wrap → inject → clamp → dequantize.

        ``x`` is the float input (rows actually computed; leading axes are
        flattened); ``logical_rows`` optionally overrides the row count used
        for MAC accounting (see the module docstring).  Returns a fresh float
        array, bit-identical to :func:`repro.quant.quantized_matmul` on the
        same operands.
        """
        flat = x if x.ndim == 2 else x.reshape(-1, x.shape[-1])
        rows = flat.shape[0]
        out = (self._lane or self.lane).qgemm(
            name, flat, [rows],
            None if logical_rows is None else [logical_rows])
        return out if flat is x else out.reshape(*x.shape[:-1], -1)

    def qgemm_multi(self, names: tuple[str, ...], x: np.ndarray,
                    logical_rows: int | None = None) -> tuple[np.ndarray, ...]:
        """Several components over one input as a single stacked GEMM.

        Results and all counters are bit-identical to separate :meth:`qgemm`
        calls in ``names`` order (see :meth:`BatchedKernel.qgemm_multi`).
        """
        flat = x if x.ndim == 2 else x.reshape(-1, x.shape[-1])
        parts = (self._lane or self.lane).qgemm_multi(
            names, flat, [flat.shape[0]],
            None if logical_rows is None else [logical_rows])
        if flat is x:
            return parts
        return tuple(part.reshape(*x.shape[:-1], -1) for part in parts)


class BatchedKernel:
    """The quantized pipeline over N lanes, one :class:`KernelContext` each.

    Callers row-stack the activations of N lanes and call :meth:`qgemm` /
    :meth:`qgemm_multi` with ``lane_rows`` giving each lane's row count in
    the stack.  Quantization and the (IN)T GEMM run once for the whole
    stack; every per-lane stage — MAC/stat attribution, fault injection with
    the lane's own RNG stream, anomaly clearance — runs on the lane's row
    slice through the lane's own context.  Each lane's injector therefore
    sees tensors of exactly the shapes (and values) a one-lane call would
    produce, in the same call order, so N lanes are bit-identical to N
    one-lane calls, fault-free and under injection.

    All contexts must be registered over the same deployed model (same
    component names, scales, and quantization spec); lanes may differ in
    hooks — injectors, clamps, stats — arbitrarily.
    """

    def __init__(self, contexts: list[KernelContext]):
        if not contexts:
            raise ValueError("BatchedKernel needs at least one context")
        host = contexts[0]
        for context in contexts[1:]:
            if context.spec != host.spec:
                raise ValueError("all batched contexts must share one spec")
            if context._entries.keys() != host._entries.keys():
                raise ValueError(
                    "all batched contexts must register the same components")
        self.contexts = list(contexts)
        self.spec = spec = host.spec
        self._host = host
        # Wrap constants of the accumulator format, resolved once.
        self._acc_mask = spec.accumulator_mask
        self._acc_sign = 1 << (spec.accumulator_bits - 1)
        self._acc_span = 1 << spec.accumulator_bits
        self._qx_source: np.ndarray | None = None
        self._qx_scale = 0.0
        self._qx: np.ndarray | None = None
        # Hooks are fixed at context construction, so hoist the "does any
        # lane inject / clamp" checks out of the per-call hot path; when no
        # lane has hooks the per-lane stage loop is skipped entirely.
        self._faulty = any(c.injector is not None for c in self.contexts)
        self._hooked = self._faulty or any(
            c.clamp is not None for c in self.contexts)
        # Each lane's counter objects, resolved once (they are updated in
        # place, never replaced).
        self._counters = [(c.counters, c.counters.macs_per_component, c.stats)
                          for c in self.contexts]
        self._bounds_memo: dict[tuple[int, ...], list[tuple[int, int]]] = {}

    @staticmethod
    def over(contexts: list[KernelContext]) -> "BatchedKernel":
        """A kernel over ``contexts``; one context reuses its own lane kernel."""
        if len(contexts) == 1:
            return contexts[0].lane
        return BatchedKernel(contexts)

    def release_inputs(self) -> None:
        """Drop the quantized-input memo (end of a decode / act step).

        The memo only ever hits *within* one step — each step stacks fresh
        lane activations, so ``x is self._qx_source`` cannot match across
        steps — but without an explicit release it pins the last stacked
        input (and its quantized copy) for the kernel's lifetime.  Drivers
        call this once per step so long fleet missions don't grow resident
        memory with stale activation stacks.
        """
        self._qx_source = None
        self._qx_scale = 0.0
        self._qx = None

    def _bounds(self, key: tuple[int, ...]) -> list[tuple[int, int]]:
        """Row range of every lane in the stack (memoized per lane_rows)."""
        bounds = []
        offset = 0
        for rows in key:
            bounds.append((offset, offset + rows))
            offset += rows
        self._bounds_memo[key] = bounds
        return bounds

    def _pipeline(self, group: _FusedEntry, x: np.ndarray,
                  lane_rows: list[int],
                  logical_rows: list[int] | None) -> np.ndarray:
        """Quantize → GEMM → wrap → per-lane inject/clamp → dequantize.

        Returns the full-width float output of the group (bias not yet
        added).  Per lane, per component, the stages run in component order
        — the order separate one-component calls would use — so every
        lane's RNG stream is consumed exactly as in a one-lane call.
        """
        if len(lane_rows) != len(self._counters) \
                or sum(lane_rows) != x.shape[0]:
            raise ValueError(f"lane_rows {list(lane_rows)} do not split a "
                             f"{x.shape[0]}-row stack into "
                             f"{len(self._counters)} lanes")
        logical = lane_rows if logical_rows is None else logical_rows
        components = group.components
        for (counters, per_component, stats), rows, lrows in zip(
                self._counters, lane_rows, logical):
            # Inlined ``counters.record_gemm`` (same arithmetic): the
            # per-lane × per-component recording is the hottest pure-Python
            # loop of a decode step.
            counters.gemm_calls += len(components)
            for name, elems, outs in components:
                macs = lrows * elems
                counters.macs += macs
                counters.output_elements += rows * outs
                per_component[name] = per_component.get(name, 0) + macs
                if stats is not None:
                    stats.record(name, macs, rows * outs)

        if x is self._qx_source and group.x_scale == self._qx_scale:
            x_q = self._qx
        else:
            # Identical arithmetic to quantizer.quantize: scale, round, clip.
            x_q = x / group.x_scale
            np.rint(x_q, out=x_q)
            np.minimum(x_q, group.qmax, out=x_q)
            np.maximum(x_q, group.qmin, out=x_q)
            self._qx_source = x
            self._qx_scale = group.x_scale
            self._qx = x_q

        if group.exact_float and group.wrap_free and not self._faulty:
            # Fault-free fast path: the BLAS GEMM over integer-valued floats
            # is exact and wrapping is the identity, so the accumulator never
            # needs to materialize as int64.
            out = x_q @ group.weight_f
            if self._hooked:
                self._lane_stages(out, lane_rows, group.slices)
        else:
            if group.exact_float:
                acc = (x_q @ group.weight_f).astype(np.int64)
            else:
                acc = np.matmul(x_q.astype(np.int64), group.weight_q)
            if not group.wrap_free:
                # Finite accumulator width, in place.  Wrapping is the
                # identity on any wrap-free component, so the whole-stack
                # wrap changes no such component.
                acc &= self._acc_mask
                acc[acc >= self._acc_sign] -= self._acc_span
            if self._hooked:
                self._lane_stages(acc, lane_rows, group.slices)
            out = acc.astype(np.float64)
        out *= group.scale
        return out

    def _lane_stages(self, acc: np.ndarray, lane_rows: list[int],
                     slices) -> None:
        """Injection + clamp of every lane's row block, in place on the stack.

        The injector flips bits straight into the block view; the clamp
        returns a new array only when it zeroed something, which is then
        written back into the same view.
        """
        spec = self.spec
        key = tuple(lane_rows)
        bounds = self._bounds_memo.get(key) or self._bounds(key)
        for context, (lo, hi) in zip(self.contexts, bounds):
            injector = context.injector
            clamp = context.clamp
            if injector is None and clamp is None:
                continue
            counters = context.counters
            entries = context._entries
            for name, _, c0, c1 in slices:
                block = acc[lo:hi, c0:c1]
                if injector is not None:
                    stats = injector.stats
                    flipped_before = stats.bits_flipped
                    corrupted_before = stats.elements_corrupted
                    injector.inject_in_place(block, spec, name)
                    counters.bits_flipped += stats.bits_flipped - flipped_before
                    counters.elements_corrupted += (
                        stats.elements_corrupted - corrupted_before)
                bound = entries[name].bound_acc
                if clamp is not None and bound is not None:
                    clamp_stats = getattr(clamp, "stats", None)
                    clamped_before = \
                        clamp_stats.elements_clamped if clamp_stats else 0
                    result = clamp(block, bound, name)
                    if result is not block:
                        block[...] = result
                    if clamp_stats is not None:
                        counters.elements_clamped += (
                            clamp_stats.elements_clamped - clamped_before)

    def qgemm(self, name: str, x: np.ndarray, lane_rows: list[int],
              logical_rows: list[int] | None = None) -> np.ndarray:
        """One pipeline pass of one component; returns the row-stacked output.

        ``logical_rows`` optionally overrides each lane's row count for MAC
        accounting (see the module docstring).
        """
        group = self._host._group(name)
        out = self._pipeline(group, x, lane_rows, logical_rows)
        bias = group.slices[0][1].bias
        if bias is not None:
            out += bias
        return out

    def qgemm_multi(self, names: tuple[str, ...], x: np.ndarray,
                    lane_rows: list[int],
                    logical_rows: list[int] | None = None
                    ) -> tuple[np.ndarray, ...]:
        """Component-stacked pass; returns row-stacked per-component outputs.

        Components must share the input scale (Q/K/V and Gate/Up do by
        construction — they read the same normalized residual); groups that
        do not simply fall back to one :meth:`qgemm` per component.
        """
        if type(names) is not tuple:
            names = tuple(names)
        group = self._host._group(names)
        if group is None:
            return tuple(self.qgemm(name, x, lane_rows, logical_rows)
                         for name in names)
        out = self._pipeline(group, x, lane_rows, logical_rows)
        parts = []
        for _, entry, c0, c1 in group.slices:
            part = out[:, c0:c1]
            if entry.bias is not None:
                part += entry.bias
            parts.append(part)
        return tuple(parts)


class FloatKernel:
    """Float-path adapter exposing the :class:`BatchedKernel` interface.

    Deployed agents use it for calibration (with an ``observer``) and for
    float reference inference, so one forward-pass implementation serves
    both precision domains.  ``weight`` maps a component name to its float
    weight matrix; ``bias`` (optional) maps a name to a bias vector or
    ``None``.  ``lane_rows`` and ``logical_rows`` are accepted for interface
    parity and ignored — there is no integer dataflow to account, and float
    callers run one lane at a time.
    """

    def __init__(self, weight: Callable[[str], np.ndarray],
                 bias: Callable[[str], np.ndarray | None] | None = None,
                 observer=None):
        self._weight = weight
        self._bias = bias
        self._observer = observer

    def qgemm(self, name: str, x: np.ndarray, lane_rows=None,
              logical_rows=None) -> np.ndarray:
        out = x @ self._weight(name)
        if self._bias is not None:
            bias = self._bias(name)
            if bias is not None:
                out = out + bias
        if self._observer is not None:
            self._observer.observe(name, x, out)
        return out

    def qgemm_multi(self, names: tuple[str, ...], x: np.ndarray,
                    lane_rows=None, logical_rows=None) -> tuple[np.ndarray, ...]:
        """Per-component float GEMMs in call order (no fusion in the float path).

        Calibration must observe each component's input/output exactly as the
        reference pipeline produced them, so the float kernel never stacks.
        """
        return tuple(self.qgemm(name, x) for name in names)

    def release_inputs(self) -> None:
        """Nothing to release: the float path keeps no input memo."""


class KVCache:
    """Preallocated lane-stacked K/V cache for incremental decoding.

    One contiguous ``(num_layers, lanes, capacity, dim)`` buffer per
    projection; :meth:`append` writes every lane's rows of the newest tokens,
    and :meth:`keys` / :meth:`values` return ``(lanes, length, dim)`` views of
    the valid prefix.  All lanes share one ``length`` (lanes decode in lock
    step); :meth:`compact` drops finished lanes in place.
    """

    def __init__(self, num_layers: int, capacity: int, dim: int,
                 lanes: int = 1):
        if num_layers < 1 or capacity < 1 or dim < 1 or lanes < 1:
            raise ValueError(
                "num_layers, capacity, dim and lanes must be positive")
        self.capacity = capacity
        self.lanes = lanes
        self._k = np.empty((num_layers, lanes, capacity, dim), dtype=np.float64)
        self._v = np.empty((num_layers, lanes, capacity, dim), dtype=np.float64)
        self.length = 0

    def append(self, layer: int, k_new: np.ndarray, v_new: np.ndarray) -> None:
        """Write the K/V rows of the newest tokens at positions ``length:``.

        ``k_new``/``v_new`` are ``(lanes, rows, dim)`` (a one-lane cache also
        takes ``(rows, dim)``).  ``length`` itself only moves on
        :meth:`advance` (called once per decode step, after every layer has
        appended its rows).
        """
        rows = k_new.shape[-2]
        if self.length + rows > self.capacity:
            raise ValueError(
                f"KV cache overflow: {self.length} + {rows} > {self.capacity}")
        end = self.length + rows
        self._k[layer, :self.lanes, self.length:end] = k_new
        self._v[layer, :self.lanes, self.length:end] = v_new

    def advance(self, rows: int) -> None:
        """Commit ``rows`` appended positions (all layers must have appended)."""
        if self.length + rows > self.capacity:
            raise ValueError("cannot advance past the cache capacity")
        self.length += rows

    def reset(self) -> None:
        """Forget all cached positions (buffers are reused, not reallocated)."""
        self.length = 0

    def compact(self, keep: list[int]) -> None:
        """Keep only the lanes at the ascending indices ``keep``, in place.

        Lane ``keep[i]`` moves to slot ``i``; since ``keep[i] >= i``, no
        move overwrites a lane that is still to be moved.
        """
        for slot, lane in enumerate(keep):
            if slot != lane:
                self._k[:, slot, :self.length] = self._k[:, lane, :self.length]
                self._v[:, slot, :self.length] = self._v[:, lane, :self.length]
        self.lanes = len(keep)

    def keys(self, layer: int, length: int) -> np.ndarray:
        return self._k[layer, :self.lanes, :length]

    def values(self, layer: int, length: int) -> np.ndarray:
        return self._v[layer, :self.lanes, :length]
