"""Runtime fault injector attached to the quantized GEMM pipeline.

Errors are injected into GEMM accumulator outputs exactly as the paper does:
each 24-bit accumulator result can have any of its bits flipped, independently,
with per-bit probabilities given by an :class:`~repro.faults.models.ErrorModel`.

Fault-exposure scaling
----------------------
The paper characterizes 8 B-parameter planners whose single inference produces
billions of accumulator results, so even a BER of 1e-8 corrupts several
elements per invocation.  Our surrogates are orders of magnitude smaller.  To
keep the *expected number of corrupted elements per invocation* — the quantity
the resilience curves respond to — comparable, the injector accepts an
``exposure_scale`` that multiplies the per-bit rates.  Benchmarks that quote
paper BER values set it to the ratio of paper-model to surrogate GEMM output
counts (see EXPERIMENTS.md); unit tests use the default of 1.0.

In-place injection
------------------
The fused kernel (:mod:`repro.quant.kernel`) calls
:meth:`ErrorInjector.inject_in_place` on row/column views of its wrapped
int64 accumulator stack: the flips are XORed straight into the view, with
no copy, no re-validation of indices the injector drew itself and no
unsigned round trip.  On an in-range signed value, flipping bit ``b`` of
its ``w``-bit two's-complement pattern is an XOR with ``1 << b`` for
``b < w - 1`` and with the sign-extended ``-(1 << (w - 1))`` for the sign
bit.  The public :meth:`ErrorInjector.inject` wraps a copy of its input
into the accumulator range and applies the same flips, so both return what
:func:`~repro.faults.bitflip.flip_bits` returns for the same draws.  The
two RNG draws per call (``binomial`` per bit, then ``integers`` for the
element indices) are the reproducibility contract and never change.

The clipped, exposure-scaled per-bit rates are cached on the injector,
keyed by ``(model identity, accumulator_bits, exposure_scale)``: swapping
``injector.model`` (as voltage scaling does on every LDO step) or changing
the exposure recomputes them on the next call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fnmatch import fnmatch
from functools import cache

import numpy as np

from ..quant.qtypes import QuantSpec, wrap_to_accumulator
from .models import ErrorModel

__all__ = ["InjectionStats", "ErrorInjector", "PassthroughInjector"]


@cache
def _flip_masks(width: int) -> np.ndarray:
    """Sign-extended XOR mask of every bit of a ``width``-bit accumulator."""
    masks = [1 << bit for bit in range(width - 1)] + [-(1 << (width - 1))]
    masks = np.array(masks, dtype=np.int64)
    masks.flags.writeable = False
    return masks


@dataclass
class InjectionStats:
    """Counters describing what an injector did."""

    gemm_calls: int = 0
    elements_seen: int = 0
    bits_flipped: int = 0
    elements_corrupted: int = 0
    flips_per_component: dict[str, int] = field(default_factory=dict)

    def reset(self) -> None:
        self.gemm_calls = 0
        self.elements_seen = 0
        self.bits_flipped = 0
        self.elements_corrupted = 0
        self.flips_per_component.clear()

    @property
    def observed_element_error_rate(self) -> float:
        if self.elements_seen == 0:
            return 0.0
        return self.elements_corrupted / self.elements_seen


class ErrorInjector:
    """Flips bits in accumulator tensors according to an error model.

    Parameters
    ----------
    model:
        Error model providing per-bit flip probabilities.
    rng:
        Random generator; every experiment passes its own seeded generator.
    exposure_scale:
        Multiplier applied to per-bit rates (see module docstring).
    target_components:
        Optional iterable of glob patterns; injection only happens for GEMM
        calls whose component name matches one of the patterns (used by the
        per-component resilience study, Fig. 5e-h).
    enabled:
        Master switch; a disabled injector is a no-op.
    """

    def __init__(self, model: ErrorModel, rng: np.random.Generator | None = None,
                 exposure_scale: float = 1.0,
                 target_components: list[str] | None = None,
                 enabled: bool = True):
        if exposure_scale < 0:
            raise ValueError("exposure_scale must be non-negative")
        self.model = model
        self.rng = rng or np.random.default_rng(0)
        self.exposure_scale = exposure_scale
        self.target_components = list(target_components) if target_components else None
        self.enabled = enabled
        self.stats = InjectionStats()
        self._rates_key: tuple | None = None
        self._rates: np.ndarray | None = None

    # ------------------------------------------------------------------
    def reseed(self, rng: np.random.Generator) -> None:
        """Replace the random stream (one stream per kernel context).

        The fused kernel runtime (:class:`repro.quant.KernelContext`) calls
        this so that every context draws flips from its own reproducible
        stream instead of sharing one injector-global sequence.
        """
        self.rng = rng

    def expected_element_error_rate(self, spec: QuantSpec) -> float:
        """Expected corrupted fraction of produced accumulator elements.

        This is the exposure invariant of KV-cached decoding: caching changes
        how many accumulator elements are produced, not the corruption
        probability of each produced element.
        """
        rates = self.effective_rates(spec)
        return float(1.0 - np.prod(1.0 - rates))

    def targets(self, component: str | None) -> bool:
        """Whether this injector applies to the given component name."""
        if not self.enabled:
            return False
        if self.target_components is None or component is None:
            return self.target_components is None
        return any(fnmatch(component, pattern) for pattern in self.target_components)

    def effective_rates(self, spec: QuantSpec) -> np.ndarray:
        """Clipped, exposure-scaled per-bit rates (cached, read-only)."""
        bits = spec.accumulator_bits
        key = self._rates_key
        if key is None or key[0] is not self.model or key[1] != bits \
                or key[2] != self.exposure_scale:
            rates = np.clip(self.model.bit_rates(bits) * self.exposure_scale,
                            0.0, 1.0)
            rates.flags.writeable = False
            self._rates = rates
            self._rates_key = (self.model, bits, self.exposure_scale)
        return self._rates

    def inject(self, accumulators: np.ndarray, spec: QuantSpec,
               component: str | None = None) -> np.ndarray:
        """Return a (possibly) corrupted copy of the accumulator tensor.

        When nothing flips the input itself is returned; otherwise a copy
        wrapped into the accumulator range, with the flips applied.
        """
        flips = self._draw(accumulators.size, spec, component)
        if flips is None:
            return accumulators
        out = wrap_to_accumulator(accumulators, spec.accumulator_bits)
        self._flip(out, *flips)
        return out

    def inject_in_place(self, accumulators: np.ndarray, spec: QuantSpec,
                        component: str | None = None) -> None:
        """Corrupt an int64 accumulator tensor (or view) in place.

        Values must already lie in the signed accumulator range (the
        kernel's stack is wrapped before injection); the draws, stats and
        resulting values are those of :meth:`inject`.
        """
        flips = self._draw(accumulators.size, spec, component)
        if flips is not None:
            self._flip(accumulators, *flips)

    def _draw(self, n_elements: int, spec: QuantSpec, component: str | None):
        """Sample one call's flips and record them in :attr:`stats`.

        Returns ``(indices, masks)`` — flat element indices and their XOR
        masks — or None when nothing flips.
        """
        stats = self.stats
        stats.gemm_calls += 1
        stats.elements_seen += n_elements
        if not self.targets(component):
            return None
        # Sample the number of flips per bit position; skip work when nothing flips.
        flip_counts = self.rng.binomial(n_elements, self.effective_rates(spec))
        total_flips = int(flip_counts.sum())
        if total_flips == 0:
            return None
        # One vectorized draw for every flip: element indices in a single call,
        # bit masks expanded from the per-bit counts.
        indices = self.rng.integers(0, n_elements, size=total_flips)
        masks = np.repeat(_flip_masks(spec.accumulator_bits), flip_counts)
        hit = np.zeros(n_elements, dtype=bool)
        hit[indices] = True
        corrupted = int(np.count_nonzero(hit))

        stats.bits_flipped += total_flips
        stats.elements_corrupted += corrupted
        if component is not None:
            stats.flips_per_component[component] = (
                stats.flips_per_component.get(component, 0) + total_flips
            )
        return indices, masks

    @staticmethod
    def _elements(accumulators: np.ndarray, indices: np.ndarray):
        """``(target, key)`` with ``target[key]`` the flat-indexed elements.

        A contiguous tensor is indexed through its flat view; any other view
        (a column slice of the kernel's stack) through unravelled indices.
        """
        if accumulators.flags.c_contiguous:
            return accumulators.reshape(-1), indices
        return accumulators, np.unravel_index(indices, accumulators.shape)

    def _flip(self, accumulators: np.ndarray, indices: np.ndarray,
              masks: np.ndarray) -> None:
        # ``ufunc.at`` XOR-accumulates repeated elements, so multiple flips of
        # one element compose; at a few flips per call it is also cheaper
        # than a fancy-indexed ``^=``.
        np.bitwise_xor.at(*self._elements(accumulators, indices), masks)


class PassthroughInjector(ErrorInjector):
    """An injector that never corrupts anything (clean baseline runs)."""

    def __init__(self):
        from .models import UniformErrorModel

        super().__init__(UniformErrorModel(0.0), enabled=False)
