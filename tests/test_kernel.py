"""Tests for the fused kernel runtime and KV-cached incremental decoding.

Three equivalence contracts are asserted here:

1. ``KernelContext.qgemm`` is bit-identical to the reference
   :func:`repro.quant.quantized_matmul` pipeline — outputs and every stats
   object (``GemmStats``, ``InjectionStats``, ``AnomalyStats``);
2. fault-free KV-cached decode is byte-identical to uncached decode
   (tokens, logits, and logical MAC counts);
3. under injection, caching preserves the expected number of corrupted
   elements *per produced accumulator element*.
"""

import numpy as np
import pytest

from repro.core import AnomalyDetector
from repro.faults import ErrorInjector, SingleBitErrorModel, UniformErrorModel
from repro.hardware import EnergyModel, TimingErrorModel
from repro.nn.functional import rms_norm, silu
from repro.quant import (
    GemmHooks,
    GemmStats,
    INT4,
    INT8,
    KernelContext,
    KernelCounters,
    KVCache,
    QuantSpec,
    QuantizedLinear,
    compute_scale,
)

SPECS = [INT8, INT4, QuantSpec(bits=8, accumulator_bits=16)]


def _layer(rng, spec=INT8, bound_factor=1.2, name="l"):
    w = rng.normal(size=(12, 6)) * 0.3
    x = rng.normal(size=(5, 12))
    bound = float(np.abs(x @ w).max()) * bound_factor
    layer = QuantizedLinear(name, w, None, compute_scale(x, spec), spec=spec,
                            output_bound=bound)
    return layer, x


class TestKernelContextEquivalence:
    @pytest.mark.parametrize("spec", SPECS, ids=str)
    def test_fault_free_bit_identical(self, rng, spec):
        layer, x = _layer(rng, spec)
        ref_stats, ctx_stats = GemmStats(), GemmStats()
        ref = layer(x, hooks=GemmHooks(stats=ref_stats))
        ctx = KernelContext({"l": layer}, hooks=GemmHooks(stats=ctx_stats), spec=spec)
        out = ctx.qgemm("l", x)
        np.testing.assert_array_equal(ref, out)
        assert ref_stats.macs == ctx_stats.macs == ctx.counters.macs
        assert ref_stats.macs_per_component == ctx_stats.macs_per_component
        assert ref_stats.output_elements == ctx.counters.output_elements

    @pytest.mark.parametrize("spec", SPECS, ids=str)
    def test_injection_and_clamp_bit_identical(self, rng, spec):
        layer, x = _layer(rng, spec)
        model = UniformErrorModel(0.02)
        ref_inj = ErrorInjector(model, rng=np.random.default_rng(7))
        ctx_inj = ErrorInjector(model, rng=np.random.default_rng(7))
        ref_det, ctx_det = AnomalyDetector(), AnomalyDetector()
        ref = layer(x, hooks=GemmHooks(injector=ref_inj, anomaly_clamp=ref_det))
        ctx = KernelContext({"l": layer}, spec=spec,
                            hooks=GemmHooks(injector=ctx_inj, anomaly_clamp=ctx_det))
        out = ctx.qgemm("l", x)
        np.testing.assert_array_equal(ref, out)
        assert ref_inj.stats.bits_flipped == ctx_inj.stats.bits_flipped
        assert ref_inj.stats.elements_corrupted == ctx.counters.elements_corrupted
        assert ref_det.stats.elements_clamped == ctx.counters.elements_clamped

    def test_bias_applied(self, rng):
        w = rng.normal(size=(4, 3)) * 0.1
        bias = np.array([1.0, -2.0, 3.0])
        x = rng.normal(size=(2, 4))
        layer = QuantizedLinear("l", w, bias, compute_scale(x))
        ctx = KernelContext({"l": layer})
        np.testing.assert_array_equal(layer(x), ctx.qgemm("l", x))

    def test_quantized_input_shared_across_equal_scales(self, rng):
        """Q/K/V-style components with one input scale reuse the quantization."""
        x = rng.normal(size=(5, 12))
        params = compute_scale(x)
        layers = {
            "a": QuantizedLinear("a", rng.normal(size=(12, 6)) * 0.3, None, params),
            "b": QuantizedLinear("b", rng.normal(size=(12, 6)) * 0.3, None, params),
        }
        ctx = KernelContext(layers)
        ref_a = layers["a"](x)
        ref_b = layers["b"](x)
        np.testing.assert_array_equal(ctx.qgemm("a", x), ref_a)
        np.testing.assert_array_equal(ctx.qgemm("b", x), ref_b)

    def test_logical_rows_override_macs_only(self, rng):
        layer, x = _layer(rng)
        ctx = KernelContext({"l": layer})
        ctx.qgemm("l", x, logical_rows=40)
        assert ctx.counters.macs == 40 * 12 * 6
        assert ctx.counters.output_elements == x.shape[0] * 6

    def test_spec_mismatch_rejected(self, rng):
        layer, _ = _layer(rng, INT4)
        with pytest.raises(ValueError):
            KernelContext({"l": layer}, spec=INT8)

    def test_per_context_rng_stream(self, rng):
        layer, x = _layer(rng)
        injector = ErrorInjector(SingleBitErrorModel(bit=20, rate=0.05),
                                 rng=np.random.default_rng(1))
        first = KernelContext({"l": layer}, hooks=GemmHooks(injector=injector),
                              rng=np.random.default_rng(42)).qgemm("l", x)
        second = KernelContext({"l": layer}, hooks=GemmHooks(injector=injector),
                               rng=np.random.default_rng(42)).qgemm("l", x)
        np.testing.assert_array_equal(first, second)


class TestKernelCounters:
    def test_unified_interface_feeds_energy_and_timing(self, rng):
        layer, x = _layer(rng)
        ctx = KernelContext({"l": layer})
        ctx.qgemm("l", x)
        energy_model = EnergyModel()
        energy = energy_model.kernel_energy_j(ctx.counters, voltage=0.8)
        assert energy == pytest.approx(
            energy_model.compute_energy_j({0.8: ctx.counters.macs}))
        timing = TimingErrorModel()
        expected = timing.expected_corrupted_elements(ctx.counters, voltage=0.7)
        assert expected == pytest.approx(
            ctx.counters.output_elements * timing.element_error_rate(0.7))

    def test_reset(self):
        counters = KernelCounters()
        counters.record_gemm("c", 10, 5)
        counters.bits_flipped = 3
        counters.reset()
        assert counters.macs == 0 and counters.bits_flipped == 0
        assert counters.macs_per_component == {}

    def test_observed_element_error_rate(self):
        counters = KernelCounters()
        assert counters.observed_element_error_rate == 0.0
        counters.record_gemm(None, 10, 100)
        counters.elements_corrupted = 5
        assert counters.observed_element_error_rate == pytest.approx(0.05)


class TestKVCache:
    def test_append_advance_views(self):
        cache = KVCache(num_layers=2, capacity=4, dim=3)
        k = np.arange(6.0).reshape(2, 3)
        cache.append(0, k, k + 10)
        cache.append(1, k + 1, k + 11)
        cache.advance(2)
        assert cache.length == 2
        # Views carry the lane axis; a one-lane cache has one lane.
        np.testing.assert_array_equal(cache.keys(0, 2), k[None])
        np.testing.assert_array_equal(cache.values(1, 2), k[None] + 11)

    def test_compact_keeps_surviving_lanes_in_order(self):
        cache = KVCache(num_layers=1, capacity=3, dim=2, lanes=3)
        k = np.arange(12.0).reshape(3, 2, 2)
        cache.append(0, k, -k)
        cache.advance(2)
        cache.compact([0, 2])
        assert cache.lanes == 2
        np.testing.assert_array_equal(cache.keys(0, 2), k[[0, 2]])
        np.testing.assert_array_equal(cache.values(0, 2), -k[[0, 2]])
        cache.append(0, np.ones((2, 1, 2)), np.ones((2, 1, 2)))
        cache.advance(1)
        np.testing.assert_array_equal(cache.keys(0, 3)[:, 2], np.ones((2, 2)))

    def test_overflow_rejected(self):
        cache = KVCache(num_layers=1, capacity=2, dim=3)
        with pytest.raises(ValueError):
            cache.append(0, np.zeros((3, 3)), np.zeros((3, 3)))
        with pytest.raises(ValueError):
            cache.advance(3)

    def test_reset_reuses_buffers(self):
        cache = KVCache(num_layers=1, capacity=2, dim=3)
        cache.append(0, np.ones((2, 3)), np.ones((2, 3)))
        cache.advance(2)
        cache.reset()
        assert cache.length == 0
        cache.append(0, np.zeros((1, 3)), np.zeros((1, 3)))
        cache.advance(1)
        assert cache.length == 1


# ----------------------------------------------------------------------
# Planner decode equivalence (the tentpole contracts)
# ----------------------------------------------------------------------
TASKS = ["wooden", "stone", "iron", "seed"]


class TestCachedDecodeEquivalence:
    def test_cached_equals_uncached_tokens_logits_macs(self, deployed_planner):
        for task in TASKS:
            cached_stats, uncached_stats = GemmStats(), GemmStats()
            cached_tokens, cached_logits = deployed_planner.decode_tokens(
                task, 0, hooks=GemmHooks(stats=cached_stats),
                use_cache=True, collect_logits=True)
            uncached_tokens, uncached_logits = deployed_planner.decode_tokens(
                task, 0, hooks=GemmHooks(stats=uncached_stats),
                use_cache=False, collect_logits=True)
            assert cached_tokens == uncached_tokens
            assert len(cached_logits) == len(uncached_logits)
            for cached, uncached in zip(cached_logits, uncached_logits):
                np.testing.assert_array_equal(cached, uncached)
            assert cached_stats.macs == uncached_stats.macs
            assert cached_stats.gemm_calls == uncached_stats.gemm_calls
            assert cached_stats.macs_per_component == uncached_stats.macs_per_component

    def test_kernel_matches_legacy_reference_path(self, deployed_planner):
        """The fused runtime reproduces the closure-over-QuantizedLinear path."""
        planner = deployed_planner

        def legacy_decode(task, stats):
            hooks = GemmHooks(stats=stats)
            ones = np.ones(planner.config.dim)

            def forward(tokens):
                x = planner.weights.embed[np.asarray(tokens, dtype=np.int64)]
                for index in range(len(planner.weights.layers)):
                    prefix = f"layer{index}"
                    h = rms_norm(x, ones, eps=1e-6)
                    q = planner._quantized[f"{prefix}.q"](h, hooks=hooks)
                    k = planner._quantized[f"{prefix}.k"](h, hooks=hooks)
                    v = planner._quantized[f"{prefix}.v"](h, hooks=hooks)
                    attn = planner._attention_lanes(q, k[None], v[None], 0)
                    x2 = x + planner._quantized[f"{prefix}.o"](attn, hooks=hooks)
                    h2 = rms_norm(x2, ones, eps=1e-6)
                    gate = silu(planner._quantized[f"{prefix}.gate"](h2, hooks=hooks))
                    up = planner._quantized[f"{prefix}.up"](h2, hooks=hooks)
                    x = x2 + planner._quantized[f"{prefix}.down"](gate * up, hooks=hooks)
                x = rms_norm(x, ones, eps=1e-6)
                return planner._quantized["head"](x[-1:], hooks=hooks)[0]

            tokens = list(planner.vocab.encode_prompt(task, 0))
            generated = []
            for _ in range(planner.config.max_plan_length + 1):
                next_token = int(np.argmax(forward(tokens)))
                generated.append(next_token)
                tokens.append(next_token)
                if next_token == planner.vocab.eos:
                    break
            return generated

        for task in ("wooden", "iron"):
            legacy_stats, kernel_stats = GemmStats(), GemmStats()
            legacy_tokens = legacy_decode(task, legacy_stats)
            kernel_tokens, _ = deployed_planner.decode_tokens(
                task, 0, hooks=GemmHooks(stats=kernel_stats), use_cache=False)
            assert legacy_tokens == kernel_tokens
            assert legacy_stats.macs == kernel_stats.macs
            assert legacy_stats.gemm_calls == kernel_stats.gemm_calls
            assert legacy_stats.macs_per_component == kernel_stats.macs_per_component
            assert legacy_stats.output_elements == kernel_stats.output_elements

    def test_exposure_rate_preserved_under_injection(self, deployed_planner):
        """Caching changes produced elements, not per-element corruption."""
        ber = 2e-3
        rates = {}
        for use_cache in (True, False):
            injector = ErrorInjector(UniformErrorModel(ber),
                                     rng=np.random.default_rng(123))
            hooks = GemmHooks(injector=injector)
            for seed, task in enumerate(TASKS * 4):
                deployed_planner.decode_tokens(task, seed % 2, hooks=hooks,
                                               use_cache=use_cache)
            rates[use_cache] = injector.stats.observed_element_error_rate
        expected = ErrorInjector(UniformErrorModel(ber)) \
            .expected_element_error_rate(deployed_planner.spec)
        assert rates[True] == pytest.approx(expected, rel=0.25)
        assert rates[False] == pytest.approx(expected, rel=0.25)
        assert rates[True] == pytest.approx(rates[False], rel=0.25)

    def test_plan_api_escape_hatch(self, deployed_planner):
        cached = deployed_planner.plan("wooden", 0, use_cache=True)
        uncached = deployed_planner.plan("wooden", 0, use_cache=False)
        assert cached == uncached


class TestKernelContextOnAgents:
    def test_planner_context_reuse_across_invocations(self, deployed_planner):
        stats = GemmStats()
        context = deployed_planner.kernel_context(GemmHooks(stats=stats))
        first = deployed_planner.plan("wooden", 0, context=context)
        macs_after_first = context.counters.macs
        second = deployed_planner.plan("wooden", 1, context=context)
        assert first and second
        assert context.counters.macs > macs_after_first
        assert stats.macs == context.counters.macs

    def test_controller_context_matches_hooks_path(self, deployed_controller, rng):
        from repro.env.observations import OBSERVATION_DIM

        observation = rng.normal(size=(OBSERVATION_DIM,))
        context = deployed_controller.kernel_context()
        via_context = deployed_controller.act_logits(1, observation, context=context)
        via_hooks = deployed_controller.act_logits(1, observation)
        np.testing.assert_array_equal(via_context, via_hooks)
        assert context.counters.macs > 0
