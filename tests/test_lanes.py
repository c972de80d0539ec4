"""Differential tests of the one execution path: N lanes == N one-lane calls.

Every planner decode, controller step and trial runs as a group of lanes,
and a single call is a one-lane group.  Hypothesis draws random lane counts
(1-8), prompts, bit-error rates and protections and checks, at three
levels, that a group of N lanes produces exactly what N one-lane calls do —
outputs, counters and fault-injection RNG streams.  The kernel level is
checked against the reference :func:`repro.quant.quantized_matmul` pipeline
(through :class:`~repro.quant.QuantizedLinear`).
"""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.agents.executor import build_protection_hooks
from repro.core import AnomalyDetector, ProtectionConfig
from repro.env import MINECRAFT_SUITE
from repro.env.observations import OBSERVATION_DIM
from repro.eval.runtable import record_from_trial
from repro.faults import ErrorInjector, UniformErrorModel
from repro.quant import (GemmHooks, GemmStats, INT4, INT8, KernelContext,
                         QuantSpec, QuantizedLinear, compute_scale)

#: 0.0 means no injector at all, so fault-free and faulty lanes mix.
BERS = (0.0, 1e-4, 1e-3, 1e-2)

#: A lane's hooks: (injector seed, bit-error rate, anomaly detection).
PROTECTION = (st.integers(0, 2 ** 31), st.sampled_from(BERS), st.booleans())

#: One controller lane: (subtask pick, *PROTECTION); the seed also draws
#: the observation.
LANES = st.lists(st.tuples(st.integers(0, 10 ** 6), *PROTECTION),
                 min_size=1, max_size=8)

#: One planner lane: (task, progress pick, *PROTECTION).
PROMPT_LANES = st.lists(st.tuples(st.sampled_from(MINECRAFT_SUITE.task_names),
                                  st.integers(0, 10 ** 6), *PROTECTION),
                        min_size=1, max_size=8)

#: Four first-subtask prompts with per-lane injection at two BERs.
_FOUR = ("wooden", "stone", "iron", "seed")


def _hooks(seed: int, ber: float, anomaly_detection: bool) -> GemmHooks:
    protection = ProtectionConfig(
        error_model=UniformErrorModel(ber) if ber else None,
        anomaly_detection=anomaly_detection)
    hooks, _, _ = build_protection_hooks(protection, np.random.default_rng(seed))
    return hooks


def _state(context: KernelContext) -> tuple:
    """Everything a lane's context and hooks count."""
    injector, clamp = context.injector, context.clamp
    return (context.counters.as_dict(), dict(context.counters.macs_per_component),
            None if injector is None else (injector.stats.bits_flipped,
                                           injector.stats.elements_corrupted,
                                           injector.stats.gemm_calls),
            None if clamp is None else (clamp.stats.elements_clamped,
                                        clamp.stats.gemm_calls))


def _same(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and np.array_equal(a, b, equal_nan=True)


class TestKernelOracle:
    """One-lane ``KernelContext.qgemm`` == the reference quantized pipeline."""

    @given(st.integers(1, 16), st.integers(1, 12),
           st.lists(st.integers(1, 4), min_size=1, max_size=2),
           st.sampled_from([INT8, INT4, QuantSpec(bits=8, accumulator_bits=16)]),
           st.sampled_from((0.0, 0.02)), st.booleans(), st.booleans(),
           st.integers(0, 2 ** 31))
    @settings(max_examples=40, deadline=None)
    def test_matches_quantized_matmul(self, in_features, out_features,
                                      leading, spec, ber, clamp, bias, seed):
        rng = np.random.default_rng(seed)
        weight = rng.normal(size=(in_features, out_features)) * 0.3
        x = rng.normal(size=(*leading, in_features))
        bound = float(np.abs(x @ weight).max()) * 0.8
        layer = QuantizedLinear("l", weight,
                                rng.normal(size=out_features) if bias else None,
                                compute_scale(x, spec), spec=spec,
                                output_bound=bound)

        def hooks():
            injector = ErrorInjector(UniformErrorModel(ber),
                                     rng=np.random.default_rng(seed)) \
                if ber else None
            return GemmHooks(injector=injector,
                             anomaly_clamp=AnomalyDetector() if clamp else None,
                             stats=GemmStats())

        ref_hooks, ctx_hooks = hooks(), hooks()
        reference = layer(x, hooks=ref_hooks)
        context = KernelContext({"l": layer}, hooks=ctx_hooks, spec=spec)
        out = context.qgemm("l", x)
        assert _same(out, reference)
        assert ref_hooks.stats == ctx_hooks.stats
        assert context.counters.macs == ref_hooks.stats.macs
        if ber:
            assert ref_hooks.injector.stats == ctx_hooks.injector.stats
            assert context.counters.elements_corrupted == \
                ref_hooks.injector.stats.elements_corrupted
        if clamp:
            assert ref_hooks.anomaly_clamp.stats == ctx_hooks.anomaly_clamp.stats
            assert context.counters.elements_clamped == \
                ref_hooks.anomaly_clamp.stats.elements_clamped


class TestLaneGroups:
    @given(PROMPT_LANES, st.booleans())
    @example([(task, 0, 50 + i, 1e-3, False) for i, task in enumerate(_FOUR)],
             True)
    @example([(task, 0, 1000 + i, 1e-4, False) for i, task in enumerate(_FOUR)],
             True)
    @settings(max_examples=12, deadline=None)
    def test_decode_tokens_batch(self, deployed_planner, lanes, use_cache):
        planner = deployed_planner
        requests = [(task, pick % len(planner.suite.get(task).plan))
                    for task, pick, *_ in lanes]
        grouped_ctx = [planner.kernel_context(_hooks(*lane[2:])) for lane in lanes]
        solo_ctx = [planner.kernel_context(_hooks(*lane[2:])) for lane in lanes]

        grouped = planner.decode_tokens_batch(requests, contexts=grouped_ctx,
                                              use_cache=use_cache,
                                              collect_logits=True)
        for request, context, (tokens, logits), grouped_context in zip(
                requests, solo_ctx, grouped, grouped_ctx):
            [(solo_tokens, solo_logits)] = planner.decode_tokens_batch(
                [request], contexts=[context], use_cache=use_cache,
                collect_logits=True)
            assert tokens == solo_tokens
            assert len(logits) == len(solo_logits)
            assert all(_same(a, b) for a, b in zip(logits, solo_logits))
            assert _state(grouped_context) == _state(context)

    @given(LANES)
    @settings(max_examples=20, deadline=None)
    def test_act_logits_batch(self, deployed_controller, lanes):
        controller = deployed_controller
        subtasks = controller.subtask_embed.shape[0]
        requests = [(pick % subtasks,
                     np.random.default_rng(seed).normal(size=OBSERVATION_DIM))
                    for pick, seed, *_ in lanes]
        grouped_ctx = [controller.kernel_context(_hooks(*lane[1:]))
                       for lane in lanes]
        solo_ctx = [controller.kernel_context(_hooks(*lane[1:])) for lane in lanes]

        grouped = controller.act_logits_batch(requests, contexts=grouped_ctx)
        for (subtask, observation), context, logits, grouped_context in zip(
                requests, solo_ctx, grouped, grouped_ctx):
            solo = controller.act_logits(subtask, observation, context=context)
            assert _same(logits, solo)
            assert _state(grouped_context) == _state(context)

    @given(st.lists(st.tuples(st.integers(0, 10 ** 6), st.integers(0, 10 ** 4)),
                    min_size=1, max_size=8),
           st.sampled_from((0.0, 1e-4)), st.booleans())
    @settings(max_examples=4, deadline=None)
    def test_run_trial_group(self, jarvis_executor, trials, ber,
                             anomaly_detection):
        executor = jarvis_executor
        names = executor.suite.task_names
        pairs = [(names[pick % len(names)], seed) for pick, seed in trials]
        protection = ProtectionConfig(
            error_model=UniformErrorModel(ber) if ber else None,
            anomaly_detection=anomaly_detection)

        def payload(trial, task, seed):
            return record_from_trial(trial, spec_key="k", condition="c",
                                     system="jarvis", task=task, seed=seed,
                                     trial_index=0).result_payload()

        grouped = executor.run_trial_group(pairs, planner_protection=protection,
                                           controller_protection=protection)
        for (task, seed), trial in zip(pairs, grouped):
            solo = executor.run_trial(task, seed=seed,
                                      planner_protection=protection,
                                      controller_protection=protection)
            assert payload(trial, task, seed) == payload(solo, task, seed)
            assert trial.entropy_trace.entropies == solo.entropy_trace.entropies
