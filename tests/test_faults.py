"""Tests for bit-flip primitives, error models and the runtime injector."""

import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.faults import (
    ErrorInjector,
    InjectionStats,
    PassthroughInjector,
    SingleBitErrorModel,
    UniformErrorModel,
    VoltageErrorModel,
    flip_bit,
    flip_bits,
    to_signed,
    to_unsigned,
    wrap_to_accumulator,
)
from repro.hardware import TimingErrorModel
from repro.quant import INT8


class TestBitflipPrimitives:
    def test_roundtrip_signed_unsigned(self):
        values = np.array([-5, 0, 7, -(2 ** 22), 2 ** 22])
        np.testing.assert_array_equal(to_signed(to_unsigned(values)), values)

    def test_flip_bit_lsb(self):
        np.testing.assert_array_equal(flip_bit(np.array([0, 1]), 0), [1, 0])

    def test_flip_sign_bit(self):
        flipped = flip_bit(np.array([0]), 23)
        assert flipped[0] == -(2 ** 23)

    def test_flip_bits_specific_elements(self):
        values = np.zeros(5, dtype=np.int64)
        out = flip_bits(values, np.array([1, 3]), np.array([2, 4]))
        assert out[1] == 4 and out[3] == 16
        assert out[0] == 0

    def test_flip_bits_same_element_composes(self):
        values = np.zeros(3, dtype=np.int64)
        out = flip_bits(values, np.array([0, 0]), np.array([1, 2]))
        assert out[0] == 6

    def test_flip_twice_is_identity(self):
        values = np.array([17, -42, 1000])
        once = flip_bits(values, np.array([0, 1, 2]), np.array([5, 10, 20]))
        twice = flip_bits(once, np.array([0, 1, 2]), np.array([5, 10, 20]))
        np.testing.assert_array_equal(twice, values)

    def test_out_of_range_checks(self):
        with pytest.raises(ValueError):
            flip_bit(np.array([0]), 30)
        with pytest.raises(ValueError):
            flip_bits(np.zeros(2, dtype=np.int64), np.array([0]), np.array([40]))
        with pytest.raises(IndexError):
            flip_bits(np.zeros(2, dtype=np.int64), np.array([5]), np.array([0]))
        with pytest.raises(ValueError):
            flip_bits(np.zeros(2, dtype=np.int64), np.array([0, 1]), np.array([0]))

    def test_wrap_to_accumulator(self):
        assert wrap_to_accumulator(np.array([2 ** 23]))[0] == -(2 ** 23)
        assert wrap_to_accumulator(np.array([2 ** 23 - 1]))[0] == 2 ** 23 - 1

    @given(st.lists(st.integers(min_value=-(2 ** 23), max_value=2 ** 23 - 1),
                    min_size=1, max_size=30),
           st.integers(min_value=0, max_value=23))
    @settings(max_examples=60, deadline=None)
    def test_flip_is_involution_property(self, values, bit):
        values = np.asarray(values, dtype=np.int64)
        np.testing.assert_array_equal(flip_bit(flip_bit(values, bit), bit), values)

    @given(st.integers(min_value=-(2 ** 23), max_value=2 ** 23 - 1))
    @settings(max_examples=60, deadline=None)
    def test_signed_unsigned_roundtrip_property(self, value):
        assert to_signed(to_unsigned(np.array([value])))[0] == value


class TestErrorModels:
    def test_uniform_rates(self):
        model = UniformErrorModel(1e-3)
        rates = model.bit_rates()
        assert rates.shape == (24,)
        assert np.all(rates == 1e-3)
        assert model.mean_rate() == pytest.approx(1e-3)

    def test_uniform_invalid(self):
        with pytest.raises(ValueError):
            UniformErrorModel(1.5)

    def test_single_bit_model(self):
        model = SingleBitErrorModel(bit=5, rate=0.1)
        rates = model.bit_rates()
        assert rates[5] == 0.1 and rates.sum() == pytest.approx(0.1)

    def test_single_bit_outside_accumulator(self):
        with pytest.raises(ValueError):
            SingleBitErrorModel(bit=40, rate=0.1).bit_rates()

    def test_voltage_model_monotone(self):
        timing = TimingErrorModel()
        low = VoltageErrorModel(0.7, timing).mean_rate()
        high = VoltageErrorModel(0.85, timing).mean_rate()
        assert low > high

    def test_voltage_model_high_bits_worse(self):
        rates = VoltageErrorModel(0.75).bit_rates()
        assert rates[23] > rates[4]

    def test_describe_strings(self):
        assert "uniform" in UniformErrorModel(1e-4).describe()
        assert "voltage" in VoltageErrorModel(0.8).describe()
        assert "single" in SingleBitErrorModel(3, 0.1).describe()


class TestErrorInjector:
    def test_zero_ber_is_noop(self, rng):
        injector = ErrorInjector(UniformErrorModel(0.0), rng=rng)
        acc = rng.integers(-1000, 1000, size=(50, 50))
        np.testing.assert_array_equal(injector.inject(acc, INT8), acc)

    def test_injection_rate_matches_expectation(self):
        injector = ErrorInjector(UniformErrorModel(1e-3), rng=np.random.default_rng(0))
        acc = np.zeros((200, 200), dtype=np.int64)
        injector.inject(acc, INT8)
        expected = 200 * 200 * 24 * 1e-3
        assert injector.stats.bits_flipped == pytest.approx(expected, rel=0.3)

    def test_exposure_scale_multiplies_rates(self):
        base = ErrorInjector(UniformErrorModel(1e-4), rng=np.random.default_rng(1))
        scaled = ErrorInjector(UniformErrorModel(1e-4), rng=np.random.default_rng(1),
                               exposure_scale=10.0)
        acc = np.zeros((100, 100), dtype=np.int64)
        base.inject(acc, INT8)
        scaled.inject(acc, INT8)
        assert scaled.stats.bits_flipped > base.stats.bits_flipped

    def test_negative_exposure_raises(self):
        with pytest.raises(ValueError):
            ErrorInjector(UniformErrorModel(1e-4), exposure_scale=-1.0)

    def test_component_targeting(self, rng):
        injector = ErrorInjector(UniformErrorModel(0.5), rng=rng,
                                 target_components=["*.k"])
        assert injector.targets("layer0.k")
        assert not injector.targets("layer0.o")
        acc = np.zeros(100, dtype=np.int64)
        untouched = injector.inject(acc, INT8, component="layer1.down")
        np.testing.assert_array_equal(untouched, acc)
        touched = injector.inject(acc, INT8, component="layer1.k")
        assert np.any(touched != 0)

    def test_disabled_injector(self, rng):
        injector = ErrorInjector(UniformErrorModel(0.5), rng=rng, enabled=False)
        acc = np.zeros(100, dtype=np.int64)
        np.testing.assert_array_equal(injector.inject(acc, INT8), acc)

    def test_stats_observed_rate(self):
        injector = ErrorInjector(UniformErrorModel(0.01), rng=np.random.default_rng(2))
        injector.inject(np.zeros(10_000, dtype=np.int64), INT8)
        assert 0 < injector.stats.observed_element_error_rate < 1
        injector.stats.reset()
        assert injector.stats.observed_element_error_rate == 0.0

    def test_original_array_not_modified(self, rng):
        injector = ErrorInjector(UniformErrorModel(0.5), rng=rng)
        acc = np.zeros(100, dtype=np.int64)
        injector.inject(acc, INT8)
        assert np.all(acc == 0)

    def test_passthrough_injector(self, rng):
        injector = PassthroughInjector()
        acc = rng.integers(-100, 100, size=50)
        np.testing.assert_array_equal(injector.inject(acc, INT8), acc)
        assert injector.stats.gemm_calls == 1
        assert injector.stats.bits_flipped == 0


def _oracle_inject(model, rng, acc, spec, exposure_scale=1.0, component="c"):
    """The injector's contract spelled out with the public primitives.

    Recomputes the rates, draws ``binomial`` then ``integers`` exactly as the
    injector does, flips through the validating :func:`flip_bits` and counts
    corrupted elements with ``np.unique``.  Returns the result and the stats
    one call must leave behind.
    """
    stats = InjectionStats(gemm_calls=1, elements_seen=acc.size)
    rates = np.clip(model.bit_rates(spec.accumulator_bits) * exposure_scale,
                    0.0, 1.0)
    counts = rng.binomial(acc.size, rates)
    total = int(counts.sum())
    if total == 0:
        return acc, stats
    indices = rng.integers(0, acc.size, size=total)
    bits = np.repeat(np.arange(counts.size, dtype=np.int64), counts)
    stats.bits_flipped = total
    stats.elements_corrupted = int(np.unique(indices).size)
    stats.flips_per_component[component] = total
    return flip_bits(acc, indices, bits, bits=spec.accumulator_bits), stats


_MODELS = st.one_of(
    st.sampled_from([1e-4, 1e-3, 1.6e-3, 3e-2, 0.3]).map(UniformErrorModel),
    # Every flip hits the sign bit (the sign-extended mask).
    st.sampled_from([1e-2, 0.2, 0.9]).map(
        lambda rate: SingleBitErrorModel(bit=23, rate=rate)),
)


class TestInPlaceInjection:
    """``inject_in_place`` against the ``flip_bits`` oracle, bit for bit."""

    @given(rows=st.integers(1, 6), cols=st.integers(1, 40),
           left=st.integers(0, 5), right=st.integers(0, 5),
           model=_MODELS, seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_view_of_wider_stack_matches_oracle(self, rows, cols, left, right,
                                                model, seed):
        values = np.random.default_rng(seed)
        width = left + cols + right
        stack = values.integers(-(2 ** 23), 2 ** 23, size=(rows, width))
        original = stack.copy()
        columns = slice(left, left + cols)
        expected, expected_stats = _oracle_inject(
            model, np.random.default_rng(seed), original[:, columns], INT8)

        injector = ErrorInjector(model, rng=np.random.default_rng(seed))
        injector.inject_in_place(stack[:, columns], INT8, component="c")

        np.testing.assert_array_equal(stack[:, columns], expected)
        np.testing.assert_array_equal(stack[:, :left], original[:, :left])
        np.testing.assert_array_equal(stack[:, left + cols:],
                                      original[:, left + cols:])
        assert injector.stats == expected_stats
        oracle_rng = np.random.default_rng(seed)
        _oracle_inject(model, oracle_rng, original[:, columns], INT8)
        assert injector.rng.bit_generator.state == oracle_rng.bit_generator.state

    @given(shape=st.lists(st.integers(1, 7), min_size=1, max_size=3),
           model=_MODELS, seed=st.integers(0, 2 ** 32 - 1),
           wide=st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_public_inject_matches_oracle(self, shape, model, seed, wide):
        values = np.random.default_rng(seed)
        # Out-of-range inputs (well past the 24-bit range) are wrapped exactly
        # as flip_bits wraps them.
        limit = 2 ** 40 if wide else 2 ** 23
        acc = values.integers(-limit, limit, size=shape)
        original = acc.copy()
        oracle_rng = np.random.default_rng(seed)
        expected, expected_stats = _oracle_inject(model, oracle_rng, acc, INT8)

        injector = ErrorInjector(model, rng=np.random.default_rng(seed))
        out = injector.inject(acc, INT8, component="c")

        np.testing.assert_array_equal(out, expected)
        assert out.dtype == expected.dtype
        np.testing.assert_array_equal(acc, original)
        assert injector.stats == expected_stats
        assert injector.rng.bit_generator.state == oracle_rng.bit_generator.state

    def test_repeated_indices_compose(self):
        # 12 elements at BER 0.3: ~86 flips, so indices must repeat.
        model = UniformErrorModel(0.3)
        acc = np.arange(-6, 6, dtype=np.int64).reshape(3, 4)
        expected, stats = _oracle_inject(model, np.random.default_rng(5), acc,
                                         INT8)
        assert stats.bits_flipped > stats.elements_corrupted
        injector = ErrorInjector(model, rng=np.random.default_rng(5))
        view = acc.copy()
        injector.inject_in_place(view, INT8, component="c")
        np.testing.assert_array_equal(view, expected)
        assert injector.stats == stats

    def test_untargeted_component_untouched(self):
        injector = ErrorInjector(UniformErrorModel(0.5),
                                 rng=np.random.default_rng(0),
                                 target_components=["*.k"])
        acc = np.zeros((4, 8), dtype=np.int64)
        injector.inject_in_place(acc, INT8, component="layer0.q")
        assert not acc.any()
        assert injector.stats.gemm_calls == 1
        assert injector.stats.elements_seen == 32


class TestRateCache:
    def test_model_swap_uses_new_rates(self):
        injector = ErrorInjector(UniformErrorModel(0.0),
                                 rng=np.random.default_rng(0))
        acc = np.zeros(1000, dtype=np.int64)
        injector.inject_in_place(acc, INT8)
        assert not acc.any()
        injector.model = UniformErrorModel(0.5)
        injector.inject_in_place(acc, INT8)
        assert acc.any()
        np.testing.assert_array_equal(injector.effective_rates(INT8),
                                      np.full(24, 0.5))

    def test_voltage_scaling_swap_uses_new_rates(self):
        from repro.core import (AdaptiveVoltageController,
                                ConstantVoltagePolicy, VoltageScalingConfig)

        injector = ErrorInjector(UniformErrorModel(0.0))
        assert not injector.effective_rates(INT8).any()
        controller = AdaptiveVoltageController(
            config=VoltageScalingConfig(policy=ConstantVoltagePolicy(0.7),
                                        entropy_source="oracle"),
            injector=injector)
        for _ in range(2):
            controller.begin_trial()
            np.testing.assert_array_equal(
                injector.effective_rates(INT8),
                np.clip(injector.model.bit_rates(24), 0.0, 1.0))
        assert injector.effective_rates(INT8).any()

    def test_exposure_change_uses_new_rates(self):
        injector = ErrorInjector(UniformErrorModel(1e-3))
        np.testing.assert_array_equal(injector.effective_rates(INT8),
                                      np.full(24, 1e-3))
        injector.exposure_scale = 2000.0
        np.testing.assert_array_equal(injector.effective_rates(INT8),
                                      np.ones(24))
        injector.exposure_scale = 0.0
        assert not injector.effective_rates(INT8).any()

    def test_accumulator_width_change_uses_new_rates(self):
        injector = ErrorInjector(UniformErrorModel(1e-3))
        assert injector.effective_rates(INT8).size == 24
        wide = replace(INT8, accumulator_bits=32)
        assert injector.effective_rates(wide).size == 32
        # The sign-bit mask follows the width: bit 31 of a 32-bit accumulator.
        model = SingleBitErrorModel(bit=31, rate=0.5)
        acc = np.full((4, 5), 5, dtype=np.int64)
        expected, stats = _oracle_inject(model, np.random.default_rng(0), acc,
                                         wide)
        assert stats.bits_flipped > 0
        single = ErrorInjector(model, rng=np.random.default_rng(0))
        single.inject_in_place(acc, wide, component="c")
        np.testing.assert_array_equal(acc, expected)
        assert set(np.unique(acc)) <= {5, 5 - 2 ** 31}

    def test_cached_rates_are_read_only(self):
        injector = ErrorInjector(UniformErrorModel(1e-3))
        rates = injector.effective_rates(INT8)
        assert injector.effective_rates(INT8) is rates
        with pytest.raises(ValueError):
            rates[0] = 1.0


class TestTimingTail:
    def test_ndtr_matches_norm_sf_bitwise(self):
        from scipy.stats import norm

        model = TimingErrorModel()
        cfg = model.config
        for voltage in np.linspace(0.26, 1.2, 200):
            expected = []
            for bit in range(cfg.accumulator_bits):
                delay = model.path_delay_ns(bit, voltage)
                sigma = max(cfg.delay_sigma * delay, 1e-9)
                tail = float(norm.sf((cfg.clock_period_ns - delay) / sigma))
                expected.append(float(np.clip(tail + cfg.error_floor, 0.0, 1.0)))
            np.testing.assert_array_equal(model.bit_error_rates(voltage),
                                          np.array(expected))

    def test_runtime_import_path_skips_scipy_stats(self):
        code = ("import sys\n"
                "import repro.eval.experiments\n"
                "from repro.agents import get_system\n"
                "get_system('jarvis')\n"
                "assert 'scipy.stats' not in sys.modules, "
                "sorted(m for m in sys.modules if m.startswith('scipy.stats'))\n")
        src = Path(__file__).resolve().parent.parent / "src"
        result = subprocess.run([sys.executable, "-c", code],
                                env={"PYTHONPATH": str(src), "PATH": ""},
                                capture_output=True, text=True, timeout=300)
        assert result.returncode == 0, result.stderr
