"""Tests for the CREATE core techniques: AD, WR, entropy, policies, VS, baselines."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    AbftModel,
    AnomalyDetector,
    BaselineEnergyModel,
    ConstantVoltagePolicy,
    CreateConfig,
    DmrModel,
    EntropyTrace,
    ProtectionConfig,
    REFERENCE_POLICIES,
    ThUnderVoltInjector,
    VoltagePolicy,
    VoltageScalingConfig,
    action_entropy,
    default_policy,
    generate_candidate_policies,
    hadamard_matrix,
    max_entropy,
    normalized_entropy,
    outlier_ratio,
    pareto_front,
    random_orthogonal_matrix,
    rotate_reader,
    rotate_writer,
    rotation_matrix_for_dim,
)
from repro.core.voltage_scaling import AdaptiveVoltageController
from repro.faults import UniformErrorModel, VoltageErrorModel
from repro.quant import INT8


class TestAnomalyDetector:
    def test_clamps_out_of_bound_values(self):
        detector = AnomalyDetector()
        acc = np.array([10, -2000, 50, 3000])
        out = detector(acc, bound=100, component="layer.o")
        np.testing.assert_array_equal(out, [10, 0, 50, 0])
        assert detector.stats.elements_clamped == 2
        assert detector.stats.clamps_per_component["layer.o"] == 2

    def test_in_bound_values_untouched(self):
        detector = AnomalyDetector()
        acc = np.array([1, -5, 99])
        out = detector(acc, bound=100)
        np.testing.assert_array_equal(out, acc)
        assert detector.stats.elements_clamped == 0

    def test_disabled_detector_is_noop(self):
        detector = AnomalyDetector(enabled=False)
        acc = np.array([10_000])
        np.testing.assert_array_equal(detector(acc, bound=1), acc)

    def test_margin_loosens_bound(self):
        strict = AnomalyDetector(bound_margin=1.0)
        loose = AnomalyDetector(bound_margin=3.0)
        acc = np.array([250])
        assert strict(acc, bound=100)[0] == 0
        assert loose(acc, bound=100)[0] == 250

    def test_invalid_margin(self):
        with pytest.raises(ValueError):
            AnomalyDetector(bound_margin=0.0)

    def test_clamp_rate(self):
        detector = AnomalyDetector()
        detector(np.array([1000, 1]), bound=10)
        assert detector.stats.clamp_rate == pytest.approx(0.5)
        detector.stats.reset()
        assert detector.stats.clamp_rate == 0.0

    def test_does_not_modify_input(self):
        detector = AnomalyDetector()
        acc = np.array([1000])
        detector(acc, bound=10)
        assert acc[0] == 1000


class TestRotation:
    @pytest.mark.parametrize("dim", [2, 4, 8, 16, 64])
    def test_hadamard_is_orthonormal(self, dim):
        h = hadamard_matrix(dim)
        np.testing.assert_allclose(h @ h.T, np.eye(dim), atol=1e-10)

    def test_hadamard_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            hadamard_matrix(6)

    def test_random_orthogonal_is_orthonormal(self, rng):
        q = random_orthogonal_matrix(10, rng)
        np.testing.assert_allclose(q @ q.T, np.eye(10), atol=1e-10)

    def test_rotation_matrix_for_dim_dispatch(self, rng):
        assert rotation_matrix_for_dim(8).shape == (8, 8)
        q = rotation_matrix_for_dim(12, rng)
        np.testing.assert_allclose(q @ q.T, np.eye(12), atol=1e-10)

    def test_writer_reader_consistency_preserves_function(self, rng):
        """x @ W_writer followed by reading must be unchanged by rotation."""
        dim = 16
        rotation = hadamard_matrix(dim)
        writer = rng.normal(size=(24, dim))
        reader = rng.normal(size=(dim, 10))
        x = rng.normal(size=(5, 24))
        original = (x @ writer) @ reader
        rotated = (x @ rotate_writer(writer, rotation)) @ rotate_reader(reader, rotation)
        np.testing.assert_allclose(rotated, original, atol=1e-9)

    def test_rotation_preserves_l2_norm(self, rng):
        rotation = hadamard_matrix(32)
        x = rng.normal(size=(7, 32))
        np.testing.assert_allclose(np.linalg.norm(x @ rotation, axis=-1),
                                   np.linalg.norm(x, axis=-1), atol=1e-9)

    def test_rotation_spreads_outliers(self, rng):
        x = rng.normal(size=(50, 64)) * 0.1
        x[:, 3] *= 40.0  # systematic outlier channel
        rotated = x @ hadamard_matrix(64)
        assert outlier_ratio(rotated) < outlier_ratio(x)

    def test_shape_mismatch_raises(self, rng):
        with pytest.raises(ValueError):
            rotate_writer(rng.normal(size=(4, 6)), hadamard_matrix(4))
        with pytest.raises(ValueError):
            rotate_reader(rng.normal(size=(6, 4)), hadamard_matrix(4))

    @given(st.integers(min_value=1, max_value=6))
    @settings(max_examples=10, deadline=None)
    def test_hadamard_entries_have_equal_magnitude(self, power):
        dim = 2 ** power
        h = hadamard_matrix(dim)
        np.testing.assert_allclose(np.abs(h), 1.0 / np.sqrt(dim))

    def test_outlier_ratio_of_zeros(self):
        assert outlier_ratio(np.zeros(10)) == 1.0


class TestEntropy:
    def test_uniform_logits_have_max_entropy(self):
        logits = np.zeros(12)
        assert action_entropy(logits) == pytest.approx(max_entropy(12))

    def test_peaked_logits_have_low_entropy(self):
        logits = np.zeros(12)
        logits[3] = 20.0
        assert action_entropy(logits) < 0.01

    def test_temperature_flattens(self):
        logits = np.arange(6, dtype=float)
        assert action_entropy(logits, temperature=5.0) > action_entropy(logits, temperature=0.5)

    def test_invalid_temperature(self):
        with pytest.raises(ValueError):
            action_entropy(np.zeros(3), temperature=0.0)

    def test_normalized_entropy_in_unit_interval(self, rng):
        for _ in range(10):
            value = normalized_entropy(rng.normal(size=12))
            assert 0.0 <= value <= 1.0

    def test_entropy_trace_aggregation(self):
        trace = EntropyTrace()
        trace.record(0.2, True, 0.8)
        trace.record(1.8, False, 0.75)
        trace.record(0.4, True, 0.8)
        assert len(trace) == 3
        assert trace.mean_entropy(critical=True) == pytest.approx(0.3)
        assert trace.mean_entropy(critical=False) == pytest.approx(1.8)
        assert trace.mean_entropy() == pytest.approx((0.2 + 1.8 + 0.4) / 3)

    def test_empty_trace_is_nan(self):
        assert np.isnan(EntropyTrace().mean_entropy())


class TestPolicies:
    def test_reference_policies_are_valid(self):
        for name, policy in REFERENCE_POLICIES.items():
            assert policy.name == name
            assert policy.min_voltage() <= policy.max_voltage()

    def test_voltage_monotonically_non_increasing_in_entropy(self):
        policy = default_policy()
        voltages = [policy.voltage_for_entropy(e) for e in np.linspace(0, 3, 30)]
        assert all(a >= b for a, b in zip(voltages, voltages[1:]))

    def test_bin_edges(self):
        policy = VoltagePolicy("t", (1.0,), (0.8, 0.7))
        assert policy.voltage_for_entropy(0.5) == 0.8
        assert policy.voltage_for_entropy(1.0) == 0.8
        assert policy.voltage_for_entropy(1.01) == 0.7

    def test_invalid_policies(self):
        with pytest.raises(ValueError):
            VoltagePolicy("bad", (1.0,), (0.8,))
        with pytest.raises(ValueError):
            VoltagePolicy("bad", (1.0, 0.5), (0.8, 0.7, 0.6))
        with pytest.raises(ValueError):
            VoltagePolicy("bad", (1.0,), (0.7, 0.8))
        with pytest.raises(ValueError):
            VoltagePolicy("bad", (1.0,), (0.95, 0.9))

    def test_constant_policy(self):
        policy = ConstantVoltagePolicy(0.78)
        assert policy.voltage_for_entropy(0.0) == policy.voltage_for_entropy(5.0) == 0.78

    def test_candidate_generation(self, rng):
        candidates = generate_candidate_policies(20, rng)
        assert len(candidates) == 20
        for policy in candidates:
            assert len(policy.voltages) == len(policy.thresholds) + 1

    def test_candidate_generation_invalid(self):
        with pytest.raises(ValueError):
            generate_candidate_policies(0)

    def test_pareto_front(self):
        success = np.array([0.9, 0.9, 0.5, 0.95])
        voltage = np.array([0.80, 0.75, 0.74, 0.85])
        front = pareto_front(success, voltage)
        assert 1 in front and 3 in front
        assert 0 not in front  # dominated by index 1

    def test_pareto_front_shape_mismatch(self):
        with pytest.raises(ValueError):
            pareto_front(np.ones(3), np.ones(2))

    def test_describe_mentions_all_levels(self):
        text = default_policy().describe()
        assert text.count("->") == len(default_policy().voltages)


class TestVoltageScalingRuntime:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            VoltageScalingConfig(policy=default_policy(), update_interval=0)
        with pytest.raises(ValueError):
            VoltageScalingConfig(policy=default_policy(), entropy_source="magic")
        with pytest.raises(ValueError):
            AdaptiveVoltageController(
                config=VoltageScalingConfig(policy=default_policy(),
                                            entropy_source="predictor"))

    def test_oracle_controller_updates_on_interval(self, wooden_world):
        wooden_world.set_subtask("mine_logs")
        controller = AdaptiveVoltageController(
            config=VoltageScalingConfig(policy=default_policy(), update_interval=5,
                                        entropy_source="oracle"))
        controller.begin_trial()
        voltages, predicted_flags = [], []
        for step in range(12):
            voltage, predicted = controller.before_step(wooden_world, 0)
            voltages.append(voltage)
            predicted_flags.append(predicted)
        # Oracle source never charges the predictor.
        assert not any(predicted_flags)
        assert all(default_policy().min_voltage() <= v <= default_policy().max_voltage()
                   for v in voltages)
        summary = controller.schedule_summary()
        assert summary["min_voltage"] >= default_policy().min_voltage() - 1e-9

    def test_injector_model_tracks_voltage(self, wooden_world):
        from repro.faults import ErrorInjector

        wooden_world.set_subtask("mine_logs")
        injector = ErrorInjector(UniformErrorModel(0.0))
        controller = AdaptiveVoltageController(
            config=VoltageScalingConfig(policy=default_policy(), update_interval=1,
                                        entropy_source="oracle"),
            injector=injector)
        controller.begin_trial()
        controller.before_step(wooden_world, 0)
        assert isinstance(injector.model, VoltageErrorModel)
        assert injector.model.voltage == pytest.approx(controller.voltage)


class TestBaselines:
    def test_dmr_energy_at_least_redundancy(self):
        dmr = DmrModel()
        assert dmr.energy_multiplier(0.0) == pytest.approx(2.0)
        assert dmr.energy_multiplier(1e-3) > 2.0
        assert dmr.corrects_errors()

    def test_abft_recovery_grows_with_error_rate(self):
        abft = AbftModel()
        assert abft.energy_multiplier(1e-6) < abft.energy_multiplier(1e-3)
        assert abft.corrects_errors(1e-5)
        assert not abft.corrects_errors(1e-1)

    def test_invalid_error_rates(self):
        with pytest.raises(ValueError):
            DmrModel().energy_multiplier(2.0)
        with pytest.raises(ValueError):
            AbftModel().energy_multiplier(-0.1)

    def test_thundervolt_zeroes_instead_of_corrupting(self):
        injector = ThUnderVoltInjector(UniformErrorModel(5e-3),
                                       rng=np.random.default_rng(0))
        acc = np.full(5000, 1000, dtype=np.int64)
        out = injector.inject(acc, INT8)
        assert set(np.unique(out)) <= {0, 1000}
        assert injector.elements_zeroed > 0
        # Collateral pruning zeroes more elements than the raw error rate.
        element_rate = 1.0 - (1.0 - 5e-3) ** 24
        assert injector.elements_zeroed > element_rate * acc.size

    def test_thundervolt_in_place_matches_public_inject(self):
        stack = np.random.default_rng(1).integers(-1000, 1000, size=(6, 30))
        public = ThUnderVoltInjector(UniformErrorModel(5e-3),
                                     rng=np.random.default_rng(2))
        in_place = ThUnderVoltInjector(UniformErrorModel(5e-3),
                                       rng=np.random.default_rng(2))
        expected = stack.copy()
        expected[:, 10:20] = public.inject(stack[:, 10:20], INT8)
        in_place.inject_in_place(stack[:, 10:20], INT8)
        np.testing.assert_array_equal(stack, expected)
        assert in_place.elements_zeroed == public.elements_zeroed > 0
        assert in_place.stats == public.stats

    def test_thundervolt_invalid_collateral(self):
        with pytest.raises(ValueError):
            ThUnderVoltInjector(UniformErrorModel(1e-3), collateral_factor=-1.0)

    def test_baseline_energy_model_ordering(self):
        multipliers = BaselineEnergyModel().multipliers(1e-4)
        assert multipliers["dmr"] > multipliers["abft"] > multipliers["create"]
        assert multipliers["thundervolt"] > multipliers["create"]


class TestCreateConfig:
    def test_labels(self):
        assert CreateConfig(ad=True, wr=True, vs_policy=None).label() == "AD+WR+noVS"
        assert "VS(C)" in CreateConfig(vs_policy=default_policy()).label()

    def test_planner_protection_carries_ad(self):
        config = CreateConfig(ad=True, planner_voltage=0.78)
        protection = config.planner_protection()
        assert protection.anomaly_detection and protection.voltage == 0.78

    def test_controller_protection_builds_vs(self):
        config = CreateConfig(vs_policy=default_policy(), vs_update_interval=3)
        protection = config.controller_protection()
        assert protection.voltage_scaling is not None
        assert protection.voltage_scaling.update_interval == 3

    def test_protection_is_clean(self):
        assert ProtectionConfig().is_clean
        assert not ProtectionConfig(voltage=0.8).is_clean
        assert not ProtectionConfig(error_model=UniformErrorModel(1e-4)).is_clean

    def test_static_voltage_none_under_vs(self):
        protection = ProtectionConfig(
            voltage=0.8,
            voltage_scaling=VoltageScalingConfig(policy=default_policy(),
                                                 entropy_source="oracle"))
        assert protection.static_voltage() is None
