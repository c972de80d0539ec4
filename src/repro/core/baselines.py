"""Prior-art protection baselines compared against CREATE (paper Sec. 6.10, Fig. 20).

* **DMR** (dual modular redundancy): every computation is duplicated and
  compared, with recomputation on mismatch — near-perfect reliability but at
  least 2x compute energy plus recovery overhead.
* **ThUnderVolt**: per-PE timing-error detection with result bypass — faulty
  partial results are skipped (treated as zero), which prunes contributing
  neurons and degrades accuracy at low voltages; modest circuit overhead.
* **ABFT** (algorithm-based fault tolerance): checksum-based detection per
  GEMM with recomputation for recovery — cheap detection but recovery energy
  grows with the fraction of GEMMs that see at least one error, which makes
  aggressive undervolting uneconomical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..faults.injector import ErrorInjector
from ..faults.models import ErrorModel
from ..quant.qtypes import QuantSpec

__all__ = ["DmrModel", "AbftModel", "ThUnderVoltInjector", "BaselineEnergyModel"]


@dataclass(frozen=True)
class DmrModel:
    """Energy model of dual modular redundancy.

    Computation runs twice (``redundancy``); whenever the copies disagree the
    work is redone, so the expected energy multiplier grows with the
    probability that a GEMM output element is corrupted.
    """

    redundancy: float = 2.0
    recovery_cost: float = 1.0

    def energy_multiplier(self, element_error_rate: float) -> float:
        if not 0.0 <= element_error_rate <= 1.0:
            raise ValueError("element_error_rate must be in [0, 1]")
        # Probability that a re-execution is required at least once per GEMM
        # grows quickly with the element error rate; approximate with the
        # element rate aggregated over a representative 4096-element tile.
        p_retry = 1.0 - (1.0 - element_error_rate) ** 4096
        return self.redundancy + self.recovery_cost * p_retry

    def corrects_errors(self) -> bool:
        return True


@dataclass(frozen=True)
class AbftModel:
    """Energy model of checksum-based ABFT for GEMMs."""

    checksum_overhead: float = 0.08
    recompute_cost: float = 1.0
    #: Largest per-element error rate the single-error-correct scheme handles.
    correctable_element_rate: float = 2e-3

    def energy_multiplier(self, element_error_rate: float) -> float:
        if not 0.0 <= element_error_rate <= 1.0:
            raise ValueError("element_error_rate must be in [0, 1]")
        p_recompute = 1.0 - (1.0 - element_error_rate) ** 4096
        return 1.0 + self.checksum_overhead + self.recompute_cost * p_recompute

    def corrects_errors(self, element_error_rate: float) -> bool:
        """Whether recovery still restores correctness at this error rate."""
        return element_error_rate <= self.correctable_element_rate


class ThUnderVoltInjector(ErrorInjector):
    """Error injector modelling ThUnderVolt's skip-on-timing-error behaviour.

    Timing errors are *detected* per PE rather than corrected: the affected
    output (and, because detection is at the PE level, a collateral set of
    correct outputs sharing the column) is replaced by zero.  Detection is
    assumed perfect, so no large corrupted values survive, but the effective
    neuron pruning grows with the error rate and degrades task quality at low
    voltages — the behaviour Fig. 20 penalizes.
    """

    def __init__(self, model: ErrorModel, rng: np.random.Generator | None = None,
                 collateral_factor: float = 3.0, exposure_scale: float = 1.0):
        super().__init__(model, rng=rng, exposure_scale=exposure_scale)
        if collateral_factor < 0:
            raise ValueError("collateral_factor must be non-negative")
        self.collateral_factor = collateral_factor
        self.elements_zeroed = 0

    def inject(self, accumulators: np.ndarray, spec: QuantSpec,
               component: str | None = None) -> np.ndarray:
        """Return a copy of the accumulator tensor with detected faults zeroed."""
        out = accumulators.copy()
        self.inject_in_place(out, spec, component)
        return out

    def inject_in_place(self, accumulators: np.ndarray, spec: QuantSpec,
                        component: str | None = None) -> None:
        """Zero detected faults (and collateral outputs) in place."""
        self.stats.gemm_calls += 1
        self.stats.elements_seen += int(accumulators.size)
        if not self.targets(component):
            return
        rates = self.effective_rates(spec)
        n_elements = accumulators.size
        # Probability that an element has at least one flipped bit.
        p_element = 1.0 - np.prod(1.0 - rates)
        p_zero = min(1.0, p_element * (1.0 + self.collateral_factor))
        num_zeroed = int(self.rng.binomial(n_elements, p_zero))
        if num_zeroed == 0:
            return
        indices = self.rng.choice(n_elements, size=num_zeroed, replace=False)
        target, key = self._elements(accumulators, indices)
        target[key] = 0
        self.elements_zeroed += num_zeroed
        self.stats.elements_corrupted += num_zeroed


@dataclass(frozen=True)
class BaselineEnergyModel:
    """Energy multipliers of all compared techniques at a given error rate."""

    dmr: DmrModel = DmrModel()
    abft: AbftModel = AbftModel()
    thundervolt_overhead: float = 0.05
    create_overhead: float = 0.0024  # AD units + LDOs (Sec. 6.2)

    def multipliers(self, element_error_rate: float) -> dict[str, float]:
        return {
            "dmr": self.dmr.energy_multiplier(element_error_rate),
            "abft": self.abft.energy_multiplier(element_error_rate),
            "thundervolt": 1.0 + self.thundervolt_overhead,
            "create": 1.0 + self.create_overhead,
        }
