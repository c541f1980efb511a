"""Energy interfaces that branch on a continuous ECV.

Each ``E_*`` method exercises one rule of the predicated kernel tier:
Python-semantics operators on one arm (``**``, ``//``, ``%``), a zero
divisor on a taken arm (symbolic, concrete, behind a NaN numerator, or
in a quotient the result never uses), a typed error raised on an arm
some samples take, and one body the compiler must leave to sampling
(``math.exp`` of a continuous draw).
"""

import math

from repro.core.ecv import ContinuousECV
from repro.core.errors import WorkloadError
from repro.core.interface import EnergyInterface
from repro.core.units import Energy

#: Share of a NaN-injecting sampler's draws that are NaN.
NAN_SHARE = 0.1


def nan_sampler(low: float, high: float):
    """A sampler drawing NaN for about :data:`NAN_SHARE` of its draws.

    NaN is the one value for which ``not (x < c)`` and ``x >= c``
    disagree, so a kernel that masks the false side with the negated
    comparison loses these samples.
    """
    def draw(rng):
        if rng.random() < NAN_SHARE:
            return float("nan")
        return float(rng.uniform(low, high))
    return draw


class LoadInterface(EnergyInterface):
    """One continuous ``load`` ECV on ``[-1, 3]`` and bodies branching on it."""

    LOW, HIGH = -1.0, 3.0

    def __init__(self, with_nans: bool = False) -> None:
        super().__init__("load_fixture")
        self.declare_ecv(ContinuousECV(
            "load", self.LOW, self.HIGH,
            sampler=nan_sampler(self.LOW, self.HIGH) if with_nans else None))

    def E_pow(self, k: float) -> Energy:
        x = self.ecv("load")
        if x > 0.5:
            return Energy((x + k) ** 2.7)
        return Energy(k - x)

    def E_divmod(self, k: float) -> Energy:
        base = max(self.ecv("load") * k, 0.25)
        return Energy(base // 0.3 + base % 0.7)

    def E_zero_divisor(self, k: float) -> Energy:
        x = self.ecv("load")
        if x < 0.0:
            return Energy(k / (x * 0.0))
        return Energy(k * x)

    def E_nan_quotient(self, k: float) -> Energy:
        x = self.ecv("load")
        if x >= self.LOW:
            return Energy(k * x)
        # Only NaN draws get here; Python raises on nan / 0.0, IEEE
        # division returns NaN without a flag.
        return Energy(x / 0.0)

    def E_unused_quotient(self, k: float) -> Energy:
        x = self.ecv("load")
        if x < 0.0:
            # Kept for inspection, never part of the result: per sample
            # it still raises.
            self.last_ratio = k / (x * 0.0)
            return Energy(k)
        return Energy(k * x)

    def E_concrete_zero_divisor(self, k: float) -> Energy:
        # Below zero max() picks the constant, and k / 0.0 raises while
        # tracing: that arm becomes a guard.
        return Energy(k / max(self.ecv("load"), 0.0))

    def E_guarded(self, k: float) -> Energy:
        x = self.ecv("load")
        if x > 2.5:
            raise WorkloadError(f"load above the rated 2.5 at k={k}")
        return Energy(k * x + 1.0)

    def E_exp(self, k: float) -> Energy:
        return Energy(k * math.exp(self.ecv("load")))
