"""Random variables for energy values.

When an energy interface depends on energy-critical variables (ECVs, §3 of
the paper), its return value is a *probability distribution* over energies
rather than a single number.  This module provides a small, exact-where-
possible distribution algebra used by the interface evaluator:

* closed-form ``mean`` / ``variance`` for every distribution type,
* ``upper_bound`` / ``lower_bound`` for worst-case (contract) reasoning,
* independent sums and scalar scaling (returned lazily, with moments
  propagated exactly),
* mixtures (the natural outcome of enumerating discrete ECVs, via the law
  of total variance),
* Monte-Carlo sampling and quantiles for anything without a closed form.

All values are in Joules (plain floats internally); :func:`as_distribution`
coerces :class:`~repro.core.units.Energy` and bare numbers to point masses
so interface code can freely mix deterministic and probabilistic returns.
"""

from __future__ import annotations

import bisect
import math
from typing import Sequence, Union

import numpy as np

from repro.core.errors import ECVBindingError, EvaluationError
from repro.core.units import Energy

__all__ = [
    "EnergyDistribution",
    "PointMass",
    "Discrete",
    "Uniform",
    "Normal",
    "Empirical",
    "Mixture",
    "IndependentSum",
    "Scaled",
    "as_distribution",
]

EnergyLike = Union["EnergyDistribution", Energy, float, int]


def _resolve_quantile_samples(n_samples: int | None) -> int:
    """Resolve a quantile sampling budget.

    ``None`` defers to the active session's ``n_samples`` budget so one
    knob governs every Monte Carlo approximation in an evaluation, with
    ``EvalSession.DEFAULT_QUANTILE_SAMPLES`` as the session-less default.
    """
    if n_samples is not None:
        return int(n_samples)
    from repro.core.interface import active_session
    from repro.core.session import EvalSession
    session = active_session()
    if session is not None:
        return int(session.n_samples)
    return int(EvalSession.DEFAULT_QUANTILE_SAMPLES)


class EnergyDistribution:
    """Abstract base class for distributions over energy (Joules).

    Subclasses implement :meth:`mean`, :meth:`variance`,
    :meth:`lower_bound`, :meth:`upper_bound` and :meth:`sample`.
    """

    def mean(self) -> float:
        """Expected energy in Joules."""
        raise NotImplementedError

    def variance(self) -> float:
        """Variance of the energy in Joules squared."""
        raise NotImplementedError

    def std(self) -> float:
        """Standard deviation in Joules."""
        return math.sqrt(max(self.variance(), 0.0))

    def lower_bound(self) -> float:
        """Infimum of the support (may be ``-inf``)."""
        raise NotImplementedError

    def upper_bound(self) -> float:
        """Supremum of the support (may be ``+inf``).

        This is the value worst-case contracts reason about.
        """
        raise NotImplementedError

    def sample(self, rng: np.random.Generator, n: int = 1) -> np.ndarray:
        """Draw ``n`` independent samples as a numpy array."""
        raise NotImplementedError

    def sample_n(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Bulk-sampling alias used by the Monte Carlo engine.

        Energy distributions have always drawn in bulk via
        :meth:`sample`; this alias gives them the same ``sample_n``
        protocol as :class:`~repro.core.ecv.ECV` so the engine treats
        ECV columns and outcome distributions uniformly.
        """
        return self.sample(rng, int(n))

    def quantile(self, q: float, rng: np.random.Generator | None = None,
                 n_samples: int | None = None) -> float:
        """Approximate the ``q``-quantile by Monte Carlo.

        The sampling-based-quantile contract: ``n_samples`` is a *budget*
        for the Monte Carlo approximation.  When ``None`` (the default)
        it resolves, in order, to the active
        :class:`~repro.core.session.EvalSession`'s ``n_samples`` budget,
        else to ``EvalSession.DEFAULT_QUANTILE_SAMPLES``.  Subclasses
        with closed-form quantiles override this method and *ignore* the
        budget — it only governs the approximation, never the answer of
        an exact formula.  A deterministic seeded generator is used when
        ``rng`` is not supplied so results are reproducible.
        """
        if not 0.0 <= q <= 1.0:
            raise EvaluationError(f"quantile level must be in [0, 1], got {q}")
        n_samples = _resolve_quantile_samples(n_samples)
        if rng is None:
            rng = np.random.default_rng(0xECF)
        draws = np.sort(self.sample(rng, n_samples))
        index = min(int(q * n_samples), n_samples - 1)
        return float(draws[index])

    def mean_energy(self) -> Energy:
        """Expected energy as an :class:`~repro.core.units.Energy`."""
        return Energy(self.mean())

    # -- algebra ----------------------------------------------------------
    def __add__(self, other: EnergyLike) -> "EnergyDistribution":
        other_dist = as_distribution(other)
        if isinstance(self, PointMass) and isinstance(other_dist, PointMass):
            return PointMass(self._value + other_dist._value)
        if isinstance(self, PointMass) and self._value == 0.0:
            return other_dist
        if isinstance(other_dist, PointMass) and other_dist._value == 0.0:
            return self
        return IndependentSum([self, other_dist])

    def __radd__(self, other: EnergyLike) -> "EnergyDistribution":
        return self.__add__(other)

    def __mul__(self, factor: float) -> "EnergyDistribution":
        if not isinstance(factor, (int, float)):
            return NotImplemented
        if isinstance(self, PointMass):
            return PointMass(self._value * factor)
        return Scaled(self, float(factor))

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return (f"{type(self).__name__}(mean={self.mean():.6g} J, "
                f"std={self.std():.6g} J)")


class PointMass(EnergyDistribution):
    """A deterministic energy value viewed as a degenerate distribution."""

    def __init__(self, value: Union[Energy, float]) -> None:
        self._value = value.as_joules if isinstance(value, Energy) else float(value)

    def mean(self) -> float:
        return self._value

    def variance(self) -> float:
        return 0.0

    def lower_bound(self) -> float:
        return self._value

    def upper_bound(self) -> float:
        return self._value

    def sample(self, rng: np.random.Generator, n: int = 1) -> np.ndarray:
        return np.full(n, self._value)

    def quantile(self, q: float, rng=None, n_samples: int | None = None) -> float:
        if not 0.0 <= q <= 1.0:
            raise EvaluationError(f"quantile level must be in [0, 1], got {q}")
        return self._value


class Discrete(EnergyDistribution):
    """A finite discrete distribution over energy values."""

    def __init__(self, values: Sequence[float], probabilities: Sequence[float]) -> None:
        if len(values) != len(probabilities):
            raise ECVBindingError("values and probabilities must have equal length")
        if not values:
            raise ECVBindingError("a discrete distribution needs at least one value")
        probs = [float(p) for p in probabilities]
        if any(p < 0 for p in probs):
            raise ECVBindingError("probabilities must be non-negative")
        total = sum(probs)
        if not math.isclose(total, 1.0, rel_tol=1e-6, abs_tol=1e-9):
            raise ECVBindingError(f"probabilities must sum to 1, got {total}")
        self._values = np.asarray([float(v) for v in values])
        self._probs = np.asarray(probs) / total
        order = np.argsort(self._values)
        self._values = self._values[order]
        self._probs = self._probs[order]
        self._cum = np.cumsum(self._probs)

    def mean(self) -> float:
        return float(np.dot(self._values, self._probs))

    def variance(self) -> float:
        mu = self.mean()
        return float(np.dot((self._values - mu) ** 2, self._probs))

    def lower_bound(self) -> float:
        return float(self._values[0])

    def upper_bound(self) -> float:
        return float(self._values[-1])

    def sample(self, rng: np.random.Generator, n: int = 1) -> np.ndarray:
        return rng.choice(self._values, size=n, p=self._probs)

    def quantile(self, q: float, rng=None, n_samples: int | None = None) -> float:
        if not 0.0 <= q <= 1.0:
            raise EvaluationError(f"quantile level must be in [0, 1], got {q}")
        index = bisect.bisect_left(self._cum.tolist(), q - 1e-12)
        index = min(index, len(self._values) - 1)
        return float(self._values[index])

    @property
    def support(self) -> list[tuple[float, float]]:
        """``(value, probability)`` pairs in ascending value order."""
        return list(zip(self._values.tolist(), self._probs.tolist()))


class Uniform(EnergyDistribution):
    """A continuous uniform distribution on ``[low, high]``."""

    def __init__(self, low: float, high: float) -> None:
        if high < low:
            raise ECVBindingError(f"uniform bounds inverted: [{low}, {high}]")
        self._low = float(low)
        self._high = float(high)

    def mean(self) -> float:
        return 0.5 * (self._low + self._high)

    def variance(self) -> float:
        return (self._high - self._low) ** 2 / 12.0

    def lower_bound(self) -> float:
        return self._low

    def upper_bound(self) -> float:
        return self._high

    def sample(self, rng: np.random.Generator, n: int = 1) -> np.ndarray:
        return rng.uniform(self._low, self._high, size=n)

    def quantile(self, q: float, rng=None, n_samples: int | None = None) -> float:
        if not 0.0 <= q <= 1.0:
            raise EvaluationError(f"quantile level must be in [0, 1], got {q}")
        return self._low + q * (self._high - self._low)


class Normal(EnergyDistribution):
    """A normal distribution, optionally truncated to non-negative support.

    Physical energies cannot be negative; ``clip_at_zero=True`` (the
    default) clips samples at zero.  Moments are reported for the
    *unclipped* normal (the clip is a modelling convenience for sensors
    whose noise is small relative to the mean), but the bounds honour the
    clip so worst-case reasoning stays sound.
    """

    def __init__(self, mean: float, std: float, clip_at_zero: bool = True) -> None:
        if std < 0:
            raise ECVBindingError(f"standard deviation must be >= 0, got {std}")
        self._mean = float(mean)
        self._std = float(std)
        self._clip = bool(clip_at_zero)

    def mean(self) -> float:
        return self._mean

    def variance(self) -> float:
        return self._std ** 2

    def lower_bound(self) -> float:
        return 0.0 if self._clip else -math.inf

    def upper_bound(self) -> float:
        return math.inf if self._std > 0 else self._mean

    def sample(self, rng: np.random.Generator, n: int = 1) -> np.ndarray:
        draws = rng.normal(self._mean, self._std, size=n)
        if self._clip:
            draws = np.clip(draws, 0.0, None)
        return draws


class Empirical(EnergyDistribution):
    """A distribution backed by observed samples (e.g. measurements)."""

    def __init__(self, samples: Sequence[float]) -> None:
        if len(samples) == 0:
            raise ECVBindingError("an empirical distribution needs samples")
        if (isinstance(samples, np.ndarray) and samples.ndim == 1
                and samples.dtype.kind in "biuf"):
            # The same float64 values the per-element float() gives,
            # without a Python-level pass over the samples.
            self._samples = np.sort(samples.astype(float))
        else:
            self._samples = np.sort(np.asarray([float(s) for s in samples]))

    def mean(self) -> float:
        return float(np.mean(self._samples))

    def variance(self) -> float:
        if len(self._samples) < 2:
            return 0.0
        return float(np.var(self._samples, ddof=1))

    def lower_bound(self) -> float:
        return float(self._samples[0])

    def upper_bound(self) -> float:
        return float(self._samples[-1])

    def sample(self, rng: np.random.Generator, n: int = 1) -> np.ndarray:
        return rng.choice(self._samples, size=n, replace=True)

    def quantile(self, q: float, rng=None, n_samples: int | None = None) -> float:
        if not 0.0 <= q <= 1.0:
            raise EvaluationError(f"quantile level must be in [0, 1], got {q}")
        return float(np.quantile(self._samples, q))

    def __len__(self) -> int:
        return len(self._samples)


class Mixture(EnergyDistribution):
    """A weighted mixture of component distributions.

    This is the distribution produced by enumerating discrete ECV traces:
    each trace yields an outcome distribution with the trace's joint
    probability as its weight.  Moments follow the laws of total
    expectation and total variance, so they are exact.
    """

    def __init__(self, components: Sequence[EnergyDistribution],
                 weights: Sequence[float]) -> None:
        if len(components) != len(weights):
            raise ECVBindingError("components and weights must have equal length")
        if not components:
            raise ECVBindingError("a mixture needs at least one component")
        weights = [float(w) for w in weights]
        if any(w < 0 for w in weights):
            raise ECVBindingError("mixture weights must be non-negative")
        total = sum(weights)
        if not math.isclose(total, 1.0, rel_tol=1e-6, abs_tol=1e-9):
            raise ECVBindingError(f"mixture weights must sum to 1, got {total}")
        self._components = list(components)
        self._weights = [w / total for w in weights]

    @classmethod
    def collapse(cls, components: Sequence[EnergyDistribution],
                 weights: Sequence[float]) -> EnergyDistribution:
        """Build a mixture, simplifying the single-component case."""
        if len(components) == 1:
            return components[0]
        return cls(components, weights)

    @property
    def components(self) -> list[tuple[EnergyDistribution, float]]:
        """``(component, weight)`` pairs."""
        return list(zip(self._components, self._weights))

    def mean(self) -> float:
        return sum(w * c.mean() for c, w in zip(self._components, self._weights))

    def variance(self) -> float:
        mu = self.mean()
        second_moment = sum(
            w * (c.variance() + c.mean() ** 2)
            for c, w in zip(self._components, self._weights))
        return max(second_moment - mu ** 2, 0.0)

    def lower_bound(self) -> float:
        return min(c.lower_bound() for c, w in zip(self._components, self._weights)
                   if w > 0)

    def upper_bound(self) -> float:
        return max(c.upper_bound() for c, w in zip(self._components, self._weights)
                   if w > 0)

    def sample(self, rng: np.random.Generator, n: int = 1) -> np.ndarray:
        choices = rng.choice(len(self._components), size=n, p=self._weights)
        out = np.empty(n)
        for index in np.unique(choices):
            mask = choices == index
            out[mask] = self._components[index].sample(rng, int(mask.sum()))
        return out


class IndependentSum(EnergyDistribution):
    """The sum of independent component distributions.

    Means and variances add exactly under independence; bounds add as
    interval arithmetic.  Sampling draws each component independently.
    Nested sums are flattened so long chains built by repeated ``+`` stay
    shallow.
    """

    def __init__(self, components: Sequence[EnergyDistribution]) -> None:
        if not components:
            raise ECVBindingError("an independent sum needs at least one term")
        flat: list[EnergyDistribution] = []
        constant = 0.0
        for component in components:
            if isinstance(component, IndependentSum):
                flat.extend(component._components)
                constant += component._constant
            elif isinstance(component, PointMass):
                constant += component.mean()
            else:
                flat.append(component)
        self._components = flat
        self._constant = constant

    def mean(self) -> float:
        return self._constant + sum(c.mean() for c in self._components)

    def variance(self) -> float:
        return sum(c.variance() for c in self._components)

    def lower_bound(self) -> float:
        return self._constant + sum(c.lower_bound() for c in self._components)

    def upper_bound(self) -> float:
        return self._constant + sum(c.upper_bound() for c in self._components)

    def sample(self, rng: np.random.Generator, n: int = 1) -> np.ndarray:
        total = np.full(n, self._constant)
        for component in self._components:
            total += component.sample(rng, n)
        return total


class Scaled(EnergyDistribution):
    """A component distribution scaled by a non-negative constant factor."""

    def __init__(self, base: EnergyDistribution, factor: float) -> None:
        if factor < 0:
            raise ECVBindingError(
                f"energies cannot be scaled by a negative factor ({factor})")
        self._base = base
        self._factor = float(factor)

    def mean(self) -> float:
        return self._factor * self._base.mean()

    def variance(self) -> float:
        return self._factor ** 2 * self._base.variance()

    def lower_bound(self) -> float:
        return self._factor * self._base.lower_bound()

    def upper_bound(self) -> float:
        return self._factor * self._base.upper_bound()

    def sample(self, rng: np.random.Generator, n: int = 1) -> np.ndarray:
        return self._factor * self._base.sample(rng, n)

    def quantile(self, q: float, rng=None, n_samples: int | None = None) -> float:
        return self._factor * self._base.quantile(q, rng, n_samples)


def as_distribution(value: EnergyLike) -> EnergyDistribution:
    """Coerce energies, numbers and distributions to a distribution.

    * :class:`EnergyDistribution` instances pass through unchanged.
    * :class:`~repro.core.units.Energy` and bare numbers (Joules) become
      point masses.
    """
    if isinstance(value, EnergyDistribution):
        return value
    if isinstance(value, Energy):
        return PointMass(value.as_joules)
    if isinstance(value, (int, float)):
        return PointMass(float(value))
    raise EvaluationError(
        f"cannot interpret {value!r} as an energy distribution; interfaces must "
        "return Energy, a number of Joules, or an EnergyDistribution")
