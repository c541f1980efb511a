"""Analytic output distributions for affine compiled paths.

An affine path — ``const + Σ coef·leaf`` over independent ECV draws — has
closed-form moments and bounds: means and variances propagate exactly
under independence (each ``(qualified, occurrence)`` leaf is one
independent column draw, and :func:`~repro.analysis.intervals.linearize`
has already merged repeated reads of the same leaf into one coefficient).
:class:`AnalyticDistribution` is the distribution-algebra citizen for
such a form.

The existing algebra cannot express it: :class:`~repro.core.distributions.Scaled`
rejects negative factors (physical energies are non-negative), but an
affine *term* legitimately carries a negative coefficient
(``(1 - hit) * miss_cost`` linearizes to ``miss_cost - miss_cost·hit``)
as long as the whole form stays non-negative.

:func:`leaf_distribution` maps an ECV's marginal law onto the exact
distribution types; :func:`leaf_interval` gives the proven value box the
lint layer's interval domain would use — analytic results are checked
against the :func:`~repro.analysis.intervals.bound_expr` bounds computed
over exactly these boxes.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.expr import ECVLeaf
from repro.analysis.intervals import Interval, _mul
from repro.core.distributions import (
    Discrete,
    EnergyDistribution,
    PointMass,
    Uniform,
)
from repro.core.ecv import (
    ECV,
    BernoulliECV,
    CategoricalECV,
    ContinuousECV,
    FixedECV,
    UniformIntECV,
)

__all__ = ["AnalyticDistribution", "leaf_distribution", "leaf_interval"]


def _is_number(value: object) -> bool:
    return isinstance(value, (bool, int, float, np.number))


def leaf_distribution(ecv: ECV) -> EnergyDistribution | None:
    """The exact marginal distribution of one ECV draw, if expressible.

    Booleans coerce to 0/1 exactly as numpy arithmetic coerces the
    engine's boolean sample columns.  ``None`` means the marginal has no
    closed form here (a custom-sampler continuous ECV, non-numeric
    categories): the caller must drop to the kernel tier.
    """
    if isinstance(ecv, FixedECV):
        return PointMass(float(ecv.value)) if _is_number(ecv.value) else None
    if isinstance(ecv, BernoulliECV):
        support = ecv.support()
        if len(support) == 1:
            return PointMass(float(support[0][0]))
        return Discrete([float(v) for v, _ in support],
                        [p for _, p in support])
    if isinstance(ecv, (CategoricalECV, UniformIntECV)):
        support = ecv.support()
        if not all(_is_number(value) for value, _ in support):
            return None
        if len(support) == 1:
            return PointMass(float(support[0][0]))
        return Discrete([float(v) for v, _ in support],
                        [p for _, p in support])
    if isinstance(ecv, ContinuousECV):
        if ecv._sampler is not None:
            # Custom samplers promise only a scalar draw protocol; their
            # law is opaque, so no analytic marginal.
            return None
        if ecv.low == ecv.high:
            return PointMass(ecv.low)
        return Uniform(ecv.low, ecv.high)
    return None


def leaf_interval(ecv: ECV) -> Interval | None:
    """The proven value box of one ECV draw (the lint layer's domain)."""
    if isinstance(ecv, ContinuousECV):
        return Interval(ecv.low, ecv.high)
    if isinstance(ecv, UniformIntECV):
        # Its support lists every integer in between.
        return Interval(float(ecv.low), float(ecv.high))
    support = ecv.support()
    if support is None:
        return None
    values = [value for value, _ in support]
    if not all(_is_number(value) for value in values):
        return None
    values = [float(value) for value in values]
    return Interval(min(values), max(values))


class AnalyticDistribution(EnergyDistribution):
    """``const + Σ coef·leaf`` over independent ECV leaf draws.

    Moments are closed-form (independence across distinct
    ``(qualified, occurrence)`` leaves); bounds are the affine form's
    exact extrema over the leaf boxes, with the interval domain's
    ``0·inf = 0`` convention.  Sampling draws each leaf's marginal
    independently — used only by the inherited Monte-Carlo
    :meth:`~repro.core.distributions.EnergyDistribution.quantile`
    approximation and by consumers that explicitly ask for samples.
    """

    def __init__(self, const: float,
                 terms: list[tuple[float, ECVLeaf, EnergyDistribution]]
                 ) -> None:
        self._const = float(const)
        self._terms = [(float(coef), leaf, dist)
                       for coef, leaf, dist in terms if coef != 0.0]

    @property
    def terms(self) -> list[tuple[float, ECVLeaf, EnergyDistribution]]:
        """``(coefficient, leaf, marginal)`` triples (zero terms pruned)."""
        return list(self._terms)

    @property
    def const(self) -> float:
        return self._const

    def mean(self) -> float:
        return self._const + sum(coef * dist.mean()
                                 for coef, _, dist in self._terms)

    def variance(self) -> float:
        return sum(coef ** 2 * dist.variance()
                   for coef, _, dist in self._terms)

    def lower_bound(self) -> float:
        lo = self._const
        for coef, _, dist in self._terms:
            lo += min(_mul(coef, dist.lower_bound()),
                      _mul(coef, dist.upper_bound()))
        return lo

    def upper_bound(self) -> float:
        hi = self._const
        for coef, _, dist in self._terms:
            hi += max(_mul(coef, dist.lower_bound()),
                      _mul(coef, dist.upper_bound()))
        return hi

    def sample(self, rng: np.random.Generator, n: int = 1) -> np.ndarray:
        total = np.full(n, self._const)
        for coef, _, dist in self._terms:
            total += coef * dist.sample(rng, n)
        return total

    def __repr__(self) -> str:
        return (f"AnalyticDistribution(mean={self.mean():.6g} J, "
                f"std={self.std():.6g} J, terms={len(self._terms)})")
