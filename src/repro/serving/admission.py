"""Pluggable admission policies: decide before a single Joule is spent.

This is the paper's "ask before you run" made operational: each policy
sees a request's predicted energy — the app's energy interface evaluated
in ``"expected"`` mode (the likely bill) and ``"worst"`` mode (the
guarantee) — together with the state of the energy-budget chain, and
answers one of four ways:

* **admit** — dispatch the request as-is;
* **degrade** — dispatch a cheaper variant the app offered (smaller
  image, shorter generation);
* **defer** — hold the request until the budget refills;
* **reject** — shed it.

Policies are deliberately small and side-effect free: they never draw
tokens themselves (the gateway settles ground-truth ledger energy), so
they can be swapped, composed and unit-tested in isolation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.errors import ServingError
from repro.serving.budget import EnergyBudget

__all__ = [
    "ADMIT", "REJECT", "DEFER", "DEGRADE",
    "AdmissionContext", "AdmissionDecision",
    "AdmissionPolicy", "AdmitAllPolicy", "HardBudgetPolicy",
    "ProbabilisticPolicy", "QuantileBudgetPolicy", "SLOAwarePolicy",
]

ADMIT = "admit"
REJECT = "reject"
DEFER = "defer"
DEGRADE = "degrade"


@dataclass(frozen=True)
class AdmissionContext:
    """Everything a policy may consult for one decision."""

    now: float
    budget: EnergyBudget
    expected_joules: float
    worst_joules: float
    #: q-quantile of the predicted cost distribution, when the gateway's
    #: policy sets ``admission_quantile`` (a tail bound between the mean
    #: and the worst case, estimated by the batched MC engine).
    quantile_joules: float | None = None
    queue_depth: int = 0
    wait_estimate_s: float = 0.0
    deferrals: int = 0
    degraded_expected_joules: float | None = None
    degraded_worst_joules: float | None = None

    def __post_init__(self) -> None:
        # A poisoned prediction must never reach a policy: the gateway's
        # resilient evaluator filters NaN (garbage hardware readings)
        # into typed rejections before building a context.
        for name in ("expected_joules", "worst_joules", "quantile_joules"):
            value = getattr(self, name)
            if value is not None and value != value:
                raise ServingError(
                    f"admission context has NaN {name} — a poisoned "
                    f"prediction leaked past the degradation ladder")

    @property
    def has_degraded(self) -> bool:
        """True when the app offered a cheaper variant."""
        return self.degraded_worst_joules is not None


@dataclass(frozen=True)
class AdmissionDecision:
    """One verdict plus the reason the report will show."""

    action: str
    reason: str = ""

    def __post_init__(self) -> None:
        if self.action not in (ADMIT, REJECT, DEFER, DEGRADE):
            raise ServingError(f"unknown admission action {self.action!r}")


class AdmissionPolicy:
    """Base class; subclasses implement :meth:`decide`."""

    name = "policy"

    def decide(self, ctx: AdmissionContext) -> AdmissionDecision:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class AdmitAllPolicy(AdmissionPolicy):
    """The naive FIFO baseline: every request runs, the budget be damned."""

    name = "admit-all"

    def decide(self, ctx: AdmissionContext) -> AdmissionDecision:
        return AdmissionDecision(ADMIT, "admit-all")


class HardBudgetPolicy(AdmissionPolicy):
    """Admit only when the *worst-case* cost fits the budget chain.

    This is the interface-as-contract reading (§4.1): the guarantee mode
    bounds what the request can possibly cost, so an admitted stream can
    never overdraw by more than one in-flight request.  When the worst
    case does not fit, the policy prefers a degraded variant that does,
    then a bounded defer while the bucket refills, then rejection.
    """

    name = "hard"

    def __init__(self, max_deferrals: int = 4,
                 defer_horizon_s: float = 1.0) -> None:
        self.max_deferrals = max_deferrals
        self.defer_horizon_s = defer_horizon_s

    def decide(self, ctx: AdmissionContext) -> AdmissionDecision:
        if ctx.budget.can_draw(ctx.worst_joules, ctx.now):
            return AdmissionDecision(ADMIT, "worst-case fits budget")
        if (ctx.has_degraded
                and ctx.budget.can_draw(ctx.degraded_worst_joules, ctx.now)):
            return AdmissionDecision(DEGRADE, "degraded worst-case fits")
        wait = ctx.budget.time_until_affordable(ctx.worst_joules, ctx.now)
        if ctx.deferrals < self.max_deferrals and wait <= self.defer_horizon_s:
            return AdmissionDecision(
                DEFER, f"affordable in {wait:.3g} s")
        return AdmissionDecision(REJECT, "budget exhausted")


class ProbabilisticPolicy(AdmissionPolicy):
    """Admit with a probability that falls as the bucket drains.

    Random early shedding: with ``gamma`` > 1 the policy stays permissive
    until the bucket is low, then sheds steeply — the energy analogue of
    RED queue management.  Admission additionally requires the *expected*
    cost to fit (an expectation-level guard, weaker than
    :class:`HardBudgetPolicy`'s guarantee, so overdrafts settle against
    the bucket as deficit).
    """

    name = "probabilistic"

    def __init__(self, rng: np.random.Generator | int | None = None,
                 gamma: float = 2.0) -> None:
        if gamma <= 0:
            raise ServingError(f"gamma must be positive, got {gamma}")
        if not isinstance(rng, np.random.Generator):
            rng = np.random.default_rng(0 if rng is None else rng)
        self._rng = rng
        self.gamma = gamma

    def decide(self, ctx: AdmissionContext) -> AdmissionDecision:
        if not ctx.budget.can_draw(ctx.expected_joules, ctx.now):
            return AdmissionDecision(REJECT, "expected cost does not fit")
        p_admit = ctx.budget.fill_fraction(ctx.now) ** self.gamma
        if self._rng.random() < p_admit:
            return AdmissionDecision(ADMIT, f"p={p_admit:.2f}")
        return AdmissionDecision(REJECT, f"early shed, p={p_admit:.2f}")


class QuantileBudgetPolicy(AdmissionPolicy):
    """Admit when the tail-quantile cost fits the budget chain.

    Sits between :class:`HardBudgetPolicy` (guarantee, often loose) and
    :class:`ProbabilisticPolicy`'s expectation guard: the gateway's
    batched Monte Carlo engine estimates the q-quantile of the cost
    distribution online, and admission requires that tail bound to fit —
    at most a ``1-q`` chance the request overdraws.  Falls back to the
    worst case when the gateway was not configured with
    ``policy.admission_quantile``.
    """

    name = "quantile"

    def __init__(self, max_deferrals: int = 4,
                 defer_horizon_s: float = 1.0) -> None:
        self.max_deferrals = max_deferrals
        self.defer_horizon_s = defer_horizon_s

    def decide(self, ctx: AdmissionContext) -> AdmissionDecision:
        bound = (ctx.quantile_joules if ctx.quantile_joules is not None
                 else ctx.worst_joules)
        if ctx.budget.can_draw(bound, ctx.now):
            return AdmissionDecision(ADMIT, "quantile cost fits budget")
        if (ctx.has_degraded
                and ctx.budget.can_draw(ctx.degraded_worst_joules, ctx.now)):
            return AdmissionDecision(DEGRADE, "degraded worst-case fits")
        wait = ctx.budget.time_until_affordable(bound, ctx.now)
        if ctx.deferrals < self.max_deferrals and wait <= self.defer_horizon_s:
            return AdmissionDecision(DEFER, f"affordable in {wait:.3g} s")
        return AdmissionDecision(REJECT, "budget exhausted")


class SLOAwarePolicy(AdmissionPolicy):
    """Balance the energy budget against a latency SLO.

    Queueing delay already past the SLO means admitting only wastes
    energy on a response nobody waits for — shed instead.  Within the
    SLO, behave like the hard policy, but only defer when the predicted
    budget wait still leaves the request inside its latency target.
    """

    name = "slo"

    def __init__(self, slo_seconds: float,
                 max_deferrals: int = 4) -> None:
        if slo_seconds <= 0:
            raise ServingError(f"the SLO must be positive, got {slo_seconds}")
        self.slo_seconds = slo_seconds
        self.max_deferrals = max_deferrals

    def decide(self, ctx: AdmissionContext) -> AdmissionDecision:
        if ctx.wait_estimate_s > self.slo_seconds:
            return AdmissionDecision(
                REJECT, f"queue wait {ctx.wait_estimate_s:.3g} s > SLO")
        if ctx.budget.can_draw(ctx.worst_joules, ctx.now):
            return AdmissionDecision(ADMIT, "worst-case fits budget")
        if (ctx.has_degraded
                and ctx.budget.can_draw(ctx.degraded_worst_joules, ctx.now)):
            return AdmissionDecision(DEGRADE, "degraded worst-case fits")
        wait = ctx.budget.time_until_affordable(ctx.worst_joules, ctx.now)
        if (ctx.deferrals < self.max_deferrals
                and ctx.wait_estimate_s + wait <= self.slo_seconds):
            return AdmissionDecision(
                DEFER, f"affordable in {wait:.3g} s, inside SLO")
        return AdmissionDecision(REJECT, "budget exhausted within SLO")
