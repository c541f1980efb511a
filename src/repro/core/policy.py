"""Declarative evaluation/serving policy: one object, every knob.

One canonical ``evaluate()`` answers every energy query; this module
holds every knob that shapes the answer.  A :class:`Policy` carries the
Monte Carlo settings (``mc_engine``, ``n_samples``, ``max_traces``), the
prediction backend, the admission quantile, the resilience settings
(retry, deadline, degradation), the fleet settings and the calibration
guard, declaratively.  It is accepted by ``EvalSession(policy=...)``,
``GatewayConfig(policy=...)`` and the fleet.

The resilience sub-policies are consumed by
:class:`repro.faults.ResilientEvaluator`:

* :class:`RetryPolicy` — capped exponential backoff with deterministic
  jitter.  Backoff time is *simulated* (charged against the deadline and
  reported, never slept), so retried evaluations stay bit-reproducible.
* :class:`DeadlinePolicy` — a per-request evaluation timeout over the
  simulated latency account (injected latency + backoff).
* :class:`DegradePolicy` — the fallback ladder: cached estimate →
  closed-form/worst-mode bound → reject with a typed error.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.errors import ServingError

__all__ = [
    "RetryPolicy",
    "DeadlinePolicy",
    "DegradePolicy",
    "Policy",
]

#: Valid rungs of the degradation ladder, in their canonical order.
DEGRADE_TIERS = ("cache", "bound", "reject")


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff with deterministic jitter.

    ``backoff_s(attempt, unit)`` returns the simulated wait before retry
    ``attempt`` (1-based); ``unit`` is a caller-supplied uniform draw in
    ``[0, 1)`` — the resilient evaluator derives it from the fault
    plan's seed so replays back off identically.
    """

    max_attempts: int = 3          # total tries, including the first
    base_delay_s: float = 0.01     # backoff after the first failure
    max_delay_s: float = 1.0       # cap on any single backoff
    jitter: float = 0.5            # +/- fraction of the backoff randomised

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ServingError(
                f"max_attempts must be >= 1, got {self.max_attempts}")
        if not 0.0 <= self.jitter <= 1.0:
            raise ServingError(f"jitter must be in [0, 1], got {self.jitter}")

    def backoff_s(self, attempt: int, unit: float = 0.5) -> float:
        """Simulated backoff before retry ``attempt`` (1-based)."""
        base = min(self.base_delay_s * (2.0 ** (attempt - 1)),
                   self.max_delay_s)
        # unit=0.5 is jitter-neutral: the spread is [-j, +j) * base.
        return base * (1.0 + self.jitter * (2.0 * unit - 1.0))


@dataclass(frozen=True)
class DeadlinePolicy:
    """Per-request evaluation timeout over the simulated latency account."""

    timeout_s: float = 1.0

    def __post_init__(self) -> None:
        if self.timeout_s <= 0:
            raise ServingError(
                f"deadline timeout must be > 0, got {self.timeout_s}")


@dataclass(frozen=True)
class DegradePolicy:
    """The fallback ladder tried, in order, once retries are exhausted.

    Tiers: ``"cache"`` (last known-good / memoized estimate for the same
    query), ``"bound"`` (closed-form worst-mode bound evaluated without
    fault injection), ``"reject"`` (raise the typed error).  A ladder
    without ``"reject"`` implicitly ends with it — the ladder must
    terminate somehow.
    """

    ladder: tuple[str, ...] = DEGRADE_TIERS

    def __post_init__(self) -> None:
        unknown = [tier for tier in self.ladder if tier not in DEGRADE_TIERS]
        if unknown:
            raise ServingError(
                f"unknown degradation tier(s) {unknown}; "
                f"valid tiers are {list(DEGRADE_TIERS)}")


@dataclass(frozen=True)
class Policy:
    """Every evaluation/serving knob, in one declarative object.

    ``None`` means "use the layer's default" — an unset field never
    overrides :class:`~repro.core.session.EvalSession` class defaults,
    so ``Policy()`` is a no-op policy.
    """

    #: Monte Carlo engine for evaluations ("serial"/"vector").
    mc_engine: str | None = None
    #: Prediction backend ("sampled"/"compiled"); None keeps the session
    #: default (sampled — the historical Monte Carlo behavior).
    backend: str | None = None
    #: Admission-time tail quantile (e.g. 0.95); None disables it.
    admission_quantile: float | None = None
    #: Monte Carlo sample budget; None keeps the session default.
    n_samples: int | None = None
    #: Trace-enumeration budget; None keeps the session default.
    max_traces: int | None = None
    #: Resilience: None disables retries (single attempt).
    retry: RetryPolicy | None = None
    #: Resilience: None disables the deadline check.
    deadline: DeadlinePolicy | None = None
    #: Resilience: which fallbacks to try once attempts are exhausted.
    degrade: DegradePolicy = field(default_factory=DegradePolicy)
    #: Fleet: gateway replica count; None keeps the fleet's default.
    replicas: int | None = None
    #: Fleet: balancer name ("round-robin" / "least-energy" /
    #: "power-of-two"); None keeps the fleet's default.
    balancer: str | None = None
    #: Fleet: budget-shard lease time-to-live in simulated seconds;
    #: None keeps the fleet's default.
    lease_ttl_s: float | None = None
    #: Calibration: EWMA residual tolerance before predictions count as
    #: stale; None disables calibration guarding entirely.
    calibration_tolerance: float | None = None
    #: Calibration: what admission does with a stale calibration —
    #: "widen" serves with an inflated worst-case bound, "reject" sheds.
    calibration_action: str = "widen"
    #: Calibration: worst-case bound inflation used by the "widen" action.
    calibration_widen_factor: float = 1.5
    #: Calibration: residual observations required before the guard may
    #: declare staleness (avoids tripping on startup noise).
    calibration_min_observations: int = 8

    def __post_init__(self) -> None:
        if self.admission_quantile is not None \
                and not 0.0 <= self.admission_quantile <= 1.0:
            raise ServingError(
                f"admission_quantile must be in [0, 1], got "
                f"{self.admission_quantile}")
        if self.replicas is not None and self.replicas < 1:
            raise ServingError(
                f"replicas must be >= 1, got {self.replicas}")
        if self.lease_ttl_s is not None and self.lease_ttl_s <= 0:
            raise ServingError(
                f"lease_ttl_s must be positive, got {self.lease_ttl_s}")
        if self.calibration_tolerance is not None \
                and self.calibration_tolerance <= 0:
            raise ServingError(
                f"calibration_tolerance must be positive, got "
                f"{self.calibration_tolerance}")
        if self.calibration_action not in ("widen", "reject"):
            raise ServingError(
                f"calibration_action must be 'widen' or 'reject', got "
                f"{self.calibration_action!r}")
        if self.calibration_widen_factor < 1.0:
            raise ServingError(
                f"calibration_widen_factor must be >= 1, got "
                f"{self.calibration_widen_factor}")
        if self.calibration_min_observations < 1:
            raise ServingError(
                f"calibration_min_observations must be >= 1, got "
                f"{self.calibration_min_observations}")

    @property
    def resilient(self) -> bool:
        """True when any resilience knob is set (retry or deadline)."""
        return self.retry is not None or self.deadline is not None
