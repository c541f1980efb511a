"""Fault injection and graceful degradation for the evaluation stack.

The paper's interfaces must stay valid *for all inputs* — including the
inputs where the underlying resource misbehaves: radio retries, cache
misses and thermal throttling are all ECVs in §3, and a serving stack
built on "asking is free" falls over the moment asking starts failing.
This package makes failure a first-class, replayable input:

* :class:`FaultPlan` / :class:`FaultSpec` — a seeded, declarative plan
  of *which* named sites fail *how often*.  Decisions follow the same
  ``SeedSequence`` spawn-key discipline as :mod:`repro.core.mcengine`,
  so a plan replays bit-for-bit: same seed, same faults, any engine.
* :class:`FaultHook` — an :class:`~repro.core.session.EvalHook` that
  injects the plan's failures at keyed-evaluation boundaries (interface
  exceptions, ECV sampling errors, hardware NaN readings, simulated
  latency).
* :class:`ResilientEvaluator` / :class:`EvalOutcome` — the consumption
  side: retries with capped exponential backoff
  (:class:`~repro.core.policy.RetryPolicy`), per-request deadlines
  (:class:`~repro.core.policy.DeadlinePolicy`) and the degradation
  ladder (:class:`~repro.core.policy.DegradePolicy`): cached estimate →
  closed-form/worst-mode bound → typed rejection.
"""

from repro.faults.hook import FaultHook
from repro.faults.plan import FAULT_SITES, FaultPlan, FaultSpec
from repro.faults.resilient import EvalOutcome, ResilientEvaluator

__all__ = [
    "FaultSpec",
    "FaultPlan",
    "FAULT_SITES",
    "FaultHook",
    "EvalOutcome",
    "ResilientEvaluator",
]
