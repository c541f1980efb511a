"""Tests for the fault-injection layer and the unified policy/error API.

The load-bearing contracts:

* **replayable chaos** — the same seed and the same
  :class:`~repro.faults.FaultPlan` produce bitwise-identical values and
  identical degradation decisions under the serial and vectorized
  engines;
* **the resilience pipeline** — retry with capped, seeded-jitter
  backoff; simulated deadlines; the cache → bound → reject ladder;
* **the error taxonomy** — one root, stable unique codes, and
  dual-inheritance shims that keep historical ``except ValueError`` /
  ``except RuntimeError`` handlers working;
* **the policy façade** — one declarative :class:`~repro.core.policy.
  Policy` accepted everywhere, validating its knobs at construction.
"""

import math
import warnings

import pytest

from repro.core.ecv import BernoulliECV, ContinuousECV
from repro.core.errors import (
    ERROR_CODES,
    DeadlineExceeded,
    EventStateError,
    FaultInjected,
    HardwareError,
    IntervalError,
    ReproError,
    ServingError,
    SimTimeError,
)
from repro.core.interface import EnergyInterface, evaluate
from repro.core.policy import (
    DeadlinePolicy,
    DegradePolicy,
    Policy,
    RetryPolicy,
)
from repro.core.session import EvalSession
from repro.core.units import Energy, as_joules
from repro.faults import (
    EvalOutcome,
    FaultHook,
    FaultPlan,
    FaultSpec,
    ResilientEvaluator,
)
from repro.hardware.ledger import EnergyLedger, EnergyRecord
from repro.managers.base import ComponentHealth


class FlakyInterface(EnergyInterface):
    """An ECV-bearing interface for chaos runs (picklable, module level)."""

    def __init__(self):
        super().__init__("flaky")
        self.declare_ecv(BernoulliECV("hit", 0.6))
        self.declare_ecv(ContinuousECV("scale", low=0.5, high=2.0))

    def E_op(self, n):
        hit = self.ecv("hit")
        return Energy((hit * 1.0 + (1 - hit) * 3.0) * n * self.ecv("scale"))


def _outcome_signature(outcome: EvalOutcome):
    joules = None if outcome.value is None else as_joules(outcome.value)
    return (outcome.status, joules, outcome.attempts, outcome.faults,
            outcome.latency_s)


def _chaos_run(engine, *, entropy=99, probability=0.3, rounds=30):
    session = EvalSession(seed=11, engine=engine, n_samples=64)
    FaultHook(FaultPlan.uniform(probability, entropy=entropy)
              ).install(session)
    resilient = ResilientEvaluator(
        session, Policy(retry=RetryPolicy(max_attempts=3),
                        deadline=DeadlinePolicy(timeout_s=0.5)))
    interface = FlakyInterface()
    return [_outcome_signature(resilient.evaluate_call(
        interface("E_op", n % 4 + 1), mode="expected"))
        for n in range(rounds)]


class TestReplayableChaos:
    def test_identical_outcomes_across_engines(self):
        serial = _chaos_run("serial")
        assert serial == _chaos_run("vector")
        statuses = {sig[0] for sig in serial}
        assert "ok" in statuses
        assert statuses - {"ok"}, (
            "the 30% plan never degraded anything — injection is dead")

    def test_plan_replay_and_clone(self):
        plan = FaultPlan.uniform(0.4, entropy=5)
        first = [plan.decide("interface") is not None for _ in range(50)]
        plan.reset()
        second = [plan.decide("interface") is not None for _ in range(50)]
        assert first == second
        cloned = plan.clone()
        assert first == [cloned.decide("interface") is not None
                         for _ in range(50)]
        assert any(first) and not all(first)

    def test_different_entropy_differs(self):
        a = _chaos_run("vector", entropy=1)
        b = _chaos_run("vector", entropy=2)
        assert a != b

    def test_nested_evaluations_do_not_consume_decisions(self):
        # A fault plan consults once per *top-level* evaluation, so the
        # visit count is engine-independent even though the serial
        # engine re-enters the body per sample.
        counts = {}
        for engine in ("serial", "vector"):
            session = EvalSession(seed=3, engine=engine, n_samples=32)
            hook = FaultHook(FaultPlan.uniform(0.0, entropy=1)
                             ).install(session)
            evaluate(FlakyInterface()("E_op", 2), session=session,
                     mode="expected")
            counts[engine] = dict(hook.plan.visits)
        assert counts["serial"] == counts["vector"]


class TestResiliencePipeline:
    def _evaluator(self, specs, policy=None, entropy=7):
        session = EvalSession(seed=1, engine="vector", n_samples=32)
        hook = FaultHook(FaultPlan(specs, entropy=entropy)).install(session)
        resilient = ResilientEvaluator(
            session,
            policy if policy is not None
            else Policy(retry=RetryPolicy(max_attempts=3),
                        deadline=DeadlinePolicy(timeout_s=0.5)))
        return resilient, hook

    def test_certain_fault_degrades_to_bound(self):
        resilient, _ = self._evaluator([FaultSpec("interface", 1.0)])
        outcome = resilient.evaluate_call(FlakyInterface()("E_op", 2),
                                          mode="expected")
        assert outcome.status == "degraded-bound"
        assert outcome.attempts == 3
        assert "fault-injected" in outcome.faults
        # The bound is the suspended worst-mode evaluation: pessimistic
        # (>= the clean expected value) but finite and usable.
        assert math.isfinite(as_joules(outcome.value))

    def test_cache_tier_answers_after_one_success(self):
        resilient, hook = self._evaluator([FaultSpec("interface", 1.0)])
        interface = FlakyInterface()
        with hook.suspended():
            clean = resilient.evaluate_call(interface("E_op", 2),
                                            mode="expected")
        assert clean.ok
        faulty = resilient.evaluate_call(interface("E_op", 2),
                                         mode="expected")
        assert faulty.status == "degraded-cache"
        assert as_joules(faulty.value) == as_joules(clean.value)

    def test_reject_when_ladder_is_empty(self):
        resilient, _ = self._evaluator(
            [FaultSpec("interface", 1.0)],
            policy=Policy(retry=RetryPolicy(max_attempts=2),
                          degrade=DegradePolicy(ladder=("reject",))))
        outcome = resilient.evaluate_call(FlakyInterface()("E_op", 2),
                                          mode="expected")
        assert outcome.status == "rejected"
        assert not outcome.accepted
        assert isinstance(outcome.error, FaultInjected)
        with pytest.raises(FaultInjected):
            outcome.raise_for_status()

    def test_latency_faults_trip_the_deadline(self):
        resilient, _ = self._evaluator(
            [FaultSpec("latency", 1.0, latency_s=2.0)])
        outcome = resilient.evaluate_call(FlakyInterface()("E_op", 2),
                                          mode="expected")
        assert "deadline-exceeded" in outcome.faults
        assert outcome.latency_s > 0.5
        assert outcome.status == "degraded-bound"

    def test_nan_hardware_reading_is_never_served(self):
        resilient, _ = self._evaluator(
            [FaultSpec("hardware", 1.0, kind="nan")])
        outcome = resilient.evaluate_call(FlakyInterface()("E_op", 2),
                                          mode="expected")
        assert outcome.status != "ok"
        if outcome.value is not None:
            assert not math.isnan(as_joules(outcome.value))

    def test_backoff_is_capped_and_jittered(self):
        retry = RetryPolicy(base_delay_s=0.01, max_delay_s=0.05,
                            jitter=0.5)
        assert retry.backoff_s(1, unit=0.5) == pytest.approx(0.01)
        assert retry.backoff_s(2, unit=0.5) == pytest.approx(0.02)
        assert retry.backoff_s(10, unit=0.5) == pytest.approx(0.05)
        assert retry.backoff_s(1, unit=1.0) == pytest.approx(0.015)
        assert retry.backoff_s(1, unit=0.0) == pytest.approx(0.005)

    def test_deadline_error_carries_budget(self):
        exc = DeadlineExceeded("late", deadline_s=0.5, elapsed_s=0.7)
        assert exc.deadline_s == 0.5
        assert exc.elapsed_s == 0.7
        assert exc.code == "deadline-exceeded"


class TestErrorTaxonomy:
    def test_codes_are_unique_and_stable(self):
        assert len(ERROR_CODES) == len(set(ERROR_CODES))
        for code in ("fault-injected", "deadline-exceeded",
                     "budget-exceeded", "serving", "hardware"):
            assert code in ERROR_CODES

    def test_every_error_is_a_repro_error(self):
        for cls in ERROR_CODES.values():
            assert issubclass(cls, ReproError)

    def test_dual_inheritance_shims(self):
        # Historical handlers caught builtins; the typed hierarchy must
        # still land in those except blocks.
        assert issubclass(SimTimeError, ValueError)
        assert issubclass(IntervalError, ValueError)
        assert issubclass(EventStateError, RuntimeError)
        assert issubclass(SimTimeError, ReproError)

    def test_to_dict_round_trip(self):
        exc = FaultInjected("boom", site="ecv")
        payload = exc.to_dict()
        assert payload["code"] == "fault-injected"
        assert payload["message"] == "boom"


class TestPolicyFacade:
    def test_session_accepts_policy(self):
        session = EvalSession(policy=Policy(mc_engine="serial",
                                            n_samples=64))
        assert session.engine.name == "serial"
        assert session.n_samples == 64

    def test_gateway_config_policy_spelling_is_silent(self):
        from repro.serving.gateway import EnergyAwareGateway, GatewayConfig
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            config = GatewayConfig(policy=Policy(mc_engine="serial",
                                                 admission_quantile=0.9))
        assert config.policy.mc_engine == "serial"
        assert config.policy.admission_quantile == 0.9
        assert GatewayConfig().policy == Policy()
        # An unset engine serves on the vector engine.
        from repro.serving import (EnergyBudget, HardBudgetPolicy,
                                   KVStoreAdapter)
        gateway = EnergyAwareGateway(
            KVStoreAdapter(), EnergyBudget("b", capacity_joules=1.0),
            HardBudgetPolicy(), config=GatewayConfig())
        assert gateway.session.engine.name == "vector"

    def test_degrade_policy_validates_tiers(self):
        with pytest.raises(ServingError):
            DegradePolicy(ladder=("cache", "teleport"))

    @pytest.mark.parametrize("q", [-0.01, 1.5, float("nan")])
    def test_admission_quantile_must_be_a_probability(self, q):
        # EnergyDistribution.quantile accepts [0, 1]; a level outside it
        # is rejected when the policy is built, not mid-run.
        with pytest.raises(ServingError, match="admission_quantile"):
            Policy(admission_quantile=q)

    def test_admission_quantile_bounds_are_inclusive(self):
        assert Policy(admission_quantile=0.0).admission_quantile == 0.0
        assert Policy(admission_quantile=1.0).admission_quantile == 1.0


class TestComponentHealth:
    def test_breaker_opens_probates_and_half_opens(self):
        health = ComponentHealth(threshold=2, probation=2)
        health.mark_failure("n0")
        assert not health.quarantined("n0")
        health.mark_failure("n0")
        assert health.quarantined("n0")      # probation check 1
        assert health.quarantined("n0")      # probation check 2
        assert not health.quarantined("n0")  # half-open trial
        assert health.quarantined("n0")      # trial unused: re-armed
        health.mark_success("n0")
        assert not health.quarantined("n0")

    def test_healthy_never_empties_the_pool(self):
        health = ComponentHealth(threshold=1, probation=10)
        health.mark_failure("a")
        health.mark_failure("b")
        assert health.healthy(["a", "b"]) == ["a", "b"]
        health2 = ComponentHealth(threshold=1, probation=10)
        health2.mark_failure("a")
        assert health2.healthy(["a", "b"]) == ["b"]


class TestLedgerQuarantine:
    def test_nan_record_is_rejected(self):
        with pytest.raises(HardwareError):
            EnergyRecord("gpu", "pkg", 0.0, 1.0, float("nan"))
        with pytest.raises(HardwareError):
            EnergyRecord("gpu", "pkg", 0.0, 1.0, float("inf"))

    def test_log_reading_quarantines_garbage(self):
        ledger = EnergyLedger()
        assert ledger.log_reading("gpu", "pkg", 0.0, 1.0,
                                  float("nan")) is None
        assert ledger.log_reading("gpu", "pkg", 1.0, 2.0, -4.0) is None
        assert ledger.log_reading("gpu", "pkg", 2.0, 3.0, 5.0) is not None
        assert ledger.dropped == {"gpu": 2}
        assert ledger.total_joules() == 5.0
