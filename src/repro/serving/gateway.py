"""The energy-aware serving gateway: request lifecycle on the sim engine.

The gateway closes the loop the paper leaves open: energy interfaces
enable *online* decisions, so here a stream of requests (from
:mod:`repro.workloads.arrivals`) flows through admission control before a
single Joule is spent.  For each request the gateway

1. evaluates the app's energy interface in ``"expected"`` and ``"worst"``
   mode (through a :class:`~repro.core.session.MemoHook` cache, keyed on
   the abstract input and the managers' ECV bindings),
2. asks the :class:`~repro.serving.admission.AdmissionPolicy` whether the
   predicted cost fits the hierarchical
   :class:`~repro.serving.budget.EnergyBudget`,
3. dispatches, degrades, defers or sheds accordingly, and
4. settles the *measured* ledger energy (request work plus the static
   power the node burned meanwhile) against the budget — predictions
   gate, ground truth pays.

Two clocks cooperate: the discrete-event engine owns arrivals, queueing
and backpressure; the machine clock owns execution and energy.  The
gateway keeps them aligned — the machine idles (burning static power) up
to each dispatch instant, and the dispatcher holds the simulated server
for exactly the time the hardware took.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator

from repro.core.errors import CalibrationStale, ServingError
from repro.core.policy import Policy
from repro.core.session import EvalSession, MemoHook
from repro.core.units import as_joules
from repro.faults.resilient import ResilientEvaluator
from repro.serving.admission import (
    ADMIT,
    DEFER,
    DEGRADE,
    AdmissionContext,
    AdmissionPolicy,
)
from repro.serving.adapters import ServiceAdapter
from repro.serving.budget import EnergyBudget
from repro.serving.metrics import RequestRecord, ServingMetrics, ServingReport

__all__ = ["GatewayConfig", "EnergyAwareGateway", "zip_arrivals"]


def zip_arrivals(times: list[float], requests: Iterable[Any]
                 ) -> list[tuple[float, Any]]:
    """Pair arrival timestamps with requests (lengths must agree)."""
    requests = list(requests)
    if len(times) != len(requests):
        raise ServingError(
            f"{len(times)} arrival times for {len(requests)} requests")
    return list(zip(times, requests))


@dataclass(frozen=True)
class GatewayConfig:
    """Tunables for the request lifecycle.

    Evaluation knobs live on one declarative
    :class:`~repro.core.policy.Policy` (``policy=``): the Monte Carlo
    engine, the admission quantile and the resilience settings (retry /
    deadline / degradation ladder).
    """

    max_queue: int = 64            # backpressure bound; overflow is shed
    defer_delay_s: float = 0.05    # hold time before a deferred retry
    ewma_alpha: float = 0.2        # service-time estimator smoothing
    #: Every evaluation/serving knob, declaratively (see
    #: :class:`repro.core.policy.Policy`).
    policy: Policy = field(default_factory=Policy)

    def __post_init__(self) -> None:
        if self.max_queue < 1:
            raise ServingError(
                f"max_queue must be >= 1, got {self.max_queue}")


@dataclass
class _QueueItem:
    request: Any
    request_id: int
    arrival_s: float
    deferrals: int = 0
    costs: tuple[float, float] | None = field(default=None, repr=False)


class EnergyAwareGateway:
    """Admission-controlled serving of a request stream under a budget."""

    def __init__(self, adapter: ServiceAdapter, budget: EnergyBudget,
                 policy: AdmissionPolicy,
                 cache: MemoHook | None = None,
                 config: GatewayConfig | None = None) -> None:
        self.adapter = adapter
        self.budget = budget
        self.policy = policy
        self.cache = cache if cache is not None else MemoHook()
        self.config = config if config is not None else GatewayConfig()
        # All gateway predictions run through one session whose hook chain
        # holds the eval cache; extra hooks (a SpanRecorder for
        # per-request call trees, an AccountingHook for budget
        # accounting) can be added via ``gateway.session.add_hook``.
        self.session = EvalSession(hooks=[self.cache],
                                   policy=self.config.policy)
        self.resilient = ResilientEvaluator(self.session, self.config.policy)
        self.metrics = ServingMetrics()
        self._ewma_service_s = 0.0
        self._ledger_mark = 0.0
        self._eval_status: str | None = None
        self._eval_faults: list[str] = []
        # The calibration guard watches served predictions against
        # measured energy; stale predictions are widened or rejected per
        # the policy, never trusted silently.
        self.calibration_guard = None
        if self.config.policy.calibration_tolerance is not None:
            from repro.calibration.guard import CalibrationGuard
            self.calibration_guard = CalibrationGuard(
                self.config.policy.calibration_tolerance,
                min_observations=self.config.policy
                .calibration_min_observations)

    def inject_faults(self, plan) -> Any:
        """Install a :class:`repro.faults.FaultPlan` on the session.

        Returns the installed :class:`repro.faults.FaultHook` so callers
        can read injection statistics after the run; predictions
        automatically switch to the resilient retry/degrade path.
        """
        from repro.faults import FaultHook

        return FaultHook(plan).install(self.session)

    # -- cost evaluation ---------------------------------------------------------
    _STATUS_RANK = {"ok": 0, "degraded-cache": 1, "degraded-bound": 2,
                    "rejected": 3}

    def _resilient_active(self) -> bool:
        """Predictions go through retry/deadline/degrade when either a
        fault plan is installed or the policy asks for resilience; the
        plain path stays byte-for-byte the historical one otherwise."""
        return (self.session.fault_hook is not None
                or self.config.policy.resilient)

    def _note_outcome(self, *outcomes) -> None:
        for outcome in outcomes:
            self._eval_faults.extend(outcome.faults)
            if (self._eval_status is None
                    or self._STATUS_RANK[outcome.status]
                    > self._STATUS_RANK[self._eval_status]):
                self._eval_status = outcome.status

    def _predict(self, request: Any) -> tuple[float, float] | None:
        """(expected, worst) Joules for ``request`` via the session.

        ``None`` means prediction was impossible: every retry failed and
        the degradation ladder declined — the caller sheds the request
        instead of admitting blind.
        """
        call, env, fingerprint = self._cost_query(request)
        if not self._resilient_active():
            backend = self.session.backend
            expected = backend.mean(call, session=self.session, env=env,
                                    fingerprint=fingerprint)
            worst = backend.worst(call, session=self.session, env=env,
                                  fingerprint=fingerprint)
            return expected, worst
        expected_out = self.resilient.evaluate_call(
            call, mode="expected", env=env, fingerprint=fingerprint)
        worst_out = self.resilient.evaluate_call(
            call, mode="worst", env=env, fingerprint=fingerprint)
        self._note_outcome(expected_out, worst_out)
        if not (expected_out.accepted and worst_out.accepted):
            return None
        return (as_joules(expected_out.value),
                as_joules(worst_out.value))

    def _predict_quantile(self, request: Any) -> float | None:
        """q-quantile Joules for ``request`` (None unless configured).

        Runs a distribution-mode evaluation through the session's batched
        Monte Carlo engine; the resulting :class:`EnergyCall` is keyed, so
        repeat requests with the same abstract input hit the eval cache
        and the sampling cost is paid once per distinct input.
        """
        q = self.config.policy.admission_quantile
        if q is None:
            return None
        call, env, fingerprint = self._cost_query(request)
        if self._resilient_active():
            outcome = self.resilient.evaluate_call(
                call, mode="distribution", env=env, fingerprint=fingerprint)
            self._note_outcome(outcome)
            if not outcome.accepted:
                return None  # the quantile refinement is optional
            dist = outcome.value
            if not hasattr(dist, "quantile"):
                # A degraded tier answered with a point bound, not a
                # distribution; use it directly as the tail estimate.
                return float(as_joules(dist))
            return float(dist.quantile(q))
        return self.session.backend.quantile(
            call, q, session=self.session, env=env, fingerprint=fingerprint)

    def _cost_query(self, request: Any):
        method, args = self.adapter.cost_call(request)
        env = self.adapter.current_bindings()
        fingerprint = self.adapter.binding_fingerprint()
        return self.adapter.interface(method, *args), env, fingerprint

    # -- clock/energy bookkeeping ------------------------------------------------
    def _settle(self, engine_now: float) -> None:
        """Advance the machine to the engine clock and charge the ledger
        delta (request work + static idle power) to the budget."""
        machine = self.adapter.machine
        target = engine_now + self._machine_offset
        if target > machine.now:
            machine.advance_to(target)
        total = machine.ledger.total_joules()
        delta = total - self._ledger_mark
        if delta > 0.0:
            self.budget.force_draw(delta, engine_now)
            self._ledger_mark = total

    # -- the run -------------------------------------------------------------------
    def serve(self, arrivals: Iterable[tuple[float, Any]],
              horizon: float | None = None) -> ServingReport:
        """Serve ``(arrival_time, request)`` pairs; returns the report.

        ``horizon`` extends the run past the last completion (the node
        keeps idling and the budget keeps refilling), which makes energy
        comparisons across runs use a common window.
        """
        from repro.sim.engine import Engine

        timed = sorted(arrivals, key=lambda pair: pair[0])
        engine = Engine()
        machine = self.adapter.machine
        self._machine_offset = machine.now
        self._ledger_mark = machine.ledger.total_joules()
        ledger_start = self._ledger_mark
        config = self.config

        queue: deque[_QueueItem] = deque()
        state = {"arrivals_done": False, "outstanding_deferred": 0}
        wake = [engine.event("wake")]

        def notify() -> None:
            if not wake[0].triggered:
                wake[0].succeed()

        def arrival_process() -> Iterator:
            previous = 0.0
            for index, (t, request) in enumerate(timed):
                if t > previous:
                    yield engine.timeout(t - previous)
                    previous = t
                if len(queue) >= config.max_queue:
                    self.metrics.shed_queue_full += 1
                    self.metrics.add(RequestRecord(
                        request_id=index, arrival_s=t, decision="shed",
                        reason="queue full"))
                    continue
                queue.append(_QueueItem(request, index, t))
                notify()
            state["arrivals_done"] = True
            notify()

        def requeue_later(item: _QueueItem) -> Iterator:
            yield engine.timeout(config.defer_delay_s)
            state["outstanding_deferred"] -= 1
            queue.append(item)
            notify()

        def dispatcher() -> Iterator:
            while True:
                if not queue:
                    if (state["arrivals_done"]
                            and state["outstanding_deferred"] == 0):
                        return
                    wake[0] = engine.event("wake")
                    yield wake[0]
                    continue
                item = queue.popleft()
                now = engine.now
                self._settle(now)
                busy = self._decide_and_run(item, now, spawn_defer)
                if busy is not None:
                    yield engine.timeout(busy)

        def spawn_defer(item: _QueueItem) -> None:
            state["outstanding_deferred"] += 1
            engine.process(requeue_later(item), name=f"defer-{item.request_id}")

        self._live_queue = queue
        engine.process(arrival_process(), name="arrivals")
        engine.process(dispatcher(), name="dispatcher")
        engine.run()
        end = engine.now
        if horizon is not None and horizon > end:
            end = engine.run(until=horizon)
        self._settle(end)
        self.metrics.window = (self._machine_offset, machine.now)

        ledger_joules = machine.ledger.total_joules() - ledger_start
        allowance = self.budget.cumulative_allowance(end)
        fault_hook = self.session.fault_hook
        return self.metrics.summary(
            horizon_s=end,
            ledger_joules=ledger_joules,
            allowance_joules=allowance,
            cache_stats=self.cache.stats(),
            mc_engine=self.session.engine.name,
            fault_stats=(fault_hook.stats()
                         if fault_hook is not None else None),
        )

    # -- one decision --------------------------------------------------------------
    def _decide_and_run(self, item: _QueueItem, now: float, spawn_defer):
        """Decide one queued request; returns server-hold seconds or None
        (None when the request did not occupy the server)."""
        self._eval_status = None
        self._eval_faults = []
        predicted = self._predict(item.request)
        if predicted is None:
            # Prediction failed past the whole degradation ladder:
            # admitting blind would void the budget contract, so shed.
            self.metrics.add(RequestRecord(
                request_id=item.request_id,
                arrival_s=item.arrival_s,
                decision="reject",
                reason="evaluation rejected: "
                       + ",".join(sorted(set(self._eval_faults))),
                deferrals=item.deferrals,
                eval_status="rejected",
                eval_faults=tuple(self._eval_faults),
            ))
            return None
        expected, worst = predicted
        stale: CalibrationStale | None = None
        if self.calibration_guard is not None:
            try:
                self.calibration_guard.check()
            except CalibrationStale as err:
                stale = err
        if stale is not None:
            if self.config.policy.calibration_action == "reject":
                self.metrics.add(RequestRecord(
                    request_id=item.request_id,
                    arrival_s=item.arrival_s,
                    decision="reject",
                    reason=f"calibration stale: residual "
                           f"{stale.residual:.3f} > {stale.tolerance:.3f}",
                    predicted_expected_j=expected,
                    predicted_worst_j=worst,
                    deferrals=item.deferrals,
                    eval_status=self._eval_status,
                    eval_faults=tuple(self._eval_faults),
                    calibration_stale=True,
                ))
                return None
            # "widen": keep serving, but admission must cover the drifted
            # hardware — inflate the worst-case bound.
            worst *= self.config.policy.calibration_widen_factor
        quantile = self._predict_quantile(item.request)
        item.costs = (expected, worst)
        degraded_request = self.adapter.degrade(item.request)
        degraded_costs: tuple[float, float] | None = None
        if degraded_request is not None:
            degraded_costs = self._predict(degraded_request)
            if degraded_costs is not None and stale is not None:
                degraded_costs = (
                    degraded_costs[0],
                    degraded_costs[1]
                    * self.config.policy.calibration_widen_factor)

        ctx = AdmissionContext(
            now=now,
            budget=self.budget,
            expected_joules=expected,
            worst_joules=worst,
            quantile_joules=quantile,
            queue_depth=len(self._queue_view()),
            wait_estimate_s=self._wait_estimate(),
            deferrals=item.deferrals,
            degraded_expected_joules=(degraded_costs[0]
                                      if degraded_costs else None),
            degraded_worst_joules=(degraded_costs[1]
                                   if degraded_costs else None),
        )
        decision = self.policy.decide(ctx)

        if decision.action == DEFER:
            item.deferrals += 1
            self.metrics.deferred_total += 1
            spawn_defer(item)
            return None

        if decision.action in (ADMIT, DEGRADE):
            request = item.request
            predicted = (expected, worst)
            degraded = False
            if decision.action == DEGRADE:
                if degraded_request is None:
                    raise ServingError(
                        f"policy {self.policy.name!r} degraded a request "
                        f"with no degraded variant")
                if degraded_costs is None:
                    # The degraded variant's own prediction was rejected
                    # by the fault ladder: admitting it blind is worse
                    # than shedding.
                    self.metrics.add(RequestRecord(
                        request_id=item.request_id,
                        arrival_s=item.arrival_s,
                        decision="reject",
                        reason="degraded variant unpredictable",
                        deferrals=item.deferrals,
                        eval_status="rejected",
                        eval_faults=tuple(self._eval_faults),
                    ))
                    return None
                request = degraded_request
                predicted = degraded_costs
                degraded = True
            machine = self.adapter.machine
            t0_machine = machine.now
            joules_before = machine.ledger.total_joules()
            self.adapter.execute(request)
            busy = machine.now - t0_machine
            measured = machine.ledger.total_joules() - joules_before
            self._settle(now)  # charges `measured` to the budget
            if self.calibration_guard is not None:
                self.calibration_guard.observe(predicted[0], measured)
            self._ewma_service_s = (
                busy if self._ewma_service_s == 0.0
                else (self.config.ewma_alpha * busy
                      + (1 - self.config.ewma_alpha) * self._ewma_service_s))
            self.metrics.add(RequestRecord(
                request_id=item.request_id,
                arrival_s=item.arrival_s,
                decision=decision.action,
                reason=decision.reason,
                start_s=now,
                finish_s=now + busy,
                machine_start_s=t0_machine,
                machine_finish_s=machine.now,
                predicted_expected_j=predicted[0],
                predicted_worst_j=predicted[1],
                predicted_quantile_j=quantile,
                measured_j=measured,
                deferrals=item.deferrals,
                degraded=degraded,
                eval_status=self._eval_status,
                eval_faults=tuple(self._eval_faults),
                calibration_stale=stale is not None,
            ))
            return busy

        # REJECT
        self.metrics.add(RequestRecord(
            request_id=item.request_id,
            arrival_s=item.arrival_s,
            decision="reject",
            reason=decision.reason,
            predicted_expected_j=expected,
            predicted_worst_j=worst,
            deferrals=item.deferrals,
            eval_status=self._eval_status,
            eval_faults=tuple(self._eval_faults),
            calibration_stale=stale is not None,
        ))
        return None

    # -- small helpers ----------------------------------------------------------
    def _wait_estimate(self) -> float:
        """Predicted queueing delay from the service-time EWMA."""
        return len(self._queue_view()) * self._ewma_service_s

    def _queue_view(self):
        # The dispatcher closes over its own deque; expose the live one.
        return getattr(self, "_live_queue", ())

    def __repr__(self) -> str:
        return (f"EnergyAwareGateway(adapter={self.adapter.name!r}, "
                f"policy={self.policy.name!r}, budget={self.budget.name!r})")
