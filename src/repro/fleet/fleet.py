"""The fleet: N gateway replicas behind a balancer, one global budget.

:class:`EnergyGatewayFleet` is the subsystem's front door.  It builds
the replicas, the balancer and the per-tenant budget shards from a
:class:`~repro.core.policy.Policy`'s fleet knobs, then drives a
trace of :class:`~repro.workloads.fleettrace.TenantRequest` through one
synchronous dispatch loop:

* the **dispatcher** walks the (lazy) trace in arrival order, asks the
  balancer for a preference order over live replicas, and enqueues to
  the first whose bounded queue has room; when every live queue is full
  it drains the replicas and enqueues to the preferred one —
  bounded-queue backpressure on the client, counted, never silent;
* a replica **drains** its queue oldest first, admitting against its
  budget shard and settling measured energy (see
  :mod:`repro.fleet.replica`);
* the :class:`~repro.fleet.shards.LeaseCoordinator` keeps the tenant
  budgets globally consistent, so the invariant holds fleet-wide.

Replicas drain every ``_DRAIN_EVERY`` offered requests, before a
backpressure enqueue, and once at the end of the trace.  Each time, the
ready replicas drain in the order their queues last filled from empty
(all of them, in index order, at the start); a crash empties a queue but
keeps the replica's place.  Nothing reads a wall clock, so the
interleaving is a pure function of the trace and ``serve()`` at a fixed
seed is bitwise-replayable — the property the S4 benchmark asserts.

Faults (:meth:`EnergyGatewayFleet.inject_faults`) consult the PR-5
:class:`~repro.faults.FaultPlan` at two sites: ``"fleet.replica"``
(every ``crash_check_every`` requests, a live replica may crash — queue
shed, balancer drains it until it restarts) and ``"fleet.lease"`` (a
shard's coordinator round is lost; the shard admits conservatively from
whatever lease remains).
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from repro.core.errors import BudgetError, ServingError
from repro.core.mcengine import DEFAULT_ENTROPY
from repro.core.policy import Policy
from repro.faults.plan import FaultPlan
from repro.fleet.balancer import build_balancer
from repro.fleet.costmodel import CostModel, WorkCostModel
from repro.fleet.replica import FleetReplica, LatencyHistogram
from repro.fleet.report import FleetReport
from repro.fleet.shards import BudgetShard, LeaseCoordinator
from repro.serving.budget import BudgetSpec, parse_budget_spec
from repro.workloads.fleettrace import TenantRequest

__all__ = ["EnergyGatewayFleet", "DEFAULT_REPLICAS", "DEFAULT_BALANCER",
           "DEFAULT_LEASE_TTL_S"]

DEFAULT_REPLICAS = 4
DEFAULT_BALANCER = "least-energy"
DEFAULT_LEASE_TTL_S = 5.0

#: Spawn-key tag for the balancer's sampling stream (distinct from the
#: Monte Carlo 0xC0/0x0D and fault 0xFA families).
_BALANCER_TAG = 0xB7

#: Replicas drain every this many offered requests, so queue draining
#: interleaves with arrivals instead of running in one burst.  The value
#: fixes the interleaving that the committed report digests pin; the
#: asyncio reference in ``tests/fleet`` yields at the same cadence.
_DRAIN_EVERY = 64


def _drain(ready: dict[FleetReplica, None]) -> None:
    """Drain every ready replica, in ready order; none stays ready."""
    for replica in ready:
        replica.drain()
    ready.clear()


class EnergyGatewayFleet:
    """N energy-aware gateway replicas serving one multi-tenant trace."""

    def __init__(self, budgets: dict[str, BudgetSpec | str],
                 policy: Policy | None = None,
                 cost_model: CostModel | None = None,
                 entropy: int | None = None,
                 power_watts: float = 50.0,
                 queue_limit: int = 256,
                 lease_chunk_j: float | None = None,
                 crash_check_every: int = 1024,
                 crash_downtime_s: float = 5.0) -> None:
        if not budgets:
            raise BudgetError("a fleet needs at least one tenant budget")
        if queue_limit < 1:
            raise ServingError(f"queue_limit must be >= 1, got {queue_limit}")
        if crash_check_every < 1:
            raise ServingError(
                f"crash_check_every must be >= 1, got {crash_check_every}")
        if not (math.isfinite(power_watts) and power_watts > 0):
            raise ServingError(
                f"power_watts must be finite and positive, got {power_watts}")
        if not (math.isfinite(crash_downtime_s) and crash_downtime_s >= 0):
            raise ServingError(f"crash_downtime_s must be finite and >= 0, "
                               f"got {crash_downtime_s}")
        policy = policy if policy is not None else Policy()
        self.policy = policy
        self.n_replicas = policy.replicas or DEFAULT_REPLICAS
        self.balancer_name = policy.balancer or DEFAULT_BALANCER
        self.lease_ttl_s = policy.lease_ttl_s or DEFAULT_LEASE_TTL_S
        self.entropy = int(DEFAULT_ENTROPY if entropy is None else entropy)
        self.cost_model = cost_model or WorkCostModel()
        self.crash_check_every = int(crash_check_every)
        self.crash_downtime_s = float(crash_downtime_s)
        self._plan: FaultPlan | None = None
        self._lease_faults = 0

        specs = {tenant: (parse_budget_spec(spec) if isinstance(spec, str)
                          else spec)
                 for tenant, spec in budgets.items()}
        #: Tenant index ``i`` in a trace maps to the ``i``-th configured
        #: tenant, in the order the budgets dict was given.
        self.tenant_names: tuple[str, ...] = tuple(specs)
        self.coordinator = LeaseCoordinator(specs)

        rng = np.random.default_rng(
            np.random.SeedSequence(self.entropy, spawn_key=(_BALANCER_TAG,)))
        self.balancer = build_balancer(self.balancer_name, rng)

        self.replicas: list[FleetReplica] = []
        for index in range(self.n_replicas):
            shards = {}
            for tenant, spec in specs.items():
                chunk = lease_chunk_j if lease_chunk_j is not None else (
                    (spec.capacity_joules
                     + spec.refill_watts * self.lease_ttl_s)
                    / (4.0 * self.n_replicas))
                shards[tenant] = BudgetShard(
                    tenant, self.coordinator, chunk, self.lease_ttl_s)
            guard = None
            if policy.calibration_tolerance is not None:
                # Lazy import: repro.calibration pulls in the hardware
                # stack, which the fleet otherwise never needs.
                from repro.calibration.guard import CalibrationGuard
                guard = CalibrationGuard(
                    policy.calibration_tolerance,
                    min_observations=policy.calibration_min_observations)
            self.replicas.append(FleetReplica(
                index, self.cost_model, shards,
                power_watts=power_watts, queue_limit=queue_limit,
                lease_gate=self._lease_gate,
                calibration_guard=guard,
                calibration_action=policy.calibration_action,
                calibration_widen_factor=policy.calibration_widen_factor))

    # -- fault wiring --------------------------------------------------------
    def inject_faults(self, plan: FaultPlan | None) -> None:
        """Install (or clear) the fault plan consulted while serving."""
        self._plan = plan

    def _lease_gate(self) -> bool:
        if self._plan is None:
            return True
        if self._plan.decide("fleet.lease") is not None:
            self._lease_faults += 1
            return False
        return True

    def _maybe_crash(self, now: float) -> None:
        if self._plan is None:
            return
        for replica in self.replicas:
            if not replica.accepting(now):
                continue
            if self._plan.decide("fleet.replica") is not None:
                replica.crash(now, self.crash_downtime_s)

    # -- serving -------------------------------------------------------------
    def serve(self, requests: Iterable[TenantRequest],
              horizon_s: float | None = None) -> FleetReport:
        """Run the trace through the fleet; returns the roll-up report."""
        # Replicas with work to drain, in the order their queues last
        # filled from empty: assigning an existing key keeps its place.
        ready = dict.fromkeys(self.replicas)
        offered = 0
        shed_no_replica = 0
        backpressure_waits = 0
        dispatch_counts = [0] * self.n_replicas
        last_now = 0.0
        n_tenants = len(self.tenant_names)
        for request in requests:
            offered += 1
            now = request.arrival_s
            last_now = max(last_now, now)
            if offered % self.crash_check_every == 0:
                self._maybe_crash(now)
            if request.tenant >= n_tenants:
                raise BudgetError(
                    f"request tenant index {request.tenant} has no "
                    f"configured budget ({n_tenants} tenants)")
            tenant = self.tenant_names[request.tenant]
            expected, worst = self.cost_model.predict(request)
            prefs = self.balancer.prefer(self.replicas, now)
            if not prefs:
                shed_no_replica += 1
                continue
            target = None
            for replica in prefs:
                if replica.try_enqueue(request, tenant, expected, worst):
                    target = replica
                    break
            if target is None:
                backpressure_waits += 1
                _drain(ready)
                target = prefs[0]
                target.try_enqueue(request, tenant, expected, worst)
            ready[target] = None
            dispatch_counts[target.index] += 1
            if offered % _DRAIN_EVERY == 0:
                _drain(ready)
        _drain(ready)
        horizon = float(horizon_s) if horizon_s is not None else last_now
        settle_now = max(horizon, last_now)
        for replica in self.replicas:
            replica.flush(settle_now)
        return self._report(horizon, offered, shed_no_replica,
                            backpressure_waits, tuple(dispatch_counts),
                            settle_now)

    # -- roll-up -------------------------------------------------------------
    def _report(self, horizon: float, offered: int, shed_no_replica: int,
                backpressure_waits: int, dispatch_counts: tuple[int, ...],
                settle_now: float) -> FleetReport:
        latency = LatencyHistogram()
        for replica in self.replicas:
            latency.merge(replica.latency)
        allowance = sum(self.coordinator.allowance(tenant, settle_now)
                        for tenant in self.tenant_names)
        return FleetReport(
            horizon_s=horizon,
            n_replicas=self.n_replicas,
            balancer=self.balancer_name,
            offered=offered,
            admitted=sum(r.admitted for r in self.replicas),
            rejected=sum(r.rejected_budget for r in self.replicas),
            shed_crash=sum(r.shed_crash for r in self.replicas),
            shed_no_replica=shed_no_replica,
            backpressure_waits=backpressure_waits,
            measured_joules=sum(r.measured_j for r in self.replicas),
            predicted_joules=sum(r.predicted_expected_j
                                 for r in self.replicas),
            allowance_joules=allowance,
            p50_latency_s=latency.percentile(50.0),
            p99_latency_s=latency.percentile(99.0),
            violations=self.coordinator.violations(settle_now),
            dispatch_counts=dispatch_counts,
            replica_crashes=sum(r.crashes for r in self.replicas),
            lease_renewal_faults=self._lease_faults,
            calibration_stale=sum(r.calibration_stale
                                  for r in self.replicas),
            calibration_rejected=sum(r.calibration_rejected
                                     for r in self.replicas),
            lease_stats=self.coordinator.stats(),
            replica_reports=tuple(r.report(horizon) for r in self.replicas),
        )

    def __repr__(self) -> str:
        return (f"EnergyGatewayFleet(replicas={self.n_replicas}, "
                f"balancer={self.balancer_name!r}, "
                f"tenants={len(self.tenant_names)})")
