"""One gateway replica: a bounded queue, budget shards and counters.

A :class:`FleetReplica` is the fleet's unit of scale — the single-node
:class:`~repro.serving.gateway.EnergyAwareGateway` re-shaped for a
million-request pipeline:

* requests arrive through a **bounded** :class:`collections.deque`; the
  dispatcher's ``try_enqueue`` fails fast when it is full so the
  balancer can fall back to another replica;
* :meth:`FleetReplica.drain` processes the queue oldest first: hard
  admission against the tenant's :class:`~repro.fleet.shards.BudgetShard`
  (the request's *worst-case* joules must fit the live lease), then the
  cost model's measured energy settles the draw — so a replica can never
  spend a joule its lease did not cover.  The fleet's dispatch loop
  decides when each replica drains (see :mod:`repro.fleet.fleet`);
* all bookkeeping is **counters and a log-binned latency histogram**,
  never per-request records: memory stays O(1) in the request count.

Time is virtual throughout.  A replica carries a busy clock
(``_free_at``): request service time is ``measured_j / power_watts``,
latency is queue wait plus service, and no wall-clock is ever read — two
runs at the same seed replay bitwise.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Callable

from repro.core.errors import CalibrationStale
from repro.fleet.costmodel import CostModel
from repro.fleet.shards import BudgetShard
from repro.serving.metrics import ServingReport
from repro.workloads.fleettrace import TenantRequest

__all__ = ["LatencyHistogram", "FleetReplica"]


class LatencyHistogram:
    """Log-binned latency counts: percentiles without storing samples.

    Bins span ``[1e-6, 1e4)`` seconds at ``bins_per_decade`` resolution
    (under/overflow clamp to the edge bins), so a million observations
    cost a few hundred ints and the p50/p99 read-out is deterministic —
    the quantile is the geometric midpoint of the bin holding it.
    """

    LO_EXP = -6.0
    HI_EXP = 4.0

    def __init__(self, bins_per_decade: int = 20) -> None:
        self.bins_per_decade = int(bins_per_decade)
        self._n_bins = int((self.HI_EXP - self.LO_EXP) * bins_per_decade)
        self._counts = [0] * self._n_bins
        self.n = 0

    def _bin(self, seconds: float) -> int:
        if seconds <= 10.0 ** self.LO_EXP:
            return 0
        idx = int((math.log10(seconds) - self.LO_EXP) * self.bins_per_decade)
        return min(max(idx, 0), self._n_bins - 1)

    def add(self, seconds: float) -> None:
        self._counts[self._bin(seconds)] += 1
        self.n += 1

    def merge(self, other: "LatencyHistogram") -> None:
        if other.bins_per_decade != self.bins_per_decade:
            raise ValueError("cannot merge histograms of differing resolution")
        for i, c in enumerate(other._counts):
            self._counts[i] += c
        self.n += other.n

    def percentile(self, pct: float) -> float | None:
        """The ``pct``-th percentile in seconds (None when empty)."""
        if self.n == 0:
            return None
        target = pct / 100.0 * self.n
        seen = 0
        for i, count in enumerate(self._counts):
            seen += count
            if seen >= target and count > 0:
                centre = self.LO_EXP + (i + 0.5) / self.bins_per_decade
                return 10.0 ** centre
        return 10.0 ** self.HI_EXP


class FleetReplica:
    """One gateway replica with sharded budget admission."""

    def __init__(self, index: int, cost_model: CostModel,
                 shards: dict[str, BudgetShard],
                 power_watts: float = 50.0,
                 queue_limit: int = 256,
                 lease_gate: Callable[[], bool] | None = None,
                 calibration_guard=None,
                 calibration_action: str = "widen",
                 calibration_widen_factor: float = 1.5) -> None:
        self.index = int(index)
        self.cost_model = cost_model
        self.shards = shards
        self.power_watts = float(power_watts)
        self.queue_limit = int(queue_limit)
        #: Consulted once per coordinator renewal round; returns False
        #: when the ``"fleet.lease"`` fault site fired for that round.
        self._lease_gate = lease_gate or (lambda: True)
        #: Optional :class:`~repro.calibration.guard.CalibrationGuard`
        #: watching this replica's prediction-vs-measured residual; when
        #: it goes stale, admission widens the worst-case bound or sheds
        #: per ``calibration_action`` — never serves silently.
        self.calibration_guard = calibration_guard
        self.calibration_action = calibration_action
        self.calibration_widen_factor = float(calibration_widen_factor)
        self._queue: deque[tuple[TenantRequest, str, float, float]] = deque()
        # -- balancer-visible load signal --------------------------------
        self._inflight_j = 0.0     # worst-mode joules enqueued, unfinished
        self._down_until = -math.inf
        # -- virtual clocks ----------------------------------------------
        self._free_at = 0.0        # busy clock: when the replica idles next
        # -- counters (never per-request records) ------------------------
        self.offered = 0           # requests enqueued to this replica
        self.admitted = 0
        self.rejected_budget = 0   # lease could not cover the worst case
        self.calibration_stale = 0     # decided while the guard was stale
        self.calibration_rejected = 0  # of which shed outright
        self.shed_crash = 0        # queued requests lost to a crash
        self.crashes = 0
        self.measured_j = 0.0
        self.predicted_expected_j = 0.0
        self._error_sum = 0.0      # sum of relative prediction errors
        self._error_n = 0
        self.latency = LatencyHistogram()

    # -- balancer view (ReplicaView protocol) ------------------------------
    def accepting(self, now: float) -> bool:
        """Up (not crashed) at simulated ``now``."""
        return now >= self._down_until

    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    @property
    def inflight_j(self) -> float:
        return self._inflight_j

    # -- queue ------------------------------------------------------------
    def try_enqueue(self, request: TenantRequest, tenant: str,
                    expected_j: float, worst_j: float) -> bool:
        """Non-blocking enqueue; False when the queue is full."""
        if len(self._queue) >= self.queue_limit:
            return False
        self._queue.append((request, tenant, expected_j, worst_j))
        self.offered += 1
        self._inflight_j += worst_j
        return True

    def crash(self, now: float, downtime_s: float) -> int:
        """Kill the replica at ``now``: shed the queue, drop the leases.

        The in-memory queue is lost (those requests are shed), and the
        budget shards send one final gossip — the shard ledger is modeled
        as durable, so unused lease joules flow back to the coordinator
        instead of leaking.  The replica restarts, lease-less, at
        ``now + downtime_s``.  Returns the number of shed requests.
        """
        shed = len(self._queue)
        for item in self._queue:
            self._inflight_j -= item[3]
        self._queue.clear()
        self.shed_crash += shed
        self.crashes += 1
        for shard in self.shards.values():
            shard.flush(now)
        self._down_until = now + float(downtime_s)
        self._free_at = max(self._free_at, self._down_until)
        return shed

    def flush(self, now: float) -> None:
        """End-of-run gossip: return unused leases, report draws."""
        for shard in self.shards.values():
            shard.flush(now)

    # -- draining ---------------------------------------------------------
    def drain(self) -> None:
        """Process every queued request, oldest first."""
        while self._queue:
            self._process(*self._queue.popleft())

    def _process(self, request: TenantRequest, tenant: str,
                 expected_j: float, worst_j: float) -> None:
        now = request.arrival_s
        self._inflight_j -= worst_j
        if self.calibration_guard is not None:
            try:
                self.calibration_guard.check()
            except CalibrationStale:
                self.calibration_stale += 1
                if self.calibration_action == "reject":
                    self.calibration_rejected += 1
                    return
                worst_j = worst_j * self.calibration_widen_factor
        shard = self.shards[tenant]
        if shard.needs_renewal(worst_j, now):
            covered = shard.ensure_lease(
                worst_j, now, renewal_allowed=self._lease_gate())
        else:
            covered = True
        if not covered or not shard.can_admit(worst_j, now):
            self.rejected_budget += 1
            return
        measured = self.cost_model.measure(request)
        if self.calibration_guard is not None:
            self.calibration_guard.observe(expected_j, measured)
        shard.draw(measured, now)
        start = max(now, self._free_at)
        service_s = measured / self.power_watts
        finish = start + service_s
        self._free_at = finish
        self.admitted += 1
        self.measured_j += measured
        self.predicted_expected_j += expected_j
        self.latency.add(finish - request.arrival_s)
        if measured > 0:
            self._error_sum += abs(expected_j - measured) / measured
            self._error_n += 1

    # -- roll-up ------------------------------------------------------------
    def report(self, horizon_s: float) -> ServingReport:
        """This replica's run as a standard :class:`ServingReport`.

        ``allowance_joules`` is the joules the coordinator granted to
        this replica's shards over the run, so ``budget_utilisation``
        reads as lease efficiency (drawn over granted, at most 1).
        """
        granted = sum(s.granted_j for s in self.shards.values())
        return ServingReport(
            horizon_s=horizon_s,
            offered=self.offered,
            admitted=self.admitted,
            degraded=0,
            rejected=self.rejected_budget,
            shed_queue_full=self.shed_crash,
            deferred_total=0,
            ledger_joules=self.measured_j,
            allowance_joules=granted,
            predicted_joules=self.predicted_expected_j,
            mean_prediction_error=(self._error_sum / self._error_n
                                   if self._error_n else None),
            p50_latency_s=self.latency.percentile(50.0),
            p99_latency_s=self.latency.percentile(99.0),
            fault_stats=({"replica_crashes": float(self.crashes)}
                         if self.crashes else {}),
            calibration_stale=self.calibration_stale,
            calibration_rejected=self.calibration_rejected,
        )

    def __repr__(self) -> str:
        return (f"FleetReplica(index={self.index}, offered={self.offered}, "
                f"admitted={self.admitted}, inflight={self._inflight_j:.4g} J)")
