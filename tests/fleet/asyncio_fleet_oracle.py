"""Reference asyncio dispatch for ``repro.fleet``.

A copy of ``EnergyGatewayFleet.aserve`` and of ``FleetReplica``'s
``asyncio.Queue`` handling (``open``, ``try_enqueue``, ``enqueue_wait``,
``stop``, ``run`` and ``crash``) as they were before the fleet became
one synchronous loop: one worker coroutine per replica, a dispatcher
that yields to the workers every 64 requests, and a blocking ``put``
when every preferred queue is full.  The workers drive the real
``FleetReplica._process``, so only the interleaving is the oracle's
own.  ``test_fleet.py`` serves one trace through it and through
``EnergyGatewayFleet.serve`` on twin fleets and requires equal reports
and per-replica counters, bit for bit.
"""

from __future__ import annotations

import asyncio
from typing import Iterable

from repro.core.errors import BudgetError
from repro.fleet import EnergyGatewayFleet, FleetReplica, FleetReport
from repro.workloads.fleettrace import TenantRequest

__all__ = ["AsyncioReplica", "serve"]

#: Queue sentinel telling a worker its run is over.
_STOP = object()

#: Dispatcher yields to the workers every this many requests, so queue
#: draining interleaves with arrivals instead of running in one burst.
_YIELD_EVERY = 64


class AsyncioReplica(FleetReplica):
    """A replica whose queue is an ``asyncio.Queue`` drained by a worker."""

    @property
    def queue_depth(self) -> int:
        return self._queue.qsize() if self._queue is not None else 0

    def open(self) -> None:
        """Create the bounded queue (must run inside the event loop)."""
        self._queue = asyncio.Queue(maxsize=self.queue_limit)

    def try_enqueue(self, request: TenantRequest, tenant: str,
                    expected_j: float, worst_j: float) -> bool:
        """Non-blocking enqueue; False when the queue is full."""
        assert self._queue is not None
        try:
            self._queue.put_nowait((request, tenant, expected_j, worst_j))
        except asyncio.QueueFull:
            return False
        self.offered += 1
        self._inflight_j += worst_j
        return True

    async def enqueue_wait(self, request: TenantRequest, tenant: str,
                           expected_j: float, worst_j: float) -> None:
        """Blocking enqueue — the dispatcher absorbs the backpressure."""
        assert self._queue is not None
        await self._queue.put((request, tenant, expected_j, worst_j))
        self.offered += 1
        self._inflight_j += worst_j

    async def stop(self) -> None:
        assert self._queue is not None
        await self._queue.put(_STOP)

    def crash(self, now: float, downtime_s: float) -> int:
        """Kill the replica at ``now``: shed the queue, drop the leases."""
        assert self._queue is not None
        shed = 0
        while True:
            try:
                item = self._queue.get_nowait()
            except asyncio.QueueEmpty:
                break
            if item is _STOP:
                # Keep the shutdown signal: the worker must still exit.
                self._queue.put_nowait(item)
                break
            shed += 1
            self._inflight_j -= item[3]
        self.shed_crash += shed
        self.crashes += 1
        for shard in self.shards.values():
            shard.flush(now)
        self._down_until = now + float(downtime_s)
        self._free_at = max(self._free_at, self._down_until)
        return shed

    async def run(self) -> None:
        """Drain the queue until the stop sentinel arrives."""
        assert self._queue is not None
        while True:
            item = await self._queue.get()
            if item is _STOP:
                return
            self._process(*item)


def serve(fleet: EnergyGatewayFleet, requests: Iterable[TenantRequest],
          horizon_s: float | None = None) -> FleetReport:
    """Serve ``requests`` through ``fleet`` on the asyncio pipeline.

    Turns the fleet's (unused) replicas into :class:`AsyncioReplica`
    in place, so a fleet is served through this function at most once.
    """
    for replica in fleet.replicas:
        replica.__class__ = AsyncioReplica
    return asyncio.run(aserve(fleet, requests, horizon_s))


async def aserve(self: EnergyGatewayFleet, requests: Iterable[TenantRequest],
                 horizon_s: float | None = None) -> FleetReport:
    for replica in self.replicas:
        replica.open()
    workers = [asyncio.ensure_future(replica.run())
               for replica in self.replicas]
    offered = 0
    shed_no_replica = 0
    backpressure_waits = 0
    dispatch_counts = [0] * self.n_replicas
    last_now = 0.0
    n_tenants = len(self.tenant_names)
    try:
        for request in iter(requests):
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
                target = prefs[0]
                await target.enqueue_wait(request, tenant,
                                          expected, worst)
            dispatch_counts[target.index] += 1
            if offered % _YIELD_EVERY == 0:
                await asyncio.sleep(0)
    finally:
        for replica in self.replicas:
            await replica.stop()
        await asyncio.gather(*workers)
    horizon = float(horizon_s) if horizon_s is not None else last_now
    settle_now = max(horizon, last_now)
    for replica in self.replicas:
        replica.flush(settle_now)
    return self._report(horizon, offered, shed_no_replica,
                        backpressure_waits, tuple(dispatch_counts),
                        settle_now)
