"""repro.fleet — a multi-replica energy-aware serving fleet.

The paper's clarity argument is system-wide: an energy interface is most
valuable when *every* layer — and every node — can see and act on energy.
This package scales the single-node serving gateway (PR 3-5) out to a
fleet: N replicas behind a pluggable, energy-aware load balancer, with
per-tenant budgets enforced globally through sharded token buckets and a
lease/gossip coordinator.  The whole pipeline is one synchronous
dispatch loop over virtual time, seeded end to end, so a million-request
run replays bitwise — experiment S4's claim.

Layers, bottom-up:

* :mod:`~repro.fleet.shards` — :class:`LeaseCoordinator` and
  :class:`BudgetShard`: global token arithmetic, local admission.
* :mod:`~repro.fleet.costmodel` — how a replica prices a request
  (closed-form work units, or a real energy interface).
* :mod:`~repro.fleet.replica` — :class:`FleetReplica`: bounded queue,
  drained oldest first, counter-based metrics.
* :mod:`~repro.fleet.balancer` — round-robin, least-energy-in-flight and
  energy-weighted power-of-two-choices.
* :mod:`~repro.fleet.fleet` — :class:`EnergyGatewayFleet`, the front
  door; :mod:`~repro.fleet.report` — the :class:`FleetReport` roll-up.
"""

from repro.fleet.balancer import (
    BALANCERS,
    LeastEnergyBalancer,
    LoadBalancer,
    PowerOfTwoBalancer,
    ReplicaView,
    RoundRobinBalancer,
    build_balancer,
)
from repro.fleet.costmodel import CostModel, InterfaceCostModel, WorkCostModel
from repro.fleet.fleet import (
    DEFAULT_BALANCER,
    DEFAULT_LEASE_TTL_S,
    DEFAULT_REPLICAS,
    EnergyGatewayFleet,
)
from repro.fleet.replica import FleetReplica, LatencyHistogram
from repro.fleet.report import FleetReport, format_fleet_report
from repro.fleet.shards import BudgetShard, Lease, LeaseCoordinator

__all__ = [
    "BALANCERS",
    "BudgetShard",
    "CostModel",
    "DEFAULT_BALANCER",
    "DEFAULT_LEASE_TTL_S",
    "DEFAULT_REPLICAS",
    "EnergyGatewayFleet",
    "FleetReplica",
    "FleetReport",
    "InterfaceCostModel",
    "LatencyHistogram",
    "Lease",
    "LeaseCoordinator",
    "LeastEnergyBalancer",
    "LoadBalancer",
    "PowerOfTwoBalancer",
    "ReplicaView",
    "RoundRobinBalancer",
    "WorkCostModel",
    "build_balancer",
    "format_fleet_report",
]
