"""End-to-end tests for the multi-replica gateway fleet."""

import dataclasses
import math
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.calibration import DriftingCostModel, DriftProcess
from repro.core.errors import BudgetError, ServingError
from repro.core.policy import Policy
from repro.faults import FaultPlan, FaultSpec
from repro.fleet import (
    EnergyGatewayFleet,
    FleetReport,
    LatencyHistogram,
    WorkCostModel,
    format_fleet_report,
)
from repro.sim.rng import RngFactory
from repro.workloads import (
    fleet_request_trace,
    poisson_arrivals,
    zipf_tenant_trace,
)

from . import asyncio_fleet_oracle

BUDGETS = {"t0": "5J+2W", "t1": "3J+1W", "t2": "2J+0.5W"}


def make_trace(seed=42, rate=200.0, horizon=20.0, tenants=3):
    rng = RngFactory(seed)
    times = poisson_arrivals(rate, horizon, rng.stream("arrivals"))
    ids = zipf_tenant_trace(len(times), tenants, rng)
    return list(fleet_request_trace(times, ids, rng))


def run_fleet(requests, policy=None, plan=None, budgets=BUDGETS, **kwargs):
    fleet = EnergyGatewayFleet(budgets, policy=policy, **kwargs)
    if plan is not None:
        fleet.inject_faults(plan)
    return fleet.serve(iter(requests))


class TestServe:
    def test_every_request_lands_somewhere(self):
        requests = make_trace()
        report = run_fleet(requests, Policy(replicas=4))
        assert report.offered == len(requests)
        assert (report.admitted + report.rejected + report.shed_crash
                + report.shed_no_replica == report.offered)
        assert report.violations == {}
        assert report.goodput_per_j > 0
        assert sum(report.dispatch_counts) \
            == report.offered - report.shed_no_replica

    def test_policy_knobs_are_honoured(self):
        report = run_fleet(make_trace(),
                           Policy(replicas=6, balancer="round-robin",
                                  lease_ttl_s=2.5))
        assert report.n_replicas == 6
        assert report.balancer == "round-robin"
        assert len(report.replica_reports) == 6
        # Round-robin spreads the load almost perfectly evenly.
        counts = report.dispatch_counts
        assert max(counts) - min(counts) <= 1

    def test_per_replica_reports_sum_to_fleet(self):
        report = run_fleet(make_trace(), Policy(replicas=4))
        assert sum(r.admitted for r in report.replica_reports) \
            == report.admitted
        assert sum(r.ledger_joules for r in report.replica_reports) \
            == pytest.approx(report.measured_joules)

    def test_starved_budget_rejects_but_never_violates(self):
        tight = {"t0": "0.1J+0.02W", "t1": "0.1J+0.02W",
                 "t2": "0.1J+0.02W"}
        report = run_fleet(make_trace(), Policy(replicas=4), budgets=tight)
        assert report.rejected > 0
        assert report.violations == {}
        assert report.measured_joules <= report.allowance_joules + 1e-9

    def test_backpressure_engages_on_tiny_queues(self):
        report = run_fleet(make_trace(rate=500.0, horizon=5.0),
                           Policy(replicas=2), queue_limit=4)
        assert report.backpressure_waits > 0
        assert report.offered == report.admitted + report.rejected

    def test_unknown_tenant_index_raises(self):
        requests = make_trace(tenants=3)
        with pytest.raises(BudgetError):
            run_fleet(requests, budgets={"only": "5J+2W"})

    def test_invalid_policy_knobs(self):
        with pytest.raises(ServingError):
            Policy(replicas=0)
        with pytest.raises(ServingError):
            Policy(lease_ttl_s=0.0)
        with pytest.raises(ServingError):
            EnergyGatewayFleet(BUDGETS, policy=Policy(balancer="nope"))
        with pytest.raises(BudgetError):
            EnergyGatewayFleet({})

    def test_report_renders_and_serialises(self):
        report = run_fleet(make_trace(rate=50.0, horizon=5.0))
        text = format_fleet_report(report)
        assert "goodput / J" in text
        rebuilt = report.to_dict()
        assert rebuilt["offered"] == report.offered
        assert isinstance(report.to_json(), str)


class _FailingCostModel(WorkCostModel):
    """Work pricing whose meter raises on its fifth measurement."""

    def __init__(self):
        super().__init__()
        self.calls = 0

    def measure(self, request):
        self.calls += 1
        if self.calls == 5:
            raise ServingError("meter failed on the fifth request")
        return super().measure(request)


class TestFailures:
    def test_failing_replica_raises_instead_of_hanging(self):
        # Tiny queues put the dispatcher into backpressure on the
        # replica whose measurement failed; the error must surface.
        fleet = EnergyGatewayFleet(BUDGETS, policy=Policy(replicas=2),
                                   cost_model=_FailingCostModel(),
                                   queue_limit=4)
        with pytest.raises(ServingError, match="fifth request"):
            fleet.serve(make_trace()[:40])

    def test_queue_limit_must_be_positive(self):
        for bad in (0, -1):
            with pytest.raises(ServingError, match="queue_limit"):
                EnergyGatewayFleet(BUDGETS, queue_limit=bad)

    def test_crash_check_every_must_be_positive(self):
        for bad in (0, -4):
            with pytest.raises(ServingError, match="crash_check_every"):
                EnergyGatewayFleet(BUDGETS, crash_check_every=bad)

    def test_power_watts_must_be_finite_and_positive(self):
        for bad in (0.0, -50.0, math.nan, math.inf):
            with pytest.raises(ServingError, match="power_watts"):
                EnergyGatewayFleet(BUDGETS, power_watts=bad)

    def test_crash_downtime_must_be_finite_and_non_negative(self):
        for bad in (-0.5, math.nan, math.inf):
            with pytest.raises(ServingError, match="crash_downtime_s"):
                EnergyGatewayFleet(BUDGETS, crash_downtime_s=bad)
        EnergyGatewayFleet(BUDGETS, crash_downtime_s=0.0)


#: Budgets tight enough that replicas contend for leases, so the order
#: in which they drain moves the report.
TIGHT_BUDGETS = {"t0": "0.3J+0.1W", "t1": "0.2J+0.05W", "t2": "0.1J+0.02W"}


@st.composite
def fleet_cases(draw):
    """Keyword arguments for :func:`build_case`: fleet, trace and faults."""
    return dict(
        seed=draw(st.integers(1, 2 ** 16)),
        rate=draw(st.sampled_from((50.0, 150.0, 400.0, 900.0))),
        horizon=draw(st.sampled_from((1.0, 3.0))),
        budgets=draw(st.sampled_from((BUDGETS, TIGHT_BUDGETS))),
        replicas=draw(st.integers(1, 5)),
        balancer=draw(st.sampled_from(("round-robin", "least-energy",
                                       "power-of-two"))),
        queue_limit=draw(st.sampled_from((1, 2, 3, 8, 256))),
        crash_check_every=draw(st.sampled_from((1, 3, 16, 50, 100, 256))),
        crash_downtime_s=draw(st.sampled_from((0.0, 0.01, 0.1, 1.0))),
        p_crash=draw(st.sampled_from((0.0, 0.2, 0.5))),
        p_lease=draw(st.sampled_from((0.0, 0.2, 0.6))),
        lease_ttl_s=draw(st.sampled_from((0.25, 1.0, 5.0))),
        calibration_action=draw(st.sampled_from((None, "widen", "reject"))),
    )


def build_case(seed, rate, horizon, budgets, replicas, balancer,
               queue_limit, crash_check_every, crash_downtime_s, p_crash,
               p_lease, lease_ttl_s, calibration_action):
    """A fresh fleet (own fault plan and cost model) and its trace."""
    guarded = calibration_action is not None
    policy = Policy(replicas=replicas, balancer=balancer,
                    lease_ttl_s=lease_ttl_s,
                    calibration_tolerance=0.17 if guarded else None,
                    calibration_action=calibration_action or "widen")
    cost_model = DriftingCostModel(
        WorkCostModel(),
        DriftProcess("fleet:energy", entropy=seed, rate_per_s=0.1)
    ) if guarded else None
    fleet = EnergyGatewayFleet(budgets, policy=policy, cost_model=cost_model,
                               entropy=seed, queue_limit=queue_limit,
                               crash_check_every=crash_check_every,
                               crash_downtime_s=crash_downtime_s)
    specs = tuple(FaultSpec(site, p) for site, p in
                  (("fleet.replica", p_crash), ("fleet.lease", p_lease)) if p)
    if specs:
        fleet.inject_faults(FaultPlan(specs, entropy=seed))
    return fleet, make_trace(seed=seed, rate=rate, horizon=horizon)


def replica_counters(replica):
    return dict(
        offered=replica.offered, admitted=replica.admitted,
        rejected_budget=replica.rejected_budget,
        calibration_stale=replica.calibration_stale,
        calibration_rejected=replica.calibration_rejected,
        shed_crash=replica.shed_crash, crashes=replica.crashes,
        measured_j=replica.measured_j,
        predicted_expected_j=replica.predicted_expected_j,
        inflight_j=replica.inflight_j, free_at=replica._free_at,
        queue_depth=replica.queue_depth,
        latency=list(replica.latency._counts))


class TestAgainstAsyncioOracle:
    """The synchronous loop replays the asyncio pipeline bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(fleet_cases())
    def test_matches_oracle(self, case):
        fleet, requests = build_case(**case)
        twin, _ = build_case(**case)
        report = fleet.serve(iter(requests), horizon_s=case["horizon"])
        want = asyncio_fleet_oracle.serve(twin, iter(requests),
                                          horizon_s=case["horizon"])
        assert report.digest() == want.digest()
        assert [replica_counters(r) for r in fleet.replicas] \
            == [replica_counters(r) for r in twin.replicas]

    def test_oracle_sees_backpressure_and_crashes(self):
        # The property's space reaches the paths the drain order matters
        # on: a full fleet, and a crash that empties a ready queue.
        case = dict(seed=7, rate=900.0, horizon=3.0, budgets=TIGHT_BUDGETS,
                    replicas=3, balancer="least-energy", queue_limit=2,
                    crash_check_every=32, crash_downtime_s=0.05,
                    p_crash=0.4, p_lease=0.2, lease_ttl_s=1.0,
                    calibration_action="widen")
        fleet, requests = build_case(**case)
        twin, _ = build_case(**case)
        report = fleet.serve(requests)
        assert report.backpressure_waits > 0
        assert report.shed_crash > 0
        assert report.calibration_stale > 0
        assert report == asyncio_fleet_oracle.serve(twin, requests)


def test_fleet_imports_no_asyncio():
    src = os.path.dirname(os.path.dirname(repro.__file__))
    code = "import sys, repro.fleet; assert 'asyncio' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={**os.environ, "PYTHONPATH": src})


class TestDeterminism:
    def test_same_seed_same_report(self):
        requests = make_trace(seed=11)
        policy = Policy(replicas=4, balancer="power-of-two")
        first = run_fleet(requests, policy, entropy=11)
        second = run_fleet(requests, policy, entropy=11)
        assert first == second
        assert first.digest() == second.digest()

    def test_different_entropy_differs(self):
        requests = make_trace(seed=11)
        policy = Policy(replicas=4, balancer="power-of-two")
        first = run_fleet(requests, policy, entropy=11)
        second = run_fleet(requests, policy, entropy=12)
        # Different balancer sampling must show up somewhere.
        assert first.dispatch_counts != second.dispatch_counts

    def test_identical_under_fault_plan(self):
        requests = make_trace(seed=5, rate=400.0, horizon=15.0)
        policy = Policy(replicas=4, lease_ttl_s=1.0)

        def run():
            plan = FaultPlan((FaultSpec("fleet.replica", 0.3),
                              FaultSpec("fleet.lease", 0.2)), entropy=5)
            return run_fleet(requests, policy, plan=plan,
                             crash_check_every=256)

        first, second = run(), run()
        assert first.replica_crashes > 0
        assert first.lease_renewal_faults > 0
        assert first.shed_crash > 0
        assert first.digest() == second.digest()
        # The invariant holds even while replicas crash and leases fail.
        assert first.violations == {}

    def test_all_balancers_replay(self):
        requests = make_trace(seed=3, rate=100.0, horizon=10.0)
        for name in ("round-robin", "least-energy", "power-of-two"):
            policy = Policy(replicas=3, balancer=name)
            assert run_fleet(requests, policy).digest() \
                == run_fleet(requests, policy).digest()


class TestFaults:
    def test_crashes_drain_to_other_replicas(self):
        requests = make_trace(seed=8, rate=300.0, horizon=10.0)
        plan = FaultPlan((FaultSpec("fleet.replica", 0.2),), entropy=8)
        report = run_fleet(requests, Policy(replicas=4), plan=plan,
                           crash_check_every=128, crash_downtime_s=0.5)
        assert report.replica_crashes > 0
        assert report.shed_crash > 0
        # The fleet keeps serving: crashes shed queues, not the run.
        assert report.admitted > 0.5 * report.offered
        assert (report.admitted + report.rejected + report.shed_crash
                + report.shed_no_replica == report.offered)
        assert report.violations == {}

    def test_lease_faults_only_reject(self):
        requests = make_trace(seed=9, rate=300.0, horizon=10.0)
        plan = FaultPlan((FaultSpec("fleet.lease", 0.5),), entropy=9)
        report = run_fleet(requests, Policy(replicas=4, lease_ttl_s=0.5),
                           plan=plan)
        assert report.lease_renewal_faults > 0
        assert report.replica_crashes == 0
        assert report.violations == {}

    def test_uniform_plan_excludes_fleet_sites(self):
        # FaultPlan.uniform keeps its historical meaning ("evaluations
        # fail"): the fleet control-plane sites must be opted into.
        plan = FaultPlan.uniform(0.5)
        sites = {spec.site for spec in plan.specs}
        assert "fleet.replica" not in sites
        assert "fleet.lease" not in sites


class TestCostModel:
    def test_measured_never_exceeds_worst(self):
        model = WorkCostModel(base_j=0.01, worst_factor=1.5, spread=0.25)
        for request in make_trace(rate=50.0, horizon=5.0):
            expected, worst = model.predict(request)
            measured = model.measure(request)
            assert 0.0 < measured <= worst
            assert expected <= worst

    def test_spread_must_fit_inside_worst(self):
        with pytest.raises(ServingError):
            WorkCostModel(worst_factor=1.2, spread=0.5)
        with pytest.raises(ServingError):
            WorkCostModel(base_j=0.0)


class TestLatencyHistogram:
    def test_percentiles_track_samples(self):
        hist = LatencyHistogram()
        for ms in range(1, 101):
            hist.add(ms / 1000.0)
        p50 = hist.percentile(50.0)
        p99 = hist.percentile(99.0)
        assert 0.03 <= p50 <= 0.07
        assert p99 >= 0.08
        assert hist.percentile(50.0) == p50  # read-out is pure

    def test_empty_is_none_and_merge_adds(self):
        a, b = LatencyHistogram(), LatencyHistogram()
        assert a.percentile(50.0) is None
        b.add(0.01)
        a.merge(b)
        assert a.n == 1
        assert a.percentile(50.0) == pytest.approx(0.01, rel=0.2)


def test_fleet_report_is_frozen():
    report = FleetReport(
        horizon_s=1.0, n_replicas=1, balancer="round-robin", offered=0,
        admitted=0, rejected=0, shed_crash=0, shed_no_replica=0,
        backpressure_waits=0, measured_joules=0.0, predicted_joules=0.0,
        allowance_joules=1.0, p50_latency_s=None, p99_latency_s=None)
    with pytest.raises(dataclasses.FrozenInstanceError):
        report.offered = 1
    assert report.goodput == 1.0
    assert report.within_budget
