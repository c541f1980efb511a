"""Tests for the gateway lifecycle: queueing, shedding, settlement."""

import pytest

from repro.core.errors import ServingError
from repro.core.interface import EnergyInterface
from repro.core.units import Energy
from repro.serving import (
    AdmitAllPolicy,
    EnergyAwareGateway,
    EnergyBudget,
    GatewayConfig,
    HardBudgetPolicy,
    KVStoreAdapter,
    ServingMetrics,
    attribution_report,
    format_report,
    zip_arrivals,
)
from repro.serving.adapters import ServiceAdapter
from repro.sim.rng import RngFactory
from repro.workloads import kv_request_trace, poisson_arrivals


class _Ledger:
    """Minimal stand-in for the hardware ledger: one running total."""

    def __init__(self):
        self.joules = 0.0

    def total_joules(self):
        return self.joules


class _FakeMachine:
    """A clock plus ledger; idling burns ``static_w``."""

    def __init__(self, static_w=0.0):
        self.now = 0.0
        self.ledger = _Ledger()
        self.static_w = static_w

    def advance_to(self, t):
        if t > self.now:
            self.ledger.joules += (t - self.now) * self.static_w
            self.now = t


class _ConstInterface(EnergyInterface):
    def __init__(self, joules):
        super().__init__("const")
        self.joules = joules

    def E_op(self):
        return Energy(self.joules)


class FakeAdapter(ServiceAdapter):
    """Deterministic service: every request takes ``service_s`` seconds
    and burns exactly ``joules_per_op`` (so predictions are perfect)."""

    def __init__(self, joules_per_op=1.0, service_s=0.01, static_w=0.0,
                 degraded_joules=None):
        super().__init__("fake", _FakeMachine(static_w),
                         _ConstInterface(joules_per_op))
        self.joules_per_op = joules_per_op
        self.service_s = service_s
        self.degraded_joules = degraded_joules

    def cost_call(self, request):
        return "E_op", ()

    def _run(self, request):
        self.machine.now += self.service_s
        self.machine.ledger.joules += self.joules_per_op

    def degrade(self, request):
        if self.degraded_joules is None:
            return None
        return ("degraded", request)


class _TwoTierInterface(EnergyInterface):
    def __init__(self, full, cheap):
        super().__init__("two-tier")
        self.full = full
        self.cheap = cheap

    def E_op(self):
        return Energy(self.full)

    def E_cheap(self):
        return Energy(self.cheap)


class DegradableAdapter(FakeAdapter):
    """Charges less for degraded variants."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.interface = _TwoTierInterface(self.joules_per_op,
                                           self.degraded_joules)

    def cost_call(self, request):
        if isinstance(request, tuple) and request[0] == "degraded":
            return "E_cheap", ()
        return "E_op", ()

    def _run(self, request):
        self.machine.now += self.service_s
        if isinstance(request, tuple) and request[0] == "degraded":
            self.machine.ledger.joules += self.degraded_joules
        else:
            self.machine.ledger.joules += self.joules_per_op


def arrivals(n, spacing=0.1):
    return [(spacing * (i + 1), f"req{i}") for i in range(n)]


class TestGatewayBasics:
    def test_admits_everything_under_a_loose_budget(self):
        adapter = FakeAdapter(joules_per_op=1.0)
        budget = EnergyBudget("b", capacity_joules=100.0)
        gateway = EnergyAwareGateway(adapter, budget, HardBudgetPolicy())
        report = gateway.serve(arrivals(5))
        assert report.offered == 5
        assert report.admitted == 5
        assert report.rejected == 0
        assert report.ledger_joules == pytest.approx(5.0)
        assert report.predicted_joules == pytest.approx(5.0)
        assert report.mean_prediction_error == pytest.approx(0.0)

    def test_hard_budget_sheds_excess(self):
        adapter = FakeAdapter(joules_per_op=1.0)
        budget = EnergyBudget("b", capacity_joules=3.0)
        gateway = EnergyAwareGateway(adapter, budget,
                                     HardBudgetPolicy(defer_horizon_s=0.0))
        report = gateway.serve(arrivals(10))
        assert report.admitted == 3
        assert report.rejected == 7
        assert report.ledger_joules == pytest.approx(3.0)
        assert report.within_budget

    def test_measured_settles_against_budget(self):
        # the app burns 2x its prediction; settlement must track reality
        adapter = FakeAdapter(joules_per_op=1.0)
        adapter.interface.joules = 0.5  # predict half the true cost
        budget = EnergyBudget("b", capacity_joules=3.0)
        gateway = EnergyAwareGateway(adapter, budget,
                                     HardBudgetPolicy(defer_horizon_s=0.0))
        report = gateway.serve(arrivals(10))
        # worst-case predicts 0.5 J/op, but each op drains a measured 1 J
        assert report.admitted < 10
        assert report.ledger_joules == pytest.approx(float(report.admitted))

    def test_static_power_is_charged(self):
        adapter = FakeAdapter(joules_per_op=0.0, static_w=2.0)
        budget = EnergyBudget("b", capacity_joules=100.0)
        gateway = EnergyAwareGateway(adapter, budget, AdmitAllPolicy())
        report = gateway.serve(arrivals(3, spacing=0.5), horizon=2.0)
        # 2 W for 2 s of wall clock (plus the service time tail)
        assert report.ledger_joules == pytest.approx(
            2.0 * (2.0 + 3 * adapter.service_s), rel=0.1)

    def test_horizon_extends_the_window(self):
        adapter = FakeAdapter()
        budget = EnergyBudget("b", capacity_joules=10.0, refill_watts=1.0)
        gateway = EnergyAwareGateway(adapter, budget, AdmitAllPolicy())
        report = gateway.serve(arrivals(2), horizon=5.0)
        assert report.horizon_s == pytest.approx(5.0)
        assert report.allowance_joules == pytest.approx(15.0)

    def test_queue_overflow_sheds(self):
        # all arrivals land at once; the queue holds only 2
        adapter = FakeAdapter(service_s=1.0)
        budget = EnergyBudget("b", capacity_joules=100.0)
        gateway = EnergyAwareGateway(
            adapter, budget, AdmitAllPolicy(),
            config=GatewayConfig(max_queue=2))
        report = gateway.serve([(0.0, f"req{i}") for i in range(6)])
        assert report.shed_queue_full > 0
        assert report.offered == 6
        assert (report.admitted + report.rejected
                + report.shed_queue_full) == 6

    @pytest.mark.parametrize("max_queue", [0, -1])
    def test_queue_bound_must_hold_a_request(self, max_queue):
        # A bound below 1 would shed every request and admit none.
        with pytest.raises(ServingError, match="max_queue"):
            GatewayConfig(max_queue=max_queue)

    def test_degrade_path(self):
        adapter = DegradableAdapter(joules_per_op=5.0, degraded_joules=0.5)
        budget = EnergyBudget("b", capacity_joules=2.0)
        gateway = EnergyAwareGateway(adapter, budget, HardBudgetPolicy())
        report = gateway.serve(arrivals(3))
        assert report.degraded > 0
        assert report.within_budget

    def test_defer_then_admit(self):
        # 1 J/op against a bucket refilling at 10 W: each op must wait
        # ~0.1 s for tokens, then runs
        adapter = FakeAdapter(joules_per_op=1.0, service_s=0.001)
        budget = EnergyBudget("b", capacity_joules=1.0, refill_watts=10.0)
        gateway = EnergyAwareGateway(adapter, budget,
                                     HardBudgetPolicy(max_deferrals=20))
        report = gateway.serve([(0.0, f"req{i}") for i in range(4)])
        assert report.admitted == 4
        assert report.deferred_total > 0

    def test_latency_percentiles_present(self):
        adapter = FakeAdapter()
        budget = EnergyBudget("b", capacity_joules=100.0)
        gateway = EnergyAwareGateway(adapter, budget, AdmitAllPolicy())
        report = gateway.serve(arrivals(5))
        assert report.p50_latency_s >= adapter.service_s
        assert report.p99_latency_s >= report.p50_latency_s

    def test_zip_arrivals_validates_lengths(self):
        with pytest.raises(ServingError):
            zip_arrivals([0.0, 1.0], ["only-one"])

    def test_format_report_renders(self):
        adapter = FakeAdapter()
        budget = EnergyBudget("b", capacity_joules=100.0)
        gateway = EnergyAwareGateway(adapter, budget, AdmitAllPolicy())
        report = gateway.serve(arrivals(2))
        text = format_report(report)
        assert "offered requests" in text
        assert "ledger energy" in text


class TestMetrics:
    def test_attribution_requires_a_window(self):
        with pytest.raises(ServingError):
            attribution_report(None, ServingMetrics())

    def test_empty_run_summary(self):
        report = ServingMetrics().summary(horizon_s=1.0, ledger_joules=0.0,
                                          allowance_joules=1.0)
        assert report.offered == 0
        assert report.p50_latency_s is None
        assert report.mean_prediction_error is None
        assert report.within_budget

    def test_zero_allowance_utilisation(self):
        report = ServingMetrics().summary(horizon_s=1.0, ledger_joules=1.0,
                                          allowance_joules=0.0)
        assert report.budget_utilisation == float("inf")
        assert not report.within_budget


class TestKVStoreIntegration:
    """A short end-to-end run on the real KV store app."""

    def test_gateway_holds_budget_on_real_hardware(self):
        adapter = KVStoreAdapter(value_bytes=256 * 1024)
        budget = EnergyBudget("node", capacity_joules=0.2,
                              refill_watts=0.15)
        gateway = EnergyAwareGateway(adapter, budget, HardBudgetPolicy())
        rng_factory = RngFactory(3)
        times = poisson_arrivals(200.0, 3.0, rng_factory)
        requests = kv_request_trace(len(times), rng_factory.stream("trace"),
                                    put_fraction=0.8)
        report = gateway.serve(zip_arrivals(times, requests), horizon=3.0)
        assert report.within_budget
        assert report.admitted > 0
        assert report.cache_stats["hit_rate"] > 0.5
        # per-request attribution over the run's machine window works
        attribution = attribution_report(adapter.machine.ledger,
                                         gateway.metrics)
        assert attribution.total_joules == pytest.approx(
            report.ledger_joules, rel=1e-6)
