"""S3 — graceful degradation holds goodput under a seeded fault plan.

The serving claim of S1 assumed the evaluation substrate never fails.
This experiment drops that assumption: a replayable
:class:`~repro.faults.FaultPlan` injects failures into 5% of the
gateway's keyed evaluations — ECV sampling errors, interface
exceptions, NaN hardware readings, latency spikes — while the gateway's
resilience policy (retry with capped backoff, a simulated deadline, the
cache → bound → reject degradation ladder) absorbs them.  Three claims:

* **goodput holds**: ≥ 90% of offered requests are served despite the
  5% per-site injection rate (faults compound across sites, so the raw
  evaluation failure rate is well above 5%);
* **nothing leaks**: every fault either retries clean, degrades to a
  typed fallback or becomes a typed shed decision — ``serve`` never
  raises;
* **replay is engine-independent**: the same seed and the same plan
  produce *identical per-request outcomes* (decision, evaluation
  status, fault codes) under the serial and vectorized engines,
  because injection happens at the top-level keyed-evaluation boundary
  that both engines cross identically.
"""

from __future__ import annotations

import pytest

from repro.core.policy import DeadlinePolicy, Policy, RetryPolicy
from repro.faults import FaultPlan
from repro.serving import (
    EnergyAwareGateway,
    EnergyBudget,
    GatewayConfig,
    KVStoreAdapter,
    QuantileBudgetPolicy,
    zip_arrivals,
)
from repro.sim.rng import RngFactory
from repro.workloads import kv_request_trace, poisson_arrivals

from conftest import print_header

pytestmark = pytest.mark.fast

SEED = 42
RATE = 120.0              # requests / second
HORIZON = 5.0             # seconds of traffic
FAULT_RATE = 0.05         # per-site injection probability
BUDGET_J, REFILL_W = 0.5, 0.25
ENGINES = ("serial", "vector")


def _workload():
    factory = RngFactory(SEED)
    times = poisson_arrivals(RATE, HORIZON, factory)
    requests = kv_request_trace(len(times), factory.stream("trace"),
                                put_fraction=0.8)
    return zip_arrivals(times, requests)


def _run(engine: str):
    adapter = KVStoreAdapter(value_bytes=64 * 1024)
    budget = EnergyBudget("node", capacity_joules=BUDGET_J,
                          refill_watts=REFILL_W)
    policy = Policy(mc_engine=engine,
                    retry=RetryPolicy(max_attempts=3),
                    deadline=DeadlinePolicy(timeout_s=0.5))
    gateway = EnergyAwareGateway(
        adapter, budget, QuantileBudgetPolicy(),
        config=GatewayConfig(policy=policy))
    gateway.inject_faults(FaultPlan.uniform(FAULT_RATE, entropy=SEED))
    report = gateway.serve(_workload(), horizon=HORIZON)
    outcomes = [(r.request_id, r.decision, r.eval_status,
                 tuple(r.eval_faults))
                for r in gateway.metrics.records]
    return report, outcomes


def _experiment():
    reports, outcomes = {}, {}
    for engine in ENGINES:
        reports[engine], outcomes[engine] = _run(engine)
    base = reports["vector"]
    return {
        "offered": base.offered,
        "goodput": base.goodput,
        "eval_degraded": base.eval_degraded,
        "eval_rejected": base.eval_rejected,
        "faults_injected": int(base.fault_stats["total_injected"]),
        "serial_matches": outcomes["serial"] == outcomes["vector"],
        "_reports": reports,
    }


def test_degradation_holds_goodput(run_once):
    result = run_once(
        _experiment,
        seed=SEED, fault_rate=FAULT_RATE, rate_rps=RATE,
        horizon_s=HORIZON)

    print_header("S3: serving under a 5% seeded fault plan")
    print(f"offered {result['offered']} requests at {RATE:.0f}/s; "
          f"{result['faults_injected']} faults injected")
    for engine in ENGINES:
        report = result["_reports"][engine]
        print(f"  {engine:<8} goodput {report.goodput:6.1%}  "
              f"degraded {report.eval_degraded:3d}  "
              f"rejected {report.eval_rejected:3d}")

    # Faults actually flowed (otherwise the experiment proves nothing).
    assert result["faults_injected"] > 0, "the fault plan never fired"

    # Goodput holds on every engine despite the injections.
    for engine in ENGINES:
        goodput = result["_reports"][engine].goodput
        assert goodput >= 0.9, (
            f"{engine}: goodput {goodput:.1%} under the 5% fault plan — "
            f"degradation failed to hold the 90% line")

    # Same seed + same plan => identical per-request outcomes everywhere.
    assert result["serial_matches"], (
        "serial and vector engines disagree on per-request outcomes "
        "under an identical fault plan — the replay contract is broken")
