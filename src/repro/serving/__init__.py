"""Energy-aware serving: online admission control against energy budgets.

The paper's energy interfaces answer "how much would this cost?" *before*
execution; this package turns that into a serving-time control loop:

* :mod:`repro.serving.budget` — replenishing, hierarchical energy token
  buckets composed along the Fig. 2 stack;
* :mod:`repro.serving.admission` — pluggable admit/degrade/defer/reject
  policies over predicted costs;
* :mod:`repro.serving.adapters` — bridges to the repository's apps
  (ML web service, flash KV store, GPT-2 runtime);
* :mod:`repro.serving.gateway` — the request lifecycle (queueing,
  backpressure, shedding) on the discrete-event engine;
* :mod:`repro.serving.metrics` — per-request attribution records and the
  operator report.
"""

from repro.core.session import ecv_fingerprint, env_fingerprint
from repro.serving.adapters import (
    GPT2Adapter,
    KVStoreAdapter,
    MLServiceAdapter,
    ServiceAdapter,
    build_adapter,
)
from repro.serving.admission import (
    ADMIT,
    DEFER,
    DEGRADE,
    REJECT,
    AdmissionContext,
    AdmissionDecision,
    AdmissionPolicy,
    AdmitAllPolicy,
    HardBudgetPolicy,
    ProbabilisticPolicy,
    QuantileBudgetPolicy,
    SLOAwarePolicy,
)
from repro.serving.budget import (
    BudgetManager,
    BudgetSpec,
    EnergyBudget,
    parse_budget_spec,
)
from repro.serving.gateway import EnergyAwareGateway, GatewayConfig, zip_arrivals
from repro.serving.metrics import (
    RequestRecord,
    ServingMetrics,
    ServingReport,
    attribution_report,
    format_report,
)

__all__ = [
    "ServiceAdapter", "MLServiceAdapter", "KVStoreAdapter", "GPT2Adapter",
    "build_adapter",
    "ADMIT", "REJECT", "DEFER", "DEGRADE",
    "AdmissionContext", "AdmissionDecision", "AdmissionPolicy",
    "AdmitAllPolicy", "HardBudgetPolicy", "ProbabilisticPolicy",
    "QuantileBudgetPolicy", "SLOAwarePolicy",
    "BudgetSpec", "parse_budget_spec", "EnergyBudget", "BudgetManager",
    "ecv_fingerprint", "env_fingerprint",
    "EnergyAwareGateway", "GatewayConfig", "zip_arrivals",
    "RequestRecord", "ServingMetrics", "ServingReport",
    "attribution_report", "format_report",
]
