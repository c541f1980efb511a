"""Per-request energy attribution records and the serving summary report.

Every request the gateway touches leaves a :class:`RequestRecord`:
decision, predicted energy (expected and worst), measured ledger energy
over its execution window, and latency.  The records serve two purposes:

* **validation** — predicted-vs-ledger error per request is exactly the
  divergence signal §4.2 uses to flag energy bugs, now computed online;
* **attribution** — the records carry machine-clock windows, so
  :func:`attribution_report` can hand the ledger to
  :mod:`repro.core.attribution` and split the run's Joules (including
  static overhead) across activity tags with any of its policies.

:class:`ServingReport` is the operator-facing roll-up: admitted/shed
counts, energy against the configured allowance, p50/p99 latency and the
evaluation-cache statistics that make per-request prediction affordable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.attribution import Attribution, attribute
from repro.core.errors import ServingError
from repro.core.report import format_table
from repro.hardware.ledger import EnergyLedger

__all__ = ["RequestRecord", "ServingMetrics", "ServingReport",
           "attribution_report", "format_report"]


@dataclass
class RequestRecord:
    """The lifecycle of one request through the gateway."""

    request_id: int
    arrival_s: float
    decision: str                 # final action: admit/degrade/reject/shed
    reason: str = ""
    start_s: float | None = None       # engine time the request started
    finish_s: float | None = None      # engine time it finished
    machine_start_s: float | None = None   # machine-clock execution window
    machine_finish_s: float | None = None
    predicted_expected_j: float | None = None
    predicted_worst_j: float | None = None
    predicted_quantile_j: float | None = None
    measured_j: float | None = None
    deferrals: int = 0
    degraded: bool = False
    #: How the resilient evaluation of this request's cost went: None
    #: (no fault layer), "ok", "degraded-cache", "degraded-bound" or
    #: "rejected" (prediction impossible, request shed).
    eval_status: str | None = None
    #: Error codes met while predicting (retries and degradations).
    eval_faults: tuple = ()
    #: The calibration guard was stale when this request was decided
    #: (served with a widened bound, or rejected outright).
    calibration_stale: bool = False

    @property
    def admitted(self) -> bool:
        """True when the request actually ran (possibly degraded)."""
        return self.finish_s is not None

    @property
    def latency_s(self) -> float | None:
        """Arrival-to-completion seconds (None when shed)."""
        if self.finish_s is None:
            return None
        return self.finish_s - self.arrival_s

    @property
    def prediction_error(self) -> float | None:
        """Relative expected-vs-measured error (None without both)."""
        if (self.measured_j is None or self.predicted_expected_j is None
                or self.measured_j <= 0.0):
            return None
        return (abs(self.predicted_expected_j - self.measured_j)
                / self.measured_j)


@dataclass(frozen=True)
class ServingReport:
    """The roll-up of one serving run."""

    horizon_s: float
    offered: int
    admitted: int
    degraded: int
    rejected: int
    shed_queue_full: int
    deferred_total: int
    ledger_joules: float
    allowance_joules: float
    predicted_joules: float
    mean_prediction_error: float | None
    p50_latency_s: float | None
    p99_latency_s: float | None
    cache_stats: dict[str, float] = field(default_factory=dict)
    #: Name of the Monte Carlo engine that produced the predictions
    #: ("serial" or "vector"); None for legacy runs.
    mc_engine: str | None = None
    #: Requests served off a degraded prediction (cache/bound tier).
    eval_degraded: int = 0
    #: Requests shed because prediction failed past the whole ladder.
    eval_rejected: int = 0
    #: Fault-injection statistics from the session's fault hook, when a
    #: chaos run installed one (injected counts per site).
    fault_stats: dict[str, float] = field(default_factory=dict)
    #: Requests decided while the calibration guard was stale (served
    #: with widened bounds or rejected — never silently).
    calibration_stale: int = 0
    #: The subset of stale-calibration requests that were rejected.
    calibration_rejected: int = 0

    @property
    def goodput(self) -> float:
        """Fraction of offered requests that received useful service.

        The chaos benchmark's acceptance metric: a request counts as
        goodput when it actually ran — possibly on a degraded variant or
        off a degraded prediction, but *served*.
        """
        if self.offered == 0:
            return 1.0
        return self.admitted / self.offered

    @property
    def budget_utilisation(self) -> float:
        """Measured energy over the configured allowance."""
        if self.allowance_joules <= 0:
            return float("inf") if self.ledger_joules > 0 else 0.0
        return self.ledger_joules / self.allowance_joules

    @property
    def within_budget(self) -> bool:
        """Did the run stay inside its energy envelope (5% tolerance)?"""
        return self.ledger_joules <= 1.05 * self.allowance_joules


class ServingMetrics:
    """Collects request records during a run and rolls them up."""

    def __init__(self) -> None:
        self.records: list[RequestRecord] = []
        self.shed_queue_full = 0
        self.deferred_total = 0
        self.window: tuple[float, float] | None = None  # machine clock

    def add(self, record: RequestRecord) -> RequestRecord:
        self.records.append(record)
        return record

    # -- roll-up ---------------------------------------------------------------
    def summary(self, horizon_s: float, ledger_joules: float,
                allowance_joules: float,
                cache_stats: dict[str, float] | None = None,
                mc_engine: str | None = None,
                fault_stats: dict[str, float] | None = None
                ) -> ServingReport:
        """Build the :class:`ServingReport` for a finished run."""
        admitted = [r for r in self.records if r.admitted]
        latencies = sorted(r.latency_s for r in admitted)
        errors = [r.prediction_error for r in admitted
                  if r.prediction_error is not None]
        predicted = sum(r.predicted_expected_j or 0.0 for r in admitted)
        return ServingReport(
            horizon_s=horizon_s,
            offered=len(self.records),
            admitted=len(admitted),
            degraded=sum(1 for r in admitted if r.degraded),
            rejected=sum(1 for r in self.records
                         if r.decision == "reject" and not r.admitted),
            shed_queue_full=self.shed_queue_full,
            deferred_total=self.deferred_total,
            ledger_joules=ledger_joules,
            allowance_joules=allowance_joules,
            predicted_joules=predicted,
            mean_prediction_error=(float(np.mean(errors)) if errors else None),
            p50_latency_s=(float(np.percentile(latencies, 50))
                           if latencies else None),
            p99_latency_s=(float(np.percentile(latencies, 99))
                           if latencies else None),
            cache_stats=dict(cache_stats or {}),
            mc_engine=mc_engine,
            eval_degraded=sum(1 for r in self.records
                              if r.eval_status in ("degraded-cache",
                                                   "degraded-bound")),
            eval_rejected=sum(1 for r in self.records
                              if r.eval_status == "rejected"),
            fault_stats=dict(fault_stats or {}),
            calibration_stale=sum(1 for r in self.records
                                  if r.calibration_stale),
            calibration_rejected=sum(1 for r in self.records
                                     if r.calibration_stale
                                     and r.decision == "reject"
                                     and not r.admitted),
        )


def attribution_report(ledger: EnergyLedger, metrics: ServingMetrics,
                       policy: str = "proportional") -> Attribution:
    """Attribute the run's ledger window across activity tags.

    Delegates to :func:`repro.core.attribution.attribute` over the
    machine-clock window the gateway recorded, so static overhead is
    apportioned by the chosen policy exactly as offline analyses do.
    """
    if metrics.window is None:
        raise ServingError(
            "no serving window recorded; run the gateway before attributing")
    t0, t1 = metrics.window
    return attribute(ledger, t0, t1, policy=policy)


def _fmt_opt(value: float | None, suffix: str = "",
             scale: float = 1.0) -> str:
    if value is None:
        return "n/a"
    return f"{value * scale:.4g}{suffix}"


def format_report(report: ServingReport, title: str = "serving report"
                  ) -> str:
    """Render a report as the repository's plain-text table format."""
    rows = [
        ["offered requests", str(report.offered)],
        ["admitted", str(report.admitted)],
        ["  of which degraded", str(report.degraded)],
        ["rejected (policy)", str(report.rejected)],
        ["shed (queue full)", str(report.shed_queue_full)],
        ["deferrals", str(report.deferred_total)],
        ["ledger energy", f"{report.ledger_joules:.4g} J"],
        ["energy allowance", f"{report.allowance_joules:.4g} J"],
        ["budget utilisation", f"{report.budget_utilisation:.1%}"],
        ["predicted (admitted)", f"{report.predicted_joules:.4g} J"],
        ["mean prediction error",
         _fmt_opt(report.mean_prediction_error, "%", 100.0)],
        ["p50 latency", _fmt_opt(report.p50_latency_s, " ms", 1e3)],
        ["p99 latency", _fmt_opt(report.p99_latency_s, " ms", 1e3)],
    ]
    if report.cache_stats:
        rows.append(["eval-cache hit rate",
                     f"{report.cache_stats.get('hit_rate', 0.0):.1%}"])
        rows.append(["eval-cache lookups",
                     str(int(report.cache_stats.get('lookups', 0)))])
    if report.mc_engine is not None:
        rows.append(["mc engine", report.mc_engine])
    if report.fault_stats:
        rows.append(["goodput", f"{report.goodput:.1%}"])
        rows.append(["degraded predictions", str(report.eval_degraded)])
        rows.append(["rejected predictions", str(report.eval_rejected)])
        rows.append(["faults injected",
                     str(int(report.fault_stats.get("total_injected", 0)))])
    if report.calibration_stale:
        rows.append(["stale-calibration requests",
                     str(report.calibration_stale)])
        rows.append(["  of which rejected",
                     str(report.calibration_rejected)])
    return format_table(["metric", "value"], rows, title=title)
