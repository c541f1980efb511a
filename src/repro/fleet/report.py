"""The fleet-wide roll-up: one report over every replica's run.

A :class:`FleetReport` aggregates the per-replica
:class:`~repro.serving.metrics.ServingReport` objects plus everything
only the fleet can see: balancer dispatch counts, lease/gossip traffic,
crash and backpressure totals, and — the headline numbers — fleet
goodput per Joule and the per-tenant budget-invariant check.  The report
is a frozen value object with a canonical JSON form, so two runs compare
by :meth:`digest` — the S4 benchmark's bitwise-replay assertion is one
string equality.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field

from repro.core.report import format_table
from repro.serving.metrics import ServingReport, _fmt_opt

__all__ = ["FleetReport", "format_fleet_report"]


@dataclass(frozen=True)
class FleetReport:
    """The roll-up of one fleet serving run."""

    horizon_s: float
    n_replicas: int
    balancer: str
    offered: int
    admitted: int
    #: Requests whose worst-case energy no lease could cover.
    rejected: int
    #: Requests lost from a crashed replica's in-memory queue.
    shed_crash: int
    #: Requests arriving while no replica was accepting.
    shed_no_replica: int
    #: Dispatcher stalls because every live replica's queue was full.
    backpressure_waits: int
    measured_joules: float
    predicted_joules: float
    #: Sum over tenants of ``capacity + refill * horizon`` — the global
    #: envelope the invariant is checked against.
    allowance_joules: float
    p50_latency_s: float | None
    p99_latency_s: float | None
    #: Per-tenant overdraw beyond the allowance (Joules); empty when the
    #: fleet-wide budget invariant held.
    violations: dict[str, float] = field(default_factory=dict)
    #: First-choice dispatches per replica index (balancer decisions).
    dispatch_counts: tuple[int, ...] = ()
    replica_crashes: int = 0
    lease_renewal_faults: int = 0
    #: Requests decided while a replica's calibration guard was stale
    #: (served with widened bounds or shed — accounted, never silent).
    calibration_stale: int = 0
    #: The subset of stale-calibration requests that were shed.
    calibration_rejected: int = 0
    #: Coordinator gossip statistics (grants, denials, returned joules).
    lease_stats: dict[str, float] = field(default_factory=dict)
    replica_reports: tuple[ServingReport, ...] = ()

    @property
    def goodput(self) -> float:
        """Fraction of offered requests actually served."""
        if self.offered == 0:
            return 1.0
        return self.admitted / self.offered

    @property
    def goodput_per_j(self) -> float:
        """Served requests per measured Joule — the fleet's efficiency."""
        if self.measured_joules <= 0:
            return 0.0
        return self.admitted / self.measured_joules

    @property
    def within_budget(self) -> bool:
        """Did every tenant stay inside its fleet-wide allowance?"""
        return not self.violations

    # -- canonical form -------------------------------------------------------
    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent)

    def digest(self) -> str:
        """sha256 over the canonical JSON: the bitwise-replay fingerprint."""
        return hashlib.sha256(self.to_json().encode("utf-8")).hexdigest()


def format_fleet_report(report: FleetReport,
                        title: str = "fleet report") -> str:
    """Render a fleet report as the repository's plain-text table."""
    rows = [
        ["replicas", str(report.n_replicas)],
        ["balancer", report.balancer],
        ["horizon", f"{report.horizon_s:.4g} s"],
        ["offered requests", str(report.offered)],
        ["admitted", str(report.admitted)],
        ["rejected (budget)", str(report.rejected)],
        ["shed (crash)", str(report.shed_crash)],
        ["shed (no replica)", str(report.shed_no_replica)],
        ["backpressure waits", str(report.backpressure_waits)],
        ["goodput", f"{report.goodput:.1%}"],
        ["measured energy", f"{report.measured_joules:.4g} J"],
        ["fleet allowance", f"{report.allowance_joules:.4g} J"],
        ["goodput / J", f"{report.goodput_per_j:.4g} req/J"],
        ["p50 latency", _fmt_opt(report.p50_latency_s, " ms", 1e3)],
        ["p99 latency", _fmt_opt(report.p99_latency_s, " ms", 1e3)],
        ["budget violations", str(len(report.violations))],
        ["replica crashes", str(report.replica_crashes)],
        ["lease renewal faults", str(report.lease_renewal_faults)],
    ]
    if report.calibration_stale:
        rows.append(["stale-calibration requests",
                     str(report.calibration_stale)])
        rows.append(["  of which shed", str(report.calibration_rejected)])
    if report.lease_stats:
        rows.append(["lease grants",
                     str(int(report.lease_stats.get("grants", 0)))])
        rows.append(["lease denials",
                     str(int(report.lease_stats.get("denials", 0)))])
    if report.dispatch_counts:
        spread = ", ".join(str(c) for c in report.dispatch_counts)
        rows.append(["dispatches/replica", spread])
    return format_table(["metric", "value"], rows, title=title)
