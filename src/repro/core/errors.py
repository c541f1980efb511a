"""Exception hierarchy for the energy-interfaces framework.

Every error raised by :mod:`repro` derives from :class:`ReproError` so
callers can catch framework errors without masking programming mistakes.
Each class carries a stable :attr:`~ReproError.code` string — the same
identifiers the lint/trace JSON schemas use (compare the rule IDs of
:mod:`repro.analysis.lint`), so an error serialised by
:meth:`ReproError.to_dict` can land in the same tooling pipeline as a
lint finding or a divergence report.

Historically the root was called ``EnergyError``; it remains as an alias
subclass of :class:`ReproError`, and a handful of ad-hoc
``ValueError``/``RuntimeError`` raises across ``sim`` and ``analysis``
were migrated to typed subclasses that *also* inherit the builtin they
replaced (:class:`SimTimeError`, :class:`EventStateError`,
:class:`IntervalError`) — existing ``except ValueError`` handlers keep
working, which is the deprecation shim.
"""

from __future__ import annotations

from typing import Any

__all__ = [
    "ReproError",
    "EnergyError",
    "UnitMismatchError",
    "UnknownECVError",
    "ECVBindingError",
    "EvaluationError",
    "BudgetExceeded",
    "FaultInjected",
    "DeadlineExceeded",
    "DegradedResult",
    "ContractViolation",
    "CompositionError",
    "ExtractionError",
    "SymbolicExecutionError",
    "LintError",
    "RegressError",
    "MeasurementError",
    "CalibrationStale",
    "HardwareError",
    "SchedulerError",
    "WorkloadError",
    "ServingError",
    "BudgetError",
    "SimulationError",
    "SimTimeError",
    "EventStateError",
    "IntervalError",
    "ERROR_CODES",
]


class ReproError(Exception):
    """Base class for all errors raised by the repro framework.

    :attr:`code` is a stable machine-readable identifier (never renamed
    once released) shared with the lint/trace JSON conventions;
    :attr:`severity` feeds the same ``error``/``warning`` levels the
    SARIF export uses.
    """

    code: str = "repro-error"
    severity: str = "error"

    def to_dict(self) -> dict[str, Any]:
        """A JSON-friendly rendering matching the lint finding schema."""
        return {
            "code": self.code,
            "severity": self.severity,
            "kind": type(self).__name__,
            "message": str(self),
        }


class EnergyError(ReproError):
    """Historical root of the hierarchy; kept as a compatibility alias."""

    code = "energy-error"


class UnitMismatchError(EnergyError):
    """Raised when combining abstract energies over incompatible units."""

    code = "unit-mismatch"


class UnknownECVError(EnergyError):
    """Raised when an interface reads an ECV that is neither declared nor bound."""

    code = "unknown-ecv"


class ECVBindingError(EnergyError):
    """Raised when an ECV binding is malformed (e.g. probability out of range)."""

    code = "ecv-binding"


class EvaluationError(EnergyError):
    """Raised when an energy interface cannot be evaluated."""

    code = "evaluation"


class BudgetExceeded(EvaluationError):
    """Raised when an evaluation or energy budget is exhausted.

    Subclasses :class:`EvaluationError` so pre-existing handlers around
    budgeted evaluations (``AccountingHook``) keep catching it.
    """

    code = "budget-exceeded"


class FaultInjected(EvaluationError):
    """Raised by the fault-injection layer (:mod:`repro.faults`).

    ``site`` names the injection point (``"interface"``, ``"ecv"``,
    ``"hardware"``, ``"fleet.replica"``, ...) so degradation handlers
    and reports can attribute the failure.
    """

    code = "fault-injected"

    def __init__(self, message: str = "injected fault",
                 site: str | None = None) -> None:
        super().__init__(message)
        self.site = site

    def to_dict(self) -> dict[str, Any]:
        data = super().to_dict()
        data["site"] = self.site
        return data


class DeadlineExceeded(EvaluationError):
    """Raised when an evaluation overruns its configured deadline."""

    code = "deadline-exceeded"

    def __init__(self, message: str = "deadline exceeded",
                 deadline_s: float | None = None,
                 elapsed_s: float | None = None) -> None:
        super().__init__(message)
        self.deadline_s = deadline_s
        self.elapsed_s = elapsed_s


class ContractViolation(EnergyError):
    """Raised when an implementation violates an energy contract."""

    code = "contract-violation"


class CompositionError(EnergyError):
    """Raised when energy interfaces cannot be composed (missing layer, cycle)."""

    code = "composition"


class ExtractionError(EnergyError):
    """Raised when the analysis toolchain cannot extract an interface."""

    code = "extraction"


class SymbolicExecutionError(ExtractionError):
    """Raised when the symbolic executor meets an unsupported construct."""

    code = "symbolic-execution"


class LintError(EnergyError):
    """Raised by the static energy linter on unusable targets or specs."""

    code = "lint"


class RegressError(LintError):
    """Raised by the differential regression checker: unreadable
    fingerprint baselines, bad commit ranges, or git failures during
    bisection."""

    code = "regress"


class MeasurementError(EnergyError):
    """Raised by simulated measurement channels (NVML/RAPL) on misuse."""

    code = "measurement"


class CalibrationStale(MeasurementError):
    """Typed degradation: a calibrated model no longer matches the device.

    Raised by the calibration guard (:mod:`repro.calibration`) when the
    EWMA of prediction-vs-measurement residuals exceeds the configured
    tolerance — the hardware has drifted past what the frozen unit
    energies can explain.  Consumers (gateway/fleet admission) catch it
    and either widen their worst-case bounds or reject, accounting the
    degradation on their reports; it travels the same fault/policy
    ladder as :class:`FaultInjected`.
    """

    code = "calibration-stale"

    def __init__(self, message: str = "calibration is stale",
                 residual: float | None = None,
                 tolerance: float | None = None,
                 epoch: int | None = None) -> None:
        super().__init__(message)
        self.residual = residual
        self.tolerance = tolerance
        self.epoch = epoch

    def to_dict(self) -> dict[str, Any]:
        data = super().to_dict()
        data["residual"] = self.residual
        data["tolerance"] = self.tolerance
        data["epoch"] = self.epoch
        return data


class HardwareError(EnergyError):
    """Raised by the simulated hardware substrate on invalid operations."""

    code = "hardware"


class SchedulerError(EnergyError):
    """Raised by resource managers (schedulers) on invalid placement requests."""

    code = "scheduler"


class WorkloadError(EnergyError):
    """Raised by workload generators on invalid parameters."""

    code = "workload"


class ServingError(EnergyError):
    """Raised by the serving gateway on invalid configuration or state."""

    code = "serving"


class BudgetError(ServingError):
    """Raised on malformed budget specs or invalid budget operations."""

    code = "budget"


class DegradedResult(ServingError):
    """Typed error carrying a degraded answer when exactness was required.

    Raised by the graceful-degradation ladder when it could only produce
    a fallback estimate (a cached value or a worst-mode bound) and the
    caller asked for strict evaluation.  ``value`` is the degraded
    estimate, ``tier`` names the ladder rung that produced it
    (``"cache"`` or ``"bound"``).
    """

    code = "degraded-result"
    severity = "warning"

    def __init__(self, message: str, value: Any = None,
                 tier: str | None = None) -> None:
        super().__init__(message)
        self.value = value
        self.tier = tier

    def to_dict(self) -> dict[str, Any]:
        data = super().to_dict()
        data["tier"] = self.tier
        return data


# -- migrated ad-hoc builtins -------------------------------------------------
# These double-inherit the builtin they replaced so historical
# ``except ValueError`` / ``except RuntimeError`` handlers keep working.

class SimulationError(EnergyError):
    """Raised by the discrete-event simulation core on invalid operations."""

    code = "simulation"


class SimTimeError(SimulationError, ValueError):
    """Raised when scheduling into the past or with a negative delay."""

    code = "sim-time"


class EventStateError(SimulationError, RuntimeError):
    """Raised on invalid event-lifecycle transitions (double succeed)."""

    code = "event-state"


class IntervalError(ExtractionError, ValueError):
    """Raised by the interval domain on malformed/empty intervals."""

    code = "interval"


def _collect_codes() -> dict[str, type]:
    codes: dict[str, type] = {}
    stack = [ReproError]
    while stack:
        cls = stack.pop()
        existing = codes.get(cls.code)
        if existing is not None and existing is not cls:
            raise RuntimeError(
                f"duplicate error code {cls.code!r}: {existing.__name__} "
                f"vs {cls.__name__}")
        codes[cls.code] = cls
        stack.extend(cls.__subclasses__())
    return codes


#: Stable code -> exception class registry (one code per class).
ERROR_CODES: dict[str, type] = _collect_codes()
