"""Core energy-interface framework.

This package implements the paper's primary contribution: energy
interfaces as executable programs (:mod:`~repro.core.interface`), the
value types they compute with (:mod:`~repro.core.units`,
:mod:`~repro.core.distributions`), energy-critical variables
(:mod:`~repro.core.ecv`), composition across the layered system stack
(:mod:`~repro.core.composition`, :mod:`~repro.core.stack`) and energy
contracts (:mod:`~repro.core.contracts`).
"""

from repro.core.attribution import POLICIES, Attribution, attribute
from repro.core.carbon import (
    CarbonAwareScheduler,
    CarbonIntensitySignal,
    SchedulingChoice,
    carbon_of,
    diurnal_grid,
)
from repro.core.composition import (
    BoundInterface,
    OverheadInterface,
    SequenceInterface,
)
from repro.core.contracts import (
    BudgetContract,
    ConstantEnergyContract,
    ContractReport,
    UpperBoundContract,
    check_refinement,
)
from repro.core.distributions import (
    Discrete,
    Empirical,
    EnergyDistribution,
    IndependentSum,
    Mixture,
    Normal,
    PointMass,
    Scaled,
    Uniform,
    as_distribution,
)
from repro.core.ecv import (
    ECV,
    BernoulliECV,
    CategoricalECV,
    ContinuousECV,
    ECVEnvironment,
    FixedECV,
    UniformIntECV,
)
from repro.core.errors import (
    ERROR_CODES,
    BudgetExceeded,
    CompositionError,
    ContractViolation,
    DeadlineExceeded,
    DegradedResult,
    ECVBindingError,
    EnergyError,
    EvaluationError,
    ExtractionError,
    FaultInjected,
    HardwareError,
    MeasurementError,
    ReproError,
    SchedulerError,
    ServingError,
    UnitMismatchError,
    UnknownECVError,
)
from repro.core.interface import (
    EnergyCall,
    EnergyInterface,
    TraceOutcome,
    active_session,
    enumerate_traces,
    evaluate,
)
from repro.core.policy import (
    DeadlinePolicy,
    DegradePolicy,
    Policy,
    RetryPolicy,
)
from repro.core.power import Power, ProvisioningReport, as_watts, provision
from repro.core.session import (
    AccountingHook,
    EvalHook,
    EvalSession,
    EvalSpan,
    MemoHook,
    SpanRecorder,
    chrome_trace,
    layer_breakdown,
    render_span_tree,
)
from repro.core.report import (
    describe_interface,
    format_comparison,
    format_table,
    render_stack,
)
from repro.core.stack import Layer, Resource, ResourceManager, SystemStack
from repro.core.units import ZERO, AbstractEnergy, Energy, Unit, as_joules

__all__ = [
    # units
    "Energy", "AbstractEnergy", "Unit", "ZERO", "as_joules",
    # distributions
    "EnergyDistribution", "PointMass", "Discrete", "Uniform", "Normal",
    "Empirical", "Mixture", "IndependentSum", "Scaled", "as_distribution",
    # ecv
    "ECV", "BernoulliECV", "CategoricalECV", "FixedECV", "UniformIntECV",
    "ContinuousECV", "ECVEnvironment",
    # interface
    "EnergyInterface", "EnergyCall", "TraceOutcome", "evaluate",
    "enumerate_traces", "active_session",
    # session / spans
    "EvalSession", "EvalHook", "MemoHook", "SpanRecorder", "AccountingHook",
    "EvalSpan", "render_span_tree", "chrome_trace", "layer_breakdown",
    # composition / stack
    "BoundInterface", "OverheadInterface", "SequenceInterface",
    "Resource", "ResourceManager", "Layer", "SystemStack",
    # contracts
    "UpperBoundContract", "BudgetContract", "ConstantEnergyContract",
    "ContractReport", "check_refinement",
    # power / attribution
    "Power", "as_watts", "provision", "ProvisioningReport",
    "Attribution", "attribute", "POLICIES",
    # carbon
    "CarbonIntensitySignal", "diurnal_grid", "carbon_of",
    "CarbonAwareScheduler", "SchedulingChoice",
    # report
    "describe_interface", "format_table", "format_comparison",
    "render_stack",
    # policy
    "Policy", "RetryPolicy", "DeadlinePolicy", "DegradePolicy",
    # errors
    "ReproError", "EnergyError", "UnitMismatchError", "UnknownECVError",
    "ECVBindingError", "EvaluationError", "ContractViolation",
    "CompositionError", "ExtractionError", "HardwareError",
    "MeasurementError", "SchedulerError", "ServingError", "BudgetExceeded",
    "FaultInjected", "DeadlineExceeded", "DegradedResult", "ERROR_CODES",
]
