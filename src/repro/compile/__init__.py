"""Interface compilation: partial evaluation to analytic/kernel forms.

The ROADMAP's "compile energy interfaces" item (§5): a partial evaluator
over the symbolic-expression toolchain that turns an interface method
plus bound ECV distributions into a
:class:`~repro.compile.compiler.CompiledInterface` — an exact analytic
output distribution where the body is affine, a numpy kernel where it
is not (straight-line and bitwise equal to the vector Monte Carlo
engine when branch-free; predicated, with branches on continuous ECVs
as masks and Python's scalar operator semantics, bitwise equal to the
per-sample loop, deferring to sampling when a sample takes a raising
guard arm), and an honest fallback to sampling where the body defeats
tracing.  See :mod:`repro.compile.tracer` (partial evaluation),
:mod:`repro.compile.analytic` (closed forms),
:mod:`repro.compile.compiler` (tier classification, codegen, caching)
and :mod:`repro.compile.backend` (the ``"compiled"``
:class:`~repro.core.predict.PredictionBackend`).

Importing this package registers the ``"compiled"`` backend (sessions
resolve it lazily by name) and teaches
:class:`~repro.core.units.Energy` to carry symbolic expressions, which
is what lets unit-constructor scalings (``Energy.nanojoules(x)``) record
exactly during tracing.
"""

from repro.analysis.expr import Expr
from repro.compile.analytic import (
    AnalyticDistribution,
    leaf_distribution,
    leaf_interval,
)
from repro.compile.backend import CompiledBackend
from repro.compile.compiler import (
    CompileCache,
    CompiledCall,
    CompiledInterface,
    KernelDeferred,
    compile_call,
)
from repro.compile.tracer import (
    TracedPath,
    TracedProgram,
    UntraceableBody,
    trace_call,
)
from repro.core.predict import register_backend
from repro.core.units import register_symbolic_carrier

__all__ = [
    "AnalyticDistribution",
    "CompileCache",
    "CompiledBackend",
    "CompiledCall",
    "CompiledInterface",
    "KernelDeferred",
    "TracedPath",
    "TracedProgram",
    "UntraceableBody",
    "compile_call",
    "leaf_distribution",
    "leaf_interval",
    "trace_call",
]

register_symbolic_carrier(Expr)

#: The shared default backend instance behind ``backend="compiled"`` —
#: one process-wide compile cache, like the shared engine singletons.
DEFAULT_BACKEND = register_backend(CompiledBackend())
