"""Partial evaluation of energy methods over symbolic ECV reads.

The compiler's front end: run an ``E_*`` body once (or once per
enumerated discrete trace, or once per predicated path) with
:class:`~repro.analysis.expr.ECVLeaf` expressions substituted for
``self.ecv(name)`` reads, and record the closed-form expression the
method computes.  Three passes, each tried only when the one before it
failed:

1. **Straight-line pass** — *every* ECV read returns a symbolic leaf
   keyed ``(qualified name, occurrence)``, exactly the column keying of
   the batched Monte Carlo engine
   (:class:`~repro.core.mcengine._BatchContext`).  A body that completes
   is branch-free over its ECVs: one expression covers all sample paths,
   and evaluating it over the engine's deterministic columns reproduces
   the vectorized draws bitwise.
2. **Enumerated pass** — bodies that branch on an ECV raise on the
   symbolic value (``Expr.__bool__``); the fallback enumerates the
   *discrete* ECVs by forced-choice replay — the same worklist
   discipline as :func:`repro.core.interface.enumerate_traces`, so path
   order and probability products match the exact evaluator bitwise —
   while continuous ECVs stay symbolic.
3. **Predicated pass** — a body that branches on a continuous value.
   Every ECV read is a column leaf again, and ``bool()`` of a symbolic
   ``<``, ``<=``, ``>`` or ``>=`` comparison forks: the tracer answers
   it through :func:`~repro.analysis.expr.tracing`, records the
   comparison and its outcome on the path, and queues the other outcome
   by the same forced-choice worklist.  Each path then carries the
   predicates a sample must satisfy to take it; the compiler turns them
   into masks.  A path on which the body raises a typed error (or an
   arithmetic one) becomes a *guard*: the kernel defers to sampling when
   any sample lands on it, so the error comes from the same code as
   before.  ``==``/``!=``, a bare leaf's truthiness, ``math.*`` on a
   leaf and other coercions still defeat the pass, and the call stays
   in the sampled tier.

All passes bypass session hooks entirely: tracing is compilation, not
evaluation — no spans, no accounting, no memo writes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.analysis.expr import BinOp, Compare, ECVLeaf, Expr, tracing
from repro.core.ecv import ECVEnvironment
from repro.core.errors import EvaluationError, ExtractionError, ReproError
from repro.core.interface import (
    EnergyCall,
    _BaseContext,
    _run_in_context,
)
from repro.core.units import AbstractEnergy, Energy

__all__ = ["TracedPath", "TracedProgram", "UntraceableBody", "trace_call"]

#: Cap on enumerated compile-time traces; mirrors the evaluator's
#: default budget (the compiled form must not enumerate more than the
#: interpreter would).
MAX_COMPILE_TRACES = 4096

#: The comparisons the predicated pass forks on.  Equality on a
#: continuous draw is a measure-zero event the kernel could only get
#: right by accident, so ``==``/``!=`` stay untraceable.
_FORKING_OPS = frozenset({"<", "<=", ">", ">="})


class UntraceableBody(ReproError):
    """The method body cannot be partially evaluated (tests a symbolic
    value for equality or truth, coerces one, returns an unsupported
    type, ...).  Carries the reason for the compile report."""

    code = "E_COMPILE_TRACE"


@dataclass
class TracedPath:
    """One traced control-flow path through an energy method.

    ``expr`` is the symbolic Joules expression when the path read any
    symbolic (continuous or straight-line) ECVs; ``value`` is the
    concrete Joules figure when it did not.  ``probability`` multiplies
    the discrete forced choices in read order, exactly as the exact
    enumerator does.  A predicated path lists the ``(comparison,
    outcome)`` pairs a sample must satisfy to take it, in the order the
    body asked them; ``guard`` holds ``"ErrorType: message"`` when the
    body raised on this path instead of returning.  ``discarded`` lists
    the partial operations (``/``, ``//``, ``%``, ``**``) the path
    computed on symbolic values but used in neither its result nor a
    predicate: per sample they can still raise, so the kernel evaluates
    them too.
    """

    probability: float
    expr: Expr | None
    value: float | None
    leaves: dict[str, ECVLeaf] = field(default_factory=dict)
    choices: tuple = ()
    predicates: tuple[tuple[Compare, bool], ...] = ()
    guard: str | None = None
    discarded: tuple[BinOp, ...] = ()


@dataclass
class TracedProgram:
    """All traced paths of one energy call plus their symbolic leaves."""

    call: EnergyCall
    paths: list[TracedPath]
    #: Union of every path's leaves, in first-read order.
    leaves: dict[str, ECVLeaf]
    #: True when the straight-line pass succeeded (single branch-free
    #: path — the precondition for the bitwise kernel tier).
    straight_line: bool

    @property
    def predicated(self) -> bool:
        """Whether the paths are selected by continuous predicates."""
        return any(path.predicates for path in self.paths)

    @property
    def total_probability(self) -> float:
        return sum(path.probability for path in self.paths)


class _CompileContext(_BaseContext):
    """Evaluation context used during partial evaluation.

    ``symbolic_discrete=True`` is the straight-line pass: all reads
    yield leaves.  Otherwise discrete reads are enumerated by forced
    choice (``forced`` replays a prefix; alternatives are queued on
    ``unexplored`` in the exact evaluator's order) and only continuous
    reads stay symbolic.  The predicated pass reads leaves too, installs
    the context as the expression tracer, and ``forced`` replays
    comparison outcomes instead (see :meth:`decide`).
    """

    def __init__(self, env: ECVEnvironment, forced: list[tuple[str, Any]],
                 symbolic_discrete: bool) -> None:
        super().__init__(env, session=None)
        self._forced = forced
        self._symbolic_discrete = symbolic_discrete
        self._choices: list[tuple[str, int]] = []
        self._occurrence: dict[str, int] = {}
        self.probability = 1.0
        self.unexplored: list[list[tuple[str, Any]]] = []
        self.leaves: dict[str, ECVLeaf] = {}
        self.predicates: list[tuple[Compare, bool]] = []
        self.partial_ops: list[BinOp] = []

    def note(self, operation: BinOp) -> None:
        """Record a partial operation built on a symbolic value."""
        self.partial_ops.append(operation)

    def decide(self, compare: Compare) -> bool:
        """Fork on a symbolic comparison (the predicated pass's oracle).

        ``forced`` replays a prefix of ``(rendered comparison, outcome)``
        decisions; past it the true outcome is taken and the false one
        queued, the worklist discipline of the discrete enumeration.
        """
        if compare.op not in _FORKING_OPS:
            raise ExtractionError(
                f"symbolic comparison {compare!r} cannot fork; only "
                f"{sorted(_FORKING_OPS)} comparisons become predicates")
        rendered = compare.render()
        position = len(self.predicates)
        if position < len(self._forced):
            expected, outcome = self._forced[position]
            if expected != rendered:
                raise UntraceableBody(
                    f"non-deterministic interface: predicate {rendered} "
                    f"replayed where {expected} was recorded")
        else:
            outcome = True
            self.unexplored.append(
                [(c.render(), taken) for c, taken in self.predicates]
                + [(rendered, False)])
        self.predicates.append((compare, outcome))
        return outcome

    def _leaf(self, owner: Any, qualified: str, ecv: Any) -> ECVLeaf:
        occurrence = self._occurrence.get(qualified, 0)
        self._occurrence[qualified] = occurrence + 1
        leaf = ECVLeaf(qualified, occurrence, ecv, owner)
        self.leaves[leaf.name] = leaf
        return leaf

    def read(self, owner: Any, name: str) -> Any:
        ecv = self._resolve(owner, name)
        qualified = f"{owner.name}.{name}"
        if self._symbolic_discrete:
            return self._leaf(owner, qualified, ecv)
        support = ecv.support()
        if support is None:
            # Continuous: stays symbolic in the enumerated pass too.
            return self._leaf(owner, qualified, ecv)
        position = len(self._choices)
        if position < len(self._forced):
            _, index = self._forced[position]
            if index >= len(support):
                raise EvaluationError(
                    f"non-deterministic interface: ECV {name!r} support "
                    f"changed between compile-trace replays")
        else:
            index = 0
            prefix = list(self._choices)
            for alternative in range(1, len(support)):
                self.unexplored.append(
                    prefix + [(qualified, alternative)])
        value, probability = support[index]
        self._choices.append((qualified, index))
        self.probability *= probability
        self._record(qualified, value)
        return value


def _as_path(context: _CompileContext, value: Any) -> TracedPath:
    """Normalise one pass's return value to Joules (symbolic or float)."""
    if isinstance(value, AbstractEnergy):
        raise UntraceableBody(
            "method returned abstract energy units; ground them before "
            "compiling")
    if isinstance(value, Energy):
        value = value.as_joules
    if isinstance(value, Expr):
        return TracedPath(probability=context.probability, expr=value,
                          value=None, leaves=dict(context.leaves),
                          choices=tuple(context._choices),
                          predicates=tuple(context.predicates))
    if isinstance(value, (bool, int, float)):
        return TracedPath(probability=context.probability, expr=None,
                          value=float(value), leaves=dict(context.leaves),
                          choices=tuple(context._choices),
                          predicates=tuple(context.predicates))
    from repro.core.distributions import EnergyDistribution, PointMass
    if isinstance(value, PointMass):
        return TracedPath(probability=context.probability, expr=None,
                          value=float(value.mean()),
                          leaves=dict(context.leaves),
                          choices=tuple(context._choices),
                          predicates=tuple(context.predicates))
    if isinstance(value, EnergyDistribution):
        raise UntraceableBody(
            "method returned a non-degenerate outcome distribution; "
            "per-sample outcome draws are not compilable")
    raise UntraceableBody(
        f"method returned uncompilable type {type(value).__name__}")


def trace_call(call: EnergyCall, env: ECVEnvironment,
               max_traces: int | None = None) -> TracedProgram:
    """Partially evaluate ``call`` under ``env``.

    Returns the traced program; raises :class:`UntraceableBody` when the
    body defeats all three passes (the caller then classifies the whole
    call as the sampled tier).
    """
    cap = MAX_COMPILE_TRACES if max_traces is None else int(max_traces)
    fn: Callable[[], Any] = call
    # Pass 1: fully symbolic, straight-line.
    context = _CompileContext(env, forced=[], symbolic_discrete=True)
    try:
        value = _run_in_context(fn, context)
        path = _as_path(context, value)
        return TracedProgram(call=call, paths=[path],
                             leaves=dict(context.leaves), straight_line=True)
    except UntraceableBody:
        raise
    except EvaluationError:
        # Semantic errors (unknown ECV, abstract energies) must surface
        # to the caller exactly as evaluation would raise them.
        raise
    except Exception:
        pass  # the body needed concrete values; enumerate below
    # Pass 2: enumerate discrete ECVs, keep continuous ones symbolic.
    pending: list[list[tuple[str, Any]]] = [[]]
    paths: list[TracedPath] = []
    leaves: dict[str, ECVLeaf] = {}
    while pending:
        forced = pending.pop()
        context = _CompileContext(env, forced=forced,
                                  symbolic_discrete=False)
        try:
            value = _run_in_context(fn, context)
        except UntraceableBody:
            raise
        except EvaluationError:
            raise
        except Exception:
            # The body branches on a continuous or symbolic value.
            return _trace_predicated(fn, call, env, cap)
        paths.append(_as_path(context, value))
        leaves.update(context.leaves)
        pending.extend(context.unexplored)
        if len(paths) + len(pending) > cap:
            raise UntraceableBody(
                f"compile-time trace enumeration exceeded {cap} traces")
    return TracedProgram(call=call, paths=paths, leaves=leaves,
                         straight_line=False)


def _discarded(noted: list[BinOp], path: TracedPath) -> tuple[BinOp, ...]:
    """The noted operations that neither the result nor a predicate uses."""
    roots = [compare for compare, _ in path.predicates]
    if path.expr is not None:
        roots.append(path.expr)
    reached: set[int] = set()
    while roots:
        node = roots.pop()
        if id(node) not in reached:
            reached.add(id(node))
            roots.extend(child for child in (
                getattr(node, "left", None), getattr(node, "right", None),
                getattr(node, "operand", None)) if child is not None)
    return tuple(op for op in noted if id(op) not in reached)


def _trace_predicated(fn: Callable[[], Any], call: EnergyCall,
                      env: ECVEnvironment, cap: int) -> TracedProgram:
    """Pass 3: fork on continuous comparisons, one path per outcome run."""
    pending: list[list[tuple[str, Any]]] = [[]]
    paths: list[TracedPath] = []
    leaves: dict[str, ECVLeaf] = {}
    while pending:
        forced = pending.pop()
        context = _CompileContext(env, forced=forced, symbolic_discrete=True)
        try:
            with tracing(context):
                value = _run_in_context(fn, context)
            path = _as_path(context, value)
            path.discarded = _discarded(context.partial_ops, path)
        except UntraceableBody:
            raise
        except Exception as exc:
            if isinstance(exc, ExtractionError) or not isinstance(
                    exc, (ReproError, ArithmeticError)):
                # A symbolic value reached code that needs a concrete
                # one: the body is not a predicated program.
                raise UntraceableBody(
                    f"body is genuinely branchy (uses a symbolic value "
                    f"where only a concrete one or an ordered comparison "
                    f"works): {type(exc).__name__}: {exc}") from exc
            path = TracedPath(probability=1.0, expr=None, value=None,
                              leaves=dict(context.leaves),
                              predicates=tuple(context.predicates),
                              guard=f"{type(exc).__name__}: {exc}")
        paths.append(path)
        leaves.update(context.leaves)
        pending.extend(context.unexplored)
        if len(paths) + len(pending) > cap:
            raise UntraceableBody(
                f"compile-time trace enumeration exceeded {cap} traces")
    guards = [path.guard for path in paths if path.guard is not None]
    if len(guards) == len(paths):
        raise UntraceableBody(f"every traced path raises: {guards[0]}")
    return TracedProgram(call=call, paths=paths, leaves=leaves,
                         straight_line=False)
