"""Energy interfaces: executable programs that compute energy usage.

An energy interface (§3 of the paper) is *a program* that takes the same
input as the module it summarises (or an abstraction of that input) and
returns the energy the module would consume.  Interfaces read
energy-critical variables (ECVs) for state that is not part of the input;
with ECVs bound to distributions the return value becomes a probability
distribution.

This module provides:

:class:`EnergyInterface`
    Base class.  Subclasses write ordinary Python methods (conventionally
    named ``E_<operation>``) that return :class:`~repro.core.units.Energy`,
    a plain number of Joules, an
    :class:`~repro.core.units.AbstractEnergy`, or an
    :class:`~repro.core.distributions.EnergyDistribution`.  Inside a
    method, ``self.ecv("name")`` reads an ECV.

Evaluation modes (:func:`evaluate`)
    * ``"expected"`` — the mean over ECV randomness,
    * ``"distribution"`` — the full mixture distribution,
    * ``"worst"`` — the supremum over all ECV values (contract reasoning),
    * ``"best"`` — the infimum,
    * ``"sample"`` — one Monte-Carlo draw.

The evaluator *re-executes* the interface once per ECV-read trace,
enumerating the tree of discrete ECV choices lazily.  This handles nested
interfaces and data-dependent ECV reads with no cooperation from the
interface author: interface code just reads ECVs as if they were plain
values, exactly like Fig. 1 of the paper.  Interfaces must be
deterministic given their inputs and ECV values.

If any *continuous* ECV is read, exact enumeration is impossible and the
evaluator transparently falls back to Monte-Carlo sampling (worst-case
mode instead uses the interval endpoints, which is exact for interfaces
monotone in the ECV — true of all models in this repository).
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Mapping

import numpy as np

from repro.core.distributions import (
    Discrete,
    EnergyDistribution,
    Mixture,
    PointMass,
    as_distribution,
)
from repro.core.ecv import ECV, ECVEnvironment
from repro.core.errors import EvaluationError, UnknownECVError
from repro.core.units import AbstractEnergy, Energy

if TYPE_CHECKING:
    from repro.core.session import EvalSession

__all__ = [
    "EnergyInterface",
    "EnergyCall",
    "TraceOutcome",
    "evaluate",
]

_ACTIVE_CONTEXT: contextvars.ContextVar["_BaseContext | None"] = (
    contextvars.ContextVar("repro_energy_eval_context", default=None))

#: The session driving the current evaluation, if any.  Set by
#: :meth:`repro.core.session.EvalSession._run` for the duration of an
#: evaluation so nested interface calls join the same pipeline
#: (memoization, span recording, the session's RNG).
_ACTIVE_SESSION: contextvars.ContextVar["EvalSession | None"] = (
    contextvars.ContextVar("repro_energy_eval_session", default=None))


def active_session() -> "EvalSession | None":
    """The :class:`~repro.core.session.EvalSession` currently evaluating."""
    return _ACTIVE_SESSION.get()


@dataclass(frozen=True)
class TraceOutcome:
    """One enumerated ECV trace: its probability, outcome and assignments."""

    probability: float
    value: Any
    assignments: Mapping[str, Any]


class _NotEnumerable(Exception):
    """Internal: a continuous ECV was read during exact enumeration."""

    def __init__(self, ecv_name: str) -> None:
        super().__init__(ecv_name)
        self.ecv_name = ecv_name


class _BaseContext:
    """Shared resolution logic for all evaluation contexts."""

    def __init__(self, env: ECVEnvironment,
                 session: "EvalSession | None" = None) -> None:
        self.env = env
        self.session = session
        self.assignments: dict[str, Any] = {}

    def _record(self, qualified: str, value: Any) -> None:
        self.assignments[qualified] = value
        if self.session is not None:
            self.session._on_ecv_read(qualified, value)

    def _resolve(self, owner: "EnergyInterface", name: str) -> ECV:
        qualified = f"{owner.name}.{name}"
        bound = self.env.lookup(qualified, name)
        if bound is not None:
            return bound
        declared = owner.declared_ecv(name)
        if declared is not None:
            return declared
        raise UnknownECVError(
            f"interface {owner.name!r} read undeclared, unbound ECV {name!r}; "
            f"declare it with declare_ecv() or bind it in the environment")

    def read(self, owner: "EnergyInterface", name: str) -> Any:
        raise NotImplementedError


class _TraceContext(_BaseContext):
    """Exact enumeration context: replays forced choices, records branches."""

    def __init__(self, env: ECVEnvironment,
                 forced: list[tuple[str, int]],
                 worst_case: bool,
                 session: "EvalSession | None" = None) -> None:
        super().__init__(env, session)
        self._forced = forced
        self._worst_case = worst_case
        self._choices: list[tuple[str, int]] = []
        self.probability = 1.0
        self.unexplored: list[list[tuple[str, int]]] = []

    def _support(self, ecv: ECV) -> list[tuple[Any, float]]:
        if self._worst_case:
            return [(value, 1.0) for value in ecv.extreme_values()]
        support = ecv.support()
        if support is None:
            raise _NotEnumerable(ecv.name)
        return support

    def read(self, owner: "EnergyInterface", name: str) -> Any:
        ecv = self._resolve(owner, name)
        support = self._support(ecv)
        position = len(self._choices)
        if position < len(self._forced):
            key, index = self._forced[position]
            if index >= len(support):
                raise EvaluationError(
                    f"non-deterministic interface: ECV {name!r} support changed "
                    f"between trace replays")
        else:
            index = 0
            prefix = list(self._choices)
            for alternative in range(1, len(support)):
                self.unexplored.append(
                    prefix + [(f"{owner.name}.{name}", alternative)])
        value, probability = support[index]
        self._choices.append((f"{owner.name}.{name}", index))
        self.probability *= probability
        self._record(f"{owner.name}.{name}", value)
        return value


class _SamplingContext(_BaseContext):
    """Monte-Carlo context: each ECV read draws from its distribution."""

    def __init__(self, env: ECVEnvironment, rng: np.random.Generator,
                 session: "EvalSession | None" = None) -> None:
        super().__init__(env, session)
        self._rng = rng

    def read(self, owner: "EnergyInterface", name: str) -> Any:
        ecv = self._resolve(owner, name)
        value = ecv.sample(self._rng)
        self._record(f"{owner.name}.{name}", value)
        return value


class _FixedContext(_BaseContext):
    """Deterministic context: every ECV must resolve to a single value."""

    def read(self, owner: "EnergyInterface", name: str) -> Any:
        ecv = self._resolve(owner, name)
        support = ecv.support()
        if support is None or len(support) != 1:
            raise EvaluationError(
                f"deterministic evaluation requires ECV {name!r} of interface "
                f"{owner.name!r} to be bound to a single value")
        value = support[0][0]
        self._record(f"{owner.name}.{name}", value)
        return value


def _instrument_energy_method(fn: Callable[..., Any]) -> Callable[..., Any]:
    """Wrap an ``E_*`` method so nested calls emit spans.

    The wrapper is a no-op unless the active evaluation runs under a
    session with a :class:`~repro.core.session.SpanRecorder` hook —
    ordinary evaluations pay one contextvar read.
    """

    @functools.wraps(fn)
    def wrapper(self: "EnergyInterface", *args: Any, **kwargs: Any) -> Any:
        session = _ACTIVE_SESSION.get()
        recorder = session.recorder if session is not None else None
        if recorder is None or not recorder.push_span(self, fn.__name__, args):
            return fn(self, *args, **kwargs)
        try:
            value = fn(self, *args, **kwargs)
        except BaseException:
            recorder.pop_span()
            raise
        recorder.set_outcome(value)
        recorder.pop_span()
        return value

    wrapper._energy_span_wrapped = True
    return wrapper


@dataclass(frozen=True)
class EnergyCall:
    """A deferred ``interface.method(*args, **kwargs)`` energy query.

    The value object the canonical :func:`evaluate` consumes: calling an
    interface builds one (``interface("E_handle", pixels)``), and the
    session uses its identity (interface name, method, arguments) for
    memoization keys and span labels.
    """

    interface: "EnergyInterface"
    method: str | Callable[..., Any]
    args: tuple = ()
    #: Keyword arguments as sorted ``(name, value)`` pairs, so the call
    #: is hashable/picklable whenever its values are.
    kwargs: tuple = field(default_factory=tuple)

    @property
    def method_name(self) -> str:
        if isinstance(self.method, str):
            return self.method
        return getattr(self.method, "__name__", repr(self.method))

    def __call__(self) -> Any:
        fn = (getattr(self.interface, self.method)
              if isinstance(self.method, str) else self.method)
        return fn(*self.args, **dict(self.kwargs))

    def __repr__(self) -> str:
        name = getattr(self.interface, "name", type(self.interface).__name__)
        return f"EnergyCall({name}.{self.method_name}, args={self.args!r})"


class EnergyInterface:
    """Base class for energy interfaces.

    Subclasses define methods returning energies and may declare ECVs in
    ``__init__`` via :meth:`declare_ecv`.  Sub-interfaces (the lower-layer
    resources this interface "calls into", §3) are ordinary attributes
    whose methods are invoked directly — ECV reads in nested interfaces
    participate in the same evaluation automatically.

    Example, mirroring Fig. 1 of the paper::

        class CacheLookupInterface(EnergyInterface):
            def __init__(self):
                super().__init__("redis_cache")
                self.declare_ecv(BernoulliECV(
                    "local_cache_hit", p=0.9,
                    description="cache hit in current node"))

            def E_lookup(self, key_size, response_len):
                hit = self.ecv("local_cache_hit")
                per_byte = 5 if hit else 100
                return Energy.millijoules(per_byte * response_len)
    """

    #: ``(layer, resource)`` position in a system stack; set by
    #: :meth:`repro.core.stack.SystemStack.add_layer` so spans can be
    #: attributed to layers.  ``None`` for free-standing interfaces.
    span_labels: tuple[str, str] | None = None

    def __init_subclass__(cls, **kwargs: Any) -> None:
        # Instrument every energy method defined by the subclass so that
        # nested interface calls show up as spans when a recording session
        # is active.  Idempotent via the _energy_span_wrapped marker.
        super().__init_subclass__(**kwargs)
        for attr_name, attr in list(cls.__dict__.items()):
            if (attr_name.startswith("E_") and inspect.isfunction(attr)
                    and not getattr(attr, "_energy_span_wrapped", False)):
                setattr(cls, attr_name, _instrument_energy_method(attr))

    def __init__(self, name: str | None = None) -> None:
        self.name = name if name is not None else type(self).__name__
        self._declared_ecvs: dict[str, ECV] = {}

    # -- ECV handling ------------------------------------------------------
    def declare_ecv(self, ecv: ECV) -> None:
        """Declare an ECV with its default distribution."""
        self._declared_ecvs[ecv.name] = ecv

    def declared_ecv(self, name: str) -> ECV | None:
        """Look up a declared ECV by name."""
        return self._declared_ecvs.get(name)

    @property
    def ecv_declarations(self) -> dict[str, ECV]:
        """All declared ECVs, by name."""
        return dict(self._declared_ecvs)

    def ecv(self, name: str) -> Any:
        """Read an ECV's value inside an interface method.

        Only valid during evaluation; the active evaluation context decides
        how the read resolves (enumeration, sampling, fixed binding).
        """
        context = _ACTIVE_CONTEXT.get()
        if context is None:
            raise EvaluationError(
                f"ECV {name!r} of interface {self.name!r} was read outside an "
                f"evaluation; call the interface through evaluate()")
        return context.read(self, name)

    # -- evaluation ----------------------------------------------------------
    def __call__(self, method: str | Callable[..., Any], *args: Any,
                 **kwargs: Any) -> EnergyCall:
        """Build an :class:`EnergyCall` for the canonical :func:`evaluate`.

        ``interface("E_handle", pixels)`` is the question "how much energy
        does ``E_handle(pixels)`` use?" as a value; hand it to
        :func:`evaluate` to answer it under a session.
        """
        return EnergyCall(self, method, args, tuple(sorted(kwargs.items())))

    def _evaluate(self, method: str | Callable[..., Any], *args: Any,
                  mode: str | None = None,
                  env: ECVEnvironment | Mapping[str, Any] | None = None,
                  rng: np.random.Generator | None = None,
                  n_samples: int | None = None,
                  max_traces: int | None = None,
                  session: "EvalSession | None" = None,
                  fingerprint: Any = None,
                  engine: Any = None,
                  **kwargs: Any) -> Any:
        return evaluate(self(method, *args, **kwargs), session=session,
                        mode=mode, env=env, engine=engine, n_samples=n_samples,
                        max_traces=max_traces, rng=rng, fingerprint=fingerprint)

    def distribution(self, method: str, *args: Any,
                     env: ECVEnvironment | Mapping[str, Any] | None = None,
                     **kwargs: Any) -> EnergyDistribution:
        """Shorthand for ``evaluate(self(method, ...), mode="distribution")``."""
        return self._evaluate(method, *args, mode="distribution", env=env,
                              **kwargs)

    def expected(self, method: str, *args: Any,
                 env: ECVEnvironment | Mapping[str, Any] | None = None,
                 **kwargs: Any) -> Any:
        """Shorthand for ``evaluate(self(method, ...), mode="expected")``."""
        return self._evaluate(method, *args, mode="expected", env=env, **kwargs)

    def worst_case(self, method: str, *args: Any,
                   env: ECVEnvironment | Mapping[str, Any] | None = None,
                   **kwargs: Any) -> Energy:
        """Shorthand for ``evaluate(self(method, ...), mode="worst")``."""
        return self._evaluate(method, *args, mode="worst", env=env, **kwargs)

    def __repr__(self) -> str:
        ecvs = sorted(self._declared_ecvs)
        return f"{type(self).__name__}(name={self.name!r}, ecvs={ecvs})"


def _coerce_env(env: ECVEnvironment | Mapping[str, Any] | None) -> ECVEnvironment:
    if env is None:
        return ECVEnvironment.EMPTY
    if isinstance(env, ECVEnvironment):
        return env
    return ECVEnvironment(env)


def _run_in_context(fn: Callable[[], Any], context: _BaseContext) -> Any:
    token = _ACTIVE_CONTEXT.set(context)
    try:
        return fn()
    finally:
        _ACTIVE_CONTEXT.reset(token)


def enumerate_traces(fn: Callable[[], Any],
                     env: ECVEnvironment | Mapping[str, Any] | None = None,
                     max_traces: int | None = None,
                     worst_case: bool = False,
                     session: "EvalSession | None" = None
                     ) -> list[TraceOutcome]:
    """Enumerate all ECV-read traces of ``fn`` exactly.

    Each enumerated trace yields a :class:`TraceOutcome` with its joint
    probability (probabilities are meaningless in ``worst_case`` mode,
    where extreme values are enumerated instead of the support).

    ``max_traces`` defaults to
    :attr:`~repro.core.session.EvalSession.DEFAULT_MAX_TRACES` (the single
    home of budget defaults).

    When a ``session`` is given its hooks observe every trace (span
    recording, accounting) and ECV reads are reported to it.

    Raises :class:`~repro.core.errors.EvaluationError` when the trace tree
    exceeds ``max_traces`` and propagates an internal signal (handled by
    :func:`evaluate`) when a continuous ECV blocks exact enumeration.
    """
    if max_traces is None:
        from repro.core.session import EvalSession
        max_traces = EvalSession.DEFAULT_MAX_TRACES
    environment = _coerce_env(env)
    pending: list[list[tuple[str, int]]] = [[]]
    outcomes: list[TraceOutcome] = []
    while pending:
        forced = pending.pop()
        context = _TraceContext(environment, forced, worst_case,
                                session=session)
        if session is not None:
            session._on_trace_begin()
        value = _run_in_context(fn, context)
        if session is not None:
            session._on_trace_end(context.probability, value)
        outcomes.append(TraceOutcome(context.probability, value,
                                     dict(context.assignments)))
        pending.extend(context.unexplored)
        if len(outcomes) + len(pending) > max_traces:
            raise EvaluationError(
                f"ECV trace enumeration exceeded {max_traces} traces; "
                f"bind some ECVs or raise max_traces")
    return outcomes


def _combine_expected(outcomes: list[TraceOutcome]) -> Any:
    """Probability-weighted average of trace outcomes."""
    total_probability = sum(outcome.probability for outcome in outcomes)
    if not math.isclose(total_probability, 1.0, rel_tol=1e-6):
        raise EvaluationError(
            f"trace probabilities sum to {total_probability}, expected 1; "
            f"is the interface non-deterministic?")
    first = outcomes[0].value
    if isinstance(first, AbstractEnergy):
        total = AbstractEnergy()
        for outcome in outcomes:
            if not isinstance(outcome.value, AbstractEnergy):
                raise EvaluationError(
                    "interface mixed abstract and concrete energies across "
                    "ECV traces; return one kind consistently")
            total = total + outcome.probability * outcome.value
        return total
    mean = sum(outcome.probability * as_distribution(outcome.value).mean()
               for outcome in outcomes)
    return Energy(mean)


def _combine_distribution(outcomes: list[TraceOutcome]) -> EnergyDistribution:
    components: list[EnergyDistribution] = []
    weights: list[float] = []
    for outcome in outcomes:
        if isinstance(outcome.value, AbstractEnergy):
            raise EvaluationError(
                "distribution mode needs concrete energies; ground abstract "
                "units first")
        components.append(as_distribution(outcome.value))
        weights.append(outcome.probability)
    if all(isinstance(c, PointMass) for c in components):
        return Discrete([c.mean() for c in components], weights)
    return Mixture.collapse(components, weights)


def evaluate(fn: "EnergyCall | Callable[[], Any]", *,
             session: "EvalSession | None" = None,
             mode: str | None = None,
             env: ECVEnvironment | Mapping[str, Any] | None = None,
             engine: Any = None,
             n_samples: int | None = None,
             max_traces: int | None = None,
             rng: np.random.Generator | None = None,
             fingerprint: Any = None) -> Any:
    """THE evaluation entry point: answer an energy query under a session.

    ``fn`` is either an :class:`EnergyCall` built by calling an interface
    (``evaluate(iface("E_handle", pixels))``) or any zero-argument callable
    that reads ECVs (compositions spanning several interfaces).  Calls are
    *keyed* — the session can memoize them and label their spans — while
    plain callables are evaluated anonymously.

    Everything else is keyword-only and defaults to the session's
    configuration: ``mode`` (expected/distribution/worst/best/sample/
    fixed), ``env`` (extra ECV bindings layered over the session's),
    ``engine`` (the Monte Carlo engine — ``"serial"``, ``"vector"`` or an
    :class:`~repro.core.mcengine.MCEngine`),
    ``n_samples`` / ``max_traces`` budgets, ``rng`` (replay-stable
    randomness override) and ``fingerprint`` (memo-key override for the
    environment).  The ``session`` resolves to the one passed in, else the
    session driving an enclosing evaluation, else a transparent default
    :class:`~repro.core.session.EvalSession`.
    """
    if session is None:
        session = _ACTIVE_SESSION.get()
    if session is None:
        from repro.core.session import EvalSession
        session = EvalSession()
        if mode is None:
            mode = "expected"
    if isinstance(fn, EnergyCall):
        return session._evaluate_call(fn, mode=mode, env=env,
                                      fingerprint=fingerprint, rng=rng,
                                      n_samples=n_samples,
                                      max_traces=max_traces, engine=engine)
    return session._evaluate_callable(fn, mode=mode, env=env, rng=rng,
                                      n_samples=n_samples,
                                      max_traces=max_traces, engine=engine)
