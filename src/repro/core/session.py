"""The unified evaluation pipeline: sessions, hooks and span tracing.

Every layer of the Fig. 2 stack evaluates energy interfaces — the gateway
prices requests, the cluster scheduler compares placements, the
autoscaler scores replica counts, tools re-evaluate whole stacks — and
before this module each of them re-invented the plumbing: loose
``mode``/``env``/``max_traces`` kwargs, ad-hoc memoization bolted onto
one call site, no visibility into which sub-interfaces a prediction
flowed through.

:class:`EvalSession` carries everything one evaluation (or a whole run of
evaluations) needs:

* the default **mode** and an **ECV environment overlay**,
* trace/Monte-Carlo **budgets** (``max_traces``, ``n_samples``),
* a **seeded RNG** so ``"sample"`` mode and the Monte-Carlo fallback are
  reproducible end to end — two sessions with the same seed agree,
* a **hook chain**: :class:`MemoHook` (memoization at *any* layer, not
  just the serving gateway), :class:`SpanRecorder` (per-request energy
  call trees) and :class:`AccountingHook` (evaluation/trace budget
  accounting).

Spans (:class:`EvalSpan`) mirror the probabilistic call-tree attribution
of per-call-tree energy profilers: every nested interface call records
its layer, resource, method, abstract input, ECV reads, trace count,
cache hits and aggregated outcome.  :func:`render_span_tree` prints the
tree; :func:`chrome_trace` exports it as Chrome-trace JSON (open in
``chrome://tracing`` / Perfetto, with predicted energy as the time axis).
"""

from __future__ import annotations

import json
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable, Hashable, Mapping

import numpy as np

from repro.core.distributions import EnergyDistribution, as_distribution
from repro.core.ecv import (
    ECV,
    BernoulliECV,
    CategoricalECV,
    ContinuousECV,
    ECVEnvironment,
    FixedECV,
    UniformIntECV,
)
from repro.core.errors import BudgetExceeded, EvaluationError
from repro.core.interface import (
    _ACTIVE_SESSION,
    _coerce_env,
    _combine_distribution,
    _combine_expected,
    _FixedContext,
    _NotEnumerable,
    _run_in_context,
    _SamplingContext,
    EnergyCall,
    enumerate_traces,
)
from repro.core.mcengine import DEFAULT_ENTROPY, MCEngine, resolve_engine
from repro.core.policy import Policy
from repro.core.predict import resolve_backend
from repro.core.units import AbstractEnergy, Energy

__all__ = [
    "EvalSession",
    "EvalRequest",
    "EvalHook",
    "MemoHook",
    "SpanRecorder",
    "AccountingHook",
    "EvalSpan",
    "render_span_tree",
    "chrome_trace",
    "layer_breakdown",
    "ecv_fingerprint",
    "env_fingerprint",
    "DEFAULT_P_QUANTUM",
]

#: Default quantum for probability/parameter rounding in fingerprints.
DEFAULT_P_QUANTUM = 1.0 / 64.0

#: Cap on distinct ECV values remembered per span (display, not truth).
_MAX_ECV_VALUES = 8


# ---------------------------------------------------------------------------
# Environment fingerprints (any layer can memoize; repro.serving re-exports
# them for the gateway's cache).
# ---------------------------------------------------------------------------

def _quantise(value: float, quantum: float) -> float:
    return round(round(float(value) / quantum) * quantum, 12)


def ecv_fingerprint(ecv: ECV, p_quantum: float = DEFAULT_P_QUANTUM) -> tuple:
    """A stable, hashable summary of an ECV's distribution.

    Distribution parameters are quantised so a hit rate drifting from
    0.912 to 0.913 does not invalidate memoized evaluations, while a real
    regime change (a new quantum) does.
    """
    if isinstance(ecv, BernoulliECV):
        return ("bern", _quantise(ecv.p, p_quantum))
    if isinstance(ecv, FixedECV):
        return ("fixed", ecv.value)
    if isinstance(ecv, CategoricalECV):
        return ("cat", tuple((value, _quantise(p, p_quantum))
                             for value, p in ecv.support()))
    if isinstance(ecv, UniformIntECV):
        return ("unifint", ecv.low, ecv.high)
    if isinstance(ecv, ContinuousECV):
        return ("cont", ecv.low, ecv.high)
    # Unknown ECV kinds fall back to their repr; correct as long as the
    # repr covers the distribution parameters.
    return ("repr", repr(ecv))


def env_fingerprint(bindings: Mapping[str, Any] | ECVEnvironment | None,
                    p_quantum: float = DEFAULT_P_QUANTUM) -> tuple:
    """Fingerprint an ECV-binding mapping (name -> value or ECV)."""
    if isinstance(bindings, ECVEnvironment):
        bindings = bindings.bindings
    if not bindings:
        return ()
    items = []
    for name in sorted(bindings):
        value = bindings[name]
        if isinstance(value, ECV):
            items.append((name,) + ecv_fingerprint(value, p_quantum))
        else:
            items.append((name, "val", value))
    return tuple(items)


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------

def _mean_joules(value: Any) -> float | None:
    """The expected Joules of an interface-method outcome, if concrete."""
    if isinstance(value, AbstractEnergy):
        return None
    if isinstance(value, Energy):
        value = value.as_joules
    if isinstance(value, np.ndarray):
        # A vector-valued outcome from a batched Monte Carlo pass: its
        # expected Joules is the mean over the sample column.
        return float(np.mean(value)) if value.size else None
    if isinstance(value, EnergyDistribution):
        return float(value.mean())
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


def _upper_joules(value: Any) -> float | None:
    """The upper bound of an outcome (worst-case aggregation)."""
    if isinstance(value, AbstractEnergy):
        return None
    if isinstance(value, Energy):
        value = value.as_joules
    if isinstance(value, np.ndarray):
        return float(np.max(value)) if value.size else None
    if isinstance(value, EnergyDistribution):
        return float(value.upper_bound())
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


@dataclass
class EvalSpan:
    """One node of the energy call tree built during an evaluation.

    A span aggregates every enumerated trace (or Monte-Carlo sample) of
    one nested interface call: ``probability`` is the total trace weight
    that reached the call, ``value_j`` the probability-weighted expected
    Joules (the max across traces in ``worst`` mode) and ``ecv_reads``
    the ECV values observed while the span was open.  ``measured_j`` is
    filled in by :mod:`repro.measurement.meter` when measured energy is
    attached for divergence reporting.
    """

    name: str
    method: str
    args: tuple = ()
    layer: str | None = None
    resource: str | None = None
    mode: str = "expected"
    probability: float = 0.0
    n_traces: int = 0
    value_j: float | None = None
    cache_hit: bool = False
    measured_j: float | None = None
    measured_channel: str | None = None
    ecv_reads: dict[str, list] = field(default_factory=dict)
    children: list["EvalSpan"] = field(default_factory=list)
    #: Free-form diagnostics surfaced by the evaluation machinery (e.g.
    #: why a compiled query fell back to sampling).
    notes: list[str] = field(default_factory=list)

    @property
    def label(self) -> str:
        """``interface.method`` for display."""
        return f"{self.name}.{self.method}"

    @property
    def children_joules(self) -> float:
        """Sum of concrete child energies."""
        return sum(child.value_j for child in self.children
                   if child.value_j is not None)

    @property
    def self_joules(self) -> float | None:
        """This span's exclusive energy (value minus its children)."""
        if self.value_j is None:
            return None
        return self.value_j - self.children_joules

    @property
    def divergence(self) -> float | None:
        """Relative predicted-vs-measured error, when both are known."""
        if self.measured_j is None or self.value_j is None:
            return None
        if self.measured_j == 0.0:
            return None
        return abs(self.value_j - self.measured_j) / self.measured_j

    def walk(self):
        """Yield this span and every descendant, depth first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, label: str) -> "EvalSpan | None":
        """First span in the subtree whose :attr:`label` matches."""
        for span in self.walk():
            if span.label == label:
                return span
        return None

    def to_dict(self) -> dict:
        """A JSON-friendly rendering of the subtree."""
        return {
            "name": self.name,
            "method": self.method,
            "args": [repr(a) for a in self.args],
            "layer": self.layer,
            "resource": self.resource,
            "mode": self.mode,
            "probability": self.probability,
            "n_traces": self.n_traces,
            "value_j": self.value_j,
            "cache_hit": self.cache_hit,
            "measured_j": self.measured_j,
            "ecv_reads": {name: list(values)
                          for name, values in self.ecv_reads.items()},
            "notes": list(self.notes),
            "children": [child.to_dict() for child in self.children],
        }


def render_span_tree(root: EvalSpan, max_depth: int | None = None) -> str:
    """Render a span tree as indented text (one span per line)."""
    lines: list[str] = []

    def visit(span: EvalSpan, prefix: str, tail: bool, depth: int) -> None:
        if max_depth is not None and depth > max_depth:
            return
        connector = "" if not prefix and depth == 0 else \
            ("└─ " if tail else "├─ ")
        parts = [f"{span.label}"]
        if span.layer:
            parts.append(f"[{span.layer}]")
        if span.args:
            rendered = ", ".join(repr(a) for a in span.args)
            parts.append(f"({rendered})")
        if span.value_j is not None:
            parts.append(f"{span.value_j:.6g} J")
        if span.mode in ("expected", "distribution") and span.n_traces:
            parts.append(f"p={span.probability:.3g}")
        if span.n_traces:
            parts.append(f"traces={span.n_traces}")
        if span.cache_hit:
            parts.append("(cached)")
        if span.measured_j is not None:
            parts.append(f"measured={span.measured_j:.6g} J")
            if span.divergence is not None:
                parts.append(f"div={span.divergence:.1%}")
        for note in span.notes:
            parts.append(f"!{note}")
        lines.append(prefix + connector + " ".join(parts))
        child_prefix = prefix + ("" if depth == 0 and not prefix else
                                 ("   " if tail else "│  "))
        for index, child in enumerate(span.children):
            visit(child, child_prefix, index == len(span.children) - 1,
                  depth + 1)

    visit(root, "", True, 0)
    return "\n".join(lines)


def chrome_trace(roots: EvalSpan | list[EvalSpan],
                 joules_per_tick: float = 1e-6) -> dict:
    """Export span trees in Chrome-trace ("traceEvents") JSON format.

    Spans have no wall-clock timestamps — predictions happen before any
    execution — so the *time axis is predicted energy*: one tick per
    ``joules_per_tick`` Joules (default: 1 tick = 1 µJ).  Children are
    laid inside their parent's interval in order, which renders the call
    tree as a flame graph of energy.
    """
    if isinstance(roots, EvalSpan):
        roots = [roots]
    events: list[dict] = []

    def width(span: EvalSpan) -> float:
        if span.value_j is not None and span.value_j > 0:
            return span.value_j / joules_per_tick
        nested = sum(width(child) for child in span.children)
        return max(nested, 1.0)

    def emit(span: EvalSpan, start: float) -> float:
        duration = width(span)
        args: dict[str, Any] = {
            "mode": span.mode,
            "probability": span.probability,
            "n_traces": span.n_traces,
            "input": [repr(a) for a in span.args],
        }
        if span.resource:
            args["resource"] = span.resource
        if span.cache_hit:
            args["cache_hit"] = True
        if span.value_j is not None:
            args["predicted_joules"] = span.value_j
        if span.measured_j is not None:
            args["measured_joules"] = span.measured_j
        if span.ecv_reads:
            args["ecv_reads"] = {name: [repr(v) for v in values]
                                 for name, values in span.ecv_reads.items()}
        events.append({
            "name": span.label,
            "cat": span.layer or "interface",
            "ph": "X",
            "ts": start,
            "dur": duration,
            "pid": 1,
            "tid": 1,
            "args": args,
        })
        cursor = start
        for child in span.children:
            cursor = emit(child, cursor)
        return start + duration

    cursor = 0.0
    for root in roots:
        cursor = emit(root, cursor)
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"time_axis": f"predicted energy, "
                                   f"1 tick = {joules_per_tick} J"},
    }


def layer_breakdown(roots: EvalSpan | list[EvalSpan]) -> dict[str, float]:
    """Exclusive predicted Joules per layer across one or more span trees.

    Each span contributes its *self* energy (value minus children) to its
    layer, so layers sum to the roots' totals; spans with no layer label
    are grouped under ``"(unlabelled)"``.
    """
    if isinstance(roots, EvalSpan):
        roots = [roots]
    totals: dict[str, float] = {}
    for root in roots:
        for span in root.walk():
            exclusive = span.self_joules
            if exclusive is None:
                continue
            key = span.layer or "(unlabelled)"
            totals[key] = totals.get(key, 0.0) + exclusive
    return totals


# ---------------------------------------------------------------------------
# Hooks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EvalRequest:
    """What is being evaluated — the identity hooks key on."""

    interface_name: str
    method: str
    args: tuple
    mode: str
    fingerprint: Hashable

    def key(self) -> tuple:
        return (self.interface_name, self.method, self.args, self.mode,
                self.fingerprint)


class EvalHook:
    """Base class for session hooks; every callback is optional."""

    def before_evaluate(self, request: EvalRequest) -> tuple[bool, Any]:
        """Return ``(True, value)`` to short-circuit the evaluation."""
        return (False, None)

    def after_evaluate(self, request: EvalRequest, value: Any,
                       cached: bool) -> None:
        """Called after every keyed evaluation (cached or computed)."""

    def on_trace(self, weight: float, value: Any) -> None:
        """Called once per enumerated trace / Monte-Carlo sample."""

    def on_batch(self, n: int, value: Any) -> None:
        """Called once per *batched* Monte-Carlo evaluation.

        ``n`` is the number of samples the batch stands for and ``value``
        their empirical distribution.  The default treats the batch as a
        single full-weight trace so hooks written before batching keep
        observing every evaluation; hooks that count work (budgets)
        override this to account for all ``n`` samples.
        """
        self.on_trace(1.0, value)


def _poisoned_value(value: Any) -> bool:
    """True when an evaluation result carries NaN Joules."""
    if isinstance(value, EnergyDistribution):
        mean = float(value.mean())
        return mean != mean
    joules = getattr(value, "as_joules", None)
    if joules is not None:
        joules = float(joules)
        return joules != joules
    if isinstance(value, (int, float)):
        return float(value) != float(value)
    return False


class MemoHook(EvalHook):
    """Session-scoped LRU memoization of interface evaluations.

    The serving gateway's evaluation cache, generalised: *any* layer that
    evaluates through a session carrying this hook gets memoized
    sub-evaluations.  Keys combine the interface name, method, abstract
    input, evaluation mode and an environment fingerprint (see
    :func:`env_fingerprint`); results are immutable, so sharing is safe.
    """

    def __init__(self, max_entries: int = 4096,
                 p_quantum: float = DEFAULT_P_QUANTUM) -> None:
        if max_entries <= 0:
            raise EvaluationError(
                f"memoization needs a positive capacity, got {max_entries}")
        self.max_entries = max_entries
        self.p_quantum = p_quantum
        self._entries: OrderedDict[Hashable, Any] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # -- raw store access (EvalSession.memoized uses these) ----------------
    def lookup(self, key: Hashable) -> tuple[bool, Any]:
        """``(hit, value)``; unhashable keys count as misses."""
        try:
            value = self._entries[key]
        except (KeyError, TypeError):
            self.misses += 1
            return (False, None)
        self.hits += 1
        self._entries.move_to_end(key)
        return (True, value)

    def store(self, key: Hashable, value: Any) -> None:
        """Insert, evicting LRU entries; unhashable keys are dropped.

        Poisoned results (NaN Joules — a garbage hardware reading, or an
        injected one) are never memoized: a cache that remembers garbage
        serves it long after the fault has passed, and the degradation
        ladder treats cached values as known-good.
        """
        if _poisoned_value(value):
            return
        try:
            self._entries[key] = value
        except TypeError:
            return
        if len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.evictions += 1

    # -- hook protocol -------------------------------------------------------
    def before_evaluate(self, request: EvalRequest) -> tuple[bool, Any]:
        return self.lookup(request.key())

    def after_evaluate(self, request: EvalRequest, value: Any,
                       cached: bool) -> None:
        if not cached:
            self.store(request.key(), value)

    # -- statistics ----------------------------------------------------------
    def clear(self) -> None:
        """Drop every entry (statistics are kept)."""
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        if self.lookups == 0:
            return 0.0
        return self.hits / self.lookups

    def stats(self) -> dict[str, float]:
        return {
            "lookups": self.lookups,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "entries": len(self._entries),
            "hit_rate": self.hit_rate,
        }

    def __repr__(self) -> str:
        return (f"MemoHook(entries={len(self._entries)}, "
                f"hit_rate={self.hit_rate:.2%})")


class AccountingHook(EvalHook):
    """Counts evaluations and traces — the session's budget accountant.

    Resource managers use it to bound how much prediction work a control
    decision may spend (the "asking must be nearly free" requirement for
    online use) and to attribute evaluation cost per interface method.
    """

    def __init__(self, max_evaluations: int | None = None) -> None:
        self.max_evaluations = max_evaluations
        self.evaluations = 0
        self.cached_evaluations = 0
        self.traces = 0
        self.by_method: dict[str, int] = {}

    def before_evaluate(self, request: EvalRequest) -> tuple[bool, Any]:
        if (self.max_evaluations is not None
                and self.evaluations >= self.max_evaluations):
            raise BudgetExceeded(
                f"evaluation budget exhausted: {self.evaluations} "
                f"evaluations (limit {self.max_evaluations})")
        return (False, None)

    def after_evaluate(self, request: EvalRequest, value: Any,
                       cached: bool) -> None:
        self.evaluations += 1
        if cached:
            self.cached_evaluations += 1
        label = f"{request.interface_name}.{request.method}"
        self.by_method[label] = self.by_method.get(label, 0) + 1

    def on_trace(self, weight: float, value: Any) -> None:
        self.traces += 1

    def on_batch(self, n: int, value: Any) -> None:
        # A batch is n samples' worth of work: budgets must not get
        # cheaper just because the engine vectorized the loop.
        self.traces += int(n)

    def stats(self) -> dict[str, float]:
        return {
            "evaluations": self.evaluations,
            "cached_evaluations": self.cached_evaluations,
            "traces": self.traces,
        }


# -- span recording ----------------------------------------------------------

class _ObsNode:
    """One trace's observation of one interface call (pre-aggregation)."""

    __slots__ = ("name", "method", "args", "value", "ecv_reads", "children",
                 "cache_hit", "layer", "resource")

    def __init__(self, name: str, method: str, args: tuple,
                 layer: str | None = None,
                 resource: str | None = None) -> None:
        self.name = name
        self.method = method
        self.args = args
        self.layer = layer
        self.resource = resource
        self.value: Any = None
        self.ecv_reads: dict[str, list] = {}
        self.children: list[_ObsNode] = []
        self.cache_hit = False


def _args_key(args: tuple) -> Hashable:
    try:
        hash(args)
        return args
    except TypeError:
        return repr(args)


class _AggNode:
    """A span aggregated across every trace of one evaluation."""

    def __init__(self, name: str, method: str, args: tuple,
                 layer: str | None, resource: str | None) -> None:
        self.name = name
        self.method = method
        self.args = args
        self.layer = layer
        self.resource = resource
        self.weight = 0.0
        self.n_traces = 0
        self.weighted_j = 0.0
        self.worst_j: float | None = None
        self.concrete = True
        self.cache_hit = False
        self.ecv_reads: dict[str, list] = {}
        self.notes: list[str] = []
        self.children: OrderedDict[Hashable, _AggNode] = OrderedDict()

    def observe(self, node: _ObsNode, weight: float) -> None:
        self.weight += weight
        self.n_traces += 1
        self.cache_hit = self.cache_hit or node.cache_hit
        mean = _mean_joules(node.value)
        if mean is None:
            self.concrete = False
        else:
            self.weighted_j += weight * mean
            upper = _upper_joules(node.value)
            if upper is not None:
                self.worst_j = (upper if self.worst_j is None
                                else max(self.worst_j, upper))
        for ecv_name, values in node.ecv_reads.items():
            seen = self.ecv_reads.setdefault(ecv_name, [])
            for value in values:
                if value not in seen and len(seen) < _MAX_ECV_VALUES:
                    seen.append(value)
        for child in node.children:
            key = (child.name, child.method, _args_key(child.args))
            agg = self.children.get(key)
            if agg is None:
                agg = _AggNode(child.name, child.method, child.args,
                               child.layer, child.resource)
                self.children[key] = agg
            agg.observe(child, weight)

    def to_span(self, mode: str) -> EvalSpan:
        if not self.concrete:
            value = None
        elif mode in ("worst", "best"):
            value = self.worst_j
        else:
            value = self.weighted_j
        span = EvalSpan(
            name=self.name,
            method=self.method,
            args=self.args,
            layer=self.layer,
            resource=self.resource,
            mode=mode,
            probability=self.weight,
            n_traces=self.n_traces,
            value_j=value,
            cache_hit=self.cache_hit,
            ecv_reads={k: list(v) for k, v in self.ecv_reads.items()},
            children=[child.to_span(mode) for child in
                      self.children.values()],
            notes=list(self.notes),
        )
        return span


class _EvalFrame:
    """Per-evaluation recording state (a stack entry for nested evals)."""

    def __init__(self, name: str, method: str, args: tuple, mode: str,
                 layer: str | None, resource: str | None) -> None:
        self.agg = _AggNode(name, method, args, layer, resource)
        self.mode = mode
        self.stack: list[_ObsNode] | None = None  # set while a trace runs
        self.trace_root: _ObsNode | None = None


class SpanRecorder(EvalHook):
    """Builds :class:`EvalSpan` call trees as evaluations run.

    Attach one to a session (``EvalSession(hooks=[SpanRecorder()])``);
    every evaluation appends an aggregated root span to :attr:`roots`.
    Nested interface calls (including through the composition combinators
    and through further ``session.evaluate`` calls inside interface
    methods) become child spans, merged across all enumerated traces.
    """

    def __init__(self) -> None:
        self.roots: list[EvalSpan] = []
        self._frames: list[_EvalFrame] = []

    # -- session-facing protocol ---------------------------------------------
    def begin_evaluation(self, name: str, method: str, args: tuple,
                         mode: str, layer: str | None = None,
                         resource: str | None = None) -> None:
        self._frames.append(_EvalFrame(name, method, args, mode, layer,
                                       resource))

    def end_evaluation(self, final_value: Any) -> EvalSpan:
        frame = self._frames.pop()
        span = frame.agg.to_span(frame.mode)
        # The combined result (e.g. the exact expected value) is more
        # faithful than re-aggregating per-trace outcomes; prefer it.
        final = _mean_joules(final_value)
        if frame.mode in ("worst", "best"):
            final = _upper_joules(final_value)
        if final is not None:
            span.value_j = final
        span.probability = min(span.probability, 1.0)
        if self._frames:
            # A nested evaluation inside an outer trace: surface its
            # aggregated tree as one child observation of the outer span.
            self._attach_nested(span)
        else:
            self.roots.append(span)
        return span

    def _attach_nested(self, span: EvalSpan) -> None:
        frame = self._frames[-1]
        if frame.stack is None:
            return

        def to_obs(node: EvalSpan) -> _ObsNode:
            obs = _ObsNode(node.name, node.method, node.args,
                           node.layer, node.resource)
            obs.value = (Energy(node.value_j)
                         if node.value_j is not None else None)
            obs.cache_hit = node.cache_hit
            obs.ecv_reads = {k: list(v) for k, v in node.ecv_reads.items()}
            obs.children = [to_obs(child) for child in node.children]
            return obs

        frame.stack[-1].children.append(to_obs(span))

    def record_cached(self, name: str, method: str, args: tuple, mode: str,
                      value: Any, layer: str | None = None,
                      resource: str | None = None) -> None:
        """Record a memo-hit evaluation as a leaf span (no re-execution)."""
        span = EvalSpan(name=name, method=method, args=args, layer=layer,
                        resource=resource, mode=mode, probability=1.0,
                        n_traces=0, value_j=_mean_joules(value),
                        cache_hit=True)
        if self._frames and self._frames[-1].stack is not None:
            obs = _ObsNode(name, method, args, layer, resource)
            obs.value = value
            obs.cache_hit = True
            self._frames[-1].stack[-1].children.append(obs)
        else:
            self.roots.append(span)

    def begin_trace(self) -> None:
        if not self._frames:
            return
        frame = self._frames[-1]
        frame.trace_root = _ObsNode("<trace>", "", ())
        frame.stack = [frame.trace_root]

    def abort_trace(self) -> None:
        """Discard a begun trace (a batched pass that fell back)."""
        if not self._frames:
            return
        frame = self._frames[-1]
        frame.trace_root = None
        frame.stack = None

    def end_trace(self, weight: float, value: Any) -> None:
        if not self._frames:
            return
        frame = self._frames[-1]
        if frame.trace_root is None:
            return
        frame.trace_root.value = value
        # Merge: if the trace body was a single top-level interface call
        # matching the frame (the common case — evaluate(iface, method)),
        # fold it into the frame's aggregate root so the tree does not
        # show a redundant wrapper level.
        root = frame.trace_root
        if (len(root.children) == 1
                and root.children[0].name == frame.agg.name
                and root.children[0].method == frame.agg.method):
            frame.agg.observe(root.children[0], weight)
        else:
            root.name = frame.agg.name
            root.method = frame.agg.method
            root.args = frame.agg.args
            frame.agg.observe(root, weight)
        frame.trace_root = None
        frame.stack = None

    # -- instrumentation-facing protocol ------------------------------------
    def push_span(self, owner: Any, method: str, args: tuple) -> bool:
        """Open a span for a nested interface call; True when recording."""
        if not self._frames:
            return False
        frame = self._frames[-1]
        if frame.stack is None:
            return False
        labels = getattr(owner, "span_labels", None)
        layer = resource = None
        if labels:
            layer, resource = labels
        node = _ObsNode(getattr(owner, "name", type(owner).__name__),
                        method, args, layer, resource)
        frame.stack[-1].children.append(node)
        frame.stack.append(node)
        return True

    def set_outcome(self, value: Any) -> None:
        frame = self._frames[-1]
        if frame.stack is not None and len(frame.stack) > 1:
            frame.stack[-1].value = value

    def pop_span(self) -> None:
        frame = self._frames[-1]
        if frame.stack is not None and len(frame.stack) > 1:
            frame.stack.pop()

    def on_ecv_read(self, qualified: str, value: Any) -> None:
        if not self._frames:
            return
        frame = self._frames[-1]
        if frame.stack is None:
            return
        reads = frame.stack[-1].ecv_reads.setdefault(qualified, [])
        if value not in reads and len(reads) < _MAX_ECV_VALUES:
            reads.append(value)

    def annotate(self, note: str) -> None:
        """Attach a diagnostic note to the innermost open evaluation span.

        Used by the evaluation machinery to surface events that would
        otherwise be invisible in the tree, such as a compiled query
        falling back to sampling.
        """
        if not self._frames:
            return
        notes = self._frames[-1].agg.notes
        if note not in notes:
            notes.append(note)

    # -- results -------------------------------------------------------------
    @property
    def last_root(self) -> EvalSpan | None:
        """The most recently completed evaluation's span tree."""
        return self.roots[-1] if self.roots else None

    def clear(self) -> None:
        self.roots.clear()

    def to_json(self, **kwargs: Any) -> str:
        """All recorded trees as Chrome-trace JSON text."""
        return json.dumps(chrome_trace(self.roots, **kwargs))

    def __repr__(self) -> str:
        return f"SpanRecorder(roots={len(self.roots)})"


# ---------------------------------------------------------------------------
# The session
# ---------------------------------------------------------------------------

class EvalSession:
    """Everything an evaluation needs, threaded through every layer.

    A session fixes the evaluation *mode*, an ECV environment overlay,
    trace/Monte-Carlo budgets, a seeded RNG, the Monte Carlo *engine*
    and a hook chain.  Layers thread one session through nested
    evaluations so that memoization, span recording and accounting see
    the whole call tree — per-call-site kwargs (`mode=`, `env=`, …)
    still work and override the session defaults, and code that never
    mentions sessions keeps working: the framework creates a transparent
    default session per evaluation.

    The evaluation-budget defaults live here, and only here: every other
    entry point (the canonical :func:`repro.core.interface.evaluate`,
    trace enumeration, sampling-based quantiles) resolves an unset
    budget to these class attributes.
    """

    #: Safety cap on the number of enumerated ECV traces per evaluation.
    DEFAULT_MAX_TRACES = 4096

    #: Default Monte-Carlo sample count when enumeration is impossible.
    DEFAULT_N_SAMPLES = 4000

    #: Default budget for sampling-based quantile approximation outside
    #: any session (:meth:`repro.core.distributions.EnergyDistribution.quantile`).
    DEFAULT_QUANTILE_SAMPLES = 20000

    def __init__(self, *,
                 mode: str = "expected",
                 env: ECVEnvironment | Mapping[str, Any] | None = None,
                 seed: int | None = None,
                 rng: np.random.Generator | None = None,
                 n_samples: int | None = None,
                 max_traces: int | None = None,
                 engine: str | MCEngine | None = None,
                 backend: "str | Any | None" = None,
                 hooks: list[EvalHook] | None = None,
                 p_quantum: float = DEFAULT_P_QUANTUM,
                 policy: Policy | None = None) -> None:
        # A declarative Policy seeds the per-knob parameters; explicit
        # keywords win over it (they are the more specific spelling).
        self.policy = policy
        if policy is not None:
            engine = engine if engine is not None else policy.mc_engine
            backend = backend if backend is not None else policy.backend
            n_samples = (n_samples if n_samples is not None
                         else policy.n_samples)
            max_traces = (max_traces if max_traces is not None
                          else policy.max_traces)
        self.mode = mode
        self.env = _coerce_env(env)
        self.seed = seed
        self._rng_external = rng is not None
        if rng is not None:
            self._rng: np.random.Generator | None = rng
        elif seed is not None:
            self._rng = np.random.default_rng(seed)
        else:
            self._rng = None
        self.n_samples = (self.DEFAULT_N_SAMPLES if n_samples is None
                          else int(n_samples))
        self.max_traces = (self.DEFAULT_MAX_TRACES if max_traces is None
                           else int(max_traces))
        self.engine = resolve_engine(engine)
        self.backend = resolve_backend(backend)
        self.p_quantum = p_quantum
        self.hooks: list[EvalHook] = list(hooks or [])
        self._index_hooks()
        self.stats = {"evaluations": 0, "traces": 0, "memo_hits": 0}

    # -- hook plumbing --------------------------------------------------------
    # recorder/memo are cached because instrumented E_* methods consult
    # them on every nested call of every enumerated trace.
    @property
    def recorder(self) -> SpanRecorder | None:
        """The first span recorder in the hook chain, if any."""
        return self._recorder

    @property
    def memo(self) -> MemoHook | None:
        """The first memoization hook in the hook chain, if any."""
        return self._memo

    @property
    def fault_hook(self) -> "EvalHook | None":
        """The first fault-injection hook in the chain, if any.

        Duck-typed on the ``is_fault_hook`` marker so the core does not
        import :mod:`repro.faults`; the resilient evaluator and the
        gateway consult it.
        """
        return self._fault_hook

    def _index_hooks(self) -> None:
        self._recorder = next((hook for hook in self.hooks
                               if isinstance(hook, SpanRecorder)), None)
        self._memo = next((hook for hook in self.hooks
                           if isinstance(hook, MemoHook)), None)
        self._fault_hook = next(
            (hook for hook in self.hooks
             if getattr(hook, "is_fault_hook", False)), None)

    def add_hook(self, hook: EvalHook) -> EvalHook:
        self.hooks.append(hook)
        self._index_hooks()
        return hook

    # -- internal notifications (called by the evaluation contexts) ----------
    def _on_ecv_read(self, qualified: str, value: Any) -> None:
        recorder = self.recorder
        if recorder is not None:
            recorder.on_ecv_read(qualified, value)

    def _on_trace_begin(self) -> None:
        recorder = self.recorder
        if recorder is not None:
            recorder.begin_trace()

    def _on_trace_end(self, weight: float, value: Any) -> None:
        self.stats["traces"] += 1
        for hook in self.hooks:
            if isinstance(hook, SpanRecorder):
                hook.end_trace(weight, value)
            else:
                hook.on_trace(weight, value)

    def _on_batch(self, n: int, value: Any) -> None:
        """A batched Monte-Carlo pass finished: ``n`` samples in one event.

        The recorder closes the (single) trace it opened for the batch
        with the full empirical distribution; every other hook gets the
        first-class ``on_batch`` event.  Trace statistics count all
        ``n`` samples, matching a serial run.
        """
        self.stats["traces"] += int(n)
        for hook in self.hooks:
            if isinstance(hook, SpanRecorder):
                hook.end_trace(1.0, value)
            else:
                hook.on_batch(n, value)

    def _abort_trace(self) -> None:
        """Discard a begun trace (a batched pass is falling back)."""
        recorder = self.recorder
        if recorder is not None:
            recorder.abort_trace()

    def _annotate(self, note: str) -> None:
        """Surface a machinery diagnostic on the open span, if recording."""
        recorder = self.recorder
        if recorder is not None:
            recorder.annotate(note)

    # -- RNG ------------------------------------------------------------------
    def _sampling_rng(self, override: np.random.Generator | None
                      ) -> np.random.Generator:
        if override is not None:
            return override
        if self._rng is not None:
            return self._rng
        return np.random.default_rng()

    def _mc_entropy(self, override: np.random.Generator | None) -> int:
        """The root entropy for one Monte Carlo evaluation's columns.

        Every engine derives all of an evaluation's randomness from this
        one integer (see :mod:`repro.core.mcengine`), which is what makes
        serial and vectorized runs replay-identical:

        * an explicit ``rng=`` override contributes one draw (so equal-
          state generators give equal results, and a stateful generator
          varies call to call exactly as it used to),
        * a seeded session uses its seed,
        * a session built around an external generator draws from it,
        * an unseeded session uses the pinned historical constant, so it
          stays deterministic call to call.
        """
        if override is not None:
            return int(override.integers(0, 2 ** 63))
        if self.seed is not None:
            return int(self.seed)
        if self._rng_external and self._rng is not None:
            return int(self._rng.integers(0, 2 ** 63))
        return DEFAULT_ENTROPY

    # -- the pipeline ---------------------------------------------------------
    def _evaluate_call(self, call: EnergyCall, *,
                       mode: str | None = None,
                       env: ECVEnvironment | Mapping[str, Any] | None = None,
                       fingerprint: Hashable | None = None,
                       rng: np.random.Generator | None = None,
                       n_samples: int | None = None,
                       max_traces: int | None = None,
                       engine: str | MCEngine | None = None) -> Any:
        """Evaluate an :class:`EnergyCall` through the session.

        This is the keyed entry point: the hook chain can memoize the
        result (the key covers interface name, method, abstract input,
        mode and the merged environment's fingerprint) and the recorder
        labels the root span with the interface's stack position.
        """
        interface = call.interface
        method_name = call.method_name
        resolved_mode = mode if mode is not None else self.mode
        merged_env = self.env if env is None else \
            self.env.extended(_coerce_env(env).bindings)
        interface_name = getattr(interface, "name", type(interface).__name__)
        labels = getattr(interface, "span_labels", None) or (None, None)
        if not self.hooks:
            # No hooks -> nothing keys on the request; skip fingerprinting.
            return self._run(call, resolved_mode, merged_env, rng,
                             n_samples, max_traces,
                             label=(interface_name, method_name, call.args,
                                    labels[0], labels[1]),
                             engine=engine, call=call)
        if fingerprint is None:
            fingerprint = env_fingerprint(merged_env, self.p_quantum)
        key_args = call.args if not call.kwargs else \
            call.args + call.kwargs
        request = EvalRequest(
            interface_name=interface_name,
            method=method_name,
            args=key_args,
            mode=resolved_mode,
            fingerprint=fingerprint,
        )
        for hook in self.hooks:
            hit, value = hook.before_evaluate(request)
            if hit:
                self.stats["memo_hits"] += 1
                recorder = self.recorder
                if recorder is not None:
                    recorder.record_cached(request.interface_name,
                                           method_name, call.args,
                                           resolved_mode, value,
                                           labels[0], labels[1])
                for other in self.hooks:
                    other.after_evaluate(request, value, True)
                return value
        value = self._run(call, resolved_mode, merged_env, rng, n_samples,
                          max_traces,
                          label=(request.interface_name, method_name,
                                 call.args, labels[0], labels[1]),
                          engine=engine, call=call)
        for hook in self.hooks:
            hook.after_evaluate(request, value, False)
        return value

    def _evaluate_callable(self, fn: Callable[[], Any], *,
                           mode: str | None = None,
                           env: ECVEnvironment | Mapping[str, Any] | None = None,
                           rng: np.random.Generator | None = None,
                           n_samples: int | None = None,
                           max_traces: int | None = None,
                           engine: str | MCEngine | None = None) -> Any:
        """Evaluate a zero-argument callable that reads ECVs.

        The free-function form — what resource managers and tools use for
        compositions spanning several interfaces.  Not keyed, so it is
        never memoized itself (nested keyed evaluations inside ``fn``
        still are).
        """
        resolved_mode = mode if mode is not None else self.mode
        merged_env = self.env if env is None else \
            self.env.extended(_coerce_env(env).bindings)
        return self._run(fn, resolved_mode, merged_env, rng, n_samples,
                         max_traces, label=("<fn>", getattr(
                             fn, "__name__", "<lambda>"), (), None, None),
                         engine=engine)

    def memoized(self, key: tuple, fn: Callable[[], Any]) -> Any:
        """Session-scoped memoization for arbitrary manager computations.

        Not every prediction flows through an interface method — e.g. the
        CPU scheduler's per-core energy model.  ``memoized`` lets such
        code share the session's :class:`MemoHook` under an explicit key.
        """
        memo = self.memo
        if memo is None:
            return fn()
        full_key = ("@memoized",) + tuple(key)
        hit, value = memo.lookup(full_key)
        if hit:
            self.stats["memo_hits"] += 1
            return value
        value = fn()
        memo.store(full_key, value)
        return value

    # -- mode dispatch --------------------------------------------------------
    def _run(self, fn: Callable[[], Any], mode: str, env: ECVEnvironment,
             rng: np.random.Generator | None, n_samples: int | None,
             max_traces: int | None, label: tuple,
             engine: str | MCEngine | None = None,
             call: Callable[[], Any] | None = None) -> Any:
        self.stats["evaluations"] += 1
        samples = n_samples if n_samples is not None else self.n_samples
        traces_cap = max_traces if max_traces is not None else self.max_traces
        recorder = self.recorder
        if recorder is not None:
            recorder.begin_evaluation(label[0], label[1], label[2], mode,
                                      label[3], label[4])
        token = _ACTIVE_SESSION.set(self)
        try:
            value = self._dispatch(fn, mode, env, rng, samples, traces_cap,
                                   engine, call)
        except BaseException:
            if recorder is not None:
                recorder.end_evaluation(None)
            raise
        finally:
            _ACTIVE_SESSION.reset(token)
        if recorder is not None:
            recorder.end_evaluation(value)
        return value

    def _dispatch(self, fn: Callable[[], Any], mode: str,
                  env: ECVEnvironment, rng: np.random.Generator | None,
                  n_samples: int, max_traces: int,
                  engine: str | MCEngine | None = None,
                  call: Callable[[], Any] | None = None) -> Any:
        if mode == "fixed":
            self._on_trace_begin()
            value = _run_in_context(fn, _FixedContext(env, session=self))
            self._on_trace_end(1.0, value)
            return value
        if mode == "sample":
            generator = self._sampling_rng(rng)
            self._on_trace_begin()
            value = _run_in_context(
                fn, _SamplingContext(env, generator, session=self))
            self._on_trace_end(1.0, value)
            if isinstance(value, (AbstractEnergy, Energy)):
                return value
            if isinstance(value, EnergyDistribution):
                return Energy(float(value.sample(generator, 1)[0]))
            return Energy(float(value))
        if mode in ("worst", "best"):
            outcomes = enumerate_traces(fn, env, max_traces, worst_case=True,
                                        session=self)
            bounds = []
            for outcome in outcomes:
                if isinstance(outcome.value, AbstractEnergy):
                    raise EvaluationError(
                        "worst/best-case mode needs concrete energies; "
                        "ground abstract units first")
                dist = as_distribution(outcome.value)
                bounds.append(dist.upper_bound() if mode == "worst"
                              else dist.lower_bound())
            return Energy(max(bounds) if mode == "worst" else min(bounds))
        if mode not in ("expected", "distribution"):
            raise EvaluationError(
                f"unknown evaluation mode {mode!r}; expected one of "
                f"expected/distribution/worst/best/sample/fixed")
        try:
            outcomes = enumerate_traces(fn, env, max_traces, session=self)
        except _NotEnumerable:
            return self._monte_carlo(fn, env, mode, rng, n_samples,
                                     engine, call)
        if mode == "expected":
            return _combine_expected(outcomes)
        return _combine_distribution(outcomes)

    def _monte_carlo(self, fn: Callable[[], Any], env: ECVEnvironment,
                     mode: str, rng: np.random.Generator | None,
                     n_samples: int,
                     engine: str | MCEngine | None = None,
                     call: Callable[[], Any] | None = None) -> Any:
        """Delegate the Monte Carlo stage to the session's backend.

        The default :class:`~repro.core.predict.SampledBackend` runs the
        Monte Carlo engines exactly as this method historically did; the
        compiled backend answers from analytic forms or numpy kernels
        and falls back to sampling where it cannot.
        """
        return self.backend.monte_carlo(
            self, fn=fn, env=env, mode=mode, rng=rng,
            n_samples=int(n_samples), engine=engine, call=call)

    def __repr__(self) -> str:
        hooks = [type(hook).__name__ for hook in self.hooks]
        return (f"EvalSession(mode={self.mode!r}, seed={self.seed!r}, "
                f"hooks={hooks})")
