"""Monte Carlo evaluation engines: serial and vectorized sampling.

§3 of the paper makes an interface's return value a *distribution* once
ECVs are bound; whenever a continuous ECV blocks exact enumeration the
evaluator falls back to Monte Carlo.  Before this module the fallback was
a per-sample Python loop — every layer above hardware paid that sampling
tax on every probabilistic answer.  This module removes it:

:class:`SerialEngine`
    The reference engine: one Python pass per sample, full per-sample
    hook events (spans, accounting) exactly like the historical loop.
    The loop reuses one column context per task, reset at each sample,
    reads each column as a Python list once, and resolves each read's
    ECV once per task; reads under a binding overlay's environment
    resolve afresh.  ``tests/core/column_loop_oracle.py`` keeps the
    fresh-context-per-sample loop it must match bit for bit.

:class:`VectorEngine`
    Runs the interface *once* over whole sample columns
    (:meth:`~repro.core.ecv.ECV.sample_n` bulk draws, numpy broadcasting
    for the arithmetic).  Interfaces that branch on an ECV value raise on
    the array (ambiguous truth value) and the engine transparently falls
    back to the per-sample loop **over the same columns** — results are
    bitwise-identical either way.

Replay discipline
-----------------
All engines draw from a :class:`ColumnStore`: for every ``(qualified ECV
name, occurrence index)`` pair one full length-``n`` column is drawn from
a generator derived via ``numpy.random.SeedSequence`` spawn keys (the
keyed form of ``SeedSequence.spawn``) from a single *entropy* integer.
The entropy comes from the session (its seed, else the pinned historical
constant ``0xEC5``, else one draw from an explicit ``rng=`` override), so

* serial == vectorized, bitwise, and
* repeated evaluations in equal-seed sessions replay exactly.

Sharing columns across evaluations of one session also gives *common
random numbers*: comparing two candidate configurations under the same
session samples both at the same ECV draws, which reduces comparison
variance — exactly what resource managers want from "asking is free".

Per-sample draws from a non-degenerate *outcome* distribution (an
interface returning, say, :class:`~repro.core.distributions.Normal`) use
a second spawn-key family keyed by the sample index, again identical
across engines.
"""

from __future__ import annotations

import functools
import zlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

import numpy as np

from repro.core.distributions import (
    Empirical,
    EnergyDistribution,
    PointMass,
)
from repro.core.ecv import ECV, ECVEnvironment
from repro.core.errors import EvaluationError
from repro.core.interface import EnergyCall, _BaseContext, _run_in_context
from repro.core.units import AbstractEnergy, Energy

if TYPE_CHECKING:
    from repro.core.session import EvalSession

__all__ = [
    "ColumnStore",
    "MCTask",
    "MCEngine",
    "SerialEngine",
    "VectorEngine",
    "ENGINES",
    "resolve_engine",
]

#: Spawn-key tags separating the two derived-generator families.
_COLUMN_TAG = 0xC0
_OUTCOME_TAG = 0x0D

#: The pinned entropy of unseeded sessions (the historical Monte Carlo
#: seed, so unseeded evaluation stays deterministic call to call).
DEFAULT_ENTROPY = 0xEC5


def _name_key(qualified: str) -> int:
    """A stable 32-bit key for an ECV name.

    ``zlib.crc32`` rather than ``hash()`` because builtin string hashing
    is salted per process — a replay in a fresh process must derive the
    same column generators.
    """
    return zlib.crc32(qualified.encode("utf-8"))


class ColumnStore:
    """Deterministic per-ECV sample columns, lazily drawn.

    One store covers one Monte Carlo evaluation of ``n`` samples: the
    column for ``(qualified, occurrence)`` holds the value the
    ``occurrence``-th read of that ECV takes in each of the ``n`` sample
    runs.  Columns are a pure function of ``(entropy, qualified,
    occurrence)``, so any engine reconstructs identical draws.
    """

    def __init__(self, entropy: int, n: int) -> None:
        self.entropy = int(entropy)
        self.n = int(n)
        self._columns: dict[tuple[str, int], np.ndarray] = {}

    def column_rng(self, qualified: str, occurrence: int) -> np.random.Generator:
        seq = np.random.SeedSequence(
            self.entropy,
            spawn_key=(_COLUMN_TAG, _name_key(qualified), int(occurrence)))
        return np.random.default_rng(seq)

    def column(self, qualified: str, occurrence: int, ecv: ECV) -> np.ndarray:
        key = (qualified, int(occurrence))
        column = self._columns.get(key)
        if column is None:
            column = ecv.sample_n(self.column_rng(qualified, occurrence),
                                  self.n)
            self._columns[key] = column
        return column

    def outcome_rng(self, index: int) -> np.random.Generator:
        """Generator for sample ``index``'s outcome-distribution draw."""
        seq = np.random.SeedSequence(self.entropy,
                                     spawn_key=(_OUTCOME_TAG, int(index)))
        return np.random.default_rng(seq)


def _column_summary(column: np.ndarray) -> str:
    """A compact, hashable stand-in recorded for a whole-column ECV read."""
    if column.dtype.kind in "bifu" and column.size:
        return f"batch[{column.size}] mean={float(np.mean(column)):.6g}"
    return f"batch[{column.size}]"


class _ArrayValues:
    """A column read per index, for columns ``tolist()`` cannot stand in for."""

    __slots__ = ("_column",)

    def __init__(self, column: Any) -> None:
        self._column = column

    def __getitem__(self, index: int) -> Any:
        value = self._column[index]
        if isinstance(value, np.generic):
            value = value.item()
        return value


def _column_values(column: Any, n: int) -> Any:
    """A column's entries as the Python values its scalar reads return.

    ``tolist()`` converts every entry with ``.item()``, so for a 1-D
    array of any non-object dtype it equals ``column[i].item()`` at each
    ``i``.  An object column keeps its entries, converting numpy scalars
    among them as a scalar read does.  Anything else (another shape, a
    short column, not an ndarray) is read per index as before, so it
    fails where and how it always did.
    """
    if type(column) is np.ndarray and column.ndim == 1 and len(column) >= n:
        if column.dtype.kind != "O":
            return column.tolist()
        return [value.item() if isinstance(value, np.generic) else value
                for value in column]
    return _ArrayValues(column)


class _ColumnContext(_BaseContext):
    """Per-sample Monte Carlo context reading from shared columns.

    The replacement for drawing ``ecv.sample(rng)`` per read: sample
    ``index`` reads position ``index`` of the deterministic column for
    each ``(ECV, occurrence)`` it touches, so the values do not depend on
    which engine runs the sample.

    One context serves every sample of a task.  :meth:`reset` moves it
    to the next sample: the task's environment, empty occurrence counts
    and empty ``assignments``, as a fresh context would start.  What
    does not change between samples is computed once per task: each
    column's values as a Python list, and each read's qualified name and
    resolved ECV per ``(owner, name)``.  The resolve cache holds only
    while ``env`` is the task's environment; a binding overlay
    (:class:`~repro.core.composition.BoundInterface`) swaps ``env`` in
    the middle of a call, and a read under it resolves through
    ``_resolve`` on the current environment.
    """

    def __init__(self, env: ECVEnvironment, store: ColumnStore,
                 session: "EvalSession | None" = None) -> None:
        super().__init__(env, session)
        self._task_env = env
        self._store = store
        self._index = 0
        self._occurrence: dict[str, int] = {}
        #: ``(id(owner), name) -> (owner, qualified, ecv)`` under the
        #: task's environment; holding ``owner`` keeps its id unique.
        self._resolved: dict[tuple[int, str], tuple[Any, str, ECV]] = {}
        #: ``(qualified, occurrence) ->`` that column's values.
        self._values: dict[tuple[str, int], Any] = {}

    def reset(self, index: int) -> None:
        """Start sample ``index`` as a fresh context would."""
        self.env = self._task_env
        self._index = index
        self._occurrence = {}
        self.assignments = {}

    def read(self, owner: Any, name: str) -> Any:
        if self.env is self._task_env:
            key = (id(owner), name)
            entry = self._resolved.get(key)
            if entry is None:
                entry = (owner, f"{owner.name}.{name}",
                         self._resolve(owner, name))
                self._resolved[key] = entry
            _, qualified, ecv = entry
        else:
            ecv = self._resolve(owner, name)
            qualified = f"{owner.name}.{name}"
        occurrence = self._occurrence.get(qualified, 0)
        self._occurrence[qualified] = occurrence + 1
        values = self._values.get((qualified, occurrence))
        if values is None:
            store = self._store
            values = _column_values(
                store.column(qualified, occurrence, ecv), store.n)
            self._values[(qualified, occurrence)] = values
        value = values[self._index]
        self.assignments[qualified] = value
        if self.session is not None:
            self.session._on_ecv_read(qualified, value)
        return value


class _BatchContext(_BaseContext):
    """Batched Monte Carlo context: ECV reads return whole columns.

    The batched replacement for ``_SamplingContext``: interface code runs
    *once* with each ECV read yielding the full length-``n`` column, and
    numpy broadcasting evaluates all samples simultaneously.  Interfaces
    that need a scalar (branching, ``int()``, dict lookup) raise on the
    array, which the :class:`VectorEngine` turns into a per-sample
    fallback over the same columns.
    """

    def __init__(self, env: ECVEnvironment, store: ColumnStore,
                 session: "EvalSession | None" = None) -> None:
        super().__init__(env, session)
        self._store = store
        self._occurrence: dict[str, int] = {}

    def read(self, owner: Any, name: str) -> np.ndarray:
        ecv = self._resolve(owner, name)
        qualified = f"{owner.name}.{name}"
        occurrence = self._occurrence.get(qualified, 0)
        self._occurrence[qualified] = occurrence + 1
        column = self._store.column(qualified, occurrence, ecv)
        self._record(qualified, _column_summary(column))
        return column


@dataclass
class MCTask:
    """One Monte Carlo evaluation request, as the engines see it."""

    fn: Callable[[], Any]
    env: ECVEnvironment
    n: int
    entropy: int
    session: "EvalSession | None" = None


class _NotVectorizable(Exception):
    """Internal: the batched pass produced output of the wrong shape."""


def _outcome_scalar(value: Any, store: ColumnStore, index: int) -> float:
    """One sample's outcome in Joules (drawing from outcome distributions)."""
    if isinstance(value, AbstractEnergy):
        raise EvaluationError(
            "Monte-Carlo evaluation needs concrete energies; ground "
            "abstract units first")
    if isinstance(value, Energy):
        return float(value.as_joules)
    if isinstance(value, EnergyDistribution):
        if isinstance(value, PointMass):
            return float(value.mean())
        return float(value.sample(store.outcome_rng(index), 1)[0])
    return float(value)


def _outcome_vector(value: Any, store: ColumnStore, n: int) -> np.ndarray:
    """All samples' outcomes from one batched pass, as a float column."""
    if isinstance(value, AbstractEnergy):
        raise EvaluationError(
            "Monte-Carlo evaluation needs concrete energies; ground "
            "abstract units first")
    if isinstance(value, Energy):
        value = value.as_joules
    if isinstance(value, EnergyDistribution):
        if isinstance(value, PointMass):
            return np.full(n, value.mean())
        # A distribution with scalar parameters (otherwise constructing
        # it from columns would have raised): draw per sample with the
        # same per-index generators the serial path uses.
        return np.array([
            float(value.sample(store.outcome_rng(index), 1)[0])
            for index in range(n)])
    array = np.asarray(value, dtype=float)
    if array.ndim == 0:
        return np.full(n, float(array))
    if array.shape != (n,):
        raise _NotVectorizable(
            f"batched evaluation produced shape {array.shape}, "
            f"expected ({n},)")
    return array


def _bound_call(fn: Callable[[], Any]) -> Callable[[], Any]:
    """``fn``, with an :class:`EnergyCall`'s method looked up once.

    Calling the result calls the same method with the same arguments as
    ``EnergyCall.__call__`` does.  A lookup that fails is left to the
    call itself, so it raises inside the first sample as before.
    """
    if type(fn) is not EnergyCall:
        return fn
    method = fn.method
    if isinstance(method, str):
        try:
            method = getattr(fn.interface, method)
        except Exception:
            return fn
    return functools.partial(method, *fn.args, **dict(fn.kwargs))


def _per_sample(task: MCTask, store: ColumnStore) -> np.ndarray:
    """Evaluate the samples one at a time over shared columns.

    One :class:`_ColumnContext` and one bound call serve the whole task.
    Each sample still opens and closes its own trace around its ECV
    reads, and the context is active only while the body runs, so hooks
    never run inside it.
    """
    session = task.session
    weight = 1.0 / task.n
    fn = _bound_call(task.fn)
    context = _ColumnContext(task.env, store, session=session)
    out = []
    for index in range(task.n):
        context.reset(index)
        if session is not None:
            session._on_trace_begin()
        value = _run_in_context(fn, context)
        if session is not None:
            session._on_trace_end(weight, value)
        if type(value) is Energy:
            out.append(float(value.as_joules))
        else:
            out.append(_outcome_scalar(value, store, index))
    return np.array(out, dtype=float)


class MCEngine:
    """Strategy interface: produce the ``n`` Monte Carlo draws of a task."""

    name = "abstract"

    def draws(self, task: MCTask) -> np.ndarray:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class SerialEngine(MCEngine):
    """The reference per-sample loop with full per-sample hook events.

    Every sample opens and closes its own trace, as a fresh context per
    sample did; one reused :class:`_ColumnContext` serves them all.
    """

    name = "serial"

    def draws(self, task: MCTask) -> np.ndarray:
        store = ColumnStore(task.entropy, task.n)
        return _per_sample(task, store)


class VectorEngine(MCEngine):
    """One batched pass over whole columns, per-sample fallback on error.

    The batch shows up in the session's hook chain as a first-class
    event: the recorder sees one trace whose value is the empirical
    distribution of all draws, and accounting hooks receive
    :meth:`~repro.core.session.EvalHook.on_batch` with the sample count
    (so trace budgets count the same work as a serial run).
    """

    name = "vector"

    def draws(self, task: MCTask) -> np.ndarray:
        store = ColumnStore(task.entropy, task.n)
        session = task.session
        if session is not None:
            session._on_trace_begin()
        try:
            context = _BatchContext(task.env, store, session=session)
            value = _run_in_context(task.fn, context)
            draws = _outcome_vector(value, store, task.n)
        except EvaluationError:
            # A genuine semantic error (abstract energies, unknown ECV):
            # the per-sample path would raise it identically.
            if session is not None:
                session._abort_trace()
            raise
        except Exception:
            # The interface needed scalars (branched on an ECV, called
            # math.*, indexed a dict...).  Re-run per sample over the
            # same columns: bitwise-identical draws, historical hook
            # semantics.
            if session is not None:
                session._abort_trace()
            return _per_sample(task, store)
        if session is not None:
            session._on_batch(task.n, Empirical(draws))
        return draws


_SERIAL = SerialEngine()
_VECTOR = VectorEngine()

#: Named engine registry (``EvalSession(engine="serial")``, CLI flags).
ENGINES: dict[str, MCEngine] = {
    "serial": _SERIAL,
    "vector": _VECTOR,
}


def resolve_engine(engine: "str | MCEngine | None") -> MCEngine:
    """Resolve an engine name (or instance) to an engine.

    ``None`` means the default: the adaptive :class:`VectorEngine`.
    """
    if engine is None:
        return _VECTOR
    if isinstance(engine, MCEngine):
        return engine
    try:
        return ENGINES[engine]
    except (KeyError, TypeError):
        raise EvaluationError(
            f"unknown Monte Carlo engine {engine!r}; expected one of "
            f"{sorted(ENGINES)} or an MCEngine instance") from None
