"""Monte Carlo evaluation engines: the per-sample loop and its kernels.

§3 of the paper makes an interface's return value a *distribution* once
ECVs are bound; whenever a continuous ECV blocks exact enumeration the
evaluator falls back to Monte Carlo.  The per-sample Python loop defines
what a draw is; the vector engine answers from a compiled kernel where
one exists and is checked against that loop:

:class:`SerialEngine`
    The reference engine: one Python pass per sample, full per-sample
    hook events (spans, accounting) exactly like the historical loop.
    The loop reuses one column context per task, reset at each sample,
    reads each column as a Python list once, and resolves each read's
    ECV once per task; reads under a binding overlay's environment
    resolve afresh.  ``tests/core/column_loop_oracle.py`` keeps the
    fresh-context-per-sample loop it must match bit for bit.

:class:`VectorEngine`
    Answers an :class:`~repro.core.interface.EnergyCall` from the call's
    compiled kernel (:mod:`repro.compile`) over whole sample columns
    (:meth:`~repro.core.ecv.ECV.sample_n` bulk draws), else runs the
    per-sample loop.  Every kernel answer is audited: the loop runs
    sample 0, the first sample on each path the kernel took and the
    first sample taking each value of each discrete leaf, and must
    reproduce the kernel's draws there bit for bit; otherwise the entry
    is dropped (the kernel table counts it in ``audit_failures``) and
    the loop's draws are the answer.  A kernel that defers, and any
    evaluation with a span recorder attached, runs the loop too, so the
    draws are the loop's either way.

Replay discipline
-----------------
All engines draw from a :class:`ColumnStore`: for every ``(qualified ECV
name, occurrence index)`` pair one full length-``n`` column is drawn from
a generator derived via ``numpy.random.SeedSequence`` spawn keys (the
keyed form of ``SeedSequence.spawn``) from a single *entropy* integer.
The entropy comes from the session (its seed, else the pinned historical
constant ``0xEC5``, else one draw from an explicit ``rng=`` override), so

* serial == vector, bitwise, and
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

    #: How a column's values are read: whole, for a loop over every sample.
    _values_of = staticmethod(_column_values)

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
            values = self._values_of(
                store.column(qualified, occurrence, ecv), store.n)
            self._values[(qualified, occurrence)] = values
        value = values[self._index]
        self.assignments[qualified] = value
        if self.session is not None:
            self.session._on_ecv_read(qualified, value)
        return value


@dataclass
class MCTask:
    """One Monte Carlo evaluation request, as the engines see it."""

    fn: Callable[[], Any]
    env: ECVEnvironment
    n: int
    entropy: int
    session: "EvalSession | None" = None


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


class _AuditContext(_ColumnContext):
    """A column context reading single entries, for a few samples."""

    _values_of = staticmethod(lambda column, n: _ArrayValues(column))


def _audit(task: MCTask, draws: np.ndarray, indices: list[int],
           store: ColumnStore) -> bool:
    """Whether the per-sample loop reproduces ``draws`` at ``indices``.

    Runs those samples as :func:`_per_sample` does, over ``store``'s
    columns but with no session: no hook event, span, statistic or memo
    write.  A sample that raises differs.
    """
    fn = _bound_call(task.fn)
    context = _AuditContext(task.env, store)
    for index in indices:
        context.reset(index)
        try:
            value = _outcome_scalar(_run_in_context(fn, context), store,
                                    index)
        except Exception:  # noqa: BLE001 - the loop raises it again
            return False
        if np.float64(value).tobytes() != draws[index].tobytes():
            return False
    return True


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
    """The call's compiled kernel, audited against the per-sample loop.

    A kernel answer shows up in the session's hook chain as one batched
    trace: the trace opens, and its close is
    :meth:`~repro.core.session.EvalHook.on_batch` with the sample count
    and the empirical distribution of all draws (so trace budgets count
    the same work as a serial run).  Everything else runs
    :func:`_per_sample` with its per-sample events.
    """

    name = "vector"

    def draws(self, task: MCTask) -> np.ndarray:
        store = ColumnStore(task.entropy, task.n)
        entry = _task_kernel(task)
        if entry is None:
            return _per_sample(task, store)
        from repro.compile import KernelDeferred
        try:
            draws, indices = entry.audited_draws(store)
        except KernelDeferred:
            return _per_sample(task, store)
        # The audit reads columns the loop draws itself.
        reference = ColumnStore(task.entropy, task.n)
        session = task.session
        if not _audit(task, draws, indices, reference):
            if session is not None:
                session._drop_kernel(task.fn, task.env)
            return _per_sample(task, reference)
        if session is not None:
            session._on_trace_begin()
            session._on_batch(task.n, Empirical(draws))
        return draws


def _task_kernel(task: MCTask) -> Any:
    """The compiled entry whose kernel answers ``task``, if one does.

    Only an :class:`EnergyCall` has a compile key, and a session with a
    span recorder needs the loop's nested spans and ECV reads.  A task
    without a session compiles without a cache.  Compilation errors are
    left to the loop, which raises the reference error.
    """
    if type(task.fn) is not EnergyCall or task.n < 1:
        return None
    session = task.session
    try:
        if session is None:
            from repro.compile import compile_call
            entry = compile_call(task.fn, task.env)
        elif session.recorder is not None:
            return None
        else:
            entry = session._kernel_entry(task.fn, task.env)
    except Exception:  # noqa: BLE001 - the loop raises the reference error
        return None
    return entry if entry.kernel is not None else None


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
