"""Monte Carlo evaluation engines: serial and vectorized sampling.

§3 of the paper makes an interface's return value a *distribution* once
ECVs are bound; whenever a continuous ECV blocks exact enumeration the
evaluator falls back to Monte Carlo.  Before this module the fallback was
a per-sample Python loop — every layer above hardware paid that sampling
tax on every probabilistic answer.  This module removes it:

:class:`SerialEngine`
    The reference engine: one Python pass per sample, full per-sample
    hook events (spans, accounting) exactly like the historical loop.

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
from repro.core.interface import _BaseContext, _run_in_context
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


class _ColumnContext(_BaseContext):
    """Per-sample Monte Carlo context reading from shared columns.

    The replacement for drawing ``ecv.sample(rng)`` per read: sample
    ``index`` reads position ``index`` of the deterministic column for
    each ``(ECV, occurrence)`` it touches, so the values do not depend on
    which engine runs the sample.
    """

    def __init__(self, env: ECVEnvironment, store: ColumnStore, index: int,
                 session: "EvalSession | None" = None) -> None:
        super().__init__(env, session)
        self._store = store
        self._index = index
        self._occurrence: dict[str, int] = {}

    def read(self, owner: Any, name: str) -> Any:
        ecv = self._resolve(owner, name)
        qualified = f"{owner.name}.{name}"
        occurrence = self._occurrence.get(qualified, 0)
        self._occurrence[qualified] = occurrence + 1
        value = self._store.column(qualified, occurrence, ecv)[self._index]
        if isinstance(value, np.generic):
            value = value.item()
        self._record(qualified, value)
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


def _per_sample(task: MCTask, store: ColumnStore) -> np.ndarray:
    """Evaluate the samples one at a time over shared columns."""
    session = task.session
    weight = 1.0 / task.n
    out = np.empty(task.n)
    for index in range(task.n):
        context = _ColumnContext(task.env, store, index, session=session)
        if session is not None:
            session._on_trace_begin()
        value = _run_in_context(task.fn, context)
        if session is not None:
            session._on_trace_end(weight, value)
        out[index] = _outcome_scalar(value, store, index)
    return out


class MCEngine:
    """Strategy interface: produce the ``n`` Monte Carlo draws of a task."""

    name = "abstract"

    def draws(self, task: MCTask) -> np.ndarray:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class SerialEngine(MCEngine):
    """The reference per-sample loop with full per-sample hook events."""

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
