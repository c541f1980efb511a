"""Reference per-sample Monte Carlo loop for ``repro.core.mcengine``.

A copy of ``_ColumnContext`` and ``_per_sample`` as they were before the
loop reused one context per task: a fresh context per sample, every
read resolved through ``_resolve`` on the current environment, every
column value read as ``column[index]`` plus ``.item()``, and every
outcome converted through ``_outcome_scalar``.  ``test_mcengine.py``
runs it and the real loop over the same task and requires equal draws,
statistics, span trees, accounting and errors, bit for bit.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.core.ecv import ECVEnvironment
from repro.core.interface import _BaseContext, _run_in_context
from repro.core.mcengine import ColumnStore, MCTask, _outcome_scalar


class _ColumnContext(_BaseContext):
    """Per-sample Monte Carlo context reading from shared columns.

    The replacement for drawing ``ecv.sample(rng)`` per read: sample
    ``index`` reads position ``index`` of the deterministic column for
    each ``(ECV, occurrence)`` it touches, so the values do not depend on
    which engine runs the sample.
    """

    def __init__(self, env: ECVEnvironment, store: ColumnStore, index: int,
                 session: Any = None) -> None:
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
