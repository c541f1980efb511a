"""The session hook that turns a :class:`FaultPlan` into live failures.

Injection happens at the *keyed-evaluation boundary* — inside
:meth:`EvalSession._evaluate_call`'s hook loop, before any engine runs.
That placement is what keeps injection replayable across engines: serial
and vector runs make exactly the same sequence of keyed evaluations, so
they consult the plan exactly the same number of times.  (Evaluations nested *inside* a running
evaluation are engine-dependent — the vector engine runs the body once
where the serial engine runs it per sample — so the hook deliberately
skips them.)

The hook should sit *first* in the chain (``FaultHook.install`` inserts
it at position 0) so injections fire whether or not a later
:class:`~repro.core.session.MemoHook` would have answered from cache —
a fault at the boundary models the evaluation substrate failing, and the
cache is then explicitly a *degradation* tier, not an accident of
ordering.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING, Any, Iterator

from repro.core.errors import FaultInjected
from repro.core.interface import _ACTIVE_SESSION
from repro.core.session import EvalHook, EvalRequest
from repro.core.units import Energy
from repro.faults.plan import FaultPlan

if TYPE_CHECKING:
    from repro.core.session import EvalSession

__all__ = ["FaultHook"]


class FaultHook(EvalHook):
    """Injects a plan's failures into a session's keyed evaluations.

    Per top-level keyed evaluation the hook consults the plan's sites in
    a fixed order: ``latency`` (accumulates simulated seconds for the
    deadline account), then ``ecv`` and ``interface`` (raise
    :class:`~repro.core.errors.FaultInjected`), then ``hardware``
    (short-circuits the evaluation with a NaN reading, poisoning the
    result the way a garbage meter sample would).
    """

    #: Duck-typed marker ``EvalSession._index_hooks`` looks for.
    is_fault_hook = True

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._session: "EvalSession | None" = None
        self._suspended = 0
        #: Injection counts per site (what actually fired, not visits).
        self.injected: dict[str, int] = {}
        #: Simulated latency accumulated since the last drain.
        self.pending_latency_s = 0.0

    # -- wiring ---------------------------------------------------------------
    def install(self, session: "EvalSession") -> "FaultHook":
        """Insert at the head of ``session``'s hook chain and bind to it."""
        session.hooks.insert(0, self)
        session._index_hooks()
        self._session = session
        return self

    @contextmanager
    def suspended(self) -> Iterator[None]:
        """No injections inside the block (degraded-bound evaluations)."""
        self._suspended += 1
        try:
            yield
        finally:
            self._suspended -= 1

    def _skip(self) -> bool:
        if self._suspended:
            return True
        # Inside a running evaluation of the bound session the active-
        # session contextvar points at it (set by _run, reset in its
        # finally) — those nested keyed evaluations are engine-dependent
        # and must not consume plan decisions.
        return (self._session is not None
                and _ACTIVE_SESSION.get() is self._session)

    def _fired(self, site: str) -> None:
        self.injected[site] = self.injected.get(site, 0) + 1

    # -- hook protocol --------------------------------------------------------
    def before_evaluate(self, request: EvalRequest) -> tuple[bool, Any]:
        if self._skip():
            return (False, None)
        where = f"{request.interface_name}.{request.method}"
        spec = self.plan.decide("latency")
        if spec is not None:
            self._fired("latency")
            self.pending_latency_s += spec.latency_s
        spec = self.plan.decide("ecv")
        if spec is not None:
            self._fired("ecv")
            raise FaultInjected(
                spec.message or f"injected ECV sampling error in {where}",
                site="ecv")
        spec = self.plan.decide("interface")
        if spec is not None:
            self._fired("interface")
            raise FaultInjected(
                spec.message or f"injected interface exception in {where}",
                site="interface")
        spec = self.plan.decide("hardware")
        if spec is not None:
            self._fired("hardware")
            if spec.effective_kind == "error":
                raise FaultInjected(
                    spec.message or f"injected hardware fault in {where}",
                    site="hardware")
            # A garbage reading: short-circuit the evaluation with NaN —
            # downstream code that does not guard (see ResilientEvaluator
            # and EnergyLedger.quarantine) propagates it like real life.
            return (True, Energy(float("nan")))
        return (False, None)

    # -- consumption-side accounting ------------------------------------------
    def drain_latency(self) -> float:
        """Take (and clear) the simulated latency accumulated so far."""
        latency, self.pending_latency_s = self.pending_latency_s, 0.0
        return latency

    def stats(self) -> dict[str, Any]:
        return {
            "injected": dict(self.injected),
            "total_injected": sum(self.injected.values()),
            "visits": self.plan.visits,
        }

    def __repr__(self) -> str:
        return (f"FaultHook(injected={sum(self.injected.values())}, "
                f"plan={self.plan!r})")
