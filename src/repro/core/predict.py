"""The prediction-backend layer: one seam for every energy prediction.

Before this module the repository predicted energy in four
independently-implemented places — the Monte Carlo engines, the
gateway's admission-quantile path, the fleet cost models and the
managers' closed-form fallbacks.  :class:`PredictionBackend` is the one
protocol they all route through now:

``predict(call, ...)``
    Answer an energy query (an :class:`~repro.core.interface.EnergyCall`)
    in any evaluation mode, through the canonical evaluation pipeline —
    sessions, hooks and memoization all still apply; the backend only
    decides how the *Monte Carlo stage* is carried out.

``mean(call, ...)`` / ``quantile(call, q, ...)``
    The two shapes admission control and cost models actually consume:
    expected Joules as a float, and a distribution quantile.

``closed_form(call)``
    The managers' deterministic fallback — call the interface method
    directly (no session, no ECV sampling) and coerce to Joules.

``monte_carlo(session, ...)``
    The strategy hook :meth:`EvalSession._monte_carlo` delegates to.
    :class:`SampledBackend` implements it with the Monte Carlo engines
    exactly as the session always has; the compiled backend
    (:mod:`repro.compile`) answers from analytic forms or straight-line
    numpy kernels and falls back here when it cannot.

Backends are registered by name (``BACKENDS``/:func:`resolve_backend`),
mirroring the engine registry, so sessions and policies select them with
a string: ``EvalSession(backend="compiled")``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Hashable, Mapping

import numpy as np

from repro.core.ecv import ECVEnvironment
from repro.core.errors import EvaluationError
from repro.core.mcengine import MCEngine, MCTask, resolve_engine
from repro.core.units import Energy, as_joules

if TYPE_CHECKING:
    from repro.core.interface import EnergyCall
    from repro.core.session import EvalSession

__all__ = [
    "PredictionBackend",
    "SampledBackend",
    "BACKENDS",
    "register_backend",
    "resolve_backend",
]


class PredictionBackend:
    """Strategy protocol for answering energy queries.

    Subclasses implement :meth:`monte_carlo` — the stage reached when
    exact enumeration is impossible.  All other methods are final
    conveniences expressed through the canonical evaluation pipeline, so
    every prediction, whichever backend serves it, keeps session
    semantics (memoization, spans, budgets) intact.
    """

    name = "abstract"

    # -- the strategy hook -------------------------------------------------
    def monte_carlo(self, session: "EvalSession", *,
                    fn: Callable[[], Any],
                    env: ECVEnvironment,
                    mode: str,
                    rng: np.random.Generator | None,
                    n_samples: int,
                    engine: "str | MCEngine | None" = None,
                    call: Callable[[], Any] | None = None) -> Any:
        """Produce the Monte Carlo answer for one evaluation."""
        raise NotImplementedError

    # -- the query surface -------------------------------------------------
    def predict(self, call: "EnergyCall | Callable[[], Any]", *,
                session: "EvalSession | None" = None,
                mode: str | None = None,
                env: ECVEnvironment | Mapping[str, Any] | None = None,
                engine: "str | MCEngine | None" = None,
                n_samples: int | None = None,
                max_traces: int | None = None,
                rng: np.random.Generator | None = None,
                fingerprint: Hashable | None = None) -> Any:
        """Answer a query through the canonical pipeline via this backend.

        Equivalent to :func:`repro.core.interface.evaluate` with the
        session's Monte Carlo stage served by *this* backend (the
        session's own backend is restored afterwards).
        """
        from repro.core.interface import evaluate
        if session is None:
            from repro.core.session import EvalSession
            session = EvalSession(backend=self)
            return evaluate(call, session=session, mode=mode, env=env,
                            engine=engine, n_samples=n_samples,
                            max_traces=max_traces, rng=rng,
                            fingerprint=fingerprint)
        previous = session.backend
        session.backend = self
        try:
            return evaluate(call, session=session, mode=mode, env=env,
                            engine=engine, n_samples=n_samples,
                            max_traces=max_traces, rng=rng,
                            fingerprint=fingerprint)
        finally:
            session.backend = previous

    def mean(self, call: "EnergyCall", *,
             session: "EvalSession | None" = None,
             env: ECVEnvironment | Mapping[str, Any] | None = None,
             fingerprint: Hashable | None = None,
             n_samples: int | None = None) -> float:
        """Expected Joules of a query, as a plain float."""
        value = self.predict(call, session=session, mode="expected",
                             env=env, fingerprint=fingerprint,
                             n_samples=n_samples)
        return as_joules(value)

    def quantile(self, call: "EnergyCall", q: float, *,
                 session: "EvalSession | None" = None,
                 env: ECVEnvironment | Mapping[str, Any] | None = None,
                 fingerprint: Hashable | None = None,
                 n_samples: int | None = None) -> float:
        """The ``q``-quantile of a query's output distribution, in Joules."""
        dist = self.predict(call, session=session, mode="distribution",
                            env=env, fingerprint=fingerprint,
                            n_samples=n_samples)
        return float(dist.quantile(q))

    def worst(self, call: "EnergyCall", *,
              session: "EvalSession | None" = None,
              env: ECVEnvironment | Mapping[str, Any] | None = None,
              fingerprint: Hashable | None = None) -> float:
        """Worst-case Joules (exact extreme-value enumeration)."""
        value = self.predict(call, session=session, mode="worst", env=env,
                             fingerprint=fingerprint)
        return as_joules(value)

    def closed_form(self, call: "EnergyCall") -> float:
        """Deterministic direct invocation, in Joules (manager fallback).

        Calls the interface method outside any session — exactly the
        historical ``interface.E_run(...).as_joules`` fallback the
        managers use when evaluation fails, now spelled once.
        """
        return as_joules(call())

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class SampledBackend(PredictionBackend):
    """The Monte Carlo engines, verbatim — the default backend.

    :meth:`monte_carlo` is the historical body of
    ``EvalSession._monte_carlo``: resolve the engine (per-call override
    over the session default), run its draws over deterministic sample
    columns, reduce per the mode.
    """

    name = "sampled"

    def monte_carlo(self, session: "EvalSession", *,
                    fn: Callable[[], Any],
                    env: ECVEnvironment,
                    mode: str,
                    rng: np.random.Generator | None,
                    n_samples: int,
                    engine: "str | MCEngine | None" = None,
                    call: Callable[[], Any] | None = None) -> Any:
        from repro.core.distributions import Empirical

        resolved = (session.engine if engine is None
                    else resolve_engine(engine))
        task = MCTask(fn=fn, env=env, n=int(n_samples),
                      entropy=session._mc_entropy(rng), session=session)
        draws = resolved.draws(task)
        if mode == "expected":
            return Energy(float(np.mean(draws)))
        return Empirical(draws)


_SAMPLED = SampledBackend()

#: Named backend registry (``EvalSession(backend="compiled")``, policies,
#: CLI flags).  :mod:`repro.compile` registers ``"compiled"`` on import.
BACKENDS: dict[str, PredictionBackend] = {
    "sampled": _SAMPLED,
}


def register_backend(backend: PredictionBackend) -> PredictionBackend:
    """Register a backend under its ``name`` (later wins, like engines)."""
    BACKENDS[backend.name] = backend
    return backend


def resolve_backend(backend: "str | PredictionBackend | None"
                    ) -> PredictionBackend:
    """Resolve a backend name (or instance) to a backend.

    ``None`` means the default :class:`SampledBackend` — existing
    sessions keep their exact historical behavior.  ``"compiled"``
    lazily imports :mod:`repro.compile`, which registers itself.
    """
    if backend is None:
        return _SAMPLED
    if isinstance(backend, PredictionBackend):
        return backend
    if backend == "compiled" and backend not in BACKENDS:
        import repro.compile  # noqa: F401 - registers the backend
    try:
        return BACKENDS[backend]
    except (KeyError, TypeError):
        raise EvaluationError(
            f"unknown prediction backend {backend!r}; expected one of "
            f"{sorted(BACKENDS)} or a PredictionBackend instance") from None
