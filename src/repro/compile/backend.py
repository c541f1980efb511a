"""The compiled prediction backend.

Plugs :mod:`repro.compile` into the
:class:`~repro.core.predict.PredictionBackend` seam: when a session's
evaluation reaches the Monte Carlo stage (exact enumeration blocked by a
continuous ECV), the compiled backend looks the query up in its
:class:`~repro.compile.compiler.CompileCache` and answers

* from the exact analytic distribution (``analytic`` tier),
* from the numpy kernel's draws (``kernel`` tier — bitwise identical to
  the Monte Carlo engines' draws at the same entropy), or
* by falling back to the plain :class:`~repro.core.predict.SampledBackend`
  (``sampled`` tier, anonymous callables, unsupported modes, and a
  predicated kernel that defers for this ``(entropy, n)``).  A deferral
  counts as ``sampled``, leaves the same ``compile fallback`` span note
  and first rewinds any generator the entropy draw advanced, so the
  fallback sees the session exactly as if the kernel had never run.

Hook fidelity: a compiled answer surfaces to the session's hook chain as
one batched trace — ``_on_trace_begin`` followed by ``_on_batch(n, ...)``
— exactly the event shape the vector engine emits, so span recorders and
accounting hooks keep seeing the work.
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

from repro.compile.compiler import CompileCache, KernelDeferred
from repro.core.ecv import ECVEnvironment
from repro.core.interface import EnergyCall
from repro.core.predict import PredictionBackend, SampledBackend

__all__ = ["CompiledBackend"]


class CompiledBackend(PredictionBackend):
    """Answer Monte Carlo stages from compiled forms where possible."""

    name = "compiled"

    def __init__(self, cache: CompileCache | None = None,
                 fallback: PredictionBackend | None = None) -> None:
        self.cache = cache if cache is not None else CompileCache()
        self.fallback = fallback if fallback is not None else SampledBackend()
        self.stats = {"analytic": 0, "kernel": 0, "sampled": 0}

    def monte_carlo(self, session: Any, *,
                    fn: Callable[[], Any],
                    env: ECVEnvironment,
                    mode: str,
                    rng: np.random.Generator | None,
                    n_samples: int,
                    engine: Any = None,
                    call: Callable[[], Any] | None = None) -> Any:
        fallback_args = dict(fn=fn, env=env, mode=mode, rng=rng,
                             n_samples=n_samples, engine=engine, call=call)
        if not isinstance(call, EnergyCall) or mode not in (
                "expected", "distribution"):
            # Anonymous callables have no compile key; other modes never
            # reach the Monte Carlo stage in the first place.
            self.stats["sampled"] += 1
            return self.fallback.monte_carlo(session, **fallback_args)
        entry = self.cache.get(call, env, max_traces=session.max_traces)
        if entry.tier == "sampled":
            return self._fall_back(session, entry.reason, fallback_args)
        # Only a predicated kernel can defer; keep the other hits lean.
        generators = ([g for g in (rng, session._rng) if g is not None]
                      if entry.predicated else [])
        states = [g.bit_generator.state for g in generators]
        entropy = session._mc_entropy(rng)
        try:
            expected, distribution = entry.answers(entropy, int(n_samples))
        except KernelDeferred as exc:
            for generator, state in zip(generators, states):
                generator.bit_generator.state = state
            return self._fall_back(session, str(exc), fallback_args)
        self.stats[entry.tier] += 1
        # Mirror the vector engine's hook shape: one batched trace whose
        # recorded value is the full output distribution.
        session._on_trace_begin()
        session._on_batch(int(n_samples), distribution)
        return expected if mode == "expected" else distribution

    def _fall_back(self, session: Any, why: str, args: dict) -> Any:
        self.stats["sampled"] += 1
        session._annotate(f"compile fallback: {why}")
        return self.fallback.monte_carlo(session, **args)

    def __repr__(self) -> str:
        return (f"CompiledBackend(cache={len(self.cache)} entries, "
                f"stats={self.stats})")
