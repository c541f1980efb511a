"""A simulated machine: components, a shared clock and the energy ledger.

The machine owns the single source of truth for simulated time.  Two usage
styles coexist:

* **Sequential** (microbenchmarks, LLM inference): operations like
  ``gpu.launch(kernel)`` log their activity and advance the clock
  themselves.  A microbenchmark sweep calls
  ``gpu.launch_many(kernel, min_launches=..., min_seconds=...)``
  instead: one loop that does what those launches and clock steps would,
  every component's static power included, bitwise, and writes the
  records to the ledger a few thousand at a time with
  :meth:`~repro.hardware.ledger.EnergyLedger.log_many`.
* **Event-driven** (schedulers, request loops): a discrete-event
  simulation logs activities with explicit timestamps and calls
  :meth:`Machine.advance_to` as its clock progresses; static power is
  integrated on each advance.

Either way, every Joule ends up in :attr:`Machine.ledger`, which the
measurement channels in :mod:`repro.measurement` then observe imperfectly.
"""

from __future__ import annotations

import math
from typing import TypeVar

from repro.core.errors import HardwareError
from repro.hardware.component import Component
from repro.hardware.ledger import EnergyLedger

__all__ = ["Machine"]

ComponentT = TypeVar("ComponentT", bound=Component)


class Machine:
    """A collection of components sharing a clock and an energy ledger."""

    def __init__(self, name: str = "machine") -> None:
        self.name = name
        self.ledger = EnergyLedger()
        self._now = 0.0
        self._components: dict[str, Component] = {}

    # -- structure ----------------------------------------------------------
    def add(self, component: ComponentT) -> ComponentT:
        """Attach a component; returns it for fluent construction."""
        if component.name in self._components:
            raise HardwareError(
                f"machine {self.name!r} already has a component named "
                f"{component.name!r}")
        self._components[component.name] = component
        component.attach(self)
        return component

    def component(self, name: str) -> Component:
        """Look up a component by name."""
        try:
            return self._components[name]
        except KeyError:
            raise HardwareError(
                f"machine {self.name!r} has no component named {name!r}; "
                f"known: {sorted(self._components)}") from None

    @property
    def components(self) -> list[Component]:
        """All components in attachment order."""
        return list(self._components.values())

    # -- clock ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current machine time in seconds."""
        return self._now

    def advance(self, dt: float) -> float:
        """Advance the clock by ``dt`` seconds, integrating static power."""
        # One chained comparison rejects negative, NaN and infinite steps.
        if not 0.0 <= dt < math.inf:
            raise HardwareError(f"cannot advance the clock by {dt} s")
        if dt == 0:
            return self._now
        t_start = self._now
        self._now += dt
        for component in self._components.values():
            component.on_advance(t_start, self._now)
        return self._now

    def advance_to(self, t: float) -> float:
        """Advance the clock to absolute time ``t``."""
        if t < self._now:
            raise HardwareError(
                f"cannot rewind the clock to t={t} s (now at {self._now} s)")
        return self.advance(t - self._now)

    # -- accounting convenience -----------------------------------------------
    def total_joules(self) -> float:
        """All energy accounted so far, across components."""
        return self.ledger.total_joules()

    def energy_breakdown(self) -> dict[str, float]:
        """Joules per component."""
        return self.ledger.by_component()

    def __repr__(self) -> str:
        return (f"Machine(name={self.name!r}, t={self._now:.6g} s, "
                f"components={sorted(self._components)})")
