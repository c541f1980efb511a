"""Base class for simulated energy-consuming hardware components.

A component belongs to a :class:`~repro.hardware.machine.Machine`, shares
the machine's clock and writes its energy into the machine's ledger.  Two
kinds of energy are accounted:

* **activity energy** — logged explicitly by subclasses when work happens
  (:meth:`Component.log_activity`);
* **static energy** — integrated by the machine clock: every time the
  machine advances, each component logs ``static_power() * dt``
  (:meth:`Component.on_advance`).  Subclasses with temperature-dependent
  leakage override :meth:`static_power`.
"""

from __future__ import annotations

from repro.core.errors import HardwareError
from repro.hardware.ledger import EnergyLedger

__all__ = ["Component"]


class Component:
    """A named energy consumer attached to a machine."""

    def __init__(self, name: str, domain: str = "board") -> None:
        if not name:
            raise HardwareError("a component needs a non-empty name")
        self.name = name
        self.domain = domain
        self._ledger: EnergyLedger | None = None
        self._machine = None

    # -- wiring ------------------------------------------------------------
    def attach(self, machine) -> None:
        """Called by the machine when the component is added."""
        self._machine = machine
        self._ledger = machine.ledger

    @property
    def machine(self):
        """The owning machine (raises if unattached)."""
        if self._machine is None:
            raise HardwareError(f"component {self.name!r} is not attached to "
                                f"a machine")
        return self._machine

    @property
    def now(self) -> float:
        """The machine clock."""
        return self.machine.now

    # -- accounting ----------------------------------------------------------
    def log_activity(self, t_start: float, t_end: float, joules: float,
                     tag: str = "activity") -> None:
        """Account dynamic energy over an interval."""
        if self._ledger is None:
            raise HardwareError(f"component {self.name!r} is not attached to "
                                f"a machine")
        self._ledger.log(self.name, self.domain, t_start, t_end, joules, tag)

    def static_power(self) -> float:
        """Static/idle power draw in Watts at this instant.

        The default component draws nothing when idle; subclasses with
        leakage override this (possibly temperature-dependent).
        """
        return 0.0

    def on_advance(self, t_start: float, t_end: float) -> None:
        """Machine-clock hook: account static energy over ``[t_start, t_end]``.

        Subclasses needing finer behaviour (thermal integration, state
        machines) extend this; they must call ``super().on_advance`` or
        account static energy themselves.
        """
        dt = t_end - t_start
        if dt <= 0:
            return
        power = self.static_power()
        if power > 0:
            self.log_activity(t_start, t_end, power * dt, tag="static")

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"
