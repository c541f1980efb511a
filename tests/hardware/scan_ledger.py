"""Reference object-per-record ledger for the columnar ``EnergyLedger``.

A copy of ``repro.hardware.ledger`` as it was before the ledger became
columnar: one frozen :class:`EnergyRecord` per record, and every query a
scan over the record list.  ``test_ledger.py`` drives it and the real
ledger through the same operations and requires equal answers, bit for
bit.  Two things changed: ``total_joules`` folds left explicitly, as
``sum()`` did on Python 3.11, and a record with a non-finite timestamp
is refused, as the real ledger now refuses it.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Iterable

from repro.core.errors import HardwareError

__all__ = ["EnergyRecord", "EnergyLedger"]


@dataclass(frozen=True, slots=True)
class EnergyRecord:
    """One accounted interval of energy consumption."""

    component: str
    domain: str
    t_start: float
    t_end: float
    joules: float
    tag: str = ""

    def __post_init__(self) -> None:
        if not (math.isfinite(self.t_start) and math.isfinite(self.t_end)):
            raise HardwareError(
                f"energy record for {self.component!r} has non-finite "
                f"interval [{self.t_start}, {self.t_end}]")
        if self.t_end < self.t_start:
            raise HardwareError(
                f"energy record for {self.component!r} has inverted interval "
                f"[{self.t_start}, {self.t_end}]")
        if not math.isfinite(self.joules):
            raise HardwareError(
                f"energy record for {self.component!r} has non-finite energy "
                f"{self.joules} J")
        if self.joules < 0:
            raise HardwareError(
                f"energy record for {self.component!r} has negative energy "
                f"{self.joules} J")

    @property
    def duration(self) -> float:
        """Interval length in seconds."""
        return self.t_end - self.t_start

    def overlap_joules(self, t0: float, t1: float) -> float:
        """Energy attributable to the window ``[t0, t1]`` (pro-rated)."""
        if self.duration == 0.0:
            # Instantaneous record: counts if its instant is in the window.
            return self.joules if t0 <= self.t_start <= t1 else 0.0
        overlap = min(self.t_end, t1) - max(self.t_start, t0)
        if overlap <= 0:
            return 0.0
        return self.joules * overlap / self.duration

    @property
    def average_power(self) -> float:
        """Mean power over the interval in Watts (inf for instants)."""
        if self.duration == 0.0:
            return float("inf") if self.joules > 0 else 0.0
        return self.joules / self.duration


class EnergyLedger:
    """Append-only store of energy records with windowed queries."""

    def __init__(self) -> None:
        self._records: list[EnergyRecord] = []
        self._starts: list[float] = []
        self._max_end = 0.0
        self._max_duration = 0.0
        # (t0, component, domain) -> (length, running sum, latest end) of
        # the record prefix energy_between has settled for that window.
        self._prefix: dict[tuple, tuple[int, float, float]] = {}
        #: Readings rejected by :meth:`log_reading`, per component.
        self.dropped: dict[str, int] = {}

    def log(self, record: EnergyRecord) -> None:
        """Append one record. Records must arrive in start-time order."""
        t_start, t_end = record.t_start, record.t_end
        starts = self._starts
        if starts and t_start < starts[-1]:
            raise HardwareError(
                f"energy records must be appended in start-time order; got "
                f"t_start={t_start} after {starts[-1]}")
        self._records.append(record)
        starts.append(t_start)
        # Runs once per record: plain comparisons are cheaper than max().
        if t_end > self._max_end:
            self._max_end = t_end
        if t_end - t_start > self._max_duration:
            self._max_duration = t_end - t_start

    def log_reading(self, component: str, domain: str, t_start: float,
                    t_end: float, joules: float, tag: str = ""
                    ) -> EnergyRecord | None:
        """Log a raw meter reading, quarantining garbage instead of raising.

        Real meters occasionally return NaN, negative deltas (counter
        wrap) or inverted timestamps.  :meth:`log` treats those as
        programming errors; this entry point treats them as *data* —
        a bad reading is dropped, counted in :attr:`dropped`, and
        ``None`` is returned so callers can degrade (interpolate, skip)
        rather than crash mid-run.
        """
        try:
            record = EnergyRecord(component=component, domain=domain,
                                  t_start=t_start, t_end=t_end,
                                  joules=joules, tag=tag)
            self.log(record)
        except HardwareError:
            self.dropped[component] = self.dropped.get(component, 0) + 1
            return None
        return record

    # -- queries ---------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._records)

    def records(self, component: str | None = None,
                domain: str | None = None) -> list[EnergyRecord]:
        """All records, optionally filtered by component and/or domain."""
        selected: Iterable[EnergyRecord] = self._records
        if component is not None:
            selected = (r for r in selected if r.component == component)
        if domain is not None:
            selected = (r for r in selected if r.domain == domain)
        return list(selected)

    def total_joules(self, component: str | None = None,
                     domain: str | None = None) -> float:
        """Total accounted energy, optionally filtered."""
        # An explicit left fold: sum() compensates from Python 3.12 on.
        total = 0.0
        for r in self.records(component, domain):
            total += r.joules
        return total

    def energy_between(self, t0: float, t1: float,
                       component: str | None = None,
                       domain: str | None = None) -> float:
        """Energy attributable to the window ``[t0, t1]``, pro-rated."""
        if t1 < t0:
            raise HardwareError(f"inverted query window [{t0}, {t1}]")
        # Records are start-ordered; those starting after t1 cannot overlap,
        # and none starting before t0 - max_duration can reach into [t0, t1].
        stop = bisect.bisect_right(self._starts, t1)
        begin = bisect.bisect_left(self._starts, t0 - self._max_duration)
        # Cumulative counters (NVML, RAPL) ask for [0, t] with t rising.
        # A record ending by t1 adds the same term to every later window
        # from the same t0, so the running sum over such a prefix is kept
        # and the sum goes on in record order: bitwise the full scan.
        # Only windows opening at or before the first record are kept, so
        # sliding windows add no entries.
        first = self._starts[0] if self._starts else t0
        key = (t0, component, domain) if t0 <= first else None
        total, index, prefix_end = 0.0, begin, 0.0
        cached = self._prefix.get(key)
        if cached is not None and cached[2] <= t1:
            index, total, prefix_end = cached
        settled = key is not None
        records = self._records
        for i in range(index, stop):
            record = records[i]
            if settled:
                if record.t_end <= t1:
                    if record.t_end > prefix_end:
                        prefix_end = record.t_end
                else:
                    self._prefix[key] = (i, total, prefix_end)
                    settled = False
            if record.t_end < t0 and record.duration > 0:
                continue
            if component is not None and record.component != component:
                continue
            if domain is not None and record.domain != domain:
                continue
            total += record.overlap_joules(t0, t1)
        if settled:
            self._prefix[key] = (stop, total, prefix_end)
        return total

    def power_at(self, t: float, component: str | None = None,
                 domain: str | None = None) -> float:
        """Instantaneous power at time ``t`` (sum of covering records)."""
        stop = bisect.bisect_right(self._starts, t)
        power = 0.0
        for record in self._records[:stop]:
            if record.t_end <= t or record.duration == 0.0:
                continue
            if component is not None and record.component != component:
                continue
            if domain is not None and record.domain != domain:
                continue
            power += record.average_power
        return power

    def by_component(self) -> dict[str, float]:
        """Total Joules per component — the attribution breakdown."""
        totals: dict[str, float] = {}
        for record in self._records:
            totals[record.component] = totals.get(record.component, 0.0) + record.joules
        return totals

    def by_tag(self, component: str | None = None) -> dict[str, float]:
        """Total Joules per tag, optionally for a single component."""
        totals: dict[str, float] = {}
        for record in self._records:
            if component is not None and record.component != component:
                continue
            totals[record.tag] = totals.get(record.tag, 0.0) + record.joules
        return totals

    @property
    def horizon(self) -> float:
        """Latest record end time."""
        return self._max_end
