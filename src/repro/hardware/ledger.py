"""Ground-truth energy accounting for simulated hardware.

Every simulated component logs its energy into its machine's
:class:`EnergyLedger` — one record per activity or static-power interval,
with the Joules consumed and the interval it covers.  The ledger is the
*ground truth* of the simulation:

* measurement channels (:mod:`repro.measurement`) expose noisy, quantised,
  coarse views of it (as NVML and RAPL do for real silicon);
* energy interfaces *predict* it;
* divergence between the two is what §4.2's testing workflow flags as an
  energy bug.

Records assume uniform power over their interval, which lets the ledger
answer windowed queries (``energy_between``) and instantaneous power
queries (``power_at``) by pro-rating.

The ledger is columnar: record *i* is ``t_start``, ``t_end`` and
``joules`` at index *i* of three ``array('d')`` columns, and its
``(component, domain, tag)`` key at index *i* of a list that holds one
shared tuple per distinct key.  No per-record object is kept, so logging
appends four values instead of building a GC-tracked object, and a
record costs 32 bytes.  :meth:`EnergyLedger.log` keeps a running
total in record order, the same left fold a scan would do, so the
unfiltered :meth:`EnergyLedger.total_joules` costs O(1).  Windowed and
filtered queries scan the columns; :meth:`EnergyLedger.records` builds
:class:`EnergyRecord` objects only when a caller asks for them.
:meth:`EnergyLedger.log_many` appends a batch of records with one
extend per column, checked as :meth:`EnergyLedger.log` checks them.
"""

from __future__ import annotations

import bisect
import math
from array import array
from dataclasses import dataclass
from typing import Sequence

from repro.core.errors import HardwareError

__all__ = ["EnergyRecord", "EnergyLedger"]

_INF = math.inf


def _check_record(component: str, t_start: float, t_end: float,
                 joules: float) -> None:
    """Raise :class:`HardwareError` if no record may hold these values."""
    if -_INF < t_start <= t_end < _INF and 0.0 <= joules < _INF:
        # The common case, in one chained comparison (NaN fails it).
        return
    if not (math.isfinite(t_start) and math.isfinite(t_end)):
        # A NaN start would also pass every later start-order check.
        raise HardwareError(
            f"energy record for {component!r} has non-finite interval "
            f"[{t_start}, {t_end}]")
    if t_end < t_start:
        raise HardwareError(
            f"energy record for {component!r} has inverted interval "
            f"[{t_start}, {t_end}]")
    if not math.isfinite(joules):
        raise HardwareError(
            f"energy record for {component!r} has non-finite energy "
            f"{joules} J")
    if joules < 0:
        raise HardwareError(
            f"energy record for {component!r} has negative energy "
            f"{joules} J")


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
        _check_record(self.component, self.t_start, self.t_end, self.joules)

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
    """Append-only columnar store of energy records with windowed queries."""

    def __init__(self) -> None:
        self._starts = array("d")
        self._ends = array("d")
        self._joules = array("d")
        # Record i's (component, domain, tag), one shared tuple per key.
        self._keys: list[tuple[str, str, str]] = []
        self._key_of: dict[tuple[str, str, str], tuple[str, str, str]] = {}
        self._total = 0.0
        self._max_end = 0.0
        self._max_duration = 0.0
        # (t0, component, domain) -> (length, running sum, latest end) of
        # the record prefix energy_between has settled for that window.
        self._prefix: dict[tuple, tuple[int, float, float]] = {}
        #: Readings rejected by :meth:`log_reading`, per component.
        self.dropped: dict[str, int] = {}

    def log(self, component: str, domain: str, t_start: float, t_end: float,
            joules: float, tag: str = "") -> None:
        """Append one record. Records must arrive in start-time order.

        Raises :class:`HardwareError` before anything is stored if the
        record is invalid or starts before the last one.
        """
        _check_record(component, t_start, t_end, joules)
        starts = self._starts
        if starts and t_start < starts[-1]:
            raise HardwareError(
                f"energy records must be appended in start-time order; got "
                f"t_start={t_start} after {starts[-1]}")
        # Tags are often built per call (f"microbench:{name}"); one shared
        # key per distinct value keeps a long ledger at 32 bytes a record.
        key = (component, domain, tag)
        key = self._key_of.setdefault(key, key)
        starts.append(t_start)
        self._ends.append(t_end)
        self._joules.append(joules)
        self._keys.append(key)
        # The left fold sum() does on Python 3.11; 3.12 compensates.
        self._total += joules
        # Runs once per record: plain comparisons are cheaper than max().
        if t_end > self._max_end:
            self._max_end = t_end
        if t_end - t_start > self._max_duration:
            self._max_duration = t_end - t_start

    def log_many(self, components: Sequence[str], domains: Sequence[str],
                 t_starts: Sequence[float], t_ends: Sequence[float],
                 joules: Sequence[float], tags: Sequence[str]) -> None:
        """Append records given as six equal-length columns, in order.

        Stores what the same :meth:`log` calls would, running total
        included, but checks every record before it writes any column:
        on a :class:`HardwareError` nothing is stored.
        """
        n = len(t_starts)
        if not (len(components) == len(domains) == len(t_ends)
                == len(joules) == len(tags) == n):
            raise HardwareError("log_many needs columns of equal length")
        starts = self._starts
        last = starts[-1] if starts else -_INF
        total, max_end = self._total, self._max_end
        max_duration = self._max_duration
        for component, t_start, t_end, value in zip(components, t_starts,
                                                    t_ends, joules):
            _check_record(component, t_start, t_end, value)
            if t_start < last:
                raise HardwareError(
                    f"energy records must be appended in start-time order; "
                    f"got t_start={t_start} after {last}")
            last = t_start
            total += value
            if t_end > max_end:
                max_end = t_end
            if t_end - t_start > max_duration:
                max_duration = t_end - t_start
        key_of = self._key_of
        for key in set(zip(components, domains, tags)).difference(key_of):
            key_of[key] = key
        starts.extend(t_starts)
        self._ends.extend(t_ends)
        self._joules.extend(joules)
        self._keys.extend(map(key_of.__getitem__,
                              zip(components, domains, tags)))
        self._total, self._max_end = total, max_end
        self._max_duration = max_duration

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
            self.log(component, domain, t_start, t_end, joules, tag)
        except HardwareError:
            self.dropped[component] = self.dropped.get(component, 0) + 1
            return None
        return EnergyRecord(component, domain, t_start, t_end, joules, tag)

    # -- queries ---------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._starts)

    def _select(self, component: str | None,
                domain: str | None) -> range | list[int]:
        """Indices of the records matching the filters, in record order."""
        if component is None and domain is None:
            return range(len(self._starts))
        keys = self._keys
        return [i for i in range(len(keys))
                if (component is None or keys[i][0] == component)
                and (domain is None or keys[i][1] == domain)]

    def records(self, component: str | None = None,
                domain: str | None = None) -> list[EnergyRecord]:
        """All records, optionally filtered by component and/or domain."""
        starts, ends, joules = self._starts, self._ends, self._joules
        keys = self._keys
        return [EnergyRecord(keys[i][0], keys[i][1], starts[i], ends[i],
                             joules[i], keys[i][2])
                for i in self._select(component, domain)]

    def total_joules(self, component: str | None = None,
                     domain: str | None = None) -> float:
        """Total accounted energy, optionally filtered.

        Sums in record order, as a left fold, on every Python version.
        """
        if component is None and domain is None:
            return self._total
        joules = self._joules
        total = 0.0
        for i in self._select(component, domain):
            total += joules[i]
        return total

    def energy_between(self, t0: float, t1: float,
                       component: str | None = None,
                       domain: str | None = None) -> float:
        """Energy attributable to the window ``[t0, t1]``, pro-rated."""
        if t1 < t0:
            raise HardwareError(f"inverted query window [{t0}, {t1}]")
        starts = self._starts
        # Records are start-ordered; those starting after t1 cannot overlap,
        # and none starting before t0 - max_duration can reach into [t0, t1].
        stop = bisect.bisect_right(starts, t1)
        begin = bisect.bisect_left(starts, t0 - self._max_duration)
        # Cumulative counters (NVML, RAPL) ask for [0, t] with t rising.
        # A record ending by t1 adds the same term to every later window
        # from the same t0, so the running sum over such a prefix is kept
        # and the sum goes on in record order: bitwise the full scan.
        # Only windows opening at or before the first record are kept, so
        # sliding windows add no entries.
        first = starts[0] if starts else t0
        key = (t0, component, domain) if t0 <= first else None
        total, index, prefix_end = 0.0, begin, 0.0
        cached = self._prefix.get(key)
        if cached is not None and cached[2] <= t1:
            index, total, prefix_end = cached
        settled = key is not None
        ends, joules, record_keys = self._ends, self._joules, self._keys
        for i in range(index, stop):
            end = ends[i]
            if settled:
                if end <= t1:
                    if end > prefix_end:
                        prefix_end = end
                else:
                    self._prefix[key] = (i, total, prefix_end)
                    settled = False
            start = starts[i]
            duration = end - start
            if end < t0 and duration > 0:
                continue
            if component is not None and record_keys[i][0] != component:
                continue
            if domain is not None and record_keys[i][1] != domain:
                continue
            if duration == 0.0:
                # Instantaneous record: counts if its instant is in the window.
                if t0 <= start <= t1:
                    total += joules[i]
                continue
            # min(end, t1) - max(start, t0), as EnergyRecord.overlap_joules.
            overlap = ((t1 if t1 < end else end)
                       - (t0 if t0 > start else start))
            if overlap <= 0:
                continue
            total += joules[i] * overlap / duration
        if settled:
            self._prefix[key] = (stop, total, prefix_end)
        return total

    def power_at(self, t: float, component: str | None = None,
                 domain: str | None = None) -> float:
        """Instantaneous power at time ``t`` (sum of covering records)."""
        starts, ends, joules = self._starts, self._ends, self._joules
        keys = self._keys
        # As in energy_between: no record starting before t - max_duration
        # is still running at t.
        begin = bisect.bisect_left(starts, t - self._max_duration)
        stop = bisect.bisect_right(starts, t)
        power = 0.0
        for i in range(begin, stop):
            end = ends[i]
            duration = end - starts[i]
            if end <= t or duration == 0.0:
                continue
            if component is not None and keys[i][0] != component:
                continue
            if domain is not None and keys[i][1] != domain:
                continue
            power += joules[i] / duration
        return power

    def by_component(self) -> dict[str, float]:
        """Total Joules per component — the attribution breakdown."""
        totals: dict[str, float] = {}
        for (name, _, _), joules in zip(self._keys, self._joules):
            totals[name] = totals.get(name, 0.0) + joules
        return totals

    def by_tag(self, component: str | None = None) -> dict[str, float]:
        """Total Joules per tag, optionally for a single component."""
        totals: dict[str, float] = {}
        keys, joules = self._keys, self._joules
        for i in self._select(component, None):
            tag = keys[i][2]
            totals[tag] = totals.get(tag, 0.0) + joules[i]
        return totals

    @property
    def horizon(self) -> float:
        """Latest record end time."""
        return self._max_end
