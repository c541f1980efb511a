"""Seeded, replayable fault plans.

A :class:`FaultPlan` answers one question — "does the ``k``-th visit to
fault site ``s`` fail, and how?" — as a pure function of ``(entropy,
site, visit index)``.  The derivation copies the replay discipline of
:class:`repro.core.mcengine.ColumnStore`: a ``numpy.random.SeedSequence``
spawned from the plan's entropy with a spawn key of ``(tag,
crc32(site), visit)``.  Because the decision depends on nothing else —
not wall-clock, not process identity, not engine — the same plan against
the same workload injects the same faults under the serial and vector
engines, which is what makes degraded paths testable at all.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from repro.core.errors import ServingError
from repro.core.mcengine import DEFAULT_ENTROPY

__all__ = ["FaultSpec", "FaultPlan", "FAULT_SITES", "FAULT_KINDS"]

#: Spawn-key tag separating fault draws from the Monte Carlo column
#: (0xC0) and outcome (0x0D) generator families.
_FAULT_TAG = 0xFA

#: The named injection sites the stack consults, and what fails there.
FAULT_SITES = {
    "interface": "keyed interface evaluation raises",
    "ecv": "ECV sampling inside an evaluation raises",
    "hardware": "hardware layer reports a NaN/garbage reading",
    "latency": "evaluation overruns: simulated latency is added",
    "fleet.replica": "a gateway replica crashes (queue lost, drained)",
    "fleet.lease": "a budget-shard lease renewal fails at the coordinator",
}

#: Sites consulted outside the per-evaluation path (the fleet control
#: plane); :meth:`FaultPlan.uniform` leaves them out so the
#: chaos-benchmark shape keeps meaning "evaluations fail".
NON_EVAL_SITES = ("fleet.replica", "fleet.lease")

#: How a firing spec manifests at its site.
FAULT_KINDS = ("error", "nan", "latency")

#: The manifestation each site uses unless the spec overrides it.
_DEFAULT_KIND = {
    "interface": "error",
    "ecv": "error",
    "hardware": "nan",
    "latency": "latency",
    "fleet.replica": "error",
    "fleet.lease": "error",
}


@dataclass(frozen=True)
class FaultSpec:
    """One line of a fault plan: *this site fails this often, this way*."""

    site: str
    probability: float
    kind: str | None = None      # None: the site's natural kind
    latency_s: float = 0.05      # added simulated seconds (kind "latency")
    message: str | None = None   # override for the injected error text

    def __post_init__(self) -> None:
        if self.site not in FAULT_SITES:
            raise ServingError(
                f"unknown fault site {self.site!r}; expected one of "
                f"{sorted(FAULT_SITES)}")
        if not 0.0 <= self.probability <= 1.0:
            raise ServingError(
                f"fault probability must be in [0, 1], "
                f"got {self.probability}")
        if self.kind is not None and self.kind not in FAULT_KINDS:
            raise ServingError(
                f"unknown fault kind {self.kind!r}; expected one of "
                f"{list(FAULT_KINDS)}")

    @property
    def effective_kind(self) -> str:
        return self.kind if self.kind is not None else _DEFAULT_KIND[self.site]


class FaultPlan:
    """A seeded schedule of injected failures over named sites.

    The plan keeps one visit counter per site; :meth:`decide` advances it
    and returns the spec that fires on this visit (or ``None``).  Visit
    counters are the only mutable state — :meth:`reset` (or
    :meth:`clone`) rewinds them for an exact replay.
    """

    def __init__(self, specs: tuple[FaultSpec, ...] | list[FaultSpec] = (),
                 entropy: int | None = None) -> None:
        self.specs = tuple(specs)
        self.entropy = int(DEFAULT_ENTROPY if entropy is None else entropy)
        self._by_site: dict[str, list[FaultSpec]] = {}
        for spec in self.specs:
            self._by_site.setdefault(spec.site, []).append(spec)
        self._visits: dict[str, int] = {}

    @classmethod
    def uniform(cls, probability: float,
                sites: tuple[str, ...] | list[str] | None = None,
                entropy: int | None = None) -> "FaultPlan":
        """The chaos-benchmark shape: one probability across sites."""
        chosen = tuple(sites) if sites is not None else tuple(
            site for site in FAULT_SITES if site not in NON_EVAL_SITES)
        return cls(tuple(FaultSpec(site, probability) for site in chosen),
                   entropy=entropy)

    # -- the decision function ------------------------------------------------
    def _draws(self, site: str, visit: int, n: int) -> np.ndarray:
        seq = np.random.SeedSequence(
            self.entropy,
            spawn_key=(_FAULT_TAG, zlib.crc32(site.encode("utf-8")),
                       int(visit)))
        return np.random.default_rng(seq).random(n)

    def decide(self, site: str) -> FaultSpec | None:
        """The spec firing on this visit to ``site``, advancing its counter.

        Each spec targeting the site gets an independent uniform draw (in
        declaration order, from one per-visit generator); the first that
        fires wins.  Sites with no specs never fire but still count
        visits, so adding a spec later does not shift other sites.
        """
        visit = self._visits.get(site, 0)
        self._visits[site] = visit + 1
        specs = self._by_site.get(site)
        if not specs:
            return None
        draws = self._draws(site, visit, len(specs))
        for spec, draw in zip(specs, draws):
            if draw < spec.probability:
                return spec
        return None

    def peek_uniform(self, site: str) -> float:
        """One deterministic uniform draw tied to this visit of ``site``.

        Advances the site's counter like :meth:`decide`; used for
        derived randomness that must replay (retry jitter).
        """
        visit = self._visits.get(site, 0)
        self._visits[site] = visit + 1
        return float(self._draws(site, visit, 1)[0])

    # -- replay ---------------------------------------------------------------
    def reset(self) -> None:
        """Rewind every visit counter: the next run replays exactly."""
        self._visits.clear()

    def clone(self) -> "FaultPlan":
        """A fresh-counter copy (same specs, same entropy)."""
        return FaultPlan(self.specs, entropy=self.entropy)

    @property
    def visits(self) -> dict[str, int]:
        """Visit counts per site so far (a copy)."""
        return dict(self._visits)

    def __repr__(self) -> str:
        sites = sorted({spec.site for spec in self.specs})
        return (f"FaultPlan(sites={sites}, entropy={self.entropy:#x}, "
                f"visits={sum(self._visits.values())})")
