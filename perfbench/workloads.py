"""The benchmark's four workloads, driven through the public ``repro`` API.

Each workload builds all of its inputs from the workload seed in its
constructor (the set-up the ``setup_s`` metric times), then runs *units*
of work: :meth:`Workload.prepare` builds the fresh program state a unit
needs (untimed), :meth:`Workload.run` is the timed call into ``repro``,
and :meth:`Workload.check` verifies the unit's outputs.  A unit counts
:meth:`Workload.ops` operations; a unit that raises or fails its check
counts them as failed (``predict`` counts only its failing queries).

========== ================================================ ============
workload   one unit                                         one op
========== ================================================ ============
serve      ``EnergyAwareGateway.serve`` over the horizon    request
fleet      ``EnergyGatewayFleet.serve`` over the horizon    request
predict    1008 queries, each answered 3 ways by 2 backends query
calibrate  one ``repro.calibration.calibrate`` call         calibration
========== ================================================ ============

Every unit replays the same seeded input on fresh program state, so the
digest of its outputs must equal the first unit's.  A run does a fixed
number of units, set by ``--seconds`` and the workload's nominal unit
time (:attr:`Workload.unit_s`), never by how fast the program runs.
Only ``predict`` times single ops (each query), and ``calibrate`` times
the segments of a calibration, one per microbenchmark, through the NVML
channel it hands ``calibrate``; ``serve`` and ``fleet`` are timed a
whole unit at a time.
"""

from __future__ import annotations

import hashlib
import json
import math
import time

import numpy as np

from repro.measurement.nvml import NVMLSim

__all__ = ["Workload", "ServeWorkload", "FleetWorkload", "PredictWorkload",
           "CalibrateWorkload", "WORKLOADS", "compile_query_set",
           "trace_targets"]


def digest(value) -> str:
    """sha256 of a JSON rendering (floats keep every digit)."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Workload:
    """Base: one named workload over seeded inputs."""

    name = ""
    why = ""
    #: Seconds one unit took on the machine the benchmark was written on
    #: (2 vCPUs); only fixes how many units a run of ``--seconds`` does.
    unit_s = 1.0
    #: Units a measured run does at least, whatever ``--seconds``.
    min_units = 3
    #: Units in the fixed work of a traced pass (and its untraced twin).
    trace_units = 1
    #: What :meth:`latencies` times: nothing (None), each op of a unit
    #: ("ops") or consecutive segments that add up to it ("segments").
    pieces = None

    def __init__(self) -> None:
        self._reference: str | None = None

    def units_for(self, seconds: float) -> int:
        """Units a measured run of ``seconds`` does."""
        return max(self.min_units, round(seconds / self.unit_s))

    def prepare(self):
        """Fresh program state for one unit (untimed)."""
        return None

    def run(self, ctx):
        """The timed unit; returns its output."""
        raise NotImplementedError

    def ops(self, ctx, out) -> int:
        """Operations the unit attempted."""
        raise NotImplementedError

    def nominal_ops(self, ctx) -> int:
        """Operations a unit attempts, for a unit that raised."""
        return 1

    def latencies(self, ctx, out) -> list[float]:
        """Wall seconds of each of the unit's :attr:`pieces`."""
        raise NotImplementedError

    def failed_ops(self, problems: list[str], n: int) -> int:
        """Ops of an ``n``-op unit that ``problems`` fail."""
        return n if problems else 0

    def check(self, ctx, out) -> list[str]:
        """Problems with the unit's outputs (empty when correct)."""
        raise NotImplementedError

    def counters(self, units) -> dict[str, float]:
        """Per-layer counters read from the program over ``units``.

        ``units`` is the list of ``(ctx, out)`` pairs of one traced pass.
        """
        return {}

    def output_digest(self) -> str | None:
        """A digest of the run's outputs, stable across runs at a seed."""
        return self._reference

    def _same_as_first(self, value: str) -> list[str]:
        if self._reference is None:
            self._reference = value
            return []
        if value != self._reference:
            return [f"output digest {value[:12]} differs from the first "
                    f"unit's {self._reference[:12]} on identical input"]
        return []


# -- serve -----------------------------------------------------------------

class ServeWorkload(Workload):
    """The ``repro-energy serve`` defaults on the kvstore adapter."""

    name = "serve"
    why = ("ledger read-heavy: total_joules scans the growing ledger 4x per "
           "request; sim engine and admission on top, evaluator nearly "
           "bypassed by the eval cache")
    unit_s = 2.0

    #: The ``repro-energy serve`` defaults.
    RATE = 300.0
    BUDGET = "0.5J+0.25W"
    MAX_QUEUE = 64

    def __init__(self, seed: int, horizon_s: float = 10.0) -> None:
        super().__init__()
        from repro.serving import parse_budget_spec, zip_arrivals
        from repro.sim.rng import RngFactory
        from repro.workloads import kv_request_trace, poisson_arrivals

        self.horizon_s = float(horizon_s)
        self.spec = parse_budget_spec(self.BUDGET)
        rng = RngFactory(seed)
        times = poisson_arrivals(self.RATE, self.horizon_s, rng)
        requests = kv_request_trace(len(times), rng.stream("trace"),
                                    put_fraction=0.7)
        self.arrivals = zip_arrivals(times, requests)
        # Warm-up: one short run so lazy imports and first-call costs are
        # paid in set-up, not in the first timed unit.
        warm = self.arrivals[:16]
        self.prepare().serve(warm, horizon=warm[-1][0])

    def prepare(self):
        from repro.core.policy import Policy
        from repro.serving import (EnergyAwareGateway, EnergyBudget,
                                   GatewayConfig, HardBudgetPolicy,
                                   KVStoreAdapter)

        budget = EnergyBudget("node", capacity_joules=self.spec.capacity_joules,
                              refill_watts=self.spec.refill_watts)
        return EnergyAwareGateway(
            KVStoreAdapter(), budget, HardBudgetPolicy(),
            config=GatewayConfig(max_queue=self.MAX_QUEUE,
                                 policy=Policy(mc_engine="vector")))

    def run(self, gateway):
        return gateway.serve(self.arrivals, horizon=self.horizon_s)

    def ops(self, gateway, report) -> int:
        return report.offered

    def nominal_ops(self, gateway) -> int:
        return len(self.arrivals)

    def check(self, gateway, report) -> list[str]:
        problems = []
        if report.offered != len(self.arrivals):
            problems.append(f"offered {report.offered} != "
                            f"{len(self.arrivals)} arrivals")
        outcomes = report.admitted + report.rejected + report.shed_queue_full
        if outcomes != report.offered:
            problems.append(f"outcomes sum to {outcomes}, offered "
                            f"{report.offered}")
        if report.ledger_joules > report.allowance_joules * (1 + 1e-9):
            problems.append(f"budget over-drawn: {report.ledger_joules} J > "
                            f"allowance {report.allowance_joules} J")
        records = [(r.request_id, r.decision, r.reason, r.start_s,
                    r.finish_s, r.predicted_expected_j, r.predicted_worst_j,
                    r.measured_j) for r in gateway.metrics.records]
        if len(records) != report.offered:
            problems.append(f"{len(records)} request records for "
                            f"{report.offered} offered")
        return problems + self._same_as_first(digest(records))

    def counters(self, units) -> dict[str, float]:
        hits = sum(gateway.cache.hits for gateway, _ in units)
        lookups = sum(gateway.cache.lookups for gateway, _ in units)
        return {
            "core.memo.hit_ratio": hits / lookups if lookups else 0.0,
            "serving.requests.admitted": sum(r.admitted for _, r in units),
            "serving.requests.rejected": sum(r.rejected for _, r in units),
            "serving.requests.shed": sum(r.shed_queue_full for _, r in units),
            "hardware.ledger.records": sum(len(g.adapter.machine.ledger)
                                           for g, _ in units),
        }


# -- fleet -----------------------------------------------------------------

class FleetWorkload(Workload):
    """The ``repro-energy fleet`` defaults: 4 replicas, least-energy."""

    name = "fleet"
    why = ("the other serving loop: asyncio queues, balancer scoring and "
           "sharded leases with arithmetic pricing, no ledger or evaluator")
    unit_s = 0.2
    trace_units = 5

    #: The ``repro-energy fleet`` defaults.
    RATE = 500.0
    TENANTS = 3
    BUDGET = "5J+2W"
    REPLICAS = 4
    BALANCER = "least-energy"

    def __init__(self, seed: int, horizon_s: float = 60.0) -> None:
        super().__init__()
        from repro.serving import parse_budget_spec
        from repro.sim.rng import RngFactory
        from repro.workloads import (diurnal_arrivals, fleet_request_trace,
                                     zipf_tenant_trace)

        self.seed = int(seed)
        self.horizon_s = float(horizon_s)
        rng = RngFactory(seed)
        times = diurnal_arrivals(self.RATE, self.horizon_s,
                                 rng.stream("arrivals"),
                                 period_seconds=self.horizon_s)
        tenant_ids = zipf_tenant_trace(len(times), self.TENANTS, rng)
        self.requests = list(fleet_request_trace(times, tenant_ids, rng))
        self.budgets = {f"tenant{i}": parse_budget_spec(self.BUDGET)
                        for i in range(self.TENANTS)}
        warm = self.requests[:64]
        self.prepare().serve(warm, horizon_s=warm[-1].arrival_s)

    def prepare(self):
        from repro.core.policy import Policy
        from repro.fleet import EnergyGatewayFleet

        return EnergyGatewayFleet(
            self.budgets, policy=Policy(replicas=self.REPLICAS,
                                        balancer=self.BALANCER),
            entropy=self.seed)

    def run(self, fleet):
        return fleet.serve(self.requests, horizon_s=self.horizon_s)

    def ops(self, fleet, report) -> int:
        return report.offered

    def nominal_ops(self, fleet) -> int:
        return len(self.requests)

    def check(self, fleet, report) -> list[str]:
        problems = []
        if report.offered != len(self.requests):
            problems.append(f"offered {report.offered} != "
                            f"{len(self.requests)} requests")
        outcomes = (report.admitted + report.rejected + report.shed_crash
                    + report.shed_no_replica)
        if outcomes != report.offered:
            problems.append(f"outcomes sum to {outcomes}, offered "
                            f"{report.offered}")
        if report.violations:
            problems.append(f"budget violations: {report.violations}")
        return problems + self._same_as_first(report.digest())

    def counters(self, units) -> dict[str, float]:
        return {
            "fleet.backpressure_waits": sum(r.backpressure_waits
                                            for _, r in units),
            "fleet.lease_grants": sum(fleet.coordinator.grants
                                      for fleet, _ in units),
            "fleet.lease_denials": sum(fleet.coordinator.denials
                                       for fleet, _ in units),
        }


# -- predict ---------------------------------------------------------------

def compile_query_set() -> list:
    """The ``repro-energy compile`` queries, without ``mlservice``.

    ``(interface, method, args)`` in the order the command runs them.
    """
    from repro.cli import _compile_targets

    queries = []
    for target, build in sorted(_compile_targets().items()):
        if target == "mlservice":
            continue
        for interface, calls in build():
            queries.extend((interface, method, tuple(args))
                           for method, args in calls)
    return queries


class PredictWorkload(Workload):
    """Cold and warm prediction queries through both backends."""

    name = "predict"
    why = ("the evaluator: core evaluation, mcengine and compile (cold "
           "misses, warm hits, drone sampled fallback) do the work that "
           "serve bypasses")
    unit_s = 8.8
    min_units = 4
    pieces = "ops"

    #: The tail every query asks.
    QUANTILE = 0.99

    def __init__(self, seed: int, keys_per_query: int = 126,
                 replay: int = 1008) -> None:
        """A unit replays ``replay`` queries on cold backends.

        The traffic is the ``repro-energy compile`` query set, each of
        its 12 queries taking an equal share of the stream, as the
        command asks each once.  A query without arguments is one key.
        A query with arguments stands for ``keys_per_query`` distinct
        keys, each argument scaled by its own seeded factor, log-uniform
        in [1/2, 1] so every argument stays in the command's own domain;
        its share of the stream picks among them by ``ZipfPopularity``
        at its default exponent.  At the defaults the working set is
        8 + 4 x 126 = 512 keys, twice the compile cache's 256 entries.
        """
        super().__init__()
        from repro.workloads import ZipfPopularity

        self.seed = int(seed)
        rng = np.random.default_rng(np.random.SeedSequence(self.seed))
        groups = []
        for interface, method, args in compile_query_set():
            if not args:
                groups.append([(interface, method, args)])
                continue
            drawn: dict = {}
            while len(drawn) < keys_per_query:
                factors = np.exp(rng.uniform(np.log(0.5), 0.0, len(args)))
                scaled = tuple(max(1, round(value * factor))
                               if isinstance(value, int)
                               else float(value * factor)
                               for value, factor in zip(args, factors))
                drawn.setdefault(scaled, (interface, method, scaled))
            groups.append(list(drawn.values()))
        #: Every distinct key, grouped by query; the plan indexes it.
        self.keys = [key for group in groups for key in group]
        offsets = np.cumsum([0] + [len(group) for group in groups])
        owner = rng.permutation(np.resize(np.arange(len(groups)),
                                          int(replay)))
        #: Key index of every query of a replay, in order.
        self.plan = np.empty(int(replay), dtype=int)
        for query, group in enumerate(groups):
            slots = np.flatnonzero(owner == query)
            ranks = ZipfPopularity(len(group)).sample(rng, len(slots))
            self.plan[slots] = offsets[query] + ranks
        self._intervals: dict[int, object] = {}
        #: key index -> the six answers its first query returned.
        self.answers: dict[int, tuple] = {}
        # Warm-up on throwaway backends: one key of every query pays lazy
        # imports and first-call costs in set-up.
        self.prepare()
        for index in offsets[:-1]:
            self._answer(int(index))

    def prepare(self):
        """Cold backends and sessions: every replay starts uncached."""
        from repro.compile import CompiledBackend
        from repro.core.predict import SampledBackend
        from repro.core.session import EvalSession

        self.sampled = SampledBackend()
        self.compiled = CompiledBackend()
        self.sampled_session = EvalSession(seed=self.seed, engine="vector",
                                           backend=self.sampled)
        self.compiled_session = EvalSession(seed=self.seed, engine="vector",
                                            backend=self.compiled)
        return self.compiled

    def _answer(self, index: int) -> tuple:
        interface, method, args = self.keys[index]
        call = interface(method, *args)
        q = self.QUANTILE
        sampled, ss = self.sampled, self.sampled_session
        compiled, cs = self.compiled, self.compiled_session
        return (sampled.mean(call, session=ss),
                sampled.worst(call, session=ss),
                sampled.quantile(call, q, session=ss),
                compiled.mean(call, session=cs),
                compiled.worst(call, session=cs),
                compiled.quantile(call, q, session=cs))

    def run(self, compiled):
        """Replay the plan; per query (index, seconds, tier stats, answers)."""
        clock = time.perf_counter
        queries = []
        for index in self.plan.tolist():
            before = dict(compiled.stats)
            t0 = clock()
            answers = self._answer(index)
            seconds = clock() - t0
            queries.append((index, seconds, before, dict(compiled.stats),
                            answers))
        return queries

    def ops(self, compiled, queries) -> int:
        return len(queries)

    def nominal_ops(self, compiled) -> int:
        return len(self.plan)

    def latencies(self, compiled, queries) -> list[float]:
        return [seconds for _, seconds, _, _, _ in queries]

    def failed_ops(self, problems: list[str], n: int) -> int:
        return min(len(problems), n)

    def _interval(self, index: int):
        if index not in self._intervals:
            from repro.compile import compile_call
            from repro.core.ecv import ECVEnvironment

            interface, method, args = self.keys[index]
            entry = compile_call(interface(method, *args), ECVEnvironment.EMPTY)
            self._intervals[index] = entry.proven_interval()
        return self._intervals[index]

    def _query_problems(self, index, before, after, out) -> list[str]:
        problems = []
        if not all(math.isfinite(v) and v >= 0.0 for v in out):
            problems.append(f"non-finite or negative answer {out}")
        s_mean, s_worst, s_q, c_mean, c_worst, c_q = out
        if c_worst != s_worst:
            problems.append(f"worst differs: compiled {c_worst} vs sampled "
                            f"{s_worst}")
        tiers = {tier for tier, count in after.items()
                 if count > before.get(tier, 0)}
        if "analytic" in tiers:
            # The analytic tier answers exactly; the sampled backend only
            # approximates, so both must sit inside the proven interval.
            interval = self._interval(index)
            slack = 1e-9 * max(abs(interval.lo), abs(interval.hi), 1e-300)
            for label, value in (("compiled mean", c_mean),
                                 ("compiled quantile", c_q),
                                 ("sampled mean", s_mean),
                                 ("sampled quantile", s_q)):
                if not interval.lo - slack <= value <= interval.hi + slack:
                    problems.append(f"{label} {value} outside proven "
                                    f"[{interval.lo}, {interval.hi}]")
        elif (c_mean, c_q) != (s_mean, s_q):
            # Kernel-tier draws equal the vector engine's bitwise, and the
            # sampled fallback and exact enumeration are the same code.
            problems.append(f"compiled ({c_mean}, {c_q}) != sampled "
                            f"({s_mean}, {s_q}) in tier(s) {sorted(tiers)}")
        first = self.answers.setdefault(index, out)
        if first != out:
            problems.append(f"repeat returned {out}, first returned {first}")
        return problems

    def check(self, compiled, queries) -> list[str]:
        """One problem line per failing query, plus a replay mismatch."""
        problems = []
        for index, _, before, after, out in queries:
            found = self._query_problems(index, before, after, out)
            if found:
                problems.append(f"query {self.keys[index][1]}"
                                f"{self.keys[index][2]}: " + "; ".join(found))
        return problems + self._same_as_first(
            digest([[index, list(out)] for index, _, _, _, out in queries]))

    def counters(self, units) -> dict[str, float]:
        stats = {"hits": 0, "misses": 0}
        for compiled, _ in units:
            for key in stats:
                stats[key] += compiled.cache.stats[key]
        lookups = stats["hits"] + stats["misses"]
        return {
            "compile.cache.hits": stats["hits"],
            "compile.cache.misses": stats["misses"],
            "compile.cache.hit_ratio": (stats["hits"] / lookups
                                        if lookups else 0.0),
            "compile.backend.sampled_fallbacks": sum(
                compiled.stats["sampled"] for compiled, _ in units),
        }


# -- calibrate -------------------------------------------------------------

class ClockedNVML(NVMLSim):
    """The NVML channel ``calibrate`` builds by default, reading the wall
    clock as each interval measurement (one per microbenchmark) starts."""

    def __init__(self, gpu, seed: int) -> None:
        super().__init__(gpu, seed=seed)
        self.stamps: list[float] = []

    def measure_interval(self, t0: float, t1: float) -> float:
        self.stamps.append(time.perf_counter())
        return super().measure_interval(t0, t1)


class CalibrateWorkload(Workload):
    """Microbench calibration of a fresh SIM4090 workstation."""

    name = "calibrate"
    why = ("ledger write-heavy (~340k gpu.launch, ~1M records per call) "
           "plus NVML cumulative reads that scan from t=0; stands in for "
           "tier-1 wall time")
    unit_s = 16.0
    min_units = 2
    pieces = "segments"

    #: Table 1 envelope on the fit residual, and how close the fitted unit
    #: energies must stay to the simulator's ground truth (the oracle).
    #: The per-launch energy is the fit's least resolved term: over 18
    #: seeds its error had a standard deviation of 16% and reached 34%
    #: (seed 42), so it is held to 80%, five standard deviations; 25%
    #: failed a correct fit at seeds 42 and 12345.
    MAX_RESIDUAL = 0.05
    ORACLE_TOLERANCE = {"instructions": 0.25, "vram_sectors": 0.25,
                        "kernel_launches": 0.8, "busy_seconds": 0.05}

    def __init__(self, seed: int, spec=None, **knobs) -> None:
        super().__init__()
        import repro.calibration  # noqa: F401 - its import is set-up
        from repro.hardware.gpu import KernelProfile
        from repro.hardware.profiles import SIM4090

        self.seed = int(seed)
        self.spec = spec if spec is not None else SIM4090
        self.knobs = knobs
        self._oracle = None
        machine, _ = self.prepare()
        machine.component("gpu0").launch(KernelProfile("warm",
                                                       instructions=32))

    def prepare(self):
        from repro.hardware.profiles import build_gpu_workstation

        machine = build_gpu_workstation(self.spec)
        return machine, ClockedNVML(machine.component("gpu0"), self.seed)

    def run(self, ctx):
        # Looked up on the package at call time, so a traced pass sees
        # the wrapped function.
        import repro.calibration

        machine, nvml = ctx
        nvml.stamps.append(time.perf_counter())
        epoch = repro.calibration.calibrate(machine, source="gpu0",
                                            seed=self.seed, nvml=nvml,
                                            **self.knobs)
        nvml.stamps.append(time.perf_counter())
        return epoch

    def ops(self, ctx, epoch) -> int:
        return 1

    def latencies(self, ctx, epoch) -> list[float]:
        return np.diff(ctx[1].stamps)

    @property
    def oracle(self):
        """The simulator's ground-truth model, made at the first check."""
        if self._oracle is None:
            import repro.calibration

            self._oracle = repro.calibration.calibrate(
                self.prepare()[0], source="gpu0",
                calibrator="oracle").model
        return self._oracle

    def check(self, ctx, epoch) -> list[str]:
        model = epoch.model
        problems = []
        if not model.residual_rms < self.MAX_RESIDUAL:
            problems.append(f"fit residual {model.residual_rms:.4f} outside "
                            f"the {self.MAX_RESIDUAL} envelope")
        for metric, tolerance in self.ORACLE_TOLERANCE.items():
            fitted = model.unit_energies[metric]
            truth = self.oracle.unit_energies[metric]
            if not abs(fitted - truth) <= tolerance * truth:
                problems.append(f"{metric} = {fitted:.4e}, oracle "
                                f"{truth:.4e} (tolerance {tolerance:.0%})")
        return problems + self._same_as_first(
            digest([list(epoch.fingerprint()), model.unit_energies]))

    def counters(self, units) -> dict[str, float]:
        return {"hardware.ledger.records": sum(len(ctx[0].ledger)
                                               for ctx, _ in units)}


WORKLOADS = {w.name: w for w in (ServeWorkload, FleetWorkload,
                                 PredictWorkload, CalibrateWorkload)}


def trace_targets() -> list:
    """Every call the traced run wraps: (owner, attribute, name, hot)."""
    import repro.calibration
    import repro.compile.compiler
    from repro.compile.compiler import CompileCache
    from repro.core.mcengine import VectorEngine
    from repro.core.predict import PredictionBackend
    from repro.fleet.balancer import LeastEnergyBalancer
    from repro.fleet.costmodel import WorkCostModel
    from repro.fleet.fleet import EnergyGatewayFleet
    from repro.fleet.replica import FleetReplica
    from repro.fleet.shards import BudgetShard
    from repro.hardware.gpu import GPU
    from repro.hardware.ledger import EnergyLedger
    from repro.measurement.nvml import NVMLSim
    from repro.serving.adapters import ServiceAdapter
    from repro.serving.admission import HardBudgetPolicy
    from repro.serving.gateway import EnergyAwareGateway

    return [
        (EnergyLedger, "total_joules", "hardware.ledger.total_joules", False),
        (EnergyLedger, "energy_between", "hardware.ledger.energy_between",
         False),
        (EnergyLedger, "log", "hardware.ledger.log", True),
        (GPU, "launch", "hardware.gpu.launch", True),
        (NVMLSim, "total_energy_consumption_at",
         "measurement.nvml.total_energy_consumption_at", False),
        (NVMLSim, "power_usage_at", "measurement.nvml.power_usage_at", False),
        (repro.calibration, "calibrate", "calibration.calibrate", False),
        (PredictionBackend, "mean", "core.predict.mean", False),
        (PredictionBackend, "worst", "core.predict.worst", False),
        (PredictionBackend, "quantile", "core.predict.quantile", False),
        (VectorEngine, "draws", "core.mcengine.draws", False),
        (CompileCache, "get", "compile.cache.get", False),
        # Called by CompileCache.get on a miss only.
        (repro.compile.compiler, "compile_call", "compile.compile_call",
         False),
        (HardBudgetPolicy, "decide", "serving.admission.decide", False),
        (ServiceAdapter, "execute", "serving.adapter.execute", False),
        (EnergyAwareGateway, "serve", "serving.gateway", False),
        (EnergyGatewayFleet, "serve", "fleet", False),
        (LeastEnergyBalancer, "prefer", "fleet.balancer.prefer", True),
        (WorkCostModel, "predict", "fleet.costmodel.predict", True),
        (WorkCostModel, "measure", "fleet.costmodel.measure", True),
        (BudgetShard, "ensure_lease", "fleet.shards.ensure_lease", True),
        (BudgetShard, "can_admit", "fleet.shards.can_admit", True),
        (BudgetShard, "draw", "fleet.shards.draw", True),
        (FleetReplica, "try_enqueue", "fleet.replica.try_enqueue", True),
    ]
