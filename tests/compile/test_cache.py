"""The compile cache: MemoHook-shaped keys, env-change invalidation.

A compiled entry is only sound while the distributions it was compiled
against still hold.  These tests pin the invalidation contract:

* same query, same environment → the *same object* back (a hit);
* a different environment binding → a different cache key (env
  fingerprints are part of the key, exactly like ``MemoHook``);
* mutating a *declared* ECV in place (a manager re-learning a hit rate)
  → the stale entry is invalidated on the next lookup and recompiled;
* sub-quantum drift in a bound probability → still a hit (the quantised
  fingerprint policy shared with ``MemoHook``), except in a session's
  kernel table, which revalidates exactly;
* two interfaces that share a name → two entries.
"""

import pytest

from repro.apps.drone import DroneSpec, MissionEnergyInterface
from repro.compile import CompileCache, CompiledBackend
from repro.core.distributions import Discrete, PointMass
from repro.core.ecv import BernoulliECV, ContinuousECV, ECVEnvironment
from repro.core.interface import EnergyInterface, evaluate
from repro.core.session import EvalSession
from repro.core.units import Energy


class CacheIface(EnergyInterface):
    def __init__(self, p_hit: float = 0.5) -> None:
        super().__init__("cachetest")
        self.declare_ecv(BernoulliECV("hit", p=p_hit,
                                      description="cache hit"))

    def E_lookup(self, nbytes: int) -> Energy:
        if self.ecv("hit"):
            return Energy(1e-9 * nbytes)
        return Energy(20e-9 * nbytes)


class ContinuousCacheIface(EnergyInterface):
    """A lookup with a continuous load term, so the plain pipeline is
    forced past exact enumeration into the Monte Carlo stage — where the
    prediction backend engages."""

    def __init__(self, p_hit: float = 0.5) -> None:
        super().__init__("cachetest_cont")
        self.declare_ecv(BernoulliECV("hit", p=p_hit,
                                      description="cache hit"))
        self.declare_ecv(ContinuousECV("load", low=0.0, high=1.0,
                                       description="bus load"))

    def E_lookup(self, nbytes: int) -> Energy:
        hit = self.ecv("hit")
        base = hit * 1e-9 * nbytes + (1 - hit) * 20e-9 * nbytes
        return Energy(base + 2e-9 * nbytes * self.ecv("load"))


class TestCacheHits:
    def test_repeat_query_is_a_hit_and_same_object(self):
        cache = CompileCache()
        iface = CacheIface()
        first = cache.get(iface("E_lookup", 64), ECVEnvironment.EMPTY)
        second = cache.get(iface("E_lookup", 64), ECVEnvironment.EMPTY)
        assert first is second
        assert cache.stats["hits"] == 1 and cache.stats["misses"] == 1

    def test_different_args_are_different_entries(self):
        cache = CompileCache()
        iface = CacheIface()
        cache.get(iface("E_lookup", 64), ECVEnvironment.EMPTY)
        cache.get(iface("E_lookup", 128), ECVEnvironment.EMPTY)
        assert len(cache) == 2
        assert cache.stats["misses"] == 2

    def test_interfaces_sharing_a_name_are_different_entries(self):
        backend = CompiledBackend()
        light = MissionEnergyInterface(DroneSpec())
        heavy = MissionEnergyInterface(DroneSpec(empty_mass_kg=2.8))
        assert light.name == heavy.name
        means = []
        for interface in (light, heavy):
            call = interface("E_leg", 3000.0, 60.0, 0.5, 12.0)
            compiled = backend.mean(call)
            assert compiled == CompiledBackend().fallback.mean(call)
            means.append(compiled)
        assert means[1] > means[0]
        assert len(backend.cache) == 2

    def test_lru_eviction(self):
        cache = CompileCache(maxsize=2)
        iface = CacheIface()
        for nbytes in (1, 2, 3):
            cache.get(iface("E_lookup", nbytes), ECVEnvironment.EMPTY)
        assert len(cache) == 2
        cache.get(iface("E_lookup", 1), ECVEnvironment.EMPTY)
        assert cache.stats["misses"] == 4  # 1 was evicted, recompiled


class TestEnvChangeInvalidation:
    def test_env_binding_changes_the_answer(self):
        cache = CompileCache()
        iface = CacheIface(p_hit=0.5)
        base = cache.get(iface("E_lookup", 1000), ECVEnvironment.EMPTY)
        rebound = cache.get(iface("E_lookup", 1000),
                            ECVEnvironment({"hit": BernoulliECV(
                                "hit", p=0.9)}))
        assert base is not rebound
        # E[base] = (1 + 20)/2 µJ; E[rebound] = 0.9·1 + 0.1·20 µJ.
        assert base.dist.mean() == pytest.approx(10.5e-6)
        assert rebound.dist.mean() == pytest.approx(2.9e-6)

    def test_env_pinned_value_compiles_to_point_mass(self):
        cache = CompileCache()
        iface = CacheIface()
        entry = cache.get(iface("E_lookup", 1000),
                          ECVEnvironment({"hit": True}))
        assert entry.tier == "analytic"
        # A pinned binding leaves a single certain outcome.
        assert isinstance(entry.dist, (PointMass, Discrete))
        assert entry.dist.mean() == pytest.approx(1e-6)
        assert float(entry.dist.quantile(0.01)) \
            == pytest.approx(float(entry.dist.quantile(0.99)))

    def test_declared_ecv_mutation_invalidates(self):
        cache = CompileCache()
        iface = CacheIface(p_hit=0.5)
        first = cache.get(iface("E_lookup", 1000), ECVEnvironment.EMPTY)
        assert first.dist.mean() == pytest.approx(10.5e-6)
        # A manager re-learns the hit rate in place (same declared name).
        iface.declare_ecv(BernoulliECV("hit", p=1.0,
                                       description="relearned"))
        second = cache.get(iface("E_lookup", 1000), ECVEnvironment.EMPTY)
        assert cache.stats["invalidations"] == 1
        assert second is not first
        assert second.dist.mean() == pytest.approx(1e-6)

    def test_sub_quantum_drift_stays_cached(self):
        """Quantised fingerprints: MemoHook's drift-tolerance policy."""
        cache = CompileCache()
        iface = CacheIface(p_hit=0.5)
        first = cache.get(iface("E_lookup", 1000), ECVEnvironment.EMPTY)
        iface.declare_ecv(BernoulliECV("hit", p=0.5 + 1e-6,
                                       description="tiny drift"))
        second = cache.get(iface("E_lookup", 1000), ECVEnvironment.EMPTY)
        assert second is first
        assert cache.stats["invalidations"] == 0

    def test_exact_revalidation_recompiles_sub_quantum_drift(self):
        cache = CompileCache(exact=True)
        iface = ContinuousCacheIface(p_hit=0.5)
        first = cache.get(iface("E_lookup", 1000), ECVEnvironment.EMPTY)
        assert first.leaves and cache.get(
            iface("E_lookup", 1000), ECVEnvironment.EMPTY) is first
        iface.declare_ecv(BernoulliECV("hit", p=0.5 + 1e-6,
                                       description="tiny drift"))
        second = cache.get(iface("E_lookup", 1000), ECVEnvironment.EMPTY)
        assert second is not first
        assert cache.stats["invalidations"] == 1

    def test_session_kernel_table_answers_exactly_after_drift(self):
        iface = ContinuousCacheIface(p_hit=0.5)
        session = EvalSession(seed=7)
        evaluate(iface("E_lookup", 64), session=session,
                 mode="distribution", n_samples=500)
        iface.declare_ecv(BernoulliECV("hit", p=0.507,
                                       description="tiny drift"))
        vector = evaluate(iface("E_lookup", 64), session=session,
                          mode="distribution", n_samples=500)
        serial = evaluate(iface("E_lookup", 64),
                          session=EvalSession(seed=7, engine="serial"),
                          mode="distribution", n_samples=500)
        assert vector._samples.tobytes() == serial._samples.tobytes()
        assert session._kernels.stats["invalidations"] == 1


class TestBackendCacheIntegration:
    def test_session_backend_reuses_cache_across_evaluations(self):
        backend = CompiledBackend()
        iface = ContinuousCacheIface()
        session = EvalSession(seed=7, backend=backend)
        for _ in range(3):
            evaluate(iface("E_lookup", 64), session=session,
                     mode="expected")
        assert backend.cache.stats["misses"] == 1
        assert backend.cache.stats["hits"] == 2
        assert backend.stats["analytic"] == 3

    def test_env_change_through_session_recompiles(self):
        backend = CompiledBackend()
        iface = ContinuousCacheIface(p_hit=0.5)
        session = EvalSession(seed=7, backend=backend)
        a = evaluate(iface("E_lookup", 1000), session=session,
                     mode="expected")
        iface.declare_ecv(BernoulliECV("hit", p=1.0,
                                       description="relearned"))
        b = evaluate(iface("E_lookup", 1000), session=session,
                     mode="expected")
        # E[base] + E[load term]: (10.5 + 1) µJ, then (1 + 1) µJ.
        assert a.as_joules == pytest.approx(11.5e-6)
        assert b.as_joules == pytest.approx(2e-6)
        assert backend.cache.stats["invalidations"] == 1
