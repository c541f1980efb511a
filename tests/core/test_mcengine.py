"""Tests for :mod:`repro.core.mcengine`: the Monte Carlo engines.

Three contracts, one file:

* **replay identity** — at a fixed seed, serial and vectorized runs
  produce bitwise-identical draws, whether or not the interface
  vectorizes (the fallback runs over the same columns);
* **column sampling** — for every ECV kind, ``sample_n(rng, n)`` is
  bitwise-equal to ``n`` sequential ``sample()`` calls from an
  identically-seeded generator (the property the whole replay story
  rests on);
* **integration** — budgets, hooks and the unified ``evaluate()`` see
  batched evaluations as first-class events.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.distributions import Normal, Uniform
from repro.core.ecv import (
    BernoulliECV,
    CategoricalECV,
    ContinuousECV,
    FixedECV,
    UniformIntECV,
)
from repro.core.errors import EvaluationError
from repro.core.interface import EnergyCall, EnergyInterface, evaluate
from repro.core.mcengine import (
    ColumnStore,
    MCTask,
    SerialEngine,
    VectorEngine,
    resolve_engine,
)
from repro.core.session import AccountingHook, EvalSession, SpanRecorder
from repro.core.units import Energy


class VectorizableInterface(EnergyInterface):
    """Pure arithmetic over its ECVs: the batch attempt succeeds."""

    def __init__(self):
        super().__init__("vec")
        self.declare_ecv(BernoulliECV("hit", 0.6))
        self.declare_ecv(ContinuousECV("scale", low=0.5, high=2.0))
        self.declare_ecv(UniformIntECV("ways", low=1, high=4))

    def E_op(self, n):
        hit = self.ecv("hit")
        per = hit * 1.0 + (1 - hit) * 3.0
        return Energy(per * n * self.ecv("scale") * self.ecv("ways"))


class BranchingInterface(EnergyInterface):
    """Branches on sampled values: the batch attempt must fall back."""

    def __init__(self):
        super().__init__("branchy")
        self.declare_ecv(BernoulliECV("hit", 0.4))
        self.declare_ecv(ContinuousECV("latency", low=0.1, high=2.0))
        self.declare_ecv(CategoricalECV("tier", {"ssd": 0.7, "hdd": 0.3}))

    def E_op(self, n):
        cost = {"ssd": 0.2, "hdd": 2.5}[self.ecv("tier")]
        if self.ecv("hit"):
            return Energy(0.1 * n)
        return Energy(cost * n + self.ecv("latency"))


class RepeatedReadInterface(EnergyInterface):
    """Reads the same ECV twice: occurrences get independent columns."""

    def __init__(self):
        super().__init__("rereader")
        self.declare_ecv(ContinuousECV("step", low=0.0, high=1.0))

    def E_op(self):
        return Energy(self.ecv("step") + 10.0 * self.ecv("step"))


def _draws(interface, engine, seed=11, n=400, args=(8,)):
    session = EvalSession(seed=seed, engine=engine)
    dist = evaluate(interface(interface_method(interface), *args),
                    session=session, mode="distribution", n_samples=n)
    return np.asarray(dist._samples)


def interface_method(interface):
    return "E_op"


class TestReplayIdentity:
    @pytest.mark.parametrize("iface_cls,args", [
        (VectorizableInterface, (8,)),
        (BranchingInterface, (8,)),
        (RepeatedReadInterface, ()),
    ])
    def test_all_engines_bitwise_equal(self, iface_cls, args):
        interface = iface_cls()
        serial = _draws(interface, "serial", args=args)
        vector = _draws(interface, "vector", args=args)
        assert np.array_equal(serial, vector)

    def test_different_seeds_differ(self):
        interface = VectorizableInterface()
        assert not np.array_equal(_draws(interface, "vector", seed=1),
                                  _draws(interface, "vector", seed=2))

    def test_unseeded_session_is_deterministic(self):
        interface = VectorizableInterface()
        first = _draws_with_session(interface, EvalSession(engine="vector"))
        second = _draws_with_session(interface, EvalSession(engine="vector"))
        assert np.array_equal(first, second)

    def test_explicit_rng_override_is_replayable(self):
        interface = VectorizableInterface()
        session = EvalSession(engine="vector")
        first = evaluate(interface("E_op", 8), session=session,
                         mode="distribution", n_samples=100,
                         rng=np.random.default_rng(99))
        second = evaluate(interface("E_op", 8), session=session,
                          mode="distribution", n_samples=100,
                          rng=np.random.default_rng(99))
        assert np.array_equal(first._samples, second._samples)

    def test_outcome_distributions_replay(self):
        class NoisyInterface(EnergyInterface):
            def __init__(self):
                super().__init__("noisy")
                self.declare_ecv(ContinuousECV("x", low=0.0, high=1.0))

            def E_op(self, n):
                # Returns a distribution: per-sample outcome draws must
                # come from the same per-index streams in every engine.
                return Normal(mean=n * (1 + self.ecv("x")), std=0.25)

        interface = NoisyInterface()
        serial = _draws(interface, "serial")
        assert np.array_equal(serial, _draws(interface, "vector"))


def _draws_with_session(interface, session, n=100):
    dist = evaluate(interface("E_op", 8), session=session,
                    mode="distribution", n_samples=n)
    return np.asarray(dist._samples)


class TestSampleN:
    """``sample_n`` must be bitwise-equal to sequential ``sample``."""

    @staticmethod
    def _assert_matches(ecv, n=257, seed=5):
        bulk = ecv.sample_n(np.random.default_rng(seed), n)
        seq_rng = np.random.default_rng(seed)
        sequential = [ecv.sample(seq_rng) for _ in range(n)]
        assert len(bulk) == n
        for got, want in zip(bulk, sequential):
            item = got.item() if isinstance(got, np.generic) else got
            assert item == want

    @given(p=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_bernoulli(self, p, seed):
        self._assert_matches(BernoulliECV("b", p), seed=seed)

    @given(weights=st.lists(st.floats(0.01, 10.0), min_size=1, max_size=6),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_categorical(self, weights, seed):
        total = sum(weights)
        outcomes = {f"v{i}": w / total for i, w in enumerate(weights)}
        self._assert_matches(CategoricalECV("c", outcomes), seed=seed)

    @given(low=st.integers(-100, 100), span=st.integers(0, 200),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_uniform_int(self, low, span, seed):
        self._assert_matches(UniformIntECV("u", low=low, high=low + span),
                             seed=seed)

    @given(low=st.floats(-1e3, 1e3), span=st.floats(0.001, 1e3),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_continuous(self, low, span, seed):
        self._assert_matches(ContinuousECV("x", low=low, high=low + span),
                             seed=seed)

    def test_fixed(self):
        self._assert_matches(FixedECV("f", value="constant"))

    def test_continuous_custom_sampler(self):
        ecv = ContinuousECV("x", low=0.0, high=10.0,
                            sampler=lambda rng: float(rng.normal(5.0, 1.0)))
        self._assert_matches(ecv)

    def test_distribution_sample_n_aliases_sample(self):
        dist = Uniform(2.0, 7.0)
        bulk = dist.sample_n(np.random.default_rng(3), 64)
        assert np.array_equal(bulk, dist.sample(np.random.default_rng(3), 64))


class TestEngineBehaviour:
    def test_resolve_engine(self):
        assert resolve_engine(None).name == "vector"
        assert isinstance(resolve_engine("serial"), SerialEngine)
        assert isinstance(resolve_engine("vector"), VectorEngine)
        engine = VectorEngine()
        assert resolve_engine(engine) is engine
        with pytest.raises(EvaluationError):
            resolve_engine("warp-drive")

    def test_evaluation_error_propagates_from_batch(self):
        class BrokenInterface(EnergyInterface):
            def __init__(self):
                super().__init__("broken")
                self.declare_ecv(ContinuousECV("x", low=0.0, high=1.0))

            def E_op(self, n):
                self.ecv("x")
                raise EvaluationError("genuinely broken")

        session = EvalSession(engine="vector")
        with pytest.raises(EvaluationError, match="genuinely broken"):
            evaluate(BrokenInterface()("E_op", 1), session=session,
                     mode="distribution", n_samples=16)

    def test_column_store_is_per_occurrence(self):
        store = ColumnStore(entropy=42, n=16)
        ecv = ContinuousECV("x", low=0.0, high=1.0)
        first = store.column("iface.x", 0, ecv)
        again = store.column("iface.x", 0, ecv)
        second = store.column("iface.x", 1, ecv)
        assert first is again
        assert not np.array_equal(first, second)

    def test_engine_draws_directly(self):
        interface = VectorizableInterface()
        task = MCTask(fn=interface("E_op", 8), env=_empty_env(), n=32,
                      entropy=7)
        serial = SerialEngine().draws(task)
        vector = VectorEngine().draws(task)
        assert serial.shape == (32,)
        assert np.array_equal(serial, vector)


def _empty_env():
    from repro.core.ecv import ECVEnvironment
    return ECVEnvironment.EMPTY


class TestHooksAndBudgets:
    def test_accounting_counts_batched_traces(self):
        for engine in ("serial", "vector"):
            hook = AccountingHook()
            session = EvalSession(seed=1, engine=engine, hooks=[hook])
            evaluate(VectorizableInterface()("E_op", 8), session=session,
                     mode="distribution", n_samples=123)
            assert hook.traces == 123, engine
            assert session.stats["traces"] == 123

    def test_span_recorder_sees_one_batched_trace(self):
        recorder = SpanRecorder()
        session = EvalSession(seed=1, engine="vector", hooks=[recorder])
        evaluate(VectorizableInterface()("E_op", 8), session=session,
                 mode="distribution", n_samples=64)
        root = recorder.last_root
        assert root is not None

    def test_n_samples_default_comes_from_session(self):
        session = EvalSession(seed=1, engine="vector", n_samples=37)
        hook = AccountingHook()
        session.add_hook(hook)
        evaluate(VectorizableInterface()("E_op", 8), session=session,
                 mode="distribution")
        assert hook.traces == 37


class TestUnifiedEvaluateAPI:
    def test_energy_call_construction(self):
        interface = VectorizableInterface()
        call = interface("E_op", 8, extra=1)
        assert isinstance(call, EnergyCall)
        assert call.method_name == "E_op"
        assert call.args == (8,)
        assert call.kwargs == (("extra", 1),)

    def test_shorthands_do_not_warn(self):
        interface = VectorizableInterface()
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            interface.expected("E_op", 8)
            interface.worst_case("E_op", 8)
            interface.distribution("E_op", 8)


class TestQuantileDefaults:
    def test_quantile_budget_resolves_via_session(self):
        dist = Normal(mean=5.0, std=1.0)  # uses the MC base quantile
        session = EvalSession(n_samples=64)
        with _activated(session):
            inside = dist.quantile(0.5)
        outside = dist.quantile(0.5)
        # Inside a session the sampling budget follows the session's
        # n_samples; outside it uses the single class default.  The MC
        # rng is pinned, so equality against an explicit budget is exact.
        assert inside == dist.quantile(0.5, n_samples=64)
        assert outside == dist.quantile(
            0.5, n_samples=EvalSession.DEFAULT_QUANTILE_SAMPLES)

    def test_closed_form_quantile_ignores_budget(self):
        dist = Uniform(0.0, 1.0)
        assert dist.quantile(0.25) == 0.25
        assert dist.quantile(0.25, n_samples=3) == 0.25

    def test_all_distributions_share_default(self):
        from repro.core.distributions import _resolve_quantile_samples

        assert (_resolve_quantile_samples(None)
                == EvalSession.DEFAULT_QUANTILE_SAMPLES)
        assert _resolve_quantile_samples(123) == 123


class _activated:
    """Run a block with ``session`` as the ambient evaluation session."""

    def __init__(self, session):
        self.session = session

    def __enter__(self):
        from repro.core.interface import _ACTIVE_SESSION
        self._token = _ACTIVE_SESSION.set(self.session)
        return self.session

    def __exit__(self, *exc):
        from repro.core.interface import _ACTIVE_SESSION
        _ACTIVE_SESSION.reset(self._token)
        return False
