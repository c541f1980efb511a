"""Tests for :mod:`repro.core.mcengine`: the Monte Carlo engines.

Four contracts, one file:

* **replay identity** — at a fixed seed, serial and vector runs produce
  bitwise-identical draws, whether the vector engine answers from the
  call's compiled kernel (audited against the per-sample loop) or runs
  that loop itself over the same columns;
* **column sampling** — for every ECV kind, ``sample_n(rng, n)`` is
  bitwise-equal to ``n`` sequential ``sample()`` calls from an
  identically-seeded generator (the property the whole replay story
  rests on);
* **integration** — budgets, hooks and the unified ``evaluate()`` see
  batched evaluations as first-class events;
* **the per-sample loop** — the loop that reuses one context per task
  matches the fresh-context-per-sample reference in
  ``column_loop_oracle.py`` in draws, statistics, spans, accounting and
  errors.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.drone import DroneSpec, MissionEnergyInterface
from repro.core.composition import BoundInterface
from repro.core.distributions import Normal, Uniform
from repro.core.ecv import (
    BernoulliECV,
    CategoricalECV,
    ContinuousECV,
    FixedECV,
    UniformIntECV,
)
from repro.core.errors import (
    EvaluationError,
    UnknownECVError,
    WorkloadError,
)
from repro.core.interface import (
    _ACTIVE_CONTEXT,
    EnergyCall,
    EnergyInterface,
    evaluate,
)
from repro.core.mcengine import (
    ColumnStore,
    MCEngine,
    MCTask,
    SerialEngine,
    VectorEngine,
    _per_sample,
    resolve_engine,
)
from repro.core.session import AccountingHook, EvalSession, SpanRecorder
from repro.core.units import Energy

from . import column_loop_oracle


class VectorizableInterface(EnergyInterface):
    """Pure arithmetic over its ECVs: the vector engine's kernel answers."""

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
    """Branches on sampled values: the vector engine runs the loop."""

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


# -- the per-sample loop against its reference ------------------------------
#
# Every fixture body reads a continuous ECV first, so exact enumeration
# gives up at once and the evaluation reaches the Monte Carlo loop.

class _Probe(EnergyInterface):
    """One continuous ECV, read once, twice or with keyword arguments."""

    def __init__(self, name="probe", low=0.0, high=1.0):
        super().__init__(name)
        self.declare_ecv(ContinuousECV("x", low=low, high=high))

    def E_once(self):
        return Energy(self.ecv("x"))

    def E_twice(self):
        return Energy(self.ecv("x") + 10.0 * self.ecv("x"))

    def E_kw(self, n, *, scale=1.0):
        return Energy(n * scale * self.ecv("x"))


class _Mixed(EnergyInterface):
    """Discrete ECVs of every column dtype, behind a continuous read."""

    def __init__(self):
        super().__init__("mixed")
        self.declare_ecv(ContinuousECV("x", low=0.0, high=1.0))
        self.declare_ecv(BernoulliECV("hit", 0.5))
        self.declare_ecv(UniformIntECV("ways", low=1, high=4))
        self.declare_ecv(CategoricalECV(
            "tier", {("ssd", 1): 0.5, ("hdd", 2): 0.3, None: 0.2}))
        self.declare_ecv(CategoricalECV(
            "width", {np.float32(1.5): 0.5, "wide": 0.5}))
        self.declare_ecv(FixedECV("label", "fixed"))

    def E_bool(self):
        x = self.ecv("x")
        hit = self.ecv("hit")
        # ``is True`` tells a Python bool from ``numpy.True_``.
        return Energy(x + (1.0 if hit is True else 2.0))

    def E_int(self):
        return Energy(self.ecv("x") * self.ecv("ways"))

    def E_objects(self):
        x = self.ecv("x")
        tier = self.ecv("tier")
        width = self.ecv("width")
        cost = 0.5 if tier is None else tier[1]
        wide = 3.0 if width == "wide" else float(type(width) is float)
        return Energy(x + cost + wide) + Energy(len(self.ecv("label")))

    def E_noisy(self, n):
        # A non-degenerate outcome: drawn per index from ``outcome_rng``.
        return Normal(mean=n * (1.0 + self.ecv("x")), std=0.25)

    def E_joules(self):
        # A bare number of Joules, not an ``Energy``.
        return 2 + int(self.ecv("x") > 0.5)


class _Bindable(EnergyInterface):
    """Two ECVs a caller binds: one by qualified, one by bare name."""

    def __init__(self):
        super().__init__("bindable")
        self.declare_ecv(ContinuousECV("a", low=0.0, high=1.0))
        self.declare_ecv(ContinuousECV("b", low=0.0, high=1.0))

    def E_op(self):
        return Energy(self.ecv("a") + 100.0 * self.ecv("b"))


def _drone(params):
    drone = MissionEnergyInterface(DroneSpec())
    return drone("E_leg", 3000.0, 60.0, 0.5, params["ground_speed"]), None


def _twins(params):
    # Two instances share a name: their reads share the qualified name
    # ``twin.x`` (so occurrence numbering), but resolve their own ECVs.
    low, high = _Probe("twin", 0.0, 1.0), _Probe("twin", 50.0, 60.0)
    first, second = (low, high) if params["order"] else (high, low)

    def twins():
        return first.E_once() + second.E_once()

    return twins, None


def _overlay(params):
    # One ECV read under the interface's own declaration and under a
    # binding overlay, in either order, within each sample.
    inner = _Probe("inner")
    bound = BoundInterface(inner, {"x": ContinuousECV("x", 50.0, 60.0)})
    first, second = (inner, bound) if params["order"] else (bound, inner)

    def overlaid():
        return first.E_once() + second.E_once()

    return overlaid, None


def _bindings(params):
    env = {"bindable.a": ContinuousECV("a", low=5.0, high=6.0),
           "b": UniformIntECV("b", low=1, high=3)}
    return _Bindable()("E_op"), env


def _assignments(params):
    # A body that reports how many ECVs its sample has read: two, but
    # samples alternate between ``ways`` and ``hit``, so an assignment
    # carried over from an earlier sample shows from sample 1 on.
    mixed = _Mixed()
    state = {"sample": 0}

    def counted():
        x = mixed.ecv("x")
        mixed.ecv("hit" if state["sample"] % 2 else "ways")
        state["sample"] += 1
        return Energy(x + len(_ACTIVE_CONTEXT.get().assignments))

    return counted, None


def _plain_callable(params):
    probe = _Probe()

    def tripled():
        return probe.E_once() * 3.0

    return tripled, None


def _fails_at(params, failure):
    # Sample ``k`` fails: ``failure(probe)`` raises inside the body.
    probe = _Probe("fragile")
    state = {"sample": 0}

    def fragile():
        value = probe.E_once()
        if state["sample"] == params["k"]:
            failure(probe)
        state["sample"] += 1
        return value

    return fragile, None


def _raise_workload_error(probe):
    raise WorkloadError("this sample failed")


#: name -> builder(params) -> (call or callable, env bindings or None),
#: and the builder is called afresh for every run.
_LOOP_FIXTURES = {
    "drone": _drone,
    "repeated read": lambda params: (_Probe()("E_twice"), None),
    "shared name": _twins,
    "overlay": _overlay,
    "qualified and bare bindings": _bindings,
    "object categorical": lambda params: (_Mixed()("E_objects"), None),
    "bernoulli": lambda params: (_Mixed()("E_bool"), None),
    "uniform int": lambda params: (_Mixed()("E_int"), None),
    "normal outcome": lambda params: (_Mixed()("E_noisy", 3), None),
    "bare joules": lambda params: (_Mixed()("E_joules"), None),
    "kwargs": lambda params: (_Probe()("E_kw", 4, scale=2.5), None),
    "plain callable": _plain_callable,
    "assignments": _assignments,
    "unknown ECV": lambda params: _fails_at(
        params, lambda probe: probe.ecv("nowhere")),
    "raises at k": lambda params: _fails_at(params, _raise_workload_error),
}


class _LoopEngine(MCEngine):
    """Runs one per-sample loop and keeps its raw, unsorted draws."""

    name = "loop"

    def __init__(self, loop):
        self.loop = loop
        self.draws_seen = None

    def draws(self, task):
        self.draws_seen = self.loop(task, ColumnStore(task.entropy, task.n))
        return self.draws_seen


def _observe(loop, fixture, params, n, seed, hooked):
    """Everything a run of ``loop`` lets a caller see."""
    fn, env = _LOOP_FIXTURES[fixture](params)
    recorder, accounting = SpanRecorder(), AccountingHook()
    session = EvalSession(seed=seed,
                          hooks=[recorder, accounting] if hooked else [])
    engine = _LoopEngine(loop)
    error = None
    try:
        evaluate(fn, session=session, mode="distribution", env=env,
                 engine=engine, n_samples=n)
    except Exception as exc:
        error = (type(exc), str(exc))
    draws = engine.draws_seen
    return {
        "draws": None if draws is None else (draws.dtype, draws.tobytes()),
        "stats": dict(session.stats),
        "spans": recorder.to_json(),
        "accounting": accounting.stats(),
        "error": error,
    }


class TestPerSampleLoopAgainstOracle:
    @given(fixture=st.sampled_from(sorted(_LOOP_FIXTURES)),
           n=st.integers(1, 24),
           seed=st.integers(0, 2**32 - 1),
           hooked=st.booleans(),
           ground_speed=st.sampled_from([3.0, 5.0, 7.9, 8.0, 8.1, 12.0]),
           order=st.booleans(),
           k=st.integers(1, 23))
    @settings(max_examples=120, deadline=None)
    def test_matches_oracle(self, fixture, n, seed, hooked, ground_speed,
                            order, k):
        params = {"ground_speed": ground_speed, "order": order, "k": k}
        seen = _observe(_per_sample, fixture, params, n, seed, hooked)
        want = _observe(column_loop_oracle._per_sample, fixture, params, n,
                        seed, hooked)
        assert seen == want

    @pytest.mark.parametrize("fixture", sorted(_LOOP_FIXTURES))
    def test_every_fixture_matches_oracle(self, fixture):
        params = {"ground_speed": 5.0, "order": True, "k": 3}
        seen = _observe(_per_sample, fixture, params, 64, 7, True)
        want = _observe(column_loop_oracle._per_sample, fixture, params, 64,
                        7, True)
        assert seen == want

    def test_fixtures_reach_the_loop(self):
        # The comparison means something only if the loop really runs
        # and the failing fixtures fail inside it, at sample k = 3.
        params = {"ground_speed": 5.0, "order": True, "k": 3}
        for fixture in _LOOP_FIXTURES:
            seen = _observe(_per_sample, fixture, params, 64, 7, True)
            if fixture in ("unknown ECV", "raises at k"):
                assert seen["stats"]["traces"] == 3, fixture
                assert seen["draws"] is None, fixture
                assert seen["error"][0] is (UnknownECVError
                                            if fixture == "unknown ECV"
                                            else WorkloadError), fixture
            else:
                assert seen["stats"]["traces"] == 64, fixture
                assert seen["error"] is None, fixture
                assert seen["draws"] is not None, fixture
