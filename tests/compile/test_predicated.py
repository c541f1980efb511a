"""Predicated kernels against the Monte Carlo engines, bitwise.

The per-sample loop is the reference: kernel draws must equal
:class:`~repro.core.mcengine.SerialEngine` and
:class:`~repro.core.mcengine.VectorEngine` draws bit for bit, and where
that loop raises, the kernel must defer so the compiled backend raises
the same error from the same code.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.drone import DroneSpec, MissionEnergyInterface
from repro.compile import CompiledBackend, KernelDeferred, compile_call
from repro.core.ecv import ContinuousECV, ECVEnvironment
from repro.core.errors import WorkloadError
from repro.core.interface import evaluate
from repro.core.mcengine import MCTask, SerialEngine, VectorEngine
from repro.core.session import EvalSession, SpanRecorder
from repro.core.units import Energy

from .fixtures import LoadInterface, nan_sampler

MAX_HEADWIND = 8.0
LOAD_METHODS = ("E_pow", "E_divmod", "E_zero_divisor", "E_nan_quotient",
                "E_unused_quotient", "E_concrete_zero_divisor", "E_guarded")


QUERIES = ("drone.E_leg",) + tuple(f"load.{m}" for m in LOAD_METHODS)


@st.composite
def query(draw, label):
    """``(call, env)`` for one labelled query, arguments and NaNs drawn."""
    with_nans = draw(st.booleans())
    family, method = label.split(".")
    if family == "load":
        return (LoadInterface(with_nans)(method, draw(st.floats(0.5, 4.0))),
                ECVEnvironment.EMPTY)
    # Ground speeds on both sides of the maximum headwind, so both arms
    # of max(ground_speed + headwind, 0.0) are taken.
    speed = draw(st.floats(0.5, 2 * MAX_HEADWIND))
    interface = MissionEnergyInterface(DroneSpec(), MAX_HEADWIND)
    call = interface(method, draw(st.floats(100.0, 5000.0)),
                     draw(st.floats(0.0, 120.0)), draw(st.floats(0.0, 2.0)),
                     speed)
    env = (ECVEnvironment({"headwind_mps": ContinuousECV(
        "headwind_mps", -MAX_HEADWIND, MAX_HEADWIND,
        sampler=nan_sampler(-MAX_HEADWIND, MAX_HEADWIND))})
        if with_nans else ECVEnvironment.EMPTY)
    return call, env


def engine_outcome(engine, call, env, seed, n):
    """Raw (unsorted) draws of one engine, or the error it raised."""
    try:
        return engine.draws(MCTask(fn=call, env=env, n=n, entropy=seed))
    except Exception as exc:  # noqa: BLE001 - the error is the outcome
        return type(exc), str(exc)


def session_outcome(call, env, seed, n, engine, backend):
    """Sorted distribution-mode draws through a session, or its error."""
    session = EvalSession(seed=seed, env=env, engine=engine,
                          backend=backend)
    try:
        dist = evaluate(call, session=session, mode="distribution",
                        n_samples=n)
    except Exception as exc:  # noqa: BLE001 - the error is the outcome
        return type(exc), str(exc)
    return np.asarray(dist._samples).tobytes()


def same(a, b):
    if isinstance(a, np.ndarray) and isinstance(b, np.ndarray):
        return a.tobytes() == b.tobytes()
    return a == b


@pytest.mark.parametrize("label", QUERIES)
@settings(max_examples=25, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2 ** 32),
       n=st.sampled_from([1, 2, 4000]))
def test_kernel_draws_equal_both_engines(label, data, seed, n):
    call, env = data.draw(query(label))
    entry = compile_call(call, env)
    assert entry.tier == "kernel" and entry.predicated, entry.reason
    serial = engine_outcome(SerialEngine(), call, env, seed, n)
    vector = engine_outcome(VectorEngine(), call, env, seed, n)
    try:
        kernel = entry.draws(seed, n)
    except KernelDeferred:
        kernel = None
    assert same(serial, vector)
    # The kernel defers exactly where the reference loop raises.
    if isinstance(serial, tuple):
        assert kernel is None, f"kernel answered where {serial} raised"
    else:
        assert kernel is not None and same(kernel, serial)
    # Through sessions: the compiled backend answers (or raises) exactly
    # as the sampled backend does under either engine.
    for engine in ("serial", "vector"):
        assert session_outcome(call, env, seed, n, engine,
                               CompiledBackend()) == session_outcome(
            call, env, seed, n, engine, "sampled")


class TestDeferral:
    def test_guard_raises_the_same_error_and_leaves_the_same_state(self):
        call = LoadInterface()("E_guarded", 2.0)
        states = []
        for backend in (CompiledBackend(), "sampled"):
            rng = np.random.default_rng(11)
            session = EvalSession(rng=rng, backend=backend)
            with pytest.raises(WorkloadError) as raised:
                evaluate(call, session=session, mode="distribution",
                         n_samples=500)
            states.append((str(raised.value), dict(session.stats),
                           rng.bit_generator.state))
        assert states[0] == states[1]
        assert states[0][0] == "load above the rated 2.5 at k=2.0"

    def test_zero_divisor_on_a_taken_arm_raises_zero_division(self):
        for method in ("E_zero_divisor", "E_unused_quotient",
                       "E_concrete_zero_divisor"):
            call = LoadInterface()(method, 1.5)
            for backend in (CompiledBackend(), "sampled"):
                with pytest.raises(ZeroDivisionError):
                    evaluate(call, session=EvalSession(
                        seed=3, backend=backend), mode="distribution",
                        n_samples=200)

    def test_deferral_is_counted_annotated_and_not_cached(self):
        backend = CompiledBackend()
        recorder = SpanRecorder()
        session = EvalSession(seed=5, backend=backend, hooks=[recorder])
        call = LoadInterface()("E_guarded", 1.0)
        with pytest.raises(WorkloadError):
            evaluate(call, session=session, mode="distribution",
                     n_samples=400)
        assert backend.stats == {"analytic": 0, "kernel": 0, "sampled": 1}
        entry = backend.cache.get(call, ECVEnvironment.EMPTY)
        assert entry.tier == "kernel" and not entry._results

    def test_single_sample_answers_from_the_kernel(self):
        backend = CompiledBackend()
        recorder = SpanRecorder()
        session = EvalSession(seed=5, backend=backend, hooks=[recorder])
        call = MissionEnergyInterface(DroneSpec())(
            "E_leg", 3000.0, 60.0, 0.5, 12.0)
        dist = evaluate(call, session=session, mode="distribution",
                        n_samples=1)
        notes = [note for span in recorder.last_root.walk()
                 for note in span.notes]
        assert not any(note.startswith("compile fallback") for note in notes)
        assert backend.stats == {"analytic": 0, "kernel": 1, "sampled": 0}
        serial = SerialEngine().draws(MCTask(
            fn=call, env=ECVEnvironment.EMPTY, n=1, entropy=5))
        assert np.asarray(dist._samples).tobytes() == serial.tobytes()


class TestTracing:
    def test_drone_leg_paths(self):
        call = MissionEnergyInterface(DroneSpec())(
            "E_leg", 3000.0, 60.0, 0.5, 12.0)
        program = compile_call(call, ECVEnvironment.EMPTY).program
        guards = [path for path in program.paths if path.guard is not None]
        assert len(program.paths) == 3 and len(guards) == 1
        assert guards[0].guard == "WorkloadError: airspeed must be >= 0"
        assert all(path.predicates for path in program.paths)

    def test_equality_does_not_fork(self):
        class Exact(LoadInterface):
            def E_eq(self):
                if self.ecv("load").sym_eq(1.0):
                    return Energy(1.0)
                return Energy(2.0)

        entry = compile_call(Exact()("E_eq"), ECVEnvironment.EMPTY)
        assert entry.tier == "sampled"

    def test_forks_count_against_the_trace_cap(self):
        call = MissionEnergyInterface(DroneSpec())(
            "E_leg", 3000.0, 60.0, 0.5, 12.0)
        entry = compile_call(call, ECVEnvironment.EMPTY, max_traces=2)
        assert entry.tier == "sampled"
        assert "exceeded 2 traces" in entry.reason
