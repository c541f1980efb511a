"""Batched answers against the per-sample loop, bitwise.

The per-sample loop (:class:`~repro.core.mcengine.SerialEngine`) defines
what a draw is.  The vector engine answers an energy call from its
compiled kernel, audited against that loop, and the compiled backend
answers from the same kernels.  For every fixture the three must give
bitwise-equal draws, or the compiled entry must be ``sampled`` with a
reason (then the vector engine runs the loop itself).  Attaching a span
recorder must not change the vector draws, and a kernel answer must
leave, in one batched hook event, the session statistics and accounting
the per-sample loop leaves.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.drone import DroneSpec, MissionEnergyInterface
from repro.compile import CompiledBackend, KernelDeferred, compile_call
from repro.core.ecv import ECVEnvironment
from repro.core.interface import evaluate
from repro.core.mcengine import MCTask, SerialEngine, VectorEngine
from repro.core.session import AccountingHook, EvalHook, EvalSession, \
    SpanRecorder
from repro.workloads.mcbench import build_bench_interface

from ..core.test_mcengine import VectorizableInterface
from .fixtures import ReferenceInterface

REFERENCE_METHODS = ("E_is_true", "E_isinstance", "E_type_is",
                     "E_float_pow", "E_int_pow", "E_divmod",
                     "E_zero_divisor", "E_bool_sum", "E_compare_sum",
                     "E_int_overflow")
QUERIES = tuple(f"reference.{m}" for m in REFERENCE_METHODS) + (
    "drone.E_leg", "bench.E_handle")
#: The bodies the tracer must screen out: a symbolic leaf answers their
#: identity or type test as no draw does.
SCREENED = ("E_is_true", "E_isinstance", "E_type_is")


@st.composite
def query(draw, label):
    """One labelled query with its arguments drawn."""
    family, method = label.split(".")
    if family == "reference":
        return ReferenceInterface()(method, draw(st.floats(0.25, 4.0)))
    if family == "drone":
        return MissionEnergyInterface(DroneSpec())(
            "E_leg", draw(st.floats(100.0, 5000.0)),
            draw(st.floats(0.0, 120.0)), draw(st.floats(0.0, 2.0)),
            draw(st.floats(3.0, 12.0)))
    return build_bench_interface()("E_handle",
                                   draw(st.integers(1, 10_000_000)))


def outcome(run):
    """``run()``'s draws as bytes, or the error it raised."""
    try:
        return np.asarray(run()).tobytes()
    except Exception as exc:  # noqa: BLE001 - the error is the outcome
        return type(exc), str(exc)


class RecordingVector(VectorEngine):
    """The vector engine, keeping the raw draws of its last task."""

    def draws(self, task):
        self.last = super().draws(task)
        return self.last


def vector_through_session(call, seed, n, hooks):
    """Raw vector draws of a distribution-mode evaluation, and its session."""
    engine = RecordingVector()
    session = EvalSession(seed=seed, engine=engine, hooks=hooks)

    def run():
        evaluate(call, session=session, mode="distribution", n_samples=n)
        return engine.last

    return outcome(run), session


def backend_answer(call, seed, n, backend):
    """The sorted distribution-mode draws of one backend, or its error."""
    session = EvalSession(seed=seed, backend=backend)
    return outcome(lambda: evaluate(call, session=session,
                                    mode="distribution",
                                    n_samples=n)._samples)


@pytest.mark.parametrize("label", QUERIES)
@settings(max_examples=25, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2 ** 32),
       n=st.sampled_from([1, 2, 4000]))
def test_batched_answers_equal_the_per_sample_loop(label, data, seed, n):
    call = data.draw(query(label))
    env = ECVEnvironment.EMPTY
    serial = outcome(lambda: SerialEngine().draws(
        MCTask(fn=call, env=env, n=n, entropy=seed)))
    vector = outcome(lambda: VectorEngine().draws(
        MCTask(fn=call, env=env, n=n, entropy=seed)))
    assert vector == serial
    entry = compile_call(call, env)
    if entry.tier == "sampled":
        assert entry.reason
    else:
        try:
            kernel = np.asarray(entry.draws(seed, n)).tobytes()
        except KernelDeferred:
            kernel = None
        if isinstance(serial, tuple):
            assert kernel is None, f"kernel answered where {serial} raised"
        else:
            assert kernel == serial
    if entry.tier != "analytic":  # an analytic answer is a closed form
        assert backend_answer(call, seed, n, CompiledBackend()) == \
            backend_answer(call, seed, n, "sampled")
    if label.split(".")[1] in SCREENED:
        assert entry.tier == "sampled" and "identity or type" in entry.reason
    if label == "reference.E_int_overflow":
        assert entry.tier == "sampled" and "integer" in entry.reason

    # A span recorder sends the vector engine to the loop; the draws,
    # the statistics and the accounting stay what they were.
    plain, plain_session = vector_through_session(
        call, seed, n, [AccountingHook()])
    traced, traced_session = vector_through_session(
        call, seed, n, [AccountingHook(), SpanRecorder()])
    assert plain == traced == serial
    if not isinstance(serial, tuple):
        for session in (plain_session, traced_session):
            assert session.stats == {"evaluations": 1, "traces": n,
                                     "memo_hits": 0}
            assert session.hooks[0].stats() == {
                "evaluations": 1, "cached_evaluations": 0, "traces": n}


class EventLog(EvalHook):
    """Every per-sample and batched trace event a session sends."""

    def __init__(self):
        self.events = []

    def on_trace(self, weight, value):
        self.events.append("trace")

    def on_batch(self, n, value):
        self.events.append(("batch", n))


@pytest.mark.parametrize("n", [1, 2, 123])
def test_kernel_answer_keeps_the_batched_hook_shape(n):
    """One ``on_batch(n)`` event, and the per-sample loop's stats."""
    call = VectorizableInterface()("E_op", 8)
    answers = []
    for engine in ("vector", "serial"):
        log, accounting = EventLog(), AccountingHook()
        session = EvalSession(seed=1, engine=engine,
                              hooks=[log, accounting])
        dist = evaluate(call, session=session, mode="distribution",
                        n_samples=n)
        answers.append((np.asarray(dist._samples).tobytes(),
                        session.stats, accounting.stats()))
        if engine == "vector":
            assert log.events == [("batch", n)]
        else:
            assert log.events == ["trace"] * n
    assert answers[0] == answers[1]
    assert answers[0][1] == {"evaluations": 1, "traces": n, "memo_hits": 0}


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2 ** 32), scale=st.floats(1.5, 4.0))
def test_audit_catches_a_kernel_gone_stale(seed, scale):
    """A constant changed in place after compiling: the kernel table's
    entry still revalidates, and only the audit sees the stale kernel.
    The failure is counted, and the recompiled kernel answers next."""
    interface = ReferenceInterface()
    call = interface("E_scaled", 2.0)
    session = EvalSession(seed=seed)
    evaluate(call, session=session, mode="distribution", n_samples=400)
    interface.scale = scale
    serial = evaluate(call, session=EvalSession(seed=seed, engine="serial"),
                      mode="distribution", n_samples=400)
    for failures in (1, 1):
        answer = evaluate(call, session=session, mode="distribution",
                          n_samples=400)
        assert np.asarray(answer._samples).tobytes() == \
            np.asarray(serial._samples).tobytes()
        assert session._kernels.stats["audit_failures"] == failures
    assert session._kernels.stats["misses"] == 2


def test_interfaces_sharing_a_name_keep_their_own_kernels():
    """Two drones named alike, the second twice as heavy, in one session."""
    light = MissionEnergyInterface(DroneSpec())
    heavy = MissionEnergyInterface(DroneSpec(empty_mass_kg=2 * DroneSpec(
    ).empty_mass_kg))
    assert light.name == heavy.name
    for backend in (CompiledBackend(), "sampled"):
        session = EvalSession(seed=3, backend=backend)
        answers = [evaluate(interface("E_leg", 3000.0, 60.0, 0.5, 12.0),
                            session=session, mode="distribution",
                            n_samples=500)._samples
                   for interface in (light, heavy)]
        for interface, answer in zip((light, heavy), answers):
            serial = SerialEngine().draws(MCTask(
                fn=interface("E_leg", 3000.0, 60.0, 0.5, 12.0),
                env=ECVEnvironment.EMPTY, n=500, entropy=3))
            assert np.asarray(answer).tobytes() == np.sort(serial).tobytes()
