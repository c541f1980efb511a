"""Tests for :mod:`repro.core.session`: the unified evaluation pipeline.

Four concerns, one file:

* **backwards compatibility** — every session-less call-site shape
  (``mode=``, ``env=``, ``rng=``, ``max_traces=``, the shorthands) must
  behave exactly as before when no session is given;
* **deterministic replay** — equal-seed sessions agree, across Monte
  Carlo fallback, ``"sample"`` mode and a full Fig. 2-style stack;
* **span trees** — nested, sequenced, bound and overhead-wrapped
  interfaces yield correctly parented spans whose child energies are
  consistent with the root;
* **hooks** — memoization at any layer and evaluation budgets.
"""

import json

import numpy as np
import pytest

from repro.core.composition import (
    BoundInterface,
    OverheadInterface,
    SequenceInterface,
)
from repro.core.ecv import BernoulliECV, ContinuousECV
from repro.core.errors import EvaluationError
from repro.core.interface import EnergyInterface, evaluate
from repro.core.session import (
    AccountingHook,
    EvalSession,
    MemoHook,
    SpanRecorder,
    chrome_trace,
    layer_breakdown,
    render_span_tree,
)
from repro.core.stack import Layer, Resource, ResourceManager, SystemStack
from repro.core.units import Energy


class LeafInterface(EnergyInterface):
    """1 J per op when warm, 2 J when cold."""

    def __init__(self, name="leaf"):
        super().__init__(name)
        self.declare_ecv(BernoulliECV("warm", 0.5))

    def E_op(self, n):
        factor = 1.0 if self.ecv("warm") else 2.0
        return Energy(float(n) * factor)


class OuterInterface(EnergyInterface):
    """Nests a leaf and adds 0.5 J of its own work."""

    def __init__(self):
        super().__init__("outer")
        self.inner = LeafInterface("inner")

    def E_req(self, n):
        return self.inner.E_op(n) + Energy(0.5)


class LoadInterface(EnergyInterface):
    """Continuous ECV: enumeration fails, Monte Carlo kicks in."""

    def __init__(self):
        super().__init__("load")
        self.declare_ecv(ContinuousECV("utilisation", 0.2, 0.8))

    def E_tick(self, watts):
        return Energy(watts * self.ecv("utilisation"))


def build_three_layer_stack():
    """A Fig. 2-shaped stack: hardware -> os -> runtime.

    The hardware leaf reads a continuous ECV, so expected-mode
    evaluation of the top interface exercises the Monte Carlo path end
    to end — the case seeded replay must pin down.
    """
    hw_iface = LoadInterface()
    hardware = Layer("hardware")
    driver = hardware.add_manager(ResourceManager("driver"))
    driver.register(Resource("cpu", hw_iface))

    class OsInterface(EnergyInterface):
        def __init__(self):
            super().__init__("os_svc")
            self.declare_ecv(BernoulliECV("contended", 0.25))

        def E_syscall(self, watts):
            base = hw_iface.E_tick(watts)
            if self.ecv("contended"):
                return base + hw_iface.E_tick(watts / 2)
            return base

    os_iface = OsInterface()
    os_layer = Layer("os")
    systemd = os_layer.add_manager(ResourceManager("systemd"))
    systemd.register(Resource("os_svc", os_iface))

    class AppInterface(EnergyInterface):
        def __init__(self):
            super().__init__("app")

        def E_handle(self, watts):
            return os_iface.E_syscall(watts) + Energy(0.1)

    runtime = Layer("runtime")
    rt = runtime.add_manager(ResourceManager("python")) \
        .register(Resource("app", AppInterface()))
    return SystemStack([hardware, os_layer, runtime]), rt.energy_interface


class TestBackwardsCompatibility:
    """Lock the session-less call sites: no session, same answers."""

    def test_explicit_mode_and_env(self):
        iface = LeafInterface()
        assert evaluate(iface("E_op", 3), mode="expected",
                        env={"warm": True}).as_joules == 3.0
        assert evaluate(iface("E_op", 3), mode="worst").as_joules == 6.0
        assert evaluate(iface("E_op", 3), mode="best").as_joules == 3.0

    def test_max_traces_kwarg_still_accepted(self):
        iface = LeafInterface()
        value = evaluate(iface("E_op", 2), mode="expected", max_traces=16)
        assert value.as_joules == pytest.approx(3.0)

    def test_shorthands_unchanged(self):
        iface = LeafInterface()
        assert iface.expected("E_op", 2).as_joules == pytest.approx(3.0)
        assert iface.worst_case("E_op", 2).as_joules == 4.0
        dist = iface.distribution("E_op", 2)
        assert dist.mean() == pytest.approx(3.0)

    def test_free_function_evaluate(self):
        leaf = LeafInterface()
        value = evaluate(lambda: leaf.E_op(4), env={"warm": False})
        assert value.as_joules == 8.0

    def test_explicit_rng_kwarg(self):
        iface = LoadInterface()
        draws = [evaluate(iface("E_tick", 10.0), mode="expected",
                          rng=np.random.default_rng(99),
                          n_samples=300).as_joules
                 for _ in range(2)]
        assert draws[0] == draws[1]

    def test_unseeded_monte_carlo_still_pinned(self):
        """No session, no rng: the legacy fixed default seed holds."""
        first = LoadInterface().expected("E_tick", 10.0).as_joules
        second = LoadInterface().expected("E_tick", 10.0).as_joules
        assert first == second

    def test_sample_mode_returns_a_branch_value(self):
        iface = LeafInterface()
        value = evaluate(iface("E_op", 2), mode="sample")
        assert value.as_joules in (2.0, 4.0)


class TestDeterministicReplay:
    def test_equal_seed_sessions_agree_on_monte_carlo(self):
        iface = LoadInterface()
        a = evaluate(iface("E_tick", 10.0), session=EvalSession(seed=42))
        b = evaluate(iface("E_tick", 10.0), session=EvalSession(seed=42))
        assert a.as_joules == b.as_joules

    def test_different_seeds_differ(self):
        iface = LoadInterface()
        a = evaluate(iface("E_tick", 10.0), session=EvalSession(seed=1))
        b = evaluate(iface("E_tick", 10.0), session=EvalSession(seed=2))
        assert a.as_joules != b.as_joules

    def test_seeded_sample_sequences_replay(self):
        iface = LeafInterface()

        def draw_sequence(seed):
            session = EvalSession(mode="sample", seed=seed)
            return [evaluate(iface("E_op", 1), session=session).as_joules
                    for _ in range(20)]

        first = draw_sequence(7)
        assert first == draw_sequence(7)
        assert first != draw_sequence(8)
        assert set(first) == {1.0, 2.0}  # a seeded stream still mixes

    def test_equal_seed_sessions_agree_across_stack(self):
        """Fig. 2 shape: runtime -> os -> hardware, MC at the bottom."""
        stack, top = build_three_layer_stack()
        a = evaluate(top("E_handle", 8.0), session=stack.session(seed=1234))
        b = evaluate(top("E_handle", 8.0), session=stack.session(seed=1234))
        assert a.as_joules == b.as_joules
        c = evaluate(top("E_handle", 8.0), session=stack.session(seed=99))
        assert c.as_joules != a.as_joules


class TestSpanTree:
    def evaluate_with_spans(self, interface, method, *args, **kwargs):
        recorder = SpanRecorder()
        session = EvalSession(hooks=[recorder], **kwargs)
        value = evaluate(interface(method, *args), session=session)
        return value, recorder.last_root

    def test_nested_interface_parenting(self):
        value, root = self.evaluate_with_spans(OuterInterface(), "E_req", 2)
        assert root.label == "outer.E_req"
        assert [child.label for child in root.children] == ["inner.E_op"]
        assert root.value_j == pytest.approx(value.as_joules)
        assert root.value_j == pytest.approx(3.5)  # E[2n] = 3 + 0.5
        assert root.children_joules == pytest.approx(3.0)
        assert root.self_joules == pytest.approx(0.5)

    def test_sequence_children_sum_to_root(self):
        seq = SequenceInterface("pipeline", [
            (LeafInterface("stage_a"), "E_op", lambda n: (n,)),
            (LeafInterface("stage_b"), "E_op", lambda n: (2 * n,)),
        ])
        value, root = self.evaluate_with_spans(seq, "E_sequence", 1)
        assert [child.label for child in root.children] \
            == ["stage_a.E_op", "stage_b.E_op"]
        assert root.children_joules == pytest.approx(root.value_j)
        assert value.as_joules == pytest.approx(4.5)

    def test_bound_interface_is_transparent(self):
        bound = BoundInterface(LeafInterface(), {"warm": True})
        value, root = self.evaluate_with_spans(bound, "E_op", 2)
        # The binding overlay owns no span: the leaf's call IS the root.
        assert root.label == "leaf.E_op"
        assert not root.children
        assert value.as_joules == 2.0

    def test_overhead_interface_owns_a_span(self):
        wrapped = OverheadInterface(LeafInterface(), Energy(0.25),
                                    name="rpc")
        value, root = self.evaluate_with_spans(wrapped, "E_op", 2,
                                               env={"warm": True})
        assert root.label == "rpc.E_op"
        assert root.value_j == pytest.approx(2.25)
        assert [child.label for child in root.children] == ["leaf.E_op"]
        assert root.self_joules == pytest.approx(0.25)

    def test_probability_weighted_children(self):
        """Across enumerated traces, children carry branch probability
        and the weighted child energies account for the root."""
        value, root = self.evaluate_with_spans(
            build_three_layer_stack()[1], "E_handle", 8.0)
        by_label = {child.label: child for child in root.children}
        syscall = by_label["os_svc.E_syscall"]
        assert syscall.probability == pytest.approx(1.0)
        ticks = [span for span in syscall.children
                 if span.label == "load.E_tick"]
        assert ticks  # MC fallback still records hardware spans
        total = syscall.children_joules + (root.value_j - syscall.value_j)
        assert total == pytest.approx(root.value_j, rel=1e-6)

    def test_stack_layer_labels(self):
        stack, top = build_three_layer_stack()
        recorder = SpanRecorder()
        session = stack.session(hooks=[recorder])
        evaluate(top("E_handle", 8.0), session=session)
        root = recorder.last_root
        layers = {span.layer for span in root.walk()}
        assert layers == {"runtime", "os", "hardware"}
        assert root.resource == "app"
        breakdown = layer_breakdown(recorder.roots)
        assert set(breakdown) == {"runtime", "os", "hardware"}
        assert sum(breakdown.values()) == pytest.approx(root.value_j)

    def test_render_and_chrome_trace(self):
        stack, top = build_three_layer_stack()
        recorder = SpanRecorder()
        evaluate(top("E_handle", 8.0),
                 session=stack.session(hooks=[recorder]))
        text = render_span_tree(recorder.last_root)
        assert "app.E_handle" in text and "[hardware]" in text
        payload = chrome_trace(recorder.roots)
        events = payload["traceEvents"]
        assert events and all(e["ph"] == "X" and e["dur"] >= 0
                              for e in events)
        json.dumps(payload)  # must be serialisable as-is


class TestHooks:
    def test_memo_hit_on_repeat_evaluation(self):
        memo = MemoHook()
        session = EvalSession(hooks=[memo])
        iface = LeafInterface()
        first = evaluate(iface("E_op", 3), session=session)
        second = evaluate(iface("E_op", 3), session=session)
        assert first.as_joules == second.as_joules
        assert memo.hits == 1 and memo.misses == 1
        assert session.stats["memo_hits"] == 1

    def test_memo_is_mode_and_args_sensitive(self):
        memo = MemoHook()
        session = EvalSession(hooks=[memo])
        iface = LeafInterface()
        evaluate(iface("E_op", 3), session=session)
        evaluate(iface("E_op", 4), session=session)
        evaluate(iface("E_op", 3), session=session, mode="worst")
        assert memo.hits == 0

    def test_cached_evaluation_recorded_as_cache_hit_span(self):
        recorder = SpanRecorder()
        session = EvalSession(hooks=[MemoHook(), recorder])
        iface = OuterInterface()
        evaluate(iface("E_req", 2), session=session)
        evaluate(iface("E_req", 2), session=session)
        assert not recorder.roots[0].cache_hit
        assert recorder.roots[1].cache_hit
        assert recorder.roots[1].value_j \
            == pytest.approx(recorder.roots[0].value_j)

    def test_session_memoized_helper(self):
        calls = []
        session = EvalSession(hooks=[MemoHook()])

        def expensive():
            calls.append(1)
            return 17.0

        assert session.memoized(("rate", "core0", 0.5), expensive) == 17.0
        assert session.memoized(("rate", "core0", 0.5), expensive) == 17.0
        assert len(calls) == 1

    def test_accounting_budget_enforced(self):
        session = EvalSession(hooks=[AccountingHook(max_evaluations=2)])
        iface = LeafInterface()
        evaluate(iface("E_op", 1), session=session)
        evaluate(iface("E_op", 2), session=session)
        with pytest.raises(EvaluationError):
            evaluate(iface("E_op", 3), session=session)

    def test_memo_shared_across_layers(self):
        """One memo serves every layer's evaluations in the session."""
        stack, top = build_three_layer_stack()
        memo = MemoHook()
        session = stack.session(hooks=[memo])
        evaluate(top("E_handle", 8.0), session=session)
        manager = stack.layer("os").manager("systemd")
        os_iface = manager.resource("os_svc").energy_interface
        evaluate(os_iface("E_syscall", 8.0), session=session)
        evaluate(os_iface("E_syscall", 8.0), session=session)
        assert memo.hits >= 1
