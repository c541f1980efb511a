"""Tests for the gateway's evaluation cache: a MemoHook and ECV fingerprints.

The gateway memoizes through a :class:`~repro.core.session.MemoHook` in
its session's hook chain, so these cases drive the hook the same way:
``EvalSession(hooks=[memo])`` plus the canonical ``evaluate(...)``.
"""

import pytest

from repro.core.ecv import (
    BernoulliECV,
    CategoricalECV,
    ContinuousECV,
    FixedECV,
    UniformIntECV,
)
from repro.core.errors import EvaluationError
from repro.core.interface import EnergyInterface, evaluate
from repro.core.session import DEFAULT_P_QUANTUM, EvalSession, MemoHook
from repro.core.units import Energy
from repro.serving import ecv_fingerprint, env_fingerprint


class CountingInterface(EnergyInterface):
    """A branching interface that counts how often it actually runs."""

    def __init__(self):
        super().__init__("counting")
        self.declare_ecv(BernoulliECV("hit", p=0.5))
        self.calls = 0

    def E_op(self, size: int) -> Energy:
        self.calls += 1
        if self.ecv("hit"):
            return Energy(0.1 * size)
        return Energy(1.0 * size)


def memo_session(**memo_kwargs):
    memo = MemoHook(**memo_kwargs)
    return memo, EvalSession(hooks=[memo])


class TestFingerprints:
    def test_bernoulli_quantised(self):
        close = (ecv_fingerprint(BernoulliECV("h", p=0.912)),
                 ecv_fingerprint(BernoulliECV("h", p=0.913)))
        assert close[0] == close[1]
        far = ecv_fingerprint(BernoulliECV("h", p=0.5))
        assert far != close[0]

    def test_kinds_are_distinguished(self):
        prints = {
            ecv_fingerprint(BernoulliECV("x", p=0.5)),
            ecv_fingerprint(FixedECV("x", 0.5)),
            ecv_fingerprint(CategoricalECV("x", {0.5: 1.0})),
            ecv_fingerprint(UniformIntECV("x", 0, 1)),
            ecv_fingerprint(ContinuousECV("x", 0.0, 1.0)),
        }
        assert len(prints) == 5

    def test_env_fingerprint_order_independent(self):
        a = env_fingerprint({"x": 1, "y": BernoulliECV("y", p=0.25)})
        b = env_fingerprint({"y": BernoulliECV("y", p=0.25), "x": 1})
        assert a == b

    def test_empty_env(self):
        assert env_fingerprint(None) == ()
        assert env_fingerprint({}) == ()


class TestMemoHookCache:
    def test_hit_returns_same_value_without_reevaluating(self):
        iface = CountingInterface()
        memo, session = memo_session()
        first = evaluate(iface("E_op", 10), session=session)
        runs_after_first = iface.calls
        second = evaluate(iface("E_op", 10), session=session)
        assert second.as_joules == first.as_joules
        assert iface.calls == runs_after_first
        assert memo.hits == 1 and memo.misses == 1
        assert memo.hit_rate == pytest.approx(0.5)

    def test_mode_is_part_of_the_key(self):
        iface = CountingInterface()
        memo, session = memo_session()
        expected = evaluate(iface("E_op", 10), session=session,
                            mode="expected")
        worst = evaluate(iface("E_op", 10), session=session, mode="worst")
        assert worst.as_joules > expected.as_joules
        assert memo.misses == 2

    def test_env_change_invalidates(self):
        iface = CountingInterface()
        memo, session = memo_session()
        low = evaluate(iface("E_op", 10), session=session,
                       env={"hit": BernoulliECV("hit", p=0.0)})
        high = evaluate(iface("E_op", 10), session=session,
                        env={"hit": BernoulliECV("hit", p=1.0)})
        assert low.as_joules == pytest.approx(10.0)
        assert high.as_joules == pytest.approx(1.0)
        assert memo.misses == 2

    def test_quantised_drift_stays_cached(self):
        iface = CountingInterface()
        memo, session = memo_session()
        evaluate(iface("E_op", 10), session=session,
                 env={"hit": BernoulliECV("hit", p=0.9120)})
        evaluate(iface("E_op", 10), session=session,
                 env={"hit": BernoulliECV("hit", p=0.9121)})
        assert memo.hits == 1

    def test_precomputed_fingerprint_wins(self):
        iface = CountingInterface()
        memo, session = memo_session()
        evaluate(iface("E_op", 10), session=session,
                 env={"hit": BernoulliECV("hit", p=0.2)},
                 fingerprint=("shared",))
        # different env, same fingerprint: the caller vouches for equality
        evaluate(iface("E_op", 10), session=session,
                 env={"hit": BernoulliECV("hit", p=0.21)},
                 fingerprint=("shared",))
        assert memo.hits == 1

    def test_lru_eviction(self):
        iface = CountingInterface()
        memo, session = memo_session(max_entries=2)
        for size in (1, 2, 3):
            evaluate(iface("E_op", size), session=session)
        assert memo.evictions == 1
        assert len(memo) == 2
        # size=1 was evicted; re-asking re-evaluates
        evaluate(iface("E_op", 1), session=session)
        assert memo.misses == 4

    def test_unhashable_args_evaluate_uncached(self):
        class SumInterface(EnergyInterface):
            def E_sum(self, values):
                return Energy(float(sum(values)))

        iface = SumInterface("sums")
        memo, session = memo_session()
        value = evaluate(iface("E_sum", [1, 2, 3]), session=session)
        again = evaluate(iface("E_sum", [1, 2, 3]), session=session)
        assert value.as_joules == again.as_joules == 6.0
        assert memo.hits == 0 and memo.misses == 2
        assert len(memo) == 0

    def test_clear_keeps_stats(self):
        iface = CountingInterface()
        memo, session = memo_session()
        evaluate(iface("E_op", 10), session=session)
        memo.clear()
        assert len(memo) == 0
        assert memo.misses == 1
        evaluate(iface("E_op", 10), session=session)
        assert memo.misses == 2

    def test_stats_dict(self):
        stats = MemoHook().stats()
        assert stats["lookups"] == 0
        assert stats["hit_rate"] == 0.0

    def test_bad_capacity(self):
        with pytest.raises(EvaluationError):
            MemoHook(max_entries=0)

    def test_default_quantum(self):
        assert MemoHook().p_quantum == DEFAULT_P_QUANTUM
