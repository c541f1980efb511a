"""Tests for the worst-case abstract domains (intervals + affine forms)."""

import math

import pytest

from repro.analysis.expr import BinOp, Compare, Const, UnaryOp, Var
from repro.analysis.intervals import (
    NONNEGATIVE,
    TOP,
    Interval,
    bound_expr,
    condition_status,
    interval_of,
    linearize,
)

N = Var("n")
M = Var("m")


def add(a, b):
    return BinOp("+", a, b)


def sub(a, b):
    return BinOp("-", a, b)


def mul(a, b):
    return BinOp("*", a, b)


class TestInterval:
    def test_point(self):
        box = Interval.point(3.0)
        assert box.is_point
        assert box.lo == box.hi == 3.0

    def test_arithmetic(self):
        a = Interval(1.0, 2.0)
        b = Interval(-1.0, 3.0)
        assert (a + b) == Interval(0.0, 5.0)
        assert (a - b) == Interval(-2.0, 3.0)
        assert (a * b) == Interval(-2.0, 6.0)

    def test_zero_times_infinity_is_zero(self):
        zero = Interval.point(0.0)
        assert (zero * NONNEGATIVE) == Interval.point(0.0)

    def test_bounded(self):
        assert Interval(0.0, 5.0).bounded
        assert not NONNEGATIVE.bounded
        assert not TOP.bounded


class TestIntervalOf:
    def test_var_from_env(self):
        assert interval_of(N, {"n": Interval(2.0, 4.0)}) == Interval(2.0, 4.0)

    def test_unknown_var_defaults_nonnegative(self):
        assert interval_of(N, {}) == NONNEGATIVE

    def test_linear_combination(self):
        env = {"n": Interval(0.0, 10.0)}
        expr = add(mul(Const(2.0), N), Const(1.0))
        assert interval_of(expr, env) == Interval(1.0, 21.0)

    def test_division_by_point(self):
        env = {"n": Interval(2.0, 8.0)}
        expr = BinOp("/", N, Const(2.0))
        assert interval_of(expr, env) == Interval(1.0, 4.0)


class TestAffine:
    def test_linearize_sum(self):
        form = linearize(add(mul(Const(3.0), N), sub(M, Const(1.0))))
        assert form.const == -1.0
        assert dict(form.coeffs) == {"n": 3.0, "m": 1.0}

    def test_nonlinear_returns_none(self):
        assert linearize(mul(N, N)) is None

    def test_affine_bounds_exact_under_cancellation(self):
        # n - n is 0 exactly; plain intervals would widen to [-10, 10].
        env = {"n": Interval(0.0, 10.0)}
        assert bound_expr(sub(N, N), env) == Interval.point(0.0)

    def test_bound_expr_falls_back_to_intervals(self):
        env = {"n": Interval(0.0, 3.0)}
        assert bound_expr(mul(N, N), env) == Interval(0.0, 9.0)


class TestConditionStatus:
    def test_never(self):
        env = {"n": Interval(0.0, 240.0)}
        clause = Compare(">", N, Const(1000.0))
        assert condition_status(clause, env) == "never"

    def test_always(self):
        env = {"n": Interval(0.0, 240.0)}
        clause = Compare("<=", N, Const(1000.0))
        assert condition_status(clause, env) == "always"

    def test_unknown(self):
        env = {"n": Interval(0.0, 240.0)}
        clause = Compare(">", N, Const(100.0))
        assert condition_status(clause, env) == "unknown"

    def test_negation(self):
        env = {"n": Interval(0.0, 240.0)}
        clause = UnaryOp("not", Compare(">", N, Const(1000.0)))
        assert condition_status(clause, env) == "always"

    def test_unbounded_input_is_unknown(self):
        clause = Compare(">", N, Const(1000.0))
        assert condition_status(clause, {}) == "unknown"


class TestUnboundedEnergy:
    def test_loop_energy_over_unbounded_input(self):
        env = {"n": Interval(0.0, math.inf)}
        energy = mul(N, Const(0.001))
        assert bound_expr(energy, env).hi == math.inf

    def test_loop_energy_over_bounded_input(self):
        env = {"n": Interval(0.0, 100.0)}
        energy = mul(N, Const(0.001))
        assert bound_expr(energy, env).hi == pytest.approx(0.1)


class TestIntegerPower:
    """``x ** k`` for a non-negative integer ``k`` over any base interval."""

    @pytest.mark.parametrize("base,k,want", [
        (Interval(2.0, 3.0), 3, Interval(8.0, 27.0)),
        (Interval(-2.0, 3.0), 3, Interval(-8.0, 27.0)),
        (Interval(-3.0, -2.0), 3, Interval(-27.0, -8.0)),
        (Interval(-2.0, 3.0), 2, Interval(0.0, 9.0)),
        (Interval(-4.0, 3.0), 2, Interval(0.0, 16.0)),
        (Interval(-3.0, -2.0), 2, Interval(4.0, 9.0)),
        (Interval(-5.0, 7.0), 0, Interval(1.0, 1.0)),
        (Interval(-math.inf, 1.0), 3, Interval(-math.inf, 1.0)),
    ])
    def test_bounds(self, base, k, want):
        assert interval_of(BinOp("**", N, Const(k)), {"n": base}) == want

    @pytest.mark.parametrize("base,k", [
        (Interval(-2.0, 3.0), 3), (Interval(-4.0, 3.0), 2),
        (Interval(-3.0, -2.0), 4), (Interval(-1.5, 0.0), 5),
    ])
    def test_contains_every_value(self, base, k):
        bound = interval_of(BinOp("**", N, Const(k)), {"n": base})
        for step in range(101):
            x = base.lo + (base.hi - base.lo) * step / 100
            assert bound.lo <= x ** k <= bound.hi

    def test_fractional_or_negative_exponent_stays_unbounded(self):
        env = {"n": Interval(-2.0, 3.0)}
        assert interval_of(BinOp("**", N, Const(0.5)), env) == TOP
        assert interval_of(BinOp("**", N, Const(-1)), env) == TOP

    def test_drone_leg_below_max_headwind_is_finite(self):
        from repro.apps.drone import DroneSpec, MissionEnergyInterface
        from repro.compile import compile_call
        from repro.core.ecv import ECVEnvironment

        leg = MissionEnergyInterface(DroneSpec())("E_leg", 3000.0, 60.0,
                                                  0.5, 5.0)
        interval = compile_call(leg, ECVEnvironment.EMPTY).proven_interval()
        assert interval.bounded
        assert 0.0 < interval.lo <= interval.hi
