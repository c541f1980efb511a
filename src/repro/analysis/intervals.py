"""Worst-case abstract evaluation of symbolic expressions.

The static linter (:mod:`repro.analysis.lint`) needs to compare path
energies and decide conditions *for all inputs at once*, without
enumerating them.  Two abstract domains over the
:class:`~repro.analysis.expr.Expr` IR do that:

* an **interval domain** — each variable ranges over ``[lo, hi]``
  (possibly infinite); expressions evaluate to the interval of values
  they can take.  Sound for arbitrary expressions but subject to the
  classic dependency problem (``n - n`` evaluates to a wide interval);
* an **affine domain** — expressions that are linear in their variables
  normalise to ``const + Σ coef·var``, whose extrema over a box are
  exact.  Every loop-summarised energy expression in this repository is
  affine, so the common case loses nothing.

:func:`bound_expr` tries the affine domain first and falls back to
intervals; :func:`condition_status` classifies a path-condition clause
as ``"always"`` / ``"never"`` / ``"unknown"`` under the input box —
``"never"`` is rule EB106's energy-dead path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

from repro.analysis.expr import (
    BinOp,
    Compare,
    Const,
    Expr,
    FreshSymbol,
    UnaryOp,
    Var,
)
from repro.core.errors import IntervalError

__all__ = ["Interval", "TOP", "NONNEGATIVE", "interval_of", "linearize",
           "AffineForm", "bound_expr", "condition_status"]

_INF = float("inf")


def _mul(a: float, b: float) -> float:
    """Endpoint product with the convention 0 * inf = 0."""
    if a == 0.0 or b == 0.0:
        return 0.0
    return a * b


@dataclass(frozen=True)
class Interval:
    """A closed interval over the extended reals."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise IntervalError(f"empty interval [{self.lo}, {self.hi}]")

    @staticmethod
    def point(value: float) -> "Interval":
        return Interval(float(value), float(value))

    @property
    def is_point(self) -> bool:
        return self.lo == self.hi

    @property
    def bounded(self) -> bool:
        return math.isfinite(self.lo) and math.isfinite(self.hi)

    def __add__(self, other: "Interval") -> "Interval":
        return Interval(self.lo + other.lo, self.hi + other.hi)

    def __sub__(self, other: "Interval") -> "Interval":
        return Interval(self.lo - other.hi, self.hi - other.lo)

    def __neg__(self) -> "Interval":
        return Interval(-self.hi, -self.lo)

    def __mul__(self, other: "Interval") -> "Interval":
        products = [_mul(self.lo, other.lo), _mul(self.lo, other.hi),
                    _mul(self.hi, other.lo), _mul(self.hi, other.hi)]
        return Interval(min(products), max(products))

    def __str__(self) -> str:
        return f"[{self.lo:g}, {self.hi:g}]"


#: Everything: the abstraction of a value nothing is known about.
TOP = Interval(-_INF, _INF)

#: Default abstraction for inputs and resource results: sizes, counts
#: and energies are non-negative.
NONNEGATIVE = Interval(0.0, _INF)


def interval_of(expr: Expr, env: Mapping[str, Interval],
                default: Interval = NONNEGATIVE) -> Interval:
    """Sound interval evaluation of ``expr`` over the variable box."""
    if isinstance(expr, Const):
        if isinstance(expr.value, bool) or not isinstance(
                expr.value, (int, float)):
            return TOP
        return Interval.point(expr.value)
    if isinstance(expr, (Var, FreshSymbol)):
        return env.get(expr.render(), default)
    if isinstance(expr, UnaryOp):
        if expr.op == "-":
            return -interval_of(expr.operand, env, default)
        return TOP  # "not": boolean, not numeric
    if isinstance(expr, BinOp):
        left = interval_of(expr.left, env, default)
        right = interval_of(expr.right, env, default)
        if expr.op == "+":
            return left + right
        if expr.op == "-":
            return left - right
        if expr.op == "*":
            return left * right
        if expr.op in ("/", "//") and right.is_point and right.lo != 0:
            scaled = left * Interval.point(1.0 / right.lo)
            if expr.op == "//":
                return Interval(math.floor(scaled.lo)
                                if math.isfinite(scaled.lo) else scaled.lo,
                                math.floor(scaled.hi)
                                if math.isfinite(scaled.hi) else scaled.hi)
            return scaled
        if expr.op == "/" and (right.lo > 0 or right.hi < 0):
            # A divisor interval that excludes zero: 1/x is monotone on it.
            return left * Interval(1.0 / right.hi, 1.0 / right.lo)
        if expr.op == "%" and right.is_point and right.lo > 0:
            return Interval(0.0, right.lo)
        if (expr.op == "**" and right.is_point
                and float(right.lo).is_integer() and right.lo >= 0):
            return _integer_power(left, int(right.lo))
        return TOP
    return TOP


def _integer_power(base: Interval, exponent: int) -> Interval:
    """``base ** exponent`` for a non-negative integer exponent."""
    if exponent == 0:
        return Interval.point(1.0)
    lo, hi = base.lo ** exponent, base.hi ** exponent
    if exponent % 2 or base.lo >= 0:
        # Odd powers rise everywhere, even ones on [0, inf).
        return Interval(lo, hi)
    if base.hi <= 0:
        # Even powers fall on (-inf, 0].
        return Interval(hi, lo)
    return Interval(0.0, max(lo, hi))


@dataclass(frozen=True)
class AffineForm:
    """``const + Σ coeffs[name] * name`` — exact extrema over a box."""

    const: float
    coeffs: Mapping[str, float]

    def bounds(self, env: Mapping[str, Interval],
               default: Interval = NONNEGATIVE) -> Interval:
        """Exact range over the box (each variable varies independently)."""
        lo = hi = self.const
        for name, coef in self.coeffs.items():
            if coef == 0.0:
                continue
            interval = env.get(name, default)
            lo += min(_mul(coef, interval.lo), _mul(coef, interval.hi))
            hi += max(_mul(coef, interval.lo), _mul(coef, interval.hi))
        return Interval(lo, hi)


def _combine(left: AffineForm, right: AffineForm, sign: float) -> AffineForm:
    coeffs = dict(left.coeffs)
    for name, coef in right.coeffs.items():
        coeffs[name] = coeffs.get(name, 0.0) + sign * coef
    return AffineForm(left.const + sign * right.const, coeffs)


def _scale(form: AffineForm, factor: float) -> AffineForm:
    return AffineForm(form.const * factor,
                      {name: coef * factor
                       for name, coef in form.coeffs.items()})


def linearize(expr: Expr) -> AffineForm | None:
    """Normalise ``expr`` to an affine form, or ``None`` if non-linear."""
    if isinstance(expr, Const):
        if isinstance(expr.value, bool) or not isinstance(
                expr.value, (int, float)):
            return None
        return AffineForm(float(expr.value), {})
    if isinstance(expr, (Var, FreshSymbol)):
        return AffineForm(0.0, {expr.render(): 1.0})
    if isinstance(expr, UnaryOp):
        if expr.op != "-":
            return None
        operand = linearize(expr.operand)
        return None if operand is None else _scale(operand, -1.0)
    if isinstance(expr, BinOp):
        left = linearize(expr.left)
        right = linearize(expr.right)
        if left is None or right is None:
            return None
        if expr.op == "+":
            return _combine(left, right, 1.0)
        if expr.op == "-":
            return _combine(left, right, -1.0)
        if expr.op == "*":
            if not right.coeffs:
                return _scale(left, right.const)
            if not left.coeffs:
                return _scale(right, left.const)
            return None
        if expr.op == "/" and not right.coeffs and right.const != 0:
            return _scale(left, 1.0 / right.const)
        return None
    return None


def bound_expr(expr: Expr, env: Mapping[str, Interval],
               default: Interval = NONNEGATIVE) -> Interval:
    """Best available bounds: affine (exact) first, intervals second."""
    form = linearize(expr)
    if form is not None:
        return form.bounds(env, default)
    return interval_of(expr, env, default)


def _compare_status(op: str, difference: Interval) -> str:
    """Status of ``left <op> right`` given bounds on ``left - right``."""
    lo, hi = difference.lo, difference.hi
    if op == "<":
        return "always" if hi < 0 else "never" if lo >= 0 else "unknown"
    if op == "<=":
        return "always" if hi <= 0 else "never" if lo > 0 else "unknown"
    if op == ">":
        return "always" if lo > 0 else "never" if hi <= 0 else "unknown"
    if op == ">=":
        return "always" if lo >= 0 else "never" if hi < 0 else "unknown"
    if op == "==":
        if lo == hi == 0:
            return "always"
        return "never" if lo > 0 or hi < 0 else "unknown"
    if op == "!=":
        if lo == hi == 0:
            return "never"
        return "always" if lo > 0 or hi < 0 else "unknown"
    return "unknown"


_NEGATED = {"always": "never", "never": "always", "unknown": "unknown"}


def condition_status(clause: Expr, env: Mapping[str, Interval],
                     default: Interval = NONNEGATIVE) -> str:
    """Classify a path-condition clause over the input box.

    ``"never"`` means the clause — hence the whole path carrying it —
    is unsatisfiable under the declared input bounds (rule EB106).
    """
    if isinstance(clause, Compare):
        difference = bound_expr(BinOp("-", clause.left, clause.right),
                                env, default)
        return _compare_status(clause.op, difference)
    if isinstance(clause, UnaryOp) and clause.op == "not":
        return _NEGATED[condition_status(clause.operand, env, default)]
    return "unknown"
