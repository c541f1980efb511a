"""Symbolic expressions for the implementation→interface toolchain (§4.2).

The symbolic executor (:mod:`repro.analysis.symbex`) runs module
implementations over *symbolic* inputs; the values flowing through the
program are the expression trees defined here.  An extracted energy
interface is then a list of paths, each a (condition, energy-terms) pair
over these expressions, which can be

* **evaluated** against concrete inputs (making the extracted interface an
  executable energy interface, like every other one in this repository),
* **rendered** back to Python source, Fig.-1 style, for humans to read.

Fresh symbols introduced for unknown resource-call results play the role
of ECVs: state the input does not determine.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Any, Callable, Iterator, Mapping

from repro.core.errors import ExtractionError

__all__ = ["Expr", "Const", "Var", "FreshSymbol", "ECVLeaf", "BinOp",
           "Compare", "UnaryOp", "EnergyTerm", "as_expr", "evaluate_expr",
           "tracing"]

_BINOPS: dict[str, Callable[[Any, Any], Any]] = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b,
    "//": lambda a, b: a // b,
    "%": lambda a, b: a % b,
    "**": lambda a, b: a ** b,
}

_COMPARES: dict[str, Callable[[Any, Any], bool]] = {
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
}

_UNARY: dict[str, Callable[[Any], Any]] = {
    "-": lambda a: -a,
    "not": lambda a: not a,
}

_fresh_counter = itertools.count()

#: Operators that can raise on a concrete Python operand (a zero
#: divisor, an overflowing or complex power).
_PARTIAL_OPS = frozenset({"/", "//", "%", "**"})

#: The tracer that answers symbolic branches, when one is active.
_TRACER: ContextVar[Any] = ContextVar("expr_tracer", default=None)


@contextmanager
def tracing(tracer: Any) -> Iterator[None]:
    """Route symbolic branches and partial operations to ``tracer``.

    Inside the block ``bool()`` of a :class:`Compare` returns
    ``tracer.decide(compare)``, and every new ``/``, ``//``, ``%`` or
    ``**`` :class:`BinOp` is passed to ``tracer.note``.
    Outside it a symbolic comparison in a boolean context raises, exactly
    as any other symbolic value does.
    """
    token = _TRACER.set(tracer)
    try:
        yield
    finally:
        _TRACER.reset(token)


class Expr:
    """Base class for symbolic expressions.

    Expressions are immutable trees.  Python operators build larger
    expressions, so implementation code under symbolic execution composes
    them without knowing it.
    """

    # -- operator overloading builds trees --------------------------------
    def __add__(self, other):
        return BinOp("+", self, as_expr(other))

    def __radd__(self, other):
        return BinOp("+", as_expr(other), self)

    def __sub__(self, other):
        return BinOp("-", self, as_expr(other))

    def __rsub__(self, other):
        return BinOp("-", as_expr(other), self)

    def __mul__(self, other):
        return BinOp("*", self, as_expr(other))

    def __rmul__(self, other):
        return BinOp("*", as_expr(other), self)

    def __truediv__(self, other):
        return BinOp("/", self, as_expr(other))

    def __rtruediv__(self, other):
        return BinOp("/", as_expr(other), self)

    def __floordiv__(self, other):
        return BinOp("//", self, as_expr(other))

    def __rfloordiv__(self, other):
        return BinOp("//", as_expr(other), self)

    def __mod__(self, other):
        return BinOp("%", self, as_expr(other))

    def __rmod__(self, other):
        return BinOp("%", as_expr(other), self)

    def __pow__(self, other):
        return BinOp("**", self, as_expr(other))

    def __neg__(self):
        return UnaryOp("-", self)

    # Comparisons return symbolic booleans (the executor forks on them).
    def __lt__(self, other):
        return Compare("<", self, as_expr(other))

    def __le__(self, other):
        return Compare("<=", self, as_expr(other))

    def __gt__(self, other):
        return Compare(">", self, as_expr(other))

    def __ge__(self, other):
        return Compare(">=", self, as_expr(other))

    def sym_eq(self, other):
        """Symbolic equality (``==`` must stay Python equality for dicts)."""
        return Compare("==", self, as_expr(other))

    def sym_ne(self, other):
        """Symbolic inequality."""
        return Compare("!=", self, as_expr(other))

    def __bool__(self):
        raise ExtractionError(
            f"symbolic value {self!r} used in a concrete boolean context; "
            f"the symbolic executor must intercept this branch")

    def __hash__(self):
        return hash(repr(self))

    def __eq__(self, other):
        return type(self) is type(other) and repr(self) == repr(other)

    # -- interface ----------------------------------------------------------
    def free_variables(self) -> set[str]:
        """Names of :class:`Var` and :class:`FreshSymbol` leaves."""
        raise NotImplementedError

    def render(self) -> str:
        """Python-source rendering."""
        raise NotImplementedError

    def __repr__(self):
        return self.render()


class Const(Expr):
    """A literal constant."""

    def __init__(self, value: Any) -> None:
        self.value = value

    def free_variables(self) -> set[str]:
        return set()

    def render(self) -> str:
        return repr(self.value)


class Var(Expr):
    """A named input variable of the analysed function."""

    def __init__(self, name: str) -> None:
        self.name = name

    def free_variables(self) -> set[str]:
        return {self.name}

    def render(self) -> str:
        return self.name


class FreshSymbol(Expr):
    """An unknown introduced for a resource-call result — an ECV.

    ``origin`` records which call produced it, so the extracted interface
    can document the ECV ("return value of cache.lookup").
    """

    def __init__(self, hint: str, origin: str = "") -> None:
        self.name = f"{hint}_{next(_fresh_counter)}"
        self.origin = origin

    def free_variables(self) -> set[str]:
        return {self.name}

    def render(self) -> str:
        return self.name


class ECVLeaf(Var):
    """A symbolic ECV read: one ``(qualified name, occurrence)`` draw.

    The leaf the interface compiler (:mod:`repro.compile`) substitutes
    for ``self.ecv(name)`` reads while partially evaluating an energy
    method.  It subclasses :class:`Var` so the whole abstract toolchain
    — :func:`evaluate_expr`, :func:`repro.analysis.intervals.linearize`,
    :func:`repro.analysis.intervals.interval_of` — treats it as an
    ordinary named variable, while keeping hold of the resolved
    :class:`~repro.core.ecv.ECV` (its distribution) and the owning
    interface (for cache revalidation).

    The name encodes the occurrence index (``"cpu.f_ghz@0"``) because
    the Monte Carlo column store draws one independent column per
    ``(qualified, occurrence)`` pair — a method reading the same ECV
    twice reads two independent draws, and the compiled form must too.
    """

    def __init__(self, qualified: str, occurrence: int, ecv: Any,
                 owner: Any = None) -> None:
        super().__init__(f"{qualified}@{int(occurrence)}")
        self.qualified = qualified
        self.occurrence = int(occurrence)
        self.ecv = ecv
        self.owner = owner

    def __eq__(self, other):
        # Plain ``==`` on a symbolic draw would silently answer False
        # (``Expr.__eq__`` is structural equality) and miscompile bodies
        # that compare an ECV value — e.g. ``state == "boost"``.  Raising
        # here sends the tracer to its concrete-enumeration pass, which
        # handles the comparison exactly.
        raise ExtractionError(
            f"symbolic ECV draw {self.name!r} compared with ==; the "
            f"compile tracer must enumerate this read concretely")

    def __hash__(self):
        return hash(repr(self))


class BinOp(Expr):
    """A binary arithmetic operation."""

    def __init__(self, op: str, left: Expr, right: Expr) -> None:
        if op not in _BINOPS:
            raise ExtractionError(f"unsupported binary operator {op!r}")
        self.op = op
        self.left = left
        self.right = right
        if op in _PARTIAL_OPS:
            tracer = _TRACER.get()
            if tracer is not None:
                tracer.note(self)

    def free_variables(self) -> set[str]:
        return self.left.free_variables() | self.right.free_variables()

    def render(self) -> str:
        return f"({self.left.render()} {self.op} {self.right.render()})"


class Compare(Expr):
    """A comparison producing a symbolic boolean."""

    def __init__(self, op: str, left: Expr, right: Expr) -> None:
        if op not in _COMPARES:
            raise ExtractionError(f"unsupported comparison {op!r}")
        self.op = op
        self.left = left
        self.right = right

    def negated(self) -> "Compare":
        """The complementary comparison."""
        complement = {"<": ">=", "<=": ">", ">": "<=", ">=": "<",
                      "==": "!=", "!=": "=="}
        return Compare(complement[self.op], self.left, self.right)

    def __bool__(self):
        tracer = _TRACER.get()
        if tracer is None:
            return super().__bool__()
        return tracer.decide(self)

    def free_variables(self) -> set[str]:
        return self.left.free_variables() | self.right.free_variables()

    def render(self) -> str:
        return f"({self.left.render()} {self.op} {self.right.render()})"


class UnaryOp(Expr):
    """Negation or logical not."""

    def __init__(self, op: str, operand: Expr) -> None:
        if op not in _UNARY:
            raise ExtractionError(f"unsupported unary operator {op!r}")
        self.op = op
        self.operand = operand

    def negated(self) -> Expr:
        if self.op == "not":
            return self.operand
        raise ExtractionError("only boolean expressions can be negated")

    def free_variables(self) -> set[str]:
        return self.operand.free_variables()

    def render(self) -> str:
        spacer = " " if self.op == "not" else ""
        return f"({self.op}{spacer}{self.operand.render()})"


class EnergyTerm:
    """One resource call's energy contribution on a path.

    ``multiplier`` scales the call (loop summarisation); arguments are
    expressions over the inputs.
    """

    def __init__(self, resource: str, method: str, args: tuple,
                 multiplier: Expr | None = None) -> None:
        self.resource = resource
        self.method = method
        self.args = tuple(as_expr(a) for a in args)
        self.multiplier = multiplier if multiplier is not None else Const(1)

    def scaled(self, factor: Expr) -> "EnergyTerm":
        """The same term with its multiplier scaled by ``factor``."""
        return EnergyTerm(self.resource, self.method, self.args,
                          BinOp("*", self.multiplier, factor))

    def free_variables(self) -> set[str]:
        names = self.multiplier.free_variables()
        for arg in self.args:
            names |= arg.free_variables()
        return names

    def render(self) -> str:
        call = (f"E_{self.resource}.{self.method}"
                f"({', '.join(arg.render() for arg in self.args)})")
        if isinstance(self.multiplier, Const) and self.multiplier.value == 1:
            return call
        return f"{self.multiplier.render()} * {call}"

    def __repr__(self) -> str:
        return f"EnergyTerm({self.render()})"


def as_expr(value: Any) -> Expr:
    """Coerce concrete Python values to :class:`Const` leaves."""
    if isinstance(value, Expr):
        return value
    if isinstance(value, (bool, int, float, str)) or value is None:
        return Const(value)
    raise ExtractionError(
        f"cannot use {type(value).__name__} values symbolically")


def evaluate_expr(expr: Expr, env: Mapping[str, Any]) -> Any:
    """Evaluate an expression against concrete variable bindings."""
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, (Var, FreshSymbol)):
        if expr.render() not in env and isinstance(expr, Var):
            raise ExtractionError(f"no binding for input variable {expr.name!r}")
        try:
            return env[expr.render()]
        except KeyError:
            raise ExtractionError(
                f"no binding for symbol {expr.render()!r} (an ECV from "
                f"{getattr(expr, 'origin', '?')})") from None
    if isinstance(expr, BinOp):
        return _BINOPS[expr.op](evaluate_expr(expr.left, env),
                                evaluate_expr(expr.right, env))
    if isinstance(expr, Compare):
        return _COMPARES[expr.op](evaluate_expr(expr.left, env),
                                  evaluate_expr(expr.right, env))
    if isinstance(expr, UnaryOp):
        return _UNARY[expr.op](evaluate_expr(expr.operand, env))
    raise ExtractionError(f"cannot evaluate expression {expr!r}")
