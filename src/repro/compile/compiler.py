"""Compile traced energy programs to analytic distributions or kernels.

The back end of :mod:`repro.compile`: take a
:class:`~repro.compile.tracer.TracedProgram` and classify it into one of
the three prediction tiers —

``analytic``
    Every path is a constant or an affine form over leaves with
    closed-form marginals.  The output law is exact:
    :class:`~repro.compile.analytic.AnalyticDistribution` per path,
    combined across paths exactly as the interpreter's
    ``_combine_distribution`` does (``Discrete`` when all paths are
    constant, law-of-total-variance ``Mixture`` otherwise).

``kernel``
    A numpy kernel over the Monte Carlo engine's deterministic sample
    columns, emitted back to Python source.  Its paths are selected by
    masks: each predicate a path took is evaluated on the compressed
    columns of the samples that reached it, the true side keeps
    ``mask`` and the false side ``~mask`` (never the negated comparison,
    which would drop NaN samples from both sides), and each path's
    expression runs only on its own samples, scattered back into the
    output.  A straight-line body is the zero-predicate case: one path,
    no masks, a ``lambda`` over whole columns applying *the same
    operation sequence* the batched
    :class:`~repro.core.mcengine.VectorEngine` pass applies, so its draws
    are bitwise identical to engine draws at equal entropy.  A
    predicated body makes that engine fall back to its per-sample loop,
    so there Python's scalar semantics are the reference: ``**``, ``//``
    and ``%`` go through Python's own operators per element, ``/``
    raises on a zero divisor as Python does, and ``+ - *`` and the
    comparisons stay numpy (IEEE-identical).  The kernel *defers* — the
    backend samples as before, so any error comes from the same code —
    when a sample lands on a guard path (one where the body raised),
    when numpy or a Python operator signals an arithmetic error, when a
    column is not float64, and for ``n < 2``, where the batched
    engine pass succeeds and numpy semantics would be the reference.

``sampled``
    Everything else: equality or truthiness tests on a symbolic value,
    ``math.*`` or other coercions of one, per-sample outcome
    distributions, discrete enumerations whose paths are not all affine.
    The compiled entry records *why* and the prediction backend falls
    back to the Monte Carlo engines unchanged.  Predicated programs
    never enter the ``analytic`` tier: the weight of a path behind a
    continuous predicate is unknown.

:class:`CompileCache` memoizes compiled entries with a MemoHook-shaped
key — interface identity, method, arguments and the environment
fingerprint (quantised like every other memo key in this repository, so
parameter drift below the quantum keeps a hit, exactly as
:class:`~repro.core.session.MemoHook` behaves) — and revalidates every
hit against the *current* ECV resolution, so rebinding an ECV in the
environment or mutating a declared ECV recompiles instead of serving a
stale form.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Mapping

import numpy as np

from repro.analysis.expr import (
    BinOp,
    Compare,
    Const,
    ECVLeaf,
    Expr,
    FreshSymbol,
    UnaryOp,
    Var,
)
from repro.analysis.intervals import Interval, bound_expr, linearize
from repro.compile.analytic import (
    AnalyticDistribution,
    leaf_distribution,
    leaf_interval,
)
from repro.compile.tracer import (
    TracedPath,
    TracedProgram,
    UntraceableBody,
    trace_call,
)
from repro.core.distributions import (
    Discrete,
    Empirical,
    EnergyDistribution,
    Mixture,
    PointMass,
)
from repro.core.ecv import ContinuousECV, ECVEnvironment
from repro.core.errors import ReproError
from repro.core.interface import EnergyCall
from repro.core.mcengine import ColumnStore
from repro.core.session import (
    DEFAULT_P_QUANTUM,
    ecv_fingerprint,
    env_fingerprint,
)
from repro.core.units import Energy

__all__ = [
    "CompiledCall",
    "CompiledInterface",
    "CompileCache",
    "KernelDeferred",
    "compile_call",
]

#: Result-cache bound per compiled call (distinct ``(entropy, n)``
#: combinations; sessions reuse one entropy, so this is generous).
_MAX_RESULTS = 128


class _KernelUnsupported(Exception):
    """Internal: the expression uses a node codegen cannot emit."""


class KernelDeferred(ReproError):
    """A predicated kernel cannot answer this ``(entropy, n)`` exactly.

    Raised by :meth:`CompiledCall.draws`; the backend then samples as if
    the call had never compiled, so the answer — or the error — comes
    from the reference per-sample loop.
    """

    code = "E_COMPILE_DEFER"


def _python_op(op: Any) -> Any:
    """``op`` applied per element by Python's own operator, as floats.

    Python reports its errors by raising; the FPU flags its float code
    leaves behind (``nan // 0.3`` sets *invalid*) are not errors there,
    so numpy must not turn them into any.
    """
    ufunc = np.frompyfunc(op, 2, 1)

    def apply(left: Any, right: Any) -> np.ndarray:
        with np.errstate(all="ignore"):
            return np.asarray(ufunc(left, right), dtype=float)

    return apply


def _divide(left: Any, right: Any) -> np.ndarray:
    """Python's ``/``: numpy's quotient, but a zero divisor raises.

    numpy flags ``x / 0`` only for finite ``x``; ``inf / 0`` and
    ``nan / 0`` pass silently where Python raises.  A constant zero
    divisor over an arm no sample takes divides nothing, so no error.
    """
    if np.size(left) and np.any(right == 0):
        raise ZeroDivisionError("float division by zero")
    return left / right


#: Operators a predicated kernel runs with Python's scalar semantics.
_PYTHON_OPS = {"/": "_divide", "**": "_pow", "//": "_floordiv", "%": "_mod"}

#: The namespace every kernel runs in (no builtins).
_KERNEL_GLOBALS = {
    "__builtins__": {},
    "_divide": _divide,
    "_pow": _python_op(operator.pow),
    "_floordiv": _python_op(operator.floordiv),
    "_mod": _python_op(operator.mod),
    "_empty": np.empty,
    "_flatnonzero": np.flatnonzero,
    "_Deferred": KernelDeferred,
}

#: Largest integer constant a float column meets exactly in numpy.
_EXACT_INT = 2 ** 53


def _emit(expr: Expr, names: Mapping[str, str],
          python_ops: bool = False) -> str:
    """Render an expression to Python source over kernel arguments.

    Constants are emitted with ``repr`` (exact float round-trip); leaves
    become the sanitised argument names.  The emitted source performs the
    recorded operations in recorded order, which is what makes the kernel
    replay the batched engine pass bitwise.  ``python_ops`` routes the
    operators in :data:`_PYTHON_OPS` through Python's own scalar
    semantics and admits only numeric constants that numpy meets
    exactly.
    """
    if isinstance(expr, Const):
        # ``repr`` of inf, nan or a numpy scalar names nothing in the
        # kernel's namespace.
        value = expr.value
        if type(value) is float and not math.isfinite(value):
            raise _KernelUnsupported(
                f"constant {value!r} has no exact source form")
        if type(value) in (bool, int, float):
            if python_ops and type(value) is int and abs(value) > _EXACT_INT:
                raise _KernelUnsupported(
                    f"integer constant {value!r} is not exact in float64")
            return repr(value)
        if not python_ops and (isinstance(value, str) or value is None):
            return repr(value)
        raise _KernelUnsupported(
            f"constant of type {type(value).__name__} has no exact "
            f"source form")
    if isinstance(expr, (Var, FreshSymbol)):
        name = names.get(expr.render())
        if name is None:
            raise _KernelUnsupported(
                f"free symbol {expr.render()!r} is not a traced ECV leaf")
        return name
    if isinstance(expr, (BinOp, Compare)):
        left = _emit(expr.left, names, python_ops)
        right = _emit(expr.right, names, python_ops)
        if python_ops and expr.op in _PYTHON_OPS:
            return f"{_PYTHON_OPS[expr.op]}({left}, {right})"
        return f"({left} {expr.op} {right})"
    if isinstance(expr, UnaryOp) and expr.op == "-":
        return f"(-{_emit(expr.operand, names, python_ops)})"
    raise _KernelUnsupported(
        f"no kernel form for expression node {type(expr).__name__}")


def _decision_tree(paths: list[TracedPath]) -> dict:
    """Nest predicated paths by their shared predicate prefixes.

    An inner node holds its ``"compare"`` and one child per outcome
    (``True``/``False``); a leaf holds its ``"path"``.  ``"uses"`` is the
    set of ECV leaves the node's subtree reads.
    """
    root: dict = {}
    for path in paths:
        node = root
        for compare, outcome in path.predicates:
            node["compare"] = compare
            node = node.setdefault(outcome, {})
        node["path"] = path
    _mark_uses(root)
    return root


def _mark_uses(node: dict) -> set[str]:
    path = node.get("path")
    if path is None:
        uses = (node["compare"].free_variables() | _mark_uses(node[True])
                | _mark_uses(node[False]))
    elif path.guard is not None:
        uses = set()
    else:
        uses = set().union(*(expr.free_variables() for expr in (
            path.expr, *path.discarded) if expr is not None))
    node["uses"] = uses
    return uses


def _emit_node(node: dict, names: dict[str, str], index: str | None,
               lines: list[str], fresh: Any) -> None:
    """Emit one decision-tree node over its samples' compressed columns.

    ``names`` maps each ECV leaf the subtree reads to this node's copy of
    its column; ``index`` holds the node's sample positions in the
    output (``None`` at the root, which holds every sample).
    """
    path = node.get("path")
    if path is not None:
        if path.guard is not None:
            lines.append(f"    if {index}.size: raise _Deferred("
                         f"{'a sample hits a guard path: ' + path.guard!r})")
            return
        for operation in path.discarded:
            lines.append(f"    {_emit(operation, names, True)}")
        body = (_emit(path.expr, names, True) if path.expr is not None
                else _emit(Const(path.value), names, True))
        lines.append(f"    out[{index}] = {body}")
        return
    mask = f"m{next(fresh)}"
    lines.append(f"    {mask} = {_emit(node['compare'], names, True)}")
    for outcome, select in ((True, mask), (False, f"~{mask}")):
        child = node[outcome]
        suffix = f"_{next(fresh)}"
        lines.append(f"    i{suffix} = " + (
            f"_flatnonzero({select})" if index is None
            else f"{index}[{select}]"))
        child_names = {}
        for leaf in sorted(child["uses"]):
            column = names[leaf].split("_")[0] + suffix
            lines.append(f"    {column} = {names[leaf]}[{select}]")
            child_names[leaf] = column
        _emit_node(child, child_names, f"i{suffix}", lines, fresh)


def _kernel_source(program: TracedProgram, leaves: list[ECVLeaf]) -> str:
    """The kernel's source: a ``lambda`` or, with predicates, a ``def``.

    Both come from one emitter: a program without predicates is a single
    decision-tree leaf over whole columns, which needs no masks.
    """
    names = {leaf.name: f"c{index}" for index, leaf in enumerate(leaves)}
    params = ", ".join(names[leaf.name] for leaf in leaves)
    if not program.predicated:
        return f"lambda {params}: {_emit(program.paths[0].expr, names)}"
    lines = [f"def kernel({params}):", "    out = _empty(c0.shape[0])"]
    _emit_node(_decision_tree(program.paths), names, None, lines,
               itertools.count())
    lines.append("    return out")
    return "\n".join(lines)


def _build_kernel(source: str) -> Any:
    """Evaluate generated kernel source (built only from traced trees)."""
    namespace = dict(_KERNEL_GLOBALS)
    if source.startswith("lambda "):
        return eval(source, namespace)  # noqa: S307
    exec(source, namespace)  # noqa: S102
    return namespace["kernel"]


def _run_predicated(kernel: Any, columns: list[np.ndarray]) -> np.ndarray:
    """Run a predicated kernel, deferring wherever it could not be exact.

    Per sample, the reference loop reads Python floats, so only float64
    columns are admitted.  Underflow is left alone: Python's float
    arithmetic underflows silently to the same subnormal or zero.
    """
    for column in columns:
        if column.dtype != np.float64:
            raise KernelDeferred(
                f"ECV column of dtype {column.dtype} is not float64")
    try:
        with np.errstate(all="raise", under="ignore"):
            return kernel(*columns)
    except (ArithmeticError, TypeError) as exc:
        raise KernelDeferred(f"{type(exc).__name__}: {exc}") from exc


def _has_custom_sampler(ecv: Any) -> bool:
    """Whether an ECV draws through an opaque custom sampler.

    :func:`~repro.core.session.ecv_fingerprint` summarises a continuous
    ECV by its bounds only; two ECVs equal under the fingerprint can
    still draw differently when one carries a custom sampler, so cache
    revalidation tracks this bit separately.
    """
    return (isinstance(ecv, ContinuousECV)
            and getattr(ecv, "_sampler", None) is not None)


def _leaf_print(ecv: Any, p_quantum: float) -> tuple:
    return (ecv_fingerprint(ecv, p_quantum), _has_custom_sampler(ecv))


def _declaration_print(interface: Any, p_quantum: float) -> tuple:
    """Fingerprint of an interface's declared ECVs (mutation detection)."""
    declarations = getattr(interface, "ecv_declarations", None) or {}
    return tuple(sorted(
        (name, _leaf_print(ecv, p_quantum))
        for name, ecv in declarations.items()))


def _bare_name(leaf: ECVLeaf) -> str:
    """The unqualified ECV name of a leaf (strip the owner prefix)."""
    owner_name = getattr(leaf.owner, "name", None)
    if owner_name and leaf.qualified.startswith(owner_name + "."):
        return leaf.qualified[len(owner_name) + 1:]
    return leaf.qualified.rsplit(".", 1)[-1]


@dataclass
class CompiledCall:
    """One compiled energy query: its tier plus the compiled artefacts.

    ``analytic`` entries carry the exact output ``dist``; ``kernel``
    entries carry the generated source, the evaluable kernel and the
    ordered column leaves it consumes; ``sampled`` entries carry only
    the fallback ``reason``.  Per-``(entropy, n)`` prediction
    results are cached on the entry, which is what turns repeated
    seeded predictions into dictionary hits — the compiled replacement
    for re-running symbolic evaluation on every hot-path query.
    """

    call: EnergyCall
    tier: str
    dist: EnergyDistribution | None = None
    kernel_source: str | None = None
    kernel: Any = None
    leaves: list[ECVLeaf] = field(default_factory=list)
    leaf_prints: dict[str, tuple] = field(default_factory=dict)
    declared_print: tuple = ()
    reason: str | None = None
    program: TracedProgram | None = None
    #: The kernel selects paths by continuous predicates (and may defer).
    predicated: bool = False
    _results: "OrderedDict[tuple, Any]" = field(
        default_factory=OrderedDict, repr=False)

    # -- cache hygiene -----------------------------------------------------
    def revalidate(self, env: ECVEnvironment,
                   p_quantum: float = DEFAULT_P_QUANTUM) -> bool:
        """Is this entry still valid under the current ECV resolution?

        Re-resolves every traced leaf exactly as evaluation would
        (environment first, declaration second) and compares distribution
        fingerprints plus the custom-sampler bit; also re-fingerprints
        the interface's declarations so mutating a declared ECV in place
        invalidates entries whose memo key never sees it.
        """
        if (_declaration_print(self.call.interface, p_quantum)
                != self.declared_print):
            return False
        for leaf in self.leaves:
            bare = _bare_name(leaf)
            current = env.lookup(leaf.qualified, bare)
            if current is None and leaf.owner is not None:
                current = leaf.owner.declared_ecv(bare)
            if current is None:
                return False
            if self.leaf_prints.get(leaf.name) != _leaf_print(
                    current, p_quantum):
                return False
        return True

    # -- execution ---------------------------------------------------------
    def draws(self, entropy: int, n: int) -> np.ndarray:
        """The kernel's ``n`` Monte Carlo draws at ``entropy``.

        Reads the same deterministic :class:`~repro.core.mcengine.ColumnStore`
        columns the engines read and applies the recorded operations, so
        the result is bitwise identical to a :class:`VectorEngine` run of
        the original method at equal ``(entropy, n)``.  A predicated
        kernel raises :class:`KernelDeferred` instead where it could not
        be (see the module docstring).  Nothing is cached here:
        :meth:`predict` keeps the results derived from the draws.
        """
        if self.tier != "kernel":
            raise UntraceableBody(
                f"tier {self.tier!r} entry has no kernel draws")
        if self.predicated and n < 2:
            raise KernelDeferred(
                f"n_samples={n}: the batched engine pass answers a single "
                f"sample with numpy semantics")
        store = ColumnStore(entropy, n)
        columns = [store.column(leaf.qualified, leaf.occurrence, leaf.ecv)
                   for leaf in self.leaves]
        if self.predicated:
            value = _run_predicated(self.kernel, columns)
        else:
            value = self.kernel(*columns)
        array = np.asarray(value, dtype=float)
        if array.ndim == 0:
            array = np.full(int(n), float(array))
        return array

    def answers(self, entropy: int, n: int) -> tuple[Energy, Any]:
        """The ``expected`` and ``distribution`` answers of this entry.

        Analytic entries answer exactly (``Energy(mean)`` and the
        analytic distribution); kernel entries answer from one run of
        their bitwise draws (``Energy(mean of draws)`` and
        ``Empirical(draws)``, exactly the shapes
        :meth:`EvalSession._monte_carlo` produces).  The pair is cached
        per ``(entropy, n)`` (analytic: once), except for a predicated
        kernel: recomputing its draws costs about a millisecond, and the
        sorted copy of ``n`` draws each cached key would hold costs more
        memory than that time is worth.
        """
        if self.tier == "analytic":
            key: tuple = ()
        elif self.tier == "kernel":
            key = (int(entropy), int(n))
        else:
            raise UntraceableBody(
                f"tier {self.tier!r} entry cannot answer predictions "
                f"({self.reason})")
        cached = self._results.get(key)
        if cached is not None:
            self._results.move_to_end(key)
            return cached
        if self.tier == "analytic":
            pair = (Energy(self.dist.mean()), self.dist)
        else:
            draws = self.draws(entropy, n)
            pair = (Energy(float(np.mean(draws))), Empirical(draws))
            if self.predicated:
                return pair
        self._results[key] = pair
        if len(self._results) > _MAX_RESULTS:
            self._results.popitem(last=False)
        return pair

    def predict(self, mode: str, entropy: int, n: int) -> Any:
        """Answer an ``expected`` or ``distribution`` query (see
        :meth:`answers`)."""
        expected, distribution = self.answers(entropy, n)
        return expected if mode == "expected" else distribution

    # -- introspection -----------------------------------------------------
    def proven_interval(self) -> Interval | None:
        """Sound bounds on the output from the lint layer's domains.

        Each traced path's expression is bounded by
        :func:`~repro.analysis.intervals.bound_expr` (affine-exact where
        possible) over the leaves' proven value boxes; the result is the
        hull across paths.  Analytic means and quantiles must land in
        this interval — the containment the S5 checks assert.
        """
        if self.program is None:
            return None
        lows: list[float] = []
        highs: list[float] = []
        for path in self.program.paths:
            if path.guard is not None:
                continue
            if path.expr is None:
                lows.append(path.value)
                highs.append(path.value)
                continue
            box = {}
            for name, leaf in path.leaves.items():
                interval = leaf_interval(leaf.ecv)
                if interval is not None:
                    box[name] = interval
            bounds = bound_expr(path.expr, box)
            lows.append(bounds.lo)
            highs.append(bounds.hi)
        if not lows:
            return None
        return Interval(min(lows), max(highs))


def _path_analytic(path: Any) -> EnergyDistribution | None:
    """The exact output law of one traced path, or ``None``."""
    if path.expr is None:
        return PointMass(path.value)
    form = linearize(path.expr)
    if form is None:
        return None
    terms: list[tuple[float, ECVLeaf, EnergyDistribution]] = []
    for name, coef in form.coeffs.items():
        leaf = path.leaves.get(name)
        if leaf is None:
            return None
        marginal = leaf_distribution(leaf.ecv)
        if marginal is None:
            return None
        terms.append((coef, leaf, marginal))
    if not terms:
        return PointMass(form.const)
    return AnalyticDistribution(form.const, terms)


def _combine_analytic(components: list[EnergyDistribution],
                      weights: list[float]) -> EnergyDistribution:
    """Combine per-path laws exactly as the interpreter combines traces."""
    if all(isinstance(c, PointMass) for c in components):
        return Discrete([c.mean() for c in components], weights)
    return Mixture.collapse(components, weights)


def _sampled(call: EnergyCall, reason: str,
             declared_print: tuple = ()) -> CompiledCall:
    return CompiledCall(call=call, tier="sampled", reason=reason,
                        declared_print=declared_print)


def compile_call(call: EnergyCall, env: ECVEnvironment, *,
                 p_quantum: float = DEFAULT_P_QUANTUM,
                 max_traces: int | None = None) -> CompiledCall:
    """Partially evaluate and classify one energy query.

    Never raises on compilation failure: untraceable or unsupported
    bodies come back as a ``sampled``-tier entry whose ``reason`` says
    why, so callers can report and fall back uniformly.  Genuine
    evaluation errors (unknown ECVs, abstract energies) do propagate —
    they would equally fail at prediction time.
    """
    declared = _declaration_print(call.interface, p_quantum)
    try:
        program = trace_call(call, env, max_traces)
    except UntraceableBody as exc:
        return _sampled(call, str(exc), declared)
    leaves = list(program.leaves.values())
    leaf_prints = {leaf.name: _leaf_print(leaf.ecv, p_quantum)
                   for leaf in leaves}
    # Tier 1: exact analytic law over all paths (the weight of a path
    # behind a continuous predicate is unknown, so never for those).
    if not program.predicated:
        components: list[EnergyDistribution] = []
        weights: list[float] = []
        for path in program.paths:
            component = _path_analytic(path)
            if component is None:
                break
            components.append(component)
            weights.append(path.probability)
        else:
            if math.isclose(sum(weights), 1.0, rel_tol=1e-6):
                dist = _combine_analytic(components, weights)
                return CompiledCall(call=call, tier="analytic", dist=dist,
                                    leaves=leaves, leaf_prints=leaf_prints,
                                    declared_print=declared,
                                    program=program)
    # Tier 2: numpy kernel — straight-line (bitwise equal to VectorEngine)
    # or predicated (bitwise equal to the per-sample loop, or deferring).
    if program.predicated or (program.straight_line
                              and program.paths[0].expr is not None):
        try:
            source = _kernel_source(program, leaves)
        except _KernelUnsupported as exc:
            return _sampled(call, str(exc), declared)
        return CompiledCall(call=call, tier="kernel",
                            kernel=_build_kernel(source),
                            kernel_source=source, leaves=leaves,
                            leaf_prints=leaf_prints,
                            declared_print=declared, program=program,
                            predicated=program.predicated)
    if not program.straight_line:
        return _sampled(
            call, "enumerated paths are not all affine-analytic; "
            "per-path kernels would not be branch-free", declared)
    return _sampled(call, "straight-line path has no symbolic expression "
                    "and no analytic form", declared)


class CompileCache:
    """Memoized compiled entries with MemoHook-shaped keys.

    The key is ``(interface name, method, args, kwargs, environment
    fingerprint)`` — the same identity :class:`~repro.core.session.MemoHook`
    keys evaluations by, minus the mode (one compiled entry serves every
    mode; per-mode results are cached on the entry itself).  Entries are
    revalidated on every hit (see :meth:`CompiledCall.revalidate`), so an
    environment rebinding or declared-ECV mutation triggers recompilation
    rather than a stale answer.  Unhashable queries compile nothing and
    fall back to sampling.
    """

    def __init__(self, maxsize: int = 256,
                 p_quantum: float = DEFAULT_P_QUANTUM) -> None:
        self.maxsize = int(maxsize)
        self.p_quantum = float(p_quantum)
        self._entries: "OrderedDict[tuple, CompiledCall]" = OrderedDict()
        self._epochs: dict[str, tuple] = {}
        self.stats = {"hits": 0, "misses": 0, "invalidations": 0,
                      "uncacheable": 0}

    def _key(self, call: EnergyCall, env: ECVEnvironment) -> tuple | None:
        interface_name = getattr(call.interface, "name",
                                 type(call.interface).__name__)
        try:
            key = (interface_name, call.method_name, call.args, call.kwargs,
                   env_fingerprint(env, self.p_quantum))
            hash(key)
        except TypeError:
            return None
        return key

    def get(self, call: EnergyCall, env: ECVEnvironment,
            max_traces: int | None = None) -> CompiledCall:
        """The compiled entry for a query, compiling on miss."""
        key = self._key(call, env)
        if key is None:
            self.stats["uncacheable"] += 1
            return _sampled(call, "query key is not hashable; compiled "
                            "entries cannot be cached")
        entry = self._entries.get(key)
        if entry is not None:
            if entry.revalidate(env, self.p_quantum):
                self._entries.move_to_end(key)
                self.stats["hits"] += 1
                return entry
            del self._entries[key]
            self.stats["invalidations"] += 1
        self.stats["misses"] += 1
        entry = compile_call(call, env, p_quantum=self.p_quantum,
                             max_traces=max_traces)
        self._entries[key] = entry
        if len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
        return entry

    def bind_epoch(self, interface_name: str, fingerprint: tuple) -> int:
        """Pin an interface's entries to a calibration fingerprint.

        The calibration seam: compiled kernels bake unit energies into
        their constants, so when the bound
        :class:`~repro.calibration.CalibrationEpoch`'s quantised
        fingerprint changes, every entry for that interface is dropped
        eagerly (a sub-quantum recalibration binds the same fingerprint
        and is a no-op).  Returns the number of entries invalidated.
        """
        previous = self._epochs.get(interface_name)
        self._epochs[interface_name] = fingerprint
        if previous is None or previous == fingerprint:
            return 0
        stale = [key for key in self._entries if key[0] == interface_name]
        for key in stale:
            del self._entries[key]
        self.stats["invalidations"] += len(stale)
        return len(stale)

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)


class CompiledInterface:
    """All compiled queries of one interface under one environment.

    The user-facing artefact of :mod:`repro.compile`: wraps an interface
    plus bound ECV distributions and compiles each queried method on
    first use (through a shared :class:`CompileCache`).  ``report()``
    summarises which queries landed in which tier — the payload of the
    ``repro-energy compile`` subcommand.
    """

    def __init__(self, interface: Any,
                 env: ECVEnvironment | Mapping[str, Any] | None = None,
                 cache: CompileCache | None = None,
                 p_quantum: float = DEFAULT_P_QUANTUM) -> None:
        from repro.core.interface import _coerce_env
        self.interface = interface
        self.env = _coerce_env(env)
        self.cache = cache if cache is not None else CompileCache(
            p_quantum=p_quantum)
        self._queried: "OrderedDict[tuple, CompiledCall]" = OrderedDict()

    @property
    def name(self) -> str:
        return getattr(self.interface, "name",
                       type(self.interface).__name__)

    def compiled(self, method: str, *args: Any, **kwargs: Any) -> CompiledCall:
        """Compile (or fetch) the entry for ``method(*args, **kwargs)``."""
        call = self.interface(method, *args, **kwargs)
        entry = self.cache.get(call, self.env)
        try:
            key = (call.method_name, call.args, call.kwargs)
            hash(key)
        except TypeError:
            key = (call.method_name, repr(call.args), repr(call.kwargs))
        self._queried[key] = entry
        return entry

    def predict(self, method: str, *args: Any, mode: str = "distribution",
                entropy: int = 0xEC5, n_samples: int = 4000,
                **kwargs: Any) -> Any:
        """Convenience: compile and predict in one step (no fallback)."""
        return self.compiled(method, *args, **kwargs).predict(
            mode, entropy, n_samples)

    def report(self) -> list[dict]:
        """Per-query tier summary for everything compiled so far."""
        rows = []
        for (method, args, _kwargs), entry in self._queried.items():
            row = {
                "interface": self.name,
                "method": method,
                "args": list(args) if isinstance(args, tuple) else args,
                "tier": entry.tier,
            }
            if entry.tier == "sampled":
                row["reason"] = entry.reason
            else:
                interval = entry.proven_interval()
                if interval is not None and interval.bounded:
                    row["proven_lo_j"] = interval.lo
                    row["proven_hi_j"] = interval.hi
                if entry.tier == "analytic":
                    row["mean_j"] = float(entry.dist.mean())
                if entry.kernel_source is not None:
                    row["kernel"] = entry.kernel_source
            rows.append(row)
        return rows
