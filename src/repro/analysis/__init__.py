"""The implementation→interface toolchain: symbolic execution, extraction,
side-effect analysis and energy-bug detection (§4.2) — dynamic
(divergence testing), static (the ``repro-energy lint`` rule engine
over interval, taint and side-effect analyses), and differential (the
``repro-energy regress`` fingerprint baseline, diff rules EB201–EB206
and commit bisection)."""

import importlib

#: Where each exported name lives.  The submodules load on first use
#: (PEP 562), so importing one of them (the compiler needs only ``expr``
#: and ``intervals``) does not load the rest of the toolchain.
_EXPORTS = {
    "expr": ("BinOp", "Compare", "Const", "EnergyTerm", "Expr",
             "FreshSymbol", "UnaryOp", "Var", "as_expr", "evaluate_expr"),
    "extract": ("ExtractedInterface", "extract_interface"),
    "fingerprint": ("DEVICE_PROFILES", "FingerprintSet",
                    "InterfaceFingerprint", "PathFingerprint",
                    "fingerprint_function", "fingerprint_paths",
                    "load_fingerprints"),
    "intervals": ("AffineForm", "Interval", "bound_expr",
                  "condition_status", "linearize"),
    "lint": ("LINT_RULE_IDS", "REGRESS_RULE_IDS", "RULES", "Finding", "Rule",
             "lint_function", "lint_module", "lint_paths"),
    "regress": ("BisectResult", "BisectStep", "bisect_range",
                "diff_fingerprints", "fingerprint_at_commit"),
    "sideeffects": ("RADIO_MODEL", "DeviceStateModel", "ModuleAnalysis",
                    "analyze_module", "analyze_sequence"),
    "symbex": ("PathSummary", "ResourceModel", "symbolic_execute"),
    "taint": ("TaintedUse", "analyze_taint", "tainted_symbols"),
    "verify": ("DivergenceReport", "EnergyBug", "divergence_test"),
}
_HOME = {name: module for module, names in _EXPORTS.items()
         for name in names}

__all__ = list(_HOME)


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is not None:
        value = getattr(importlib.import_module(f"{__name__}.{module}"),
                        name)
    elif name in _EXPORTS:
        value = importlib.import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_HOME) | set(_EXPORTS))
