"""The benchmark's metric catalogue: names, units and what each should move.

``END_TO_END`` are the numbers a user of ``repro`` sees, measured with
tracing off.  ``PER_LAYER`` are read from the traced run; each entry also
records which end-to-end metric it should move, on which workload, and
where it should stay put — the prediction a change to that layer is
judged against.  ``BENCHMARK.json`` at the repository root lists the same
names (the self-tests keep the two in step).
"""

from __future__ import annotations

#: (name, unit, better, bound) — bound is the share of the parent's median
#: by which the metric may worsen before a change counts as a regression.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("op_p50_ms", "ms", "lower", 0.25),
    ("op_p99_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.1),
)

#: The ``repro`` layers whose self time the traced run reports.  ``sim``
#: and ``workloads`` are not wrapped: their time is folded into the self
#: time of the layer that calls them.
LAYERS = ("hardware", "measurement", "calibration", "core", "compile",
          "serving", "fleet")

_ALL = ("serve", "fleet", "predict", "calibrate")


def _calls(name, moves, on, not_on):
    return [(f"{name}.calls", "count", "lower", moves, on, not_on),
            (f"{name}.busy_s", "s", "lower", moves, on, not_on)]


def _others(*on):
    return tuple(w for w in _ALL if w not in on)


#: (name, unit, better, moves, on, not_on).
PER_LAYER = tuple(
    _calls("hardware.ledger.total_joules", ("ops_per_s",), ("serve",),
           ("fleet", "predict"))
    + [("hardware.ledger.total_joules.self_s", "s", "lower",
        ("ops_per_s",), ("serve",), ("fleet", "predict"))]
    + _calls("hardware.ledger.energy_between", ("ops_per_s", "op_p50_ms"),
             ("calibrate",), ("fleet", "predict"))
    + [("hardware.ledger.energy_between.self_s", "s", "lower",
        ("ops_per_s", "op_p50_ms"), ("calibrate",), ("fleet", "predict"))]
    + _calls("measurement.nvml.total_energy_consumption_at",
             ("ops_per_s", "op_p50_ms"), ("calibrate",), ("fleet", "predict"))
    + [("measurement.nvml.total_energy_consumption_at.self_s", "s", "lower",
        ("ops_per_s", "op_p50_ms"), ("calibrate",), ("fleet", "predict"))]
    + _calls("measurement.nvml.power_usage_at", ("ops_per_s", "op_p50_ms"),
             ("calibrate",), ("fleet", "predict"))
    + _calls("hardware.ledger.log", ("ops_per_s", "peak_rss_mb"),
             ("calibrate", "serve"), ("fleet", "predict"))
    + _calls("hardware.gpu.launch", ("ops_per_s", "peak_rss_mb"),
             ("calibrate",), ("fleet", "predict"))
    + [("hardware.gpu.launch.self_s", "s", "lower",
        ("ops_per_s", "peak_rss_mb"), ("calibrate",), ("fleet", "predict")),
       ("hardware.ledger.records", "count", "lower",
        ("ops_per_s", "peak_rss_mb"), ("calibrate", "serve"),
        ("fleet", "predict"))]
    + _calls("calibration.calibrate", ("op_p50_ms",), ("calibrate",),
             _others("calibrate"))
    + [("calibration.calibrate.self_s", "s", "lower", ("op_p50_ms",),
        ("calibrate",), _others("calibrate"))]
    + _calls("core.predict.mean", ("ops_per_s", "op_p50_ms"), ("predict",),
             ("fleet",))
    + _calls("core.predict.worst", ("ops_per_s", "op_p50_ms"), ("predict",),
             ("fleet",))
    + _calls("core.predict.quantile", ("ops_per_s", "op_p50_ms"),
             ("predict",), ("fleet",))
    + _calls("core.mcengine.draws", ("ops_per_s", "op_p50_ms"), ("predict",),
             ("fleet",))
    + [("core.memo.hit_ratio", "ratio", "higher", ("ops_per_s",),
        ("serve",), ()),
       ("compile.cache.hits", "count", "higher",
        ("op_p99_ms", "op_p50_ms"), ("predict",),
        ("serve", "fleet", "calibrate")),
       ("compile.cache.misses", "count", "lower",
        ("op_p99_ms", "op_p50_ms"), ("predict",),
        ("serve", "fleet", "calibrate")),
       ("compile.cache.hit_ratio", "ratio", "higher",
        ("op_p99_ms", "op_p50_ms"), ("predict",),
        ("serve", "fleet", "calibrate")),
       ("compile.cache.miss_busy_s", "s", "lower", ("op_p99_ms",),
        ("predict",), ("serve", "fleet", "calibrate")),
       ("compile.backend.sampled_fallbacks", "count", "lower",
        ("op_p99_ms",), ("predict",), ("serve", "fleet", "calibrate"))]
    + _calls("compile.cache.get", ("op_p50_ms",), ("predict",),
             ("serve", "fleet", "calibrate"))
    + _calls("serving.admission.decide", ("ops_per_s",), ("serve",),
             ("fleet", "predict"))
    + _calls("serving.adapter.execute", ("ops_per_s",), ("serve",),
             ("fleet", "predict"))
    + [("serving.adapter.execute.self_s", "s", "lower", ("ops_per_s",),
        ("serve",), ("fleet", "predict")),
       ("serving.gateway.self_s", "s", "lower", ("ops_per_s",), ("serve",),
        ("fleet", "predict")),
       ("serving.requests.admitted", "count", "higher", ("ops_per_s",),
        ("serve",), ("fleet", "predict")),
       ("serving.requests.rejected", "count", "lower", ("ops_per_s",),
        ("serve",), ("fleet", "predict")),
       ("serving.requests.shed", "count", "lower", ("ops_per_s",),
        ("serve",), ("fleet", "predict"))]
    + _calls("fleet.balancer.prefer", ("ops_per_s",), ("fleet",),
             _others("fleet"))
    + _calls("fleet.costmodel.predict", ("ops_per_s",), ("fleet",),
             _others("fleet"))
    + _calls("fleet.costmodel.measure", ("ops_per_s",), ("fleet",),
             _others("fleet"))
    + _calls("fleet.shards.ensure_lease", ("ops_per_s",), ("fleet",),
             _others("fleet"))
    + _calls("fleet.shards.can_admit", ("ops_per_s",), ("fleet",),
             _others("fleet"))
    + _calls("fleet.shards.draw", ("ops_per_s",), ("fleet",),
             _others("fleet"))
    + _calls("fleet.replica.try_enqueue", ("ops_per_s",), ("fleet",),
             _others("fleet"))
    + [("fleet.self_s", "s", "lower", ("ops_per_s",), ("fleet",),
        _others("fleet")),
       ("fleet.backpressure_waits", "count", "lower", ("ops_per_s",),
        ("fleet",), _others("fleet")),
       ("fleet.lease_grants", "count", "lower", ("ops_per_s",), ("fleet",),
        _others("fleet")),
       ("fleet.lease_denials", "count", "lower", ("ops_per_s",), ("fleet",),
        _others("fleet"))]
    + [(f"layer.{layer}.self_s", "s", "lower", ("ops_per_s",), _ALL, ())
       for layer in LAYERS]
    + [("trace.spans", "count", "lower", (), _ALL, ()),
       ("trace.overhead_ratio", "ratio", "higher", (), _ALL, ())]
)


def benchmark_json(workloads) -> dict:
    """The ``BENCHMARK.json`` document for ``workloads`` (name, why)."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": 8,
        "workloads": [{"name": name, "why": why} for name, why in workloads],
        "end_to_end": [{"name": name, "unit": unit, "better": better,
                        "bound": bound}
                       for name, unit, better, bound in END_TO_END],
        "per_layer": [{"name": name, "unit": unit, "better": better}
                      for name, unit, better, *_ in PER_LAYER],
    }
