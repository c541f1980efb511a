"""Wall-clock benchmark of ``repro``: one workload, one seed, one run.

Run from the repository root::

    python3 perfbench/run.py --workload serve --seed 1 --seconds 8 --trace 0

``--trace 0`` measures the end-to-end metrics with the program
unmodified: ``setup_s`` (median over seven fresh processes of process
start to ready-to-run), ``ops_per_s``, ``op_p50_ms``/``op_p99_ms`` and
``peak_rss_mb``.  A run replays a fixed number of units of identical
seeded work (see ``perfbench/workloads.py``), about ``--seconds`` of it
on the machine the benchmark was written on; a faster program does the
same replays, not more.  ``ops_per_s`` is a unit's ops over the fastest
unit's wall time; on ``calibrate``, over the sum of each of its segments'
fastest times.  On ``predict`` each query keeps its fastest time over
the replays and the percentiles are theirs; the other workloads time no
single op, so both percentiles are that unit time per op.
``--trace 1`` instead runs a fixed amount of work twice, untraced and then
with timing wrappers on every layer's public calls, and reports the
per-layer metrics plus ``trace.overhead_ratio`` (traced over untraced
ops/s).  Every unit's outputs are checked; ``error_rate`` is failed over
attempted ops, and the exit code is 1 when any check failed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full result,
with provenance (git SHA, source digest, Python and numpy versions,
``nproc``, seed, output digest) and, for traced runs, every span, is
written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
#: Fresh processes timed for ``setup_s``; with three, the median still
#: moved by up to a third between runs a minute apart.
SETUP_PROCESSES = 7
#: A run stops starting new units after this much wall time, so even a
#: program several times slower ends well inside three minutes.
WALL_CAP_S = 120.0


def measure(workload, units: int, keep: bool = False) -> dict:
    """Run ``units`` units of ``workload`` and time each.

    A unit that raises counts all its ops as failed; one that fails its
    check counts the ops the workload says failed.  Garbage is collected
    before each unit, outside the timed region, so every unit starts
    from a comparable heap.  Units take turns on the CPUs the process
    may use, so a neighbour on a shared host that slows one CPU rarely
    slows every unit.
    """
    cpus = sorted(os.sched_getaffinity(0))
    unit_s = []
    #: Per piece of a unit, its fastest seconds over the units.
    best = None
    attempted = failed = ops = 0
    kept = []
    started = time.perf_counter()
    for count in range(units):
        if time.perf_counter() - started > WALL_CAP_S:
            break
        os.sched_setaffinity(0, {cpus[count % len(cpus)]})
        ctx = workload.prepare()
        gc.collect()
        t0 = time.perf_counter()
        try:
            out = workload.run(ctx)
            elapsed = time.perf_counter() - t0
            n = workload.ops(ctx, out)
            problems = workload.check(ctx, out)
        except Exception:  # noqa: BLE001 - a raising op is a failed op
            n = workload.nominal_ops(ctx)
            attempted += n
            failed += n
            traceback.print_exc(file=sys.stderr)
            continue
        attempted += n
        failed += workload.failed_ops(problems, n)
        for problem in problems:
            print(f"perfbench {workload.name}: check failed: {problem}",
                  file=sys.stderr)
        unit_s.append(elapsed)
        ops = n
        if workload.pieces:
            latencies = np.asarray(workload.latencies(ctx, out), dtype=float)
            best = latencies if best is None else np.minimum(best, latencies)
        if keep:
            kept.append((ctx, out))
    os.sched_setaffinity(0, cpus)
    return {"unit_s": unit_s, "ops": ops, "best": best,
            "attempted": attempted, "failed": failed, "kept": kept}


def time_setup(args) -> list[float]:
    """Seconds from process start to ready, for fresh set-up processes."""
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", args.workload, "--seed", str(args.seed),
               "--setup-only"]
    samples = []
    for _ in range(SETUP_PROCESSES):
        t0 = time.perf_counter()
        with subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True) as child:
            line = child.stdout.readline()
            ready = time.perf_counter()
            child.communicate(timeout=120)
        if line.strip() != "ready" or child.returncode != 0:
            raise RuntimeError(f"set-up process exited {child.returncode} "
                               f"without becoming ready")
        samples.append(ready - t0)
    return samples


def git_sha() -> str | None:
    """HEAD's commit from ``.git`` at the root, when there is one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def source_digest() -> str:
    """sha256 over every ``src/repro`` Python file, path and content."""
    sha = hashlib.sha256()
    base = ROOT / "src"
    for path in sorted(base.rglob("*.py")):
        sha.update(path.relative_to(base).as_posix().encode("utf-8"))
        sha.update(path.read_bytes())
    return sha.hexdigest()


def provenance(args, workload) -> dict:
    return {
        "git_sha": git_sha(),
        "source_digest": source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "output_digest": workload.output_digest(),
    }


def end_to_end(args, workload) -> tuple[dict, dict]:
    """Measure the end-to-end metrics; returns (metrics, run summary)."""
    setup = time_setup(args)
    run = measure(workload, workload.units_for(args.seconds))
    if not run["unit_s"]:
        return None, {"run": run}
    # Every unit replays identical input, so the units do the same work;
    # the fastest is the one neighbours on a shared host slowed least.
    # A calibration is too long for one of two units to dodge a slow
    # stretch, so it is timed a segment at a time instead.
    units, ops = len(run["unit_s"]), run["ops"]
    if workload.pieces == "segments":
        unit = float(run["best"].sum())
        per_unit = (f"{len(run['best'])} segments of a unit, each its "
                    f"fastest of {units} units, summed")
    else:
        unit = min(run["unit_s"])
        per_unit = f"fastest of {units} units"
    if workload.pieces == "ops":
        p50, p99 = np.percentile(run["best"], [50, 99]) * 1e3
        timing = f"{ops} ops, each its fastest of {units} units"
    else:
        p50 = p99 = unit / ops * 1e3
        timing = f"no per-op times: {per_unit}, / {ops} op(s)"
    metrics = {
        "setup_s": statistics.median(setup),
        "ops_per_s": ops / unit,
        "op_p50_ms": float(p50),
        "op_p99_ms": float(p99),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "setup_s": f"median of {len(setup)} fresh processes",
        "ops_per_s": f"{ops} ops / {per_unit}",
        "op_p50_ms": timing,
        "op_p99_ms": timing,
        "peak_rss_mb": "whole process",
    }
    return metrics, {"run": run, "notes": notes}


def per_layer(args, workload, out_dir: Path) -> tuple[dict, dict]:
    """Run the fixed traced work; returns (metrics, run summary)."""
    from perfbench.metrics import PER_LAYER
    from perfbench.spans import Tracer
    from perfbench.workloads import trace_targets

    plain = measure(workload, units=workload.trace_units)
    tracer = Tracer()
    with tracer.installed(trace_targets()):
        traced = measure(workload, units=workload.trace_units, keep=True)
    counters = workload.counters(traced["kept"])
    traced["kept"] = []
    tracer.write(out_dir / f"{args.workload}-seed{args.seed}-spans.json")

    derived = {
        "serving.gateway.self_s": tracer.self_s("serving.gateway"),
        "fleet.self_s": tracer.self_s("fleet"),
        "compile.cache.miss_busy_s": tracer.busy_s("compile.compile_call"),
        "trace.spans": len(tracer.spans),
        # Both passes do the same units, so the ratio of their ops/s is
        # the inverse ratio of their wall times.
        "trace.overhead_ratio": sum(plain["unit_s"]) / sum(traced["unit_s"]),
    }
    metrics = {}
    for name, *_ in PER_LAYER:
        if name in counters:
            metrics[name] = counters[name]
        elif name in derived:
            metrics[name] = derived[name]
        elif name.startswith("layer."):
            metrics[name] = tracer.layer_self_s(name.split(".")[1])
        else:
            call, field = name.rsplit(".", 1)
            metrics[name] = getattr(tracer, field)(call) \
                if field in ("calls", "busy_s", "self_s") else 0
    run = {key: plain[key] + traced[key] for key in ("attempted", "failed")}
    return metrics, {"run": run, "ranking": tracer.ranking()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print 'ready' and exit (setup_s)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}; run from "
              f"a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.metrics import END_TO_END, PER_LAYER
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r} (known: "
              f"{', '.join(WORKLOADS)})", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload](args.seed)
    if args.setup_only:
        print("ready", flush=True)
        return 0

    out_dir = ROOT / "perfbench" / "out"
    out_dir.mkdir(exist_ok=True)
    if args.trace:
        metrics, summary = per_layer(args, workload, out_dir)
        units = {name: unit for name, unit, *_ in PER_LAYER}
    else:
        metrics, summary = end_to_end(args, workload)
        units = {name: unit for name, unit, *_ in END_TO_END}
    run = summary["run"]
    attempted, failed = run["attempted"], run["failed"]
    if metrics is None:
        print(f"perfbench: every unit of {args.workload} failed "
              f"({failed} ops)", file=sys.stderr)
        return 1

    print(f"perfbench {args.workload}  seed {args.seed}  trace {args.trace}")
    notes = summary.get("notes", {})
    for name, value in metrics.items():
        print(f"  {name:52s} {value:>14.6g} {units[name]:6s} "
              f"{notes.get(name, '')}")
    print(f"  {'error_rate':52s} {failed / max(attempted, 1):>14.6g} "
          f"{'ratio':6s} {failed} failed of {attempted} attempted")
    if "ranking" in summary:
        print("  largest self time:")
        for name, seconds in summary["ranking"][:8]:
            print(f"    {name:50s} {seconds:>14.6g} s")
    record = provenance(args, workload)
    print("provenance " + json.dumps(record, sort_keys=True))
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(out_dir / f"{stem}.json", "w", encoding="utf-8") as handle:
        json.dump({"provenance": record, "result": result}, handle, indent=2)
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
