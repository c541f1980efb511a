"""Command-line front end: run the reproduction's experiments.

``repro-energy <command>`` (installed by the package) or
``python -m repro.cli <command>``:

* ``table1``      — the §5 experiment (GPT-2 prediction error, Table 1);
* ``mlservice``   — Fig. 1's web service, prediction vs measurement;
* ``schedulers``  — the §1 EAS comparison on bimodal transcoding;
* ``fuzzing``     — the §1 ClusterFuzz capacity-planning questions;
* ``consensus``   — the §1 Ethereum PoW/PoS comparison;
* ``calibrate``   — show a GPU profile's calibrated hardware interface;
* ``serve``       — the energy-aware gateway: admission control against
  an energy budget (``--budget "3J+0.25W"``) on a Poisson stream;
* ``bench``       — time the Monte Carlo evaluation engines (serial and
  vectorized) on a composed stack and check that they produce
  bitwise-identical draws at a fixed seed;
* ``trace``       — evaluate Fig. 1's service through an
  :class:`~repro.core.session.EvalSession`, print the cross-layer span
  tree and write a Chrome-trace JSON (open in ``chrome://tracing``);
* ``lint``        — the static energy-bug checker: run rules
  EB101–EB106 over implementation functions carrying an
  :class:`~repro.core.contracts.EnergySpec`, with text/JSON/SARIF
  output and a baseline file for accepted findings;
* ``regress``     — the differential energy checker: fingerprint the
  same annotated implementations, diff against the committed
  ``.energy-fingerprints.json`` baseline under regression rules
  EB201–EB206, and (``--bisect GOOD..BAD``) binary-search git history
  for the first regressing commit;
* ``chaos``       — the fault-injection drill: serve a workload while a
  seeded :class:`~repro.faults.FaultPlan` breaks evaluations underneath
  the gateway, and check that graceful degradation keeps goodput above
  ``--min-goodput``;
* ``fleet``       — the multi-replica serving fleet: a trace-driven
  multi-tenant workload through N gateway replicas behind an
  energy-aware balancer, with per-tenant budgets enforced fleet-wide by
  sharded leases (optionally under replica-crash and lease faults);
* ``drift``       — the calibration-drift drill: calibrate a GPU, let
  its unit energies drift under a seeded plan, and compare a frozen
  calibration against online streaming recalibration.

Every command exits **2** on a usage or configuration error: ``main``
catches the typed :class:`~repro.core.errors.ReproError` a handler (or
the library under it) raises and prints one ``repro-energy <command>:
<message>`` line.  ``lint``, ``regress``, ``trace``, ``chaos``,
``fleet``, ``drift``, ``compile`` and ``bench`` also exit **1** on
findings (energy bugs or regressions, divergence beyond
``--max-error``, goodput below ``--min-goodput``, a fleet budget
violation, a stale calibration, a sampled fallback, or engines that
disagree) and **0** when clean.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro.core.errors import ReproError
from repro.core.report import format_table

__all__ = ["main"]


def _cmd_table1(args: argparse.Namespace) -> int:
    from repro.calibration import calibrate
    from repro.core.errors import MeasurementError
    from repro.hardware.profiles import SIM3070, SIM4090, \
        build_gpu_workstation
    from repro.llm.config import GPT2_SMALL
    from repro.llm.interface import GPT2EnergyInterface
    from repro.llm.runtime import GPT2Runtime
    from repro.measurement.nvml import NVMLSim

    if args.trials < 1:
        raise MeasurementError("--trials must be >= 1")
    rows = []
    for spec in (SIM4090, SIM3070):
        machine = build_gpu_workstation(spec)
        gpu = machine.component("gpu0")
        nvml = NVMLSim(gpu, seed=args.seed)
        model = calibrate(machine, source="gpu0", nvml=nvml,
                          seed=args.seed).model
        runtime = GPT2Runtime(gpu, GPT2_SMALL)
        interface = GPT2EnergyInterface(GPT2_SMALL, model, spec)
        rng = np.random.default_rng(3)
        errors = []
        for _ in range(args.trials):
            n_tokens = int(rng.integers(50, 201))
            prompt_len = int(rng.integers(8, 65))
            gpu.idle(0.05)
            stats = runtime.generate(prompt_len, n_tokens)
            measured = nvml.measure_interval(stats.t_start, stats.t_end)
            predicted = interface.E_generate(prompt_len,
                                             n_tokens).as_joules
            errors.append(abs(predicted - measured) / measured)
        rows.append([spec.name, f"{100 * np.mean(errors):.2f}%",
                     f"{100 * np.max(errors):.2f}%"])
    print(format_table(["GPU", "Average error", "Max error"], rows,
                       title="Table 1 (reproduced on simulated GPUs)"))
    print("paper: RTX4090 0.70% / 0.93%; RTX3070 6.06% / 8.11%")
    return 0


def _cmd_mlservice(args: argparse.Namespace) -> int:
    from repro.apps.mlservice import MLWebService, build_service_machine, \
        build_service_stack
    from repro.calibration import calibrate
    from repro.core.errors import EvaluationError
    from repro.core.interface import evaluate
    from repro.workloads.traces import image_request_trace

    if args.requests < 1:
        raise EvaluationError("--requests must be positive")
    machine = build_service_machine()
    service = MLWebService(machine)
    model = calibrate(machine, source="gpu0", seed=args.seed).model
    rng = np.random.default_rng(11)
    for request in image_request_trace(500, rng):
        service.handle(request)
    stack = build_service_stack(service, model)
    interface = stack.exported_interface("runtime/ml_webservice")
    trace = image_request_trace(args.requests, rng)
    t_start = machine.now
    for request in trace:
        service.handle(request)
    measured = machine.ledger.energy_between(t_start, machine.now)
    predicted = sum(
        evaluate(interface("E_handle", r.image_pixels,
                           r.zero_pixels)).as_joules for r in trace)
    error = abs(predicted - measured) / measured
    print(f"{args.requests} requests: predicted {predicted:.2f} J, "
          f"measured {measured:.2f} J, error {100 * error:.1f}%")
    return 0


def _cmd_schedulers(args: argparse.Namespace) -> int:
    from repro.apps.transcode import bimodal_transcoder, steady_task
    from repro.hardware.profiles import build_big_little
    from repro.managers.base import SchedulerSim
    from repro.managers.eas import EASScheduler, PeakEASScheduler
    from repro.managers.interface_scheduler import (
        InterfaceScheduler,
        OracleScheduler,
    )

    core_names = ("little0", "little1", "little2", "little3",
                  "big0", "big1", "big2", "big3")
    tasks = ([bimodal_transcoder(f"tc{i}", burst_util=780, trough_util=40,
                                 burst_quanta=1, trough_quanta=5,
                                 phase_offset=i) for i in range(4)]
             + [steady_task("bg", 100)])
    rows = []
    for scheduler in (EASScheduler(), PeakEASScheduler(),
                      InterfaceScheduler(), OracleScheduler()):
        machine = build_big_little()
        cores = [machine.component(name) for name in core_names]
        sim = SchedulerSim(machine, cores, quantum_seconds=0.05)
        result = sim.run(scheduler, tasks, args.quanta)
        rows.append([scheduler.name, f"{result.energy_joules:.2f} J",
                     f"{result.miss_ratio:.1%}"])
    print(format_table(["scheduler", "energy", "late work"], rows,
                       title="bimodal transcoding on big.LITTLE"))
    return 0


def _cmd_fuzzing(args: argparse.Namespace) -> int:
    from repro.apps.fuzzing import (
        CapacityPlanner,
        FuzzingCampaignModel,
        FuzzingEnergyInterface,
    )
    from repro.core.errors import WorkloadError

    if not 0.0 < args.coverage <= 1.0:
        raise WorkloadError(
            f"--coverage must be in (0, 1], got {args.coverage}")
    interface = FuzzingEnergyInterface(FuzzingCampaignModel())
    planner = CapacityPlanner(interface, max_machines=150,
                              deadline_seconds=args.deadline_days * 86400)
    answer = planner.optimal_fleet(args.coverage)
    print(f"optimal fleet for {args.coverage:.0%} coverage: "
          f"{answer.optimal_machines} machines "
          f"({answer.energy}, {answer.campaign_seconds / 86400:.2f} days)")
    coverage_from = max(0.0, args.coverage - 0.05)
    marginal = planner.marginal_coverage_energy(
        coverage_from, args.coverage, answer.optimal_machines)
    print(f"marginal energy {coverage_from:.0%} -> "
          f"{args.coverage:.0%}: {marginal}")
    return 0


def _cmd_consensus(args: argparse.Namespace) -> int:
    from repro.apps.consensus import (
        PoSEnergyInterface,
        PoSNetworkSpec,
        PoWEnergyInterface,
        PoWNetworkSpec,
        merge_savings,
    )

    pow_iface = PoWEnergyInterface(PoWNetworkSpec())
    pos_iface = PoSEnergyInterface(PoSNetworkSpec())
    print(f"PoW: {pow_iface.E_secure_day()} per day")
    print(f"PoS: {pos_iface.E_secure_day()} per day")
    print(f"reduction: {merge_savings():.4%} (paper: 99.95%)")
    return 0


def _cmd_calibrate(args: argparse.Namespace) -> int:
    from repro.calibration import calibrate
    from repro.hardware.profiles import SIM3070, SIM4090, \
        build_gpu_workstation

    spec = {"sim4090": SIM4090, "sim3070": SIM3070}[args.gpu]
    machine = build_gpu_workstation(spec)
    epoch = calibrate(machine, source="gpu0", seed=args.seed)
    print(epoch.model.describe())
    return 0


def _serving_setup(args: argparse.Namespace) -> tuple:
    """The adapter, node budget and request trace ``serve`` and ``chaos`` share.

    Returns ``(adapter, budget, arrivals, rng_factory)``: a Poisson
    stream of the app's requests at ``--rate`` over ``--horizon``
    simulated seconds, against a node budget parsed from ``--budget``.
    """
    from repro.core.errors import ServingError
    from repro.serving import (
        EnergyBudget,
        build_adapter,
        parse_budget_spec,
        zip_arrivals,
    )
    from repro.sim.rng import RngFactory
    from repro.workloads import (
        generation_trace,
        kv_request_trace,
        poisson_arrivals,
        repeated_image_trace,
    )

    if args.rate <= 0:
        raise ServingError("--rate must be positive")
    if args.horizon <= 0:
        raise ServingError("--horizon must be positive")
    spec = parse_budget_spec(args.budget)
    adapter = build_adapter(args.app, seed=args.seed)
    budget = EnergyBudget("node", capacity_joules=spec.capacity_joules,
                          refill_watts=spec.refill_watts)
    rng_factory = RngFactory(args.seed)
    times = poisson_arrivals(args.rate, args.horizon, rng_factory)
    trace_rng = rng_factory.stream("trace")
    if args.app == "mlservice":
        requests = repeated_image_trace(len(times), trace_rng)
    elif args.app == "kvstore":
        requests = kv_request_trace(len(times), trace_rng, put_fraction=0.7)
    else:
        requests = generation_trace(len(times), trace_rng)
    return adapter, budget, zip_arrivals(times, requests), rng_factory


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.core.errors import ServingError
    from repro.core.policy import Policy
    from repro.serving import (
        EnergyAwareGateway,
        GatewayConfig,
        HardBudgetPolicy,
        ProbabilisticPolicy,
        QuantileBudgetPolicy,
        SLOAwarePolicy,
        attribution_report,
        format_report,
    )

    if args.slo is not None and args.slo <= 0:
        raise ServingError("--slo must be positive")
    quantile = args.quantile if args.policy == "quantile" else None
    config = GatewayConfig(max_queue=args.queue,
                           policy=Policy(mc_engine=args.engine,
                                         admission_quantile=quantile))
    adapter, budget, arrivals, rng_factory = _serving_setup(args)
    if args.policy == "hard":
        policy = HardBudgetPolicy()
    elif args.policy == "prob":
        policy = ProbabilisticPolicy(rng_factory.stream("admission"))
    elif args.policy == "quantile":
        policy = QuantileBudgetPolicy()
    else:
        policy = SLOAwarePolicy(args.slo if args.slo is not None else 0.5)

    gateway = EnergyAwareGateway(adapter, budget, policy, config=config)
    report = gateway.serve(arrivals, horizon=args.horizon)
    print(format_report(report, title=f"serving report ({args.app}, "
                                      f"{policy.name})"))
    if args.attribution:
        print()
        print(attribution_report(adapter.machine.ledger, gateway.metrics))
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.core.errors import ServingError
    from repro.core.policy import (
        DeadlinePolicy,
        DegradePolicy,
        Policy,
        RetryPolicy,
    )
    from repro.faults import FaultPlan
    from repro.serving import (
        EnergyAwareGateway,
        GatewayConfig,
        QuantileBudgetPolicy,
        format_report,
    )

    if not 0.0 <= args.fault_rate < 1.0:
        raise ServingError("--fault-rate must be in [0, 1)")
    if not 0.0 <= args.min_goodput <= 1.0:
        raise ServingError("--min-goodput must be in [0, 1]")
    policy = Policy(
        mc_engine=args.engine,
        retry=RetryPolicy(max_attempts=args.retries),
        deadline=DeadlinePolicy(timeout_s=args.deadline),
        degrade=DegradePolicy(),
    )
    config = GatewayConfig(max_queue=args.queue, policy=policy)
    adapter, budget, arrivals, _ = _serving_setup(args)
    gateway = EnergyAwareGateway(adapter, budget, QuantileBudgetPolicy(),
                                 config=config)
    gateway.inject_faults(FaultPlan.uniform(args.fault_rate,
                                            entropy=args.seed))

    report = gateway.serve(arrivals, horizon=args.horizon)
    print(format_report(
        report, title=f"chaos report ({args.app}, "
                      f"{100 * args.fault_rate:.0f}% fault plan, "
                      f"seed {args.seed})"))
    if report.goodput < args.min_goodput:
        print(f"repro-energy chaos: goodput {report.goodput:.1%} below "
              f"--min-goodput {args.min_goodput:.1%} — degradation did "
              f"not hold the line", file=sys.stderr)
        return 1
    return 0


def _cmd_fleet(args: argparse.Namespace) -> int:
    import json

    from repro.core.errors import ServingError
    from repro.core.policy import Policy
    from repro.faults import FaultPlan, FaultSpec
    from repro.fleet import EnergyGatewayFleet, format_fleet_report
    from repro.serving import parse_budget_spec
    from repro.sim.rng import RngFactory
    from repro.workloads import (
        diurnal_arrivals,
        flash_crowd_arrivals,
        fleet_request_trace,
        poisson_arrivals,
        zipf_tenant_trace,
    )

    if args.replicas < 1:
        raise ServingError("--replicas must be >= 1")
    if args.tenants < 1:
        raise ServingError("--tenants must be >= 1")
    if args.rate <= 0 or args.horizon <= 0:
        raise ServingError("--rate and --horizon must be positive")
    if not 0.0 <= args.fault_rate < 1.0:
        raise ServingError("--fault-rate must be in [0, 1)")
    if not 0.0 <= args.min_goodput <= 1.0:
        raise ServingError("--min-goodput must be in [0, 1]")

    budgets = {f"tenant{i}": parse_budget_spec(args.budget)
               for i in range(args.tenants)}
    policy = Policy(replicas=args.replicas, balancer=args.balancer,
                    lease_ttl_s=args.lease_ttl)

    rng = RngFactory(args.seed)
    if args.workload == "poisson":
        times = poisson_arrivals(args.rate, args.horizon,
                                 rng.stream("arrivals"))
    elif args.workload == "flash":
        crowd = (0.4 * args.horizon, 0.2 * args.horizon)
        times = flash_crowd_arrivals(args.rate, 4.0 * args.rate, [crowd],
                                     args.horizon, rng.stream("arrivals"))
    else:
        times = diurnal_arrivals(args.rate, args.horizon,
                                 rng.stream("arrivals"),
                                 period_seconds=args.horizon)
    tenants = zipf_tenant_trace(len(times), args.tenants, rng)
    requests = fleet_request_trace(times, tenants, rng)

    fleet = EnergyGatewayFleet(budgets, policy=policy, entropy=args.seed)
    if args.fault_rate > 0:
        fleet.inject_faults(FaultPlan(
            (FaultSpec("fleet.replica", args.fault_rate),
             FaultSpec("fleet.lease", args.fault_rate)),
            entropy=args.seed))

    report = fleet.serve(requests, horizon_s=args.horizon)
    print(format_fleet_report(
        report, title=f"fleet report ({args.workload} workload, "
                      f"{args.tenants} tenants, seed {args.seed})"))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(report.to_json(indent=2) + "\n")
        print(f"fleet report JSON written to {args.json}")
    failed = False
    if report.violations:
        print(f"repro-energy fleet: {len(report.violations)} tenant(s) "
              f"overdrew their fleet-wide allowance — the budget "
              f"invariant broke", file=sys.stderr)
        failed = True
    if report.goodput < args.min_goodput:
        print(f"repro-energy fleet: goodput {report.goodput:.1%} below "
              f"--min-goodput {args.min_goodput:.1%}", file=sys.stderr)
        failed = True
    return 1 if failed else 0


def _cmd_drift(args: argparse.Namespace) -> int:
    from repro.calibration import format_drift_report, run_drift_scenario
    from repro.core.errors import MeasurementError
    from repro.hardware.profiles import SIM3070, SIM4090

    if args.windows < 1:
        raise MeasurementError("--windows must be >= 1")
    if args.tolerance <= 0:
        raise MeasurementError("--tolerance must be positive")

    spec = {"sim4090": SIM4090, "sim3070": SIM3070}[args.gpu]
    report = run_drift_scenario(
        spec, windows=args.windows, preset=args.preset,
        seed=args.seed, tolerance=args.tolerance,
        recalibrate=not args.freeze)
    print(format_drift_report(report))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(report.to_json() + "\n")
        print(f"drift report JSON written to {args.json}")
    # The serving leg is the recalibrated one by default; --freeze turns
    # recalibration off, so staleness there means the batch calibration
    # did not survive the drift.
    if report.recal_stale:
        leg = "frozen" if args.freeze else "recalibrated"
        print(f"repro-energy drift: the {leg} calibration went stale "
              f"(residual {report.recal_residual:.3f} > tolerance "
              f"{report.tolerance:.3f})", file=sys.stderr)
        return 1
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.core.errors import EvaluationError
    from repro.workloads.mcbench import run_engine_bench

    if args.samples <= 0:
        raise EvaluationError("--samples must be positive")

    engines = ([args.engine] if args.engine != "all"
               else ["serial", "vector"])
    results = [run_engine_bench(name, n_samples=args.samples,
                                seed=args.seed) for name in engines]

    rows = []
    baseline = results[0]
    for result in results:
        speedup = baseline["seconds"] / result["seconds"] \
            if result["seconds"] else float("inf")
        identical = np.array_equal(baseline["draws"], result["draws"])
        rows.append([
            result["engine"],
            f"{result['seconds'] * 1e3:.1f} ms",
            f"{result['n_samples'] / result['seconds']:,.0f}/s",
            f"{result['mean_joules']:.6g} J",
            f"{result['p99_joules']:.6g} J",
            (f"{speedup:.1f}x" if result is not baseline else "-"),
            "yes" if identical else "NO",
        ])
    print(format_table(
        ["engine", "wall time", "samples/s", "mean", "p99",
         f"vs {baseline['engine']}", "bitwise=="],
        rows,
        title=f"Monte Carlo engines, n_samples={args.samples}, "
              f"seed={args.seed}"))
    if any(row[-1] == "NO" for row in rows):
        print("repro-energy bench: engines disagree at a fixed seed — "
              "the replay contract is broken", file=sys.stderr)
        return 1
    return 0


def _compile_targets() -> dict:
    """Representative energy queries per compile target.

    Maps target name → zero-arg builder returning
    ``(interface_or_list, [(method, args), ...])``; builders are lazy so
    ``repro-energy compile bench`` does not pay for the ML stack.
    """
    def bench():
        from repro.workloads.mcbench import BENCH_OPS, build_bench_interface
        iface = build_bench_interface()
        return [(iface, [("E_handle", (BENCH_OPS,)), ("E_wait", (1.0,))])]

    def consensus():
        from repro.apps.consensus import (PoSEnergyInterface, PoSNetworkSpec,
                                          PoWEnergyInterface, PoWNetworkSpec)
        return [(PoWEnergyInterface(PoWNetworkSpec()),
                 [("E_secure_day", ()), ("E_per_block", ())]),
                (PoSEnergyInterface(PoSNetworkSpec()),
                 [("E_secure_day", ()), ("E_per_block", ())])]

    def crypto():
        from repro.apps.crypto import ConstantTimeInterface, EarlyExitInterface
        return [(ConstantTimeInterface(2e-9), [("E_verify", ())]),
                (EarlyExitInterface(2e-9), [("E_verify", ())])]

    def drone():
        from repro.apps.drone import DroneSpec, MissionEnergyInterface
        return [(MissionEnergyInterface(DroneSpec()),
                 [("E_leg", (3000.0, 60.0, 0.5, 12.0))])]

    def fuzzing():
        from repro.apps.fuzzing import (FuzzingCampaignModel,
                                        FuzzingEnergyInterface)
        return [(FuzzingEnergyInterface(FuzzingCampaignModel()),
                 [("E_campaign", (0.8, 32))])]

    def kvstore():
        from repro.apps.kvstore import KVStoreEnergyInterface
        from repro.hardware.storage import SSD
        iface = KVStoreEnergyInterface(SSD("ssd0"))
        return [(iface, [("E_put", ()), ("E_get", ())])]

    def mlservice():
        from repro.apps.mlservice import (MLWebService, build_service_machine,
                                          build_service_stack)
        from repro.calibration import calibrate
        machine = build_service_machine()
        service = MLWebService(machine)
        stack = build_service_stack(
            service, calibrate(machine, source="gpu0", seed=5).model)
        targets = []
        for layer in stack.layers:
            for resource in layer.resources():
                iface = resource.energy_interface
                if iface.name == "redis_cache":
                    targets.append((iface, [("E_lookup", (16384,))]))
                elif iface.name == "ml_webservice":
                    targets.append((iface, [("E_handle", (240000, 60000))]))
        return targets

    return {"bench": bench, "consensus": consensus, "crypto": crypto,
            "drone": drone, "fuzzing": fuzzing, "kvstore": kvstore,
            "mlservice": mlservice}


def _cmd_compile(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from repro.compile import CompileCache, CompiledInterface
    from repro.core.errors import EvaluationError

    builders = _compile_targets()
    names = args.targets or sorted(builders)
    unknown = [name for name in names if name not in builders]
    if unknown:
        raise EvaluationError(
            f"unknown target(s) {', '.join(sorted(unknown))} "
            f"(known: {', '.join(sorted(builders))})")

    cache = CompileCache()
    rows: list[dict] = []
    for name in names:
        for interface, queries in builders[name]():
            compiled = CompiledInterface(interface, cache=cache)
            for method, call_args in queries:
                compiled.compiled(method, *call_args)
            for row in compiled.report():
                row["target"] = name
                rows.append(row)

    fallbacks = [row for row in rows if row["tier"] == "sampled"]
    if args.format == "json":
        document = json.dumps({
            "targets": names,
            "queries": rows,
            "tiers": {tier: sum(1 for r in rows if r["tier"] == tier)
                      for tier in ("analytic", "kernel", "sampled")},
        }, indent=2)
    else:
        table = []
        for row in rows:
            if row["tier"] == "sampled":
                detail = row["reason"]
            elif row["tier"] == "analytic":
                detail = f"mean {row['mean_j']:.6g} J"
            else:
                detail = row.get("kernel", "")
            if len(detail) > 60:
                detail = detail[:57] + "..."
            table.append([row["target"], row["interface"], row["method"],
                          row["tier"], detail])
        document = format_table(
            ["target", "interface", "method", "tier", "detail"], table,
            title=f"compiled {len(rows)} quer"
                  f"{'y' if len(rows) == 1 else 'ies'}: "
                  f"{sum(1 for r in rows if r['tier'] == 'analytic')} "
                  f"analytic, "
                  f"{sum(1 for r in rows if r['tier'] == 'kernel')} kernel, "
                  f"{len(fallbacks)} sampled fallback(s)")
    if args.output:
        Path(args.output).write_text(document + "\n", encoding="utf-8")
        print(f"{args.format} report written to {args.output}")
    else:
        print(document)
    return 1 if fallbacks else 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.analysis.lint import (
        format_baseline,
        lint_paths,
        load_baseline,
        render_text,
        to_json,
        to_sarif,
    )

    select = _rule_ids(args.select)
    ignore = _rule_ids(args.ignore)
    _reject_unknown_rules(select, ignore)
    findings, checked = lint_paths(args.targets)

    if select:
        findings = [f for f in findings if f.rule in set(select)]
    if ignore:
        findings = [f for f in findings if f.rule not in set(ignore)]

    if args.write_baseline:
        Path(args.baseline).write_text(format_baseline(findings),
                                       encoding="utf-8")
        print(f"baseline with {len(findings)} finding(s) written to "
              f"{args.baseline}")
        return 0

    suppressed = 0
    baseline_path = Path(args.baseline)
    if baseline_path.is_file():
        suppressions = load_baseline(baseline_path)
        kept = [f for f in findings if f.fingerprint() not in suppressions]
        suppressed = len(findings) - len(kept)
        findings = kept

    if args.format == "json":
        document = to_json(findings, checked, suppressed)
    elif args.format == "sarif":
        document = to_sarif(findings)
    else:
        document = render_text(findings, checked, suppressed)
    if args.output:
        Path(args.output).write_text(document + "\n", encoding="utf-8")
        summary = render_text(findings, checked, suppressed).splitlines()[-1]
        print(summary)
        print(f"{args.format} report written to {args.output}")
    else:
        print(document)
    return 1 if findings else 0


def _rule_ids(values: list[str] | None) -> list[str]:
    """Flatten repeated/comma-separated rule-ID options."""
    ids: list[str] = []
    for value in values or []:
        ids.extend(part.strip() for part in value.split(",") if part.strip())
    return ids


def _reject_unknown_rules(select: list[str], ignore: list[str]) -> None:
    """Raise :class:`LintError` on rule IDs outside the shared EB registry.

    Both ``lint`` (EB1xx) and ``regress`` (EB2xx) draw from the same
    :data:`repro.analysis.lint.RULES` vocabulary, so the error lists
    every valid code.
    """
    from repro.analysis.lint import RULES
    from repro.core.errors import LintError

    for option, rule_ids in (("--select", select), ("--ignore", ignore)):
        for rule_id in rule_ids:
            if rule_id not in RULES:
                raise LintError(f"unknown rule {rule_id!r} for {option} "
                                f"(known: {', '.join(sorted(RULES))})")


def _cmd_regress(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.analysis.fingerprint import (
        fingerprint_paths,
        load_fingerprints,
    )
    from repro.analysis.lint import to_json, to_sarif
    from repro.analysis.regress import (
        bisect_range,
        diff_fingerprints,
        render_regress_text,
    )
    from repro.core.errors import RegressError

    select = _rule_ids(args.select)
    ignore = _rule_ids(args.ignore)
    _reject_unknown_rules(select, ignore)
    if args.tolerance < 0:
        raise RegressError("--tolerance must be >= 0")

    if args.bisect:
        result = bisect_range(Path.cwd(), args.bisect, args.targets,
                              tolerance=args.tolerance,
                              select=select, ignore=ignore, log=print)
        if result.ok:
            print(f"range {args.bisect} is clean "
                  f"({len(result.steps)} probe(s))")
            return 0
        print(f"first regressing commit: {result.first_bad} "
              f"({len(result.steps)} probe(s))")
        print(render_regress_text(result.findings,
                                  len({f.fingerprint()
                                       for f in result.findings})))
        return 1

    current = fingerprint_paths(args.targets)

    if args.write_baseline:
        current.write(args.baseline)
        print(f"fingerprint baseline with {len(current.interfaces)} "
              f"interface(s) written to {args.baseline}")
        return 0

    baseline = load_fingerprints(args.baseline)
    findings = diff_fingerprints(baseline, current, tolerance=args.tolerance)

    if select:
        findings = [f for f in findings if f.rule in set(select)]
    if ignore:
        findings = [f for f in findings if f.rule not in set(ignore)]

    compared = len(current.interfaces)
    if args.format == "json":
        document = to_json(findings, compared,
                           tool="repro-energy regress")
    elif args.format == "sarif":
        document = to_sarif(findings, tool="repro-energy regress")
    else:
        document = render_regress_text(findings, compared)
    if args.output:
        Path(args.output).write_text(document + "\n", encoding="utf-8")
        print(render_regress_text(findings, compared).splitlines()[-1])
        print(f"{args.format} report written to {args.output}")
    else:
        print(document)
    return 1 if findings else 0


def _cmd_trace(args: argparse.Namespace) -> int:
    import json

    from repro.core.errors import EvaluationError

    if args.requests <= 0:
        raise EvaluationError("--requests must be positive")
    if args.max_error is not None and args.max_error <= 0:
        raise EvaluationError("--max-error must be positive")

    from repro.apps.mlservice import MLWebService, build_service_machine, \
        build_service_stack
    from repro.calibration import calibrate
    from repro.core.interface import evaluate
    from repro.core.session import MemoHook, SpanRecorder, chrome_trace, \
        layer_breakdown, render_span_tree
    from repro.core.units import as_joules
    from repro.workloads.traces import image_request_trace, \
        repeated_image_trace

    machine = build_service_machine()
    service = MLWebService(machine)
    model = calibrate(machine, source="gpu0", seed=args.seed).model
    rng = np.random.default_rng(11)
    for request in image_request_trace(500, rng):
        service.handle(request)

    stack = build_service_stack(service, model)
    interface = stack.exported_interface("runtime/ml_webservice")
    memo = MemoHook()
    recorder = SpanRecorder()
    session = stack.session(mode="expected", hooks=[memo, recorder])

    trace = repeated_image_trace(args.requests, rng)
    t_start = machine.now
    for request in trace:
        service.handle(request)
    t_end = machine.now
    predicted = sum(
        as_joules(evaluate(interface("E_handle", r.image_pixels,
                                     r.zero_pixels), session=session))
        for r in trace)

    print("one request through the stack "
          "(service evaluation, layers in brackets):")
    full = next((root for root in recorder.roots if root.children),
                recorder.last_root)
    print(render_span_tree(full))
    print()

    # Per-layer divergence: map ledger channels onto the stack's layers.
    ledger = machine.ledger
    measured_gpu = ledger.energy_between(t_start, t_end, component="gpu0")
    measured_os = (ledger.energy_between(t_start, t_end, component="dram0")
                   + ledger.energy_between(t_start, t_end, component="nic0"))
    measured_total = ledger.energy_between(t_start, t_end)
    layers = layer_breakdown(recorder.roots)
    rows = []
    worst_error = 0.0
    for layer, measured in (("hardware", measured_gpu),
                            ("os", measured_os),
                            ("runtime", measured_total - measured_gpu
                             - measured_os)):
        layer_predicted = layers.get(layer, 0.0)
        error = (abs(layer_predicted - measured) / measured
                 if measured else 0.0)
        worst_error = max(worst_error, error)
        rows.append([layer, f"{layer_predicted:.2f} J",
                     f"{measured:.2f} J", f"{100 * error:.1f}%"])
    print(format_table(
        ["layer", "predicted", "measured", "error"], rows,
        title=f"per-layer energy over {args.requests} requests "
              f"(predicted {predicted:.2f} J, measured "
              f"{measured_total:.2f} J)"))
    print("note: the interface charges all static power at the service "
          "level (runtime row), while the ledger meters static draw on "
          "each device — per-layer attribution diverges even where the "
          "totals agree.")
    print(f"session memo: {memo.hits}/{memo.lookups} hits "
          f"({memo.hit_rate:.0%})")

    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(chrome_trace(recorder.roots), fh)
        print(f"chrome trace written to {args.out} "
              f"(open in chrome://tracing)")
    if args.max_error is not None and 100 * worst_error > args.max_error:
        print(f"repro-energy trace: worst per-layer error "
              f"{100 * worst_error:.1f}% exceeds --max-error "
              f"{args.max_error:g}%", file=sys.stderr)
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    """Entry point for the ``repro-energy`` console script."""
    parser = argparse.ArgumentParser(
        prog="repro-energy",
        description="Experiments from 'The Case for Energy Clarity' "
                    "(HotOS 2025), reproduced on simulated hardware.",
        epilog="exit codes: 0 = clean; 1 = findings (lint, regress, "
               "trace, chaos, fleet, drift, compile and bench: energy "
               "bugs, regressions, divergence beyond --max-error, goodput "
               "below --min-goodput, a fleet budget violation, a stale "
               "calibration, a sampled fallback, or engines that "
               "disagree); 2 = usage or configuration error (every "
               "command).")
    parser.add_argument("--seed", type=int, default=7)
    commands = parser.add_subparsers(dest="command", required=True)

    table1 = commands.add_parser("table1", help="the §5 experiment")
    table1.add_argument("--trials", type=int, default=6)
    table1.set_defaults(handler=_cmd_table1)

    mlservice = commands.add_parser("mlservice", help="Fig. 1's service")
    mlservice.add_argument("--requests", type=int, default=300)
    mlservice.set_defaults(handler=_cmd_mlservice)

    schedulers = commands.add_parser("schedulers",
                                     help="the §1 EAS comparison")
    schedulers.add_argument("--quanta", type=int, default=240)
    schedulers.set_defaults(handler=_cmd_schedulers)

    fuzzing = commands.add_parser("fuzzing",
                                  help="the §1 ClusterFuzz questions")
    fuzzing.add_argument("--coverage", type=float, default=0.95)
    fuzzing.add_argument("--deadline-days", type=float, default=3.0)
    fuzzing.set_defaults(handler=_cmd_fuzzing)

    consensus = commands.add_parser("consensus",
                                    help="the §1 Ethereum claim")
    consensus.set_defaults(handler=_cmd_consensus)

    calibrate = commands.add_parser("calibrate",
                                    help="calibrate a GPU profile")
    calibrate.add_argument("--gpu", choices=("sim4090", "sim3070"),
                           default="sim4090")
    calibrate.set_defaults(handler=_cmd_calibrate)

    serve = commands.add_parser(
        "serve", help="energy-aware admission control")
    serve.add_argument("--app", choices=("mlservice", "kvstore", "llm"),
                       default="kvstore")
    serve.add_argument("--budget", default="0.5J+0.25W",
                       help='budget spec, e.g. "3J+0.5W", "100J" or "2W"')
    serve.add_argument("--rate", type=float, default=300.0,
                       help="Poisson arrival rate (requests/s)")
    serve.add_argument("--horizon", type=float, default=10.0,
                       help="simulated seconds of traffic")
    serve.add_argument("--policy",
                       choices=("hard", "prob", "slo", "quantile"),
                       default="hard")
    serve.add_argument("--queue", type=int, default=64,
                       help="queue bound before shedding")
    serve.add_argument("--slo", type=float, default=None,
                       help="latency SLO in seconds (slo policy)")
    serve.add_argument("--engine", choices=("serial", "vector"),
                       default="vector",
                       help="Monte Carlo engine for admission predictions")
    serve.add_argument("--quantile", type=float, default=0.95,
                       help="tail level for the quantile policy")
    serve.add_argument("--attribution", action="store_true",
                       help="also print the per-tag attribution report")
    serve.set_defaults(handler=_cmd_serve)

    trace = commands.add_parser(
        "trace", help="cross-layer span trace of Fig. 1's service",
        epilog="exit codes: 0 = clean, 1 = per-layer divergence beyond "
               "--max-error, 2 = usage error.")
    trace.add_argument("--requests", type=int, default=40)
    trace.add_argument("--out", default="mlservice_trace.json",
                       help="Chrome-trace JSON output path ('' to skip)")
    trace.add_argument("--max-error", type=float, default=None,
                       help="fail (exit 1) when any layer's prediction "
                            "error exceeds this percentage")
    trace.set_defaults(handler=_cmd_trace)

    chaos = commands.add_parser(
        "chaos", help="fault-injection drill on the serving gateway",
        epilog="exit codes: 0 = clean, 1 = goodput below --min-goodput, "
               "2 = usage or configuration error.")
    chaos.add_argument("--app", choices=("mlservice", "kvstore", "llm"),
                       default="kvstore")
    chaos.add_argument("--budget", default="0.5J+0.25W",
                       help='budget spec, e.g. "3J+0.5W", "100J" or "2W"')
    chaos.add_argument("--rate", type=float, default=300.0,
                       help="Poisson arrival rate (requests/s)")
    chaos.add_argument("--horizon", type=float, default=10.0,
                       help="simulated seconds of traffic")
    chaos.add_argument("--queue", type=int, default=64,
                       help="queue bound before shedding")
    chaos.add_argument("--engine", choices=("serial", "vector"),
                       default="vector",
                       help="Monte Carlo engine for admission predictions")
    chaos.add_argument("--fault-rate", type=float, default=0.05,
                       help="per-site injection probability (default 5%%)")
    chaos.add_argument("--retries", type=int, default=3,
                       help="retry budget per evaluation")
    chaos.add_argument("--deadline", type=float, default=0.5,
                       help="simulated per-evaluation deadline in seconds")
    chaos.add_argument("--min-goodput", type=float, default=0.9,
                       help="fail (exit 1) below this served fraction")
    chaos.set_defaults(handler=_cmd_chaos)

    fleet = commands.add_parser(
        "fleet", help="multi-replica serving fleet under trace-driven load",
        epilog="exit codes: 0 = clean, 1 = budget-invariant violation or "
               "goodput below --min-goodput, 2 = usage or configuration "
               "error.")
    fleet.add_argument("--replicas", type=int, default=4,
                       help="gateway replica count (default: %(default)s)")
    fleet.add_argument("--balancer",
                       choices=("round-robin", "least-energy",
                                "power-of-two"),
                       default="least-energy",
                       help="load-balancing strategy")
    fleet.add_argument("--tenants", type=int, default=3,
                       help="tenant count (Zipf-skewed traffic)")
    fleet.add_argument("--budget", default="5J+2W",
                       help='per-tenant budget spec, e.g. "5J+2W"')
    fleet.add_argument("--rate", type=float, default=500.0,
                       help="mean arrival rate (requests/s)")
    fleet.add_argument("--horizon", type=float, default=60.0,
                       help="simulated seconds of traffic")
    fleet.add_argument("--workload",
                       choices=("diurnal", "poisson", "flash"),
                       default="diurnal",
                       help="arrival shape (default: %(default)s)")
    fleet.add_argument("--lease-ttl", type=float, default=None,
                       help="budget-shard lease TTL in simulated seconds")
    fleet.add_argument("--fault-rate", type=float, default=0.0,
                       help="replica-crash / lease-fault probability")
    fleet.add_argument("--min-goodput", type=float, default=0.0,
                       help="fail (exit 1) below this served fraction")
    fleet.add_argument("--json", default=None,
                       help="also write the report JSON here")
    fleet.set_defaults(handler=_cmd_fleet)

    drift = commands.add_parser(
        "drift", help="calibration drift vs streaming recalibration",
        epilog="exit codes: 0 = the serving calibration stayed fresh, "
               "1 = it went stale under drift, 2 = usage or "
               "configuration error.")
    drift.add_argument("--gpu", choices=("sim4090", "sim3070"),
                       default="sim4090")
    drift.add_argument("--preset", choices=("none", "gentle", "harsh"),
                       default="gentle",
                       help="drift severity (default: %(default)s)")
    drift.add_argument("--windows", type=int, default=8,
                       help="serving windows to simulate "
                            "(default: %(default)s)")
    drift.add_argument("--tolerance", type=float, default=0.05,
                       help="EWMA residual tolerance before the "
                            "calibration counts as stale "
                            "(default: %(default)s)")
    drift.add_argument("--freeze", action="store_true",
                       help="disable recalibration: serve the whole run "
                            "on the batch calibration")
    drift.add_argument("--json", default=None,
                       help="also write the drift report JSON here")
    drift.set_defaults(handler=_cmd_drift)

    bench = commands.add_parser(
        "bench", help="compare the Monte Carlo evaluation engines",
        epilog="exit codes: 0 = clean, 1 = engines disagree at a fixed "
               "seed, 2 = usage error.")
    bench.add_argument("--engine", choices=("serial", "vector", "all"),
                       default="all",
                       help="which engine to time (default: both)")
    bench.add_argument("--samples", type=int, default=20000,
                       help="Monte Carlo samples per evaluation")
    bench.set_defaults(handler=_cmd_bench)

    compile_cmd = commands.add_parser(
        "compile", help="compile energy interfaces to analytic/kernel form",
        epilog="exit codes: 0 = every query compiled (analytic or "
               "kernel), 1 = at least one query fell back to Monte Carlo "
               "sampling, 2 = usage error.")
    compile_cmd.add_argument("targets", nargs="*",
                             help="interface sets to compile (default: "
                                  "all of bench, consensus, crypto, "
                                  "drone, fuzzing, kvstore, mlservice)")
    compile_cmd.add_argument("--format", choices=("text", "json"),
                             default="text")
    compile_cmd.add_argument("--output", default=None,
                             help="write the report here instead of stdout")
    compile_cmd.set_defaults(handler=_cmd_compile)

    lint = commands.add_parser(
        "lint", help="static energy-bug checker (rules EB101-EB106)",
        epilog="exit codes: 0 = clean, 1 = findings, 2 = usage or "
               "configuration error.")
    lint.add_argument("targets", nargs="+",
                      help="files, directories or dotted module names of "
                           "implementations carrying @energy_spec")
    lint.add_argument("--format", choices=("text", "json", "sarif"),
                      default="text")
    lint.add_argument("--output", default=None,
                      help="write the report here instead of stdout")
    lint.add_argument("--select", action="append", metavar="RULES",
                      help="only these rule IDs (repeatable, "
                           "comma-separable)")
    lint.add_argument("--ignore", action="append", metavar="RULES",
                      help="drop these rule IDs (repeatable, "
                           "comma-separable)")
    lint.add_argument("--baseline", default=".energy-lint.baseline",
                      help="baseline file of accepted findings "
                           "(default: %(default)s)")
    lint.add_argument("--write-baseline", action="store_true",
                      help="write the current findings to --baseline and "
                           "exit 0")
    lint.set_defaults(handler=_cmd_lint)

    regress = commands.add_parser(
        "regress",
        help="differential energy checker (rules EB201-EB206)",
        epilog="exit codes: 0 = no regression, 1 = regressions found, "
               "2 = usage or configuration error.")
    regress.add_argument("targets", nargs="*", default=["src/repro/apps"],
                         help="files, directories or dotted module names "
                              "of implementations carrying @energy_spec "
                              "(default: src/repro/apps)")
    regress.add_argument("--format", choices=("text", "json", "sarif"),
                         default="text")
    regress.add_argument("--output", default=None,
                         help="write the report here instead of stdout")
    regress.add_argument("--select", action="append", metavar="RULES",
                         help="only these rule IDs (repeatable, "
                              "comma-separable)")
    regress.add_argument("--ignore", action="append", metavar="RULES",
                         help="drop these rule IDs (repeatable, "
                              "comma-separable)")
    regress.add_argument("--baseline",
                         default=".energy-fingerprints.json",
                         help="committed fingerprint baseline "
                              "(default: %(default)s)")
    regress.add_argument("--write-baseline", action="store_true",
                         help="fingerprint the targets, write the "
                              "baseline and exit 0")
    regress.add_argument("--tolerance", type=float, default=0.05,
                         help="fractional worst-case growth tolerated "
                              "before EB201 fires (default: %(default)s)")
    regress.add_argument("--bisect", metavar="GOOD..BAD", default=None,
                         help="binary-search this commit range for the "
                              "first regression against GOOD")
    regress.set_defaults(handler=_cmd_regress)

    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ReproError as exc:
        print(f"repro-energy {args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
