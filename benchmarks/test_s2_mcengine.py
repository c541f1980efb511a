"""S2: the vectorized Monte Carlo engine on a composed stack.

The paper's interfaces are only useful online if querying them is cheap
(§3); once continuous ECVs force Monte Carlo, the sampler's throughput
is the whole story.  This bench evaluates the three-layer
service → CPU → DRAM stack from :mod:`repro.workloads.mcbench` at
``n_samples=20000`` under each engine and asserts the two S2 claims:

* the vectorized engine is at least **5x** faster than the serial
  per-sample evaluator on the same stack, and
* serial and vectorized runs produce **bitwise-identical** draws at a
  fixed seed (the replay contract that makes the speedup free of
  semantic risk).

Headline numbers are checked against the recorded baseline in
``benchmarks/baselines/s2_mcengine.json`` so CI catches silent changes
to the sampling scheme (a different mean at the pinned seed means the
column derivation changed, which breaks recorded experiments).
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.workloads.mcbench import BENCH_SAMPLES, BENCH_SEED, \
    run_engine_bench

pytestmark = pytest.mark.fast

_BASELINE = Path(__file__).parent / "baselines" / "s2_mcengine.json"


def test_s2_vector_speedup_and_replay(run_once):
    def experiment():
        serial = run_engine_bench("serial")
        vector = run_engine_bench("vector")
        return serial, vector

    serial, vector = run_once(experiment)
    speedup = serial["seconds"] / vector["seconds"]
    print(f"serial {serial['seconds'] * 1e3:.1f} ms, "
          f"vector {vector['seconds'] * 1e3:.1f} ms -> {speedup:.1f}x")

    assert speedup >= 5.0, (
        f"vector engine only {speedup:.1f}x faster than serial at "
        f"n_samples={BENCH_SAMPLES}")
    assert np.array_equal(serial["draws"], vector["draws"]), (
        f"vector run diverged from serial at seed {BENCH_SEED}")

    baseline = json.loads(_BASELINE.read_text())
    assert serial["n_samples"] == baseline["n_samples"]
    # Tight numeric comparison (not bitwise) so the baseline survives
    # BLAS/platform differences while still pinning the sampling scheme.
    np.testing.assert_allclose(serial["mean_joules"],
                               baseline["mean_joules"], rtol=1e-9)
    np.testing.assert_allclose(serial["p99_joules"],
                               baseline["p99_joules"], rtol=1e-9)


def test_s2_engine_mean_matches_expected_mode():
    """Expected mode and the distribution's mean agree per engine."""
    from repro.core.interface import evaluate
    from repro.core.session import EvalSession
    from repro.workloads.mcbench import BENCH_OPS, build_bench_interface

    interface = build_bench_interface()
    for engine in ("serial", "vector"):
        session = EvalSession(seed=BENCH_SEED, engine=engine)
        energy = evaluate(interface("E_handle", BENCH_OPS), session=session,
                          mode="expected", n_samples=2000)
        dist = evaluate(interface("E_handle", BENCH_OPS), session=session,
                        mode="distribution", n_samples=2000)
        assert energy.as_joules == pytest.approx(dist.mean(), rel=1e-12)
