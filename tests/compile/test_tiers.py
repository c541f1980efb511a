"""Compiled-vs-engine equality across every ``repro.apps`` module.

The compile layer's contract, checked app by app:

* **kernel** paths produce draws *bitwise identical* to a
  :class:`~repro.core.mcengine.VectorEngine` run at the same entropy
  (the per-sample loop's draws, which that engine answers with);
* **analytic** paths produce a closed-form mean and quantiles contained
  in the interval the affine/interval machinery proves for the body;
* **sampled** fallbacks answer exactly what the plain sampled backend
  answers (the compile layer must never change a result, only its cost).

The targets come from the same registry the ``repro-energy compile``
subcommand reports on, so the CLI and the test suite cannot drift apart;
:mod:`repro.apps.transcode` (which models energy through utilisation
tasks, not an ``EnergyInterface``) is covered by an interface built over
its bimodal transcoder profile.
"""

import numpy as np
import pytest

from repro.apps.transcode import bimodal_transcoder
from repro.cli import _compile_targets
from repro.compile import AnalyticDistribution, compile_call
from repro.core.distributions import Discrete, Mixture, PointMass
from repro.core.ecv import BernoulliECV, ContinuousECV, ECVEnvironment
from repro.core.interface import EnergyInterface, evaluate
from repro.core.session import EvalSession
from repro.core.units import Energy

from .fixtures import LoadInterface

SEED = 7
N = 2000


def all_queries():
    """Every (label, EnergyCall) pair of the CLI's compile targets."""
    queries = []
    for name, builder in _compile_targets().items():
        for interface, methods in builder():
            for method, args in methods:
                queries.append((f"{name}.{method}",
                                interface(method, *args)))
    return queries


QUERIES = all_queries()


class GopEnergyInterface(EnergyInterface):
    """Transcode's GOP energy over the bimodal task's utilisation levels.

    :mod:`repro.apps.transcode` prices work through EAS utilisation
    tasks rather than an ``EnergyInterface``; this wraps its bimodal
    profile (burst vs trough capacity units) behind one so the seventh
    app module exercises the compile layer too.
    """

    def __init__(self) -> None:
        super().__init__("transcode_gop")
        task = bimodal_transcoder("gop")
        self.burst_util = task.utilization_profile(0)
        self.trough_util = task.utilization_profile(3)
        self.declare_ecv(BernoulliECV(
            "burst", p=0.5, description="quantum lands in a compute burst"))

    def E_gop(self, frames: int) -> Energy:
        burst = self.ecv("burst")
        util = (burst * self.burst_util
                + (1 - burst) * self.trough_util)
        return Energy.joules(frames * util * 1e-3)


def engine_distribution(call, entropy, n):
    """The plain pipeline's distribution-mode answer for ``call``.

    ``Empirical`` when continuous ECVs forced the vector engine,
    ``Discrete`` when exact enumeration sufficed.
    """
    session = EvalSession(seed=entropy, engine="vector")
    return evaluate(call, session=session, mode="distribution", n_samples=n)


def engine_draws(call, entropy, n):
    """The vector engine's sorted draw column for ``call``."""
    return np.asarray(engine_distribution(call, entropy, n)._samples)


class TestTierAssignments:
    def test_every_app_module_is_covered(self):
        labels = {label.split(".")[0] for label, _ in QUERIES}
        assert {"bench", "consensus", "crypto", "drone", "fuzzing",
                "kvstore", "mlservice"} <= labels

    def test_transcode_gop_compiles_analytic(self):
        iface = GopEnergyInterface()
        entry = compile_call(iface("E_gop", 240), ECVEnvironment.EMPTY)
        assert entry.tier == "analytic"
        # E[util] = (820 + 45) / 2 at p = 0.5.
        expected = 240 * (iface.burst_util + iface.trough_util) / 2 * 1e-3
        assert entry.dist.mean() == pytest.approx(expected)

    def test_drone_leg_compiles_to_a_bounded_kernel(self):
        entry = next(
            compile_call(call, ECVEnvironment.EMPTY)
            for label, call in QUERIES if label.startswith("drone."))
        assert entry.tier == "kernel" and entry.predicated
        interval = entry.proven_interval()
        assert interval is not None and interval.bounded
        draws = entry.draws(SEED, N)
        assert interval.lo <= draws.min() and draws.max() <= interval.hi

    def test_unsupported_body_falls_back_honestly(self):
        call = LoadInterface()("E_exp", 1.0)
        entry = compile_call(call, ECVEnvironment.EMPTY)
        assert entry.tier == "sampled"
        assert "branchy" in entry.reason and "TypeError" in entry.reason
        a = evaluate(call, session=EvalSession(seed=SEED, backend="compiled"),
                     mode="distribution", n_samples=N)
        b = evaluate(call, session=EvalSession(seed=SEED),
                     mode="distribution", n_samples=N)
        assert np.array_equal(np.asarray(a._samples), np.asarray(b._samples))

    def test_constants_without_a_source_form_fall_back(self):
        class OddConstants(EnergyInterface):
            def __init__(self):
                super().__init__("odd_constants")
                self.declare_ecv(ContinuousECV("x", 1.0, 2.0))

            def E_inf(self):
                x = self.ecv("x")
                return Energy(x * x + float("inf"))

            def E_numpy_scalar(self):
                x = self.ecv("x")
                return Energy(x * x * np.float64(1.5))

        for method in ("E_inf", "E_numpy_scalar"):
            call = OddConstants()(method)
            assert compile_call(call, ECVEnvironment.EMPTY).tier == "sampled"
            answers = [evaluate(call, session=EvalSession(
                seed=SEED, backend=backend), mode="expected",
                n_samples=64).as_joules for backend in ("compiled",
                                                        "sampled")]
            assert answers[0] == answers[1]

    def test_bench_handle_compiles_to_a_kernel(self):
        entry = next(
            compile_call(call, ECVEnvironment.EMPTY)
            for label, call in QUERIES if label == "bench.E_handle")
        assert entry.tier == "kernel"
        assert entry.kernel_source.startswith("lambda ")


@pytest.mark.parametrize("label,call", QUERIES,
                         ids=[label for label, _ in QUERIES])
class TestCompiledEqualsEngine:
    def test_compiled_matches_vector_engine(self, label, call):
        entry = compile_call(call, ECVEnvironment.EMPTY)
        if entry.tier == "kernel":
            draws = entry.predict("distribution", SEED, N)._samples
            assert np.array_equal(np.asarray(draws),
                                  engine_draws(call, SEED, N)), (
                f"{label}: kernel draws diverge from VectorEngine at "
                f"seed {SEED}")
        elif entry.tier == "analytic":
            interval = entry.proven_interval()
            assert interval is not None and interval.bounded, label
            dist = entry.dist
            lo = interval.lo - 1e-12 * max(1.0, abs(interval.lo))
            hi = interval.hi + 1e-12 * max(1.0, abs(interval.hi))
            assert lo <= dist.mean() <= hi, label
            for q in (0.05, 0.5, 0.95):
                assert lo <= dist.quantile(q) <= hi, (label, q)
            # The closed-form mean must agree with the plain pipeline:
            # exactly when it enumerates, to sampling accuracy when
            # continuous ECVs force Monte Carlo.
            reference = engine_distribution(call, SEED, 4000)
            if hasattr(reference, "_samples"):
                sampled = np.asarray(reference._samples)
                spread = max(float(np.std(sampled)),
                             1e-15 * abs(dist.mean()))
                assert abs(dist.mean() - float(np.mean(sampled))) \
                    <= 5 * spread / np.sqrt(4000) + 1e-12, label
            else:
                assert dist.mean() == pytest.approx(
                    float(reference.mean()), rel=1e-9), label
        else:
            # Fallback tier: the compiled backend must answer exactly
            # what the sampled backend answers.
            a = evaluate(call, session=EvalSession(seed=SEED,
                                                   backend="compiled"),
                         mode="distribution", n_samples=N)
            b = evaluate(call, session=EvalSession(seed=SEED),
                         mode="distribution", n_samples=N)
            assert np.array_equal(np.asarray(a._samples),
                                  np.asarray(b._samples)), label

    def test_analytic_distribution_shape(self, label, call):
        entry = compile_call(call, ECVEnvironment.EMPTY)
        if entry.tier != "analytic":
            pytest.skip(f"{label} is {entry.tier}")
        assert isinstance(entry.dist, (AnalyticDistribution, PointMass,
                                       Discrete, Mixture))


class TestBackendThroughSession:
    def test_kernel_expected_mode_matches_sampled(self):
        call = next(c for label, c in QUERIES if label == "bench.E_handle")
        compiled = evaluate(call, session=EvalSession(
            seed=SEED, backend="compiled"), mode="expected", n_samples=N)
        sampled = evaluate(call, session=EvalSession(seed=SEED),
                           mode="expected", n_samples=N)
        assert compiled.as_joules == sampled.as_joules

    def test_worst_mode_unchanged_by_backend(self):
        call = next(c for label, c in QUERIES if label == "kvstore.E_put")
        compiled = evaluate(call, session=EvalSession(backend="compiled"),
                            mode="worst")
        sampled = evaluate(call, session=EvalSession(), mode="worst")
        assert compiled.as_joules == sampled.as_joules

    def test_fallback_is_annotated(self):
        from repro.core.session import SpanRecorder

        call = LoadInterface()("E_exp", 1.0)
        recorder = SpanRecorder()
        session = EvalSession(seed=SEED, backend="compiled",
                              hooks=[recorder])
        evaluate(call, session=session, mode="distribution", n_samples=64)
        notes = [note for span in recorder.last_root.walk()
                 for note in span.notes]
        assert any("compile fallback" in note for note in notes)
