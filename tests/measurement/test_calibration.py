"""Tests for microbenchmarks and unit-energy calibration."""

import pytest

from repro.core.errors import MeasurementError
from repro.hardware.profiles import SIM3070, SIM4090, build_gpu_workstation
from repro.calibration import MicrobenchCalibrator
from repro.measurement.calibration import (
    DYNAMIC_METRICS,
    METRICS,
    CalibratedModel,
    fit_unit_energies,
    measure_launch_energy,
    measure_static_power,
)
from repro.measurement.microbench import (
    MicrobenchSample,
    compute,
    default_suite,
    pointer_chase,
    run_suite,
    scatter,
    stream,
)
from repro.measurement.nvml import NVMLSim


def build(spec=SIM4090, seed=1):
    machine = build_gpu_workstation(spec)
    gpu = machine.component("gpu0")
    return machine, gpu, NVMLSim(gpu, seed=seed)


@pytest.fixture(scope="module")
def model_4090():
    """One full calibration of a fresh SIM4090 (seed 1), shared by the
    tests that only read the fitted model."""
    _, gpu, nvml = build()
    return MicrobenchCalibrator().calibrate_device(gpu, nvml)


class TestMicrobenchKernels:
    def test_pointer_chase_hit_levels(self):
        l1 = pointer_chase(32 * 1024)
        l2 = pointer_chase(4 * 1024 * 1024)
        vram = pointer_chase(512 * 1024 * 1024)
        assert l1.vram_sectors < l2.vram_sectors < vram.vram_sectors
        assert l2.l2_sectors > l1.l2_sectors

    def test_stream_is_vram_dominated(self):
        kernel = stream(256e6)
        assert kernel.vram_sectors == pytest.approx(256e6 / 32)

    def test_compute_is_instruction_dominated(self):
        kernel = compute(1e9)
        assert kernel.instructions == 1e9
        assert kernel.vram_sectors < kernel.instructions * 0.01

    def test_scatter_has_poor_locality(self):
        assert scatter(1e6).row_miss_fraction > stream().row_miss_fraction

    def test_default_suite_covers_corners(self):
        names = [k.name for k in default_suite()]
        assert any("pointer_chase" in n for n in names)
        assert any("stream" in n for n in names)
        assert any("compute" in n for n in names)
        assert any("scatter" in n for n in names)

    def test_parameter_validation(self):
        with pytest.raises(MeasurementError):
            pointer_chase(0)
        with pytest.raises(MeasurementError):
            stream(-1)
        with pytest.raises(MeasurementError):
            compute(0)
        with pytest.raises(MeasurementError):
            scatter(0)


class TestRunSuite:
    def test_samples_have_positive_energy(self):
        _, gpu, nvml = build()
        samples = run_suite(gpu, nvml, suite=[stream(64e6), compute(1e9)],
                            min_measure_seconds=0.05)
        assert len(samples) == 2
        assert all(s.measured_joules > 0 for s in samples)
        assert all(s.duration >= 0.05 for s in samples)

    def test_counters_match_launch_multiples(self):
        _, gpu, nvml = build()
        kernel = stream(64e6)
        (sample,) = run_suite(gpu, nvml, suite=[kernel],
                              min_measure_seconds=0.01, repeats=3)
        launches = sample.counters["kernel_launches"]
        assert sample.counters["vram_sectors"] == pytest.approx(
            launches * kernel.vram_sectors)

    def test_validation(self):
        _, gpu, nvml = build()
        with pytest.raises(MeasurementError):
            run_suite(gpu, nvml, repeats=0)
        with pytest.raises(MeasurementError):
            run_suite(gpu, nvml, min_measure_seconds=0.0)


class TestStaticAndLaunchMeasurement:
    def test_static_power_estimate(self):
        _, gpu, nvml = build()
        power = measure_static_power(gpu, nvml, seconds=1.0)
        assert power == pytest.approx(SIM4090.p_static_w, rel=0.02)

    def test_launch_energy_estimate(self):
        _, gpu, nvml = build()
        static = measure_static_power(gpu, nvml, seconds=1.0)
        launch = measure_launch_energy(gpu, nvml, static, seconds=0.5)
        assert launch == pytest.approx(SIM4090.e_kernel_launch, rel=0.25)

    def test_static_needs_positive_duration(self):
        _, gpu, nvml = build()
        with pytest.raises(MeasurementError):
            measure_static_power(gpu, nvml, seconds=0.0)


class TestFit:
    def test_full_calibration_recovers_unit_energies(self, model_4090):
        model = model_4090
        assert model.unit_energies["instructions"] == pytest.approx(
            SIM4090.e_instruction, rel=0.25)
        # e_vram absorbs the average hidden row cost, so compare loosely.
        assert model.unit_energies["vram_sectors"] == pytest.approx(
            SIM4090.e_vram_sector, rel=0.25)
        assert model.static_power_w == pytest.approx(SIM4090.p_static_w,
                                                     rel=0.05)
        assert model.residual_rms < 0.05

    def test_3070_has_higher_residual_than_4090(self, model_4090):
        """The hidden row cost is bigger on the 3070, so the linear model
        fits it worse — the seed of Table 1's asymmetry."""
        _, gpu30, nvml30 = build(SIM3070)
        model30 = MicrobenchCalibrator().calibrate_device(gpu30, nvml30)
        assert model30.residual_rms > model_4090.residual_rms

    def test_predict_joules_linear(self):
        model = CalibratedModel("g", {m: 1.0 for m in METRICS}, 0.0, 6)
        counters = {m: 2.0 for m in METRICS}
        assert model.predict_joules(counters) == pytest.approx(12.0)

    def test_fit_needs_enough_samples(self):
        with pytest.raises(MeasurementError):
            fit_unit_energies([MicrobenchSample("k", {m: 1.0 for m in METRICS},
                                                1.0, 1.0)])

    def test_fit_rejects_nonpositive_energy(self):
        samples = [MicrobenchSample(f"k{i}", {m: float(i + 1)
                                              for m in METRICS}, 0.0, 1.0)
                   for i in range(7)]
        with pytest.raises(MeasurementError):
            fit_unit_energies(samples)

    def test_fit_rejects_unknown_pinned_metric(self):
        samples = [MicrobenchSample(f"k{i}", {m: float(i + 1)
                                              for m in METRICS}, 1.0, 1.0)
                   for i in range(7)]
        with pytest.raises(MeasurementError):
            fit_unit_energies(samples, fixed={"flux_capacitor": 1.0})

    def test_coefficients_never_negative(self):
        _, gpu, nvml = build(SIM3070, seed=3)
        model = MicrobenchCalibrator().calibrate_device(gpu, nvml)
        assert all(value >= 0.0 for value in model.unit_energies.values())

    def test_dynamic_metrics_excludes_static(self):
        assert "busy_seconds" not in DYNAMIC_METRICS
        assert "busy_seconds" in METRICS

    def test_describe_mentions_all_metrics(self, model_4090):
        model = model_4090
        text = model.describe()
        for metric in METRICS:
            assert metric in text


class TestPersistence:
    def test_json_round_trip(self, model_4090):
        model = model_4090
        restored = CalibratedModel.from_json(model.to_json())
        assert restored.gpu_name == model.gpu_name
        assert restored.unit_energies == model.unit_energies
        assert restored.residual_rms == model.residual_rms
        counters = {m: 1e6 for m in METRICS}
        assert restored.predict_joules(counters) == \
            pytest.approx(model.predict_joules(counters))

    def test_unknown_format_rejected(self):
        with pytest.raises(MeasurementError):
            CalibratedModel.from_json('{"format": "something-else"}')

    def test_missing_metric_rejected(self):
        import json
        payload = json.dumps({
            "format": "repro.calibrated-model/1",
            "gpu_name": "g",
            "unit_energies": {"instructions": 1.0},
            "residual_rms": 0.0,
            "n_samples": 1,
        })
        with pytest.raises(MeasurementError):
            CalibratedModel.from_json(payload)
