"""The unified Calibrator API: registry and canonical entry point."""

import pytest

from repro.calibration import (
    CALIBRATORS,
    Calibrator,
    MicrobenchCalibrator,
    OracleCalibrator,
    calibrate,
    register_calibrator,
    resolve_calibrator,
)
from repro.core.errors import MeasurementError
from repro.hardware.profiles import SIM4090, build_gpu_workstation
from repro.measurement.calibration import METRICS


class TestRegistry:
    def test_default_is_microbench(self):
        assert isinstance(resolve_calibrator(None), MicrobenchCalibrator)

    def test_resolve_by_name(self):
        assert isinstance(resolve_calibrator("oracle"), OracleCalibrator)
        assert isinstance(resolve_calibrator("microbench"),
                          MicrobenchCalibrator)

    def test_resolve_passes_instances_through(self):
        strategy = OracleCalibrator()
        assert resolve_calibrator(strategy) is strategy

    def test_unknown_name_lists_known_ones(self):
        with pytest.raises(MeasurementError, match="microbench"):
            resolve_calibrator("voodoo")

    def test_register_custom_calibrator(self):
        class FixedCalibrator(Calibrator):
            name = "fixed-test"

            def calibrate_device(self, gpu, nvml=None, **knobs):
                from repro.measurement.calibration import CalibratedModel
                return CalibratedModel(gpu.spec.name,
                                       {m: 1.0 for m in METRICS}, 0.0, 0)

        try:
            register_calibrator(FixedCalibrator())
            assert isinstance(resolve_calibrator("fixed-test"),
                              FixedCalibrator)
        finally:
            CALIBRATORS.pop("fixed-test", None)


class TestCanonicalCalibrate:
    def test_machine_and_bare_gpu_agree(self):
        machine = build_gpu_workstation(SIM4090)
        via_machine = calibrate(machine, source="gpu0", seed=3,
                                calibrator="oracle")
        machine2 = build_gpu_workstation(SIM4090)
        via_gpu = calibrate(machine2.component("gpu0"), seed=3,
                            calibrator="oracle")
        assert via_machine.model.unit_energies \
            == via_gpu.model.unit_energies
        assert via_machine.source == via_gpu.source == "gpu0"

    def test_epoch_provenance(self):
        machine = build_gpu_workstation(SIM4090)
        epoch = calibrate(machine, source="gpu0", seed=3,
                          calibrator="oracle")
        assert epoch.epoch == 0
        assert epoch.calibrator == "oracle"
        assert epoch.calibrated_at == pytest.approx(machine.now)

    def test_oracle_matches_spec_exactly(self):
        machine = build_gpu_workstation(SIM4090)
        model = calibrate(machine, source="gpu0",
                          calibrator="oracle").model
        assert model.unit_energies["instructions"] == SIM4090.e_instruction
        assert model.static_power_w == SIM4090.p_static_w
        assert model.residual_rms == 0.0

    def test_microbench_defaults_close_to_spec(self):
        machine = build_gpu_workstation(SIM4090)
        epoch = calibrate(machine, source="gpu0", seed=1)
        assert epoch.calibrator == "microbench"
        assert epoch.model.static_power_w == pytest.approx(
            SIM4090.p_static_w, rel=0.05)

    def test_seed_determinism(self):
        models = [calibrate(build_gpu_workstation(SIM4090),
                            source="gpu0", seed=11).model
                  for _ in range(2)]
        assert models[0].unit_energies == models[1].unit_energies

    def test_microbench_requires_nvml(self):
        machine = build_gpu_workstation(SIM4090)
        with pytest.raises(MeasurementError, match="NVML"):
            MicrobenchCalibrator().calibrate_device(
                machine.component("gpu0"), None)


def snap_to_bin_centers(epoch):
    """Move each unit energy to its quantisation-bin center, so a jitter
    smaller than half a quantum provably cannot flip any rounded print."""
    import math
    from dataclasses import replace

    from repro.calibration.api import DEFAULT_UNIT_QUANTUM as q
    units = {m: math.exp(round(math.log(v) / q) * q)
             for m, v in epoch.model.unit_energies.items()}
    return replace(epoch, model=replace(epoch.model, unit_energies=units))


class TestEpochFingerprint:
    def test_sub_quantum_change_shares_fingerprint(self):
        from dataclasses import replace
        machine = build_gpu_workstation(SIM4090)
        epoch = snap_to_bin_centers(
            calibrate(machine, source="gpu0", calibrator="oracle"))
        jittered = {m: v * 1.001
                    for m, v in epoch.model.unit_energies.items()}
        bumped = epoch.advanced(replace(epoch.model,
                                        unit_energies=jittered),
                                at=machine.now)
        assert bumped.fingerprint() == epoch.fingerprint()
        assert bumped.epoch == epoch.epoch + 1

    def test_super_quantum_change_mints_new_fingerprint(self):
        from dataclasses import replace
        machine = build_gpu_workstation(SIM4090)
        epoch = calibrate(machine, source="gpu0", calibrator="oracle")
        drifted = {m: v * 1.10
                   for m, v in epoch.model.unit_energies.items()}
        bumped = epoch.advanced(replace(epoch.model,
                                        unit_energies=drifted),
                                at=machine.now)
        assert bumped.fingerprint() != epoch.fingerprint()
