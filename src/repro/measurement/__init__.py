"""Simulated measurement channels: NVML, RAPL, meters, calibration."""

from repro.measurement.calibration import (
    DYNAMIC_METRICS,
    METRICS,
    CalibratedModel,
    fit_unit_energies,
    measure_static_power,
)
from repro.measurement.meter import (
    EnergyMeter,
    Measurement,
    attach_measurement,
    divergence_by_layer,
    ledger_meter,
    nvml_meter,
    rapl_meter,
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
from repro.measurement.nvml import SENSOR_PROFILES, NVMLSensorProfile, NVMLSim
from repro.measurement.rapl import RAPL_DOMAINS, RAPLEnergyCounter, RAPLSim

__all__ = [
    "NVMLSim", "NVMLSensorProfile", "SENSOR_PROFILES",
    "RAPLSim", "RAPLEnergyCounter", "RAPL_DOMAINS",
    "EnergyMeter", "Measurement", "ledger_meter", "nvml_meter", "rapl_meter",
    "attach_measurement", "divergence_by_layer",
    "MicrobenchSample", "pointer_chase", "stream", "compute", "scatter",
    "default_suite", "run_suite",
    "CalibratedModel", "fit_unit_energies", "measure_static_power",
    "METRICS", "DYNAMIC_METRICS",
]
