"""Least-squares recovery of per-metric unit energies.

Given microbenchmark samples (counter deltas + measured Joules), fit the
paper's linear energy model

``E = e_instr·instructions + e_l1·l1_wavefronts + e_l2·l2_sectors
     + e_vram·vram_sectors + e_launch·kernel_launches
     + p_static·duration``

by non-negative least squares (projected-gradient refinement on top of an
unconstrained ``lstsq`` seed — unit energies cannot be negative).  The
result, :class:`CalibratedModel`, is the *hardware energy interface* the
GPT-2 interface in :mod:`repro.llm.interface` grounds its abstract counts
with.  Because measurement is noisy and row-activation energy is hidden,
the fit differs from the simulator's ground truth — this calibration error
is one of the honest error sources benchmark T1 quantifies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.errors import MeasurementError
from repro.measurement.microbench import MicrobenchSample

__all__ = ["CalibratedModel", "fit_unit_energies", "measure_static_power",
           "measure_launch_energy", "METRICS",
           "DYNAMIC_METRICS"]

#: The model's regressors, in column order.
METRICS = ("instructions", "l1_wavefronts", "l2_sectors", "vram_sectors",
           "kernel_launches", "busy_seconds")

#: The dynamic (per-event) regressors, fitted once static power is known.
DYNAMIC_METRICS = METRICS[:-1]


@dataclass(frozen=True)
class CalibratedModel:
    """Per-metric unit energies recovered from calibration."""

    gpu_name: str
    unit_energies: dict[str, float]   # J per event; busy_seconds -> Watts
    residual_rms: float               # RMS relative residual over samples
    n_samples: int

    def predict_joules(self, counters: dict[str, float]) -> float:
        """The linear model applied to a counter vector."""
        return sum(self.unit_energies[metric] * counters.get(metric, 0.0)
                   for metric in METRICS)

    @property
    def static_power_w(self) -> float:
        """The fitted static power (coefficient of busy_seconds)."""
        return self.unit_energies["busy_seconds"]

    def to_json(self) -> str:
        """Serialise the calibrated interface (shareable, versionable).

        Vendors shipping hardware energy interfaces (§3) would publish
        exactly this: the per-metric unit costs plus provenance.
        """
        import json

        return json.dumps({
            "format": "repro.calibrated-model/1",
            "gpu_name": self.gpu_name,
            "unit_energies": self.unit_energies,
            "residual_rms": self.residual_rms,
            "n_samples": self.n_samples,
        }, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, payload: str) -> "CalibratedModel":
        """Load a serialised calibrated interface."""
        import json

        data = json.loads(payload)
        if data.get("format") != "repro.calibrated-model/1":
            raise MeasurementError(
                f"unknown calibration format {data.get('format')!r}")
        missing = set(METRICS) - set(data.get("unit_energies", {}))
        if missing:
            raise MeasurementError(
                f"calibration payload missing metrics: {sorted(missing)}")
        return cls(
            gpu_name=data["gpu_name"],
            unit_energies={metric: float(value) for metric, value
                           in data["unit_energies"].items()},
            residual_rms=float(data["residual_rms"]),
            n_samples=int(data["n_samples"]),
        )

    def describe(self) -> str:
        """Human-readable rendering of the calibrated interface."""
        lines = [f"calibrated hardware energy interface for {self.gpu_name}"]
        for metric in METRICS:
            value = self.unit_energies[metric]
            unit = "W" if metric == "busy_seconds" else "J/event"
            lines.append(f"  {metric:16s} = {value:.4e} {unit}")
        lines.append(f"  fit residual (RMS, relative): {self.residual_rms:.2%} "
                     f"over {self.n_samples} samples")
        return "\n".join(lines)


def _project_nonnegative(design: np.ndarray, target: np.ndarray,
                         seed: np.ndarray, iterations: int = 2000) -> np.ndarray:
    """Projected-gradient refinement enforcing non-negative coefficients."""
    coeffs = np.clip(seed, 0.0, None)
    # Lipschitz step from the largest eigenvalue of the normal matrix.
    gram = design.T @ design
    step = 1.0 / max(np.linalg.eigvalsh(gram).max(), 1e-30)
    for _ in range(iterations):
        gradient = design.T @ (design @ coeffs - target)
        updated = np.clip(coeffs - step * gradient, 0.0, None)
        if np.allclose(updated, coeffs, rtol=1e-12, atol=0.0):
            break
        coeffs = updated
    return coeffs


def fit_unit_energies(samples: list[MicrobenchSample],
                      gpu_name: str = "gpu",
                      fixed: dict[str, float] | None = None) -> CalibratedModel:
    """Fit the linear counter model to microbenchmark observations.

    ``fixed`` pins coefficients measured out-of-band — static power from an
    idle window (:func:`measure_static_power`), launch overhead from an
    empty-kernel sweep (:func:`measure_launch_energy`).  Their contribution
    is subtracted from every sample and only the remaining coefficients
    are fitted.  Pinning matters for identifiability: all-busy
    microbenchmarks make the duration column collinear with the dominant
    counter, and the near-constant launch column otherwise soaks up every
    systematic residual.

    Rows are weighted by ``1 / target`` so every sample contributes its
    *relative* error — otherwise the large streaming kernels dominate and
    the compute-kernel coefficients drown in their residuals.
    """
    pinned = dict(fixed or {})
    for metric in pinned:
        if metric not in METRICS:
            raise MeasurementError(f"unknown pinned metric {metric!r}")
    fit_metrics = [metric for metric in METRICS if metric not in pinned]
    if len(samples) < len(fit_metrics):
        raise MeasurementError(
            f"need at least {len(fit_metrics)} samples to fit "
            f"{len(fit_metrics)} coefficients, got {len(samples)}")
    design = np.array([[sample.counters.get(metric, 0.0)
                        for metric in fit_metrics]
                       for sample in samples])
    measured = np.array([sample.measured_joules for sample in samples])
    if np.any(measured <= 0):
        raise MeasurementError("every calibration sample needs positive "
                               "measured energy")
    target = measured.copy()
    for metric, value in pinned.items():
        target -= value * np.array([sample.counters.get(metric, 0.0)
                                    for sample in samples])
    if np.any(target <= 0):
        raise MeasurementError(
            "pinned coefficients exceed measured energy for some samples; "
            "an out-of-band measurement looks wrong")
    weights = 1.0 / target
    weighted_design = design * weights[:, None]
    weighted_target = target * weights
    # Condition the columns so lstsq is numerically sane (counts span ~1e10).
    scales = np.maximum(np.abs(weighted_design).max(axis=0), 1e-30)
    seed, *_ = np.linalg.lstsq(weighted_design / scales, weighted_target,
                               rcond=None)
    coeffs = _project_nonnegative(weighted_design / scales, weighted_target,
                                  seed) / scales
    unit_energies = dict(zip(fit_metrics, (float(c) for c in coeffs)))
    unit_energies.update({metric: float(value)
                          for metric, value in pinned.items()})
    full = np.array([[sample.counters.get(metric, 0.0) for metric in METRICS]
                     for sample in samples])
    predictions = full @ np.array([unit_energies[m] for m in METRICS])
    residual_rms = float(np.sqrt(np.mean(
        ((predictions - measured) / measured) ** 2)))
    return CalibratedModel(gpu_name=gpu_name, unit_energies=unit_energies,
                           residual_rms=residual_rms, n_samples=len(samples))


def measure_static_power(gpu, nvml, seconds: float = 2.0,
                         settle_seconds: float = 0.05) -> float:
    """Estimate static power from an idle window, in Watts.

    The standard recipe: let the device settle, then difference the energy
    counter across an idle interval.  Note the estimate is taken at the
    device's *current* temperature — calibrating cold and predicting hot
    leaves a leakage gap, which is part of the realistic error budget.
    """
    if not 0.0 < seconds < math.inf:
        raise MeasurementError(
            f"idle measurement needs a finite positive duration, got "
            f"{seconds} s")
    gpu.idle(settle_seconds)
    t_start = gpu.now
    gpu.idle(seconds)
    measured = nvml.measure_interval(t_start, gpu.now)
    return measured / seconds


def measure_launch_energy(gpu, nvml, static_power_w: float,
                          seconds: float = 1.0) -> float:
    """Estimate per-launch overhead energy from an empty-kernel sweep.

    Launch a stream of no-op kernels, subtract the static contribution and
    divide by the launch count — the standard launch-overhead
    microbenchmark.
    """
    from repro.hardware.gpu import KernelProfile

    if not 0.0 < seconds < math.inf:
        raise MeasurementError(
            f"launch measurement needs a finite positive duration, got "
            f"{seconds} s")
    empty = KernelProfile("empty", instructions=32, row_miss_fraction=0.0)
    t_start = gpu.now
    launches = gpu.launch_many(empty, min_seconds=seconds,
                               tag="microbench:empty")
    measured = nvml.measure_interval(t_start, gpu.now)
    dynamic = measured - static_power_w * (gpu.now - t_start)
    return max(dynamic / launches, 0.0)
