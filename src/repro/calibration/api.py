"""The unified Calibrator API: one entry point for every calibration.

Calibration goes through the same three-piece seam
:mod:`repro.core.predict` uses for prediction backends:

* a :class:`Calibrator` protocol (strategy for producing a
  :class:`~repro.measurement.calibration.CalibratedModel` from a device),
* a ``CALIBRATORS`` registry with :func:`register_calibrator` /
  :func:`resolve_calibrator` so policies and CLIs select by name, and
* a canonical keyword-only :func:`calibrate` entry point returning a
  versioned :class:`CalibrationEpoch`.

Epochs are the freshness currency: their quantised fingerprint feeds the
PR-7 ``CompileCache`` invalidation seam (sub-quantum recalibration keeps
compiled kernels warm; real drift mints a new epoch and drops them), and
the streaming recalibrator (:mod:`repro.calibration.recalibrate`) bumps
the epoch counter whenever its running fit crosses a quantum boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from repro.core.errors import MeasurementError
from repro.measurement.calibration import (METRICS, CalibratedModel,
                                           fit_unit_energies,
                                           measure_launch_energy,
                                           measure_static_power)

__all__ = [
    "Calibrator",
    "MicrobenchCalibrator",
    "OracleCalibrator",
    "CALIBRATORS",
    "register_calibrator",
    "resolve_calibrator",
    "CalibrationEpoch",
    "calibrate",
    "DEFAULT_UNIT_QUANTUM",
]

#: Relative quantisation step for epoch fingerprints, in log space:
#: unit energies within ~1.6 % of each other share a fingerprint, so
#: sub-quantum recalibration jitter never invalidates compiled kernels.
#: Matches the spirit of ``DEFAULT_P_QUANTUM`` on the session seam.
DEFAULT_UNIT_QUANTUM = 1.0 / 64.0


class Calibrator:
    """Strategy protocol producing a calibrated model from one device.

    Subclasses implement :meth:`calibrate_device`; ``name`` is the
    registry key.  Knobs a strategy does not understand are rejected, so
    typos fail loudly rather than silently skewing a calibration.
    """

    name = "abstract"

    def calibrate_device(self, gpu, nvml, **knobs) -> CalibratedModel:
        """Produce a :class:`CalibratedModel` for ``gpu``."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class MicrobenchCalibrator(Calibrator):
    """The full §5 microbenchmark recipe, behind the protocol.

    Idle window for static power, empty-kernel sweep for launch
    overhead, then the weighted non-negative least-squares suite fit.
    Runs on the machine clock and reads the device through its NVML
    channel, so calibration error is honest (sensor gain, noise, hidden
    row-activation costs).
    """

    name = "microbench"

    def calibrate_device(self, gpu, nvml, *, suite=None, repeats: int = 20,
                         min_measure_seconds: float = 0.25,
                         idle_seconds: float = 2.0) -> CalibratedModel:
        from repro.measurement.microbench import run_suite

        if nvml is None:
            raise MeasurementError(
                "microbench calibration needs an NVML channel")
        static_power = measure_static_power(gpu, nvml, seconds=idle_seconds)
        launch_energy = measure_launch_energy(gpu, nvml, static_power)
        samples = run_suite(gpu, nvml, suite=suite, repeats=repeats,
                            min_measure_seconds=min_measure_seconds)
        return fit_unit_energies(
            samples, gpu_name=gpu.spec.name,
            fixed={"busy_seconds": static_power,
                   "kernel_launches": launch_energy})


class OracleCalibrator(Calibrator):
    """Ground-truth unit energies straight from the simulator spec.

    The ablation calibrator (benchmark T1's ``oracle_model``): perfect
    per-event energies with zero residual, isolating sensor and
    unmodelled-physics error from calibration error.  Needs no NVML
    channel and consumes no machine time.
    """

    name = "oracle"

    def calibrate_device(self, gpu, nvml=None, **knobs) -> CalibratedModel:
        spec = gpu.spec
        return CalibratedModel(spec.name, {
            "instructions": spec.e_instruction,
            "l1_wavefronts": spec.e_l1_wavefront,
            "l2_sectors": spec.e_l2_sector,
            "vram_sectors": spec.e_vram_sector,
            "kernel_launches": spec.e_kernel_launch,
            "busy_seconds": spec.p_static_w,
        }, residual_rms=0.0, n_samples=0)


_MICROBENCH = MicrobenchCalibrator()
_ORACLE = OracleCalibrator()

#: Named calibrator registry (CLI flags, scenario configs).
CALIBRATORS: dict[str, Calibrator] = {
    "microbench": _MICROBENCH,
    "oracle": _ORACLE,
}


def register_calibrator(calibrator: Calibrator) -> Calibrator:
    """Register a calibrator under its ``name`` (later wins)."""
    CALIBRATORS[calibrator.name] = calibrator
    return calibrator


def resolve_calibrator(calibrator: "str | Calibrator | None") -> Calibrator:
    """Resolve a calibrator name (or instance) to a strategy.

    ``None`` means the default :class:`MicrobenchCalibrator` — the
    paper's recipe.
    """
    if calibrator is None:
        return _MICROBENCH
    if isinstance(calibrator, Calibrator):
        return calibrator
    try:
        return CALIBRATORS[calibrator]
    except (KeyError, TypeError):
        raise MeasurementError(
            f"unknown calibrator {calibrator!r}; expected one of "
            f"{sorted(CALIBRATORS)} or a Calibrator instance") from None


@dataclass(frozen=True)
class CalibrationEpoch:
    """A versioned calibration: the model plus its provenance.

    ``epoch`` increments each time the streaming recalibrator's running
    fit crosses a fingerprint quantum; consumers compare
    :meth:`fingerprint` (or just ``epoch``) to decide whether compiled
    kernels, admission bounds or cached predictions are still grounded
    in current hardware behaviour.
    """

    epoch: int
    model: CalibratedModel
    source: str                 # component name the model grounds
    calibrator: str             # strategy that produced it
    calibrated_at: float        # machine time of calibration

    def predict_joules(self, counters: dict[str, float]) -> float:
        """Convenience passthrough to the model."""
        return self.model.predict_joules(counters)

    def fingerprint(self, quantum: float = DEFAULT_UNIT_QUANTUM
                    ) -> tuple[int, ...]:
        """Log-space quantised unit energies (plus identity).

        Relative quantisation: two models agree iff every unit energy
        matches within ~``quantum`` in log space, so recalibration
        jitter below the quantum keeps downstream caches warm while
        genuine drift changes the print.
        """
        prints = []
        for metric in METRICS:
            value = self.model.unit_energies[metric]
            prints.append(0 if value <= 0.0
                          else int(round(math.log(value) / quantum)))
        return (self.model.gpu_name, self.source, *prints)

    def advanced(self, model: CalibratedModel, at: float
                 ) -> "CalibrationEpoch":
        """The next epoch carrying a refreshed model."""
        return replace(self, epoch=self.epoch + 1, model=model,
                       calibrated_at=at)

    def describe(self) -> str:
        head = (f"calibration epoch {self.epoch} for {self.source} "
                f"({self.calibrator}, t={self.calibrated_at:.3f} s)")
        return head + "\n" + self.model.describe()


def calibrate(machine, *, source: str = "gpu0",
              calibrator: "str | Calibrator | None" = None,
              seed: int = 0, nvml=None, epoch: int = 0,
              **knobs) -> CalibrationEpoch:
    """The canonical calibration entry point.

    ``machine`` is a :class:`~repro.hardware.machine.Machine` (the
    device is looked up by ``source``) or a bare GPU component.  The
    NVML channel defaults to a fresh :class:`NVMLSim` on ``seed`` under
    the SeedSequence spawn discipline; pass ``nvml`` to share one
    channel between calibration and later measurement (so its noise
    stream is continuous across both).
    """
    strategy = resolve_calibrator(calibrator)
    gpu = machine.component(source) if hasattr(machine, "component") \
        else machine
    if nvml is None and strategy.name != "oracle":
        from repro.measurement.nvml import NVMLSim
        nvml = NVMLSim(gpu, seed=seed)
    model = strategy.calibrate_device(gpu, nvml, **knobs)
    return CalibrationEpoch(epoch=int(epoch), model=model,
                            source=getattr(gpu, "name", source),
                            calibrator=strategy.name,
                            calibrated_at=float(gpu.now))
