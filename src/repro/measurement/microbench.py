"""GPU microbenchmarks for unit-energy calibration.

The paper calibrated its hardware energy interfaces by running the
``gpu-cache`` microbenchmark under Nsight Compute and measuring "the
energy for the individual metrics".  This module is our analogue: a small
suite of kernels whose counter footprints span the metric space —

* ``pointer_chase(footprint)`` — latency-bound loads whose hit level
  (L1 / L2 / VRAM) follows the footprint, exactly like gpu-cache;
* ``stream(n)`` — bandwidth-bound streaming with high row locality;
* ``compute(n)`` — ALU-bound FMA loops, negligible memory traffic;
* ``scatter(n)`` — random-access loads with poor row locality.

Running the suite yields :class:`MicrobenchSample` rows — (counter deltas,
measured Joules, duration) — from which
:mod:`repro.measurement.calibration` recovers per-metric unit energies by
least squares.  Because measurement happens through the NVML channel and
row-activation energy is invisible to the counters, the recovered values
carry realistic calibration error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.errors import MeasurementError
from repro.hardware.gpu import GPU, KernelProfile, SECTOR_BYTES, WAVEFRONT_BYTES
from repro.measurement.nvml import NVMLSim

__all__ = ["MicrobenchSample", "pointer_chase", "stream", "compute",
           "scatter", "default_suite", "run_suite"]

#: Cache capacities assumed by the footprint sweep (bytes).
L1_CAPACITY = 128 * 1024
L2_CAPACITY = 48 * 1024 * 1024


@dataclass(frozen=True)
class MicrobenchSample:
    """One calibration observation."""

    kernel: str
    counters: dict[str, float]
    measured_joules: float
    duration: float


def pointer_chase(footprint_bytes: int, accesses: float = 4e6) -> KernelProfile:
    """Dependent loads over a ``footprint_bytes`` working set.

    Small footprints hit L1; mid-size footprints hit L2; large footprints
    stream from VRAM.  Every access executes a handful of instructions
    (address arithmetic + load), as in gpu-cache.
    """
    if footprint_bytes <= 0:
        raise MeasurementError("footprint must be positive")
    instructions = accesses * 4
    l1_wavefronts = accesses  # every load consults L1
    if footprint_bytes <= L1_CAPACITY:
        l2_sectors = accesses * 0.02
        vram_sectors = accesses * 0.002
        row_miss = 0.01
    elif footprint_bytes <= L2_CAPACITY:
        l2_sectors = accesses
        vram_sectors = accesses * 0.05
        row_miss = 0.02
    else:
        l2_sectors = accesses
        vram_sectors = accesses
        row_miss = 0.03
    return KernelProfile(
        name=f"pointer_chase[{footprint_bytes}B]",
        instructions=instructions,
        l1_wavefronts=l1_wavefronts,
        l2_sectors=l2_sectors,
        vram_sectors=vram_sectors,
        row_miss_fraction=row_miss,
    )


def stream(n_bytes: float = 256e6) -> KernelProfile:
    """Streaming triad: sequential read/write, excellent row locality."""
    if n_bytes <= 0:
        raise MeasurementError("stream size must be positive")
    vram_sectors = n_bytes / SECTOR_BYTES
    return KernelProfile(
        name=f"stream[{int(n_bytes)}B]",
        instructions=n_bytes / WAVEFRONT_BYTES * 6,
        l1_wavefronts=n_bytes / WAVEFRONT_BYTES,
        l2_sectors=vram_sectors,
        vram_sectors=vram_sectors,
        row_miss_fraction=0.015,
    )


def compute(n_instructions: float = 2e9) -> KernelProfile:
    """ALU-bound FMA loop: isolates instruction energy."""
    if n_instructions <= 0:
        raise MeasurementError("instruction count must be positive")
    return KernelProfile(
        name=f"compute[{int(n_instructions)}]",
        instructions=n_instructions,
        l1_wavefronts=n_instructions * 0.01,
        l2_sectors=n_instructions * 0.001,
        vram_sectors=n_instructions * 0.0001,
        row_miss_fraction=0.02,
    )


def scatter(n_accesses: float = 3e6) -> KernelProfile:
    """Random-access loads: every access misses rows aggressively."""
    if n_accesses <= 0:
        raise MeasurementError("access count must be positive")
    return KernelProfile(
        name=f"scatter[{int(n_accesses)}]",
        instructions=n_accesses * 6,
        l1_wavefronts=n_accesses,
        l2_sectors=n_accesses,
        vram_sectors=n_accesses,
        row_miss_fraction=0.25,
    )


def default_suite() -> list[KernelProfile]:
    """The calibration suite: a footprint sweep plus the corner kernels."""
    footprints = [32 * 1024, 64 * 1024, 512 * 1024, 4 * 1024 * 1024,
                  16 * 1024 * 1024, 96 * 1024 * 1024, 512 * 1024 * 1024]
    suite = [pointer_chase(footprint) for footprint in footprints]
    suite.extend([
        stream(64e6), stream(256e6), stream(1e9),
        compute(5e8), compute(2e9), compute(8e9),
        scatter(1e6), scatter(4e6),
    ])
    return suite


def run_suite(gpu: GPU, nvml: NVMLSim,
              suite: list[KernelProfile] | None = None,
              repeats: int = 20,
              min_measure_seconds: float = 0.25,
              settle_seconds: float = 0.002) -> list[MicrobenchSample]:
    """Execute the suite, measuring each kernel group through NVML.

    Each kernel is launched back-to-back at least ``repeats`` times *and*
    for at least ``min_measure_seconds`` (as gpu-cache does) so the
    measured energy dwarfs counter quantisation and spans several counter
    update periods.  Returns one sample per kernel with the *counter
    deltas* an Nsight-style profiler would report.
    """
    if repeats < 1:
        raise MeasurementError("repeats must be >= 1")
    if not 0.0 < min_measure_seconds < math.inf:
        raise MeasurementError(
            f"min_measure_seconds must be finite and positive, got "
            f"{min_measure_seconds}")
    kernels = suite if suite is not None else default_suite()
    samples: list[MicrobenchSample] = []
    for kernel in kernels:
        gpu.idle(settle_seconds)
        before_counters = gpu.counters.snapshot()
        t_start = gpu.now
        gpu.launch_many(kernel, min_launches=repeats,
                        min_seconds=min_measure_seconds,
                        tag=f"microbench:{kernel.name}")
        t_end = gpu.now
        delta = gpu.counters.delta(before_counters)
        measured = nvml.measure_interval(t_start, t_end)
        samples.append(MicrobenchSample(
            kernel=kernel.name,
            counters=delta.as_dict(),
            measured_joules=measured,
            duration=t_end - t_start,
        ))
    return samples
