"""A counter-level GPU simulator — the substrate for the §5 experiment.

The paper's preliminary experiment models GPT-2 inference energy "in terms
of static power, VRAM sector reads/writes, L2 sector reads/writes, L1
wavefront reads/writes, and instruction executions".  This simulator
produces exactly those quantities: kernels are described by their counter
footprint (:class:`KernelProfile`), the GPU executes them with a
roofline-style duration model, accounts dynamic energy per counter, and
accrues static power (with temperature-dependent leakage) between and
during kernels.

Realism knobs that create honest prediction error for the energy
interface, mirroring why the paper saw 0.7 % error on an RTX 4090 but
6 % on an RTX 3070:

* **DRAM row activations** — a per-kernel fraction of VRAM sectors pays a
  row-activation energy that is *not* exposed as a counter, so interfaces
  (and the least-squares calibration) can only absorb its average.
* **Kernel-launch overhead** — fixed driver/scheduling energy per launch.
* **Thermal leakage** — static power rises with die temperature, so long
  runs drift away from a constant-static-power model.

The counters the GPU *does* expose (:class:`GPUCounters`) are the ones an
Nsight-Compute-style profiler would report; the NVML-style power/energy
reader lives in :mod:`repro.measurement.nvml`.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, replace

from repro.core.errors import HardwareError
from repro.hardware.component import Component
from repro.hardware.ledger import EnergyLedger
from repro.hardware.thermal import LeakageModel, ThermalNode

__all__ = ["GPUSpec", "KernelProfile", "GPUCounters", "GPU"]

#: Bytes per L2/VRAM sector and per L1 wavefront (Nvidia conventions).
SECTOR_BYTES = 32
WAVEFRONT_BYTES = 128

#: Records :meth:`GPU.launch_many` stages before one ledger write: enough
#: to amortise the call, few enough that the stage stays small.
_STAGE_RECORDS = 4096

_INF = math.inf


class _Stage:
    """Records on their way to one :meth:`EnergyLedger.log_many` call.

    :meth:`log` takes :meth:`EnergyLedger.log`'s arguments, so during
    :meth:`GPU.launch_many` the stage also stands in for the ledger of
    the components whose ``on_advance`` it calls.
    """

    def __init__(self, ledger: EnergyLedger) -> None:
        self.ledger = ledger
        self.columns = ([], [], array("d"), array("d"), array("d"), [])

    def log(self, component: str, domain: str, t_start: float, t_end: float,
            joules: float, tag: str = "") -> None:
        """Stage a record; one the ledger would refuse goes straight to
        :meth:`EnergyLedger.log`, to raise there with the stage written."""
        if not (-_INF < t_start <= t_end < _INF and 0.0 <= joules < _INF):
            self.flush()
            self.ledger.log(component, domain, t_start, t_end, joules, tag)
            return
        components, domains, starts, ends, values, tags = self.columns
        components.append(component)
        domains.append(domain)
        starts.append(t_start)
        ends.append(t_end)
        values.append(joules)
        tags.append(tag)

    def flush(self) -> None:
        """Write what is staged; the stage is empty even if that raises."""
        if not self.columns[2]:
            return
        try:
            self.ledger.log_many(*self.columns)
        finally:
            for column in self.columns:
                del column[:]


@dataclass(frozen=True)
class GPUSpec:
    """Energy and throughput characteristics of a GPU model.

    Per-event energies are in Joules; rates are events per second.
    ``e_vram_row_activate`` and ``row_miss_fraction_default`` model the
    hidden DRAM row-activation cost described in the module docstring.
    """

    name: str
    # per-event dynamic energy
    e_instruction: float
    e_l1_wavefront: float
    e_l2_sector: float
    e_vram_sector: float
    e_vram_row_activate: float
    e_kernel_launch: float
    # static power and thermals
    p_static_w: float
    thermal_r: float
    thermal_c: float
    leakage_coeff: float
    t_ambient: float = 25.0
    # throughput (roofline duration model)
    instr_rate: float = 1e13          # warp instructions / s
    l1_rate: float = 4e12             # wavefronts / s
    l2_rate: float = 1.5e11           # sectors / s
    vram_rate: float = 3.0e10         # sectors / s
    kernel_launch_latency: float = 4e-6   # s per launch
    row_miss_fraction_default: float = 0.05

    def __post_init__(self) -> None:
        for attr in ("e_instruction", "e_l1_wavefront", "e_l2_sector",
                     "e_vram_sector", "e_vram_row_activate", "e_kernel_launch",
                     "p_static_w", "instr_rate", "l1_rate", "l2_rate",
                     "vram_rate"):
            if getattr(self, attr) < 0:
                raise HardwareError(f"GPU spec {self.name!r}: {attr} must be >= 0")


@dataclass(frozen=True)
class KernelProfile:
    """The counter footprint of one kernel launch.

    ``row_miss_fraction`` is the fraction of VRAM sectors that open a new
    DRAM row — large streaming kernels have low fractions, scattered
    accesses high ones.  ``None`` uses the GPU spec's default.
    """

    name: str
    instructions: float = 0.0
    l1_wavefronts: float = 0.0
    l2_sectors: float = 0.0
    vram_sectors: float = 0.0
    row_miss_fraction: float | None = None

    def __post_init__(self) -> None:
        for attr in ("instructions", "l1_wavefronts", "l2_sectors",
                     "vram_sectors"):
            if getattr(self, attr) < 0:
                raise HardwareError(f"kernel {self.name!r}: {attr} must be >= 0")
        if self.row_miss_fraction is not None and not (
                0.0 <= self.row_miss_fraction <= 1.0):
            raise HardwareError(
                f"kernel {self.name!r}: row_miss_fraction must be in [0, 1]")

    def scaled(self, factor: float) -> "KernelProfile":
        """The same kernel with all counters scaled by ``factor``."""
        return replace(
            self,
            instructions=self.instructions * factor,
            l1_wavefronts=self.l1_wavefronts * factor,
            l2_sectors=self.l2_sectors * factor,
            vram_sectors=self.vram_sectors * factor,
        )


@dataclass
class GPUCounters:
    """Cumulative profiler-visible counters (Nsight-style)."""

    instructions: float = 0.0
    l1_wavefronts: float = 0.0
    l2_sectors: float = 0.0
    vram_sectors: float = 0.0
    kernel_launches: int = 0
    busy_seconds: float = 0.0

    def snapshot(self) -> "GPUCounters":
        """An independent copy of the current values."""
        return GPUCounters(self.instructions, self.l1_wavefronts,
                           self.l2_sectors, self.vram_sectors,
                           self.kernel_launches, self.busy_seconds)

    def delta(self, earlier: "GPUCounters") -> "GPUCounters":
        """Counter increments since an earlier snapshot."""
        return GPUCounters(
            self.instructions - earlier.instructions,
            self.l1_wavefronts - earlier.l1_wavefronts,
            self.l2_sectors - earlier.l2_sectors,
            self.vram_sectors - earlier.vram_sectors,
            self.kernel_launches - earlier.kernel_launches,
            self.busy_seconds - earlier.busy_seconds,
        )

    def as_dict(self) -> dict[str, float]:
        """The counters as a plain dict (used by calibration fits)."""
        return {
            "instructions": self.instructions,
            "l1_wavefronts": self.l1_wavefronts,
            "l2_sectors": self.l2_sectors,
            "vram_sectors": self.vram_sectors,
            "kernel_launches": float(self.kernel_launches),
            "busy_seconds": self.busy_seconds,
        }


class GPU(Component):
    """A GPU executing kernels sequentially on the machine clock."""

    def __init__(self, name: str, spec: GPUSpec) -> None:
        super().__init__(name, domain="gpu")
        self.spec = spec
        self.counters = GPUCounters()
        self.thermal = ThermalNode(spec.thermal_r, spec.thermal_c,
                                   spec.t_ambient)
        self.leakage = LeakageModel(spec.leakage_coeff, t_ref=spec.t_ambient)
        #: Optional :class:`repro.calibration.ComponentDrift` (duck-typed):
        #: when set, per-event energies, static power and the ambient
        #: temperature wander away from the spec over machine time.
        self.drift = None

    # -- execution ----------------------------------------------------------
    def kernel_duration(self, kernel: KernelProfile) -> float:
        """Roofline duration: the slowest pipe bounds the kernel."""
        spec = self.spec
        times = (
            kernel.instructions / spec.instr_rate,
            kernel.l1_wavefronts / spec.l1_rate,
            kernel.l2_sectors / spec.l2_rate,
            kernel.vram_sectors / spec.vram_rate,
        )
        return max(times) + spec.kernel_launch_latency

    def _spec_dynamic_energy(self, kernel: KernelProfile) -> float:
        """Dynamic Joules for one launch at the spec's energies (no drift)."""
        spec = self.spec
        row_fraction = (kernel.row_miss_fraction
                        if kernel.row_miss_fraction is not None
                        else spec.row_miss_fraction_default)
        return (
            kernel.instructions * spec.e_instruction
            + kernel.l1_wavefronts * spec.e_l1_wavefront
            + kernel.l2_sectors * spec.e_l2_sector
            + kernel.vram_sectors * spec.e_vram_sector
            + kernel.vram_sectors * row_fraction * spec.e_vram_row_activate
            + spec.e_kernel_launch
        )

    def kernel_dynamic_energy(self, kernel: KernelProfile) -> float:
        """Ground-truth dynamic Joules for one launch (incl. hidden row cost)."""
        joules = self._spec_dynamic_energy(kernel)
        if self.drift is not None:
            joules *= self.drift.energy_factor(self.now)
        return joules

    def launch(self, kernel: KernelProfile, tag: str | None = None) -> float:
        """Execute a kernel now; returns its duration in seconds.

        Logs dynamic energy, bumps the profiler counters and advances the
        machine clock (static power accrues through
        :meth:`on_advance` during the kernel as well).
        """
        duration = self.kernel_duration(kernel)
        joules = self.kernel_dynamic_energy(kernel)
        t_start = self.now
        self.log_activity(t_start, t_start + duration, joules,
                          tag=tag if tag is not None else kernel.name)
        self.thermal.deposit(joules)
        counters = self.counters
        counters.instructions += kernel.instructions
        counters.l1_wavefronts += kernel.l1_wavefronts
        counters.l2_sectors += kernel.l2_sectors
        counters.vram_sectors += kernel.vram_sectors
        counters.kernel_launches += 1
        counters.busy_seconds += duration
        self.machine.advance(duration)
        return duration

    def launch_many(self, kernel: KernelProfile, *, min_launches: int = 0,
                    min_seconds: float = 0.0, tag: str | None = None) -> int:
        """Launch ``kernel`` back to back; returns how many launches ran.

        Launches while fewer than ``min_launches`` have run or less than
        ``min_seconds`` of machine time has passed, as a microbenchmark
        sweep does.  The ledger, clock, counters and temperatures end
        bitwise where the same :meth:`launch` calls would leave them: one
        loop does each launch's dynamic energy, clock step, static power,
        leakage, drift and thermal step in :meth:`launch`'s order, and
        every other component's clock step in attachment order.  A
        component that only draws :meth:`static_power` (the base
        :meth:`Component.on_advance`) is accounted inline; any other gets
        its ``on_advance`` call.  Records are staged and written with
        :meth:`EnergyLedger.log_many` a few thousand at a time.
        """
        if not (0 <= min_launches < _INF and 0.0 <= min_seconds < _INF):
            raise HardwareError(
                f"launch_many needs finite bounds >= 0, got "
                f"min_launches={min_launches}, min_seconds={min_seconds}")
        duration = self.kernel_duration(kernel)
        if not 0.0 <= duration < _INF:
            raise HardwareError(
                f"kernel {kernel.name!r} has duration {duration} s")
        if duration == 0.0 and min_seconds > 0.0:
            raise HardwareError(
                f"kernel {kernel.name!r} takes no time, so "
                f"min_seconds={min_seconds} is never reached")
        tag = tag if tag is not None else kernel.name
        machine, ledger = self.machine, self._ledger
        stage = _Stage(ledger)
        log, staged = stage.log, stage.columns[2]
        # This GPU's own records go straight into the stage's columns.
        (add_component, add_domain, add_start, add_end, add_joules,
         add_tag) = (column.append for column in stage.columns)
        name, domain = self.name, self.domain
        spec_joules = self._spec_dynamic_energy(kernel)
        drift, thermal = self.drift, self.thermal
        p_static = self.spec.p_static_w
        leak_k, leak_ref = self.leakage.coefficient, self.leakage.t_ref
        r_thermal, c_thermal = thermal.r_thermal, thermal.c_thermal
        quarter_tau = 0.25 * (r_thermal * c_thermal)
        # Each component's clock step, in attachment order: this GPU
        # (None), a static_power() draw (True) or its on_advance (False).
        plan = [(component, None if component is self else
                 type(component).on_advance is Component.on_advance)
                for component in machine.components]
        # The rest log through the stage too, so records keep their order.
        foreign = [component for component, static_only in plan
                   if static_only is False]
        for component in foreign:
            component._ledger = stage
        # The counters add up in locals, written back however the loop ends.
        counters = self.counters
        instructions = counters.instructions
        l1_wavefronts = counters.l1_wavefronts
        l2_sectors = counters.l2_sectors
        vram_sectors = counters.vram_sectors
        busy_seconds = counters.busy_seconds
        launched = counters.kernel_launches
        k_instructions = kernel.instructions
        k_l1_wavefronts = kernel.l1_wavefronts
        k_l2_sectors = kernel.l2_sectors
        k_vram_sectors = kernel.vram_sectors
        launches = 0
        t_begin = now = machine.now
        try:
            while launches < min_launches or now - t_begin < min_seconds:
                t_start = now
                joules = spec_joules
                if drift is not None:
                    joules *= drift.energy_factor(t_start)
                t_end = t_start + duration
                if 0.0 <= joules < _INF and t_end < _INF:
                    add_component(name)
                    add_domain(domain)
                    add_start(t_start)
                    add_end(t_end)
                    add_joules(joules)
                    add_tag(tag)
                else:
                    log(name, domain, t_start, t_end, joules, tag)
                thermal._pending_joules += joules
                instructions += k_instructions
                l1_wavefronts += k_l1_wavefronts
                l2_sectors += k_l2_sectors
                vram_sectors += k_vram_sectors
                busy_seconds += duration
                launches += 1
                if duration == 0.0:
                    # Machine.advance returns early on a zero step.
                    continue
                machine._now = now = t_end
                dt = t_end - t_start
                for component, static_only in plan:
                    if static_only is False:
                        component.on_advance(t_start, t_end)
                    elif dt <= 0:
                        continue
                    elif static_only:
                        power = component.static_power()
                        if power > 0:
                            log(component.name, component.domain, t_start,
                                t_end, power * dt, "static")
                    else:
                        # on_advance, static_power, LeakageModel.factor and
                        # ThermalNode.step, in that order.
                        if drift is not None:
                            drift.advance(thermal, t_start)
                        leak = 1.0 + leak_k * (thermal.temperature - leak_ref)
                        power = p_static * (leak if leak > 0.0 else 0.0)
                        if drift is not None:
                            power *= drift.static_factor(t_end)
                        static = power * dt
                        heat = thermal._pending_joules
                        if static > 0:
                            if static < _INF:
                                add_component(name)
                                add_domain(domain)
                                add_start(t_start)
                                add_end(t_end)
                                add_joules(static)
                                add_tag("static")
                            else:
                                log(name, domain, t_start, t_end, static,
                                    "static")
                            heat += static
                        power_in = heat / dt
                        thermal._pending_joules = 0.0
                        substeps = int(dt / quarter_tau) + 1
                        h = dt / substeps
                        temperature = thermal.temperature
                        t_ambient = thermal.t_ambient
                        for _ in range(substeps):
                            cooling = (temperature - t_ambient) / r_thermal
                            temperature += (h * (power_in - cooling)
                                            / c_thermal)
                        thermal.temperature = temperature
                if len(staged) >= _STAGE_RECORDS:
                    stage.flush()
        finally:
            counters.instructions = instructions
            counters.l1_wavefronts = l1_wavefronts
            counters.l2_sectors = l2_sectors
            counters.vram_sectors = vram_sectors
            counters.busy_seconds = busy_seconds
            counters.kernel_launches = launched + launches
            for component in foreign:
                component._ledger = ledger
            stage.flush()
        return launches

    def idle(self, dt: float) -> None:
        """Let the GPU sit idle for ``dt`` seconds (static power accrues)."""
        if dt < 0:
            raise HardwareError(f"cannot idle for {dt} s")
        self.machine.advance(dt)

    # -- state ------------------------------------------------------------------
    @property
    def temperature(self) -> float:
        """Die temperature in Celsius."""
        return self.thermal.temperature

    def static_power(self) -> float:
        power = self.spec.p_static_w * self.leakage.factor(
            self.thermal.temperature)
        if self.drift is not None:
            power *= self.drift.static_factor(self.now)
        return power

    def on_advance(self, t_start: float, t_end: float) -> None:
        dt = t_end - t_start
        if dt <= 0:
            return
        if self.drift is not None:
            self.drift.advance(self.thermal, t_start)
        power = self.static_power()
        joules = power * dt
        if joules > 0:
            self.log_activity(t_start, t_end, joules, tag="static")
            self.thermal.deposit(joules)
        self.thermal.step(dt)
