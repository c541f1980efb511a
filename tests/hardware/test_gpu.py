"""Tests for the counter-level GPU simulator."""

import struct
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.mlservice import build_service_machine
from repro.calibration import DriftPlan
from repro.core.errors import HardwareError
from repro.hardware import gpu as gpu_module
from repro.hardware.gpu import GPU, GPUCounters, GPUSpec, KernelProfile
from repro.hardware.machine import Machine
from repro.hardware.profiles import SIM3070, SIM4090, build_gpu_workstation
from repro.measurement.nvml import NVMLSim


def small_spec(**overrides):
    base = dict(
        name="testgpu", e_instruction=1e-12, e_l1_wavefront=2e-12,
        e_l2_sector=4e-12, e_vram_sector=1e-9, e_vram_row_activate=4e-9,
        e_kernel_launch=1e-6, p_static_w=10.0, thermal_r=0.1,
        thermal_c=100.0, leakage_coeff=0.001, instr_rate=1e12,
        l1_rate=1e12, l2_rate=1e11, vram_rate=1e10,
        kernel_launch_latency=1e-6, row_miss_fraction_default=0.05,
    )
    base.update(overrides)
    return GPUSpec(**base)


def build(spec=None):
    machine = Machine("m")
    gpu = machine.add(GPU("gpu", spec if spec is not None else small_spec()))
    return machine, gpu


KERNEL = KernelProfile("k", instructions=1e6, l1_wavefronts=5e5,
                       l2_sectors=2e5, vram_sectors=1e5,
                       row_miss_fraction=0.1)


class TestSpecs:
    def test_negative_values_rejected(self):
        with pytest.raises(HardwareError):
            small_spec(e_vram_sector=-1.0)

    def test_kernel_validation(self):
        with pytest.raises(HardwareError):
            KernelProfile("bad", instructions=-1)
        with pytest.raises(HardwareError):
            KernelProfile("bad", row_miss_fraction=1.5)

    def test_kernel_scaling(self):
        scaled = KERNEL.scaled(2.0)
        assert scaled.instructions == 2e6
        assert scaled.vram_sectors == 2e5
        assert scaled.row_miss_fraction == KERNEL.row_miss_fraction


class TestDuration:
    def test_roofline_takes_slowest_pipe(self):
        _, gpu = build()
        # vram: 1e5 / 1e10 = 10 us dominates; + 1 us launch latency
        assert gpu.kernel_duration(KERNEL) == pytest.approx(11e-6)

    def test_compute_bound_kernel(self):
        _, gpu = build()
        kernel = KernelProfile("c", instructions=1e9)
        assert gpu.kernel_duration(kernel) == pytest.approx(1e-3 + 1e-6)


class TestEnergy:
    def test_dynamic_energy_formula(self):
        _, gpu = build()
        spec = gpu.spec
        expected = (1e6 * spec.e_instruction + 5e5 * spec.e_l1_wavefront
                    + 2e5 * spec.e_l2_sector + 1e5 * spec.e_vram_sector
                    + 1e5 * 0.1 * spec.e_vram_row_activate
                    + spec.e_kernel_launch)
        assert gpu.kernel_dynamic_energy(KERNEL) == pytest.approx(expected)

    def test_default_row_miss_used_when_unset(self):
        _, gpu = build()
        kernel = KernelProfile("k", vram_sectors=1e5)
        expected_row = 1e5 * 0.05 * gpu.spec.e_vram_row_activate
        total = gpu.kernel_dynamic_energy(kernel)
        no_row = 1e5 * gpu.spec.e_vram_sector + gpu.spec.e_kernel_launch
        assert total - no_row == pytest.approx(expected_row)

    def test_launch_accounts_dynamic_and_static(self):
        machine, gpu = build()
        duration = gpu.launch(KERNEL)
        total = machine.total_joules()
        expected = gpu.kernel_dynamic_energy(KERNEL) + 10.0 * duration
        assert total == pytest.approx(expected, rel=1e-6)

    def test_idle_accrues_static_only(self):
        machine, gpu = build()
        gpu.idle(2.0)
        assert machine.total_joules() == pytest.approx(20.0, rel=0.01)

    def test_idle_rejects_negative(self):
        _, gpu = build()
        with pytest.raises(HardwareError):
            gpu.idle(-1.0)

    @pytest.mark.parametrize("dt", [float("nan"), float("inf")])
    def test_idle_rejects_non_finite(self, dt):
        machine, gpu = build()
        with pytest.raises(HardwareError):
            gpu.idle(dt)
        assert machine.now == 0.0


class TestCounters:
    def test_counters_accumulate(self):
        _, gpu = build()
        gpu.launch(KERNEL)
        gpu.launch(KERNEL)
        assert gpu.counters.instructions == 2e6
        assert gpu.counters.kernel_launches == 2
        assert gpu.counters.busy_seconds == pytest.approx(22e-6)

    def test_snapshot_delta(self):
        _, gpu = build()
        gpu.launch(KERNEL)
        snap = gpu.counters.snapshot()
        gpu.launch(KERNEL)
        delta = gpu.counters.delta(snap)
        assert delta.instructions == 1e6
        assert delta.kernel_launches == 1

    def test_as_dict_keys(self):
        counters = GPUCounters()
        assert set(counters.as_dict()) == {
            "instructions", "l1_wavefronts", "l2_sectors", "vram_sectors",
            "kernel_launches", "busy_seconds"}

    @given(st.integers(min_value=1, max_value=20))
    @settings(max_examples=20, deadline=None)
    def test_counters_linear_in_launches(self, n):
        _, gpu = build()
        for _ in range(n):
            gpu.launch(KERNEL)
        assert gpu.counters.vram_sectors == pytest.approx(n * 1e5)


class TestThermals:
    def test_sustained_load_heats_die(self):
        _, gpu = build()
        hot_kernel = KernelProfile("h", instructions=1e11)
        gpu.launch(hot_kernel)
        assert gpu.temperature > 25.0

    def test_leakage_raises_static_power(self):
        _, gpu = build(small_spec(leakage_coeff=0.01))
        cold_power = gpu.static_power()
        gpu.launch(KernelProfile("h", instructions=1e11))
        assert gpu.static_power() > cold_power


class TestProfiles:
    def test_profile_relationships(self):
        """SIM3070 is less efficient per event than SIM4090 across the board."""
        assert SIM3070.e_instruction > SIM4090.e_instruction
        assert SIM3070.e_vram_sector > SIM4090.e_vram_sector
        assert SIM3070.e_vram_row_activate > SIM4090.e_vram_row_activate
        assert SIM3070.leakage_coeff > SIM4090.leakage_coeff
        assert SIM3070.vram_rate < SIM4090.vram_rate

    def test_workstation_builder(self):
        machine = build_gpu_workstation(SIM4090)
        names = {c.name for c in machine.components}
        assert "gpu0" in names and "dram0" in names

    def test_realistic_power_envelope(self):
        """A VRAM-saturating kernel should land in a plausible board power."""
        machine = build_gpu_workstation(SIM4090)
        gpu = machine.component("gpu0")
        stream = KernelProfile("s", vram_sectors=3.15e10 * 0.01,  # 10 ms
                               row_miss_fraction=0.02)
        duration = gpu.launch(stream)
        power = machine.total_joules() / duration
        assert 100.0 < power < 500.0


def launch_loop(gpu, kernel, min_launches=0, min_seconds=0.0, tag=None):
    """The per-launch sweep ``GPU.launch_many`` replaces: its oracle."""
    launches, t_begin = 0, gpu.now
    while launches < min_launches or gpu.now - t_begin < min_seconds:
        gpu.launch(kernel, tag=tag)
        launches += 1
    return launches


def bits(value):
    return struct.pack("<d", value)


def machine_state(machine, nvml, t_begin):
    """Everything a sweep leaves behind, as exact bits."""
    ledger, t_end = machine.ledger, machine.now
    windows = [(0.0, t_end), (t_begin, t_end), (t_begin, (t_begin + t_end) / 2)]
    state = {
        "records": [(r.component, r.domain, bits(r.t_start), bits(r.t_end),
                     bits(r.joules), r.tag) for r in ledger.records()],
        "total": bits(ledger.total_joules()),
        "by_tag": {tag: bits(j) for tag, j in ledger.by_tag().items()},
        "windows": [bits(ledger.energy_between(t0, t1, component))
                    for t0, t1 in windows for component in (None, "gpu0")],
        "nvml": [bits(nvml.total_energy_consumption_at(t))
                 for t in (t_begin, (t_begin + t_end) / 2, t_end)],
        "clock": bits(t_end),
    }
    for component in machine.components:
        thermal = getattr(component, "thermal", None)
        if thermal is not None:
            state[component.name] = [bits(thermal.temperature),
                                     bits(thermal._pending_joules),
                                     bits(thermal.t_ambient)]
        counters = getattr(component, "counters", None)
        if counters is not None:
            state[component.name + ":counters"] = {
                name: bits(value) for name, value in counters.as_dict().items()}
    return state


def twin(kind, spec, drift):
    """A machine with some history: warm GPU, a drift grid step (0.5 s)
    due 3 ms into the sweep, and on the service node a core still busy
    when the sweep starts."""
    machine = (build_gpu_workstation(spec) if kind == "workstation"
               else build_service_machine(spec))
    gpu = machine.component("gpu0")
    if drift is not None:
        drifting = ["gpu0"] if kind == "workstation" else ["gpu0", "pkg0"]
        DriftPlan.preset_for(drifting, drift, entropy=11).install(machine)
    gpu.idle(0.497)
    gpu.launch(KernelProfile("warm", instructions=4e7, vram_sectors=2e5))
    if kind == "service":
        core = machine.component("cpu1")
        core.execute_at(machine.now, work=2.0)
    return machine, gpu, NVMLSim(gpu, seed=5)


class TestLaunchMany:
    """``launch_many`` against the per-launch loop, on twin machines."""

    @given(kind=st.sampled_from(["workstation", "service"]),
           spec=st.sampled_from([SIM4090, SIM3070]),
           drift=st.sampled_from([None, "none", "gentle", "harsh"]),
           counts=st.tuples(*[st.sampled_from([0.0, 1.0, 1e5, 3e6])
                              for _ in range(4)]),
           row_miss=st.one_of(st.none(), st.floats(0.0, 1.0)),
           min_launches=st.integers(0, 40),
           min_seconds=st.sampled_from([0.0, 1e-4, 0.003, 0.02]),
           stage=st.sampled_from([1, 7, 4096]))
    @settings(max_examples=40, deadline=None)
    def test_matches_launch_loop_bitwise(self, kind, spec, drift, counts,
                                         row_miss, min_launches, min_seconds,
                                         stage):
        kernel = KernelProfile("k", *counts, row_miss_fraction=row_miss)
        (m_loop, g_loop, n_loop), (m_many, g_many, n_many) = (
            twin(kind, spec, drift), twin(kind, spec, drift))
        t_begin = m_loop.now
        expected = launch_loop(g_loop, kernel, min_launches, min_seconds,
                               tag="sweep")
        with mock.patch.object(gpu_module, "_STAGE_RECORDS", stage):
            launched = g_many.launch_many(kernel, min_launches=min_launches,
                                          min_seconds=min_seconds, tag="sweep")
        assert launched == expected
        assert machine_state(m_many, n_many, t_begin) == \
            machine_state(m_loop, n_loop, t_begin)

    @pytest.mark.parametrize("instructions", [0.0, 1e6])
    def test_invalid_energy_raises_as_launch_does(self, instructions):
        """inf x 0 is NaN energy, inf x 1e6 inf: both paths refuse the
        first launch with the same error and log no invalid record."""
        spec = replace(SIM4090, e_instruction=float("inf"))
        kernel = KernelProfile("bad", instructions=instructions)
        m_loop, m_many = build_gpu_workstation(spec), build_gpu_workstation(spec)
        g_loop, g_many = m_loop.component("gpu0"), m_many.component("gpu0")
        n_loop, n_many = NVMLSim(g_loop, seed=5), NVMLSim(g_many, seed=5)
        g_loop.idle(0.003)
        g_many.idle(0.003)
        t_begin = m_loop.now
        with pytest.raises(HardwareError) as per_launch:
            launch_loop(g_loop, kernel, min_seconds=0.01)
        with pytest.raises(HardwareError) as fused:
            g_many.launch_many(kernel, min_seconds=0.01)
        assert str(fused.value) == str(per_launch.value)
        assert "non-finite energy" in str(fused.value)
        # records() rebuilds every record, so an invalid one would raise.
        assert machine_state(m_many, n_many, t_begin) == \
            machine_state(m_loop, n_loop, t_begin)

    @pytest.mark.parametrize("bounds", [
        dict(min_seconds=float("nan")), dict(min_seconds=float("inf")),
        dict(min_seconds=-1.0), dict(min_launches=float("inf")),
        dict(min_launches=-1)])
    def test_refuses_bad_bounds(self, bounds):
        machine, gpu = build()
        with pytest.raises(HardwareError, match="finite bounds"):
            gpu.launch_many(KERNEL, **bounds)
        assert machine.now == 0.0 and len(machine.ledger) == 0

    def test_refuses_a_time_bound_no_launch_can_reach(self):
        machine, gpu = build(small_spec(kernel_launch_latency=0.0))
        with pytest.raises(HardwareError, match="never reached"):
            gpu.launch_many(KernelProfile("nothing"), min_seconds=0.1)
        assert gpu.launch_many(KernelProfile("nothing"), min_launches=3) == 3
        assert machine.now == 0.0
