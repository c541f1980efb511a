"""Tests for DRAM and NIC components (incl. the radio side effect)."""

import pytest

from repro.core.errors import HardwareError
from repro.hardware.machine import Machine
from repro.hardware.memory import DRAM, DRAMSpec, LINE_BYTES
from repro.hardware.nic import NIC, NICSpec


def build_dram():
    machine = Machine("m")
    dram = machine.add(DRAM("dram", DRAMSpec(e_read_line=10e-9,
                                             e_write_line=20e-9,
                                             p_refresh_w=1.0,
                                             bandwidth_bytes=1e9)))
    return machine, dram


def build_nic():
    machine = Machine("m")
    nic = machine.add(NIC("nic", NICSpec(e_per_byte_tx=1e-9,
                                         e_per_byte_rx=0.5e-9,
                                         e_wake=0.01, wake_latency=0.001,
                                         p_idle_w=0.2, p_off_w=0.001,
                                         bandwidth_bytes=1e6)))
    return machine, nic


class TestDRAM:
    def test_access_energy_rounds_to_lines(self):
        _, dram = build_dram()
        assert dram.access_energy(bytes_read=1) == pytest.approx(10e-9)
        assert dram.access_energy(bytes_read=LINE_BYTES + 1) == \
            pytest.approx(20e-9)
        assert dram.access_energy(bytes_written=LINE_BYTES) == \
            pytest.approx(20e-9)

    def test_access_duration(self):
        _, dram = build_dram()
        assert dram.access_duration(bytes_read=1e6) == pytest.approx(1e-3)

    def test_access_logs_and_advances(self):
        machine, dram = build_dram()
        t_end, joules = dram.access(bytes_read=128)
        assert machine.now == pytest.approx(128 / 1e9)
        assert joules == pytest.approx(20e-9)
        assert dram.lines_read == 2

    def test_refresh_power_accrues(self):
        machine, dram = build_dram()
        machine.advance(3.0)
        assert machine.total_joules() == pytest.approx(3.0)

    def test_rejects_negative(self):
        _, dram = build_dram()
        with pytest.raises(HardwareError):
            dram.access_energy(bytes_read=-1)


class TestNIC:
    def test_send_wakes_radio(self):
        """The §4.2 side effect: the first sender pays the wake."""
        machine, nic = build_nic()
        assert nic.state == "off"
        nic.send(1000)
        assert nic.state == "idle"
        assert nic.wake_count == 1
        wake_energy = sum(r.joules for r in machine.ledger.records("nic")
                          if r.tag == "wake")
        assert wake_energy == pytest.approx(0.01)

    def test_second_send_skips_wake(self):
        machine, nic = build_nic()
        first = nic.send(1000)
        second = nic.send(1000)
        assert nic.wake_count == 1
        assert second < first  # no wake latency the second time

    def test_tx_rx_energy(self):
        machine, nic = build_nic()
        nic.wake()
        t0 = machine.now
        nic.send(1000)
        tx = sum(r.joules for r in machine.ledger.records("nic")
                 if r.tag == "tx")
        assert tx == pytest.approx(1000 * 1e-9)
        nic.receive(1000)
        rx = sum(r.joules for r in machine.ledger.records("nic")
                 if r.tag == "rx")
        assert rx == pytest.approx(1000 * 0.5e-9)

    def test_sleep_returns_to_off(self):
        machine, nic = build_nic()
        nic.send(10)
        nic.sleep()
        assert nic.state == "off"
        nic.send(10)
        assert nic.wake_count == 2

    def test_idle_vs_off_static_power(self):
        machine, nic = build_nic()
        machine.advance(1.0)
        off_energy = machine.total_joules()
        assert off_energy == pytest.approx(0.001)
        nic.wake()
        t0 = machine.now
        machine.advance(1.0)
        idle_energy = machine.ledger.energy_between(t0, machine.now)
        assert idle_energy == pytest.approx(0.2, rel=0.01)

    def test_counters(self):
        _, nic = build_nic()
        nic.send(100)
        nic.receive(50)
        assert nic.bytes_tx == 100
        assert nic.bytes_rx == 50

    def test_rejects_negative_transfer(self):
        _, nic = build_nic()
        with pytest.raises(HardwareError):
            nic.send(-1)

    def test_spec_validation(self):
        with pytest.raises(HardwareError):
            NICSpec(e_per_byte_tx=-1.0)

    def test_dram_spec_validation(self):
        with pytest.raises(HardwareError):
            DRAMSpec(e_read_line=-1.0)


class TestMachine:
    def test_duplicate_component_rejected(self):
        machine = Machine("m")
        machine.add(DRAM("x"))
        with pytest.raises(HardwareError):
            machine.add(DRAM("x"))

    def test_unknown_component_rejected(self):
        with pytest.raises(HardwareError):
            Machine("m").component("ghost")

    def test_clock_rejects_rewind(self):
        machine = Machine("m")
        machine.advance(1.0)
        with pytest.raises(HardwareError):
            machine.advance_to(0.5)
        with pytest.raises(HardwareError):
            machine.advance(-0.1)

    @pytest.mark.parametrize("step", [float("nan"), float("inf")])
    def test_clock_rejects_non_finite_step(self, step):
        machine, dram = build_dram()
        machine.advance(1.0)
        for move in (machine.advance, lambda t: machine.advance_to(1.0 + t)):
            with pytest.raises(HardwareError, match="cannot advance"):
                move(step)
        assert machine.now == 1.0
        assert len(machine.ledger) == 1

    def test_unattached_component_cannot_log(self):
        dram = DRAM("loose")
        with pytest.raises(HardwareError):
            dram.log_activity(0.0, 1.0, 1.0)
        with pytest.raises(HardwareError):
            dram.machine
