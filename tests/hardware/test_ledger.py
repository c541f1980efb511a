"""Tests for the ground-truth energy ledger."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import HardwareError
from repro.hardware.ledger import EnergyLedger, EnergyRecord


def record(component="c", domain="d", t0=0.0, t1=1.0, joules=1.0, tag=""):
    return EnergyRecord(component, domain, t0, t1, joules, tag)


class TestEnergyRecord:
    def test_duration_and_power(self):
        r = record(t0=1.0, t1=3.0, joules=4.0)
        assert r.duration == 2.0
        assert r.average_power == 2.0

    def test_instant_record(self):
        r = record(t0=1.0, t1=1.0, joules=2.0)
        assert r.duration == 0.0
        assert r.average_power == float("inf")

    def test_rejects_inverted_interval(self):
        with pytest.raises(HardwareError):
            record(t0=2.0, t1=1.0)

    def test_rejects_negative_energy(self):
        with pytest.raises(HardwareError):
            record(joules=-1.0)

    def test_overlap_full(self):
        r = record(t0=0.0, t1=2.0, joules=4.0)
        assert r.overlap_joules(0.0, 2.0) == 4.0

    def test_overlap_partial_prorated(self):
        r = record(t0=0.0, t1=2.0, joules=4.0)
        assert r.overlap_joules(0.5, 1.0) == pytest.approx(1.0)

    def test_overlap_disjoint(self):
        r = record(t0=0.0, t1=1.0, joules=4.0)
        assert r.overlap_joules(2.0, 3.0) == 0.0

    def test_instant_overlap(self):
        r = record(t0=1.0, t1=1.0, joules=2.0)
        assert r.overlap_joules(0.5, 1.5) == 2.0
        assert r.overlap_joules(1.5, 2.0) == 0.0


class TestLedger:
    def test_total(self):
        ledger = EnergyLedger()
        ledger.log(record(joules=1.0))
        ledger.log(record(joules=2.0, t0=1.0, t1=2.0))
        assert ledger.total_joules() == 3.0
        assert len(ledger) == 2

    def test_order_enforced(self):
        ledger = EnergyLedger()
        ledger.log(record(t0=1.0, t1=2.0))
        with pytest.raises(HardwareError):
            ledger.log(record(t0=0.5, t1=3.0))

    def test_same_start_allowed(self):
        ledger = EnergyLedger()
        ledger.log(record(t0=1.0, t1=2.0))
        ledger.log(record(t0=1.0, t1=5.0))
        assert len(ledger) == 2

    def test_filters(self):
        ledger = EnergyLedger()
        ledger.log(record(component="gpu", domain="gpu", joules=1.0))
        ledger.log(record(component="cpu", domain="cpu", joules=2.0,
                          t0=0.0, t1=1.0))
        assert ledger.total_joules(component="gpu") == 1.0
        assert ledger.total_joules(domain="cpu") == 2.0
        assert len(ledger.records(component="cpu")) == 1

    def test_energy_between_prorates(self):
        ledger = EnergyLedger()
        ledger.log(record(t0=0.0, t1=10.0, joules=10.0))
        assert ledger.energy_between(2.0, 4.0) == pytest.approx(2.0)

    def test_energy_between_rejects_inverted(self):
        with pytest.raises(HardwareError):
            EnergyLedger().energy_between(2.0, 1.0)

    def test_power_at(self):
        ledger = EnergyLedger()
        ledger.log(record(t0=0.0, t1=2.0, joules=4.0))   # 2 W
        ledger.log(record(t0=1.0, t1=3.0, joules=2.0))   # 1 W
        assert ledger.power_at(0.5) == pytest.approx(2.0)
        assert ledger.power_at(1.5) == pytest.approx(3.0)
        assert ledger.power_at(2.5) == pytest.approx(1.0)
        assert ledger.power_at(5.0) == 0.0

    def test_by_component(self):
        ledger = EnergyLedger()
        ledger.log(record(component="a", joules=1.0))
        ledger.log(record(component="b", joules=2.0))
        ledger.log(record(component="a", joules=3.0, t0=1.0, t1=2.0))
        assert ledger.by_component() == {"a": 4.0, "b": 2.0}

    def test_by_tag(self):
        ledger = EnergyLedger()
        ledger.log(record(tag="static", joules=1.0))
        ledger.log(record(tag="task", joules=2.0))
        assert ledger.by_tag() == {"static": 1.0, "task": 2.0}

    def test_horizon(self):
        ledger = EnergyLedger()
        ledger.log(record(t0=0.0, t1=5.0))
        ledger.log(record(t0=1.0, t1=2.0))
        assert ledger.horizon == 5.0

    @given(st.lists(st.tuples(
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
        st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
        st.floats(min_value=0.0, max_value=50.0, allow_nan=False)),
        min_size=1, max_size=20))
    @settings(max_examples=50)
    def test_window_partition_conserves_energy(self, raw):
        """Splitting any window into halves conserves accounted energy."""
        ledger = EnergyLedger()
        for start, duration, joules in sorted(raw, key=lambda r: r[0]):
            ledger.log(EnergyRecord("c", "d", start, start + duration,
                                    joules))
        horizon = max(ledger.horizon, 1.0)
        whole = ledger.energy_between(0.0, horizon)
        midpoint = horizon / 2.0
        parts = (ledger.energy_between(0.0, midpoint)
                 + ledger.energy_between(midpoint, horizon))
        # Instant records sitting exactly on the midpoint are counted in
        # both halves; exclude that corner by checking one-sided bound.
        assert parts == pytest.approx(whole, rel=1e-9, abs=1e-9) or \
            parts >= whole


def reference_energy_between(records, t0, t1, component=None, domain=None):
    """The plain full scan ``EnergyLedger.energy_between`` must equal
    bit for bit, however it reuses earlier sums."""
    total = 0.0
    for r in records:
        if r.t_start > t1 or (r.t_end < t0 and r.duration > 0):
            continue
        if component is not None and r.component != component:
            continue
        if domain is not None and r.domain != domain:
            continue
        total += r.overlap_joules(t0, t1)
    return total


class TestCumulativeQueries:
    @given(st.lists(st.one_of(
        # Append a record: gap after the last start, duration, joules, which.
        st.tuples(st.just("log"),
                  st.floats(min_value=0.0, max_value=2.0),
                  st.sampled_from([0.0, 0.001, 0.5, 3.0]),
                  st.floats(min_value=0.0, max_value=50.0),
                  st.sampled_from(["gpu0", "cpu0"])),
        # Query [t0, t1] at several fractions of the horizon, rising and
        # falling, optionally filtered.
        st.tuples(st.just("query"),
                  st.sampled_from([0.0, 0.0, 0.0, 1.0]),
                  st.lists(st.floats(min_value=0.0, max_value=1.2),
                           min_size=1, max_size=4),
                  st.sampled_from([None, "gpu0", "cpu0"]),
                  st.sampled_from([None, "board"]))),
        min_size=1, max_size=60))
    @settings(max_examples=200, deadline=None)
    def test_matches_full_scan_bitwise(self, steps):
        ledger = EnergyLedger()
        start = 0.0
        for kind, a, b, c, d in steps:
            if kind == "log":
                start += a
                ledger.log(EnergyRecord(d, "board", start, start + b, c))
                continue
            for fraction in b:
                t1 = max(a, fraction * ledger.horizon)
                assert ledger.energy_between(a, t1, component=c, domain=d) \
                    == reference_energy_between(ledger.records(), a, t1,
                                                c, d)

    def test_rising_counter_reads_repeat_exactly(self):
        ledger = EnergyLedger()
        for i in range(200):
            ledger.log(record("gpu0", t0=i * 0.1, t1=i * 0.1 + 0.1,
                              joules=0.1 * (i % 7 + 1)))
            ledger.log(record("cpu0", t0=i * 0.1, t1=i * 0.1 + 0.35,
                              joules=0.3))
        for t in (1.0, 5.05, 5.05, 12.3, 3.3, 19.99, 25.0):
            for component in ("gpu0", "cpu0", None):
                assert ledger.energy_between(0.0, t, component) == \
                    reference_energy_between(ledger.records(), 0.0, t,
                                             component)
