"""Tests for the ground-truth energy ledger."""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import HardwareError
from repro.hardware.ledger import EnergyLedger, EnergyRecord

from . import scan_ledger


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
        ledger.log("c", "d", 0.0, 1.0, 1.0)
        ledger.log("c", "d", 1.0, 2.0, 2.0)
        assert ledger.total_joules() == 3.0
        assert len(ledger) == 2

    def test_order_enforced(self):
        ledger = EnergyLedger()
        ledger.log("c", "d", 1.0, 2.0, 1.0)
        with pytest.raises(HardwareError):
            ledger.log("c", "d", 0.5, 3.0, 1.0)

    def test_same_start_allowed(self):
        ledger = EnergyLedger()
        ledger.log("c", "d", 1.0, 2.0, 1.0)
        ledger.log("c", "d", 1.0, 5.0, 1.0)
        assert len(ledger) == 2

    def test_filters(self):
        ledger = EnergyLedger()
        ledger.log("gpu", "gpu", 0.0, 1.0, 1.0)
        ledger.log("cpu", "cpu", 0.0, 1.0, 2.0)
        assert ledger.total_joules(component="gpu") == 1.0
        assert ledger.total_joules(domain="cpu") == 2.0
        assert len(ledger.records(component="cpu")) == 1

    def test_energy_between_prorates(self):
        ledger = EnergyLedger()
        ledger.log("c", "d", 0.0, 10.0, 10.0)
        assert ledger.energy_between(2.0, 4.0) == pytest.approx(2.0)

    def test_energy_between_rejects_inverted(self):
        with pytest.raises(HardwareError):
            EnergyLedger().energy_between(2.0, 1.0)

    def test_power_at(self):
        ledger = EnergyLedger()
        ledger.log("c", "d", 0.0, 2.0, 4.0)   # 2 W
        ledger.log("c", "d", 1.0, 3.0, 2.0)   # 1 W
        assert ledger.power_at(0.5) == pytest.approx(2.0)
        assert ledger.power_at(1.5) == pytest.approx(3.0)
        assert ledger.power_at(2.5) == pytest.approx(1.0)
        assert ledger.power_at(5.0) == 0.0

    def test_by_component(self):
        ledger = EnergyLedger()
        ledger.log("a", "d", 0.0, 1.0, 1.0)
        ledger.log("b", "d", 0.0, 1.0, 2.0)
        ledger.log("a", "d", 1.0, 2.0, 3.0)
        assert ledger.by_component() == {"a": 4.0, "b": 2.0}

    def test_by_tag(self):
        ledger = EnergyLedger()
        ledger.log("c", "d", 0.0, 1.0, 1.0, "static")
        ledger.log("c", "d", 0.0, 1.0, 2.0, "task")
        assert ledger.by_tag() == {"static": 1.0, "task": 2.0}

    def test_horizon(self):
        ledger = EnergyLedger()
        ledger.log("c", "d", 0.0, 5.0, 1.0)
        ledger.log("c", "d", 1.0, 2.0, 1.0)
        assert ledger.horizon == 5.0

    def test_total_is_a_left_fold_on_every_python(self):
        """1e16 + 1 rounds back to 1e16 at each step of a left fold; a
        compensated sum (``sum()`` from Python 3.12 on) gives 1e16 + 2."""
        ledger = EnergyLedger()
        for joules in (1e16, 1.0, 1.0):
            ledger.log("c", "d", 0.0, 1.0, joules)
        assert ledger.total_joules() == 1e16
        assert ledger.total_joules(component="c", domain="d") == 1e16
        assert ledger.by_component() == {"c": 1e16}

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
            ledger.log("c", "d", start, start + duration, joules)
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
                ledger.log(d, "board", start, start + b, c)
                continue
            for fraction in b:
                t1 = max(a, fraction * ledger.horizon)
                assert ledger.energy_between(a, t1, component=c, domain=d) \
                    == reference_energy_between(ledger.records(), a, t1,
                                                c, d)

    def test_rising_counter_reads_repeat_exactly(self):
        ledger = EnergyLedger()
        for i in range(200):
            ledger.log("gpu0", "d", i * 0.1, i * 0.1 + 0.1, 0.1 * (i % 7 + 1))
            ledger.log("cpu0", "d", i * 0.1, i * 0.1 + 0.35, 0.3)
        for t in (1.0, 5.05, 5.05, 12.3, 3.3, 19.99, 25.0):
            for component in ("gpu0", "cpu0", None):
                assert ledger.energy_between(0.0, t, component) == \
                    reference_energy_between(ledger.records(), 0.0, t,
                                             component)


def bits(value):
    """A float's IEEE-754 bytes: equal bits, not merely ``==``."""
    return struct.pack("<d", value)


def record_bits(r):
    return (r.component, r.domain, bits(r.t_start), bits(r.t_end),
            bits(r.joules), r.tag)


def assert_same_answers(ledger, oracle, windows):
    """Every query of the columnar ledger equals the scan, bit for bit."""
    assert len(ledger) == len(oracle)
    assert bits(ledger.horizon) == bits(oracle.horizon)
    assert ledger.dropped == oracle.dropped
    filters = [(None, None), ("gpu0", None), (None, "board"),
               ("cpu0", "pkg")]
    for component, domain in filters:
        assert ([record_bits(r) for r in ledger.records(component, domain)]
                == [record_bits(r) for r in oracle.records(component,
                                                           domain)])
        assert (bits(ledger.total_joules(component, domain))
                == bits(oracle.total_joules(component, domain)))
    for mine, theirs in ((ledger.by_component(), oracle.by_component()),
                         (ledger.by_tag(), oracle.by_tag()),
                         (ledger.by_tag("gpu0"), oracle.by_tag("gpu0"))):
        assert list(mine) == list(theirs)
        assert [bits(v) for v in mine.values()] == \
            [bits(v) for v in theirs.values()]
    for t0, t1 in windows:
        for component, domain in filters:
            assert (bits(ledger.power_at(t1, component, domain))
                    == bits(oracle.power_at(t1, component, domain)))
            if t1 < t0:
                continue
            assert (bits(ledger.energy_between(t0, t1, component, domain))
                    == bits(oracle.energy_between(t0, t1, component,
                                                  domain)))


# A time step or duration: mostly from a small grid, so record edges
# coincide with each other and with query windows.
steps = st.one_of(st.sampled_from([0.0, 0.0, 0.25, 0.5, 1.0, 3.0]),
                  st.floats(min_value=0.0, max_value=4.0))
joules_values = st.one_of(st.sampled_from([0.0, 0.1, 1.0, 7.5]),
                          st.floats(min_value=0.0, max_value=100.0))
garbage = st.sampled_from([float("nan"), float("inf"), -1.0, -0.0])


class TestAgainstScanLedger:
    """The columnar ledger against the object-per-record scan it replaced."""

    @given(st.lists(st.one_of(
        # A record or meter reading: start offset from the last start
        # (negative = out of order), duration (negative = inverted),
        # joules (garbage included), component, domain, tag.
        st.tuples(st.sampled_from(["log", "reading"]),
                  st.one_of(steps, st.just(-0.5)),
                  st.one_of(steps, st.just(-1.0)),
                  st.one_of(joules_values, garbage),
                  st.sampled_from(["gpu0", "cpu0"]),
                  st.sampled_from(["board", "pkg"]),
                  st.sampled_from(["", "static", "kernel"])),
        # Queries over windows whose ends are record edges or fractions
        # of the horizon, so cached cumulative reads are exercised too.
        st.tuples(st.just("query"),
                  st.lists(st.tuples(st.integers(0, 40),
                                     st.integers(0, 40)),
                           min_size=1, max_size=4))),
        min_size=1, max_size=50))
    @settings(max_examples=300, deadline=None)
    def test_matches_scan_bitwise(self, ops):
        ledger, oracle = EnergyLedger(), scan_ledger.EnergyLedger()
        start = 0.0
        for op in ops:
            if op[0] == "query":
                edges = sorted({0.0, ledger.horizon, ledger.horizon / 3}
                               | {r.t_start for r in oracle.records()}
                               | {r.t_end for r in oracle.records()})
                windows = [(edges[i % len(edges)], edges[j % len(edges)])
                           for i, j in op[1]]
                assert_same_answers(ledger, oracle, windows)
                continue
            kind, gap, duration, joules, component, domain, tag = op
            t0 = start + gap
            t1 = t0 + duration
            if kind == "reading":
                mine = ledger.log_reading(component, domain, t0, t1,
                                          joules, tag)
                theirs = oracle.log_reading(component, domain, t0, t1,
                                            joules, tag)
                assert (mine is None) == (theirs is None)
                if mine is not None:
                    assert record_bits(mine) == record_bits(theirs)
                    start = t0
                continue
            try:
                oracle.log(scan_ledger.EnergyRecord(component, domain, t0,
                                                    t1, joules, tag))
            except HardwareError as expected:
                with pytest.raises(HardwareError) as raised:
                    ledger.log(component, domain, t0, t1, joules, tag)
                assert str(raised.value) == str(expected)
            else:
                ledger.log(component, domain, t0, t1, joules, tag)
                start = t0
        assert_same_answers(ledger, oracle, [(0.0, ledger.horizon)])
