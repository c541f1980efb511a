"""Tests for the energy-attribution module."""

import pytest

from repro.core.attribution import POLICIES, attribute
from repro.core.errors import EnergyError
from repro.hardware.ledger import EnergyLedger


def ledger_with(records):
    ledger = EnergyLedger()
    for component, tag, t0, t1, joules in sorted(records,
                                                 key=lambda r: r[2]):
        ledger.log(component, "d", t0, t1, joules, tag)
    return ledger


BASIC = [
    ("cpu", "req-a", 0.0, 1.0, 4.0),
    ("cpu", "req-b", 1.0, 3.0, 4.0),   # twice the time, same dynamic J
    ("cpu", "static", 0.0, 4.0, 8.0),
]


class TestPolicies:
    def test_activity_ignores_overhead(self):
        result = attribute(ledger_with(BASIC), 0.0, 4.0, policy="activity")
        assert result.shares == {"req-a": 4.0, "req-b": 4.0}
        assert result.overhead_joules == 8.0
        assert result.total_joules == 16.0

    def test_proportional_splits_by_dynamic_energy(self):
        result = attribute(ledger_with(BASIC), 0.0, 4.0,
                           policy="proportional")
        assert result.share_of("req-a") == pytest.approx(4.0 + 4.0)
        assert result.share_of("req-b") == pytest.approx(4.0 + 4.0)

    def test_duration_splits_by_busy_time(self):
        result = attribute(ledger_with(BASIC), 0.0, 4.0, policy="duration")
        # req-a busy 1 s, req-b busy 2 s -> 1/3 vs 2/3 of the 8 J overhead
        assert result.share_of("req-a") == pytest.approx(4.0 + 8.0 / 3)
        assert result.share_of("req-b") == pytest.approx(4.0 + 16.0 / 3)

    def test_policies_conserve_energy(self):
        for policy in ("proportional", "duration"):
            result = attribute(ledger_with(BASIC), 0.0, 4.0, policy=policy)
            assert sum(result.shares.values()) == pytest.approx(
                result.total_joules)

    def test_unknown_policy_rejected(self):
        with pytest.raises(EnergyError):
            attribute(ledger_with(BASIC), 0.0, 4.0, policy="fair")

    def test_policy_list_is_exported(self):
        assert set(POLICIES) == {"activity", "proportional", "duration"}


class TestWindowing:
    def test_window_prorates_records(self):
        result = attribute(ledger_with(BASIC), 0.0, 2.0, policy="activity")
        # req-b's 4 J over [1, 3] contributes half inside [0, 2].
        assert result.share_of("req-b") == pytest.approx(2.0)

    def test_inverted_window_rejected(self):
        with pytest.raises(EnergyError):
            attribute(ledger_with(BASIC), 2.0, 1.0)

    def test_component_filter(self):
        records = BASIC + [("gpu", "req-a", 0.0, 1.0, 100.0)]
        all_components = attribute(ledger_with(records), 0.0, 4.0,
                                   policy="activity")
        cpu_only = attribute(ledger_with(records), 0.0, 4.0,
                             policy="activity", component="cpu")
        assert all_components.share_of("req-a") == pytest.approx(104.0)
        assert cpu_only.share_of("req-a") == pytest.approx(4.0)


class TestEdgeCases:
    def test_all_overhead_window(self):
        ledger = ledger_with([("cpu", "static", 0.0, 2.0, 6.0)])
        result = attribute(ledger, 0.0, 2.0, policy="proportional")
        assert result.shares == {}
        assert result.overhead_joules == 6.0
        assert result.fractions() == {}

    def test_fractions_sum_to_one(self):
        result = attribute(ledger_with(BASIC), 0.0, 4.0,
                           policy="proportional")
        assert sum(result.fractions().values()) == pytest.approx(1.0)

    def test_str_mentions_policy_and_shares(self):
        text = str(attribute(ledger_with(BASIC), 0.0, 4.0))
        assert "proportional" in text
        assert "req-a" in text


class TestAgainstRealMachine:
    def test_service_attribution_matches_ledger(self):
        """Attribution over the ML service's ledger conserves energy and
        ranks the inference path first."""
        import numpy as np
        from repro.apps.mlservice import MLWebService, \
            build_service_machine
        from repro.workloads.traces import image_request_trace

        machine = build_service_machine()
        service = MLWebService(machine)
        rng = np.random.default_rng(4)
        t0 = machine.now
        for request in image_request_trace(150, rng):
            service.handle(request)
        result = attribute(machine.ledger, t0, machine.now,
                           policy="proportional")
        assert sum(result.shares.values()) == pytest.approx(
            machine.ledger.energy_between(t0, machine.now), rel=1e-9)
        assert result.share_of("cnn-forward") == max(result.shares.values())
