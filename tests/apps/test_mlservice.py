"""Tests for the Fig. 1 ML web service (implementation + interfaces)."""

import numpy as np
import pytest

from repro.core.interface import evaluate
from repro.apps.mlservice import (
    RESPONSE_BYTES,
    CNNModel,
    MLWebService,
    build_service_machine,
    build_service_stack,
)
from repro.calibration import calibrate
from repro.workloads.traces import ImageRequest, image_request_trace


def build_service():
    machine = build_service_machine()
    return machine, MLWebService(machine)


def calibrated(machine, seed=5):
    return calibrate(machine, source="gpu0", seed=seed).model


class TestCNNModel:
    def test_forward_kernel_mix_matches_fig1(self):
        cnn = CNNModel()
        kernels = cnn.forward_kernels(10000, 1000)
        names = [k.name for k in kernels]
        assert names.count("conv2d") == 8
        assert names.count("relu") == 8
        assert names.count("mlp") == 16

    def test_zero_skipping_reduces_conv_cost(self):
        """§1's claim: zeros in the input reduce MAC energy."""
        cnn = CNNModel()
        dense = cnn.conv_kernel_profile(10000)
        sparse = cnn.conv_kernel_profile(5000)
        assert sparse.instructions < dense.instructions
        assert sparse.vram_sectors < dense.vram_sectors

    def test_all_zero_image_costs_almost_nothing_in_conv(self):
        cnn = CNNModel()
        kernel = cnn.conv_kernel_profile(0)
        assert kernel.instructions == 0.0


class TestServicePaths:
    def test_first_request_infers(self):
        _, service = build_service()
        request = ImageRequest(1, 50000, 10000)
        assert service.handle(request) == "infer"

    def test_repeat_request_hits_locally(self):
        _, service = build_service()
        request = ImageRequest(1, 50000, 10000)
        service.handle(request)
        assert service.handle(request) == "local"

    def test_evicted_from_local_but_in_cluster_is_remote(self):
        machine = build_service_machine()
        service = MLWebService(machine, local_cache_entries=2,
                               cluster_cache_entries=1000)
        service.handle(ImageRequest(1, 50000, 0))
        service.handle(ImageRequest(2, 50000, 0))
        service.handle(ImageRequest(3, 50000, 0))  # evicts 1 locally
        assert service.handle(ImageRequest(1, 50000, 0)) == "remote"

    def test_energy_ordering_of_paths(self):
        """local < remote < infer, as Fig. 1's numbers imply."""
        machine, service = build_service()
        request = ImageRequest(1, 50000, 10000)

        def measure(fn):
            t0 = machine.now
            fn()
            return machine.ledger.energy_between(t0, machine.now)

        infer = measure(lambda: service.handle(request))
        local = measure(lambda: service.handle(request))
        machine2 = build_service_machine()
        service2 = MLWebService(machine2, local_cache_entries=1)
        service2.handle(ImageRequest(1, 50000, 10000))
        service2.handle(ImageRequest(2, 50000, 10000))  # evict 1 locally
        t0 = machine2.now
        service2.handle(ImageRequest(1, 50000, 10000))
        remote = machine2.ledger.energy_between(t0, machine2.now)
        assert local < remote < infer

    def test_observed_bindings_need_volume(self):
        _, service = build_service()
        service.handle(ImageRequest(1, 50000, 0))
        assert service.observed_bindings() == {}

    def test_observed_bindings_conditional_probability(self):
        _, service = build_service()
        rng = np.random.default_rng(0)
        for request in image_request_trace(300, rng, n_objects=100):
            service.handle(request)
        bindings = service.observed_bindings()
        assert 0.0 < bindings["request_hit"].p <= 1.0
        assert 0.0 < bindings["local_cache_hit"].p <= 1.0


@pytest.fixture(scope="module")
def calibrated_stack():
    """A stack over a freshly calibrated service, shared by the tests
    that only read its structure."""
    machine, service = build_service()
    return build_service_stack(service, calibrated(machine))


class TestStack:
    def test_stack_layers(self, calibrated_stack):
        stack = calibrated_stack
        assert [layer.name for layer in stack.layers] == \
            ["hardware", "os", "runtime"]

    def test_exported_interface_prediction_accuracy(self):
        """The F1 acceptance test: service-level prediction within 10%."""
        machine, service = build_service()
        model = calibrated(machine)
        rng = np.random.default_rng(11)
        for request in image_request_trace(500, rng):
            service.handle(request)
        stack = build_service_stack(service, model)
        iface = stack.exported_interface("runtime/ml_webservice")

        trace = image_request_trace(300, rng)
        t0 = machine.now
        for request in trace:
            service.handle(request)
        measured = machine.ledger.energy_between(t0, machine.now)
        predicted = sum(
            evaluate(iface("E_handle", r.image_pixels, r.zero_pixels)).as_joules
            for r in trace)
        assert predicted == pytest.approx(measured, rel=0.10)

    def test_interface_reads_like_fig1(self, calibrated_stack):
        """The exported interface's source contains the Fig. 1 structure."""
        from repro.core.report import describe_interface
        resource = calibrated_stack.resource("runtime/ml_webservice")
        text = describe_interface(resource.energy_interface)
        assert "request_hit" in text
        assert "E_handle" in text

    def test_per_path_predictions_close(self):
        machine, service = build_service()
        model = calibrated(machine)
        stack = build_service_stack(service, model)
        iface = stack.exported_interface("runtime/ml_webservice")
        request = ImageRequest(1, 49000, 5000)

        t0 = machine.now
        service.handle(request)
        infer_actual = machine.ledger.energy_between(t0, machine.now)
        infer_predicted = evaluate(iface("E_handle", request.image_pixels, request.zero_pixels), env={"request_hit": False}).as_joules
        assert infer_predicted == pytest.approx(infer_actual, rel=0.08)

        t0 = machine.now
        service.handle(request)  # now cached locally
        local_actual = machine.ledger.energy_between(t0, machine.now)
        local_predicted = evaluate(iface("E_handle", request.image_pixels, request.zero_pixels), env={"request_hit": True, "local_cache_hit": True}).as_joules
        assert local_predicted == pytest.approx(local_actual, rel=0.08)
