"""Adapters that plug the repository's apps into the serving gateway.

An adapter pairs an app's *implementation* (which runs on simulated
hardware and writes ground truth into the machine ledger) with its
*energy interface* (which the gateway evaluates before dispatch), and
answers the four questions the gateway asks:

* ``cost_call(request)`` — which interface method and abstract input
  price this request?
* ``execute(request)`` — run it on the hardware (advancing the machine
  clock);
* ``degrade(request)`` — is there a cheaper variant (smaller image,
  shorter generation) the gateway may fall back to?
* ``current_bindings()`` — the manager-observed ECV bindings to evaluate
  under, refreshed periodically and quantised so the evaluation cache
  stays warm between refreshes.
"""

from __future__ import annotations

from typing import Any, Mapping

import numpy as np

from repro.core.ecv import BernoulliECV, ECV
from repro.core.errors import ServingError
from repro.core.interface import EnergyInterface
from repro.core.session import DEFAULT_P_QUANTUM, env_fingerprint
from repro.hardware.machine import Machine
from repro.workloads.traces import GenerationRequest, ImageRequest, KVRequest

__all__ = ["ServiceAdapter", "MLServiceAdapter", "KVStoreAdapter",
           "GPT2Adapter", "build_adapter"]


def _quantise_bindings(bindings: Mapping[str, Any],
                       quantum: float) -> dict[str, Any]:
    """Snap Bernoulli probabilities to a grid so fingerprints are stable."""
    quantised: dict[str, Any] = {}
    for name, value in bindings.items():
        if isinstance(value, BernoulliECV):
            p = min(max(round(value.p / quantum) * quantum, 0.0), 1.0)
            quantised[name] = BernoulliECV(value.name, p=p,
                                           description=value.description)
        else:
            quantised[name] = value
    return quantised


class ServiceAdapter:
    """Base adapter: binding refresh/fingerprint plumbing for subclasses."""

    def __init__(self, name: str, machine: Machine,
                 interface: EnergyInterface,
                 refresh_every: int = 200,
                 p_quantum: float = DEFAULT_P_QUANTUM) -> None:
        if refresh_every <= 0:
            raise ServingError(
                f"refresh_every must be positive, got {refresh_every}")
        self.name = name
        self.machine = machine
        self.interface = interface
        self.refresh_every = refresh_every
        self.p_quantum = p_quantum
        self._executed = 0
        self._bindings: dict[str, Any] | None = None
        self._fingerprint: tuple | None = None
        self._refresh_mark = -1

    # -- to be provided by subclasses -------------------------------------------
    def cost_call(self, request: Any) -> tuple[str, tuple]:
        """The interface method and abstract input pricing ``request``."""
        raise NotImplementedError

    def _run(self, request: Any) -> None:
        raise NotImplementedError

    def observed_bindings(self) -> Mapping[str, ECV]:
        """Raw manager-observed ECV bindings (may be empty)."""
        return {}

    def degrade(self, request: Any) -> Any | None:
        """A cheaper variant of ``request``, or None when there is none."""
        return None

    # -- gateway-facing API -----------------------------------------------------
    def execute(self, request: Any) -> None:
        """Run the request on the hardware; the machine clock advances."""
        self._run(request)
        self._executed += 1

    def current_bindings(self) -> dict[str, Any]:
        """Quantised bindings, refreshed every ``refresh_every`` requests."""
        epoch = self._executed // self.refresh_every
        if self._bindings is None or epoch != self._refresh_mark:
            self._bindings = _quantise_bindings(self.observed_bindings(),
                                                self.p_quantum)
            self._fingerprint = env_fingerprint(self._bindings,
                                                self.p_quantum)
            self._refresh_mark = epoch
        return self._bindings

    def binding_fingerprint(self) -> tuple:
        """Fingerprint matching :meth:`current_bindings`."""
        self.current_bindings()
        assert self._fingerprint is not None
        return self._fingerprint

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


class MLServiceAdapter(ServiceAdapter):
    """Fig. 1's CNN web service behind the gateway.

    Builds the full Fig. 2 stack (hardware -> OS -> runtime) around
    :class:`~repro.apps.mlservice.MLWebService`; the gateway prices
    requests through the stack's top-level interface under the cache
    managers' observed hit rates.  Degradation serves a downsampled
    variant of the image (see
    :meth:`~repro.apps.mlservice.MLWebService.degraded_variant`).
    """

    def __init__(self, machine: Machine | None = None, seed: int = 7,
                 warmup_requests: int = 400,
                 degrade_factor: int = 4,
                 refresh_every: int = 200,
                 p_quantum: float = DEFAULT_P_QUANTUM) -> None:
        from repro.apps.mlservice import (
            MLWebService,
            build_service_machine,
            build_service_stack,
        )
        from repro.calibration import calibrate
        from repro.workloads.traces import repeated_image_trace

        if machine is None:
            machine = build_service_machine()
        self.service = MLWebService(machine)
        calibrated = calibrate(machine, source="gpu0", seed=seed).model
        self.stack = build_service_stack(self.service, calibrated)
        interface = self.stack.resource("runtime/ml_webservice") \
            .energy_interface
        super().__init__("mlservice", machine, interface,
                         refresh_every=refresh_every, p_quantum=p_quantum)
        self.degrade_factor = degrade_factor
        if warmup_requests > 0:
            rng = np.random.default_rng(seed)
            for request in repeated_image_trace(warmup_requests, rng):
                self.service.handle(request)

    def cost_call(self, request: ImageRequest) -> tuple[str, tuple]:
        return "E_handle", (request.image_pixels, request.zero_pixels)

    def _run(self, request: ImageRequest) -> None:
        self.service.handle(request)

    def observed_bindings(self) -> Mapping[str, ECV]:
        return self.service.observed_bindings()

    def degrade(self, request: ImageRequest) -> ImageRequest | None:
        return self.service.degraded_variant(request, self.degrade_factor)


class KVStoreAdapter(ServiceAdapter):
    """The flash key-value store behind the gateway.

    The interesting ECV is ``gc_triggered``: worst-case admission prices
    every put at a garbage-collection storm, which is exactly what a hard
    energy guarantee must assume.  The storage manager binds the GC
    probability from device headroom, so expected-mode pricing stays
    sharp.
    """

    def __init__(self, machine: Machine | None = None,
                 value_bytes: int = 16 * 1024,
                 refresh_every: int = 50,
                 p_quantum: float = DEFAULT_P_QUANTUM) -> None:
        from repro.apps.kvstore import (
            KVStore,
            KVStoreEnergyInterface,
            StorageManager,
        )
        from repro.hardware.storage import SSD

        if machine is None:
            machine = Machine("kv-node")
            machine.add(SSD("ssd0"))
        ssd = machine.component("ssd0")
        self.store = KVStore(ssd, value_bytes)
        self.manager = StorageManager("storage-mgr", ssd, value_bytes)
        super().__init__("kvstore", machine,
                         KVStoreEnergyInterface(ssd, value_bytes),
                         refresh_every=refresh_every, p_quantum=p_quantum)

    def cost_call(self, request: KVRequest) -> tuple[str, tuple]:
        if request.op == "put":
            return "E_put", ()
        return "E_get", ()

    def _run(self, request: KVRequest) -> None:
        if request.op == "put":
            self.store.put(request.key)
        else:
            self.store.get(request.key)

    def observed_bindings(self) -> Mapping[str, ECV]:
        return self.manager.known_bindings()


class GPT2Adapter(ServiceAdapter):
    """The §5 GPT-2 inference runtime behind the gateway.

    Requests are priced through the calibrated counter-model interface;
    degradation caps the generation length, the standard serving lever
    for LLM cost control.
    """

    def __init__(self, machine: Machine | None = None, seed: int = 7,
                 degraded_output_tokens: int = 32,
                 refresh_every: int = 200,
                 p_quantum: float = DEFAULT_P_QUANTUM) -> None:
        from repro.hardware.profiles import SIM4090, build_gpu_workstation
        from repro.llm.config import GPT2_SMALL
        from repro.llm.interface import GPT2EnergyInterface
        from repro.llm.runtime import GPT2Runtime
        from repro.calibration import calibrate

        if machine is None:
            machine = build_gpu_workstation(SIM4090)
        gpu = machine.component("gpu0")
        spec = gpu.spec
        calibrated = calibrate(machine, source="gpu0", seed=seed).model
        self.runtime = GPT2Runtime(gpu, GPT2_SMALL)
        super().__init__("llm", machine,
                         GPT2EnergyInterface(GPT2_SMALL, calibrated, spec),
                         refresh_every=refresh_every, p_quantum=p_quantum)
        self.degraded_output_tokens = degraded_output_tokens

    def cost_call(self, request: GenerationRequest) -> tuple[str, tuple]:
        return "E_generate", (request.prompt_tokens, request.output_tokens)

    def _run(self, request: GenerationRequest) -> None:
        self.runtime.serve(request)

    def degrade(self, request: GenerationRequest) -> GenerationRequest | None:
        if request.output_tokens <= self.degraded_output_tokens:
            return None
        return GenerationRequest(request.prompt_tokens,
                                 self.degraded_output_tokens)


def build_adapter(app: str, seed: int = 7) -> ServiceAdapter:
    """Construct the adapter for a CLI app name."""
    builders = {
        "mlservice": lambda: MLServiceAdapter(seed=seed),
        "kvstore": lambda: KVStoreAdapter(),
        "llm": lambda: GPT2Adapter(seed=seed),
    }
    try:
        builder = builders[app]
    except KeyError:
        raise ServingError(
            f"unknown app {app!r}; expected one of {sorted(builders)}"
        ) from None
    return builder()
