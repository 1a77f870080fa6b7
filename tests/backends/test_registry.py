"""Registry, resolution, env override, and fallback behaviour."""

import pytest

from repro.abs import AbsConfig
from repro.backends import (
    BACKEND_ENV_VAR,
    DEFAULT_BACKEND,
    KernelBackend,
    NumpyBackend,
    available_backends,
    get_backend,
    register_backend,
    resolve_backend,
)
from repro.backends import _REGISTRY
from repro.gpusim import BulkSearchEngine
from repro.qubo import QuboMatrix
from repro.telemetry import MemorySink, TelemetryBus


class TestRegistry:
    def test_builtins_registered(self):
        assert available_backends() == ("bitplane", "numpy")

    def test_get_backend_unknown_name(self):
        with pytest.raises(ValueError, match="unknown backend 'cupy'"):
            get_backend("cupy")
        # The error names what *is* registered, for discoverability.
        with pytest.raises(ValueError, match="numpy"):
            get_backend("cupy")

    def test_get_backend_returns_fresh_instances(self):
        assert get_backend("numpy") is not get_backend("numpy")

    def test_register_custom_backend(self):
        class Custom(NumpyBackend):
            name = "custom-test"

        register_backend("custom-test", Custom)
        try:
            assert "custom-test" in available_backends()
            assert resolve_backend("custom-test").name == "custom-test"
        finally:
            del _REGISTRY["custom-test"]

    def test_register_rejects_bad_names(self):
        with pytest.raises(ValueError):
            register_backend("", NumpyBackend)
        with pytest.raises(ValueError):
            register_backend(None, NumpyBackend)


class TestResolution:
    def test_default_is_numpy(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        assert DEFAULT_BACKEND == "numpy"
        assert resolve_backend(None).name == "numpy"

    def test_instance_passthrough(self):
        inst = NumpyBackend()
        assert resolve_backend(inst) is inst

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "numpy")
        assert resolve_backend(None).name == "numpy"
        monkeypatch.setenv(BACKEND_ENV_VAR, "definitely-not-registered")
        with pytest.raises(ValueError, match="definitely-not-registered"):
            resolve_backend(None)

    def test_explicit_name_beats_env(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "definitely-not-registered")
        assert resolve_backend("numpy").name == "numpy"

    def test_type_check(self):
        with pytest.raises(TypeError):
            resolve_backend(42)


class TestConfigValidation:
    def test_unknown_backend_rejected_at_config_time(self):
        with pytest.raises(ValueError, match="unknown backend"):
            AbsConfig(backend="cupy", max_rounds=1)

    @pytest.mark.parametrize("name", ["numpy", "bitplane", None])
    def test_known_backends_accepted(self, name):
        assert AbsConfig(backend=name, max_rounds=1).backend == name


class TestFallback:
    def test_no_fallback_event_for_native_backend(self):
        sink = MemorySink()
        bus = TelemetryBus([sink])
        BulkSearchEngine(QuboMatrix.random(16, seed=0), 2, backend="numpy", bus=bus)
        assert not sink.named("backend.fallback")


class TestInterfaceContract:
    def test_every_registered_backend_is_a_kernel_backend(self):
        import warnings as _w

        for name in available_backends():
            with _w.catch_warnings():
                _w.simplefilter("ignore")
                backend = get_backend(name)
            assert isinstance(backend, KernelBackend)
            assert backend.name  # non-empty display name
