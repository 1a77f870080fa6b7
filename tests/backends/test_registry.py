"""Backend names, resolution, env override, and fallback behaviour."""

import warnings

import pytest

import repro.backends.bitplane as bp_mod
from repro.abs import AbsConfig
from repro.backends import (
    AUTO_BACKEND,
    BACKEND_ENV_VAR,
    DEFAULT_BACKEND,
    KernelBackend,
    NumpyBackend,
    available_backends,
    cc_available,
    get_backend,
    resolve_backend,
)
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

    def test_auto_is_not_listed(self):
        # The equivalence and property suites parametrize over this list;
        # ``auto`` would only rerun one of its entries under another name.
        assert AUTO_BACKEND not in available_backends()


@pytest.fixture
def no_cc(monkeypatch):
    """Compiler masked (as on a machine without cc), warning reset,
    nothing naming a backend."""
    monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
    monkeypatch.setenv("REPRO_NO_CC", "1")
    monkeypatch.setattr(bp_mod, "_warned", False)


def _fallback_events(backend) -> list:
    sink = MemorySink()
    BulkSearchEngine(
        QuboMatrix.random(16, seed=0), 2, backend=backend, bus=TelemetryBus([sink])
    )
    return sink.named("backend.fallback")


class TestResolution:
    def test_default_is_auto(self):
        assert DEFAULT_BACKEND == AUTO_BACKEND == "auto"

    @pytest.mark.skipif(not cc_available(), reason="no C compiler")
    @pytest.mark.parametrize("spec", [None, "auto"])
    def test_auto_is_bitplane_with_a_compiler(self, monkeypatch, spec):
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        backend = resolve_backend(spec)
        assert isinstance(backend, bp_mod.BitplaneBackend)
        assert backend.name == "bitplane"
        assert backend.fallback_from is None

    @pytest.mark.parametrize("spec", [None, "auto"])
    def test_auto_without_a_compiler_is_silent_numpy(self, no_cc, spec):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # any warning would raise
            backend = resolve_backend(spec)
            assert _fallback_events(spec) == []
        assert type(backend) is NumpyBackend
        assert backend.fallback_from is None

    def test_explicit_bitplane_without_a_compiler_still_warns(self, no_cc):
        with pytest.warns(RuntimeWarning, match="falling back") as caught:
            events = _fallback_events("bitplane")
            _fallback_events("bitplane")
        assert len(caught) == 1  # once per process
        assert len(events) == 1
        assert events[0].fields["requested"] == "bitplane"

    def test_env_selects_auto(self, no_cc, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "auto")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert resolve_backend(None).fallback_from is None

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

    def test_unknown_backend_error_names_auto(self):
        with pytest.raises(ValueError, match=r"\(registered: bitplane, numpy\), or 'auto'"):
            AbsConfig(backend="cupy", max_rounds=1)

    @pytest.mark.parametrize("name", ["auto", "numpy", "bitplane", None])
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

    def test_the_contract_is_the_two_walks(self):
        # The engine calls prepare_* once and the two walks after that;
        # the numpy primitives are that backend's own business.
        assert KernelBackend.__abstractmethods__ == {"run_local_steps", "run_straight"}
        for attr in ("prepare_dense", "prepare_sparse"):
            assert attr in vars(KernelBackend)

    def test_bitplane_inherits_nothing_from_numpy(self):
        assert NumpyBackend not in bp_mod.BitplaneBackend.__mro__
