"""Pluggable kernel backends for the bulk engine.

The hot kernels of :class:`~repro.gpusim.engine.BulkSearchEngine` —
the Eq. (16) dense flip, the sparse scatter flip, Figure 2's windowed
min-Δ selection, best-neighbour tracking, and the Algorithm 5 straight-
search mask/argmin — live behind the :class:`KernelBackend` interface
so execution substrates can be swapped without touching the search
semantics:

- ``numpy`` — the vectorized reference implementation (always
  available; ground truth for the differential-equivalence suite);
- ``bitplane`` — packed uint64 bit-plane state with runtime-compiled C
  kernels (``cc -O3 -fwrapv``, compiled once per machine into a cache
  under ``$TMPDIR``): the whole ``run_local_steps`` batch and the whole
  ``run_straight`` walk are one C call each.  Falls back to ``numpy``
  (with a one-time warning and a ``backend.fallback`` telemetry event)
  when no C compiler is available (or ``REPRO_NO_CC`` is set).

``auto``, the default, is not a backend of its own: it resolves to
``bitplane`` where the kernels load or compile and to ``numpy``
otherwise — silently, since nobody asked for ``bitplane``.

The exact Gray-code enumerator for ``n ≤ 30``,
:func:`~repro.backends.graycode.graycode_minimum`, is not a backend:
it is the decomposition loop's exact finisher.

Selection flows through :attr:`AbsConfig.backend <repro.abs.config.AbsConfig>`,
``repro.solve(backend=...)``, the CLI ``--backend`` flag, or the
``REPRO_BACKEND`` environment variable; unset, the default is
``auto``.  A future CuPy/GPU backend plugs into the same seam via
:func:`register_backend` — every registered backend is automatically
pinned step-for-step to the scalar references by
``tests/backends/test_equivalence.py``.

See ``docs/backends.md`` for the interface contract and a
how-to-add-a-backend walkthrough.
"""

from __future__ import annotations

import os
from typing import Callable, Union

from repro.backends.base import KernelBackend, PreparedWeights
from repro.backends.bitplane import (
    cc_available,
    load_bitplane_backend,
    make_bitplane_backend,
)
from repro.backends.graycode import graycode_minimum
from repro.backends.numpy_backend import NumpyBackend

#: Environment variable consulted when no backend is named explicitly.
BACKEND_ENV_VAR = "REPRO_BACKEND"

#: The name that picks the fastest backend this machine can run.
AUTO_BACKEND = "auto"

#: Default backend when neither call site nor environment names one.
DEFAULT_BACKEND = AUTO_BACKEND

BackendSpec = Union[str, KernelBackend, None]

_REGISTRY: dict[str, Callable[[], KernelBackend]] = {}


def register_backend(name: str, factory: Callable[[], KernelBackend]) -> None:
    """Register ``factory`` under ``name`` (overwrites re-registrations).

    The factory must return a ready :class:`KernelBackend`; it may
    return a *different* backend than requested to express graceful
    degradation (set ``fallback_from`` on the instance so telemetry can
    report the substitution).
    """
    if not name or not isinstance(name, str) or name == AUTO_BACKEND:
        raise ValueError(
            f"backend name must be a non-empty string other than "
            f"{AUTO_BACKEND!r}, got {name!r}"
        )
    _REGISTRY[name] = factory


def available_backends() -> tuple[str, ...]:
    """Registered backend names, sorted (registration ≠ availability:
    ``bitplane`` is always listed and falls back without a compiler).
    ``auto`` is not listed: it only ever picks one of these."""
    return tuple(sorted(_REGISTRY))


def check_backend_name(name: str) -> None:
    """Raise ``ValueError`` unless ``name`` is ``auto`` or registered."""
    if name != AUTO_BACKEND and name not in _REGISTRY:
        raise ValueError(
            f"unknown backend {name!r} (registered: {', '.join(available_backends())}), "
            f"or {AUTO_BACKEND!r}"
        )


def get_backend(name: str) -> KernelBackend:
    """Construct a fresh backend instance for ``name``.

    ``auto`` gives the compiled ``bitplane`` backend where its kernels
    load, else ``numpy``, with no warning and no ``fallback_from`` tag.
    """
    check_backend_name(name)
    if name == AUTO_BACKEND:
        backend = load_bitplane_backend()
        return backend if backend is not None else NumpyBackend()
    return _REGISTRY[name]()


def resolve_backend(spec: BackendSpec = None) -> KernelBackend:
    """Resolve a backend from a name, an instance, or the environment.

    Precedence: an explicit :class:`KernelBackend` instance is used
    as-is; an explicit name is looked up in the registry; ``None``
    consults :data:`BACKEND_ENV_VAR` and finally defaults to
    :data:`DEFAULT_BACKEND`.
    """
    if isinstance(spec, KernelBackend):
        return spec
    if spec is not None and not isinstance(spec, str):
        raise TypeError(
            f"backend must be a name, a KernelBackend, or None, got {type(spec).__name__}"
        )
    name = spec or os.environ.get(BACKEND_ENV_VAR, "") or DEFAULT_BACKEND
    return get_backend(name)


register_backend("numpy", NumpyBackend)
register_backend("bitplane", make_bitplane_backend)

__all__ = [
    "KernelBackend",
    "PreparedWeights",
    "NumpyBackend",
    "AUTO_BACKEND",
    "BACKEND_ENV_VAR",
    "DEFAULT_BACKEND",
    "available_backends",
    "cc_available",
    "check_backend_name",
    "get_backend",
    "graycode_minimum",
    "make_bitplane_backend",
    "register_backend",
    "resolve_backend",
]
