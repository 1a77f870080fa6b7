"""Kernel backends for the bulk engine.

The two walks of :class:`~repro.gpusim.engine.BulkSearchEngine` —
Algorithm 4's windowed local search and Algorithm 5's straight search,
each built from the Eq. (16) delta refresh — live behind the
:class:`KernelBackend` interface so execution substrates can be swapped
without touching the search semantics:

- ``numpy`` — the vectorized reference implementation (always
  available; ground truth for the differential-equivalence suite);
- ``bitplane`` — packed uint64 bit-plane state with runtime-compiled C
  kernels (``cc -O3 -fwrapv``, compiled once per machine into a cache
  under ``$TMPDIR``): the whole ``run_local_steps`` batch and the whole
  ``run_straight`` walk are one C call each.  Falls back to ``numpy``
  (with a one-time warning and a ``backend.fallback`` telemetry event)
  when no C compiler is available, ``REPRO_NO_CC`` is set, or the
  build fails.

``auto``, the default, is not a backend of its own: it resolves to
``bitplane`` where the kernels load or compile and to ``numpy``
otherwise — silently, since nobody asked for ``bitplane``.

The exact Gray-code enumerator for ``n ≤ 30``,
:func:`~repro.backends.graycode.graycode_minimum`, is not a backend:
it is the decomposition loop's exact finisher.

Selection flows through :attr:`AbsConfig.backend <repro.abs.config.AbsConfig>`,
``repro.solve(backend=...)``, the CLI ``--backend`` flag, or the
``REPRO_BACKEND`` environment variable; unset, the default is
``auto``.  Every backend in :func:`available_backends` is pinned
step-for-step to the scalar references by
``tests/backends/test_equivalence.py``.

See ``docs/backends.md`` for the interface contract and a
how-to-add-a-backend walkthrough.
"""

from __future__ import annotations

import os
from typing import Union

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

#: Each concrete backend name and what constructs it.
_FACTORIES = {"bitplane": make_bitplane_backend, "numpy": NumpyBackend}


def available_backends() -> tuple[str, ...]:
    """The concrete backend names, sorted (listed ≠ available:
    ``bitplane`` is always listed and falls back without a compiler).
    ``auto`` is not listed: it only ever picks one of these."""
    return tuple(sorted(_FACTORIES))


def check_backend_name(name: str) -> None:
    """Raise ``ValueError`` unless ``name`` is ``auto`` or a backend."""
    if name != AUTO_BACKEND and name not in _FACTORIES:
        raise ValueError(
            f"unknown backend {name!r} (registered: {', '.join(available_backends())}), "
            f"or {AUTO_BACKEND!r}"
        )


def get_backend(name: str) -> KernelBackend:
    """Construct a fresh backend instance for ``name``.

    ``bitplane`` gives the compiled backend, or the NumPy one tagged
    ``fallback_from="bitplane"`` (with a one-time warning) where its
    kernels neither load nor compile.  ``auto`` gives the compiled
    backend where its kernels load, else ``numpy``, with no warning and
    no ``fallback_from`` tag.
    """
    check_backend_name(name)
    if name == AUTO_BACKEND:
        backend = load_bitplane_backend()
        return backend if backend is not None else NumpyBackend()
    return _FACTORIES[name]()


def resolve_backend(spec: BackendSpec = None) -> KernelBackend:
    """Resolve a backend from a name, an instance, or the environment.

    Precedence: an explicit :class:`KernelBackend` instance is used
    as-is; an explicit name goes to :func:`get_backend`; ``None``
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
    "resolve_backend",
]
