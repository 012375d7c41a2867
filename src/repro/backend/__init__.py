"""Pluggable numeric backends for the probe engine's batched kernels.

The active backend is resolved once, lazily, from the ``REPRO_BACKEND``
environment variable (default ``"numpy"``); delta sessions and rankers
fetch it through :func:`get_backend` and dispatch every numeric kernel
(the GCN's stacked ``scores_batch`` forward, PageRank walks, HITS
authority runs, TF-IDF row dots) — and the ``pagerank_stack_min_people``
cost hint that picks between stacked and plain walks — through it.

Registering a third-party backend::

    from repro.backend import register_backend, set_backend

    register_backend("torch", TorchBackend)   # selectable via env var
    set_backend("torch")                      # or activate it in-process

``set_backend`` also accepts a ready instance (tests install spy
backends this way) and returns the previously active backend so callers
can restore it.
"""

from __future__ import annotations

import os
import threading
from typing import Callable, Dict, Optional, Union

from repro.backend.base import NumericBackend, SparseRow
from repro.backend.numpy_backend import NumpyBackend
from repro.backend.reference import ReferenceBackend

__all__ = [
    "NumericBackend",
    "NumpyBackend",
    "ReferenceBackend",
    "SparseRow",
    "get_backend",
    "register_backend",
    "set_backend",
]

_ENV_VAR = "REPRO_BACKEND"

_registry: Dict[str, Callable[[], NumericBackend]] = {
    "numpy": NumpyBackend,
    "reference": ReferenceBackend,
}
_lock = threading.Lock()
_active: Optional[NumericBackend] = None


def register_backend(
    name: str, factory: Callable[[], NumericBackend]
) -> None:
    """Make ``factory`` selectable by ``name`` (env var or
    :func:`set_backend`)."""
    with _lock:
        _registry[name.strip().lower()] = factory


def get_backend() -> NumericBackend:
    """The process-wide active backend, resolving ``REPRO_BACKEND`` on
    first use."""
    global _active
    backend = _active
    if backend is None:
        with _lock:
            backend = _active
            if backend is None:
                name = os.environ.get(_ENV_VAR, "numpy").strip().lower()
                try:
                    factory = _registry[name]
                except KeyError:
                    known = ", ".join(sorted(_registry))
                    raise ValueError(
                        f"unknown {_ENV_VAR} backend {name!r} (known: {known})"
                    ) from None
                backend = _active = factory()
    return backend


def set_backend(
    backend: Union[str, NumericBackend, None],
) -> Optional[NumericBackend]:
    """Activate a backend (by registered name, as an instance, or None to
    force re-resolution from the environment on next use) and return the
    previously active one.

    Sessions capture the backend at construction, so swap backends
    *before* opening sessions (or drop existing ones).
    """
    global _active
    with _lock:
        previous = _active
        if backend is None or isinstance(backend, NumericBackend):
            _active = backend
        else:
            name = backend.strip().lower()
            try:
                factory = _registry[name]
            except KeyError:
                known = ", ".join(sorted(_registry))
                raise ValueError(
                    f"unknown backend {backend!r} (known: {known})"
                ) from None
            _active = factory()
        return previous
