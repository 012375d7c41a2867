"""Layer spans for the traced benchmark run, recorded from outside ``src/``.

:func:`install` replaces the public functions of each layer module with
timing wrappers and returns a :class:`Tracer`; :meth:`Tracer.restore` puts
every original back.  Each name is patched where its caller looks it up:
``masked_inputs`` in ``repro.explain.factual``, ``apply_perturbations`` and
the ``*_candidates`` generators in ``repro.explain.counterfactual``, the
frame codec in ``repro.serve.server`` and ``repro.serve.client``, and
methods on the classes that define them.

A span is ``(id, name, start, end, parent, request)``.  Parents come from a
per-thread stack; ``ThreadPoolExecutor`` in the service and server modules
is swapped for a pool that hands the submitting thread's innermost span to
the worker, so shard and dispatch threads keep their parent.  Every
``ExplanationService._answer_one`` call opens a ``service.request`` span
with a fresh request id that all spans below it share.

Spans stay in memory until :meth:`Tracer.write`; :meth:`Tracer.layer_totals`
gives each span name its call count, inclusive time and self time (the
span's duration minus the union of its children's intervals).
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np
import scipy.sparse as sp

#: Backend kernels whose time, calls and computed bytes are reported.
BACKEND_KERNELS = (
    "gcn_forward",
    "gcn_forward_blocks",
    "power_iteration",
    "power_iteration_stacked",
    "ppr_delta_push",
    "authority_iteration",
    "spmv",
    "spmm",
)

_SESSION_METHODS = ("scores", "scores_batch", "scores_multi", "scores_localized")
_OVERLAY_OPS = ("add_skill", "remove_skill", "add_edge", "remove_edge")


def _nbytes(value: Any) -> int:
    """Bytes held by the arrays in ``value`` (computed from shapes, not
    measured traffic)."""
    if isinstance(value, np.ndarray):
        return int(value.nbytes)
    if sp.issparse(value):
        return sum(
            int(getattr(value, part).nbytes)
            for part in ("data", "indices", "indptr")
            if hasattr(value, part)
        )
    if isinstance(value, (list, tuple)):
        return sum(_nbytes(item) for item in value)
    return 0


class Tracer:
    """In-memory span and counter store shared by every wrapper."""

    def __init__(self) -> None:
        self.spans: List[Tuple] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._request_ids = itertools.count(1)
        self._lock = threading.Lock()
        #: (owner, attribute, original) for every patch still in place.
        self.patched: List[Tuple[Any, str, Any]] = []

    # -- recording ------------------------------------------------------
    def stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] += amount

    def wrap(
        self,
        name: str,
        fn: Callable,
        after: Optional[Callable] = None,
        new_request: bool = False,
    ) -> Callable:
        """``fn`` recorded as a ``name`` span; ``after(args, result, outer)``
        runs when it returns, where ``outer`` says no span of the same name
        encloses this one."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer.stack()
            parent, request = (stack[-1][0], stack[-1][1]) if stack else (None, None)
            outer = not any(entry[2] == name for entry in stack)
            if new_request:
                request = next(tracer._request_ids)
            sid = next(tracer._ids)
            stack.append((sid, request, name))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append((sid, name, start, end, parent, request))
            if after is not None:
                after(args, result, outer)
            return result

        return wrapper

    # -- patching -------------------------------------------------------
    def patch(self, owner: Any, attr: str, make: Callable[[Callable], Callable]) -> None:
        """Replace ``owner.attr`` with ``make(original)``; classmethods
        and staticmethods keep their descriptor type."""
        if isinstance(owner, type):
            original = owner.__dict__[attr]
        else:
            original = getattr(owner, attr)
        if isinstance(original, (classmethod, staticmethod)):
            replacement = type(original)(make(original.__func__))
        else:
            replacement = make(original)
        setattr(owner, attr, replacement)
        self.patched.append((owner, attr, original))

    def restore(self) -> None:
        """Put back every patched attribute, newest first."""
        while self.patched:
            owner, attr, original = self.patched.pop()
            setattr(owner, attr, original)

    # -- analysis -------------------------------------------------------
    def layer_totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``calls``, ``inclusive_s`` and ``self_s``."""
        children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
        for sid, _name, start, end, parent, _req in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        totals: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "inclusive_s": 0.0, "self_s": 0.0}
        )
        for sid, name, start, end, _parent, _req in self.spans:
            covered = 0.0
            kids = children.get(sid)
            if kids:
                kids.sort()
                lo, hi = None, None
                for k_start, k_end in kids:
                    k_start, k_end = max(k_start, start), min(k_end, end)
                    if k_end <= k_start:
                        continue
                    if hi is None or k_start > hi:
                        if hi is not None:
                            covered += hi - lo
                        lo, hi = k_start, k_end
                    else:
                        hi = max(hi, k_end)
                if hi is not None:
                    covered += hi - lo
            entry = totals[name]
            entry["calls"] += 1
            entry["inclusive_s"] += end - start
            entry["self_s"] += (end - start) - covered
        return dict(totals)

    def write(self, path) -> None:
        """Spans as JSON lines, then one line of counters."""
        with open(path, "w") as fh:
            for sid, name, start, end, parent, req in self.spans:
                fh.write(
                    json.dumps(
                        {"id": sid, "name": name, "start": start, "end": end,
                         "parent": parent, "request": req}
                    )
                    + "\n"
                )
            fh.write(json.dumps({"counters": dict(self.counters)}) + "\n")


def _pool_class(tracer: Tracer):
    class TracedPool(ThreadPoolExecutor):
        """Carries the submitting thread's innermost span to the worker."""

        def submit(self, fn, /, *args, **kwargs):
            stack = tracer.stack()
            parent = stack[-1] if stack else None

            def run(*a, **kw):
                worker = tracer.stack()
                depth = len(worker)
                if parent is not None:
                    worker.append(parent)
                try:
                    return fn(*a, **kw)
                finally:
                    del worker[depth:]

            return super().submit(run, *args, **kwargs)

    return TracedPool


def install() -> Tracer:
    """Patch every traced layer and return the recording tracer."""
    import repro.explain.counterfactual as counterfactual
    import repro.explain.factual as factual
    import repro.search.engine as engine_mod
    import repro.serve.client as client
    import repro.serve.server as server
    import repro.service.service as service_mod
    from repro.backend import get_backend
    from repro.explain.shap import ShapExplainer
    from repro.graph.overlay import NetworkOverlay
    from repro.search.base import RankedResults
    from repro.service.registry import EngineRegistry
    from repro.team.engine import CoverTeamDeltaSession
    from repro.team.greedy import CoverTeamFormer

    tracer = Tracer()
    span = tracer.wrap

    # serve: frame codec and payload (de)serialization on both ends.
    def frame_bytes(_args, result, _outer):
        tracer.count("serve.frame_bytes", len(result))

    for module in (server, client):
        for attr in ("encode_frame", "decode_frame", "request_to_dict",
                     "request_from_dict", "response_to_dict", "response_from_dict"):
            if hasattr(module, attr):
                after = frame_bytes if attr == "encode_frame" else None
                tracer.patch(module, attr, lambda fn, a=after: span("serve.codec", fn, after=a))
    pool = _pool_class(tracer)
    for module in (server, service_mod):
        tracer.patch(module, "ThreadPoolExecutor", lambda _fn: pool)

    # service: batches, requests, commits, rebases, engine builds.
    Service = service_mod.ExplanationService
    tracer.patch(Service, "explain_many", lambda fn: span("service.explain_many", fn))
    tracer.patch(Service, "_answer_one", lambda fn: span("service.request", fn, new_request=True))
    tracer.patch(Service, "commit", lambda fn: span("service.commit", fn))

    def rebase_after(_args, result, _outer):
        tracer.count("service.memo_retained", result.get("retained_memo_entries", 0))
        tracer.count("service.memo_dropped", result.get("dropped_memo_entries", 0))

    tracer.patch(EngineRegistry, "rebase", lambda fn: span("service.rebase", fn, after=rebase_after))

    # explain: probe-state construction, SHAP solver, beam, candidates.
    tracer.patch(factual, "masked_inputs", lambda fn: span("explain.state_build", fn))
    tracer.patch(counterfactual, "apply_perturbations", lambda fn: span("explain.state_build", fn))
    tracer.patch(ShapExplainer, "explain", lambda fn: span("explain.shap", fn))
    tracer.patch(
        counterfactual, "beam_search_counterfactuals", lambda fn: span("explain.beam", fn)
    )
    for attr in dir(counterfactual):
        if attr.endswith("_candidates") and callable(getattr(counterfactual, attr)):
            tracer.patch(counterfactual, attr, lambda fn: span("explain.candidates", fn))

    # search: probes, delta sessions, decisions.  Memo hits, engine
    # builds and team re-forms are read from the registry once per window
    # (the harness), not per call: engines and sessions are shared between
    # shard threads.
    for attr in ("probe", "probe_batch"):
        tracer.patch(engine_mod.ProbeEngine, attr, lambda fn: span("search.probe", fn))

    def states_after(method):
        def after(_args, result, outer):
            if outer:
                n = len(result) if method in ("scores_batch", "scores_multi") else 1
                tracer.count("search.states_scored", n)
        return after

    sessions = {  # a set: the module also binds aliases (ProbeSession)
        cls for cls in vars(engine_mod).values()
        if isinstance(cls, type) and issubclass(cls, engine_mod.DeltaSession)
    }
    for cls in sorted(sessions, key=lambda c: c.__name__):
        for attr in _SESSION_METHODS:
            if attr in cls.__dict__:
                tracer.patch(
                    cls, attr,
                    lambda fn, m=attr: span("search.session", fn, after=states_after(m)),
                )
    tracer.patch(RankedResults, "from_scores", lambda fn: span("search.decision", fn))

    # backend: the active backend's kernels, with computed bytes.
    def kernel_after(args, result, _outer):
        tracer.count("backend.bytes_computed", _nbytes(args[1:]) + _nbytes(result))

    backend_cls = type(get_backend())
    for kernel in BACKEND_KERNELS:
        owner = next(c for c in backend_cls.__mro__ if kernel in c.__dict__)
        tracer.patch(
            owner, kernel,
            lambda fn, k=kernel: span(f"backend.{k}", fn, after=kernel_after),
        )

    # team: formation, in full and through the delta session.
    tracer.patch(CoverTeamFormer, "form", lambda fn: span("team.form", fn))
    tracer.patch(CoverTeamDeltaSession, "form", lambda fn: span("team.form", fn))

    # graph: overlay edits are counted, not timed (hundreds of thousands
    # of sub-microsecond calls per run).
    def counted(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.count("graph.overlay_ops")
            return fn(*args, **kwargs)
        return wrapper

    for attr in _OVERLAY_OPS:
        tracer.patch(NetworkOverlay, attr, counted)
    return tracer
