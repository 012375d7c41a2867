"""Cooperative execution budgets, delta-path bypass, and fault hooks.

This is the dependency-free substrate of the resilience runtime in
:mod:`repro.service`.  It lives at the package root because the *hook
sites* are in the probe layer (:mod:`repro.search.engine`,
:mod:`repro.team.engine`) — which the service layer imports, so the
service-side policy objects (admission control, circuit breakers, fault
injectors) cannot be imported from here without a cycle.  The contract:

* :class:`Budget` — one request's wall-clock deadline and probe-count
  allowance.  It is *cooperative*: nothing is interrupted; the probe
  layer calls :func:`check_budget` at flush granularity (one batched
  delta forward, one uncached probe) and a spent budget raises
  :class:`BudgetExceeded` there.  Explainers that accumulate partial
  state catch it and return their best-so-far answer; everything else
  lets it propagate to the service, which types the outcome.
* :func:`budget_scope` — installs a budget for the current thread.  No
  scope (or ``None``) means every check is a no-op, so code outside the
  service — and the deterministic no-deadline service mode — pays one
  thread-local read per flush and nothing else.
* :func:`delta_bypass` — a thread-local switch that makes
  ``_try_delta_scores`` / ``_try_delta_form`` and the engine's batch
  sessions answer ``None``, routing every probe through the plain
  ranker/former paths *with overlays kept visible* — the per-request
  equivalent of ``full_rebuild = True`` on the systems, without mutating
  shared flags under concurrently served batches.  This is the reference tier of
  the service's degradation ladder.
* :func:`localized_scope` — installs a :class:`LocalizedSpec` for the
  current thread: probe scoring runs the sessions' *localized plans*
  (exact k-hop splices where the math allows, bounded-error forward-push
  PageRank where it doesn't — see ``DeltaSession.scores_batch``) and
  the spec accumulates the per-mode plan counts the service stamps onto
  the response.
* :func:`fault_point` — named no-op hooks in the probe layer.  A
  :func:`fault injector <install_fault_injector>` (see
  :mod:`repro.service.faults`) makes them raise, stall, or evict
  deterministically; without one they cost a single global read.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Iterator, Optional


class BudgetExceeded(RuntimeError):
    """A cooperative cancellation: the active request budget is spent.

    ``reason`` is machine-readable: ``"deadline"`` (wall clock) or
    ``"probe_budget"`` (probe-count allowance).
    """

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


class Budget:
    """One request's execution allowance: a wall-clock deadline and/or a
    probe-count limit, checked cooperatively at probe-flush granularity.

    ``tripped`` records the first reason a check failed — the service
    reads it after dispatch to distinguish "completed" from "completed
    partially because the budget ran out" (a consumer caught the
    :class:`BudgetExceeded` and salvaged best-so-far state).
    """

    __slots__ = ("started", "deadline", "probe_limit", "probes", "tripped")

    def __init__(
        self,
        timeout_seconds: Optional[float] = None,
        probe_limit: Optional[int] = None,
    ) -> None:
        self.started = time.perf_counter()
        self.deadline = (
            self.started + timeout_seconds if timeout_seconds is not None else None
        )
        self.probe_limit = probe_limit
        self.probes = 0
        self.tripped: Optional[str] = None

    def expired_reason(self) -> Optional[str]:
        """The reason this budget is spent right now, or None."""
        if self.deadline is not None and time.perf_counter() > self.deadline:
            return "deadline"
        if self.probe_limit is not None and self.probes >= self.probe_limit:
            return "probe_budget"
        return None

    def poll(self) -> Optional[str]:
        """Record (and return) expiry without raising — for consumers
        that honor the deadline through their own clock checks (beam
        search) but still need ``tripped`` stamped for the service."""
        reason = self.expired_reason()
        if reason is not None and self.tripped is None:
            self.tripped = reason
        return reason

    def check(self) -> None:
        """Raise :class:`BudgetExceeded` if the budget is spent."""
        reason = self.poll()
        if reason is not None:
            raise BudgetExceeded(reason)

    def charge(self, n_probes: int) -> None:
        """Account ``n_probes`` system evaluations, then check.  Charged
        *before* the work: a spent budget stops the flush from starting,
        and the overshoot is bounded by one flush."""
        self.probes += n_probes
        self.check()

    def remaining_seconds(self) -> Optional[float]:
        if self.deadline is None:
            return None
        return self.deadline - time.perf_counter()

    def __repr__(self) -> str:
        return (
            f"Budget(deadline={self.deadline}, probe_limit={self.probe_limit}, "
            f"probes={self.probes}, tripped={self.tripped!r})"
        )


#: ``Deadline`` is the request-facing name; the mechanics are one object.
Deadline = Budget

_state = threading.local()


def active_budget() -> Optional[Budget]:
    """The budget installed for the current thread, if any."""
    return getattr(_state, "budget", None)


@contextmanager
def budget_scope(budget: Optional[Budget]) -> Iterator[Optional[Budget]]:
    """Install ``budget`` for the current thread (``None`` = no limits).
    Scopes nest; the innermost wins."""
    previous = getattr(_state, "budget", None)
    _state.budget = budget
    try:
        yield budget
    finally:
        _state.budget = previous


def check_budget(n_probes: int = 0) -> None:
    """Charge-and-check the active budget; a no-op without one.  This is
    the single call sprinkled through the probe layer."""
    budget = getattr(_state, "budget", None)
    if budget is not None:
        if n_probes:
            budget.charge(n_probes)
        else:
            budget.check()


# ---------------------------------------------------------------------------
# delta bypass: per-thread full-rebuild reference routing
# ---------------------------------------------------------------------------


def delta_bypassed() -> bool:
    """Is the current thread routing probes around the delta sessions?"""
    return getattr(_state, "delta_bypass", False)


@contextmanager
def delta_bypass() -> Iterator[None]:
    """Route every probe on this thread through the plain ranker/former
    paths with overlays kept visible — per-request ``full_rebuild``
    semantics (the parity reference), without touching the shared
    ``full_rebuild`` flags that other threads are reading."""
    previous = getattr(_state, "delta_bypass", False)
    _state.delta_bypass = True
    try:
        yield
    finally:
        _state.delta_bypass = previous


# ---------------------------------------------------------------------------
# localized probe plans: per-thread bounded-cone scoring
# ---------------------------------------------------------------------------


class LocalizedSpec:
    """One request's localized-probe policy plus its plan accounting.

    Installed through :func:`localized_scope`, read by the probe engine,
    which hands it to the delta sessions' ``scores_batch``: probes touch
    only the flips' k-hop cone where the math allows an exact splice, and
    run the bounded-error forward-push PageRank kernel where it does not.
    A probe whose cone outgrows the engine's fixed ceiling (a third of the
    network) falls back to the exact global kernel (mode ``"global"``).

    ``epsilon`` is the l1 error allowance for sampled (forward-push)
    probes; every sampled plan reports a certified ``residual_bound <=
    epsilon`` and the worst one is surfaced in :meth:`summary`.

    ``record`` is thread-safe, so a spec may be shared across threads.
    """

    __slots__ = (
        "epsilon",
        "exact",
        "sampled",
        "global_fallbacks",
        "max_residual_bound",
        "_lock",
    )

    def __init__(self, epsilon: float = 1e-6) -> None:
        if epsilon <= 0:
            raise ValueError(f"epsilon must be > 0, got {epsilon}")
        self.epsilon = float(epsilon)
        self.exact = 0
        self.sampled = 0
        self.global_fallbacks = 0
        self.max_residual_bound = 0.0
        self._lock = threading.Lock()

    def record(self, plan) -> None:
        """Account one served plan (any object with ``mode`` and
        ``residual_bound`` attributes — see ``LocalizedPlan``)."""
        with self._lock:
            mode = plan.mode
            if mode == "exact":
                self.exact += 1
            elif mode == "sampled":
                self.sampled += 1
                bound = plan.residual_bound
                if bound is not None and bound > self.max_residual_bound:
                    self.max_residual_bound = bound
            else:
                self.global_fallbacks += 1

    def summary(self) -> dict:
        """The response-facing digest of what this scope served."""
        with self._lock:
            return {
                "epsilon": self.epsilon,
                "exact": self.exact,
                "sampled": self.sampled,
                "global": self.global_fallbacks,
                "max_residual_bound": self.max_residual_bound,
            }

    def __repr__(self) -> str:
        return (
            f"LocalizedSpec(epsilon={self.epsilon}, "
            f"exact={self.exact}, sampled={self.sampled}, "
            f"global={self.global_fallbacks})"
        )


def active_localized() -> Optional[LocalizedSpec]:
    """The localized-probe spec installed for the current thread, if any."""
    return getattr(_state, "localized", None)


@contextmanager
def localized_scope(spec: Optional[LocalizedSpec]) -> Iterator[Optional[LocalizedSpec]]:
    """Route this thread's probes through the sessions' localized plans
    (``None`` = global scoring).  Scopes nest; the innermost wins."""
    previous = getattr(_state, "localized", None)
    _state.localized = spec
    try:
        yield spec
    finally:
        _state.localized = previous


# ---------------------------------------------------------------------------
# fault-injection hook points
# ---------------------------------------------------------------------------

_injector = None


def install_fault_injector(injector) -> None:
    """Install (or with ``None`` remove) the process-wide fault injector
    consulted by :func:`fault_point`.  See :mod:`repro.service.faults`
    for the deterministic injector the chaos suite uses."""
    global _injector
    _injector = injector


@contextmanager
def fault_injection(injector) -> Iterator[None]:
    """Scoped :func:`install_fault_injector`."""
    global _injector
    previous = _injector
    _injector = injector
    try:
        yield
    finally:
        _injector = previous


def fault_point(site: str, key: tuple = (), engine=None) -> None:
    """A named hook in the probe layer.  With no injector installed this
    is one global read.  An installed injector may raise (session
    errors, stale base versions), sleep (slow probes), or mutate the
    passed ``engine`` (memo evictions) — deterministically, keyed on
    ``(site, key)`` so the same probe faults the same way every run."""
    injector = _injector
    if injector is not None:
        injector.fire(site, key, engine=engine)
