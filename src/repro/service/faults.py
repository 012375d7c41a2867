"""Deterministic fault injection for the resilience runtime.

The probe layer exposes named :func:`~repro.runtime.fault_point` hooks
(``"session.scores"`` at every batched/single delta-session flush,
``"team.form"`` at every delta team formation).  Installing a
:class:`FaultInjector` — via :func:`~repro.runtime.fault_injection` —
makes those hooks misbehave on a deterministic subset of probe states:

* **session errors** (:class:`InjectedSessionError`) — the delta session
  raises mid-flush, exercising the service's full-rebuild retry tier;
* **stale base versions** (:class:`InjectedStaleBaseError`) — models a
  session answering for a base the network has since drifted from;
* **slow probes** — the flush stalls for ``slow_probe_seconds``,
  exercising deadline expiry and partial-result salvage;
* **memo evictions** — the engine's decision/score memos are dropped,
  exercising correctness (not liveness): everything recomputes.

Determinism: each (site, probe-state key, effect) rolls an independent
uniform draw derived from a BLAKE2 digest of ``seed | site | effect |
repr(key)``.  The draw depends only on the probe state — never on
arrival order — so a seeded chaos run faults the same states every time.

Injected faults are *retryable by construction*: the fallback tier runs
with the delta paths bypassed, where the session fault sites are never
reached, so a chaos run's completed explanations remain parity-exact —
the invariant the chaos suite asserts.
"""

from __future__ import annotations

import hashlib
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, Optional


class InjectedFault(RuntimeError):
    """Base class for injector-raised faults (always transient)."""


class InjectedSessionError(InjectedFault):
    """A delta session blowing up mid-flush."""


class InjectedStaleBaseError(InjectedFault):
    """A delta session answering for a drifted base version."""


@dataclass(frozen=True)
class FaultPlan:
    """Per-effect injection rates (probabilities in [0, 1])."""

    session_error_rate: float = 0.0
    stale_base_rate: float = 0.0
    slow_probe_rate: float = 0.0
    slow_probe_seconds: float = 0.05
    memo_evict_rate: float = 0.0
    team_error_rate: float = 0.0

    def __post_init__(self) -> None:
        for name in (
            "session_error_rate",
            "stale_base_rate",
            "slow_probe_rate",
            "memo_evict_rate",
            "team_error_rate",
        ):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")


def _roll(seed: int, site: str, effect: str, key: tuple) -> float:
    """Deterministic uniform draw in [0, 1) for one (state, effect)."""
    digest = hashlib.blake2b(
        f"{seed}|{site}|{effect}|{key!r}".encode(), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big") / 2**64


class FaultInjector:
    """Seeded injector behind the probe layer's fault points.

    ``fired`` counts applied effects per ``"site/effect"`` label — the
    chaos suite and the bench's resilience row read it to prove faults
    actually happened (a chaos test that injected nothing proves
    nothing).
    """

    def __init__(self, plan: FaultPlan, seed: int = 0) -> None:
        self.plan = plan
        self.seed = seed
        self.fired: Dict[str, int] = {}
        self._lock = threading.Lock()

    def _count(self, site: str, effect: str) -> None:
        with self._lock:
            label = f"{site}/{effect}"
            self.fired[label] = self.fired.get(label, 0) + 1

    def total_fired(self) -> int:
        with self._lock:
            return sum(self.fired.values())

    def fire(self, site: str, key: tuple, engine=None) -> None:
        """Apply this injector's effects to one probe state.

        Effects are rolled independently; eviction and stalls apply
        before a raise so a state can be both slowed and failed.
        """
        plan = self.plan
        if plan.memo_evict_rate and engine is not None:
            if _roll(self.seed, site, "evict", key) < plan.memo_evict_rate:
                self._count(site, "evict")
                self._evict(engine)
        if plan.slow_probe_rate:
            if _roll(self.seed, site, "slow", key) < plan.slow_probe_rate:
                self._count(site, "slow")
                time.sleep(plan.slow_probe_seconds)
        if site == "team.form":
            if plan.team_error_rate and (
                _roll(self.seed, site, "error", key) < plan.team_error_rate
            ):
                self._count(site, "error")
                raise InjectedSessionError(f"injected team-formation fault at {key!r}")
            return
        if plan.session_error_rate:
            if _roll(self.seed, site, "error", key) < plan.session_error_rate:
                self._count(site, "error")
                raise InjectedSessionError(f"injected session fault at {key!r}")
        if plan.stale_base_rate:
            if _roll(self.seed, site, "stale", key) < plan.stale_base_rate:
                self._count(site, "stale")
                raise InjectedStaleBaseError(f"injected stale base at {key!r}")

    @staticmethod
    def _evict(engine) -> None:
        """Drop the engine's memos (and a team session's traced runs).

        A pure correctness stressor: memos only cache deterministic
        results, so eviction can change timings and probe counts but
        never answers.
        """
        for attr in ("_memo", "_score_memo", "_run_cache"):
            cache = getattr(engine, attr, None)
            if cache is not None:
                cache.clear()
