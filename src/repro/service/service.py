"""The session-scoped explanation service.

The paper's deployment (Figure 2) is one long-lived ExES instance
answering many explanation requests against one deployed expert-search /
team-formation system.  :class:`ExplanationService` is that object: it
binds the system under explanation (network, ranker, embedding, link
predictor, former) to a shared :class:`~repro.service.registry
.EngineRegistry` and answers typed :class:`~repro.service.requests
.ExplainRequest`\\ s — one at a time through :meth:`explain`, or in bulk
through :meth:`explain_many`.

``explain_many`` is where the service earns its keep:

* requests are **sharded by decision target** — every request against the
  same ``(relevance | membership, seed_member)`` target shares one probe
  engine, and shards run one after another in sorted order on the
  calling thread (the speed of an explanation comes from pruning the
  search and from the shared memos, not from threads: the GIL serializes
  the Python-heavy probe loops, and thread-sharded batches measured
  slower than one thread);
* within a shard, requests are **ordered by query**, so consecutive
  requests hit the engine's score memo and the sessions' per-query base
  caches while they are hottest — an expert and a non-expert explained
  for the same query share every ``(query, flips)`` score vector;
* **identical requests are coalesced** — service traffic repeats hot
  requests, and a request is a pure function of the frozen system state,
  so duplicates within a batch are answered once and re-served
  bit-identically (``response.coalesced`` marks them);
* membership shards **pre-warm the team session's traced base runs** per
  distinct (query, seed); because the session lives in the registry, the
  trace also stays warm for every later request and facade.

The result is deterministic in the request *set*: the same batch, in any
order, yields bit-identical responses, equal to per-call facade answers.

**Resilience** (PR 6): every request terminates with a typed outcome
(:data:`~repro.service.requests.OUTCOMES`).  A request carrying
``timeout_seconds``/``probe_limit`` gets a cooperative
:class:`~repro.runtime.Budget` installed around its dispatch; expiry
either surfaces a best-so-far *partial* explanation (``degraded``) or a
typed ``timed_out`` response.  Delta-path failures retry once on the
reference tier — the same dispatch with :func:`~repro.runtime
.delta_bypass` routing every probe through the plain paths with
overlays kept visible (per-request ``full_rebuild`` semantics, parity-
exact by the same contract the fuzz suite pins) — and a per-(target,
base version) :class:`~repro.service.runtime.CircuitBreaker` routes
straight to that tier after repeated failures.  ``explain_many``
optionally load-sheds over-limit work via :class:`~repro.service
.runtime.AdmissionControl` (typed ``rejected``, never an exception).
The default :class:`~repro.service.runtime.ResilienceConfig` leaves all
of it inert — no budget, no admission, breakers untripped — so
``explain_many`` stays bit-identical to the per-call facade.
"""

from __future__ import annotations

import logging
import threading
import time
import traceback as _traceback
# Unused here, but perfbench/trace.py patches this module attribute by name.
from concurrent.futures import ThreadPoolExecutor  # noqa: F401
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.embeddings.similarity import SkillEmbedding
from repro.explain.candidates import LinkPredictor
from repro.explain.counterfactual import BeamConfig, CounterfactualExplainer
from repro.explain.factual import FactualConfig, FactualExplainer
from repro.explain.targets import DecisionTarget, MembershipTarget, RelevanceTarget
from repro.graph.network import BaseDelta, CollaborationNetwork
from repro.graph.overlay import NetworkOverlay
from repro.runtime import (
    Budget,
    BudgetExceeded,
    LocalizedSpec,
    budget_scope,
    delta_bypass,
    localized_scope,
)
from repro.search.base import ExpertSearchSystem
from repro.search.engine import ProbeEngine
from repro.service.registry import EngineRegistry, default_registry
from repro.service.requests import (
    EXPLANATION_KINDS,
    ExplainError,
    ExplainRequest,
    ExplainResponse,
    Explanation,
)
from repro.service.runtime import (
    AdmissionControl,
    CircuitBreaker,
    ResilienceConfig,
    ServiceStats,
)
from repro.team.base import TeamFormationSystem

logger = logging.getLogger(__name__)

_KIND_ORDER = {kind: i for i, kind in enumerate(EXPLANATION_KINDS)}

#: Exceptions _warm_shard treats as *expected*: warming probes the same
#: state the per-request dispatch will, so a bad seed member or foreign
#: state fails here first and again — typed — per request below.
_EXPECTED_WARM_FAILURES = (ValueError, KeyError, IndexError)


@dataclass(frozen=True)
class CommitResult:
    """What one :meth:`ExplanationService.commit` did: the structural
    :class:`~repro.graph.network.BaseDelta` the overlay promoted, plus the
    registry's rebase accounting (sessions/engines/memo entries retained
    vs. dropped)."""

    delta: BaseDelta
    stats: Dict[str, int]

    @property
    def old_version(self) -> int:
        return self.delta.old_version

    @property
    def new_version(self) -> int:
        return self.delta.new_version


def _explain_error(exc: BaseException, retryable: bool) -> ExplainError:
    tb = _traceback.format_exc(limit=8)
    return ExplainError(
        kind=type(exc).__name__,
        message=str(exc),
        retryable=retryable,
        traceback=tb[-2000:],
    )


class ExplanationService:
    """Long-lived explanation service over one deployed system."""

    def __init__(
        self,
        network: CollaborationNetwork,
        ranker: ExpertSearchSystem,
        embedding: SkillEmbedding,
        link_predictor: LinkPredictor,
        former: Optional[TeamFormationSystem] = None,
        k: int = 10,
        factual_config: Optional[FactualConfig] = None,
        beam_config: Optional[BeamConfig] = None,
        registry: Optional[EngineRegistry] = None,
        resilience: Optional[ResilienceConfig] = None,
    ) -> None:
        self.network = network
        self.ranker = ranker
        self.embedding = embedding
        self.link_predictor = link_predictor
        self.former = former
        self.k = k
        self.factual_config = factual_config or FactualConfig()
        self.beam_config = beam_config or BeamConfig()
        self.resilience = resilience or ResilienceConfig()
        self.stats = ServiceStats()
        self.admission = (
            AdmissionControl(
                self.resilience.max_in_flight, self.resilience.session_share
            )
            if self.resilience.max_in_flight is not None
            else None
        )
        self.breaker = CircuitBreaker(
            failure_threshold=self.resilience.breaker_failure_threshold,
            cooldown_seconds=self.resilience.breaker_cooldown_seconds,
        )
        # The commit gate: one condition guards (inflight request count,
        # pending-commit count).  Requests drain out before a commit
        # rebases the base in place, so no response is ever computed
        # against a mix of two base versions.
        self._version_gate = threading.Condition()
        self._inflight_requests = 0
        self._commit_waiting = 0
        # No explicit registry -> the process-wide default, so services and
        # facades wrapping the same system share engines out of the box.
        self.registry = registry if registry is not None else default_registry()
        # Route the ranker's and former's session lookups through the
        # registry: one delta session per (system, base version), shared by
        # every engine/explainer/facade instead of a single thrashing slot.
        # Ownership is last-install-wins by design: the session hook lives
        # on the system object because ``ranker.scores(query, overlay)``
        # has no other way to reach a registry, so constructing a second
        # service over the same system migrates session ownership to its
        # registry (values stay correct — sessions are pure functions of
        # (system, base) — only cache residency moves).  Share one
        # registry across services wrapping the same system, the way the
        # process default does, to avoid the migration entirely.
        self.registry.install(ranker, former)

    # ------------------------------------------------------------------
    # targets, engines, explainers
    # ------------------------------------------------------------------
    def target(
        self, team: bool = False, seed_member: Optional[int] = None
    ) -> DecisionTarget:
        """The decision being explained: relevance (default) or membership."""
        if not team:
            return RelevanceTarget(self.ranker, self.k)
        if self.former is None:
            raise ValueError("no team formation system was configured")
        return MembershipTarget(self.former, seed_member=seed_member)

    def engine(
        self, team: bool = False, seed_member: Optional[int] = None
    ) -> ProbeEngine:
        """The registry-owned probe engine for the chosen target."""
        return self.registry.engine(self.target(team, seed_member), self.network)

    def factual_explainer(
        self, team: bool = False, seed_member: Optional[int] = None
    ) -> FactualExplainer:
        """A factual explainer with the registry's engine injected."""
        engine = self.engine(team, seed_member)
        return FactualExplainer(
            engine.target,
            self.factual_config,
            engine=engine,
            engine_provider=lambda net, _t=engine.target: self.registry.engine(
                _t, net
            ),
        )

    def counterfactual_explainer(
        self, team: bool = False, seed_member: Optional[int] = None
    ) -> CounterfactualExplainer:
        """A counterfactual explainer with the registry's engine injected."""
        engine = self.engine(team, seed_member)
        return CounterfactualExplainer(
            engine.target,
            self.embedding,
            self.link_predictor,
            self.beam_config,
            engine=engine,
            engine_provider=lambda net, _t=engine.target: self.registry.engine(
                _t, net
            ),
        )

    # ------------------------------------------------------------------
    # single-request path
    # ------------------------------------------------------------------
    def explain(self, request: ExplainRequest) -> ExplainResponse:
        """Answer one request (raises on failure — the bulk path is the
        one that degrades per-request errors into typed responses)."""
        return self._answer_one(request, raise_on_failure=True)

    # ------------------------------------------------------------------
    # live base edits
    # ------------------------------------------------------------------
    def commit(self, overlay: NetworkOverlay) -> CommitResult:
        """Promote ``overlay``'s flips to a new base version *in place*
        and rebase the registry's warm state O(Δ).

        The gate semantics: announcing the commit blocks *new* requests
        at the :meth:`_answer_one` door, then the commit waits until
        every in-flight request has drained — so every response is
        computed against exactly one base version.  Concurrent commits
        serialize on the same gate."""
        if overlay.base is not self.network:
            raise ValueError("overlay does not extend this service's network")
        with self._version_gate:
            self._commit_waiting += 1
            self._version_gate.notify_all()
            try:
                while self._inflight_requests:
                    self._version_gate.wait()
                delta = overlay.commit()
                stats = self.registry.rebase(self.network, delta)
            finally:
                self._commit_waiting -= 1
                self._version_gate.notify_all()
        self.stats.bump("commits")
        if not delta.is_empty:
            self.stats.bump("commit_flips", len(delta.skill_flips) + len(delta.edge_flips))
        return CommitResult(delta=delta, stats=stats)

    # ------------------------------------------------------------------
    # the degradation ladder
    # ------------------------------------------------------------------
    def _budget_for(self, request: ExplainRequest) -> Optional[Budget]:
        if request.timeout_seconds is None and request.probe_limit is None:
            return None
        return Budget(
            timeout_seconds=request.timeout_seconds,
            probe_limit=request.probe_limit,
        )

    def _breaker_key(self, request: ExplainRequest) -> Tuple:
        return (request.target_key, id(self.network), self.network.version)

    def _answer_one(
        self, request: ExplainRequest, raise_on_failure: bool = False
    ) -> ExplainResponse:
        """The commit-gated wrapper around :meth:`_answer_one_impl`: wait
        out any pending commit (commits have priority, so a steady request
        stream cannot starve an edit), pin the base version for the whole
        dispatch, and stamp it on the response.  The matching drain wait
        in :meth:`commit` makes the pinned version an invariant — the base
        cannot move while this request is in flight."""
        with self._version_gate:
            while self._commit_waiting:
                self._version_gate.wait()
            self._inflight_requests += 1
            base_version = self.network.version
        try:
            response = self._answer_one_impl(request, raise_on_failure)
        finally:
            with self._version_gate:
                self._inflight_requests -= 1
                self._version_gate.notify_all()
        return replace(response, base_version=base_version)

    def _answer_one_impl(
        self, request: ExplainRequest, raise_on_failure: bool = False
    ) -> ExplainResponse:
        """One request through the full degradation ladder:

        1. delta tier — the normal dispatch, under the request budget;
        2. reference tier — the same dispatch with the delta paths
           bypassed (:func:`~repro.runtime.delta_bypass`), entered when
           the delta tier raises a retryable exception or the target's
           circuit is open;
        3. typed failure — whatever survives both tiers lands in
           ``response.error`` with an outcome, never as an exception
           (unless ``raise_on_failure``, the single-request contract).
        """
        start = time.perf_counter()
        budget = self._budget_for(request)
        spec = self._localized_spec(request)
        bkey = self._breaker_key(request)

        if not self.breaker.allows_delta(bkey):
            self.stats.bump("breaker_reroute")
            return self._run_reference(
                request, start, budget, raise_on_failure, spec
            )
        try:
            with budget_scope(budget), localized_scope(spec):
                explanation = self._dispatch(request)
        except BudgetExceeded as exc:
            self.breaker.trial_inconclusive(bkey)
            if raise_on_failure:
                raise
            return self._timed_out_response(request, start, exc)
        except ValueError as exc:
            # Request validation (unknown target family, bad seed): the
            # retry tier would fail identically — don't pay it, and don't
            # let it count against the delta path's health.
            self.breaker.trial_inconclusive(bkey)
            self.stats.bump("outcome.failed")
            if raise_on_failure:
                raise
            return ExplainResponse(
                request=request,
                elapsed_seconds=time.perf_counter() - start,
                error=_explain_error(exc, retryable=False),
                outcome="failed",
            )
        except Exception as exc:
            self.breaker.record_failure(bkey)
            self.stats.bump("delta_failure")
            if not self.resilience.full_rebuild_retry:
                self.stats.bump("outcome.failed")
                if raise_on_failure:
                    raise
                return ExplainResponse(
                    request=request,
                    elapsed_seconds=time.perf_counter() - start,
                    error=_explain_error(exc, retryable=True),
                    outcome="failed",
                )
            self.stats.bump("full_rebuild_retry")
            return self._run_reference(
                request, start, budget, raise_on_failure, spec
            )
        self.breaker.record_success(bkey)
        return self._completed_response(
            request, start, budget, explanation, None, spec
        )

    def _localized_spec(self, request: ExplainRequest) -> Optional[LocalizedSpec]:
        """The per-request localized scope, when the request asked for
        one.  A fresh spec per request: its plan counters are the
        response-facing accounting."""
        if not request.localized:
            return None
        if request.epsilon is not None:
            return LocalizedSpec(epsilon=request.epsilon)
        return LocalizedSpec()

    def _run_reference(
        self,
        request: ExplainRequest,
        start: float,
        budget: Optional[Budget],
        raise_on_failure: bool,
        spec: Optional[LocalizedSpec] = None,
    ) -> ExplainResponse:
        """The reference tier: dispatch with every probe routed through
        the plain ranker/former paths, overlays kept visible — the parity
        reference, immune to delta-session faults.  A success here never
        resets the breaker (it says nothing about delta-path health); a
        failure is terminal.  The budget carries over — retries spend the
        same allowance, so the ``timeout_seconds`` bound holds across the
        whole ladder."""
        try:
            with budget_scope(budget), delta_bypass():
                explanation = self._dispatch(request)
        except BudgetExceeded as exc:
            if raise_on_failure:
                raise
            return self._timed_out_response(request, start, exc)
        except Exception as exc:
            self.stats.bump("outcome.failed")
            if raise_on_failure:
                raise
            return ExplainResponse(
                request=request,
                elapsed_seconds=time.perf_counter() - start,
                error=_explain_error(exc, retryable=not isinstance(exc, ValueError)),
                outcome="failed",
            )
        return self._completed_response(
            request, start, budget, explanation, "full_rebuild", spec
        )

    def _completed_response(
        self,
        request: ExplainRequest,
        start: float,
        budget: Optional[Budget],
        explanation: Explanation,
        fallback: Optional[str],
        spec: Optional[LocalizedSpec] = None,
    ) -> ExplainResponse:
        """Type a dispatch that returned an explanation: ``ok``, or
        ``degraded`` when the budget tripped mid-search and the explainer
        salvaged best-so-far state."""
        outcome = "ok"
        reason = None
        if budget is not None and budget.tripped is not None:
            outcome = "degraded"
            reason = budget.tripped
        self.stats.bump(f"outcome.{outcome}")
        if fallback is not None:
            self.stats.bump(f"fallback.{fallback}")
        return ExplainResponse(
            request=request,
            explanation=explanation,
            elapsed_seconds=time.perf_counter() - start,
            outcome=outcome,
            degraded_reason=reason,
            fallback=fallback,
            # The scope's plan accounting: all-zero counts under the
            # reference tier (no delta sessions → no localized plans),
            # which is exactly what the fallback served.
            localized=spec.summary() if spec is not None else None,
        )

    def _timed_out_response(
        self, request: ExplainRequest, start: float, exc: BudgetExceeded
    ) -> ExplainResponse:
        self.stats.bump("outcome.timed_out")
        return ExplainResponse(
            request=request,
            elapsed_seconds=time.perf_counter() - start,
            error=ExplainError(
                kind="BudgetExceeded",
                message=f"budget exhausted ({exc.reason}) before any partial result",
                retryable=True,
            ),
            outcome="timed_out",
            degraded_reason=exc.reason,
        )

    def _dispatch(self, request: ExplainRequest) -> Explanation:
        """Resolve a request to the matching explainer call.  A fresh
        explainer per request keeps the SHAP estimators' seeded RNGs in
        the exact per-call state the facade methods produce, so service
        answers are bit-identical to per-call facade answers."""
        person, query = request.person, request.query
        team, seed = request.team, request.seed_member
        kind = request.kind
        if request.is_factual:
            factual = self.factual_explainer(team, seed)
            method = {
                "skills": factual.explain_skills,
                "query": factual.explain_query,
                "collaborations": factual.explain_collaborations,
            }[kind]
            return method(person, query, self.network)
        explainer = self.counterfactual_explainer(team, seed)
        if kind == "cf_query":
            return explainer.explain_query_augmentation(person, query, self.network)
        # Directional kinds: removal evicts current experts/members,
        # addition promotes the rest — same inference as the facade.
        engine = self.engine(team, seed)
        positive = engine.decide(person, frozenset(query), self.network)
        if kind == "cf_skills":
            if positive:
                return explainer.explain_skill_removal(person, query, self.network)
            return explainer.explain_skill_addition(person, query, self.network)
        if positive:
            return explainer.explain_link_removal(person, query, self.network)
        return explainer.explain_link_addition(person, query, self.network)

    # ------------------------------------------------------------------
    # bulk path
    # ------------------------------------------------------------------
    def explain_many(
        self,
        requests: Sequence[ExplainRequest],
        max_workers: Optional[int] = None,
        coalesce: bool = True,
        on_response: Optional[Callable[[int, ExplainResponse], None]] = None,
    ) -> List[ExplainResponse]:
        """Answer a batch of requests, sharded by decision target.

        Responses come back in request order.  Shards run sequentially in
        sorted order on the calling thread; ``max_workers`` is accepted
        and ignored, so callers that still pass it keep working.

        ``coalesce=True`` (the default) answers *identical* requests once
        per batch: service traffic repeats hot requests (many users, the
        same dashboard), and a request is a pure function of the frozen
        system state, so the duplicate's response is the first's —
        bit-identical by construction, marked ``coalesced`` for
        observability.

        Every request comes back as a typed response: per-request
        failures, budget expiries, and admission sheds land in
        ``response.outcome``/``response.error`` — one bad request never
        takes down the batch, and no shard can wedge it (every dispatch
        is bounded by its request budget).

        ``on_response`` — when given — is invoked exactly once per
        request, with ``(index, response)``, the moment that request's
        response is final.  This is the streaming hook the serving front
        end rides: partial results leave the process while later shards
        are still running.  A callback that raises is counted
        (``on_response_error``) and never fails the batch.
        """
        requests = list(requests)
        results: List[Optional[ExplainResponse]] = [None] * len(requests)

        def emit(index: int) -> None:
            if on_response is None:
                return
            try:
                on_response(index, results[index])
            except Exception:
                self.stats.bump("on_response_error")
                logger.warning("on_response callback failed", exc_info=True)

        for shard in self._shard(requests):
            try:
                self._warm_shard(shard)
            except _EXPECTED_WARM_FAILURES:
                # Warming is an optimization; whatever made it fail (bad
                # seed member, foreign state) will fail the individual
                # requests below, where it lands in a typed response
                # instead of taking down the batch.
                self.stats.bump("warm_failure.expected")
            except Exception:
                # Anything else is a real defect worth surfacing — but
                # still not worth failing requests that may succeed
                # unwarmed.  Log and count it; never swallow silently.
                self.stats.bump("warm_failure.unexpected")
                logger.warning("unexpected _warm_shard failure", exc_info=True)
            answered: Dict[ExplainRequest, ExplainResponse] = {}
            for i, request in shard:
                if coalesce:
                    prior = answered.get(request)
                    if prior is not None:
                        results[i] = ExplainResponse(
                            request=request,
                            explanation=prior.explanation,
                            elapsed_seconds=0.0,
                            error=prior.error,
                            coalesced=True,
                            outcome=prior.outcome,
                            degraded_reason=prior.degraded_reason,
                            fallback=prior.fallback,
                            base_version=prior.base_version,
                        )
                        emit(i)
                        continue
                if self.admission is not None:
                    shed = self.admission.try_acquire(request.session)
                    if shed is not None:
                        self.stats.bump("outcome.rejected")
                        results[i] = ExplainResponse(
                            request=request,
                            error=ExplainError(
                                kind="Rejected", message=shed, retryable=True
                            ),
                            outcome="rejected",
                            base_version=self.network.version,
                        )
                        emit(i)
                        continue
                try:
                    results[i] = self._answer_one(request)
                except Exception as exc:  # pragma: no cover - last resort
                    self.stats.bump("outcome.failed")
                    results[i] = ExplainResponse(
                        request=request,
                        error=_explain_error(exc, retryable=True),
                        outcome="failed",
                    )
                finally:
                    if self.admission is not None:
                        self.admission.release(request.session)
                # Sheds are not answers: an identical request later in
                # the batch deserves its own admission attempt.
                if coalesce and results[i].outcome != "rejected":
                    answered[request] = results[i]
                emit(i)
        return results  # type: ignore[return-value]

    def _shard(
        self, requests: Sequence[ExplainRequest]
    ) -> List[List[Tuple[int, ExplainRequest]]]:
        """Group (index, request) pairs by decision target, each group
        sorted by (query, person, kind) so same-query requests run
        back-to-back against the hottest caches.  Shard order is sorted
        too: ``explain_many`` is fully deterministic in the request *set*,
        not just the request order."""
        groups: Dict[Tuple, List[Tuple[int, ExplainRequest]]] = {}
        for i, request in enumerate(requests):
            groups.setdefault(request.target_key, []).append((i, request))
        for shard in groups.values():
            shard.sort(
                key=lambda item: (
                    item[1].query,
                    item[1].person,
                    _KIND_ORDER[item[1].kind],
                    item[0],
                )
            )
        return [groups[key] for key in sorted(groups, key=repr)]

    def _warm_shard(self, shard: List[Tuple[int, ExplainRequest]]) -> None:
        """Pre-trace team base runs for a membership shard's distinct
        queries — the expensive half of the first membership probe, paid
        once per (query, seed) and kept warm in the registry-owned
        session for every later request and facade."""
        first = shard[0][1]
        if not first.team or self.former is None:
            return
        session = self.former._session_for(self.network)
        if session is None or not hasattr(session, "warm"):
            return
        for query in sorted({req.query_key for _, req in shard}, key=sorted):
            session.warm(query, first.seed_member)

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------
    def set_full_rebuild(self, flag: bool) -> None:
        """Toggle the from-scratch escape hatch across the whole stack and
        drop this network's engines/sessions from the registry — an
        engine-off measurement must not be answered from a delta memo."""
        self.ranker.full_rebuild = flag
        if self.former is not None:
            self.former.full_rebuild = flag
        self.registry.drop_network(self.network)

    def __repr__(self) -> str:
        return (
            f"ExplanationService(ranker={self.ranker.name}, "
            f"n_people={self.network.n_people}, k={self.k}, "
            f"registry={self.registry!r})"
        )
