"""The ExES facade: one object that explains an expert search or team
formation system (paper Figure 2).

Wiring an :class:`ExES` by hand gives full control::

    exes = ExES(network, ranker, embedding, link_predictor, former, k=10)

or let :meth:`ExES.build` assemble the full paper stack from a dataset
bundle: PPMI skill embeddings from the corpus (Pruning Strategy 4), a
trained GCN ranker (the system under explanation), a trained GAE link
predictor (Pruning Strategy 5), and the build-around-a-member team former.

Every explanation method takes ``team=`` / ``seed_member=`` so the same
calls explain either relevance status C (expert search) or membership
status M (team formation, §3.5).

The facade is a thin adapter over an :class:`~repro.service.service
.ExplanationService`: probe engines and delta sessions live in a shared,
LRU-bounded :class:`~repro.service.registry.EngineRegistry` (the process
default unless ``registry=`` names one), so two facades wrapping the same
deployed system reuse each other's caches, and batched workloads go
through :meth:`explain_many`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence

from repro.datasets import DatasetBundle
from repro.embeddings.ppmi import train_ppmi_embedding
from repro.embeddings.similarity import SkillEmbedding
from repro.explain.candidates import LinkPredictor
from repro.explain.counterfactual import BeamConfig, CounterfactualExplainer
from repro.explain.explanation import CounterfactualExplanation, FactualExplanation
from repro.explain.factual import FactualConfig, FactualExplainer
from repro.explain.targets import DecisionTarget
from repro.graph.network import CollaborationNetwork
from repro.linkpred.gae import GaeConfig, train_gae
from repro.search.base import ExpertSearchSystem
from repro.search.engine import ProbeEngine
from repro.search.gcn import GcnExpertRanker, GcnRankerConfig
from repro.service.registry import EngineRegistry
from repro.service.requests import ExplainRequest, ExplainResponse
from repro.service.service import ExplanationService
from repro.team.base import Team, TeamFormationSystem
from repro.team.greedy import CoverTeamFormer


@dataclass
class ExES:
    """Post-hoc explainer for expert search and team formation systems."""

    network: CollaborationNetwork
    ranker: ExpertSearchSystem
    embedding: SkillEmbedding
    link_predictor: LinkPredictor
    former: Optional[TeamFormationSystem] = None
    k: int = 10
    factual_config: FactualConfig = field(default_factory=FactualConfig)
    beam_config: BeamConfig = field(default_factory=BeamConfig)
    # None -> the process-wide default registry: facade instances wrapping
    # the same system share engines, sessions, and traced team base runs.
    registry: Optional[EngineRegistry] = field(default=None, compare=False)
    _service: ExplanationService = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self._service = ExplanationService(
            network=self.network,
            ranker=self.ranker,
            embedding=self.embedding,
            link_predictor=self.link_predictor,
            former=self.former,
            k=self.k,
            factual_config=self.factual_config,
            beam_config=self.beam_config,
            registry=self.registry,
        )
        self.registry = self._service.registry

    @property
    def service(self) -> ExplanationService:
        """The underlying long-lived explanation service."""
        return self._service

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        dataset: DatasetBundle,
        k: int = 10,
        embedding_dim: int = 32,
        ranker_config: Optional[GcnRankerConfig] = None,
        gae_config: Optional[GaeConfig] = None,
        factual_config: Optional[FactualConfig] = None,
        beam_config: Optional[BeamConfig] = None,
        seed: int = 0,
        ranker: Optional[ExpertSearchSystem] = None,
        registry: Optional[EngineRegistry] = None,
    ) -> "ExES":
        """Assemble and train the full paper stack on a dataset bundle.

        ``ranker=`` swaps the system under explanation: pass any
        :class:`ExpertSearchSystem` (e.g. the PageRank/HITS/TF-IDF
        baselines of Table 1) instead of training the default GCN.  All
        four shipped rankers carry delta-scoring sessions, so the probe
        engine explains any of them without materializing overlays.
        """
        embedding = train_ppmi_embedding(
            dataset.corpus.token_lists(), dim=embedding_dim, seed=seed
        )
        if ranker is None:
            ranker = GcnExpertRanker(
                embedding, ranker_config or GcnRankerConfig(seed=seed)
            ).fit(dataset.network)
        link_predictor = train_gae(
            dataset.network, gae_config or GaeConfig(seed=seed)
        )
        former = CoverTeamFormer(ranker)
        return cls(
            network=dataset.network,
            ranker=ranker,
            embedding=embedding,
            link_predictor=link_predictor,
            former=former,
            k=k,
            factual_config=factual_config or FactualConfig(),
            beam_config=beam_config or BeamConfig(),
            registry=registry,
        )

    # ------------------------------------------------------------------
    # targets & explainers (service delegations)
    # ------------------------------------------------------------------
    def target(
        self, team: bool = False, seed_member: Optional[int] = None
    ) -> DecisionTarget:
        """The decision being explained: relevance (default) or membership."""
        return self._service.target(team, seed_member)

    def set_full_rebuild(self, flag: bool) -> None:
        """Toggle the from-scratch escape hatch across the whole stack —
        the ranker's delta sessions *and* the former's team delta session —
        so parity tests and engine-off benchmarks flip one switch instead
        of chasing every system that might serve an overlay.  This
        network's probe engines are evicted from the registry too: their
        memos hold results computed under the previous setting, and an
        "engine-off" measurement must not be answered from a delta-path
        memo."""
        self._service.set_full_rebuild(flag)

    def probe_engine(
        self, team: bool = False, seed_member: Optional[int] = None
    ) -> ProbeEngine:
        """The shared, memoizing probe engine for the chosen target.

        Engines live in the :class:`~repro.service.registry.EngineRegistry`
        — keyed ``(base network version, ranker/former, target)`` with
        bounded LRU eviction — so the same engine (and its two-level
        probe memo) serves every explainer of this facade *and* any other
        facade or service wrapping the same system.  Overlay probes that
        miss the memo reach the ranker as overlays, so any ranker with a
        :class:`~repro.search.engine.DeltaSession` (all four shipped
        systems) serves them in O(Δ), never through ``materialize()`` —
        and team-membership probes additionally reach the former's
        :class:`~repro.team.engine.TeamDeltaSession`, which answers from
        the cached base formation run when the flips provably cannot
        change it and re-forms greedily on the overlay otherwise.  Probe
        groups — and single probes, as batches of one — are flushed
        through the ranker's batched delta path
        (:meth:`ProbeEngine.probe_batch`): grouped by query, through
        :meth:`~repro.search.engine.DeltaSession.scores_batch`, the
        session's one scoring entry point (the thread's localized spec,
        if any, rides along as its ``spec`` argument)."""
        return self._service.engine(team, seed_member)

    def factual_explainer(
        self, team: bool = False, seed_member: Optional[int] = None
    ) -> FactualExplainer:
        """A factual explainer bound to the chosen decision target."""
        return self._service.factual_explainer(team, seed_member)

    def counterfactual_explainer(
        self, team: bool = False, seed_member: Optional[int] = None
    ) -> CounterfactualExplainer:
        """A counterfactual explainer bound to the chosen decision target."""
        return self._service.counterfactual_explainer(team, seed_member)

    # ------------------------------------------------------------------
    # bulk requests (service front door)
    # ------------------------------------------------------------------
    def explain(self, request: ExplainRequest) -> ExplainResponse:
        """Answer one typed :class:`ExplainRequest` through the service."""
        return self._service.explain(request)

    def explain_many(
        self,
        requests: Sequence[ExplainRequest],
        coalesce: bool = True,
    ) -> List[ExplainResponse]:
        """Answer a batch of requests through the service: sharded by
        decision target and sorted by query on the calling thread,
        identical requests coalesced, responses in request order."""
        return self._service.explain_many(requests, coalesce=coalesce)

    # ------------------------------------------------------------------
    # the underlying systems (convenience passthroughs)
    # ------------------------------------------------------------------
    def top_k(self, query: Iterable[str]) -> List[int]:
        """The experts the ranker returns for this query."""
        return self.ranker.top_k(query, self.network, self.k)

    def rank_of(self, person: int, query: Iterable[str]) -> int:
        """R_pi(q, G): this person's 1-based rank for the query."""
        return self.ranker.rank_of(person, query, self.network)

    def is_expert(self, person: int, query: Iterable[str]) -> bool:
        """C_pi(q, G) on the unperturbed inputs."""
        return self.rank_of(person, query) <= self.k

    def form_team(
        self, query: Iterable[str], seed_member: Optional[int] = None
    ) -> Team:
        """F(q, G): form a team, optionally pinned to a seed member."""
        if self.former is None:
            raise ValueError("no team formation system was configured")
        return self.former.form(query, self.network, seed_member=seed_member)

    # ------------------------------------------------------------------
    # factual explanations (§3.2)
    # ------------------------------------------------------------------
    def explain_skills(
        self,
        person: int,
        query: Iterable[str],
        team: bool = False,
        seed_member: Optional[int] = None,
    ) -> FactualExplanation:
        """SHAP over the neighborhood's skill assignments."""
        return self.factual_explainer(team, seed_member).explain_skills(
            person, query, self.network
        )

    def explain_query(
        self,
        person: int,
        query: Iterable[str],
        team: bool = False,
        seed_member: Optional[int] = None,
    ) -> FactualExplanation:
        """SHAP over the query keywords."""
        return self.factual_explainer(team, seed_member).explain_query(
            person, query, self.network
        )

    def explain_collaborations(
        self,
        person: int,
        query: Iterable[str],
        team: bool = False,
        seed_member: Optional[int] = None,
    ) -> FactualExplanation:
        """SHAP over the influential collaborations (Pruning Strategy 2)."""
        return self.factual_explainer(team, seed_member).explain_collaborations(
            person, query, self.network
        )

    # ------------------------------------------------------------------
    # counterfactual explanations (§3.3)
    # ------------------------------------------------------------------
    def counterfactual_skills(
        self,
        person: int,
        query: Iterable[str],
        team: bool = False,
        seed_member: Optional[int] = None,
    ) -> CounterfactualExplanation:
        """Skill perturbations that flip the decision: removal for current
        experts/members, addition for the rest (career advancement)."""
        explainer = self.counterfactual_explainer(team, seed_member)
        engine = self.probe_engine(team, seed_member)
        if engine.decide(person, frozenset(query), self.network):
            return explainer.explain_skill_removal(person, query, self.network)
        return explainer.explain_skill_addition(person, query, self.network)

    def counterfactual_query(
        self,
        person: int,
        query: Iterable[str],
        team: bool = False,
        seed_member: Optional[int] = None,
    ) -> CounterfactualExplanation:
        """Query augmentations that flip the decision (§3.3.2)."""
        return self.counterfactual_explainer(team, seed_member).explain_query_augmentation(
            person, query, self.network
        )

    def counterfactual_collaborations(
        self,
        person: int,
        query: Iterable[str],
        team: bool = False,
        seed_member: Optional[int] = None,
    ) -> CounterfactualExplanation:
        """Edge perturbations that flip the decision: removal for current
        experts/members, addition for the rest (§3.3.3)."""
        explainer = self.counterfactual_explainer(team, seed_member)
        engine = self.probe_engine(team, seed_member)
        if engine.decide(person, frozenset(query), self.network):
            return explainer.explain_link_removal(person, query, self.network)
        return explainer.explain_link_addition(person, query, self.network)
