"""The systems under test and the seeded inputs each workload sends them.

Two systems are built from source on every set-up:

* the 212-person bench network (``dblp_like(scale=0.012, seed=13)``) with
  the trained GCN ranker, the trained GAE link predictor, PPMI skill
  embeddings and the cover team former; explainer configs are those of
  ``benchmarks/bench_probe_engine.py``;
* a 2e4-person compact CSR network from ``synthesize_network_streaming``
  (the recipe shape of ``scripts/scale_smoke.py``) with the PageRank
  ranker, the heuristic link predictor, PPMI embeddings over profiles and
  ``scale_smoke``'s small explainer configs.

The system is fixed; ``--seed`` only changes the inputs: which queries are
asked, which subjects are explained, and which skills the live commits
flip.  Request lists are interleaved round-robin over (kind, role)
buckets, so every prefix of a list has the same mix.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.datasets import dblp_like
from repro.embeddings import train_ppmi_embedding
from repro.eval import (
    random_queries,
    sample_search_subjects,
    sample_team_subjects,
    search_requests,
    team_requests,
)
from repro.explain import BeamConfig, FactualConfig
from repro.graph import NetworkRecipe
from repro.graph.generators import synthesize_network_streaming
from repro.linkpred import HeuristicLinkPredictor
from repro.linkpred.gae import GaeConfig, train_gae
from repro.search import GcnExpertRanker, GcnRankerConfig, PageRankExpertRanker
from repro.service import EngineRegistry, ExplainRequest, ExplanationService
from repro.team import CoverTeamFormer

K = 10
BENCH_BEAM = BeamConfig(beam_size=10, n_candidates=6, max_size=4, n_explanations=3)
BENCH_FACTUAL = FactualConfig(n_samples=96, max_samples=192, selection_samples=48)
SCALE_BEAM = BeamConfig(beam_size=4, n_candidates=4, max_size=2, n_explanations=1)
SCALE_FACTUAL = FactualConfig(n_samples=16, max_samples=32, selection_samples=8)
SCALE_PEOPLE = 20_000
SCALE_EPSILON = 1e-5
QUERY_LENGTHS = (3, 4, 5)
HOT_SET_SEED = 0


@dataclass
class Stack:
    """One built system under explanation plus its set-up breakdown."""

    network: object
    ranker: object
    embedding: object
    link_predictor: object
    former: Optional[object]
    factual_config: FactualConfig
    beam_config: BeamConfig
    setup: Dict[str, float] = field(default_factory=dict)

    def service(self, network=None) -> ExplanationService:
        """A fresh service over this system (or over ``network``, a copy
        of its network) with its own registry."""
        start = time.perf_counter()
        service = ExplanationService(
            network=self.network if network is None else network,
            ranker=self.ranker,
            embedding=self.embedding,
            link_predictor=self.link_predictor,
            former=self.former,
            k=K,
            factual_config=self.factual_config,
            beam_config=self.beam_config,
            registry=EngineRegistry(),
        )
        self.setup["service_s"] = time.perf_counter() - start
        return service


def _timed(setup: Dict[str, float], name: str, fn):
    start = time.perf_counter()
    value = fn()
    setup[name] = time.perf_counter() - start
    return value


def build_bench_stack() -> Stack:
    """The 212-person GCN stack of ``bench_probe_engine.build_stack``."""
    setup: Dict[str, float] = {}
    dataset = _timed(setup, "dataset_s", lambda: dblp_like(scale=0.012, seed=13))
    net = dataset.network
    embedding = _timed(
        setup, "embedding_s",
        lambda: train_ppmi_embedding(dataset.corpus.token_lists(), dim=32, seed=1),
    )
    ranker = _timed(
        setup, "ranker_s",
        lambda: GcnExpertRanker(
            embedding, GcnRankerConfig(epochs=40, n_train_queries=30, seed=1)
        ).fit(net),
    )
    predictor = _timed(setup, "link_predictor_s", lambda: train_gae(net, GaeConfig(seed=1)))
    return Stack(
        net, ranker, embedding, predictor, CoverTeamFormer(ranker),
        BENCH_FACTUAL, BENCH_BEAM, setup,
    )


def scale_recipe(n: int = SCALE_PEOPLE) -> NetworkRecipe:
    """``scripts/scale_smoke.py``'s recipe shape at ``n`` people."""
    return NetworkRecipe(
        n_people=n,
        n_edges=3 * n,
        n_skills=max(200, n // 50),
        n_communities=max(12, n // 2000),
        skills_per_person=8,
        seed=29,
    )


def build_scale_stack(n: int = SCALE_PEOPLE) -> Stack:
    """The compact-CSR PageRank stack (no training)."""
    setup: Dict[str, float] = {}
    net = _timed(
        setup, "dataset_s", lambda: synthesize_network_streaming(scale_recipe(n)).network
    )
    embedding = _timed(
        setup, "embedding_s",
        lambda: train_ppmi_embedding(
            [sorted(net.skills(p)) for p in net.people()], dim=16, min_count=1
        ),
    )
    ranker = _timed(setup, "ranker_s", PageRankExpertRanker)
    predictor = _timed(setup, "link_predictor_s", lambda: HeuristicLinkPredictor().fit(net))
    return Stack(
        net, ranker, embedding, predictor, None, SCALE_FACTUAL, SCALE_BEAM, setup
    )


# ---------------------------------------------------------------------------
# seeded inputs
# ---------------------------------------------------------------------------


def interleave(buckets: Dict[Tuple, List[ExplainRequest]]) -> List[ExplainRequest]:
    """Round-robin over buckets in sorted key order, dropping duplicates,
    so every prefix keeps the bucket mix until a bucket runs dry."""
    keys = sorted(buckets, key=repr)
    out: List[ExplainRequest] = []
    seen = set()
    depth = max((len(b) for b in buckets.values()), default=0)
    for i in range(depth):
        for key in keys:
            bucket = buckets[key]
            if i < len(bucket) and bucket[i] not in seen:
                seen.add(bucket[i])
                out.append(bucket[i])
    return out


def bucketed(requests: Sequence[ExplainRequest]) -> Dict[Tuple, List[ExplainRequest]]:
    buckets: Dict[Tuple, List[ExplainRequest]] = {}
    for request in requests:
        buckets.setdefault((request.kind, request.tag), []).append(request)
    return buckets


def stratified_queries(network, n_queries: int, seed: int) -> List[List[str]]:
    """Seeded random queries whose lengths cycle 3, 4, 5 terms: the cost
    of a query explanation grows with its length (2^m coalitions), so a
    fixed length mix keeps seeds from differing by their length draw."""
    per_length = [
        random_queries(network, -(-n_queries // 3), seed=3 * seed + i, terms=(m, m))
        for i, m in enumerate(QUERY_LENGTHS)
    ]
    return [q for group in zip(*per_length) for q in group][:n_queries]


def distinct_requests(
    stack: Stack,
    seed: int,
    kinds: Sequence[str],
    team_kinds: Sequence[str],
    n_queries: int,
    n_team_queries: int,
) -> List[ExplainRequest]:
    """Distinct subjects over seeded random queries: the expert and the
    non-expert of each query for ``kinds``, and the member and non-member
    of a team formed around a top-k expert for ``team_kinds``."""
    net, ranker = stack.network, stack.ranker
    queries = stratified_queries(net, n_queries, seed)
    subjects = sample_search_subjects(ranker, net, queries, K, seed=seed + 1)
    requests = search_requests(subjects, kinds=kinds) if kinds else []
    if team_kinds:
        team = sample_team_subjects(
            stack.former, ranker, net, queries[:n_team_queries], K, seed=seed + 2
        )
        requests += team_requests(team, kinds=team_kinds)
    return interleave(bucketed(requests))


def localized(requests: Iterable[ExplainRequest]) -> List[ExplainRequest]:
    return [
        ExplainRequest(
            kind=r.kind, person=r.person, query=r.query, tag=r.tag,
            localized=True, epsilon=SCALE_EPSILON,
        )
        for r in requests
    ]


@dataclass
class HotTraffic:
    """Inputs of the two serve connections: A's single requests with a
    commit after every ``commit_every`` of them, B's multi-request
    batches, and the skill flips A commits (add, then remove again)."""

    interactive: List[ExplainRequest]
    dashboard: List[List[ExplainRequest]]
    flips: List[Tuple[int, str, bool]]
    commit_every: int


def hot_traffic(
    stack: Stack,
    seed: int,
    n_hot_queries: int,
    interactive_kinds: Sequence[str],
    dashboard_kinds: Sequence[str],
    team_kinds: Sequence[str],
    batch_size: int,
    commit_every: int,
    length: int = 4000,
) -> HotTraffic:
    """A few hot queries, one expert and one non-expert each; both
    connections draw (subject, kind) pairs from that one hot set, so they
    repeat each other's requests.

    The hot set is the deployment's popular queries and stays the same for
    every seed (drawn with ``HOT_SET_SEED``); ``seed`` draws the traffic:
    the order of A's requests, B's batches and the skills A's commits flip.
    Each connection walks its pool in seeded rounds, a fresh permutation
    per round, so every (subject, kind) pair is asked equally often and a
    run's request mix does not depend on the seed.
    With a hot set drawn per seed, a handful of subjects set the cost of a
    whole run and throughput moved 2x between seeds."""
    net, ranker = stack.network, stack.ranker
    hot_rng = np.random.default_rng(HOT_SET_SEED)
    queries = stratified_queries(net, n_hot_queries, HOT_SET_SEED)
    subjects = []
    for query in queries:
        results = ranker.evaluate(query, net)
        top = [int(p) for p in results.order[:K] if results.scores[p] > 0]
        band = [int(p) for p in results.order[K : 2 * K] if results.scores[p] > 0]
        for tag, pool in (("expert", top), ("non_expert", band)):
            if pool:
                subjects.append((int(hot_rng.choice(pool)), tuple(query), tag))
    team_subjects = sample_team_subjects(
        stack.former, ranker, net, queries, K, seed=HOT_SET_SEED + 1
    )
    rng = np.random.default_rng(seed)

    def pool(kinds):
        return [
            ExplainRequest(kind=kind, person=person, query=query, tag=tag)
            for person, query, tag in subjects
            for kind in kinds
        ]

    interactive_pool = pool(interactive_kinds)
    dashboard_pool = pool(dashboard_kinds) + team_requests(team_subjects, kinds=team_kinds)
    if not interactive_pool or not dashboard_pool:
        raise ValueError(f"the {n_hot_queries} hot queries have no ranked subjects")
    def rounds(pool, n):
        out: List[ExplainRequest] = []
        while len(out) < n:
            out += [pool[i] for i in rng.permutation(len(pool))]
        return out[:n]

    interactive = rounds(interactive_pool, length)
    stream = rounds(dashboard_pool, length)
    dashboard = [stream[i : i + batch_size] for i in range(0, length, batch_size)]
    skills = sorted(net.skill_universe())
    flips: List[Tuple[int, str, bool]] = []
    while len(flips) < length // commit_every:
        person = int(rng.integers(net.n_people))
        skill = skills[int(rng.integers(len(skills)))]
        if skill in net.skills(person):
            continue
        flips += [(person, skill, True), (person, skill, False)]
    return HotTraffic(interactive, dashboard, flips, commit_every)
