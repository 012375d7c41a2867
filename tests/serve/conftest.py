"""Shared fixtures for the serving front-end suites: a toy system, a
service factory, and an in-event-loop server harness.

No pytest-asyncio here: each test owns one ``asyncio.run`` with the
server and real-socket clients living in the same loop — the exact
in-process deployment shape the CLI's ``serve`` command runs.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.datasets import toy_network
from repro.embeddings import train_ppmi_embedding
from repro.explain import BeamConfig, FactualConfig
from repro.linkpred import HeuristicLinkPredictor
from repro.search import PageRankExpertRanker
from repro.serve import ExplanationServer, ServeConfig
from repro.service import EngineRegistry, ExplanationService, make_requests
from repro.team import CoverTeamFormer

K = 3
FACTUAL = FactualConfig(
    n_samples=16, max_samples=32, selection_samples=8, exact_limit=5
)
BEAM = BeamConfig(beam_size=3, n_candidates=4, max_size=2, n_explanations=1)


@pytest.fixture(scope="package")
def serve_net():
    return toy_network(n_people=16, seed=3)


@pytest.fixture(scope="package")
def serve_embedding(serve_net):
    profiles = [sorted(serve_net.skills(p)) for p in serve_net.people()] * 2
    return train_ppmi_embedding(profiles, dim=8, min_count=1)


@pytest.fixture(scope="package")
def serve_predictor(serve_net):
    return HeuristicLinkPredictor("common_neighbors").fit(serve_net)


@pytest.fixture
def make_service(serve_net, serve_embedding, serve_predictor):
    """Fresh service + registry per test — server tests mutate admission
    and registry state, which must not leak across tests."""

    def build(resilience=None):
        ranker = PageRankExpertRanker()
        return ExplanationService(
            network=serve_net,
            ranker=ranker,
            embedding=serve_embedding,
            link_predictor=serve_predictor,
            former=CoverTeamFormer(ranker),
            k=K,
            factual_config=FACTUAL,
            beam_config=BEAM,
            registry=EngineRegistry(),
            resilience=resilience,
        )

    return build


def multi_shard_requests(service, net, n_queries=2, kinds=("skills", "cf_skills")):
    """Requests spanning several decision targets (relevance + two
    membership seeds), so ``explain_many`` runs several shards and
    partial results exist to stream."""
    skills = sorted(net.skill_universe())
    queries = [tuple(skills[i : i + 3]) for i in range(0, 3 * n_queries, 3)]
    requests = []
    for query in queries:
        order = service.ranker.evaluate(query, net).order
        requests += make_requests(kinds, int(order[0]), query, tag="expert")
        requests += make_requests(kinds, int(order[K]), query, tag="non_expert")
    query = queries[0]
    order = service.ranker.evaluate(query, net).order
    seed_member = int(order[0])
    team = service.former.form(query, net, seed_member=seed_member)
    others = sorted(team.members - {seed_member})
    if others:
        requests += make_requests(
            ("cf_skills",), others[0], query, team=True, seed_member=seed_member
        )
    return requests


@pytest.fixture
def workload_for(serve_net):
    """``workload_for(service)`` -> a multi-shard request list."""

    def build(service, n_queries=2, kinds=("skills", "cf_skills")):
        return multi_shard_requests(service, serve_net, n_queries, kinds)

    return build


async def start_test_server(service, **overrides) -> ExplanationServer:
    config = ServeConfig(port=0, **overrides)
    return await ExplanationServer(service, config).start()


@pytest.fixture
def serve_harness():
    """``(start, run)``: an ephemeral-port server factory plus a
    hang-guarded ``asyncio.run`` wrapper."""

    def run(coro, timeout=120):
        return asyncio.run(asyncio.wait_for(coro, timeout=timeout))

    return start_test_server, run
