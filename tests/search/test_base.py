"""Ranking interface tests (RankedResults, RelevanceJudge, tie-breaking)."""

import numpy as np
import pytest

from repro.datasets import toy_network
from repro.graph import CollaborationNetwork
from repro.search import ExpertSearchSystem, RelevanceJudge
from repro.search.base import RankedResults, query_match_vector


class FixedScoreRanker(ExpertSearchSystem):
    """Returns a canned score vector (for interface tests)."""

    def __init__(self, score_vector):
        self._scores = np.asarray(score_vector, dtype=float)

    def scores(self, query, network):
        return self._scores


@pytest.fixture
def net4():
    net = CollaborationNetwork()
    for i in range(4):
        net.add_person(f"p{i}", {"a"} if i % 2 == 0 else {"b"})
    return net


class TestRankedResults:
    def test_order_score_descending(self, net4):
        ranker = FixedScoreRanker([0.1, 0.9, 0.5, 0.3])
        results = ranker.evaluate(["a"], net4)
        assert list(results.order) == [1, 2, 3, 0]

    def test_ties_break_by_id(self, net4):
        ranker = FixedScoreRanker([0.5, 0.5, 0.9, 0.5])
        results = ranker.evaluate(["a"], net4)
        assert list(results.order) == [2, 0, 1, 3]

    def test_rank_of_one_based(self, net4):
        results = FixedScoreRanker([0.1, 0.9, 0.5, 0.3]).evaluate(["a"], net4)
        assert results.rank_of(1) == 1
        assert results.rank_of(0) == 4

    def test_top_k_and_relevance(self, net4):
        results = FixedScoreRanker([0.1, 0.9, 0.5, 0.3]).evaluate(["a"], net4)
        assert results.top_k(2) == [1, 2]
        assert results.is_relevant(2, 2)
        assert not results.is_relevant(3, 2)

    def test_wrong_shape_rejected(self, net4):
        ranker = FixedScoreRanker([0.1, 0.2])
        with pytest.raises(ValueError, match="shape"):
            ranker.evaluate(["a"], net4)


def _lexsort_ranks(scores):
    order = np.lexsort((np.arange(len(scores)), -scores))
    ranks = np.empty(len(scores), dtype=np.int64)
    ranks[order] = np.arange(1, len(scores) + 1)
    return order, ranks


def _awkward_vector(rng, n):
    """Scores drawn from a tiny value pool (many exact ties), with ±0.0,
    ±inf and NaN mixed in."""
    pool = np.array([0.0, -0.0, 1.5, -2.0, 3.25, np.inf, -np.inf, np.nan])
    return pool[rng.integers(0, len(pool), size=n)]


class TestCountingRank:
    """``rank_of`` counts instead of sorting; it must agree with the
    ``lexsort`` ordering (score desc, id asc, NaN last) everywhere."""

    @pytest.mark.parametrize("seed", range(6))
    def test_counting_rank_equals_lexsort_rank(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 60))
        scores = _awkward_vector(rng, n)
        _, ranks = _lexsort_ranks(scores)
        results = RankedResults.from_scores(scores)
        assert [results.rank_of(p) for p in range(n)] == list(ranks)
        assert results._order is None and results._ranks is None  # never sorted

    @pytest.mark.parametrize("seed", range(4))
    def test_lazy_order_and_ranks_equal_eager(self, seed):
        rng = np.random.default_rng(100 + seed)
        scores = _awkward_vector(rng, 40)
        order, ranks = _lexsort_ranks(scores)
        results = RankedResults.from_scores(scores)
        np.testing.assert_array_equal(results.order, order)
        np.testing.assert_array_equal(results.ranks, ranks)

    def test_nan_ranks_last_by_id(self):
        results = RankedResults.from_scores(np.array([np.nan, 1.0, np.nan, -np.inf]))
        assert [results.rank_of(p) for p in range(4)] == [3, 1, 4, 2]
        assert list(results.order) == [1, 3, 0, 2]

    def test_signed_zeros_tie(self):
        results = RankedResults.from_scores(np.array([-0.0, 0.0, -0.0]))
        assert [results.rank_of(p) for p in range(3)] == [1, 2, 3]


class TestRelevanceJudge:
    def test_judge_matches_rank(self, net4):
        ranker = FixedScoreRanker([0.1, 0.9, 0.5, 0.3])
        judge = RelevanceJudge(ranker, k=2)
        assert judge(1, ["a"], net4) is True
        assert judge(0, ["a"], net4) is False

    def test_with_rank_consistent(self, net4):
        ranker = FixedScoreRanker([0.1, 0.9, 0.5, 0.3])
        judge = RelevanceJudge(ranker, k=2)
        relevant, rank = judge.with_rank(2, ["a"], net4)
        assert relevant and rank == 2

    def test_invalid_k(self, net4):
        with pytest.raises(ValueError):
            RelevanceJudge(FixedScoreRanker([1, 2, 3, 4]), k=0)


class TestQueryMatchVector:
    def test_fraction_of_terms(self, net4):
        vec = query_match_vector(frozenset({"a", "b"}), net4)
        np.testing.assert_allclose(vec, [0.5, 0.5, 0.5, 0.5])

    def test_empty_query(self, net4):
        assert query_match_vector(frozenset(), net4).sum() == 0.0

    def test_unknown_terms(self, net4):
        assert query_match_vector(frozenset({"zz"}), net4).sum() == 0.0
