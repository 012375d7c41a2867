"""Build-around-the-main-member team formation (Hao et al. [23] style).

The method the paper explains in §4.3: "requires the user to input an
expert as the main team member, and constructs a team around the main
member until all the query terms are covered."

Growth is greedy over the frontier of the current team (collaborators of
current members, so the team stays connected):  each step admits the
frontier candidate covering the most still-uncovered query terms, breaking
ties by the associated ranker's score for the query, then by id.  If no
frontier candidate covers anything new, the frontier is widened by the best
connector (highest ranker score adjacent to the team) — this models teams
that must recruit a broker to reach the missing skill — up to ``max_size``.

Every choice the greedy makes is pinned deterministic — seed selection by
(score desc, id asc), cover selection by (cover count desc, score desc,
id asc), connector selection by (score desc, id asc) — so two runs fed the
same scores produce the same team member-for-member.  That determinism is
what lets :class:`~repro.team.engine.CoverTeamDeltaSession` answer
membership probes from the cached base run whenever a perturbation provably
cannot change any of those comparisons.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

import numpy as np

from repro.graph.network import CollaborationNetwork
from repro.graph.perturbations import as_query
from repro.search.base import ExpertSearchSystem
from repro.team.base import Team, TeamFormationSystem, coverage_split


class CoverTeamFormer(TeamFormationSystem):
    """Greedy connected set-cover around a seed expert."""

    def __init__(
        self,
        ranker: ExpertSearchSystem,
        max_size: int = 8,
        max_connectors: int = 2,
    ) -> None:
        if max_size < 1:
            raise ValueError(f"max_size must be >= 1, got {max_size}")
        self.ranker = ranker
        self.max_size = max_size
        self.max_connectors = max_connectors

    def delta_session(self, base: CollaborationNetwork):
        """The team delta-formation session (see ``repro.team.engine``)."""
        from repro.team.engine import CoverTeamDeltaSession

        return CoverTeamDeltaSession(self, base)

    def form(
        self,
        query: Iterable[str],
        network: CollaborationNetwork,
        seed_member: Optional[int] = None,
        scores: Optional[np.ndarray] = None,
    ) -> Team:
        query = as_query(query)
        if network.n_people == 0:
            return Team(frozenset(), None, frozenset(), frozenset(query))
        delta = self._try_delta_form(
            query, network, seed_member=seed_member, scores=scores
        )
        if delta is not None:
            return delta
        return self._form_impl(query, network, seed_member=seed_member, scores=scores)

    def _form_impl(
        self,
        query,
        network: CollaborationNetwork,
        seed_member: Optional[int] = None,
        scores: Optional[np.ndarray] = None,
        witness: Optional[Set[int]] = None,
    ) -> Team:
        """The greedy run itself — shared verbatim by the plain path and
        the delta session's base/re-formation runs, so the two can never
        drift apart.

        ``witness``, when given, collects every person whose skills or
        score the run consulted (the seed, every frontier examined, and
        thus every member): the exact support set a perturbation must miss
        for the cached base team to stay valid.
        """
        if scores is None:
            scores = self.ranker.scores(query, network)
        scores = np.asarray(scores, dtype=np.float64)
        if seed_member is None:
            seed_member = self._seed_choice(scores)

        members: Set[int] = {seed_member}
        build_order: List[int] = [seed_member]
        uncovered: Set[str] = set(query - network.skills(seed_member))
        connectors_used = 0
        if witness is not None:
            witness.add(seed_member)

        while uncovered and len(members) < self.max_size:
            frontier = self._frontier(network, members)
            if witness is not None:
                witness |= frontier
            if not frontier:
                break
            best = self._best_cover(frontier, uncovered, scores, network)
            if best is not None:
                person, newly_covered = best
                members.add(person)
                build_order.append(person)
                uncovered -= newly_covered
                continue
            # Nobody adjacent covers anything: recruit the best connector to
            # open a new part of the graph (bounded, to avoid flooding).
            if connectors_used >= self.max_connectors:
                break
            connector = max(frontier, key=lambda p: (scores[p], -p))
            members.add(connector)
            build_order.append(connector)
            connectors_used += 1

        covered, uncovered_final = coverage_split(query, members, network)
        return Team(
            members=frozenset(members),
            seed=seed_member,
            covered_terms=covered,
            uncovered_terms=uncovered_final,
            build_order=tuple(build_order),
        )

    @staticmethod
    def _seed_choice(scores: np.ndarray) -> int:
        """The auto-selected main member: score descending, id ascending,
        NaN last — one rule shared by the greedy run and the delta
        session's seed re-derivation check, so the two can never drift.
        An O(n) argmax: the first id holding the largest non-NaN score
        (id 0 when every score is NaN), exactly ``lexsort``'s first pick."""
        valid = ~np.isnan(scores)
        if not valid.any():
            return 0
        best = scores.max(where=valid, initial=-np.inf)
        return int(np.argmax(scores == best))

    @staticmethod
    def _frontier(network: CollaborationNetwork, members: Set[int]) -> Set[int]:
        frontier: Set[int] = set()
        for m in members:
            frontier |= network.neighbors(m)
        return frontier - members

    @staticmethod
    def _best_cover(
        frontier: Set[int],
        uncovered: Set[str],
        scores: np.ndarray,
        network: CollaborationNetwork,
    ) -> Optional[Tuple[int, Set[str]]]:
        """The frontier node covering the most uncovered terms, or None.

        The key (cover count, score, -id) is unique per person, so the
        winner is independent of frontier iteration order.
        """
        best_person: Optional[int] = None
        best_cover: Set[str] = set()
        best_key: Tuple[int, float, int] = (0, -np.inf, 0)
        for person in frontier:
            cover = network.skills(person) & uncovered
            if not cover:
                continue
            key = (len(cover), float(scores[person]), -person)
            if key > best_key:
                best_key = key
                best_person = person
                best_cover = set(cover)
        if best_person is None:
            return None
        return best_person, best_cover
