"""Correctness checks on the responses of a timed window.

They run after the window closes, so they cost the measurement nothing:

* every factual explanation satisfies the SHAP efficiency axiom,
  |sum(phi) - (full_value - base_value)| <= 1e-6;
* every counterfactual (or a seeded sample of them) is re-decided through
  the ``full_rebuild`` reference path, on a copy of the network at the base
  version that answered it: the subject's unperturbed decision must match
  the explanation's, and the counterfactual must flip it;
* an explanation digest over a fixed prefix of the deterministic request
  sequence, which must match the digest of the same prefix answered again
  by a fresh service over a copy of the window's base network.
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.explain.explanation import FactualExplanation
from repro.explain.targets import MembershipTarget, RelevanceTarget
from repro.graph import NetworkOverlay, network_from_dict, network_to_dict
from repro.graph.perturbations import apply_perturbations
from repro.search import ProbeEngine
from repro.service import explanation_signature

from perfbench.workloads import K

EFFICIENCY_TOLERANCE = 1e-6
DIGEST_PREFIX = 8


def efficiency_ok(explanation: FactualExplanation) -> bool:
    total = sum(a.value for a in explanation.attributions)
    return abs(total - (explanation.full_value - explanation.base_value)) <= EFFICIENCY_TOLERANCE


def snapshot(network):
    """A structurally identical copy of ``network`` for later re-decisions."""
    return network_from_dict(network_to_dict(network))


def overlay_with(network, flips: Iterable[Tuple[int, str, bool]]) -> NetworkOverlay:
    """An overlay over ``network`` holding the skill ``flips`` of one
    commit, built the way the server builds it from a ``commit`` frame."""
    overlay = NetworkOverlay(network)
    for person, skill, added in flips:
        (overlay.add_skill if added else overlay.remove_skill)(person, skill)
    return overlay


class ReferenceDecider:
    """Decides probe states through the ``full_rebuild`` path on a private
    copy of the network, stepping the copy through the commits the service
    saw so each response is checked at the version that answered it."""

    def __init__(self, stack, base_copy, base_version: int, commits=()) -> None:
        self.stack = stack
        self.network = base_copy
        self.version = base_version
        # new_version -> flips of the commit that produced it
        self.commits: Dict[int, Sequence[Tuple[int, str, bool]]] = dict(commits)

    def advance(self, version: int) -> None:
        if version < self.version:
            raise ValueError(f"responses must be checked in version order ({version} < {self.version})")
        while self.version < version:
            self.version += 1
            overlay_with(self.network, self.commits[self.version]).commit()

    def decide(self, request, perturbations=()) -> bool:
        if request.team:
            target = MembershipTarget(self.stack.former, seed_member=request.seed_member)
        else:
            target = RelevanceTarget(self.stack.ranker, K)
        engine = ProbeEngine(target, self.network, memoize=False, full_rebuild=True)
        network, query = self.network, request.query
        if perturbations:
            network, query = apply_perturbations(self.network, request.query, perturbations)
        return engine.probe(request.person, query, network)[0]


def check_responses(
    stack,
    responses: Sequence,
    decider: ReferenceDecider,
    cf_sample: Optional[int],
    seed: int,
) -> Dict[str, int]:
    """Run every check on ``responses``; returns per-check counts and the
    indices of responses that failed any check under ``"failed_indices"``."""
    failed = set()
    counts = {"efficiency_checked": 0, "efficiency_failed": 0,
              "cf_checked": 0, "cf_failed": 0, "not_ok": 0}
    cf_items: List[Tuple[int, int, object]] = []
    for i, response in enumerate(responses):
        if response.outcome != "ok" or response.explanation is None:
            counts["not_ok"] += 1
            failed.add(i)
            continue
        explanation = response.explanation
        if isinstance(explanation, FactualExplanation):
            counts["efficiency_checked"] += 1
            if not efficiency_ok(explanation):
                counts["efficiency_failed"] += 1
                failed.add(i)
        else:
            cf_items += [(i, j, cf) for j, cf in enumerate(explanation.counterfactuals)]
    if cf_sample is not None and len(cf_items) > cf_sample:
        rng = np.random.default_rng(seed)
        picks = sorted(rng.choice(len(cf_items), size=cf_sample, replace=False))
        cf_items = [cf_items[p] for p in picks]
    systems = [s for s in (stack.ranker, stack.former) if s is not None]
    saved = [s.full_rebuild for s in systems]
    for s in systems:
        s.full_rebuild = True
    try:
        by_version = sorted(cf_items, key=lambda item: (responses[item[0]].base_version or 0, item[0]))
        initial_checked = set()
        for i, _j, cf in by_version:
            response = responses[i]
            decider.advance(response.base_version or 0)
            counts["cf_checked"] += 1
            initial = response.explanation.initial_decision
            ok = True
            if i not in initial_checked:
                initial_checked.add(i)
                ok = decider.decide(response.request) == initial
            ok = ok and decider.decide(response.request, cf.perturbations) != initial
            if not ok:
                counts["cf_failed"] += 1
                failed.add(i)
    finally:
        for s, flag in zip(systems, saved):
            s.full_rebuild = flag
    counts["failed_indices"] = sorted(failed)
    return counts


def digest(responses: Iterable) -> str:
    """sha256 over the explanation signatures, in order."""
    h = hashlib.sha256()
    for response in responses:
        if response.explanation is None:
            h.update(f"{response.request!r}:{response.outcome}".encode())
        else:
            h.update(repr(explanation_signature(response.request, response.explanation)).encode())
    return h.hexdigest()


def code_digest(root: Path) -> str:
    """sha256 over the program and benchmark sources, recorded with each
    run: digests of one seed are comparable only while this is unchanged."""
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")) + sorted((root / "perfbench").glob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()

