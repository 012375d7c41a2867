"""The incremental probe engine: multi-ranker delta scoring + probe memoization.

ExES's explanation search is throughput-bound on probes — thousands of
``decide(person, q', G')`` calls against the ranker, where each ``(q', G')``
differs from the base inputs by 1–5 flips.  The seed implementation paid a
full network deep copy plus a from-scratch rebuild of every derived artifact
(skill incidence, node features, adjacency, idf statistics) for every single
probe.  This module makes probes O(Δ) for **all four shipped rankers**:

* :class:`DeltaSession` — the per-(ranker, base-network-version) protocol.
  A session caches the base network's derived artifacts once and serves
  every :class:`~repro.graph.overlay.NetworkOverlay` over that base with
  delta patches instead of rebuilds.  Rankers open sessions through
  :meth:`~repro.search.base.ExpertSearchSystem.delta_session`; the
  ranker's ``scores`` dispatches overlays to the session so they are
  delta-scored wherever they appear — beam search, SHAP value functions,
  candidate generation, and anything routed through
  ``ExES.probe_engine``.  A session has one scoring entry point,
  :meth:`DeltaSession.scores_batch(query, overlays, spec)
  <DeltaSession.scores_batch>`, returning ``(scores, LocalizedPlan)``
  per overlay; ``spec`` is the active localized scope (None outside one),
  a parameter of that one path rather than a second copy of it.

  Per-ranker implementations:

  - :class:`GcnDeltaSession` (alias ``ProbeSession``) — cached base feature
    matrix + the GCN propagation operator ``D^-1/2 (A+I) D^-1/2``; a skill
    flip re-derives one feature row, an edge flip re-normalizes through a
    sparse delta on the cached ``A+I``; small cones splice the flips'
    2-hop receptive field, groups share one stacked forward.
  - :class:`PageRankDeltaSession` — cached transition operator (adjacency +
    out-degrees) and, per query, the base solution (multi-term queries
    warm-started from their terms' superposed single-term solutions); a
    probe patches the restart vector / degrees in O(Δ) and warm-starts
    power iteration from the base solution — or, under a localized
    scope, runs a certified bounded-error forward push instead.
  - :class:`HitsDeltaSession` — cached root-set indicator and base-set
    support counts per query; skill and edge flips update both in O(Δ),
    and the restricted base-set adjacency is sliced *sparse* from the
    cached global CSR (never the seed's dense m×m allocation).
  - :class:`TfidfDeltaSession` — idf statistics fit once per base-network
    version (never on perturbed profiles), the base profile matrix and
    per-query score vector cached; a skill flip re-scores one profile row.

  Contract: session scores match the ranker's from-scratch ``full_rebuild``
  scores to 1e-9 (verified per ranker in ``tests/search/test_engine.py``).

* :class:`ProbeEngine` — cross-explainer memoization of decision probes,
  keyed on ``(person, query, frozenset(flips), epsilon)``, plus a second
  score-level memo keyed on ``(query, flips, base version, epsilon)``
  (``epsilon`` is the localized scope's budget, None outside one): the
  ranker's score vector for a probed state is person-independent, so
  once any explainer scores a ``(query subset, overlay)`` state, every
  other explainer (or another person's SHAP sweep over the same masks)
  reuses the vector and pays only the O(n) counting-rank decision, never
  the forward.  There is one probe pipeline: :meth:`ProbeEngine.probe` is a
  :meth:`ProbeEngine.probe_batch` of one, and every miss flushes through
  :meth:`DeltaSession.scores_batch`, grouped by query; only the GCN
  overrides it (one stacked forward per group), every other session
  loops its per-probe ``_score``.
  ``full_rebuild=True`` is the escape hatch: overlays are materialized into
  real networks before probing, restoring the seed code path exactly —
  including seed *behaviour* quirks like the TF-IDF ranker's per-call idf
  refit on the perturbed profiles.  The 1e-9 parity reference for a delta
  session is therefore ``full_rebuild=True`` on the *ranker*, which keeps
  the overlay (and its base-pinned statistics) visible to the plain path.

All bounded caches here evict one least-recently-used entry at capacity
(:class:`_LruCache`) — the PR-1 wholesale ``.clear()`` caused a cold-cache
cliff mid-search.  Sessions and memos are version-stamped: if the base
network mutates, the session is rebuilt and the memo is cleared on the next
probe.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from repro.backend import get_backend
from repro.graph.network import CollaborationNetwork
from repro.graph.overlay import NetworkOverlay
from repro.graph.perturbations import Query, as_query
from repro.runtime import (
    LocalizedSpec,
    active_localized,
    check_budget,
    delta_bypassed,
    fault_point,
)

_MAX_QUERY_CACHE = 512  # per-session distinct base-query states
_MAX_MEMO = 200_000  # per-engine memoized probe outcomes
_MAX_SCORE_MEMO = 2_048  # per-engine memoized score *vectors* (n floats each)
_MAX_PATCH_CACHE = 128  # per-session patched operators, keyed by flip set
_MAX_SEMANTIC_CACHE = 4_096  # per-session solved subproblems (rows/solutions)
_BATCH_GROUP = 8  # overlays per batched GCN forward (bounds block size)
# The PageRank stacked-vs-plain walk threshold is a *backend cost hint*
# (``NumericBackend.pagerank_stack_min_people`` in ``repro.backend.base``);
# sessions read it off ``self.backend``.
# Localized kernels (neighborhood-restricted GCN forwards, the PageRank
# forward push) only pay off while their cone stays well below the whole
# graph; past this fraction the global kernel is cheaper than the slicing
# bookkeeping (see ``_cone_ceiling``).
_RESTRICT_MAX_FRACTION = 1 / 3
# Inside a *batched* flush the alternative to the splice is a stacked
# forward amortized over the group, which beats the splice's Python
# bookkeeping on small graphs; only divert batch members to the splice
# once the graph is big enough that a full forward clearly dominates.
_BATCH_RESTRICT_MIN_N = 1024
# Sweep cap for the localized forward-push PageRank kernel: residual mass
# decays geometrically by the damping factor per sweep, so reaching
# epsilon * (1 - damping) from an O(1) seed takes ~log_{1/d}(1/eps)
# sweeps (~40 at d=0.5, eps=1e-9); the cap only trips degenerate cases,
# which fall back to the exact global kernel.
_LOCALIZED_MAX_SWEEPS = 200


@dataclass(frozen=True, slots=True)
class LocalizedPlan:
    """How one probe's scores were produced.

    * ``mode`` — ``"exact"`` (certified-exact splice: the untouched rows
      provably equal the base values), ``"sampled"`` (bounded-error
      forward-push with a certified ``residual_bound``; localized scopes
      only), or ``"global"`` (the exact global kernel ran: the cone
      exceeded :func:`_cone_ceiling`, or no localized kernel applied).
    * ``k_hop`` — the cone radius the plan touched (0 = flipped entries
      only, 2 = the GCN receptive field; -1 when no fixed radius applies:
      global fallbacks and push cones, whose reach is residual-driven).
    * ``cone_size`` / ``n_people`` — touched-node count vs the network.
    * ``epsilon`` / ``residual_bound`` — sampled mode only: the requested
      l1 allowance and the certified bound actually achieved
      (``residual_bound <= epsilon``); None for exact/global plans.
    """

    mode: str
    k_hop: int
    cone_size: int
    n_people: int
    epsilon: Optional[float] = None
    residual_bound: Optional[float] = None


class _LruCache:
    """Bounded mapping with least-recently-used single-entry eviction.

    The PR-1 caches evicted by wholesale ``.clear()`` at capacity, so the
    probe that tipped a cache over made every state the search was still
    actively revisiting pay a cold rebuild.  Overflow now evicts exactly
    one entry — the least recently touched — and hot keys survive.

    Every operation holds a lock: delta sessions and memos live in the
    shared :class:`~repro.service.registry.EngineRegistry`, and the
    serving front end runs several ``explain_many`` batches at once, so an
    unguarded ``get``'s lookup + ``move_to_end`` could interleave with
    another batch's eviction of the same key.  The lock guards only the
    ordered dict's bookkeeping — entry *values* are computed outside it,
    and a double-compute under contention is benign (both threads derive the
    same deterministic value).
    """

    __slots__ = ("capacity", "_data", "_lock")

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._data: OrderedDict = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key):
        with self._lock:
            data = self._data
            try:
                value = data[key]
            except KeyError:
                return None
            data.move_to_end(key)
            return value

    def put(self, key, value) -> None:
        with self._lock:
            data = self._data
            if key in data:
                data.move_to_end(key)
            elif len(data) >= self.capacity:
                data.popitem(last=False)
            data[key] = value

    def pop(self, key) -> None:
        with self._lock:
            self._data.pop(key, None)

    def keys(self) -> List:
        with self._lock:
            return list(self._data.keys())

    def values(self) -> List:
        with self._lock:
            return list(self._data.values())

    def items(self) -> List:
        with self._lock:
            return list(self._data.items())

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key) -> bool:
        return key in self._data

    def clear(self) -> None:
        with self._lock:
            self._data.clear()


def _cone_ceiling(n: int) -> int:
    """Largest touched cone a localized kernel (the GCN's 2-hop splice,
    PageRank's forward push) serves before the global kernel takes over."""
    return max(_BATCH_GROUP, int(n * _RESTRICT_MAX_FRACTION))


def _normalize(a_hat: sp.csr_matrix, deg: np.ndarray) -> sp.csr_matrix:
    """``D^-1/2 (A+I) D^-1/2`` — same formula (and 1e-12 floor) as
    :meth:`CollaborationNetwork.normalized_adjacency`, applied by scaling
    the CSR data directly: ``(a * inv_sqrt[row]) * inv_sqrt[col]`` is the
    exact multiply order the reference's two diagonal matmuls perform, at
    a fraction of their cost (no intermediate sparse products)."""
    inv_sqrt = 1.0 / np.sqrt(np.maximum(deg, 1e-12))
    a_hat = a_hat.tocsr()
    row_scale = np.repeat(inv_sqrt, np.diff(a_hat.indptr))
    data = (a_hat.data * row_scale) * inv_sqrt[a_hat.indices]
    return sp.csr_matrix(
        (data, a_hat.indices, a_hat.indptr), shape=a_hat.shape, copy=True
    )


def _edge_flip_delta(
    edge_flips: Dict[Tuple[int, int], bool], n: int
) -> sp.csr_matrix:
    """Symmetric ±1 sparse delta matrix for a set of edge flips."""
    rows: List[int] = []
    cols: List[int] = []
    data: List[float] = []
    for (u, v), added in edge_flips.items():
        w = 1.0 if added else -1.0
        rows.extend((u, v))
        cols.extend((v, u))
        data.extend((w, w))
    return sp.csr_matrix(
        (np.asarray(data), (rows, cols)), shape=(n, n), dtype=np.float64
    )


def _edge_key(edge_flips: Dict[Tuple[int, int], bool]) -> FrozenSet:
    """Hashable identity of an overlay's edge-flip set — the cache key for
    every adjacency-side patch a session computes."""
    return frozenset(edge_flips.items())


def _committed_csr(
    adj: sp.csr_matrix,
    edge_flips: Sequence[Tuple[int, int, bool]],
    n: int,
) -> sp.csr_matrix:
    """``adj`` with a committed delta's edge flips applied, canonicalized
    to the exact CSR a fresh from-scratch build would produce.

    A removal leaves an explicit stored ``0.0`` (the ``1.0 - 1.0`` is
    exact); ``eliminate_zeros`` drops it and ``sort_indices`` restores the
    canonical layout, so code that walks ``indptr``/``indices`` directly
    (the HITS support patch) and every spmv/spmm accumulate over the same
    structure — and thus bit-identically — as a rebuilt adjacency."""
    delta = _edge_flip_delta(
        {(u, v): added for u, v, added in edge_flips}, n
    )
    patched = (adj + delta).tocsr()
    patched.eliminate_zeros()
    patched.sort_indices()
    return patched


class DeltaSession:
    """Per-(ranker, frozen base network) delta-scoring cache.

    Opened once per base-network version through the ranker's
    :meth:`~repro.search.base.ExpertSearchSystem.delta_session` factory,
    then serves every overlay over that base through
    :meth:`scores_batch`, whose exact and global plans must equal the
    ranker's from-scratch ``full_rebuild`` scores on the same overlay to
    1e-9 — the parity contract every implementation is tested against.
    """

    #: Cache attributes :meth:`warm_state` snapshots — the per-class
    #: inventory of what makes a session "warm" for spill/restore.
    _SPILL_CACHES: Tuple[str, ...] = ()

    def __init__(self, ranker, base: CollaborationNetwork) -> None:
        self.ranker = ranker
        self.base = base
        self.base_version = base.version
        # Captured once so the session's kernel-path decisions (and their
        # cost hints) stay stable for its whole lifetime even if the
        # process-wide backend is swapped mid-run.
        self.backend = get_backend()
        # Commits flip skills and edges, never people, so the two plans
        # with no per-probe fields are shared by every probe of the session.
        n = base.n_people
        self._untouched_plan = LocalizedPlan(
            mode="exact", k_hop=0, cone_size=0, n_people=n
        )
        self._global_plan = LocalizedPlan(
            mode="global", k_hop=-1, cone_size=n, n_people=n
        )

    def valid_for(self, base: CollaborationNetwork) -> bool:
        """Is this session still usable for ``base``?  False once the base
        mutates (version drift)."""
        return base is self.base and base.version == self.base_version

    # ------------------------------------------------------------------
    # base-commit rebasing
    # ------------------------------------------------------------------
    def memo_survives(self, delta, query: Query) -> bool:
        """Does a score-memo entry for ``query`` provably survive the
        committed ``delta``?

        True only when the delta cannot change this ranker's scores for
        ``query`` under *any* probe flip set over the new base — memo keys
        carry arbitrary flips, so per-entry reasoning must hold for all of
        them.  The conservative default retains nothing."""
        return False

    def rebase(self, delta) -> bool:
        """Patch this session's caches O(Δ) onto the committed base.

        ``delta`` is the :class:`~repro.graph.network.BaseDelta` the
        commit emitted; the shared base network object already carries the
        new state.  Returns True when the session now serves the new
        version (caches retained wherever provably still valid), False
        when it declines — the caller drops it and a fresh session is
        built on demand.  The default declines."""
        return False

    def _rebase_applies(self, delta) -> bool:
        """The delta spans exactly this session's (old → current base)
        versions — the precondition every ``rebase`` checks first."""
        return (
            self.base.version == delta.new_version
            and self.base_version == delta.old_version
        )

    def _accept_rebase(self, delta) -> None:
        self.base_version = delta.new_version

    # ------------------------------------------------------------------
    # warm-state spill/restore
    # ------------------------------------------------------------------
    def warm_state(self) -> Dict[str, List]:
        """Snapshot of the LRU caches named in ``_SPILL_CACHES`` as
        ``{attr: [(key, value), ...]}`` — the registry spill payload."""
        return {
            name: getattr(self, name).items() for name in self._SPILL_CACHES
        }

    def load_warm_state(self, state: Dict[str, List]) -> None:
        """Refill the ``_SPILL_CACHES`` from a :meth:`warm_state`
        snapshot (insertion order preserves the spilled LRU order)."""
        for name in self._SPILL_CACHES:
            cache = getattr(self, name)
            for key, value in state.get(name, []):
                cache.put(key, value)

    def scores_batch(
        self,
        query: Query,
        overlays: Iterable[NetworkOverlay],
        spec: Optional[LocalizedSpec] = None,
    ) -> List[Tuple[np.ndarray, LocalizedPlan]]:
        """``(scores, plan)`` for each overlay of a group over the same base
        and query — the one scoring entry point of every session.

        Scores are patched from the base caches in O(Δ), never through
        ``overlay.materialize()``.  ``spec`` is the active localized scope
        (None outside one): an ``"exact"`` or ``"global"`` plan's vector
        equals the ranker's full-rebuild scores to 1e-9, a ``"sampled"``
        plan's vector is within its certified ``residual_bound`` (l1) of
        them.  The default loops :meth:`_score`; only the GCN overrides it
        (its stacked multi-probe forward)."""
        return [self._score(query, overlay, spec) for overlay in overlays]

    def _score(
        self,
        query: Query,
        overlay: NetworkOverlay,
        spec: Optional[LocalizedSpec],
    ) -> Tuple[np.ndarray, LocalizedPlan]:
        """``(scores, plan)`` for one probe — what the default
        :meth:`scores_batch` loops."""
        raise NotImplementedError

    def _exact_plan(self, k_hop: int, cone_size: int) -> LocalizedPlan:
        return LocalizedPlan(
            mode="exact", k_hop=k_hop, cone_size=cone_size, n_people=self.base.n_people
        )


class GcnDeltaSession(DeltaSession):
    """Cached probe inputs for one (GCN ranker, frozen base network) pair.

    Built once per base-network version; serves every overlay over that
    base with O(Δ) feature/adjacency patches instead of full rebuilds.
    """

    def __init__(self, ranker, base: CollaborationNetwork) -> None:
        vocab = ranker._feature_vocab
        fm = ranker._feature_matrix
        if vocab is None or fm is None:
            raise RuntimeError("ranker must be fitted before opening a ProbeSession")
        super().__init__(ranker, base)
        self._vocab: Dict[str, int] = vocab
        self._fm: np.ndarray = fm
        n = base.n_people
        self._a_hat = (base.adjacency_csr() + sp.identity(n, format="csr")).tocsr()
        self._deg = np.asarray(self._a_hat.sum(axis=1)).ravel()
        self._adj_norm = _normalize(self._a_hat, self._deg)
        # query -> (base feature matrix, normalized query vector)
        self._feat_cache = _LruCache(_MAX_QUERY_CACHE)
        # query -> (xw1, h1w2, base scores): the base forward's
        # intermediates, kept so restricted probes splice instead of
        # recomputing (see ``_restricted_scores``)
        self._fwd_cache = _LruCache(_MAX_QUERY_CACHE)
        # edge-flip set -> patched normalized adjacency: SHAP sweeps
        # re-score one overlay under many query subsets, and the
        # renormalization is the overlay-side cost worth paying once.
        self._adj_cache = _LruCache(_MAX_PATCH_CACHE)
        self.restricted_probes = 0  # observability: neighborhood-restricted
        self.full_forwards = 0  # ... vs full patched forwards served

    _SPILL_CACHES = ("_feat_cache", "_fwd_cache", "_adj_cache")

    def valid_for(self, base: CollaborationNetwork) -> bool:
        """Also invalid once the ranker was refit (new vocabulary)."""
        return super().valid_for(base) and self.ranker._feature_vocab is self._vocab

    # ------------------------------------------------------------------
    # base-commit rebasing
    # ------------------------------------------------------------------
    def memo_survives(self, delta, query: Query) -> bool:
        """GCN scores read the graph (any edge flip propagates) and, per
        person, only ``skills ∩ vocab`` (centroid columns) and ``skills ∩
        query`` (the match feature) — so a commit whose skill flips all
        miss both the training vocabulary and the query leaves every
        feature row, and therefore every score, bit-identical."""
        if delta.edge_flips:
            return False
        changed = delta.skills_changed
        if changed & query:
            return False
        return all(s not in self._vocab for s in changed)

    def rebase(self, delta) -> bool:
        """Splice the committed edit's 2-hop receptive field through the
        cached forwards instead of cold-starting them.

        The feature space (``_vocab``/``_fm``) is training-frozen and
        network-independent, so it never needs patching; edge flips
        re-derive the propagation operator through the same ``_normalize``
        the constructor used (identical inputs, identical output), and
        every cached per-query forward is refreshed only inside the
        delta's 2-hop ball — the same cone argument as
        :meth:`_restricted_scores`, anchored on the post-commit adjacency
        (flipped-edge endpoints are in the seed set, so the new-adjacency
        ball covers every row an old-adjacency coupling could reach)."""
        if not self._rebase_applies(delta):
            return False
        if delta.is_empty:
            self._accept_rebase(delta)
            return True
        n = self.base.n_people
        if delta.edge_flips:
            self._a_hat = _committed_csr(self._a_hat, delta.edge_flips, n)
            for u, v, added in delta.edge_flips:
                w = 1.0 if added else -1.0
                self._deg[u] += w
                self._deg[v] += w
            self._adj_norm = _normalize(self._a_hat, self._deg)
            # Probe-side patched operators were deltas on the old base.
            self._adj_cache.clear()
        self._refresh_queries(delta)
        self._accept_rebase(delta)
        return True

    def _refresh_queries(self, delta) -> None:
        """Refresh the cached per-query feature rows of skill-flipped
        people and splice the cached forwards inside the edit's cone."""
        base = self.base
        n = base.n_people
        skill_touched = sorted({p for p, _, _ in delta.skill_flips})
        dim = self._fm.shape[1]
        if skill_touched:
            for query in self._feat_cache.keys():
                hit = self._feat_cache.get(query)
                if hit is None:
                    continue
                feats, q_vec = hit
                # Copy before patching: cached arrays may still be
                # referenced by callers of ``probe_inputs``.
                feats = feats.copy()
                for p in skill_touched:
                    centroid, match, sim = self._feature_row_values(
                        base.skills(p), query, q_vec
                    )
                    feats[p, :dim] = centroid
                    feats[p, dim] = match
                    feats[p, dim + 1] = sim
                self._feat_cache.put(query, (feats, q_vec))
        touched = delta.touched_people
        ball1 = set(touched)
        for p in touched:
            ball1 |= base.neighbors(p)
        ball2 = set(ball1)
        for p in ball1:
            ball2 |= base.neighbors(p)
        rows1 = np.asarray(sorted(ball1), dtype=np.int64)
        rows2 = np.asarray(sorted(ball2), dtype=np.int64)
        drop_all = len(ball2) > _cone_ceiling(n)
        scorer = self.ranker._scorer
        be = self.backend
        adj = self._adj_norm
        srows = np.asarray(skill_touched, dtype=np.int64)
        for query in self._fwd_cache.keys():
            entry = self._fwd_cache.get(query)
            if entry is None:
                continue
            feat = self._feat_cache.get(query) if skill_touched else True
            if drop_all or feat is None:
                self._fwd_cache.pop(query)
                continue
            base_xw1, base_h1w2, base_scores = entry
            xw1 = base_xw1.copy()
            if skill_touched:
                feats, _ = feat
                xw1[srows] = be.matmul(feats[srows], scorer.conv1.weight.data)
            z1 = be.spmm(adj[rows1], xw1)
            if scorer.conv1.bias is not None:
                z1 = z1 + scorer.conv1.bias.data
            h1_rows = z1 * (z1 > 0)
            h1w2 = base_h1w2.copy()
            h1w2[rows1] = be.matmul(h1_rows, scorer.conv2.weight.data)
            z2 = be.spmm(adj[rows2], h1w2)
            if scorer.conv2.bias is not None:
                z2 = z2 + scorer.conv2.bias.data
            h2_rows = z2 * (z2 > 0)
            out_rows = be.matmul(h2_rows, scorer.head.weight.data)
            if scorer.head.bias is not None:
                out_rows = out_rows + scorer.head.bias.data
            out = base_scores.copy()
            out[rows2] = out_rows.reshape(-1)
            self._fwd_cache.put(query, (xw1, h1w2, out))

    # ------------------------------------------------------------------
    # probing
    # ------------------------------------------------------------------
    def scores_batch(
        self,
        query: Query,
        overlays: Iterable[NetworkOverlay],
        spec: Optional[LocalizedSpec] = None,
    ) -> List[Tuple[np.ndarray, LocalizedPlan]]:
        """Every flipped probe takes one of three kernels, by one rule:

        * the certified-exact 2-hop splice (:meth:`_restricted_scores`:
          a GCN output row reads features within 2 hops and adjacency
          within 1, so only the flips' receptive field is recomputed)
          whenever the cone fits :func:`_cone_ceiling` — unless the probe
          would otherwise join a stacked forward on a graph below
          :data:`_BATCH_RESTRICT_MIN_N`, where the amortized stack beats
          the splice's Python bookkeeping;
        * the stacked forward: outside a localized scope, two or more
          unspliced probes share one block-diagonal ``(k·n, k·n)``
          propagation over their stacked feature matrices;
        * otherwise one full patched forward per probe (plan
          ``"global"``).
        """
        overlays = list(overlays)
        n = self.base.n_people
        results: List = [None] * len(overlays)
        flipped: List[int] = []
        for i, overlay in enumerate(overlays):
            if not query:
                # The ranker's plain path short-circuits empty queries to
                # zero scores before any forward.
                results[i] = (np.zeros(n), self._untouched_plan)
            elif not overlay.skill_flips() and not overlay.edge_flips():
                results[i] = (self._base_forward(query)[2].copy(), self._untouched_plan)
            else:
                flipped.append(i)
        stack = spec is None and len(flipped) > 1
        splice = not stack or n >= _BATCH_RESTRICT_MIN_N
        full: List[int] = []
        for i in flipped:
            overlay = overlays[i]
            if splice:
                seeds = {p for (p, _) in overlay.skill_flips()}
                for u, v in overlay.edge_flips():
                    seeds.add(u)
                    seeds.add(v)
                ball1, ball2 = self._receptive_field(overlay, seeds)
                if len(ball2) <= _cone_ceiling(n):
                    self.restricted_probes += 1
                    results[i] = (
                        self._restricted_scores(query, overlay, ball1, ball2),
                        self._exact_plan(2, len(ball2)),
                    )
                    continue
            full.append(i)
        self.full_forwards += len(full)
        if stack and len(full) > 1:
            blocks = [self.probe_inputs(query, overlays[i]) for i in full]
            scored = self.backend.gcn_forward_blocks(
                self.ranker._scorer,
                [feats for feats, _ in blocks],
                [a.tocsr() for _, a in blocks],
            )
        else:
            scored = [
                self.backend.gcn_forward(
                    self.ranker._scorer, *self.probe_inputs(query, overlays[i])
                ).copy()
                for i in full
            ]
        for i, vec in zip(full, scored):
            results[i] = (vec, self._global_plan)
        return results

    # ------------------------------------------------------------------
    # neighborhood-restricted forwards
    # ------------------------------------------------------------------
    def _receptive_field(
        self, overlay: NetworkOverlay, seeds
    ) -> Tuple[List[int], List[int]]:
        """(1-hop ball, 2-hop ball) of the flipped entries, expanded over
        the *union* of base and overlay adjacency.

        The union matters: a removed edge still couples its endpoints'
        activations to the base values being spliced away from, and an
        added edge couples them in the probe — both directions must be
        inside the recomputed set.
        """
        base = self.base
        ball1 = set(seeds)
        for p in seeds:
            ball1 |= base.neighbors(p)
            ball1 |= overlay.neighbors(p)
        ball2 = set(ball1)
        for p in ball1:
            ball2 |= base.neighbors(p)
            ball2 |= overlay.neighbors(p)
        return sorted(ball1), sorted(ball2)

    def _base_forward(self, query: Query):
        """(xw1, h1w2, scores) of the base network's forward pass for
        ``query`` — the exact op sequence of :class:`_GcnScorer.forward`
        (matmul, spmv, broadcast add, ``x * (x > 0)``) unrolled so each
        intermediate can be cached and row-spliced."""
        hit = self._fwd_cache.get(query)
        if hit is None:
            feats, _ = self._base_features(query)
            scorer = self.ranker._scorer
            adj = self._adj_norm
            be = self.backend
            xw1 = be.matmul(feats, scorer.conv1.weight.data)
            z1 = be.spmm(adj, xw1)
            if scorer.conv1.bias is not None:
                z1 = z1 + scorer.conv1.bias.data
            h1 = z1 * (z1 > 0)
            h1w2 = be.matmul(h1, scorer.conv2.weight.data)
            z2 = be.spmm(adj, h1w2)
            if scorer.conv2.bias is not None:
                z2 = z2 + scorer.conv2.bias.data
            h2 = z2 * (z2 > 0)
            out = be.matmul(h2, scorer.head.weight.data)
            if scorer.head.bias is not None:
                out = out + scorer.head.bias.data
            hit = (xw1, h1w2, out.reshape(-1))
            self._fwd_cache.put(query, hit)
        return hit

    def _restricted_scores(
        self,
        query: Query,
        overlay: NetworkOverlay,
        ball1: List[int],
        ball2: List[int],
    ) -> np.ndarray:
        """Probe scores recomputed only inside the flips' 2-hop receptive
        field, splicing the cached base activations for every other row.

        Rows outside ``ball2`` provably cannot change: a GCN output row
        reads features within 2 hops and (patched) adjacency entries
        within 1 hop, and all of those are base-identical out there.
        """
        base_xw1, base_h1w2, base_scores = self._base_forward(query)
        scorer = self.ranker._scorer
        be = self.backend
        skill_flips = overlay.skill_flips()
        edge_flips = overlay.edge_flips()
        adj = self._adj_norm if not edge_flips else self._patched_adjacency(edge_flips)

        xw1 = base_xw1
        if skill_flips:
            feats, q_vec = self._base_features(query)
            feats = self._patched_features(feats, q_vec, query, overlay, skill_flips)
            touched = sorted({p for (p, _) in skill_flips})
            xw1 = base_xw1.copy()
            xw1[touched] = be.matmul(feats[touched], scorer.conv1.weight.data)

        rows1 = np.asarray(ball1, dtype=np.int64)
        z1 = be.spmm(adj.tocsr()[rows1], xw1)
        if scorer.conv1.bias is not None:
            z1 = z1 + scorer.conv1.bias.data
        h1_rows = z1 * (z1 > 0)
        h1w2 = base_h1w2.copy()
        h1w2[rows1] = be.matmul(h1_rows, scorer.conv2.weight.data)

        rows2 = np.asarray(ball2, dtype=np.int64)
        z2 = be.spmm(adj.tocsr()[rows2], h1w2)
        if scorer.conv2.bias is not None:
            z2 = z2 + scorer.conv2.bias.data
        h2_rows = z2 * (z2 > 0)
        out_rows = be.matmul(h2_rows, scorer.head.weight.data)
        if scorer.head.bias is not None:
            out_rows = out_rows + scorer.head.bias.data

        out = base_scores.copy()
        out[rows2] = out_rows.reshape(-1)
        return out

    def probe_inputs(
        self, query: Query, overlay: NetworkOverlay
    ) -> Tuple[np.ndarray, sp.spmatrix]:
        """(node features, normalized adjacency) for the overlaid network,
        patched from the base caches in O(Δ)."""
        feats, q_vec = self._base_features(query)
        skill_flips = overlay.skill_flips()
        if skill_flips:
            feats = self._patched_features(feats, q_vec, query, overlay, skill_flips)
        edge_flips = overlay.edge_flips()
        adj = self._adj_norm if not edge_flips else self._patched_adjacency(edge_flips)
        return feats, adj

    def _base_features(self, query: Query) -> Tuple[np.ndarray, np.ndarray]:
        hit = self._feat_cache.get(query)
        if hit is None:
            feats = self.ranker._node_features(query, self.base)
            q_vec = self.ranker._query_vector(query)
            hit = (feats, q_vec)
            self._feat_cache.put(query, hit)
        return hit

    def _feature_row_values(
        self, skills: FrozenSet[str], query: Query, q_vec: np.ndarray
    ) -> Tuple[np.ndarray, float, float]:
        """(centroid, match fraction, query similarity) of one person's
        feature row, derived from their full skill set.

        The one kernel both probe patches and base-commit refreshes go
        through: the row is recomputed via the same sparse product (sorted
        indices, identical accumulation order) that built the base sums,
        instead of adding/subtracting embedding rows on a cached sum —
        incremental subtraction leaves ~1e-16 residue that the
        ``max(norm, 1e-12)`` division below can amplify past the 1e-9
        parity contract when a person's in-vocab skills all cancel."""
        dim = self._fm.shape[1]
        cols = sorted(
            col for col in (self._vocab.get(s) for s in skills) if col is not None
        )
        if cols:
            row = sp.csr_matrix(
                (np.ones(len(cols)), ([0] * len(cols), cols)),
                shape=(1, self._fm.shape[0]),
            )
            centroid = self.backend.spmm(row, self._fm).ravel() / max(
                float(len(cols)), 1.0
            )
        else:
            centroid = np.zeros(dim)
        n_terms = len(query)
        # Empty queries keep a zero match fraction, matching the plain
        # path's ``if query:`` guard in ``_node_features``.
        match = len(skills & query) / n_terms if n_terms else 0.0
        norm = float(np.linalg.norm(centroid))
        sim = float(centroid @ q_vec) / max(norm, 1e-12)
        return centroid, match, sim

    def _patched_features(
        self,
        base_feats: np.ndarray,
        q_vec: np.ndarray,
        query: Query,
        overlay: NetworkOverlay,
        skill_flips: Dict[Tuple[int, str], bool],
    ) -> np.ndarray:
        feats = base_feats.copy()
        dim = self._fm.shape[1]
        touched = sorted({p for (p, _) in skill_flips})
        for p in touched:
            centroid, match, sim = self._feature_row_values(
                overlay.skills(p), query, q_vec
            )
            feats[p, :dim] = centroid
            feats[p, dim] = match
            feats[p, dim + 1] = sim
        return feats

    def _patched_adjacency(
        self, edge_flips: Dict[Tuple[int, int], bool]
    ) -> sp.spmatrix:
        key = _edge_key(edge_flips)
        hit = self._adj_cache.get(key)
        if hit is not None:
            return hit
        n = self.base.n_people
        deg = self._deg.copy()
        for (u, v), added in edge_flips.items():
            w = 1.0 if added else -1.0
            deg[u] += w
            deg[v] += w
        delta = _edge_flip_delta(edge_flips, n)
        patched = _normalize(self._a_hat + delta, deg)
        self._adj_cache.put(key, patched)
        return patched


#: Backwards-compatible name from PR 1, when the GCN ranker was the only
#: system with a delta path.
ProbeSession = GcnDeltaSession


class PageRankDeltaSession(DeltaSession):
    """O(Δ) probes for :class:`~repro.search.pagerank.PageRankExpertRanker`.

    The transition operator (base adjacency CSR + out-degrees) is cached
    once; per query the base solution is cached (the restart counts are
    re-derived per probe through the base's skill-incidence cache, O(nnz
    of the query's columns), rather than held as a dense n-float vector
    per entry).  A probe patches the restart counts per query-term skill
    flip (exact integer arithmetic, so the normalized restart vector
    matches a from-scratch build bit-for-bit), applies a sparse ±1 delta
    to the adjacency/degrees per edge flip, and warm-starts power
    iteration from the base solution.  If the base solve hit the
    iteration cap without converging, the probe falls back to a cold
    start so it keeps parity with the cold-started reference path.

    A multi-term query's base solution is not walked cold: it is
    warm-started from the superposition of its single-term solutions
    (:meth:`_superposed_start`), which share the same LRU, so a SHAP sweep
    over a query's term coalitions pays one cold walk per *term*, not one
    per coalition.
    """

    def __init__(self, ranker, base: CollaborationNetwork) -> None:
        super().__init__(ranker, base)
        self._adj = base.adjacency_csr()
        self._out_degree = np.asarray(self._adj.sum(axis=1)).ravel()
        # query -> (base solution or None, converged); single-term queries
        # double as the superposition basis of multi-term ones.
        self._query_cache = _LruCache(_MAX_QUERY_CACHE)
        # edge-flip set -> (patched adjacency, patched out-degrees): shared
        # across every query probed against the same overlay.
        self._op_cache = _LruCache(_MAX_PATCH_CACHE)
        # (edge-flip set, |q|, restart counts) -> converged solution.  The
        # walk depends only on (restart, operator), so SHAP masks that
        # flip skills *outside* the query — or re-probe the same state for
        # another person — resolve without a single power iteration.
        self._solution_cache = _LruCache(_MAX_SEMANTIC_CACHE)

    _SPILL_CACHES = ("_query_cache", "_op_cache", "_solution_cache")

    def memo_survives(self, delta, query: Query) -> bool:
        """A committed skill flip outside the query's terms leaves every
        restart vector — and so every walk over the unchanged operator —
        untouched, for *any* probe flip set over the new base."""
        return not delta.edge_flips and not (delta.skills_changed & query)

    def rebase(self, delta) -> bool:
        """Skill-only commits just evict the queries whose restart counts
        read a changed skill (everything retained stays bit-exact); edge
        commits patch the transition operator ±1 and eagerly warm-restart
        the retained queries' base solutions from their old converged
        iterates, keeping parity inside the tolerance band."""
        if not self._rebase_applies(delta):
            return False
        changed = delta.skills_changed
        for query in self._query_cache.keys():
            if changed & query:
                self._query_cache.pop(query)
        if delta.edge_flips:
            adj = _committed_csr(self._adj, delta.edge_flips, self.base.n_people)
            out_degree = self._out_degree.copy()
            for u, v, added in delta.edge_flips:
                w = 1.0 if added else -1.0
                out_degree[u] += w
                out_degree[v] += w
            self._adj = adj
            self._out_degree = out_degree
            # Patched operators and solved walks were keyed against the
            # *old* operator (``ekey = frozenset()`` meant the old base) —
            # all stale once the base adjacency itself moves.
            self._op_cache.clear()
            self._solution_cache.clear()
            for query in self._query_cache.keys():
                hit = self._query_cache.get(query)
                if hit is None:
                    continue
                solution, converged = hit
                restart = self._restart_from_counts(
                    self.base.match_counts(query), len(query)
                )
                if restart is None:
                    continue  # (None, True) stays correct
                warm = solution if converged else None
                solution, converged = self.ranker._power_iteration(
                    restart, adj, out_degree, warm_start=warm
                )
                self._query_cache.put(query, (solution, converged))
        self._accept_rebase(delta)
        return True

    def _patched_operator(
        self, edge_flips: Dict[Tuple[int, int], bool]
    ) -> Tuple[sp.csr_matrix, np.ndarray]:
        """(adjacency, out-degrees) with the edge flips applied, cached
        per flip set."""
        key = _edge_key(edge_flips)
        hit = self._op_cache.get(key)
        if hit is None:
            n = self.base.n_people
            adj = (self._adj + _edge_flip_delta(edge_flips, n)).tocsr()
            out_degree = self._out_degree.copy()
            for (u, v), added in edge_flips.items():
                w = 1.0 if added else -1.0
                out_degree[u] += w
                out_degree[v] += w
            hit = (adj, out_degree)
            self._op_cache.put(key, hit)
        return hit

    def _patched_row(
        self, u: int, flips: Dict[Tuple[int, int], bool]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(cols, vals)`` of ``u``'s adjacency row with its edge flips
        applied — the O(row) substitute for a full patched CSR (flips
        touch a handful of rows; every other row reads the shared base).
        A removed edge stays as an explicit zero, matching the merged
        operator the global kernels build."""
        s, e = self._adj.indptr[u], self._adj.indptr[u + 1]
        cols = self._adj.indices[s:e]
        vals = self._adj.data[s:e].copy()
        add_cols: List[int] = []
        add_vals: List[float] = []
        for (a, b), added in flips.items():
            if u == a:
                other = b
            elif u == b:
                other = a
            else:
                continue
            w = 1.0 if added else -1.0
            j = int(np.searchsorted(cols, other))
            if j < cols.size and int(cols[j]) == other:
                vals[j] += w
            else:
                add_cols.append(other)
                add_vals.append(w)
        if add_cols:
            cols = np.concatenate(
                [cols, np.asarray(add_cols, dtype=cols.dtype)]
            )
            vals = np.concatenate([vals, np.asarray(add_vals)])
            order = np.argsort(cols, kind="stable")
            cols, vals = cols[order], vals[order]
        return cols, vals

    def _base_dangling(self) -> np.ndarray:
        """Indices of base dangling nodes, cached per operator identity
        (a rebase swaps ``_out_degree`` wholesale, invalidating by
        object)."""
        cached = getattr(self, "_dangling_cache", None)
        if cached is None or cached[0] is not self._out_degree:
            idx = np.flatnonzero(self._out_degree == 0)
            self._dangling_cache = (self._out_degree, idx)
            return idx
        return cached[1]

    @staticmethod
    def _restart_from_counts(
        counts: np.ndarray, n_terms: int
    ) -> Optional[np.ndarray]:
        """Normalized restart distribution, or None when nobody matches —
        the same two-step division the ranker's plain path performs."""
        if n_terms == 0:
            return None
        restart = counts / float(n_terms)
        total = restart.sum()
        if total == 0:
            return None
        return restart / total

    def _base_state(
        self, query: Query
    ) -> Tuple[np.ndarray, Optional[np.ndarray], bool]:
        """``(restart counts, base solution or None, converged)`` for
        ``query`` over the unperturbed base."""
        # Through the cached skill-incidence CSC: O(nnz of the query's
        # columns), bit-identical to the per-holder loop (+1.0 adds).
        counts = self.base.match_counts(query)
        hit = self._query_cache.get(query)
        if hit is None:
            restart = self._restart_from_counts(counts, len(query))
            if restart is None:
                hit = (None, True)
            else:
                warm = self._superposed_start(query) if len(query) > 1 else None
                hit = self.ranker._power_iteration(
                    restart, self._adj, self._out_degree, warm_start=warm
                )
            self._query_cache.put(query, hit)
        return (counts, *hit)

    def _superposed_start(self, query: Query) -> Optional[np.ndarray]:
        """Warm start for a multi-term base solve, built from the cached
        single-term solutions; None (cold walk) when any of them did not
        converge.

        The walk's fixed point is ``p = c(p)·(I - d·W)⁻¹·r`` with
        ``c(p) = 1 - d + d·dang(p)`` (``dang`` = mass on dangling nodes),
        and the restart is linear in the holders: ``r_q = Σ_t |h_t|·r_t /
        Σ_t |h_t|`` over the query's terms ``t`` (``|h_t|`` people hold
        ``t``; skills are sets, so counts add).  Hence ``p_q ∝ Σ_t
        |h_t|·p_t / c(p_t)``, normalized to unit mass.  The superposition
        is only the start of one ordinary walk on ``r_q``: the result is
        a genuine converged iterate, and that walk's first step restores
        the exact ties a cold walk produces between isolated holders."""
        d = self.ranker.damping
        dang_idx = self._base_dangling()
        total = None
        for term in sorted(query):
            counts, solution, converged = self._base_state(frozenset((term,)))
            if not converged:
                return None
            if solution is None:
                continue  # nobody holds the term: it adds nothing to r_q
            c = 1.0 - d + d * float(solution[dang_idx].sum())
            part = (counts.sum() / c) * solution
            total = part if total is None else total + part
        return total / total.sum()  # some term has holders: r_q exists

    def _probe_counts(
        self, query: Query, overlay: NetworkOverlay, counts: np.ndarray
    ) -> Tuple[np.ndarray, bool]:
        """(match counts with the overlay's query-term skill flips applied,
        whether any flip was relevant)."""
        relevant = [
            (p, added)
            for (p, s), added in overlay.skill_flips().items()
            if s in query
        ]
        if not relevant:
            return counts, False
        counts = counts.copy()
        for p, added in relevant:
            counts[p] += 1.0 if added else -1.0
        return counts, True

    def _walk(
        self, restart: np.ndarray, warm: Optional[np.ndarray], ekey: FrozenSet
    ) -> Tuple[np.ndarray, bool]:
        """One warm-started power iteration over the (patched) operator:
        a plain spmv walk on small networks, the stacked ``(n, 1)``
        iteration at or above the backend's ``pagerank_stack_min_people``
        cost hint (the stacked kernel's dense bookkeeping loses to plain
        spmv walks on small networks)."""
        if not ekey:
            adj, out_degree = self._adj, self._out_degree
        else:
            adj, out_degree = self._patched_operator(dict(ekey))
        if self.base.n_people < self.backend.pagerank_stack_min_people:
            return self.ranker._power_iteration(
                restart, adj, out_degree, warm_start=warm
            )
        start = restart if warm is None else warm
        solutions, converged = self.ranker._power_iteration_multi(
            np.stack([restart], axis=1), adj, out_degree,
            starts=np.stack([start], axis=1),
        )
        return solutions[:, 0].copy(), converged[0]

    def _score(
        self,
        query: Query,
        overlay: NetworkOverlay,
        spec: Optional[LocalizedSpec],
    ) -> Tuple[np.ndarray, LocalizedPlan]:
        """The warm-started global walk, or — under a localized scope —
        the bounded-error forward push (:meth:`_push`) when the cached base
        solution is a converged fixed point and the push's solve set fits
        :func:`_cone_ceiling`."""
        n = self.base.n_people
        if n == 0:
            return np.zeros(0), self._untouched_plan
        ekey = _edge_key(overlay.edge_flips())
        base_counts, base_solution, base_converged = self._base_state(query)
        counts, relevant = self._probe_counts(query, overlay, base_counts)
        restart = self._restart_from_counts(counts, len(query))
        if restart is None:
            return np.zeros(n), self._untouched_plan
        if not ekey and not relevant and base_solution is not None:
            return base_solution.copy(), self._untouched_plan
        if spec is not None and (base_solution is None or base_converged):
            pushed = self._push(
                query, ekey, relevant, base_counts, base_solution, restart, spec
            )
            if pushed is not None:
                return pushed
        skey = (ekey, len(query), counts.tobytes())
        cached = self._solution_cache.get(skey)
        if cached is not None:
            return cached.copy(), self._global_plan
        warm = base_solution if base_converged else None
        solution, converged = self._walk(restart, warm, ekey)
        # Only converged iterates are state functions of (restart,
        # operator); a capped run depends on its start and must not be
        # replayed for a probe that would have started elsewhere.
        if converged:
            self._solution_cache.put(skey, solution)
            return solution.copy(), self._global_plan
        return solution, self._global_plan

    def _push(
        self,
        query: Query,
        ekey: FrozenSet,
        relevant: bool,
        base_counts: np.ndarray,
        base_solution: Optional[np.ndarray],
        restart: np.ndarray,
        spec: LocalizedSpec,
    ) -> Optional[Tuple[np.ndarray, LocalizedPlan]]:
        """Bounded-error forward push instead of a full power iteration,
        or None when the push's solve set outgrows its cap.

        The probe solution decomposes as ``p' = p0 + delta`` where the
        correction solves ``delta = s + damping * M' @ delta`` with the
        O(Δ)-sparse seed ``s = (1-d)(r' - r0) + d[(A'ᵀD'⁻¹ - A0ᵀD0⁻¹)p0
        + dang'(p0)·r' - dang0(p0)·r0]`` — the derivation uses only
        ``p0 = (1-d)r0 + d·M0·p0``, i.e. that the cached base solution is
        a fixed point, so a capped (non-converged) base solve never comes
        here.  The backend's ``ppr_delta_push`` runs residual sweeps over
        the seed's cone and certifies
        ``||delta_exact - delta||_1 <= residual_l1 / (1-d) <= epsilon``;
        the reported ``residual_bound`` adds 1e-9 slack for the base
        iterate's own convergence-tolerance defect."""
        n = self.base.n_people
        d = self.ranker.damping
        r0 = self._restart_from_counts(base_counts, len(query))
        p0 = base_solution if base_solution is not None else np.zeros(n)
        if ekey:
            # O(Δ) operator view: patched degrees plus per-row overrides
            # for the flipped endpoints — never the full patched CSR the
            # global kernels build (its csr+csr merge is O(nnz), dwarfing
            # a small-cone push).
            flips = dict(ekey)
            deg_p = self._out_degree.copy()
            for (u, v), added in flips.items():
                w = 1.0 if added else -1.0
                deg_p[u] += w
                deg_p[v] += w
            touched = sorted({u for edge in flips for u in edge})
            overrides = {u: self._patched_row(u, flips) for u in touched}
        else:
            deg_p = self._out_degree
            touched = []
            overrides = None
        if relevant or r0 is None:
            seed = (1.0 - d) * (restart if r0 is None else restart - r0)
        else:
            # Edge-only probes leave the restart counts untouched, so the
            # (1-d)(r' - r0) term is exactly zero.
            seed = np.zeros(n)
        # Only flipped-edge endpoints' rows (and degrees) differ, so
        # (M' - M0) @ p0 is supported on their neighborhoods alone.
        for u in touched:
            pu = float(p0[u])
            if pu == 0.0:
                continue
            cols_u, vals_u = overrides[u]
            if deg_p[u] > 0 and cols_u.size:
                seed[cols_u] += (d * pu / deg_p[u]) * vals_u
            s1, e1 = self._adj.indptr[u], self._adj.indptr[u + 1]
            if self._out_degree[u] > 0:
                seed[self._adj.indices[s1:e1]] -= (
                    d * pu / self._out_degree[u]
                ) * self._adj.data[s1:e1]
        dang_idx = self._base_dangling()
        dang0 = float(p0[dang_idx].sum()) if dang_idx.size else 0.0
        dang_p = dang0
        for u in touched:
            was = self._out_degree[u] == 0
            now = deg_p[u] == 0
            if was and not now:
                dang_p -= float(p0[u])
            elif now and not was:
                dang_p += float(p0[u])
        if dang_p != 0.0:
            seed += (d * dang_p) * restart
        if dang0 != 0.0 and r0 is not None:
            seed -= (d * dang0) * r0
        support = np.flatnonzero(seed)
        if support.size == 0:
            # The probe provably equals the base fixed point (e.g. a
            # relevant add and remove that cancel in the restart).
            return p0.copy(), self._untouched_plan
        # No precheck on support size: the seed may be wide but thin (a
        # flipped hub's whole row at ~p0[u]/deg per entry) and the kernel
        # caps the *solve set* — the nodes it actually admits — not the
        # boundary residual it leaves in place.
        r_idx = np.flatnonzero(restart)
        pushed = self.backend.ppr_delta_push(
            support,
            seed[support],
            self._adj,
            deg_p,
            r_idx,
            restart[r_idx],
            damping=d,
            epsilon=spec.epsilon,
            max_sweeps=_LOCALIZED_MAX_SWEEPS,
            max_nodes=_cone_ceiling(n),
            row_overrides=overrides,
        )
        if pushed is None:
            return None
        delta, res_l1, cone = pushed
        return p0 + delta, LocalizedPlan(
            mode="sampled",
            k_hop=-1,
            cone_size=cone,
            n_people=n,
            epsilon=spec.epsilon,
            residual_bound=res_l1 / (1.0 - d) + 1e-9,
        )


class HitsDeltaSession(DeltaSession):
    """O(Δ) probes for :class:`~repro.search.hits.HitsExpertRanker`.

    Per query the session caches the root-set indicator, the base-set
    *support* counts ``support[v] = [v in root] + |N(v) ∩ root|`` (so
    ``support > 0`` is exactly base-set membership), and the per-person
    query-term match counts.  Skill flips on query terms update the
    indicator/support through the cached adjacency rows; edge flips update
    support through the ±1 delta — both O(Δ·deg).  The restricted base-set
    adjacency is then sliced sparse from the (patched) global CSR and the
    standard authority iteration runs on it.
    """

    def __init__(self, ranker, base: CollaborationNetwork) -> None:
        super().__init__(ranker, base)
        self._adj = base.adjacency_csr()
        # query -> (root indicator, support counts, match counts)
        self._query_cache = _LruCache(_MAX_QUERY_CACHE)
        # edge-flip set -> patched global adjacency, shared across queries
        # probed against the same overlay.
        self._adj_cache = _LruCache(_MAX_PATCH_CACHE)
        # (edge-flip set, base-set members) -> authority scores.  The
        # iteration depends only on the sliced submatrix; SHAP coalitions
        # whose flips leave the base set unchanged replay it for free.
        self._auth_cache = _LruCache(_MAX_SEMANTIC_CACHE)

    _SPILL_CACHES = ("_query_cache", "_adj_cache", "_auth_cache")

    def memo_survives(self, delta, query: Query) -> bool:
        """Root sets, support counts, and the sliced authority runs all
        derive from query-term holdings and the adjacency; a commit that
        touches neither leaves every probe over the query unchanged."""
        return not delta.edge_flips and not (delta.skills_changed & query)

    def rebase(self, delta) -> bool:
        """Queries whose terms a skill flip touched go cold; every other
        retained support vector absorbs the committed edge flips as
        ``support' = support + ΔA·ind`` — all small exact integers in
        float, so the patched counts match a fresh
        ``ind + spmv(adj', ind)`` build bit-for-bit."""
        if not self._rebase_applies(delta):
            return False
        changed = delta.skills_changed
        for query in self._query_cache.keys():
            if changed & query:
                self._query_cache.pop(query)
        if delta.edge_flips:
            for query in self._query_cache.keys():
                hit = self._query_cache.get(query)
                if hit is None:
                    continue
                ind, support, match_counts = hit
                support = support.copy()
                for u, v, added in delta.edge_flips:
                    w = 1.0 if added else -1.0
                    support[u] += w * ind[v]
                    support[v] += w * ind[u]
                self._query_cache.put(query, (ind, support, match_counts))
            self._adj = _committed_csr(
                self._adj, delta.edge_flips, self.base.n_people
            )
            # Probe-side adjacency patches and authority runs were keyed
            # by flip sets over the old adjacency — stale.
            self._adj_cache.clear()
            self._auth_cache.clear()
        self._accept_rebase(delta)
        return True

    def _base_state(self, query: Query):
        hit = self._query_cache.get(query)
        if hit is None:
            # Cached skill-incidence CSC — see PageRankDeltaSession.
            match_counts = self.base.match_counts(query)
            ind = (match_counts > 0).astype(np.float64)
            support = ind + self.backend.spmv(self._adj, ind)
            hit = (ind, support, match_counts)
            self._query_cache.put(query, hit)
        return hit

    def _patched_adjacency(
        self, edge_flips: Dict[Tuple[int, int], bool]
    ) -> sp.csr_matrix:
        if not edge_flips:
            return self._adj
        key = _edge_key(edge_flips)
        hit = self._adj_cache.get(key)
        if hit is None:
            n = self.base.n_people
            hit = (self._adj + _edge_flip_delta(edge_flips, n)).tocsr()
            self._adj_cache.put(key, hit)
        return hit

    def _authority_for(
        self, edge_flips: Dict[Tuple[int, int], bool], members: np.ndarray
    ) -> np.ndarray:
        akey = (_edge_key(edge_flips), members.tobytes())
        hit = self._auth_cache.get(akey)
        if hit is None:
            sub = self._patched_adjacency(edge_flips)[members][:, members]
            hit = self.ranker._authority_scores(sub, members.size)
            self._auth_cache.put(akey, hit)
        return hit

    def _probe_state(
        self, query: Query, overlay: NetworkOverlay
    ) -> Tuple[np.ndarray, np.ndarray, Dict[int, float]]:
        """(base root indicator, patched match counts, root indicator
        deltas) for one probe — the O(Δ) root-set bookkeeping."""
        ind, _, match_counts = self._base_state(query)
        relevant = [
            (p, added)
            for (p, s), added in overlay.skill_flips().items()
            if s in query
        ]
        if relevant:
            match_counts = match_counts.copy()
            for p, added in relevant:
                match_counts[p] += 1.0 if added else -1.0
        # Root membership changes: only people whose query-term holdings
        # flipped can enter or leave the root set.
        delta_ind: Dict[int, float] = {}
        for p in {p for p, _ in relevant}:
            now = 1.0 if match_counts[p] > 0 else 0.0
            if now != ind[p]:
                delta_ind[p] = now - ind[p]
        return ind, match_counts, delta_ind

    def _patched_support(
        self,
        support: np.ndarray,
        ind: np.ndarray,
        delta_ind: Dict[int, float],
        edge_flips: Dict[Tuple[int, int], bool],
    ) -> np.ndarray:
        """support' = support + Δind + A·Δind + ΔA·ind'   (all counts are
        small integers in float, so every update below is exact)."""
        if not delta_ind and not edge_flips:
            return support
        support = support.copy()
        indptr, indices = self._adj.indptr, self._adj.indices
        for p, d in delta_ind.items():
            support[p] += d
            support[indices[indptr[p] : indptr[p + 1]]] += d
        for (u, v), added in edge_flips.items():
            w = 1.0 if added else -1.0
            support[u] += w * (ind[v] + delta_ind.get(v, 0.0))
            support[v] += w * (ind[u] + delta_ind.get(u, 0.0))
        return support

    def _score(
        self,
        query: Query,
        overlay: NetworkOverlay,
        spec: Optional[LocalizedSpec],
    ) -> Tuple[np.ndarray, LocalizedPlan]:
        """HITS is localized *by construction*: root/support updates are
        O(Δ·deg) patches on cached per-query state, and the authority
        iteration only ever touches the base set (root ∪ its 1-hop
        neighborhood) — so every probe is certified exact, with the
        base-set size as its cone."""
        n = self.base.n_people
        out = np.zeros(n)
        if n == 0 or not query:
            return out, self._untouched_plan
        _, support, _ = self._base_state(query)
        ind, match_counts, delta_ind = self._probe_state(query, overlay)
        edge_flips = overlay.edge_flips()
        support = self._patched_support(support, ind, delta_ind, edge_flips)
        members = np.flatnonzero(support > 0.5)
        if members.size:
            authority = self._authority_for(edge_flips, members)
            match = match_counts[members] / float(len(query))
            out[members] = authority + self.ranker.match_bonus * match
        return out, self._exact_plan(1, int(members.size))


class TfidfDeltaSession(DeltaSession):
    """O(Δ) probes for :class:`~repro.search.docrank.DocumentExpertRanker`.

    idf statistics are fit once per base-network version (through the
    ranker's per-version model cache — never on perturbed profiles, which
    was the seed defect that let one person's skill flip shift everyone
    else's scores).  The base profile matrix is built once; per query the
    query vector and base score vector are cached.  A probe re-scores only
    the rows of people with skill flips; edge flips are free because the
    document ranker carries no graph signal.
    """

    def __init__(self, ranker, base: CollaborationNetwork) -> None:
        super().__init__(ranker, base)
        self._model = ranker._profile_model_for(base)
        self._matrix = self._model.matrix(
            [sorted(base.skills(p)) for p in base.people()]
        )
        # query -> (query vector, base score vector)
        self._query_cache = _LruCache(_MAX_QUERY_CACHE)
        # frozenset(skills) -> (cols, vals): a patched profile row depends
        # only on the resulting skill set, and SHAP coalitions cycle
        # through the same handful of per-person skill subsets.
        self._row_cache = _LruCache(_MAX_SEMANTIC_CACHE)

    _SPILL_CACHES = ("_query_cache", "_row_cache")

    def memo_survives(self, delta, query: Query) -> bool:
        """The document ranker carries no graph signal at all, so a pure
        edge commit cannot move any score, for any probe flip set."""
        return not delta.skill_flips

    def rebase(self, delta) -> bool:
        """Patch the idf statistics and the touched profile rows in place.

        A committed skill flip moves (a) the flipped people's rows and,
        in the profile-model case, (b) the idf of the flipped skills —
        which reaches every remaining holder's row.  Both are rebuilt
        through :meth:`TfidfModel.row`, the same kernel a refit would go
        through, so the patched model/matrix match a from-scratch build
        bit-for-bit.  Declines (→ fresh session) when a commit changes
        the vocabulary itself: a brand-new skill enters, or a removed
        skill's last holder leaves, re-indexing every term."""
        if not self._rebase_applies(delta):
            return False
        if not delta.skill_flips:
            # Edge-only commit: nothing in this session reads the graph.
            self._accept_rebase(delta)
            return True
        import math

        from repro.text.tfidf import TfidfModel

        base = self.base
        flipped = {p for p, _, _ in delta.skill_flips}
        if self.ranker._corpus_model is not None:
            # Corpus idf statistics are commit-independent: only the
            # flipped people's rows move.
            model = self._model
            touched = flipped
            stale_terms: FrozenSet[str] = frozenset()
        else:
            old = self._model
            vocab = old.vocabulary
            stale_terms = delta.skills_changed
            idf = old.idf.copy()
            for s in stale_terms:
                if s not in vocab:
                    return False  # vocabulary grows: a refit re-indexes
                df = len(base.people_with_skill(s))
                if df == 0:
                    return False  # last holder left: vocabulary shrinks
                # The exact smoothed formula ``TfidfModel.fit`` applies.
                idf[vocab[s]] = (
                    math.log((1.0 + old.n_documents) / (1.0 + df)) + 1.0
                )
            model = TfidfModel(
                vocabulary=vocab, idf=idf, n_documents=old.n_documents
            )
            touched = set(flipped)
            for s in stale_terms:
                touched |= base.people_with_skill(s)
        new_rows = {p: model.row(sorted(base.skills(p))) for p in touched}
        indptr = self._matrix.indptr
        indices = self._matrix.indices
        data = self._matrix.data
        rows = [
            new_rows[p]
            if p in new_rows
            else (
                indices[indptr[p] : indptr[p + 1]].astype(np.int64),
                data[indptr[p] : indptr[p + 1]],
            )
            for p in base.people()
        ]
        self._model = model
        self._matrix = self.backend.gather_rows(rows, model.n_terms)
        if self.ranker._corpus_model is None:
            # Install the (bit-identical) patched model into the ranker's
            # per-version slot so the plain reference path reuses it
            # instead of refitting from scratch on the next call.
            self.ranker._profile_model = model
            self.ranker._profile_net = base
            self.ranker._profile_version = delta.new_version
        if stale_terms:
            for key in self._row_cache.keys():
                if key & stale_terms:
                    self._row_cache.pop(key)
        for query in self._query_cache.keys():
            if stale_terms and (query & stale_terms):
                self._query_cache.pop(query)
                continue
            hit = self._query_cache.get(query)
            if hit is None:
                continue
            q_vec, base_scores = hit
            base_scores = base_scores.copy()
            for p in sorted(touched):
                cols, vals = new_rows[p]
                base_scores[p] = (
                    self.backend.row_dot(vals, q_vec[cols]) if cols.size else 0.0
                )
            self._query_cache.put(query, (q_vec, base_scores))
        self._accept_rebase(delta)
        return True

    def _base_state(self, query: Query):
        hit = self._query_cache.get(query)
        if hit is None:
            q_vec = self._model.vector(sorted(query))
            base_scores = self.backend.spmv(self._matrix, q_vec)
            hit = (q_vec, base_scores)
            self._query_cache.put(query, hit)
        return hit

    def _patched_row(self, skills: FrozenSet[str]) -> Tuple[np.ndarray, np.ndarray]:
        key = frozenset(skills)
        hit = self._row_cache.get(key)
        if hit is None:
            hit = self._model.row(sorted(skills))
            self._row_cache.put(key, hit)
        return hit

    def _score(
        self,
        query: Query,
        overlay: NetworkOverlay,
        spec: Optional[LocalizedSpec],
    ) -> Tuple[np.ndarray, LocalizedPlan]:
        """TF-IDF rows are per-person, so every probe is certified exact —
        the cone is exactly the flipped people (edge flips carry no
        document signal at all)."""
        touched = {p for (p, _) in overlay.skill_flips()}
        plan = self._exact_plan(0, len(touched)) if touched else self._untouched_plan
        q_vec, base_scores = self._base_state(query)
        if not np.any(q_vec):
            return np.zeros(self.base.n_people), plan
        out = base_scores.copy()
        for p in touched:
            cols, vals = self._patched_row(overlay.skills(p))
            # backend.row_dot, not a BLAS dot: its sequential accumulation
            # is bitwise identical to the CSR matvec behind
            # ``base_scores``, so patched and untouched rows agree exactly.
            out[p] = self.backend.row_dot(vals, q_vec[cols]) if cols.size else 0.0
        return out, plan


def _fault_key(query: Query, flips) -> Tuple:
    """A run-stable identity for one probe flush, handed to
    :func:`~repro.runtime.fault_point` so a seeded injector faults the
    same states every run."""
    return (tuple(sorted(query)), tuple(sorted(repr(f) for f in flips)))


def _rekey_memo_entries(memo: _LruCache, delta, survives) -> Tuple[int, int]:
    """Carry a score memo's ``(query, flips, version, epsilon)`` entries across a
    committed delta: entries whose query ``survives(delta, query)`` move
    to the new version, everything else is dropped.  Returns
    ``(retained, dropped)``.

    Idempotent by construction — entries already stamped with the new
    version are left untouched — so a registry-shared memo reached
    through several engines' rebases is effectively processed once."""
    retained = dropped = 0
    for key in memo.keys():
        query, flips, version, eps = key
        if version == delta.new_version:
            continue
        value = memo.get(key)
        memo.pop(key)
        if value is None:
            continue  # evicted concurrently
        if version == delta.old_version and survives(delta, query):
            memo.put((query, flips, delta.new_version, eps), value)
            retained += 1
        else:
            dropped += 1
    return retained, dropped


class ProbeEngine:
    """Memoized probe dispatcher shared across explainers.

    Wraps one :class:`~repro.explain.targets.DecisionTarget` bound to one
    base network.  ``probe`` answers ``(decision, ordering key)`` — the two
    values Algorithm 1 needs per candidate state — from memory when the
    same ``(person, query, flips)`` state was scored before.  Overlay
    probes that miss the memo reach the ranker as overlays, so every
    delta-scoring ranker serves them through its :class:`DeltaSession`.
    """

    def __init__(
        self,
        target,
        network: CollaborationNetwork,
        memoize: bool = True,
        full_rebuild: bool = False,
        score_memo: Optional[_LruCache] = None,
    ) -> None:
        if isinstance(network, NetworkOverlay):
            # Bind to the overlay's base: probe states derived from the
            # overlay flatten onto that same base, so their flip sets are
            # complete (and thus correct) memo keys against it.
            network = network.base
        self.target = target
        self.base = network
        self.base_version = network.version
        self.memoize = memoize
        self.full_rebuild = full_rebuild
        self.hits = 0  # decision-memo answers (no work at all)
        self.misses = 0  # probes that evaluated the underlying system
        # Decisions derived from a memoized score vector: no ranker
        # evaluation happened, but the decision itself was recomputed
        # (cheap O(n) counting rank / team re-formation).
        self.score_hits = 0
        self._memo = _LruCache(_MAX_MEMO)
        # (query, flips, base version) -> ranker score vector.  Score
        # vectors are person-independent, so this second memo level lets
        # SHAP sweeps for *different* people (or different explainers
        # sharing the engine) reuse each other's forwards; the version in
        # the key guarantees a vector computed against an older base can
        # never serve a probe after the base mutates.  Score vectors are
        # *target*-independent too (they come from ``target.ranker``), so
        # the EngineRegistry injects one shared memo per (ranker, base)
        # pair — relevance and membership engines, and engines for
        # different team seeds, then reuse each other's forwards.
        self._score_memo = (
            score_memo if score_memo is not None else _LruCache(_MAX_SCORE_MEMO)
        )
        self._empty_overlay: Optional[NetworkOverlay] = None

    # ------------------------------------------------------------------
    # probing
    # ------------------------------------------------------------------
    def probe(
        self,
        person: int,
        query: Iterable[str],
        network: Optional[CollaborationNetwork] = None,
    ) -> Tuple[bool, float]:
        """(decision, ordering key) for one probe state, memoized — a
        :meth:`probe_batch` of one."""
        return self.probe_batch([(person, query, network)])[0]

    def _probe_uncached(
        self, person: int, query: Query, network, key: Optional[Tuple]
    ) -> Tuple[bool, float]:
        # One system evaluation: charge the active request budget before
        # the work.  No fault point here — this is (part of) the clean
        # reference path the degradation ladder retries on.
        check_budget(1)
        if self.full_rebuild and isinstance(network, NetworkOverlay):
            network = network.materialize()
        result = self.target.decide_with_order(person, query, network)
        self.misses += 1
        if key is not None:
            self._memo.put(key, result)
        return result

    def _overlay_for(self, network) -> Optional[NetworkOverlay]:
        """``network`` as an overlay a delta session over this base can
        serve: overlays over the base pass through, the base itself probes
        as an empty overlay (so its per-query artifacts live in the same
        session caches), foreign networks return None."""
        if isinstance(network, NetworkOverlay):
            if (
                network.base is self.base
                and network.base_version == self.base_version
            ):
                return network
            return None
        if network is self.base:
            if (
                self._empty_overlay is None
                or self._empty_overlay.base_version != self.base.version
            ):
                self._empty_overlay = NetworkOverlay(self.base)
            return self._empty_overlay
        return None

    def probe_batch(
        self, states: Iterable[Tuple[int, Iterable[str], Optional[CollaborationNetwork]]]
    ) -> List[Tuple[bool, float]]:
        """Probe many ``(person, query, network)`` states at once.

        Memo hits (decision-level, then score-level) are answered first.
        The remaining states are deduplicated by score key — a
        ``(query, flips)`` state repeated within the batch is scored once
        — grouped by query and flushed through
        :meth:`DeltaSession.scores_batch` with the thread's active
        localized spec, in :data:`_BATCH_GROUP`-sized chunks (for the GCN
        one stacked multi-probe forward per chunk).  Each scored vector is
        decided via
        :meth:`~repro.explain.targets.DecisionTarget.decide_with_order_scored`
        without a second scoring pass and lands in the score memo for
        later probes.  A repeat answers exactly as a later sequential
        probe would: from the decision memo for the same person, from the
        shared vector (a ``score_hits`` answer) for another.  States the
        session cannot serve (foreign networks, ``full_rebuild``, rankers
        without a session) go through the plain ``decide_with_order``
        path one by one.

        Memo keys are ``(person, query, flips, epsilon)`` for decisions
        and ``(query, flips, base version, epsilon)`` for score vectors,
        with ``epsilon`` the localized scope's allowance (None outside a
        scope): a sampled vector is only valid within its certified bound,
        so localized and exact-mode probes never share memo slots.  Plan
        accounting (``spec.record``) happens on every localized score and
        every localized score-memo hit.
        """
        self._sync_base()
        spec = active_localized()
        eps = None if spec is None else spec.epsilon
        # Resolved on the first decision-memo miss: an all-hit batch never
        # pays the session lookup.
        session = resolved = None
        results: List[Optional[Tuple[bool, float]]] = []
        # query -> score key -> [(index, person, network, decision key, overlay)]
        pending: Dict[Query, Dict[Tuple, List[Tuple]]] = {}
        for i, (person, query, network) in enumerate(states):
            query = as_query(query)
            network = self.base if network is None else network
            results.append(None)
            key = self._key(person, query, network, eps)
            if key is not None:
                cached = self._memo.get(key)
                if cached is not None:
                    self.hits += 1
                    results[i] = cached
                    continue
            if resolved is None:
                session, resolved = self._batch_session(), True
            overlay = None if session is None else self._overlay_for(network)
            if overlay is None:
                results[i] = self._probe_uncached(person, query, network, key)
                continue
            skey = (query, overlay.flips(), self.base_version, eps)
            if key is not None:
                cached = self._score_memo.get(skey)
                if cached is not None:
                    results[i] = self._decide_scored(
                        person, query, network, cached, key, spec, from_memo=True
                    )
                    continue
            pending.setdefault(query, {}).setdefault(skey, []).append(
                (i, person, network, key, overlay)
            )

        for query, by_state in pending.items():
            groups = list(by_state.items())
            for start in range(0, len(groups), _BATCH_GROUP):
                chunk = groups[start : start + _BATCH_GROUP]
                check_budget(len(chunk))
                overlays = [items[0][4] for _, items in chunk]
                fault_point(
                    "session.scores",
                    key=_fault_key(query, [f for ov in overlays for f in ov.flips()]),
                    engine=self,
                )
                scored = session.scores_batch(query, overlays, spec)
                for (skey, items), entry in zip(chunk, scored):
                    if self.memoize:
                        self._score_memo.put(skey, entry)
                    for j, (i, person, network, key, _) in enumerate(items):
                        cached = self._memo.get(key) if j and key is not None else None
                        if cached is not None:
                            self.hits += 1
                            results[i] = cached
                        else:
                            results[i] = self._decide_scored(
                                person, query, network, entry, key, spec,
                                from_memo=j > 0,
                            )
        return results  # type: ignore[return-value]

    def _decide_scored(
        self,
        person: int,
        query: Query,
        network,
        entry: Tuple[np.ndarray, LocalizedPlan],
        key,
        spec: Optional[LocalizedSpec],
        from_memo: bool = False,
    ) -> Tuple[bool, float]:
        """Decide one probe from an already-computed ``(scores, plan)``
        entry, account the plan to the localized ``spec`` (if any) and
        record the decision in the decision memo.  ``from_memo`` keeps the
        counters honest: a decision derived from a memoized score vector
        costs no ranker evaluation, so it counts as a ``score_hits``
        answer, not a miss — ``n_probes``/``misses`` stay "unique system
        evaluations"."""
        scores, plan = entry
        if spec is not None:
            spec.record(plan)
        result = self.target.decide_with_order_scored(person, query, network, scores)
        if from_memo:
            self.score_hits += 1
        else:
            self.misses += 1
        if key is not None:
            self._memo.put(key, result)
        return result

    def _batch_session(self):
        """The target ranker's delta session over this engine's base, when
        batched overlay scoring is usable at all.  The thread's
        :func:`~repro.runtime.delta_bypass` scope disables it too — the
        service's full-rebuild fallback tier routes *every* probe through
        the plain paths with overlays kept visible."""
        if self.full_rebuild or delta_bypassed():
            return None
        ranker = getattr(self.target, "ranker", None)
        if ranker is None or getattr(ranker, "full_rebuild", False):
            return None
        try:
            return ranker._session_for(self.base)
        except AttributeError:
            return None

    def decide(
        self,
        person: int,
        query: Iterable[str],
        network: Optional[CollaborationNetwork] = None,
    ) -> bool:
        """The decision bit alone (SHAP value functions)."""
        return self.probe(person, query, network)[0]

    # ------------------------------------------------------------------
    # base-commit rebasing
    # ------------------------------------------------------------------
    def rebase(self, delta) -> Tuple[int, int]:
        """Carry this engine's memo levels across a committed base edit,
        retaining every entry whose query's dependency cone provably
        misses the delta.  Returns ``(retained, dropped)`` score-memo
        entry counts.

        Must run before the next probe's :meth:`_sync_base` notices the
        version drift and clears wholesale; raises ``ValueError`` when
        the delta does not span this engine's (old → current) versions —
        the registry drops such engines instead."""
        if self.base.version != delta.new_version or (
            self.base_version not in (delta.old_version, delta.new_version)
        ):
            raise ValueError(
                f"delta {delta.old_version}->{delta.new_version} does not "
                f"apply to engine at {self.base_version} "
                f"(base {self.base.version})"
            )
        if delta.is_empty:
            self.base_version = delta.new_version
            return (0, 0)
        session = self._batch_session()
        if session is not None and session.base_version == delta.new_version:
            survives = session.memo_survives
        else:
            # No delta session (full_rebuild targets, sessionless rankers)
            # or one that could not be rebased: retain nothing.
            def survives(_delta, _query):
                return False

        # Decision-memo keys carry no version, so survivors must be
        # provably decision-identical over the new base — the same
        # score-vector survival predicate covers that (identical scores
        # imply identical decisions and ordering keys).
        for key in self._memo.keys():
            if not survives(delta, key[1]):
                self._memo.pop(key)
        retained, dropped = _rekey_memo_entries(self._score_memo, delta, survives)
        self._empty_overlay = None
        self.base_version = delta.new_version
        return (retained, dropped)

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------
    def accepts(self, network: CollaborationNetwork) -> bool:
        """Can probes against ``network`` be served by this engine?"""
        return network is self.base or (
            isinstance(network, NetworkOverlay) and network.base is self.base
        )

    @property
    def n_probes(self) -> int:
        """Unique (non-memoized) system evaluations so far.  Decisions
        served from the score-vector memo are *not* counted — they cost
        no ranker evaluation (see ``score_hits``)."""
        return self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of probes answered without evaluating the system —
        from the decision memo or from a memoized score vector."""
        total = self.hits + self.score_hits + self.misses
        return (self.hits + self.score_hits) / total if total else 0.0

    def _key(
        self, person: int, query: Query, network, eps: Optional[float]
    ) -> Optional[Tuple]:
        if not self.memoize:
            return None
        if network is self.base:
            flips: frozenset = frozenset()
        elif (
            isinstance(network, NetworkOverlay)
            and network.base is self.base
            and network.base_version == self.base_version
        ):
            flips = network.flips()
        else:
            return None  # foreign network: probe uncached
        return (person, query, flips, eps)

    def _sync_base(self) -> None:
        if self.base.version != self.base_version:
            # The base mutated since the last probe: every memoized outcome
            # is stale.  Re-stamp and drop both memo levels — but keep the
            # hit/miss counters cumulative, since callers snapshot
            # ``misses`` deltas to report unique probe counts.  (The score
            # memo's keys carry the base version too, so even a stale
            # entry that survived could never be served — clearing here
            # just releases the memory.)
            self._memo.clear()
            self._score_memo.clear()
            self._empty_overlay = None
            self.base_version = self.base.version

    def __repr__(self) -> str:
        return (
            f"ProbeEngine(target={type(self.target).__name__}, "
            f"hits={self.hits}, misses={self.misses}, "
            f"memoize={self.memoize}, full_rebuild={self.full_rebuild})"
        )
