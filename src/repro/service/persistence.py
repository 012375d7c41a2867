"""Warm-registry spill/restore: serialize delta-session caches and score
memos to disk so a restarted ``python -m repro serve`` worker answers its
first request hot instead of paying the cold-start rebuild.

File format (``repro-registry-spill/3``, a single pickle)::

    {
        "format":  "repro-registry-spill/3",
        "digest":  <network.state_digest()>,   # structural binding key
        "version": <network.version at spill>, # informational only
        "backend": <type(get_backend()).__name__>,
        "sessions":      {label: {cache_attr: [(key, value), ...]}},
        "team_sessions": {label: {cache_attr: [(key, value), ...]}},
        "score_memos":   {label: [((query, flips, epsilon), (vector, plan)), ...]},
    }

Format ``/3`` changed the PageRank session's ``_query_cache`` entries to
``(solution, converged)`` (restart counts are re-derived, not stored);
files in an older format restore nothing (``skipped: "format"``).

``label`` is ``"{index}:{TypeName}"`` over the caller-supplied ``systems``
sequence — restore must be handed the *same systems in the same order* it
was spilled with (the deployment rebuilds its stack deterministically from
the dataset seed, so positional identity is stable across processes).

Binding is structural, not positional, where it matters: restore verifies
the live network's :meth:`~repro.graph.network.CollaborationNetwork
.state_digest` and the active numeric backend against the spilled ones and
restores *nothing* on a mismatch — a changed dataset or kernel family
starts cold rather than hot-with-wrong-answers.  Version counters are
deliberately not compared (they restart at 0 in a new process); spilled
score-memo entries are re-stamped with the live network's version on load
and keep their localized ``epsilon`` (None for exact-mode entries), so a
restored sampled vector never serves an exact-mode probe.

The payload is **pickle**: only load spill files your own deployment
wrote.  This mirrors every other warm-cache-on-disk design (pickles can
execute code on load) and is why the serve layer only reads the path the
operator passed on its own command line.
"""

from __future__ import annotations

import os
import pickle
from typing import Dict, Sequence

from repro.backend import get_backend
from repro.graph.network import CollaborationNetwork

SPILL_FORMAT = "repro-registry-spill/3"


def _label(index: int, system) -> str:
    return f"{index}:{type(system).__name__}"


def spill_registry(
    path, registry, network: CollaborationNetwork, systems: Sequence
) -> Dict[str, int]:
    """Write the warm state bound to ``(network, systems)`` to ``path``.

    Returns ``{"sessions": n, "team_sessions": n, "memo_entries": n}``
    counts of what was captured.  Systems without a live session (never
    probed, or LRU-evicted) are simply absent from the file.
    """
    payload = {
        "format": SPILL_FORMAT,
        "digest": network.state_digest(),
        "version": network.version,
        "backend": type(get_backend()).__name__,
        "sessions": {},
        "team_sessions": {},
        "score_memos": {},
    }
    stats = {"sessions": 0, "team_sessions": 0, "memo_entries": 0}
    with registry._lock:
        for i, system in enumerate(systems):
            if system is None:
                continue
            key = (id(system), id(network), network.version)
            label = _label(i, system)
            session = registry._search_sessions.get(key)
            if session is not None:
                payload["sessions"][label] = session.warm_state()
                stats["sessions"] += 1
            tsession = registry._team_sessions.get(key)
            if tsession is not None:
                payload["team_sessions"][label] = tsession.warm_state()
                stats["team_sessions"] += 1
            hit = registry._score_memos.get(key)
            if hit is not None and hit[1] is network:
                entries = [
                    ((query, flips, eps), entry)
                    for (query, flips, version, eps), entry in hit[2].items()
                    if version == network.version
                ]
                payload["score_memos"][label] = entries
                stats["memo_entries"] += len(entries)
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as f:
        pickle.dump(payload, f, protocol=pickle.HIGHEST_PROTOCOL)
    os.replace(tmp, path)
    return stats


def restore_registry(
    path, registry, network: CollaborationNetwork, systems: Sequence
) -> Dict[str, int]:
    """Load a spill file into ``registry``, rebinding the warm state to
    the live ``network``/``systems``.

    Sessions are rebuilt through the systems' own ``delta_session``
    factories (registry-owned, current version) and refilled from the
    spilled cache snapshots; score-memo entries are re-stamped with the
    live network version.  Returns restore counts, with a ``"skipped"``
    reason (and zero counts) when the file does not bind: missing file,
    wrong format, structural digest mismatch, or a different numeric
    backend (cache values embed kernel-specific rounding)."""
    stats = {"sessions": 0, "team_sessions": 0, "memo_entries": 0}
    if not os.path.exists(path):
        stats["skipped"] = "missing"
        return stats
    with open(path, "rb") as f:
        payload = pickle.load(f)
    if not isinstance(payload, dict) or payload.get("format") != SPILL_FORMAT:
        stats["skipped"] = "format"
        return stats
    if payload.get("digest") != network.state_digest():
        stats["skipped"] = "digest"
        return stats
    if payload.get("backend") != type(get_backend()).__name__:
        stats["skipped"] = "backend"
        return stats
    with registry._lock:
        for i, system in enumerate(systems):
            if system is None:
                continue
            label = _label(i, system)
            state = payload["sessions"].get(label)
            if state is not None:
                session = registry.search_session(system, network)
                if session is not None:
                    session.load_warm_state(state)
                    stats["sessions"] += 1
            state = payload["team_sessions"].get(label)
            if state is not None:
                tsession = registry.team_session(system, network)
                if tsession is not None:
                    tsession.load_warm_state(state)
                    stats["team_sessions"] += 1
            entries = payload["score_memos"].get(label)
            if entries:
                memo = registry._restored_score_memo(system, network)
                for (query, flips, eps), entry in entries:
                    memo.put((query, flips, network.version, eps), entry)
                stats["memo_entries"] += len(entries)
        registry.restored_sessions += stats["sessions"] + stats["team_sessions"]
        registry.restored_memo_entries += stats["memo_entries"]
    return stats
