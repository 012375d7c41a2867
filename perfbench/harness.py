"""The workloads: set-up, closed-loop timed windows, checks, metrics.

Every workload is a closed loop from this one process: each caller sends
its next request only after the previous reply arrived.  The in-process
workloads have one caller thread driving ``ExplanationService.explain_many``
with one request per call (``max_workers=1``, fresh ``EngineRegistry`` per
window).  ``serve-hot-commits`` runs an ``ExplanationServer`` on loopback
in this process with two ``ServeClient`` connections on the same event
loop.

A run with ``trace=0`` sets the system up ``SETUPS`` times (``setup_s`` is
the median): three times before its one timed window, which runs on the
last of them, and twice after the window and its checks, so that the
set-ups sample the host over the whole run.  A run with
``trace=1`` runs an untraced window and a traced window, each on a fresh
set-up of the same inputs; the difference is the tracing overhead, and the
two windows' explanation digests must agree.  After the windows, the first
``checks.DIGEST_PREFIX`` requests of the deterministic sequence are
answered again by a fresh service, and their digest must match.
"""

from __future__ import annotations

import asyncio
import gc
import os
import platform
import resource
import statistics
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np
import scipy

from repro.explain.explanation import CounterfactualExplanation, FactualExplanation
from repro.serve import client as client_mod
from repro.serve import ExplanationServer, ServeClient, ServeConfig

from perfbench import checks, trace, workloads
from perfbench.workloads import Stack

SETUPS = 5


@dataclass
class Workload:
    """One named workload: the system it builds, whether it goes through
    the server, and how ``--seed`` becomes its inputs."""

    name: str
    build: Callable[[], Stack]
    serve: bool
    inputs: Callable[[Stack, int], object]
    # The highest percentile with at least 10 samples beyond it at this
    # workload's throughput on the reference host, fixed so that runs stay
    # comparable when the sample count moves across a threshold.
    tail_percentile: float
    # peak_rss_mb is read when this many responses have arrived (or at the
    # window's end, if fewer do): memos grow with the requests answered, so
    # a fixed count keeps a faster or slower host, or commit, from moving
    # the figure by the work it did.  About what a loaded 2-core host
    # answers in a 20 s window.
    rss_requests: int
    cf_sample: Optional[int] = None  # None: re-decide every counterfactual


def _counterfactual_inputs(stack: Stack, seed: int):
    # Membership is asked only as cf_query for team non-members.  With
    # cf_collaborations for members and non-members too, the median
    # request fell in the gap between the cheap and the costly half of the
    # mix; cf_query for members is itself bimodal (its median moved
    # 0.011-0.047 s between seeds).  Either way latency_p50_s spread about
    # a fifth of its median between runs.  About 2800 requests: a window
    # does not run out of distinct subjects at three times this commit's
    # throughput on an idle 2-core host (about 35 per second).
    requests = workloads.distinct_requests(
        stack, seed, ("cf_query", "cf_collaborations"), ("cf_query",),
        n_queries=1000, n_team_queries=1000,
    )
    return [r for r in requests if r.tag != "member"]


def _hot_inputs(stack: Stack, seed: int):
    # Connection A asks only cf_query, the cheap counterfactual, so its
    # requests are most of a window's samples and the median falls inside
    # their cluster; with A's mix as broad as B's it fell between the cheap
    # and the costly requests, and its quartile spread over ten seeds was a
    # quarter of its value.
    return workloads.hot_traffic(
        stack, seed,
        n_hot_queries=12,
        interactive_kinds=("cf_query",),
        dashboard_kinds=("cf_query", "cf_collaborations", "query"),
        team_kinds=("cf_query", "cf_collaborations"),
        batch_size=4, commit_every=5,
    )


def _scale_inputs(stack: Stack, seed: int):
    requests = workloads.distinct_requests(
        stack, seed, ("query", "cf_query", "cf_collaborations"), (),
        n_queries=150, n_team_queries=0,
    )
    # About 750 requests, four times what an idle host answers in a
    # 25 s window.  Link addition for non-experts costs 0.45-1.8 s per request at 2e4
    # people and its median moves 2x between seeds; link removal for
    # experts exercises the same edge-flip patching and push kernels.
    return workloads.localized(
        r for r in requests if not (r.kind == "cf_collaborations" and r.tag == "non_expert")
    )


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("counterfactual-212", workloads.build_bench_stack, False,
                 _counterfactual_inputs, tail_percentile=95.0, rss_requests=300),
        Workload("serve-hot-commits", workloads.build_bench_stack, True,
                 _hot_inputs, tail_percentile=95.0, rss_requests=400),
        Workload("scale-20k", workloads.build_scale_stack, False,
                 _scale_inputs, tail_percentile=85.0, rss_requests=70, cf_sample=8),
    )
}


@dataclass
class Window:
    """What one timed window produced, in deterministic sequence order
    where one exists (in-process: request order; serve: connection A)."""

    responses: List = field(default_factory=list)
    latencies: List[float] = field(default_factory=list)
    sequence: List = field(default_factory=list)


    wire: List[float] = field(default_factory=list)
    commits: List[Dict] = field(default_factory=list)
    elapsed: float = 0.0
    rss_requests: int = 0  # 0: read peak RSS at the window's end
    peak_rss_mb: float = 0.0
    rss_method: str = ""
    exhausted: bool = False
    errors: int = 0  # operations refused outright (error frames, failed commits)
    # Registry counters over the window: probe memo hits/misses, engine
    # builds and team re-forms.
    counters: Dict[str, int] = field(default_factory=dict)
    check: Dict = field(default_factory=dict)

    def add(self, response, latency: float) -> None:
        self.responses.append(response)
        self.latencies.append(latency)
        if len(self.responses) == self.rss_requests:
            self.peak_rss_mb = peak_rss_mb(self.rss_method)


def reset_peak_rss() -> str:
    """Start a new RSS high-water mark for this process; returns how
    :func:`peak_rss_mb` will read it: ``"VmHWM"`` after the kernel reset
    it, ``"ru_maxrss"`` (the whole process life) where it cannot."""
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
    except OSError:
        return "ru_maxrss"
    return "VmHWM"


def peak_rss_mb(method: str) -> float:
    if method == "VmHWM":
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def registry_counters(service) -> Dict[str, int]:
    """Counters of the engines and team sessions the service's registry
    holds (entries evicted during a window take their counts with them)."""
    registry = service.registry
    totals = {"hits": 0, "score_hits": 0, "misses": 0,
              "engine_builds": registry.engine_builds, "reforms": 0, "fast_hits": 0}
    for engine in registry._engines.values():
        for name in ("hits", "score_hits", "misses"):
            totals[name] += getattr(engine, name)
    for session in registry._team_sessions.values():
        totals["reforms"] += getattr(session, "reforms", 0)
        totals["fast_hits"] += getattr(session, "fast_hits", 0)
    return totals


def _begin(window: Window, service) -> Dict[str, int]:
    gc.collect()
    window.rss_method = reset_peak_rss()
    return registry_counters(service)


def _end(window: Window, service, before: Dict[str, int]) -> None:
    if len(window.responses) < window.rss_requests or not window.rss_requests:
        window.peak_rss_mb = peak_rss_mb(window.rss_method)
    after = registry_counters(service)
    window.counters = {k: after[k] - before[k] for k in after}


# ---------------------------------------------------------------------------
# timed windows
# ---------------------------------------------------------------------------


def inprocess_window(service, requests, seconds: float, rss_requests: int = 0) -> Window:
    window = Window(rss_requests=rss_requests)
    before = _begin(window, service)
    start = time.perf_counter()
    deadline = start + seconds
    for request in requests:
        if time.perf_counter() >= deadline:
            break
        sent = time.perf_counter()
        response = service.explain_many([request], max_workers=1)[0]
        window.add(response, time.perf_counter() - sent)
    else:
        window.exhausted = True
    window.elapsed = time.perf_counter() - start
    _end(window, service, before)
    window.sequence = window.responses
    return window


async def _stream(client, requests, max_workers, window: Window, sequence=None):
    sent = time.perf_counter()
    async for frame in client.explain_stream(requests, max_workers=max_workers):
        if frame["type"] == "result":
            latency = time.perf_counter() - sent
            response = client_mod.response_from_dict(frame["response"])
            window.add(response, latency)
            window.wire.append(latency - response.elapsed_seconds)
            if sequence is not None:
                sequence.append(response)
        elif frame["type"] == "error":
            window.errors += 1


async def serve_window(
    server, traffic: workloads.HotTraffic, seconds: float, rss_requests: int = 0
) -> Window:
    window = Window(rss_requests=rss_requests)
    host, port = server.config.host, server.port
    interactive = await ServeClient.connect(host, port, session="interactive")
    dashboard = await ServeClient.connect(host, port, session="dashboard")
    before = _begin(window, server.service)
    start = time.perf_counter()
    deadline = start + seconds

    async def user_a():
        for i, request in enumerate(traffic.interactive):
            if time.perf_counter() >= deadline:
                return
            if i and i % traffic.commit_every == 0:
                flip = traffic.flips[len(window.commits)]
                sent = time.perf_counter()
                try:
                    end = await interactive.commit(skill_flips=[flip], commit_id=len(window.commits))
                except client_mod.RemoteProtocolError:
                    window.errors += 1
                    return
                window.commits.append(
                    {"latency": time.perf_counter() - sent,
                     "new_version": end["new_version"], "flips": [flip]}
                )
            await _stream(interactive, [request], 1, window, window.sequence)
        window.exhausted = True

    async def user_b():
        for batch in traffic.dashboard:
            if time.perf_counter() >= deadline:
                return
            await _stream(dashboard, batch, 2, window)

    await asyncio.gather(user_a(), user_b())
    window.elapsed = time.perf_counter() - start
    _end(window, server.service, before)
    await interactive.close()
    await dashboard.close()
    return window


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------


def _setup(workload: Workload):
    """Build the system and its service; for serve also start the server.
    Returns (stack, service, server or None, setup breakdown)."""
    stack = workload.build()
    service = stack.service()
    server = None
    if workload.serve:
        start = time.perf_counter()
        server = asyncio.get_event_loop().run_until_complete(
            ExplanationServer(
                service, ServeConfig(max_batch_workers=2, dispatch_threads=2)
            ).start()
        )
        stack.setup["server_start_s"] = time.perf_counter() - start
    return stack, service, server


def _shutdown(server) -> None:
    if server is not None:
        asyncio.get_event_loop().run_until_complete(server.shutdown())


def _window(workload: Workload, service, server, inputs, seconds: float) -> Window:
    if workload.serve:
        return asyncio.get_event_loop().run_until_complete(
            serve_window(server, inputs, seconds, workload.rss_requests)
        )
    return inprocess_window(service, inputs, seconds, workload.rss_requests)


def _check(workload: Workload, stack: Stack, window: Window, base_copy, base_version, seed):
    decider = checks.ReferenceDecider(
        stack, base_copy, base_version,
        {c["new_version"]: c["flips"] for c in window.commits},
    )
    return checks.check_responses(stack, window.responses, decider, workload.cf_sample, seed)


def replay(workload: Workload, stack: Stack, network, inputs, n: int) -> List:
    """The first ``n`` responses of the deterministic sequence answered
    again, one request at a time, by a fresh service over ``network`` (a
    copy of the window's base).  For serve that is connection A's
    sequence, with its commits applied at the same points."""
    service = stack.service(network)
    if not workload.serve:
        return [service.explain_many([r], max_workers=1)[0] for r in inputs[:n]]
    responses = []
    flips = iter(inputs.flips)
    for i, request in enumerate(inputs.interactive[:n]):
        if i and i % inputs.commit_every == 0:
            service.commit(checks.overlay_with(network, [next(flips)]))
        responses.append(service.explain_many([request], max_workers=1)[0])
    return responses


def tail(latencies: List[float], percentile: float) -> Dict[str, float]:
    """``latency_tail_s`` at the workload's fixed percentile, with the
    sample count and how many samples lie beyond it."""
    if not latencies:
        return {"value": float("nan"), "percentile": percentile, "samples": 0, "beyond": 0}
    value = float(np.percentile(latencies, percentile))
    return {
        "value": value,
        "percentile": percentile,
        "samples": len(latencies),
        "beyond": sum(v > value for v in latencies),
    }


def _probes(explanation) -> int:
    if isinstance(explanation, CounterfactualExplanation):
        return explanation.n_probes
    return explanation.n_evaluations


def summarize(window: Window, tail_percentile: float) -> Dict[str, object]:
    """End-to-end figures and workload properties of one window."""
    responses = window.responses
    ok = [r for r in responses if r.outcome == "ok"]
    factual = [r for r in ok if isinstance(r.explanation, FactualExplanation)]
    cf = [r for r in ok if isinstance(r.explanation, CounterfactualExplanation)]
    found = [r for r in cf if r.explanation.counterfactuals]
    sizes = [c.size for r in cf for c in r.explanation.counterfactuals]
    plans = {"exact": 0, "sampled": 0, "global": 0}
    for r in ok:
        for mode in plans:
            plans[mode] += (r.localized or {}).get(mode, 0)
    n_plans = sum(plans.values())
    memo = window.counters
    memo_total = memo.get("hits", 0) + memo.get("score_hits", 0) + memo.get("misses", 0)
    n = max(1, len(responses))
    commit_lat = [c["latency"] for c in window.commits]
    by_bucket: Dict[str, List[float]] = {}
    for r, latency in zip(responses, window.latencies):
        by_bucket.setdefault(f"{r.request.kind}/{r.request.tag}", []).append(latency)
    return {
        "explanations_per_s": len(ok) / window.elapsed if window.elapsed else 0.0,
        "latency_p50_s": float(np.median(window.latencies)) if window.latencies else float("nan"),
        "latency_tail": tail(window.latencies, tail_percentile),
        "commit_p50_s": float(np.median(commit_lat)) if commit_lat else 0.0,
        "peak_rss_mb": window.peak_rss_mb,
        "cf_found_fraction": len(found) / len(cf) if cf else 0.0,
        "cf_size_mean": float(np.mean(sizes)) if sizes else 0.0,
        "properties": {
            "requests": len(responses),
            "commits": len(window.commits),
            "window_s": window.elapsed,
            "inputs_exhausted": window.exhausted,
            "coalesced_share": sum(r.coalesced for r in responses) / n,
            "memo_hit_share": (
                (memo.get("hits", 0) + memo.get("score_hits", 0)) / memo_total
                if memo_total else 0.0
            ),
            "factual_share": sum(r.request.is_factual for r in responses) / n,
            "counterfactual_share": sum(not r.request.is_factual for r in responses) / n,
            "team_share": sum(r.request.team for r in responses) / n,
            "plan_exact_share": plans["exact"] / n_plans if n_plans else 0.0,
            "plan_sampled_share": plans["sampled"] / n_plans if n_plans else 0.0,
            "plan_global_share": plans["global"] / n_plans if n_plans else 0.0,
            "tail_percentile": tail_percentile,
            "probes_per_explanation": (
                float(np.mean([_probes(r.explanation) for r in ok])) if ok else 0.0
            ),
            "latency_by_bucket": {
                key: {"n": len(v), "p50_s": float(np.median(v)), "max_s": max(v)}
                for key, v in sorted(by_bucket.items())
            },
            "factual_explanations": len(factual),
            "counterfactual_explanations": len(cf),
        },
    }


def layer_metrics(
    tracer: trace.Tracer, window: Window, untraced: Window, tail_percentile: float
) -> Dict[str, float]:
    """Per-layer figures of a traced window, per ok explanation where
    they are times or counts."""
    totals = tracer.layer_totals()
    c = tracer.counters
    ok = [r for r in window.responses if r.outcome == "ok"]
    n = max(1, len(ok))

    def self_s(name):
        return totals.get(name, {}).get("self_s", 0.0) / n

    def calls(name):
        return totals.get(name, {}).get("calls", 0) / n

    commits = max(1, len(window.commits))
    reforms, fast_hits = window.counters["reforms"], window.counters["fast_hits"]
    props = summarize(window, tail_percentile)["properties"]
    untraced_cost = untraced.elapsed / max(1, sum(r.outcome == "ok" for r in untraced.responses))
    traced_cost = window.elapsed / n
    metrics = {
        "serve.wire_s": float(np.median(window.wire)) if window.wire else 0.0,
        "serve.codec_s": self_s("serve.codec"),
        "serve.frame_bytes": c["serve.frame_bytes"] / n,
        "service.explain_many_s": self_s("service.explain_many"),
        "service.coalesced": sum(r.coalesced for r in window.responses),
        "service.rejected": sum(r.outcome == "rejected" for r in window.responses),
        "service.failed": sum(r.outcome == "failed" for r in window.responses),
        "service.commit_s": totals.get("service.commit", {}).get("self_s", 0.0) / commits,
        "service.rebase_s": totals.get("service.rebase", {}).get("inclusive_s", 0.0) / commits,
        "service.memo_retained": c["service.memo_retained"],
        "service.memo_dropped": c["service.memo_dropped"],
        "service.engine_builds": window.counters["engine_builds"],
        "explain.state_build_s": self_s("explain.state_build"),
        "explain.states_built": calls("explain.state_build"),
        "explain.shap_solver_s": self_s("explain.shap"),
        "explain.beam_s": self_s("explain.beam"),
        "explain.candidates_s": self_s("explain.candidates"),
        "explain.probes_per_explanation": props["probes_per_explanation"],
        "search.probe_self_s": self_s("search.probe"),
        "search.probe_calls": calls("search.probe"),
        "search.memo_hit_ratio": props["memo_hit_share"],
        "search.session_s": _outer_inclusive(tracer, "search.session") / n,
        "search.session_self_s": self_s("search.session"),
        "search.session_calls": calls("search.session"),
        "search.states_scored": c["search.states_scored"] / n,
        "search.decision_s": self_s("search.decision"),
        "search.decision_calls": calls("search.decision"),
        "search.plan_exact": props["plan_exact_share"],
        "search.plan_sampled": props["plan_sampled_share"],
        "search.plan_global": props["plan_global_share"],
    }
    for kernel in trace.BACKEND_KERNELS:
        metrics[f"backend.{kernel}_s"] = self_s(f"backend.{kernel}")
        metrics[f"backend.{kernel}_calls"] = calls(f"backend.{kernel}")
    metrics.update(
        {
            "backend.bytes_computed": c["backend.bytes_computed"] / n,
            "team.form_s": self_s("team.form"),
            "team.form_calls": calls("team.form"),
            "team.reform_ratio": reforms / (reforms + fast_hits) if reforms + fast_hits else 0.0,
            "graph.overlay_ops": c["graph.overlay_ops"] / n,
            "trace.unattributed_s": self_s("service.request"),
            "trace.overhead": traced_cost / untraced_cost - 1.0 if untraced_cost else 0.0,
        }
    )
    return metrics


def _outer_inclusive(tracer: trace.Tracer, name: str) -> float:
    """Inclusive time of ``name`` spans not nested in another ``name`` span."""
    names = {sid: (span_name, parent) for sid, span_name, _s, _e, parent, _r in tracer.spans}
    total = 0.0
    for sid, span_name, start, end, parent, _req in tracer.spans:
        if span_name != name:
            continue
        outer = True
        while parent is not None:
            parent_name, parent = names.get(parent, (None, None))
            if parent_name == name:
                outer = False
                break
        if outer:
            total += end - start
    return total


def metadata(root: Path, seed: int) -> Dict[str, object]:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
            timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "git_commit": commit,
        "code_digest": checks.code_digest(root),
    }


def _median_setup(breakdowns: List[Dict[str, float]]) -> Dict[str, object]:
    keys = sorted({k for b in breakdowns for k in b})
    out: Dict[str, object] = {
        k: statistics.median(b.get(k, 0.0) for b in breakdowns) for k in keys
    }
    totals = [sum(b.values()) for b in breakdowns]
    out["total_s"] = statistics.median(totals)
    out["each_total_s"] = totals
    return out


def run(
    workload: Workload,
    seed: int,
    seconds: float,
    traced: bool,
    root: Path,
    out: Path,
    setups: int = SETUPS,
) -> Dict:
    """One benchmark run; returns the full record (the caller prints it).
    The serve workload's server and clients share one event loop, closed
    when the run ends."""
    loop = asyncio.new_event_loop()
    asyncio.set_event_loop(loop)
    try:
        return _run(workload, seed, seconds, traced, root, out, setups)
    finally:
        asyncio.set_event_loop(None)
        loop.close()


def _run(workload, seed, seconds, traced, root, out, setups) -> Dict:
    name = workload.name
    out.mkdir(parents=True, exist_ok=True)
    record: Dict[str, object] = {"workload": name, "trace": int(traced),
                                 "seconds": seconds, "meta": metadata(root, seed)}
    breakdowns: List[Dict[str, float]] = []
    stack = service = server = None
    later = 0 if traced else setups // 2  # set-ups made after the window
    for _ in range(1 if traced else setups - later):
        if server is not None:
            _shutdown(server)
        stack = service = server = None
        gc.collect()
        stack, service, server = _setup(workload)
        breakdowns.append(dict(stack.setup))
    start = time.perf_counter()
    inputs = workload.inputs(stack, seed)
    record["inputs_s"] = time.perf_counter() - start

    windows = []
    tracer = replayed = None
    for phase in ("untraced", "traced") if traced else ("untraced",):
        if phase == "traced":
            _shutdown(server)
            stack = service = server = None
            gc.collect()
            stack, service, server = _setup(workload)
        # Only serve commits move the base; elsewhere the live network is
        # the reference (a copy made now would count in peak RSS).
        base_copy = checks.snapshot(stack.network) if workload.serve else stack.network
        base_version = stack.network.version
        if phase == "traced":
            tracer = trace.install()
        try:
            window = _window(workload, service, server, inputs, seconds)
        finally:
            if tracer is not None:
                tracer.restore()
        _shutdown(server)
        server = None
        if not windows:
            n_replay = min(checks.DIGEST_PREFIX, len(window.sequence))
            replay_base = checks.snapshot(base_copy) if workload.serve else stack.network
            start = time.perf_counter()
            replayed = replay(workload, stack, replay_base, inputs, n_replay)
            record["replay_s"] = time.perf_counter() - start
        start = time.perf_counter()
        window.check = _check(workload, stack, window, base_copy, base_version, seed)
        window.check["checks_s"] = time.perf_counter() - start
        windows.append(window)

    stack = service = None
    for _ in range(later):
        gc.collect()
        extra, _service, server = _setup(workload)
        breakdowns.append(dict(extra.setup))
        _shutdown(server)
        extra = _service = server = None
    record["setup"] = _median_setup(breakdowns)

    attempted = failed = 0
    for window in windows:
        attempted += len(window.responses) + len(window.commits) + window.errors
        failed += len(window.check["failed_indices"]) + window.errors
    # The replay answered the first window's prefix; a traced window that
    # ended sooner is compared on its shorter prefix.
    n_prefix = len(replayed)
    value = checks.digest(replayed)
    digest_ok = all(
        checks.digest(w.sequence[:n]) == checks.digest(replayed[:n])
        for w in windows
        for n in [min(n_prefix, len(w.sequence))]
    )
    if not digest_ok:
        failed += 1
    record["digest"] = {"prefix": n_prefix, "sha256": value, "consistent": digest_ok}

    first = windows[0]
    summary = summarize(first, workload.tail_percentile)
    record["checks"] = [
        {k: v for k, v in w.check.items() if k != "failed_indices"} for w in windows
    ]
    record["properties"] = summary["properties"]
    end_to_end = {
        "setup_s": (record["setup"]["total_s"], "s"),
        "explanations_per_s": (summary["explanations_per_s"], "1/s"),
        "latency_p50_s": (summary["latency_p50_s"], "s"),
        "latency_tail_s": (summary["latency_tail"]["value"], "s"),
        "peak_rss_mb": (summary["peak_rss_mb"], "MB"),
    }
    record["properties"]["peak_rss_method"] = first.rss_method
    n_done = len(first.responses)
    record["properties"]["peak_rss_after_requests"] = (
        first.rss_requests if 0 < first.rss_requests <= n_done else n_done
    )
    # Workload-specific end-to-end figures: reported in the record of
    # every run and with the per-layer metrics of traced runs.
    extra = {
        "commit_p50_s": (summary["commit_p50_s"], "s"),
        "error_rate": (failed / attempted if attempted else 1.0, "ratio"),
        "cf_found_fraction": (summary["cf_found_fraction"], "ratio"),
        "cf_size_mean": (summary["cf_size_mean"], "count"),
    }
    record["end_to_end"] = {k: {"value": v, "unit": u} for k, (v, u) in end_to_end.items()}
    record["workload_end_to_end"] = {k: {"value": v, "unit": u} for k, (v, u) in extra.items()}
    record["latency_tail"] = summary["latency_tail"]
    record["latencies"] = {
        "seconds": first.latencies,
        "bucket": [f"{r.request.kind}/{r.request.tag}" for r in first.responses],
    }
    if traced:
        layers = layer_metrics(tracer, windows[1], first, workload.tail_percentile)
        record["per_layer"] = layers
        record["layer_totals"] = tracer.layer_totals()
        tracer.write(out / f"{name}-seed{seed}.spans.jsonl")
    record["correct"] = failed == 0
    record["attempted"] = attempted
    record["failed"] = failed
    return record
