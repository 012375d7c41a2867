"""The benchmark's own tests: seeded inputs, deterministic explanations,
trace wrappers that restore what they patch, and a tiny run of each
workload harness that passes its correctness checks."""

from __future__ import annotations

import dataclasses
import importlib

import pytest

from perfbench import checks, harness, trace, workloads
from perfbench.tests.conftest import ROOT


@pytest.fixture(scope="module")
def stack():
    return workloads.build_bench_stack()


def _hot(stack, seed):
    return workloads.hot_traffic(
        stack, seed, n_hot_queries=6,
        interactive_kinds=("cf_query",), dashboard_kinds=("query",),
        team_kinds=("cf_query",), batch_size=2, commit_every=3, length=40,
    )


def test_same_seed_same_inputs_different_seed_different_inputs(stack):
    make = harness.WORKLOADS["counterfactual-212"].inputs
    assert make(stack, 3) == make(stack, 3)
    assert make(stack, 3) != make(stack, 4)
    assert _hot(stack, 3) == _hot(stack, 3)
    assert _hot(stack, 3) != _hot(stack, 4)


def test_inputs_keep_the_bucket_mix_in_every_prefix(stack):
    requests = harness.WORKLOADS["counterfactual-212"].inputs(stack, 1)
    assert len(set(requests)) == len(requests)
    n_buckets = len(workloads.bucketed(requests))
    head = requests[:n_buckets]
    assert len({(r.kind, r.tag) for r in head}) == n_buckets


def test_same_seed_same_explanation_digest(stack):
    requests = harness.WORKLOADS["counterfactual-212"].inputs(stack, 2)[:4]
    digests = {
        checks.digest(harness.inprocess_window(stack.service(), requests, 60.0).sequence)
        for _ in range(2)
    }
    assert len(digests) == 1


def _patch_targets():
    modules = [importlib.import_module(m) for m in (
        "repro.explain.factual", "repro.explain.counterfactual",
        "repro.serve.server", "repro.serve.client", "repro.service.service",
    )]
    snapshot = {}
    for module in modules:
        snapshot.update({(module.__name__, k): v for k, v in vars(module).items()})
    return snapshot


def test_trace_restores_every_patched_function():
    before = _patch_targets()
    tracer = trace.install()
    patched = [(owner, attr, original) for owner, attr, original in tracer.patched]
    assert len(patched) > 40
    assert all(
        (owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr))
        is not original
        for owner, attr, original in patched
    )
    tracer.restore()
    assert tracer.patched == []
    for owner, attr, original in patched:
        current = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        assert current is original, (owner, attr)
    assert _patch_targets() == before


def test_layer_self_time_excludes_children():
    tracer = trace.Tracer()
    tracer.spans += [
        (1, "outer", 0.0, 10.0, None, 1),
        (2, "inner", 1.0, 4.0, 1, 1),
        (3, "inner", 3.0, 6.0, 1, 1),  # overlaps its sibling (another thread)
    ]
    totals = tracer.layer_totals()
    assert totals["outer"]["self_s"] == pytest.approx(5.0)
    assert totals["inner"]["self_s"] == pytest.approx(6.0)
    assert totals["inner"]["calls"] == 2


def _tiny(name, **changes):
    return dataclasses.replace(harness.WORKLOADS[name], **changes)


@pytest.mark.parametrize(
    "workload",
    [
        _tiny("counterfactual-212"),
        _tiny("serve-hot-commits", inputs=_hot),
        _tiny("scale-20k", build=lambda: workloads.build_scale_stack(n=2000)),
    ],
    ids=lambda w: w.name,
)
def test_tiny_run_passes_its_checks(workload, tmp_path):
    record = harness.run(workload, 1, 0.5, False, ROOT, tmp_path, setups=1)
    assert record["correct"], record["checks"]
    assert record["attempted"] >= 1 and record["failed"] == 0
    assert all(v["value"] > 0 for v in record["end_to_end"].values())


def test_tiny_traced_run_reports_layers(tmp_path):
    record = harness.run(_tiny("counterfactual-212"), 1, 0.5, True, ROOT, tmp_path)
    assert record["correct"], record["checks"]
    layers = record["per_layer"]
    assert layers["explain.beam_s"] > 0
    assert layers["search.probe_calls"] > 0
    assert layers["explain.states_built"] > 0
    assert (tmp_path / "counterfactual-212-seed1.spans.jsonl").exists()


def test_digest_check_fails_when_the_replay_differs(monkeypatch, tmp_path):
    workload = _tiny("counterfactual-212")
    real = harness.replay

    def other_seed(workload, stack, network, inputs, n):
        return real(workload, stack, network, workload.inputs(stack, 99), n)

    monkeypatch.setattr(harness, "replay", other_seed)
    record = harness.run(workload, 1, 0.5, False, ROOT, tmp_path, setups=1)
    assert not record["digest"]["consistent"]
    assert not record["correct"] and record["failed"] >= 1
