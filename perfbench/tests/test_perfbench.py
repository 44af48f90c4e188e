"""Checks of the benchmark's own parts: run with
``python -m pytest perfbench/tests`` from the repository root."""

import random
import statistics
from types import SimpleNamespace

import pytest

import brandes
import corpus
import reference
from lntm.centrality import WeightedDigraph, betweenness, brute_force_betweenness, build_graph
from lntm.replay import replay, routing_view, snapshot_to_json
from lntm.store import deduplicate_and_order, feed_to_records, open_store, write_store
from workloads import TWO_WEEKS_S, WORKLOADS

SMALL = corpus.CorpusSpec(nodes=80, update_versions=4, node_versions=3, orphan_nodes=4)


def _small(seed=7):
    return corpus.generate(SMALL, seed, salt="test")


def test_same_seed_same_archive_bytes(tmp_path):
    a, b, c = tmp_path / "a.gsr", tmp_path / "b.gsr", tmp_path / "c.gsr"
    corpus.write_archive(a, _small(7))
    corpus.write_archive(b, _small(7))
    corpus.write_archive(c, _small(8))
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_census(name):
    w = WORKLOADS[name]
    records = corpus.generate(w.corpus, 1, salt=name)
    entries = reference.feed(records)
    c = reference.census(records, entries)
    assert set(c["records_by_type"]) == {"channel_announcement", "node_announcement", "channel_update"}
    assert 0.02 < c["duplicate_share"] < 0.1
    assert 0.01 < c["clone_share"] < 0.1
    assert c["updates_for_unannounced_channels"] > 0
    assert c["updates_per_direction"] > (20 if name == "history" else 1.5)
    doc = reference.snapshot_doc(entries, w.instants[-1])
    assert doc["diagnostics"]["updates_unknown_channel"] > 0
    assert doc["diagnostics"]["orphan_node_announcements"] > 0
    assert abs(doc["node_count"] - w.corpus.nodes) <= 1
    pairs = [tuple(sorted((ch["node1"], ch["node2"]))) for ch in doc["channels"]]
    assert len(set(pairs)) < len(pairs)  # parallel channels
    policies = [p for ch in doc["channels"] for p in ch["policies"] if p]
    assert any(p["disabled"] for p in policies)
    assert any(p["htlc_maximum_msat"] for p in policies)
    assert any(p["last_update_ts"] < doc["as_of"] - TWO_WEEKS_S for p in policies)
    g = reference.routing_graph(doc, w.amounts[0])
    assert 0.3 < reference.leaf_count(len(g.nodes), g.arcs) / len(g.nodes) < 0.5
    assert reference.zero_cluster_nodes(g.arcs) >= 3 * corpus.ZERO_GROUPS


def test_reference_matches_program(tmp_path):
    records = _small()
    archive = tmp_path / "a.gsr"
    corpus.write_archive(archive, records)
    feed = deduplicate_and_order(open_store(archive))
    entries = reference.feed(records)
    out = tmp_path / "c.gsr"
    write_store(out, feed_to_records(feed))
    assert out.read_bytes() == reference.compact_bytes(entries)
    for as_of in (corpus.START_TS + corpus.SPAN_S // 2, corpus.END_TS):
        snap = replay(feed, as_of)
        doc = reference.snapshot_doc(entries, as_of)
        assert snapshot_to_json(snap).encode() == reference.canonical_json(doc)
        view = routing_view(snap, prune_stale_after=TWO_WEEKS_S)
        for amount in (10_000_000, 10_000_000_000):
            graph = build_graph(view, amount, enforce_htlc_bounds=True)
            g = reference.routing_graph(doc, amount, TWO_WEEKS_S, enforce_htlc_bounds=True)
            assert [bytes.fromhex(n) for n in g.nodes] == list(graph.node_ids)
            assert g.arcs == list(graph.arcs)
            want = betweenness(graph, exact=True).values
            got = brandes.betweenness(len(g.nodes), g.arcs, block=16)
            for i, node in enumerate(graph.node_ids):
                assert got[i] == pytest.approx(float(want[node]), rel=1e-12, abs=1e-12)


def test_brandes_matches_brute_force_with_zero_fee_cycles():
    rng = random.Random(3)
    for _ in range(200):
        n = rng.randrange(2, 9)
        arcs = sorted(
            (u, v, 0 if rng.random() < 0.5 else rng.randrange(1, 4))
            for u in range(n) for v in range(n) if u != v and rng.random() < 0.4
        )
        ids = tuple(bytes([2]) + i.to_bytes(32, "big") for i in range(n))
        want = brute_force_betweenness(WeightedDigraph(ids, tuple(arcs))).values
        got = brandes.betweenness(n, arcs, block=rng.choice((1, 4, 128)))
        for i in range(n):
            assert got[i] == pytest.approx(float(want[ids[i]]), rel=1e-12, abs=1e-12)


def test_metric_names_match_benchmark_json(tmp_path):
    import json

    import run
    import traced

    spec = json.loads((run.BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    archive = tmp_path / "a.gsr"
    corpus.write_archive(archive, _small())
    plan = {
        "archive": str(archive),
        "pass_dir": str(tmp_path),
        "instants": [corpus.END_TS],
        "amounts": [10_000_000],
        "exact": False,
        "enforce_htlc_bounds": False,
        "prune_stale_after": None,
        "threads": 1,
        "reports": [("A", str(tmp_path / "c0-centrality-10000000.json"))],
    }
    metrics = traced.run(plan)["metrics"]
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: run.per_layer_unit(name) for name in metrics
    }


def test_call_times_scale_by_the_nearest_calibration_runs():
    import run

    bench = SimpleNamespace(calibration=[0.1, 0.2, 0.4, 0.4, 0.8, 1.6])
    # a call with mark 3 ran between calibration runs 2 and 3
    want = run.REFERENCE_S / statistics.mean([0.2, 0.4, 0.4, 0.8])
    assert run.Bench.scale(bench, 1.0, 3) == pytest.approx(want)
    assert run.Bench.scale(bench, 2.0, 0) == pytest.approx(2 * run.REFERENCE_S / 0.15)
    assert run.Bench.scale(SimpleNamespace(calibration=[]), 2.0, 0) == 2.0
