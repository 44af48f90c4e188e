"""One traced pass: the work of a workload's CLI calls, made in-process.

Run as ``python traced.py PLAN.json`` in a fresh process (``src`` and
``tests`` on ``PYTHONPATH``). It calls each lntm module's public functions
in the order the CLI would, writes the same output files, and records a span
(name, start, end, parent) around every call plus counts at the same
boundaries. Top-level ``cli.*`` spans stand for one CLI invocation each and
hold only the calls that invocation makes; the codec timing and the counts
are taken after each ``cli.*`` span has closed.
Spans are kept in memory and written with the derived per-layer metrics to
the plan's ``result`` path when the pass ends.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from bisect import bisect_right
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

from lntm.centrality import betweenness, build_graph, report_from_json, report_to_csv, report_to_json
from lntm.codec import decode_message
from lntm.inequality import (
    gini_trend,
    gini_trend_to_csv,
    lorenz,
    lorenz_to_csv,
    rank_timelines,
    timelines_to_csv,
    top_share,
    top_shares_to_csv,
)
from lntm.manifest import write_manifest
from lntm.replay import replay as replay_feed, routing_view, snapshot_from_json, snapshot_to_json
from lntm.store import deduplicate_and_order, feed_to_records, open_store, write_store

from reference import leaf_count, zero_cluster_nodes


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or None]
        self.counts: dict[str, float] = defaultdict(float)
        self.hashed: list[Path] = []  # every file a manifest hashed, repeats included
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._open[-1] if self._open else None])
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index][2] = time.perf_counter()

    def total(self, name: str) -> float:
        return sum(end - start for n, start, end, _ in self.spans if n == name)


def _span_cost() -> float:
    """Seconds one span adds, measured on a throwaway tracer."""
    probe = Tracer()
    start = time.perf_counter()
    for _ in range(2000):
        with probe.span("probe"):
            pass
    return (time.perf_counter() - start) / 2000


def _ingest(tr: Tracer, archive: str):
    with tr.span("store.read"):
        records = list(open_store(archive))
    with tr.span("store.order"):
        feed = deduplicate_and_order(records)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # one syscall
    tr.counts["store.peak_rss_mb"] = max(tr.counts["store.peak_rss_mb"], rss_mb)
    return feed


def _ingest_counts(tr: Tracer, archive: str, feed) -> None:
    """Codec timing and ingest counts. Called after the enclosing ``cli.*``
    span has closed, because the CLI does none of this work. The archive is
    read again here so that no records stay alive through replay."""
    records = list(open_store(archive))
    with tr.span("codec.decode"):
        for rec in records:
            decode_message(rec.payload)
    tr.counts["codec.messages"] += len(records)
    tr.counts["codec.bytes"] += sum(len(rec.payload) for rec in records)
    tr.counts["store.records"] += len(records)
    tr.counts["store.feed_entries"] += len(feed)


def _manifest(tr: Tracer, path: Path, command: str, inputs, parameters, outputs) -> None:
    with tr.span("manifest.write_manifest"):
        write_manifest(path, command=command, inputs=inputs, parameters=parameters, outputs=outputs)
    tr.hashed += [Path(p) for p in [*inputs, *outputs]]  # sized when the pass ends


def run(plan: dict) -> dict:
    tr = Tracer()
    out = Path(plan["pass_dir"])
    archive = plan["archive"]
    snapshots = []
    for i, as_of in enumerate(plan["instants"]):
        path = out / f"snapshot-{i}.json"
        with tr.span("cli.snapshot"):
            feed = _ingest(tr, archive)
            with tr.span("replay.replay"):
                snap = replay_feed(feed, as_of)
            with tr.span("replay.to_json"):
                text = snapshot_to_json(snap)
            path.write_text(text, encoding="utf-8")
            _manifest(tr, path.with_suffix(".json.manifest.json"), "snapshot", [archive], {"as_of": as_of}, [path])
        _ingest_counts(tr, archive, feed)
        tr.counts["replay.instants"] += 1
        tr.counts["replay.prefix_entries"] += bisect_right([e.effective_ts for e in feed], as_of)
        tr.counts["replay.channels"] += len(snap.channels)
        tr.counts["replay.policies"] += snap.policy_count
        snapshots.append(path)
        del feed, snap

    compacted = out / "compact.gsr"
    with tr.span("cli.compact"):
        feed = _ingest(tr, archive)
        with tr.span("store.write"):
            write_store(compacted, feed_to_records(feed))
        _manifest(tr, Path(f"{compacted}.manifest.json"), "compact", [archive], {}, [compacted])
    _ingest_counts(tr, archive, feed)
    del feed

    for i, path in enumerate(snapshots):
        prefix = out / f"c{i}"
        outputs, graphs = [], []
        with tr.span("cli.centrality"):
            with tr.span("replay.from_json"):
                snap = snapshot_from_json(path.read_text(encoding="utf-8"))
            with tr.span("replay.routing_view"):
                view = routing_view(snap, prune_stale_after=plan["prune_stale_after"])
            tr.counts["replay.arcs"] += len(view.arcs)
            for amount in plan["amounts"]:
                with tr.span("centrality.build_graph"):
                    graph = build_graph(view, amount, enforce_htlc_bounds=plan["enforce_htlc_bounds"])
                with tr.span("centrality.betweenness"):
                    report = betweenness(graph, exact=plan["exact"], processes=plan["threads"])
                with tr.span("centrality.report"):
                    csv_text, json_text = report_to_csv(report), report_to_json(report)
                for suffix, text in (("csv", csv_text), ("json", json_text)):
                    outputs.append(Path(f"{prefix}-centrality-{amount}.{suffix}"))
                    outputs[-1].write_text(text, encoding="utf-8")
                graphs.append(graph)
            _manifest(tr, Path(f"{prefix}-manifest.json"), "centrality", [path], {"amounts_msat": plan["amounts"]}, outputs)
        for graph in graphs:
            _graph_counts(tr, graph)

    prefix = out / "ineq"
    with tr.span("cli.inequality"):
        with tr.span("inequality.stats"):
            reports = [
                (label, report_from_json(Path(p).read_text(encoding="utf-8")))
                for label, p in plan["reports"]
            ]
            labels = [label for label, _ in reports]
            files = {f"{prefix}-gini-trend.csv": gini_trend_to_csv(gini_trend(reports))}
            files[f"{prefix}-top-share.csv"] = top_shares_to_csv(
                [(label, top_share(report, 0.10)) for label, report in reports]
            )
            files[f"{prefix}-rank-timeline.csv"] = timelines_to_csv(
                rank_timelines(reports, k=10, anchor=labels[-1]), labels
            )
            for label, report in reports:
                files[f"{prefix}-lorenz-{label}.csv"] = lorenz_to_csv(lorenz(report))
        for name, text in files.items():
            Path(name).write_text(text, encoding="utf-8")
        _manifest(tr, Path(f"{prefix}-manifest.json"), "inequality", [p for _, p in plan["reports"]], {"labels": labels}, list(files))

    return {"metrics": _metrics(tr), "spans": tr.spans}


def _graph_counts(tr: Tracer, graph) -> None:
    n = len(graph.node_ids)
    tr.counts["centrality.nodes"] += n
    tr.counts["centrality.arcs"] += len(graph.arcs)
    tr.counts["centrality.zero_arcs"] += sum(1 for _, _, w in graph.arcs if w == 0)
    tr.counts["centrality.zero_cluster_nodes"] += zero_cluster_nodes(list(graph.arcs))
    tr.counts["centrality.leaves"] += leaf_count(n, graph.arcs)


def _metrics(tr: Tracer) -> dict[str, float]:
    c = tr.counts
    m = {
        "codec.decode_s": tr.total("codec.decode"),
        "codec.messages": c["codec.messages"],
        "codec.bytes": c["codec.bytes"],
        "store.read_s": tr.total("store.read"),
        "store.order_s": tr.total("store.order"),
        "store.records": c["store.records"],
        "store.feed_entries": c["store.feed_entries"],
        "store.kept_ratio": c["store.feed_entries"] / c["store.records"],
        "store.write_s": tr.total("store.write"),
        "store.peak_rss_mb": c["store.peak_rss_mb"],
        "replay.replay_s": tr.total("replay.replay"),
        "replay.instants": c["replay.instants"],
        "replay.prefix_entries": c["replay.prefix_entries"],
        "replay.channels": c["replay.channels"],
        "replay.policies": c["replay.policies"],
        "replay.routing_view_s": tr.total("replay.routing_view"),
        "replay.arcs": c["replay.arcs"],
        "replay.to_json_s": tr.total("replay.to_json"),
        "replay.from_json_s": tr.total("replay.from_json"),
        "centrality.build_graph_s": tr.total("centrality.build_graph"),
        "centrality.betweenness_s": tr.total("centrality.betweenness"),
        "centrality.per_source_ms": 1000 * tr.total("centrality.betweenness") / c["centrality.nodes"],
        "centrality.nodes": c["centrality.nodes"],
        "centrality.arcs": c["centrality.arcs"],
        "centrality.zero_arcs": c["centrality.zero_arcs"],
        "centrality.zero_cluster_nodes": c["centrality.zero_cluster_nodes"],
        "centrality.leaf_share": c["centrality.leaves"] / c["centrality.nodes"],
        "centrality.report_s": tr.total("centrality.report"),
        "inequality.stats_s": tr.total("inequality.stats"),
        "manifest.sha256_s": tr.total("manifest.write_manifest"),
        "manifest.bytes_hashed": sum(p.stat().st_size for p in tr.hashed),
        "trace.total_s": sum(end - start for name, start, end, _ in tr.spans if name.startswith("cli.")),
    }
    m["trace.overhead_s"] = len(tr.spans) * _span_cost()
    return m


if __name__ == "__main__":
    plan = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    result = run(plan)
    Path(plan["result"]).write_text(json.dumps(result), encoding="utf-8")
