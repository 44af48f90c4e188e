"""Batch command-line pipeline: ingest -> replay -> centrality -> inequality.

All commands are non-interactive and file-based, emit plot-ready data (never
images), and write a reproducibility manifest next to their outputs. The
LNTM_THREADS environment variable caps worker processes; output bytes do
not depend on it. Every output file is written to a temporary file and
moved into place, so a failed command never leaves a partial one.

Exit codes: 1 for unreadable/unparseable inputs, 2 for write failures and
for usage errors such as an ``--amount-msat`` outside the u64 range.
"""

from __future__ import annotations

import math
import os
import sys
from bisect import bisect_right
from pathlib import Path

import click

from . import __version__
from .centrality import (
    U64_MAX,
    CentralityError,
    CentralityReport,
    ReportFormatError,
    betweenness,
    build_graph,
    report_from_json,
    report_items,
    report_to_csv,
    report_to_json,
)
from .inequality import (
    EmptyReportError,
    UnknownAnchorError,
    gini_trend,
    gini_trend_to_csv,
    lorenz,
    lorenz_to_csv,
    rank_timelines,
    timelines_to_csv,
    top_share,
    top_shares_to_csv,
)
from .manifest import atomic_write, write_manifest
from .replay import (
    SnapshotFormatError,
    replay,
    routing_view,
    snapshot_from_json,
    snapshot_to_json,
)
from .store import StoreError, deduplicate_and_order, feed_to_records, open_store, write_store

# the three transaction sizes used throughout: 0.0001, 0.01 and 0.1 BTC
DEFAULT_AMOUNTS_MSAT = (10_000_000, 1_000_000_000, 10_000_000_000)

TOP_SHARE_FRACTION = 0.10

HISTOGRAM_BINS = 50


def _thread_count() -> int:
    raw = os.environ.get("LNTM_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        raise click.UsageError(f"LNTM_THREADS={raw!r} is not an integer")


def _fail(exc: Exception, code: int):
    click.echo(f"error: {exc}", err=True)
    sys.exit(code)


def _write_text(path: Path, text: str) -> None:
    try:
        with atomic_write(path) as fh:
            fh.write(text)
    except OSError as exc:
        _fail(exc, 2)


def _write_manifest(path: Path, **fields) -> None:
    try:
        write_manifest(path, **fields)
    except OSError as exc:
        _fail(exc, 2)


@click.group()
@click.version_option(version=__version__, prog_name="lntm")
def main():
    """Reconstruct past payment-channel-network states from archived gossip
    and measure routing centralization."""


@main.command()
@click.option("--store", "store_path", required=True, type=click.Path(exists=True, dir_okay=False), help="GSR1 archive or JSON-lines debug file.")
@click.option("--at", "as_of", required=True, type=int, help="Query instant (Unix seconds, inclusive).")
@click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False), help="Snapshot JSON output path.")
def snapshot(store_path: str, as_of: int, out_path: str):
    """Replay an archive up to an instant and write the network snapshot."""
    try:
        snap = replay(open_store(store_path), as_of)
    except StoreError as exc:
        _fail(exc, 1)
    out = Path(out_path)
    _write_text(out, snapshot_to_json(snap))
    _write_manifest(
        out.with_suffix(out.suffix + ".manifest.json"),
        command="snapshot",
        inputs=[store_path],
        parameters={"as_of": as_of},
        outputs=[out],
    )
    diag = snap.diagnostics
    click.echo(f"as_of {snap.as_of}: {len(snap.nodes)} nodes, {len(snap.channels)} channels, {snap.policy_count} policies")
    click.echo(
        f"dropped: {diag.updates_unknown_channel} updates for unknown channels, "
        f"{diag.orphan_node_announcements} orphan node announcements"
    )


def _histogram_csv(report: CentralityReport) -> str:
    """Log-spaced histogram of nonzero values (zero-valued leaves are only
    dropped here, for plotting; the stored reports keep them)."""
    values = sorted(float(v) for v in report.values.values() if v > 0)
    lines = ["bin_low,bin_high,count"]
    if not values:
        return "\n".join(lines) + "\n"
    lo, hi = values[0], values[-1]
    if lo == hi:
        lines.append(f"{lo!r},{hi!r},{len(values)}")
        return "\n".join(lines) + "\n"
    log_lo, log_hi = math.log10(lo), math.log10(hi)
    edges = [10 ** (log_lo + i * (log_hi - log_lo) / HISTOGRAM_BINS) for i in range(HISTOGRAM_BINS + 1)]
    edges[0], edges[-1] = lo, hi
    counts = [0] * HISTOGRAM_BINS
    for v in values:
        i = min(max(bisect_right(edges, v) - 1, 0), HISTOGRAM_BINS - 1)
        counts[i] += 1
    for i in range(HISTOGRAM_BINS):
        lines.append(f"{edges[i]!r},{edges[i + 1]!r},{counts[i]}")
    return "\n".join(lines) + "\n"


@main.command()
@click.option("--snapshot", "snapshot_path", required=True, type=click.Path(exists=True, dir_okay=False), help="Snapshot JSON produced by the snapshot command.")
@click.option("--amount-msat", "amounts", multiple=True, type=click.IntRange(0, U64_MAX), help="Transaction size in msat (repeatable). Defaults to 10^7, 10^9, 10^10.")
@click.option("--enforce-htlc-bounds", is_flag=True, help="Drop arcs whose htlc_minimum/htlc_maximum exclude the amount.")
@click.option("--prune-stale-after", type=int, default=None, help="Drop arcs whose policy is older than as_of minus this many seconds.")
@click.option("--include-disabled", is_flag=True, help="Keep arcs whose policy is flagged disabled.")
@click.option("--exact", is_flag=True, help="Accumulate betweenness in exact rational arithmetic.")
@click.option("--out", "out_prefix", required=True, type=click.Path(), help="Prefix for report files.")
def centrality(
    snapshot_path: str,
    amounts: tuple[int, ...],
    enforce_htlc_bounds: bool,
    prune_stale_after: int | None,
    include_disabled: bool,
    exact: bool,
    out_prefix: str,
):
    """Fee-weighted betweenness reports, one per transaction amount."""
    try:
        snap = snapshot_from_json(Path(snapshot_path).read_text(encoding="utf-8"))
    except (OSError, SnapshotFormatError) as exc:
        _fail(exc, 1)
    amounts = amounts or DEFAULT_AMOUNTS_MSAT
    processes = _thread_count()
    view = routing_view(
        snap, prune_stale_after=prune_stale_after, include_disabled=include_disabled
    )
    outputs = []
    for amount in amounts:
        try:
            graph = build_graph(view, amount, enforce_htlc_bounds=enforce_htlc_bounds)
            report = betweenness(graph, exact=exact, processes=processes)
        except CentralityError as exc:
            _fail(exc, 1)
        csv_path = Path(f"{out_prefix}-centrality-{amount}.csv")
        json_path = Path(f"{out_prefix}-centrality-{amount}.json")
        hist_path = Path(f"{out_prefix}-histogram-{amount}.csv")
        _write_text(csv_path, report_to_csv(report))
        _write_text(json_path, report_to_json(report))
        _write_text(hist_path, _histogram_csv(report))
        outputs += [csv_path, json_path, hist_path]
        top = report_items(report)[0] if report.values else None
        top_note = f", top {top[0].hex()[:16]}… = {float(top[1])!r}" if top else ""
        click.echo(
            f"amount {amount} msat: {len(report.values)} nodes, "
            f"{report.leaf_count} zero-valued nodes{top_note}"
        )
    _write_manifest(
        Path(f"{out_prefix}-manifest.json"),
        command="centrality",
        inputs=[snapshot_path],
        parameters={
            "amounts_msat": list(amounts),
            "enforce_htlc_bounds": enforce_htlc_bounds,
            "prune_stale_after": prune_stale_after,
            "include_disabled": include_disabled,
            "exact": exact,
        },
        outputs=outputs,
    )


def _parse_labeled_reports(entries: tuple[str, ...]) -> list[tuple[str, str]]:
    """Report arguments are PATH or LABEL=PATH; unlabeled ones get T1..Tn."""
    labeled = []
    for i, raw in enumerate(entries, start=1):
        if "=" in raw:
            label, _, path = raw.partition("=")
        else:
            label, path = f"T{i}", raw
        labeled.append((label, path))
    return labeled


@main.command()
@click.option("--report", "report_specs", multiple=True, required=True, help="Centrality report JSON, as PATH or LABEL=PATH (repeatable, in time order).")
@click.option("--k", "k", type=int, default=10, show_default=True, help="Number of anchor-snapshot top nodes to trace.")
@click.option("--anchor", type=str, default=None, help="Label of the snapshot whose top-k nodes are traced (default: last).")
@click.option("--rank-cap", type=int, default=None, help="Cap displayed ranks in the timeline matrix (presentation only).")
@click.option("--out", "out_prefix", required=True, type=click.Path(), help="Prefix for inequality files.")
def inequality(
    report_specs: tuple[str, ...],
    k: int,
    anchor: str | None,
    rank_cap: int | None,
    out_prefix: str,
):
    """Lorenz curves, Gini trend, top-10% shares and rank timelines."""
    labeled_paths = _parse_labeled_reports(report_specs)
    labels = [label for label, _ in labeled_paths]
    if len(set(labels)) != len(labels):
        _fail(ValueError(f"duplicate labels in {labels}"), 1)
    reports = []
    for label, path in labeled_paths:
        try:
            reports.append((label, report_from_json(Path(path).read_text(encoding="utf-8"))))
        except (OSError, ReportFormatError) as exc:
            _fail(exc, 1)
    anchor = anchor if anchor is not None else labels[-1]

    outputs = []
    try:
        trend = gini_trend(reports)
        shares = [(label, top_share(report, TOP_SHARE_FRACTION)) for label, report in reports]
        timelines = rank_timelines(reports, k=k, anchor=anchor)
        for label, report in reports:
            path = Path(f"{out_prefix}-lorenz-{label}.csv")
            _write_text(path, lorenz_to_csv(lorenz(report)))
            outputs.append(path)
    except (EmptyReportError, UnknownAnchorError, ValueError) as exc:
        _fail(exc, 1)

    trend_path = Path(f"{out_prefix}-gini-trend.csv")
    shares_path = Path(f"{out_prefix}-top-share.csv")
    timeline_path = Path(f"{out_prefix}-rank-timeline.csv")
    _write_text(trend_path, gini_trend_to_csv(trend))
    _write_text(shares_path, top_shares_to_csv(shares))
    _write_text(timeline_path, timelines_to_csv(timelines, labels, rank_cap=rank_cap))
    outputs += [trend_path, shares_path, timeline_path]
    _write_manifest(
        Path(f"{out_prefix}-manifest.json"),
        command="inequality",
        inputs=[path for _, path in labeled_paths],
        parameters={
            "labels": labels,
            "k": k,
            "anchor": anchor,
            "rank_cap": rank_cap,
            "top_share_fraction": TOP_SHARE_FRACTION,
        },
        outputs=outputs,
    )
    for label, gini in trend:
        click.echo(f"{label}: gini {gini!r}")


@main.command()
@click.option("--store", "store_path", required=True, type=click.Path(exists=True, dir_okay=False), help="GSR1 archive or JSON-lines debug file.")
@click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False), help="Compacted GSR1 output path.")
def compact(store_path: str, out_path: str):
    """Rewrite an archive as its deduplicated, time-ordered equivalent."""
    try:
        feed = deduplicate_and_order(open_store(store_path))
    except StoreError as exc:
        _fail(exc, 1)
    try:
        count = write_store(out_path, feed_to_records(feed))
    except OSError as exc:
        _fail(exc, 2)
    _write_manifest(
        Path(out_path + ".manifest.json"),
        command="compact",
        inputs=[store_path],
        parameters={},
        outputs=[out_path],
    )
    click.echo(f"wrote {count} records")


if __name__ == "__main__":
    main()
