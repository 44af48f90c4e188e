"""Batch command-line pipeline: ingest -> replay -> centrality -> inequality.

All commands are non-interactive and file-based, emit plot-ready data (never
images), and write a reproducibility manifest next to their outputs. The
LNTM_THREADS environment variable caps worker processes; output bytes do
not depend on it.

Each command reads its inputs and computes every result before it writes
anything; then ``_emit`` writes all outputs and the manifest. Every file
goes to a temporary file that is moved into place, so none is ever left
half-written. ``compact`` alone reads while it writes: its output's writer
reads the archive, spills sorted runs beside the output, merges them into
it and removes them however it exits.

Exit codes: 1 when an input cannot be read, parsed or used, a computation
it makes fail included (``_Pipeline``); the message of a document that does
not parse starts with its path. 2 for any OSError inside ``_emit``: an
output that cannot be written, and for ``compact`` a run or an archive
read that fails once writing has started; and for usage errors, such as
an ``--amount-msat`` outside the u64 range or given twice, or a report
label that cannot name a file or a CSV cell.

The centrality and inequality modules are imported only by the commands
that use them, which keeps them out of every other call's startup.
"""

from __future__ import annotations

import math
import os
import sys
from bisect import bisect_right
from pathlib import Path
from typing import TYPE_CHECKING, Callable, TypeVar

import click

from . import __version__
from .codec import U64_MAX
from .manifest import atomic_write, dump_table, manifested, write_document
from .replay import replay, routing_view, snapshot_document, snapshot_from_json
from .store import open_store, write_compacted

if TYPE_CHECKING:
    from .centrality import CentralityReport

# the three transaction sizes used throughout: 0.0001, 0.01 and 0.1 BTC
DEFAULT_AMOUNTS_MSAT = (10_000_000, 1_000_000_000, 10_000_000_000)

TOP_SHARE_FRACTION = 0.10

HISTOGRAM_BINS = 50

T = TypeVar("T")


def _thread_count() -> int:
    raw = os.environ.get("LNTM_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        raise click.UsageError(f"LNTM_THREADS={raw!r} is not an integer")


def _read_document(path: str, parse: Callable[[str], T]) -> T:
    """Parse one input document; a parse error, a non-UTF-8 file included,
    is prefixed with the file's path."""
    try:
        return parse(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _fail(exc: Exception, code: int):
    click.echo(f"error: {exc}", err=True)
    sys.exit(code)


def _emit(
    manifest: Path,
    command: str,
    inputs: list[str],
    parameters: dict,
    files: list[tuple[Path, str | dict | Callable[[Path], object]]],
) -> None:
    """Write every output, each atomically, then the manifest listing them,
    its input digests taken before the first output is written; an OSError
    exits 2. Files moved into place before a failure stay.
    ``files`` pairs each path with its text, with a JSON document, streamed
    in its canonical form, or with a function that writes the file at the
    path it is given."""
    try:
        with manifested(manifest, command, inputs, parameters, [path for path, _ in files]):
            for path, content in files:
                if isinstance(content, str):
                    with atomic_write(path) as fh:
                        fh.write(content)
                elif isinstance(content, dict):
                    write_document(path, content)
                else:
                    content(path)
    except OSError as exc:
        _fail(exc, 2)


class _Pipeline(click.Group):
    """Exits 1 when an input cannot be read (OSError), or is an archive,
    document or computation that cannot be used (ValueError, the one type
    every lntm check raises), and when a betweenness worker dies
    (ChildProcessError, an OSError). An OSError inside ``_emit`` has exited
    2 by then."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except (OSError, ValueError) as exc:
            _fail(exc, 1)


@click.group(cls=_Pipeline)
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
    snap = replay(open_store(store_path), as_of)
    _emit(
        Path(f"{out_path}.manifest.json"),
        "snapshot",
        [store_path],
        {"as_of": as_of},
        [(Path(out_path), snapshot_document(snap))],
    )
    diag = snap.diagnostics
    click.echo(f"as_of {snap.as_of}: {len(snap.nodes)} nodes, {len(snap.channels)} channels, {snap.policy_count} policies")
    click.echo(
        f"dropped: {diag.updates_unknown_channel} updates for unknown channels, "
        f"{diag.orphan_node_announcements} orphan node announcements"
    )


def _histogram_csv(report: CentralityReport) -> str:
    """Log-spaced histogram of the values written as nonzero (zero-valued
    leaves are only dropped here, for plotting; the stored reports keep
    them)."""
    values = sorted(v for v in map(float, report.values.values()) if v > 0)
    rows = []
    if values and values[0] == values[-1]:
        rows = [(values[0], values[-1], len(values))]
    elif values:
        lo, hi = values[0], values[-1]
        log_lo, log_hi = math.log10(lo), math.log10(hi)
        edges = [10 ** (log_lo + i * (log_hi - log_lo) / HISTOGRAM_BINS) for i in range(HISTOGRAM_BINS + 1)]
        edges[0], edges[-1] = lo, hi
        counts = [0] * HISTOGRAM_BINS
        for v in values:
            i = min(max(bisect_right(edges, v) - 1, 0), HISTOGRAM_BINS - 1)
            counts[i] += 1
        rows = zip(edges, edges[1:], counts)
    return dump_table(("bin_low", "bin_high", "count"), rows)


def _distinct_amounts(ctx, param, amounts: tuple[int, ...]) -> tuple[int, ...]:
    """An amount names its three output files, so it may be given once."""
    for i, amount in enumerate(amounts):
        if amount in amounts[:i]:
            raise click.BadParameter(f"amount {amount} is given more than once")
    return amounts


@main.command()
@click.option("--snapshot", "snapshot_path", required=True, type=click.Path(exists=True, dir_okay=False), help="Snapshot JSON produced by the snapshot command.")
@click.option("--amount-msat", "amounts", multiple=True, type=click.IntRange(0, U64_MAX), callback=_distinct_amounts, help="Transaction size in msat (repeatable). Defaults to 10^7, 10^9, 10^10.")
@click.option("--enforce-htlc-bounds", is_flag=True, help="Drop arcs whose htlc_minimum/htlc_maximum exclude the amount.")
@click.option("--prune-stale-after", type=click.IntRange(min=0), default=None, help="Drop arcs whose policy is older than as_of minus this many seconds.")
@click.option("--include-disabled", is_flag=True, help="Keep arcs whose policy is flagged disabled.")
# a no-op: values are always exact; the benchmark still passes it, until ROADMAP item 1
@click.option("--exact", is_flag=True, hidden=True, expose_value=False)
@click.option("--out", "out_prefix", required=True, type=click.Path(), help="Prefix for report files.")
def centrality(
    snapshot_path: str,
    amounts: tuple[int, ...],
    enforce_htlc_bounds: bool,
    prune_stale_after: int | None,
    include_disabled: bool,
    out_prefix: str,
):
    """Fee-weighted betweenness reports, one per transaction amount."""
    from .centrality import betweenness_reports, build_graph, report_document, report_items, report_to_csv

    snap = _read_document(snapshot_path, snapshot_from_json)
    amounts = amounts or DEFAULT_AMOUNTS_MSAT
    processes = _thread_count()
    view = routing_view(
        snap, prune_stale_after=prune_stale_after, include_disabled=include_disabled
    )
    graphs = [build_graph(view, amount, enforce_htlc_bounds=enforce_htlc_bounds) for amount in amounts]
    files = []
    for amount, report in zip(amounts, betweenness_reports(graphs, processes=processes)):
        files += [
            (Path(f"{out_prefix}-centrality-{amount}.csv"), report_to_csv(report)),
            (Path(f"{out_prefix}-centrality-{amount}.json"), report_document(report)),
            (Path(f"{out_prefix}-histogram-{amount}.csv"), _histogram_csv(report)),
        ]
        top = report_items(report)[0] if report.values else None
        top_note = f", top {top[0].hex()[:16]}… = {float(top[1])!r}" if top else ""
        click.echo(
            f"amount {amount} msat: {len(report.values)} nodes, "
            f"{report.leaf_count} zero-valued nodes{top_note}"
        )
    _emit(
        Path(f"{out_prefix}-manifest.json"),
        "centrality",
        [snapshot_path],
        {
            "amounts_msat": list(amounts),
            "enforce_htlc_bounds": enforce_htlc_bounds,
            "prune_stale_after": prune_stale_after,
            "include_disabled": include_disabled,
        },
        files,
    )


def _labeled_reports(ctx, param, entries: tuple[str, ...]) -> list[tuple[str, str]]:
    """Report arguments are PATH or LABEL=PATH; unlabeled ones get T1..Tn.
    A label names output files and CSV cells, so it must be non-empty and
    free of ',', '/', '"' and line breaks."""
    labeled = []
    for i, raw in enumerate(entries, start=1):
        if "=" in raw:
            label, _, path = raw.partition("=")
        else:
            label, path = f"T{i}", raw
        if not label or any(ch in label for ch in ',/"\r\n'):
            raise click.BadParameter(f"label {label!r} is empty or contains ',', '/', '\"' or a line break")
        labeled.append((label, path))
    return labeled


@main.command()
@click.option("--report", "labeled_paths", multiple=True, required=True, callback=_labeled_reports, help="Centrality report JSON, as PATH or LABEL=PATH (repeatable, in time order).")
@click.option("--k", "k", type=click.IntRange(min=1), default=10, show_default=True, help="Number of anchor-snapshot top nodes to trace.")
@click.option("--anchor", type=str, default=None, help="Label of the snapshot whose top-k nodes are traced (default: last).")
@click.option("--rank-cap", type=click.IntRange(min=1), default=None, help="Cap displayed ranks in the timeline matrix (presentation only).")
@click.option("--out", "out_prefix", required=True, type=click.Path(), help="Prefix for inequality files.")
def inequality(
    labeled_paths: list[tuple[str, str]],
    k: int,
    anchor: str | None,
    rank_cap: int | None,
    out_prefix: str,
):
    """Lorenz curves, Gini trend, top-10% shares and rank timelines."""
    from .centrality import report_from_json
    from .inequality import gini_trend, gini_trend_to_csv, lorenz, lorenz_to_csv, rank_timelines, timelines_to_csv, top_share, top_shares_to_csv

    labels = [label for label, _ in labeled_paths]
    reports = [(label, _read_document(path, report_from_json)) for label, path in labeled_paths]
    anchor = anchor if anchor is not None else labels[-1]
    trend = gini_trend(reports)
    shares = [(label, top_share(report, TOP_SHARE_FRACTION)) for label, report in reports]
    timelines = rank_timelines(reports, k=k, anchor=anchor)
    files = [
        (Path(f"{out_prefix}-lorenz-{label}.csv"), lorenz_to_csv(lorenz(report)))
        for label, report in reports
    ]
    files += [
        (Path(f"{out_prefix}-gini-trend.csv"), gini_trend_to_csv(trend)),
        (Path(f"{out_prefix}-top-share.csv"), top_shares_to_csv(shares)),
        (Path(f"{out_prefix}-rank-timeline.csv"), timelines_to_csv(timelines, labels, rank_cap=rank_cap)),
    ]
    _emit(
        Path(f"{out_prefix}-manifest.json"),
        "inequality",
        [path for _, path in labeled_paths],
        {
            "labels": labels,
            "k": k,
            "anchor": anchor,
            "rank_cap": rank_cap,
            "top_share_fraction": TOP_SHARE_FRACTION,
        },
        files,
    )
    for label, gini in trend:
        click.echo(f"{label}: gini {gini!r}")


@main.command()
@click.option("--store", "store_path", required=True, type=click.Path(exists=True, dir_okay=False), help="GSR1 archive or JSON-lines debug file.")
@click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False), help="Compacted GSR1 output path.")
def compact(store_path: str, out_path: str):
    """Rewrite an archive as its deduplicated, time-ordered equivalent, in
    bounded memory: sorted runs are spilled beside the output and merged."""
    records = open_store(store_path)
    written = []
    _emit(
        Path(f"{out_path}.manifest.json"),
        "compact",
        [store_path],
        {},
        [(Path(out_path), lambda path: written.append(write_compacted(path, records)))],
    )
    click.echo(f"wrote {written[0]} records")


if __name__ == "__main__":
    main()
