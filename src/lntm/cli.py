"""Batch command-line pipeline: ingest -> replay -> centrality -> inequality.

All commands are non-interactive and file-based, emit plot-ready data (never
images), and write a reproducibility manifest next to their outputs. The
LNTM_THREADS environment variable caps worker processes; output bytes do
not depend on it. The command line is parsed with the standard library's
argparse, so lntm has no runtime dependency.

Each command reads its inputs and computes every result before it writes
anything; then ``_emit`` writes all outputs and the manifest. Every file
goes to a temporary file that is moved into place, so none is ever left
half-written. ``compact`` alone reads while it writes: its output's writer
reads the archive, spills sorted runs beside the output, merges them into
it and removes them however it exits.

Exit codes: 1 when an input cannot be read, parsed or used, a computation
it makes fail included (the one ``try`` in ``main``); the message of a
document that does not parse starts with its path. 2 for any OSError inside
``_emit``: an output that cannot be written, and for ``compact`` a run or an
archive read that fails once writing has started; and for usage errors,
which print the command's ``usage:`` line: a missing option, a ``--store``
or ``--snapshot`` that is not a readable file, an ``--out`` of ``snapshot``
or ``compact`` that is a directory, an ``--amount-msat`` outside the u64
range or given twice, a bad LNTM_THREADS, or a report label that cannot
name a file or a CSV cell.

The replay, centrality and inequality modules are imported only by the
commands that use them, which keeps them out of every other call's
startup: ``compact`` and ``--version`` load none of them.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from bisect import bisect_right
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Optional, TypeVar

from . import __version__
from .codec import U64_MAX
from .manifest import atomic_write, dump_table, manifested, write_document
from .store import open_store, write_compacted

if TYPE_CHECKING:
    from .centrality import CentralityReport

# the three transaction sizes used throughout: 0.0001, 0.01 and 0.1 BTC
DEFAULT_AMOUNTS_MSAT = (10_000_000, 1_000_000_000, 10_000_000_000)

TOP_SHARE_FRACTION = 0.10

HISTOGRAM_BINS = 50

T = TypeVar("T")


def _thread_count() -> int:
    """LNTM_THREADS, at least 1; one that is not an integer is a usage
    error."""
    raw = os.environ.get("LNTM_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        raise argparse.ArgumentError(None, f"LNTM_THREADS={raw!r} is not an integer")


def _read_document(path: str, parse: Callable[[str], T]) -> T:
    """Parse one input document; a parse error, a non-UTF-8 file included,
    is prefixed with the file's path."""
    try:
        return parse(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _fail(exc: Exception, code: int):
    print(f"error: {exc}", file=sys.stderr)
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


def snapshot(args: argparse.Namespace):
    """Replay an archive up to an instant and write the network snapshot."""
    from .replay import replay, snapshot_document

    snap = replay(open_store(args.store), args.at)
    _emit(
        Path(f"{args.out}.manifest.json"),
        "snapshot",
        [args.store],
        {"as_of": args.at},
        [(Path(args.out), snapshot_document(snap))],
    )
    diag = snap.diagnostics
    print(f"as_of {snap.as_of}: {len(snap.nodes)} nodes, {len(snap.channels)} channels, {snap.policy_count} policies")
    print(
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


def centrality(args: argparse.Namespace):
    """Fee-weighted betweenness reports, one per transaction amount."""
    from .centrality import betweenness_reports, build_graph, report_document, report_items, report_to_csv
    from .replay import routing_view, snapshot_from_json

    # an amount names its three output files, so it may be given once
    amounts = args.amount_msat or DEFAULT_AMOUNTS_MSAT
    for i, amount in enumerate(amounts):
        if amount in amounts[:i]:
            raise argparse.ArgumentError(None, f"argument --amount-msat: amount {amount} is given more than once")
    snap = _read_document(args.snapshot, snapshot_from_json)
    processes = _thread_count()
    view = routing_view(
        snap, prune_stale_after=args.prune_stale_after, include_disabled=args.include_disabled
    )
    graphs = [build_graph(view, amount, enforce_htlc_bounds=args.enforce_htlc_bounds) for amount in amounts]
    files = []
    for amount, report in zip(amounts, betweenness_reports(graphs, processes=processes)):
        files += [
            (Path(f"{args.out}-centrality-{amount}.csv"), report_to_csv(report)),
            (Path(f"{args.out}-centrality-{amount}.json"), report_document(report)),
            (Path(f"{args.out}-histogram-{amount}.csv"), _histogram_csv(report)),
        ]
        top = report_items(report)[0] if report.values else None
        top_note = f", top {top[0].hex()[:16]}… = {float(top[1])!r}" if top else ""
        print(
            f"amount {amount} msat: {len(report.values)} nodes, "
            f"{report.leaf_count} zero-valued nodes{top_note}"
        )
    _emit(
        Path(f"{args.out}-manifest.json"),
        "centrality",
        [args.snapshot],
        {
            "amounts_msat": list(amounts),
            "enforce_htlc_bounds": args.enforce_htlc_bounds,
            "prune_stale_after": args.prune_stale_after,
            "include_disabled": args.include_disabled,
        },
        files,
    )


def inequality(args: argparse.Namespace):
    """Lorenz curves, Gini trend, top-10% shares and rank timelines."""
    from .centrality import report_from_json
    from .inequality import concentration, gini_trend_to_csv, lorenz_to_csv, rank_timelines, timelines_to_csv, top_shares_to_csv

    # an unlabeled report is T<its position>
    labeled_paths = [(label or f"T{i}", path) for i, (label, path) in enumerate(args.report, start=1)]
    labels = [label for label, _ in labeled_paths]
    reports = [(label, _read_document(path, report_from_json)) for label, path in labeled_paths]
    anchor = args.anchor if args.anchor is not None else labels[-1]
    stats = [(label, concentration(report, TOP_SHARE_FRACTION)) for label, report in reports]
    trend = [(label, series.gini) for label, (series, _) in stats]
    timelines = rank_timelines(reports, k=args.k, anchor=anchor)
    files = [(Path(f"{args.out}-lorenz-{label}.csv"), lorenz_to_csv(series)) for label, (series, _) in stats]
    files += [
        (Path(f"{args.out}-gini-trend.csv"), gini_trend_to_csv(trend)),
        (Path(f"{args.out}-top-share.csv"), top_shares_to_csv([(label, share) for label, (_, share) in stats])),
        (Path(f"{args.out}-rank-timeline.csv"), timelines_to_csv(timelines, labels, rank_cap=args.rank_cap)),
    ]
    _emit(
        Path(f"{args.out}-manifest.json"),
        "inequality",
        [path for _, path in labeled_paths],
        {
            "labels": labels,
            "k": args.k,
            "anchor": anchor,
            "rank_cap": args.rank_cap,
            "top_share_fraction": TOP_SHARE_FRACTION,
        },
        files,
    )
    for label, gini in trend:
        print(f"{label}: gini {gini!r}")


def compact(args: argparse.Namespace):
    """Rewrite an archive as its deduplicated, time-ordered equivalent, in
    bounded memory: sorted runs are spilled beside the output and merged."""
    records = open_store(args.store)
    written = []
    _emit(
        Path(f"{args.out}.manifest.json"),
        "compact",
        [args.store],
        {},
        [(Path(args.out), lambda path: written.append(write_compacted(path, records)))],
    )
    print(f"wrote {written[0]} records")


def _file_path(path: str) -> str:
    """A file path, output or input: not a directory."""
    if os.path.isdir(path):
        raise argparse.ArgumentTypeError(f"{path!r} is a directory")
    return path


def _input_file(path: str) -> str:
    """An input document or archive: a readable file that exists."""
    if not os.path.exists(path):
        raise argparse.ArgumentTypeError(f"{path!r} does not exist")
    if not os.access(_file_path(path), os.R_OK):
        raise argparse.ArgumentTypeError(f"{path!r} is not readable")
    return path


def _int_in(low: int, high: Optional[int] = None) -> Callable[[str], int]:
    """An integer option that must lie in [low, high]."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"{value} is below {low}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"{value} is above {high}")
        return value

    return parse


def _labeled_report(raw: str) -> tuple[Optional[str], str]:
    """A --report, PATH or LABEL=PATH. A label names output files and CSV
    cells, so it must be non-empty and free of ',', '/', '"' and line
    breaks."""
    if "=" not in raw:
        return None, raw
    label, _, path = raw.partition("=")
    if not label or any(ch in label for ch in ',/"\r\n'):
        raise argparse.ArgumentTypeError(f"label {label!r} is empty or contains ',', '/', '\"' or a line break")
    return label, path


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lntm",
        description="Reconstruct past payment-channel-network states from archived gossip and measure routing centralization.",
        allow_abbrev=False,
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s, version {__version__}")
    commands = parser.add_subparsers(metavar="COMMAND", required=True)

    def command(run: Callable[[argparse.Namespace], None]) -> argparse.ArgumentParser:
        # argparse %-formats help, not descriptions
        sub = commands.add_parser(run.__name__, help=run.__doc__.replace("%", "%%"), description=run.__doc__, allow_abbrev=False)
        sub.set_defaults(run=run, parser=sub)
        return sub

    sub = command(snapshot)
    sub.add_argument("--store", required=True, type=_input_file, metavar="PATH", help="GSR1 archive or JSON-lines debug file.")
    sub.add_argument("--at", required=True, type=int, metavar="SECONDS", help="Query instant (Unix seconds, inclusive).")
    sub.add_argument("--out", required=True, type=_file_path, metavar="PATH", help="Snapshot JSON output path.")

    sub = command(centrality)
    sub.add_argument("--snapshot", required=True, type=_input_file, metavar="PATH", help="Snapshot JSON produced by the snapshot command.")
    sub.add_argument("--amount-msat", action="append", type=_int_in(0, U64_MAX), metavar="MSAT", help="Transaction size in msat (repeatable). Defaults to 10^7, 10^9, 10^10.")
    sub.add_argument("--enforce-htlc-bounds", action="store_true", help="Drop arcs whose htlc_minimum/htlc_maximum exclude the amount.")
    sub.add_argument("--prune-stale-after", type=_int_in(0), metavar="SECONDS", help="Drop arcs whose policy is older than as_of minus this many seconds.")
    sub.add_argument("--include-disabled", action="store_true", help="Keep arcs whose policy is flagged disabled.")
    # a no-op: values are always exact; the benchmark still passes it, until ROADMAP item 1
    sub.add_argument("--exact", action="store_true", help=argparse.SUPPRESS)
    sub.add_argument("--out", required=True, metavar="PREFIX", help="Prefix for report files.")

    sub = command(inequality)
    sub.add_argument("--report", action="append", required=True, type=_labeled_report, metavar="[LABEL=]PATH", help="Centrality report JSON (repeatable, in time order); unlabeled ones are T1..Tn.")
    sub.add_argument("--k", type=_int_in(1), default=10, help="Number of anchor-snapshot top nodes to trace (default: %(default)s).")
    sub.add_argument("--anchor", metavar="LABEL", help="Label of the snapshot whose top-k nodes are traced (default: last).")
    sub.add_argument("--rank-cap", type=_int_in(1), metavar="RANK", help="Cap displayed ranks in the timeline matrix (presentation only).")
    sub.add_argument("--out", required=True, metavar="PREFIX", help="Prefix for inequality files.")

    sub = command(compact)
    sub.add_argument("--store", required=True, type=_input_file, metavar="PATH", help="GSR1 archive or JSON-lines debug file.")
    sub.add_argument("--out", required=True, type=_file_path, metavar="PATH", help="Compacted GSR1 output path.")
    return parser


def main(argv: Optional[list[str]] = None) -> None:
    """Run one command. An input that cannot be read (OSError), or is an
    archive, document or computation that cannot be used (ValueError, the
    one type every lntm check raises), exits 1, as does a betweenness worker
    that dies (ChildProcessError, an OSError); an OSError inside ``_emit``
    has exited 2 by then. Usage errors exit 2."""
    args = _parser().parse_args(argv)
    try:
        args.run(args)
    except argparse.ArgumentError as exc:
        args.parser.error(str(exc))
    except (OSError, ValueError) as exc:
        _fail(exc, 1)


if __name__ == "__main__":
    main()
