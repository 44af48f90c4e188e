"""Lorenz curves, Gini coefficients, top-share stats and rank timelines.

Zero-valued leaf nodes count as population members here; any
leaf-exclusion for plotting readability belongs to the plot emitters, not
to the statistics. The Gini coefficient is one minus twice the trapezoidal
area under the piecewise-linear Lorenz curve, with no small-sample
correction. These and the top shares are taken exactly from the written
(float) values and rounded once: every Lorenz share, the Gini and every top
share are the floats nearest their exact values.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate, islice
from typing import NamedTuple, Optional, Sequence

from .codec import NodeId
from .centrality import CentralityReport, report_items
from .manifest import dump_table


class LorenzSeries(NamedTuple):
    """Cumulative value share against cumulative population share.

    ``points`` runs from (0, 0) to (1, 1) over all nodes sorted ascending
    by value; a zero-total report degenerates to the equality diagonal.
    """

    points: tuple[tuple[float, float], ...]
    gini: float


class TopShare(NamedTuple):
    fraction: float
    share: float
    degenerate: bool = False  # total was zero; share reported as 1.0


class RankTimeline(NamedTuple):
    node: NodeId
    ranks: dict[str, int]  # snapshot label -> rank (1 = top); absent if missing


def _running_sums(report: CentralityReport) -> list[int]:
    """Exact running sums of the written values in ascending order, from 0,
    all scaled by the values' largest denominator (a power of two): entry i
    sums the i smallest. Every statistic is a ratio of these sums, so the
    scale cancels."""
    if not report.values:
        raise ValueError("no nodes in report")
    ratios = [v.as_integer_ratio() for v in sorted(float(v) for v in report.values.values())]
    scale = max(den for _, den in ratios)
    return list(accumulate((num * (scale // den) for num, den in ratios), initial=0))


def _lorenz(running: list[int]) -> LorenzSeries:
    n, total = len(running) - 1, running[-1]
    if total == 0:
        points = tuple((i / n, i / n) for i in range(n + 1))
        return LorenzSeries(points=points, gini=0.0)
    # each share is the float nearest its exact value (an int / int true
    # division rounds correctly), so the curve ends at (1, 1)
    points = tuple((i / n, r / total) for i, r in enumerate(running))
    # the trapezoids under the exact curve sum to (2 * sum(running) - total)
    # / (n * total), so the Gini is the float nearest one minus that
    gini = (n * total - 2 * sum(running) + total) / (n * total)
    return LorenzSeries(points=points, gini=gini)


def _top_share(running: list[int], fraction: float) -> TopShare:
    if not 0 < fraction <= 1:
        raise ValueError(f"fraction {fraction} outside (0, 1]")
    n, total = len(running) - 1, running[-1]
    # exact ceil: 0.07 * 100 must select 7 nodes, not 8
    k = math.ceil(Fraction(fraction).limit_denominator(10**9) * n)
    k = min(max(k, 1), n)
    if total == 0:
        return TopShare(fraction=fraction, share=1.0, degenerate=True)
    # the top k hold the total less the n - k smallest
    return TopShare(fraction=fraction, share=(total - running[n - k]) / total)


def lorenz(report: CentralityReport) -> LorenzSeries:
    """Lorenz curve and Gini coefficient over every node of the report."""
    return _lorenz(_running_sums(report))


def top_share(report: CentralityReport, fraction: float) -> TopShare:
    """Share of total value held by the top ceil(fraction * n) nodes: the
    float nearest the exact share of their written values."""
    return _top_share(_running_sums(report), fraction)


def concentration(report: CentralityReport, fraction: float) -> tuple[LorenzSeries, TopShare]:
    """``lorenz(report)`` and ``top_share(report, fraction)`` from one sort
    of the report's values."""
    running = _running_sums(report)
    return _lorenz(running), _top_share(running, fraction)


def snapshot_ranks(report: CentralityReport) -> dict[NodeId, int]:
    """Dense ranks 1..n by descending value, ties broken by node id."""
    return {node_id: i for i, (node_id, _) in enumerate(report_items(report), 1)}


def rank_timelines(
    reports: Sequence[tuple[str, CentralityReport]],
    k: int,
    anchor: str,
) -> list[RankTimeline]:
    """Track the anchor snapshot's top-k nodes across every snapshot.

    A node absent from some snapshot simply has no rank there. Any display
    capping (plots often cap deep ranks) is left to the emitters; stored
    ranks are never altered.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    labels = [label for label, _ in reports]
    if len(set(labels)) != len(labels):
        raise ValueError(f"duplicate snapshot labels in {labels}")
    if anchor not in labels:
        raise ValueError(f"anchor {anchor!r} not among labels {labels}")
    ranks_by_label = {label: snapshot_ranks(report) for label, report in reports}
    # a snapshot's ranks are listed top first
    return [
        RankTimeline(
            node=node_id,
            ranks={label: ranks[node_id] for label, ranks in ranks_by_label.items() if node_id in ranks},
        )
        for node_id in islice(ranks_by_label[anchor], k)
    ]


def gini_trend(
    reports: Sequence[tuple[str, CentralityReport]],
) -> list[tuple[str, float]]:
    """Gini coefficient per labeled report, in label order."""
    return [(label, lorenz(report).gini) for label, report in reports]


# ---------------------------------------------------------------------------
# plot-ready CSV emitters
# ---------------------------------------------------------------------------


def lorenz_to_csv(series: LorenzSeries) -> str:
    return dump_table(("population_fraction", "cumulative_share"), series.points)


def gini_trend_to_csv(trend: Sequence[tuple[str, float]]) -> str:
    return dump_table(("label", "gini"), trend)


def top_shares_to_csv(shares: Sequence[tuple[str, TopShare]]) -> str:
    return dump_table(
        ("label", "fraction", "share", "degenerate"),
        ((label, ts.fraction, ts.share, int(ts.degenerate)) for label, ts in shares),
    )


def timelines_to_csv(
    timelines: Sequence[RankTimeline],
    labels: Sequence[str],
    rank_cap: Optional[int] = None,
) -> str:
    """Matrix of ranks, one row per node and one column per snapshot label.

    Missing appearances are empty cells; ``rank_cap`` clips displayed ranks
    (presentation only).
    """
    rows = []
    for timeline in timelines:
        ranks = [timeline.ranks.get(label) for label in labels]
        if rank_cap is not None:
            ranks = [None if rank is None else min(rank, rank_cap) for rank in ranks]
        rows.append((timeline.node.hex(), *ranks))
    return dump_table(("node_id", *labels), rows)
