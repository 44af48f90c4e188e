"""The benchmark's workloads: one archive spec plus the CLI calls made on it."""

from __future__ import annotations

from dataclasses import dataclass, field

from corpus import SPAN_S, START_TS, CorpusSpec

TWO_WEEKS_S = 1_209_600
DEFAULT_AMOUNTS_MSAT = (10_000_000, 1_000_000_000, 10_000_000_000)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    corpus: CorpusSpec
    instant_fractions: tuple[float, ...]  # snapshot instants as shares of the span
    amounts_msat: tuple[int, ...] | None  # None: the CLI's three defaults
    exact: bool = False
    enforce_htlc_bounds: bool = False
    prune_stale_after: int | None = None
    threads: int = 1
    # CLI calls made this many times per pass, their median time counting:
    # one short call varies by up to +-25% from call to call, and a kind made
    # only once per pass gets no averaging otherwise
    repeats: dict[str, int] = field(default_factory=dict)

    @property
    def instants(self) -> list[int]:
        return [START_TS + round(f * SPAN_S) for f in self.instant_fractions]

    @property
    def amounts(self) -> tuple[int, ...]:
        return self.amounts_msat or DEFAULT_AMOUNTS_MSAT

    def centrality_flags(self) -> list[str]:
        flags = [f"--amount-msat={a}" for a in self.amounts_msat or ()]
        if self.exact:
            flags.append("--exact")
        if self.enforce_htlc_bounds:
            flags.append("--enforce-htlc-bounds")
        if self.prune_stale_after is not None:
            flags.append(f"--prune-stale-after={self.prune_stale_after}")
        return flags


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="history",
            why="ingest and replay heavy: a two-year archive with ~40 versions per channel direction, re-read for each of 4 instants and compacted once",
            corpus=CorpusSpec(nodes=220, update_versions=40, node_versions=12, orphan_nodes=15),
            instant_fractions=(0.4, 0.6, 0.8, 1.0),
            amounts_msat=(1_000_000_000,),
            repeats={"compact": 3},
        ),
        Workload(
            name="study",
            why="the paper's analysis at one instant: float betweenness at the 3 default amounts on a hub-and-leaf graph with zero-fee clusters, 1 worker",
            corpus=CorpusSpec(nodes=560, update_versions=3, node_versions=2, orphan_nodes=20),
            instant_fractions=(1.0,),
            amounts_msat=None,
            repeats={"snapshot": 3, "compact": 3},
        ),
        Workload(
            name="exact",
            why="rational betweenness in a 2-worker pool with htlc-bound and staleness filters, the only path that keeps Fractions and forks workers",
            corpus=CorpusSpec(nodes=500, update_versions=3, node_versions=2, orphan_nodes=15),
            instant_fractions=(1.0,),
            amounts_msat=None,
            exact=True,
            enforce_htlc_bounds=True,
            prune_stale_after=TWO_WEEKS_S,
            threads=2,
            repeats={"snapshot": 3, "compact": 3},
        ),
    )
}
