"""Fee-weighted digraphs and exact betweenness centrality.

Arc weights are the integer routing fee in millisatoshi for a fixed
transaction amount: ``fee_base_msat + amount * fee_proportional_millionths
// 1_000_000`` (floor division; millisatoshi is indivisible). Shortest-path
ties are decided on exact integer costs, never floats, because equal-cost
path counting is the whole point.

Zero-weight arcs are legal (zero-fee channels exist) and need real care:

- along chains of zero arcs distance alone does not order the
  shortest-path DAG, so ports are numbered once in a topological order of
  the zero arcs and each source's Dijkstra breaks distance ties by port
  number; its settle order is then topological and drives the dependency
  accumulation directly;
- mutually-zero-fee node groups form zero-weight cycles, where counting
  shortest *walks* diverges from counting shortest *paths* (paths cannot
  revisit a node). Path counts are the defined semantics, so zero-weight
  strongly connected clusters are contracted into entry/exit port pairs
  whose connecting "bundle" arcs carry the exact number of simple
  zero-cost routes through the cluster plus per-member visit counts. A
  shortest path crosses such a cluster in one contiguous segment (leaving
  and re-entering would cost extra), so the contraction is exact.

Degree-1 nodes get no source pass of their own (Baglioni et al., ASONAM
2012; Sariyuce et al., SDM 2013). A leaf ``l`` outside any zero-fee cluster
whose only neighbour is ``u``, with an arc ``l->u``, folds into ``u`` (in a
two-node component the higher index folds into the lower). Its only way out
is ``l->u``, so every shortest ``l->t`` path is that arc followed by a
shortest ``u->t`` path: ``l``'s pass is ``u``'s pass one arc further out.
It credits every node except ``u`` exactly as ``u``'s pass does (``l`` as a
target adds no interior credit there, having no other in-neighbour), and
credits ``u`` with one for every node ``t`` not in ``{l, u}`` that ``u``
reaches. So ``u``'s pass scales its credits by ``1 + k`` for its ``k``
folded leaves and adds ``k * R - r`` to ``u`` itself, where ``R`` counts the
nodes other than ``u`` the pass reached and ``r`` the folded leaves among
them. A cluster-member hub needs nothing more: its bundles only ever credit
members other than the source.

The per-source loop is embarrassingly parallel; partial results are always
reduced in source order so the thread count never changes the output.
"""

from __future__ import annotations

import heapq
import multiprocessing
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Union

from .codec import NodeId
from .replay import ChannelPolicy, RoutingView

U64_MAX = (1 << 64) - 1

PPM_DIVISOR = 1_000_000

BRUTE_FORCE_MAX_NODES = 12

# extension steps allowed while enumerating simple routes inside one
# zero-fee cluster; exceeding it means the cluster is too entangled to
# count exactly
ZERO_CLUSTER_PATH_BUDGET = 5_000_000

Value = Union[float, Fraction]


class CentralityError(ValueError):
    """Base class for graph-metric failures."""


class NegativeWeightError(CentralityError):
    """An arc weight is negative (cannot happen for fee weights; guards imports)."""


class FeeOverflowError(CentralityError):
    """Computed fee exceeds the wire-representable range; the policy is corrupt."""


class TooLargeError(CentralityError):
    """Graph exceeds the brute-force enumeration bound."""


class ZeroClusterError(CentralityError):
    """A zero-fee cluster is too large to count simple routes exactly."""


@dataclass(frozen=True)
class WeightedDigraph:
    """Simple digraph with dense node indices and exact integer arc weights."""

    node_ids: tuple[NodeId, ...]
    arcs: tuple[tuple[int, int, int], ...]  # (src, dst, weight), unique per pair
    amount_msat: int = 0
    as_of: int = 0

    @classmethod
    def from_arcs(cls, node_ids, arcs, amount_msat=0, as_of=0) -> "WeightedDigraph":
        """Build from possibly-parallel (src, dst, weight) triples; parallel
        arcs collapse to the minimum weight, self-arcs are rejected."""
        n = len(node_ids)
        best: dict[tuple[int, int], int] = {}
        for src, dst, weight in arcs:
            if not (0 <= src < n and 0 <= dst < n):
                raise ValueError(f"arc ({src},{dst}) outside node range")
            if src == dst:
                raise ValueError(f"self-arc at node {src}")
            key = (src, dst)
            if key not in best or weight < best[key]:
                best[key] = weight
        collapsed = tuple(sorted((u, v, w) for (u, v), w in best.items()))
        return cls(tuple(node_ids), collapsed, amount_msat, as_of)


@dataclass(frozen=True)
class CentralityReport:
    as_of: int
    amount_msat: int
    values: dict[NodeId, Value]

    @property
    def leaf_count(self) -> int:
        return sum(1 for v in self.values.values() if v == 0)


def fee_weight(policy: ChannelPolicy, amount_msat: int) -> int:
    """Routing fee in msat charged for forwarding ``amount_msat`` under ``policy``."""
    if not 0 <= amount_msat <= U64_MAX:
        raise ValueError(f"amount {amount_msat} out of u64 range")
    weight = (
        policy.fee_base_msat
        + amount_msat * policy.fee_proportional_millionths // PPM_DIVISOR
    )
    if weight > U64_MAX:
        raise FeeOverflowError(
            f"fee {weight} msat exceeds u64 (base={policy.fee_base_msat}, "
            f"ppm={policy.fee_proportional_millionths}, amount={amount_msat})"
        )
    return weight


def build_graph(
    view: RoutingView,
    amount_msat: int,
    enforce_htlc_bounds: bool = False,
) -> WeightedDigraph:
    """Weight every routable arc for one transaction amount.

    Parallel channels between the same ordered node pair collapse to the
    cheapest one. With ``enforce_htlc_bounds`` arcs whose limits exclude the
    amount are dropped entirely.
    """
    index = {node_id: i for i, node_id in enumerate(view.nodes)}
    arcs = []
    for arc in view.arcs:
        policy = arc.policy
        if enforce_htlc_bounds:
            if amount_msat < policy.htlc_minimum_msat:
                continue
            if (
                policy.htlc_maximum_msat is not None
                and amount_msat > policy.htlc_maximum_msat
            ):
                continue
        weight = fee_weight(policy, amount_msat)
        # a snapshot does not guarantee distinct channel endpoints
        if arc.source != arc.target:
            arcs.append((index[arc.source], index[arc.target], weight))
    return WeightedDigraph.from_arcs(view.nodes, arcs, amount_msat, view.as_of)


# ---------------------------------------------------------------------------
# betweenness kernel
# ---------------------------------------------------------------------------


def _strong_components(n: int, adj: list[list[int]]) -> list[list[int]]:
    """Strongly connected components (iterative Tarjan)."""
    index_of = [-1] * n
    low = [0] * n
    on_stack = bytearray(n)
    comp_stack: list[int] = []
    components: list[list[int]] = []
    next_index = 0
    for root in range(n):
        if index_of[root] >= 0:
            continue
        frames = [[root, 0]]
        while frames:
            frame = frames[-1]
            v = frame[0]
            if frame[1] == 0:
                index_of[v] = low[v] = next_index
                next_index += 1
                comp_stack.append(v)
                on_stack[v] = 1
            descended = False
            neighbors = adj[v]
            while frame[1] < len(neighbors):
                w = neighbors[frame[1]]
                frame[1] += 1
                if index_of[w] < 0:
                    frames.append([w, 0])
                    descended = True
                    break
                if on_stack[w] and index_of[w] < low[v]:
                    low[v] = index_of[w]
            if descended:
                continue
            frames.pop()
            if frames:
                parent = frames[-1][0]
                if low[v] < low[parent]:
                    low[parent] = low[v]
            if low[v] == index_of[v]:
                component = []
                while True:
                    w = comp_stack.pop()
                    on_stack[w] = 0
                    component.append(w)
                    if w == v:
                        break
                components.append(component)
    return components


def _cluster_bundles(
    members: list[int], zero_out: list[list[int]], budget: int
) -> list[tuple[int, int, int, tuple[tuple[int, int], ...]]]:
    """Exact simple-route table for one zero-fee cluster.

    Returns bundles (entry, exit, route_count, interior visit counts),
    sorted by (entry, exit), for every ordered member pair connected by zero
    arcs, plus the trivial enter-and-leave bundle per member.
    """
    member_set = set(members)
    local = {u: [v for v in zero_out[u] if v in member_set] for u in members}
    counts: dict[tuple[int, int], int] = {}
    visits: dict[tuple[int, int], dict[int, int]] = {}
    steps = 0
    for start in members:
        path = [start]
        on_path = {start}
        iters = [iter(local[start])]
        while iters:
            try:
                nxt = next(iters[-1])
            except StopIteration:
                iters.pop()
                on_path.discard(path.pop())
                continue
            if nxt in on_path:
                continue
            steps += 1
            if steps > budget:
                raise ZeroClusterError(
                    f"zero-fee cluster of {len(members)} nodes exceeds "
                    f"{budget} route-enumeration steps"
                )
            key = (start, nxt)
            counts[key] = counts.get(key, 0) + 1
            if len(path) > 1:
                interior = visits.setdefault(key, {})
                for w in path[1:]:
                    interior[w] = interior.get(w, 0) + 1
            path.append(nxt)
            on_path.add(nxt)
            iters.append(iter(local[nxt]))
    for x in members:
        counts[x, x] = 1
    return [
        (x, y, counts[x, y], tuple(sorted(visits.get((x, y), {}).items())))
        for x, y in sorted(counts)
    ]


@dataclass(frozen=True)
class _PortGraph:
    """Source-independent search structure with zero-fee clusters contracted.

    Cluster members get an entry and an exit port; bundle arcs between
    ports carry multiplicities (simple zero-cost route counts). Trivial
    nodes keep one port that serves as both.

    Ports are numbered in a topological order of the zero-weight arcs: every
    zero arc, bundle or not, leads from a lower port to a higher one.
    """

    n_nodes: int
    h_count: int
    h_in_of: list[int]
    h_out_of: list[int]
    cluster_of: list[int]  # -1 for trivial nodes
    # per port: (dst_port, weight, multiplicity, bundle_id or -1)
    out_edges: list[list[tuple[int, int, int, int]]]
    # per port: (src_port, weight, multiplicity, bundle_id or -1)
    in_edges: list[list[tuple[int, int, int, int]]]
    is_out_port: list[bool]
    bundles: list[tuple[int, int, int, tuple[tuple[int, int], ...]]]
    leaves: list[list[int]]  # per node: the leaves folded into it
    sources: list[int]  # nodes that get a source pass: all but folded leaves


def _fold_leaves(n: int, arcs, cluster_of: list[int]) -> list[list[int]]:
    """Per node, the degree-1 nodes whose source pass folds into its own."""
    neighbour = [-1] * n  # the only neighbour: -1 while none, -2 once several
    has_out = [False] * n
    for src, dst, _ in arcs:
        has_out[src] = True
        for x, y in ((src, dst), (dst, src)):
            if neighbour[x] == -1:
                neighbour[x] = y
            elif neighbour[x] != y:
                neighbour[x] = -2
    hub_of = [
        hub if has_out[leaf] and cluster_of[leaf] < 0 else -1
        for leaf, hub in enumerate(neighbour)
    ]
    leaves: list[list[int]] = [[] for _ in range(n)]
    for leaf, hub in enumerate(hub_of):
        # a leaf's hub can only be a leaf itself in a two-node component
        if hub >= 0 and (hub_of[hub] < 0 or leaf > hub):
            leaves[hub].append(leaf)
    return leaves


def _prepare(graph: WeightedDigraph) -> _PortGraph:
    n = len(graph.node_ids)
    zero_out: list[list[int]] = [[] for _ in range(n)]
    for src, dst, weight in graph.arcs:
        if weight == 0:
            zero_out[src].append(dst)
    components = _strong_components(n, zero_out)
    clusters = sorted(sorted(comp) for comp in components if len(comp) >= 2)
    cluster_of = [-1] * n
    for ci, members in enumerate(clusters):
        for u in members:
            cluster_of[u] = ci

    # Tarjan emits components in reverse topological order of the zero arcs;
    # inside a cluster every entry port precedes every exit port
    h_in_of = [0] * n
    h_out_of = [0] * n
    h_count = 0
    for comp in reversed(components):
        for u in comp:
            h_in_of[u] = h_out_of[u] = h_count
            h_count += 1
        if len(comp) >= 2:
            for u in comp:
                h_out_of[u] = h_count
                h_count += 1

    out_edges: list[list[tuple[int, int, int, int]]] = [[] for _ in range(h_count)]
    in_edges: list[list[tuple[int, int, int, int]]] = [[] for _ in range(h_count)]
    for src, dst, weight in graph.arcs:
        if cluster_of[src] >= 0 and cluster_of[src] == cluster_of[dst]:
            # zero arcs are absorbed into bundles; a positive arc inside a
            # cluster is never on a shortest path (a zero route exists)
            continue
        out_edges[h_out_of[src]].append((h_in_of[dst], weight, 1, -1))
        in_edges[h_in_of[dst]].append((h_out_of[src], weight, 1, -1))

    bundles: list[tuple[int, int, int, tuple[tuple[int, int], ...]]] = []
    for members in clusters:
        for bundle in _cluster_bundles(members, zero_out, ZERO_CLUSTER_PATH_BUDGET):
            bundle_id = len(bundles)
            bundles.append(bundle)
            x, y, mult, _ = bundle
            out_edges[h_in_of[x]].append((h_out_of[y], 0, mult, bundle_id))
            in_edges[h_out_of[y]].append((h_in_of[x], 0, mult, bundle_id))

    is_out_port = [False] * h_count
    for u in range(n):
        is_out_port[h_out_of[u]] = True

    leaves = _fold_leaves(n, graph.arcs, cluster_of)
    folded = {leaf for group in leaves for leaf in group}

    return _PortGraph(
        n_nodes=n,
        h_count=h_count,
        h_in_of=h_in_of,
        h_out_of=h_out_of,
        cluster_of=cluster_of,
        out_edges=out_edges,
        in_edges=in_edges,
        is_out_port=is_out_port,
        bundles=bundles,
        leaves=leaves,
        sources=[s for s in range(n) if s not in folded],
    )


def _source_pass(pg: _PortGraph, s: int, exact: bool) -> list[Value]:
    """Dependency accumulation for one source and the leaves folded into
    it; returns per-node credits."""
    ratio: Callable[[int, int], Value] = Fraction if exact else operator.truediv
    zero: Value = Fraction(0) if exact else 0.0

    src = pg.h_in_of[s]
    dist: list[Optional[int]] = [None] * pg.h_count
    sigma = [0] * pg.h_count
    dist[src] = 0
    sigma[src] = 1
    order = []
    heap = [(0, src)]
    # keyed by (distance, port): a positive arc raises the distance and a
    # zero arc leads to a higher port, so every shortest-path predecessor
    # settles first and the settle order is topological
    while heap:
        d, v = heapq.heappop(heap)
        if d > dist[v]:
            continue
        order.append(v)
        sv = sigma[v]
        for dst, weight, mult, _ in pg.out_edges[v]:
            dd = d + weight
            known = dist[dst]
            if known is None or dd < known:
                dist[dst] = dd
                sigma[dst] = sv * mult
                heapq.heappush(heap, (dd, dst))
            elif dd == known:
                sigma[dst] += sv * mult

    # accumulate dependencies backwards; per-pair targets are out ports
    # (the source's own out port never counts as a target)
    delta: list[Value] = [zero] * pg.h_count
    credit: list[Value] = [zero] * pg.n_nodes
    source_out = pg.h_out_of[s]
    for v in reversed(order):
        dv = delta[v]
        tv = 1 if (pg.is_out_port[v] and v != source_out) else 0
        if tv == 0 and dv == 0:
            continue
        for u, weight, mult, bundle_id in pg.in_edges[v]:
            du = dist[u]
            if du is None or du + weight != dist[v]:
                continue
            r = ratio(sigma[u] * mult, sigma[v])
            flow_cont = r * dv
            flow_all = flow_cont + (r if tv else zero)
            delta[u] += flow_all
            if bundle_id < 0:
                continue
            x, y, mult_total, interior = pg.bundles[bundle_id]
            if x == y:
                # enter-and-leave bundle: the member is interior only for
                # pairs that continue past it
                if x != s:
                    credit[x] += flow_cont
            else:
                if x != s:
                    credit[x] += flow_all
                credit[y] += flow_cont
                for w, visit_count in interior:
                    credit[w] += flow_all * ratio(visit_count, mult_total)

    for u in range(pg.n_nodes):
        if pg.cluster_of[u] < 0 and u != s:
            credit[u] += delta[pg.h_out_of[u]]

    leaves = pg.leaves[s]
    if leaves:
        # each folded leaf repeats this pass one arc further out, with s
        # interior to every pair (leaf, t) for t reached and not the leaf
        multiplier = 1 + len(leaves)
        credit = [c * multiplier for c in credit]
        reached = sum(1 for port in pg.h_out_of if dist[port] is not None) - 1
        reached_leaves = sum(1 for leaf in leaves if dist[pg.h_out_of[leaf]] is not None)
        credit[s] += len(leaves) * reached - reached_leaves
    return credit


def _sparse_credit(credit: list[Value]) -> list[tuple[int, Value]]:
    return [(i, v) for i, v in enumerate(credit) if v != 0]


_POOL_PG: Optional[_PortGraph] = None
_POOL_EXACT = False


def _pool_init(pg: _PortGraph, exact: bool) -> None:
    global _POOL_PG, _POOL_EXACT
    _POOL_PG = pg
    _POOL_EXACT = exact


def _pool_source(s: int) -> list[tuple[int, Value]]:
    return _sparse_credit(_source_pass(_POOL_PG, s, _POOL_EXACT))


def betweenness(
    graph: WeightedDigraph,
    exact: bool = False,
    processes: Optional[int] = None,
) -> CentralityReport:
    """Unnormalized betweenness of every node, endpoints excluded.

    For node v this is the sum over ordered pairs (s, t), s != t, v not in
    {s, t}, of the fraction of minimum-fee s->t paths passing through v.
    ``exact`` switches the accumulation from floats to rationals. The
    result is independent of ``processes``.
    """
    for _, _, weight in graph.arcs:
        if weight < 0:
            raise NegativeWeightError(f"negative arc weight {weight}")
    n = len(graph.node_ids)
    pg = _prepare(graph)
    totals: list[Value] = [Fraction(0) if exact else 0.0] * n

    sources = pg.sources
    if processes and processes > 1 and len(sources) > 1:
        ctx = multiprocessing.get_context("fork")
        chunk = max(1, len(sources) // (processes * 4))
        with ctx.Pool(processes, initializer=_pool_init, initargs=(pg, exact)) as pool:
            for sparse in pool.imap(_pool_source, sources, chunksize=chunk):
                for i, value in sparse:
                    totals[i] += value
    else:
        for s in sources:
            for i, value in _sparse_credit(_source_pass(pg, s, exact)):
                totals[i] += value

    values = {graph.node_ids[i]: totals[i] for i in range(n)}
    return CentralityReport(graph.as_of, graph.amount_msat, values)


def brute_force_betweenness(graph: WeightedDigraph) -> CentralityReport:
    """Independent oracle: enumerate every simple path per ordered pair,
    keep the cheapest ones, count directly. Exact rationals; factorial
    blowup caps the graph at 12 nodes."""
    n = len(graph.node_ids)
    if n > BRUTE_FORCE_MAX_NODES:
        raise TooLargeError(f"{n} nodes exceeds brute-force bound {BRUTE_FORCE_MAX_NODES}")
    for _, _, weight in graph.arcs:
        if weight < 0:
            raise NegativeWeightError(f"negative arc weight {weight}")
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for src, dst, weight in graph.arcs:
        adj[src].append((dst, weight))

    totals = [Fraction(0) for _ in range(n)]
    for s in range(n):
        best: dict[int, int] = {}
        sigma: dict[int, int] = {}
        interior_counts: dict[int, list[int]] = {}
        path = [s]
        on_path = [False] * n
        on_path[s] = True

        def visit(u: int, cost: int) -> None:
            for v, weight in adj[u]:
                if on_path[v]:
                    continue
                c = cost + weight
                known = best.get(v)
                if known is None or c < known:
                    best[v] = c
                    sigma[v] = 1
                    counts = [0] * n
                    for w in path[1:]:
                        counts[w] += 1
                    interior_counts[v] = counts
                elif c == known:
                    sigma[v] += 1
                    counts = interior_counts[v]
                    for w in path[1:]:
                        counts[w] += 1
                path.append(v)
                on_path[v] = True
                visit(v, c)
                path.pop()
                on_path[v] = False

        visit(s, 0)
        for t, count in sigma.items():
            counts = interior_counts[t]
            for v in range(n):
                if counts[v]:
                    totals[v] += Fraction(counts[v], count)

    values = {graph.node_ids[i]: totals[i] for i in range(n)}
    return CentralityReport(graph.as_of, graph.amount_msat, values)


# ---------------------------------------------------------------------------
# report serialization
# ---------------------------------------------------------------------------

REPORT_FORMAT = "centrality-report"
REPORT_VERSION = 1


def report_items(report: CentralityReport) -> list[tuple[NodeId, Value]]:
    """Entries sorted by descending value, then node id."""
    return sorted(report.values.items(), key=lambda kv: (-kv[1], kv[0]))


def report_to_csv(report: CentralityReport) -> str:
    lines = ["node_id,betweenness"]
    for node_id, value in report_items(report):
        lines.append(f"{node_id.hex()},{float(value)!r}")
    return "\n".join(lines) + "\n"


def report_to_json(report: CentralityReport) -> str:
    import json

    doc = {
        "format": REPORT_FORMAT,
        "version": REPORT_VERSION,
        "as_of": report.as_of,
        "amount_msat": report.amount_msat,
        "leaf_count": report.leaf_count,
        "values": {
            node_id.hex(): float(value) for node_id, value in report.values.items()
        },
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


class ReportFormatError(ValueError):
    """Serialized centrality report is not in the expected format."""


def report_from_json(text: str) -> CentralityReport:
    import json

    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ReportFormatError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != REPORT_FORMAT:
        raise ReportFormatError("missing centrality report format marker")
    if doc.get("version") != REPORT_VERSION:
        raise ReportFormatError(f"unsupported report version {doc.get('version')!r}")
    try:
        values = {
            bytes.fromhex(node_hex): float(value)
            for node_hex, value in doc["values"].items()
        }
        return CentralityReport(
            as_of=int(doc["as_of"]),
            amount_msat=int(doc["amount_msat"]),
            values=values,
        )
    except (KeyError, ValueError, TypeError) as exc:
        raise ReportFormatError(f"malformed report document: {exc}") from exc
