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

The dependency sweep runs in integers over the one forward adjacency. Let
``t(v)`` be the target weight of port ``v``: the number of targets whose
shortest paths end at ``v``, 0 on an entry-only port (the source's own out
port is reached only from its entry port, whose value no node is credited
with). Brandes's dependency of ``v`` over a shortest-path arc ``v->w`` with
route count ``mult`` is ``sigma(v) * mult / sigma(w) * (delta(w) + t(w))``,
so ``D(v) = (delta(v) + t(v)) / sigma(v)`` is ``t(v) / sigma(v) + sum(mult
* D(w))`` over those arcs. With ``L`` the lcm of ``sigma`` over the reached
ports with ``t > 0``, ``E(v) = L * D(v)`` is an integer::

    E(v) = L * t(v) // sigma(v) + sum(mult * E(w))

and each port pulls it over its shortest-path arcs in reverse settle order
(Brandes's successor form), crediting nodes as it goes. A bundle arc
``v->w`` carries ``sigma(v) * count * D(w)`` paths past each member ``u``
its routes visit ``count`` times before their exit, so pulling it credits
each such member ``u != s`` with ``sigma(v) * count * E(w) / L``. A reached
node ``u`` with out port ``p`` is interior to ``delta(p) + t(p) - 1`` pairs
through ``p`` (those ending at its stripped leaves included, see below),
so pulling ``p`` credits ``u != s`` with ``sigma(p) * E(p) / L - 1``. For a
cluster member the two credits cover every exit role, the enter-and-leave
bundle included: the bundles into an exit port split that port's paths, so
``delta(p)`` is exactly the member's credit as the last member of a
segment that continues past it. The source ``s`` gets no credit, as a
source is never interior to its own pairs. A pass credits only the ports in
its settle order, adding each numerator over ``L`` to its share's sum for
that ``L``; a share of passes divides once per denominator and node, an
int when ``L`` divides and a ``Fraction`` otherwise.

Degree-1 nodes leave the port graph (Baglioni et al., ASONAM 2012; Sariyuce
et al., SDM 2013). A node ``l`` outside any zero-fee cluster whose only
neighbour is ``u`` is a leaf of ``u`` (in a two-node component the lower
index stays and the higher is the leaf). A leaf is interior to no simple
path, so it matters only as an endpoint, and it gets no port:

- as a target: a leaf with an arc ``u->l`` is reached only through ``u``,
  so every shortest ``s->l`` path is a shortest ``s->u`` path and that arc.
  ``u``'s out port stands for ``u`` and those leaves, ``t = 1 + a(u)``
  with ``a(u)`` the leaves ``u`` has an arc to, and ``u`` is interior to
  the ``a(u)`` pairs ``(s, l)`` of every source ``s`` other than ``u``
  that reaches it: ``credit[u] += delta + a(u)``;
- as a source: a leaf with an arc ``l->u`` folds into ``u``. Its only way
  out is ``l->u``, so every shortest ``l->t`` path is that arc followed by
  a shortest ``u->t`` path: ``l``'s pass is ``u``'s pass one arc further
  out. It credits every node except ``u`` exactly as ``u``'s pass does
  (target ``l`` adds no interior credit there), and credits ``u`` with one
  for every node ``t`` not in ``{l, u}`` that ``u`` reaches. So ``u``'s
  pass scales its credits by ``1 + k`` for its ``k`` folded leaves and adds
  ``k * R - r`` to ``u`` itself, where ``R``, the nodes other than ``u``
  the pass reached, sums the target weights of the reached out ports minus
  1, and ``r`` counts the folded leaves ``u`` also has an arc to. A
  cluster-member hub needs nothing more: its pass gives it no credit
  before the fold, like any source's. A leaf with only the arc ``u->l``
  reaches nothing and needs no pass.

A pass also drops the arcs it proves useless. Once its Dijkstra has run,
an arc ``s->x`` out of the source's own out port with weight ``w > dist(s,
x)`` is on no shortest path from any source: a path through it could take
the cheaper route from ``s`` to ``x`` instead, and cutting the cycles out
of that walk never costs more, as weights are >= 0. Out-port distances are node
distances, the same for every member of a zero-fee cluster, so this holds
for a cluster member's out port too; and that port holds plain arcs only,
so bundles are never touched. The pass keeps only its tight arcs, ``dist(s)
+ w == dist(x)``, ties included.

The same distances bound the arcs of the source's in-neighbours. For each
plain arc ``p->s`` of weight ``w_ps``, an arc ``p->x`` with weight ``w >
w_ps + dist(s, x)`` is dearer than the walk ``p->s`` and a shortest route
from ``s`` to ``x``, so by the same argument it is on no shortest path from
any source; the pass drops it. Ties are kept, and so are zero arcs and arcs
to ports the pass did not reach (their distance exceeds every weight). The
bound still holds once ``p->s`` itself is dropped, as dropping arcs changes
no distance and so ``p`` keeps a route to ``s`` no dearer than ``w_ps``;
the in-arcs recorded by ``_prepare`` never need updating. Dropping an arc
changes no distance, no sigma and no shortest-path arc, so every later pass
in the same process, serial or in a worker, computes the same values over
fewer arcs. Sources run in order of out-degree, largest first (ties by
index): hubs have the most arcs to drop, and the most in-neighbours to
prune, so the passes after theirs relax the fewest arcs.

The prune leaves many in-neighbours ``p`` of ``s`` with the one arc ``p->s``
(source folding, Puzis et al., SocialCom 2012). Every shortest ``p->t``
path is then that arc and a shortest ``s->t`` path, none of which re-enters
``p`` (that takes a zero-fee cycle), so ``p``'s pass is ``s``'s one arc
further out, as a leaf's is: ``s``'s pass folds ``p`` in and ``p`` never
runs, unless a zero-fee cluster holds ``p`` or ``s``, or ``p`` is another
share's. With ``k_p`` the leaves folded into ``p``, every target then
counts ``M = 1 + k_s + sum(1 + k_p)`` times, less ``(1 + k_p) * t(p)`` at
each reached ``p``; a port credits ``sigma(v) * E(v) - M * L`` and a bundle
``sigma(v) * E(w) * count``. Each ``p`` adds ``(1 + k_p) * L`` to its own
numerator if reached (so ``1 + k_p`` to its credit), ``(1 + k_p) * (R -
g_p)`` to ``s``'s credit and ``k_p * (R - g_p + t(p)) - leaf_targets[p]``
to its own, with ``g_p = t(p)`` if reached, else 0. Its in-neighbours
``q`` are pruned with the bound ``w(q, p) + w(p, s) + dist(s, x)``, which
is the bound ``p``'s pass would use.

``L`` exceeds 1 in almost every pass, but only tens of distinct ``L`` occur
per graph, and most values stay ints, much cheaper to add and to send
between processes than ``Fraction``s. Values are written as floats only by
the report writers, each the correctly rounded exact value.

The per-source loop is embarrassingly parallel. Worker ``i`` of ``W`` runs
the passes ``sources[i::W]`` of every graph, still hubs first, folds only
those sources, and prunes its own copy of the port graphs. As each pass
also prunes the arcs of its source's in-neighbours, a worker's copy loses
many of the arcs that the other workers' passes drop. The calling process
is worker ``0``, and each other worker is a child forked once the graphs
are prepared, which sends back its credits through a pipe; a serial run is
share ``0`` of ``1`` and forks nothing. A child that raises has its
exception raised again in the parent, and one that dies (a signal, a
non-zero exit, a result cut short) raises ``ChildProcessError``; either way
the other children are killed and reaped first, so a call never waits on a
dead worker. Exact sums do not depend on their order, so the worker count
never changes the output, nor does which worker ran which pass and so
dropped which arcs.
"""

from __future__ import annotations

import heapq
import math
import os
import sys
from collections import defaultdict
from fractions import Fraction
from typing import NamedTuple, Optional, Union

from .codec import U64_MAX, NodeId, parse_node_id
from .manifest import dump_document, dump_table, load_document, typed, uint
from .replay import ChannelPolicy, RoutingView

PPM_DIVISOR = 1_000_000

BRUTE_FORCE_MAX_NODES = 12

# work allowed while enumerating simple routes inside one zero-fee cluster,
# each route extension costing the length of the route it extends (its
# visit counts); exceeding it means the cluster is too entangled to count
# exactly
ZERO_CLUSTER_PATH_BUDGET = 5_000_000

Value = Union[int, float, Fraction]


class WeightedDigraph(NamedTuple):
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


class CentralityReport(NamedTuple):
    as_of: int
    amount_msat: int
    values: dict[NodeId, Value]

    @property
    def leaf_count(self) -> int:
        """Nodes whose value is written as 0.0: an exact value below float
        range counts, as it is written that way."""
        return sum(1 for v in self.values.values() if float(v) == 0)


def fee_weight(policy: ChannelPolicy, amount_msat: int) -> int:
    """Routing fee in msat charged for forwarding ``amount_msat`` under ``policy``."""
    if not 0 <= amount_msat <= U64_MAX:
        raise ValueError(f"amount {amount_msat} out of u64 range")
    weight = (
        policy.fee_base_msat
        + amount_msat * policy.fee_proportional_millionths // PPM_DIVISOR
    )
    if weight > U64_MAX:
        raise ValueError(
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
        # parsed snapshots and decoded announcements have node1 < node2, but
        # a RoutingView built in code may still hold a self-arc
        if arc.source != arc.target:
            arcs.append((index[arc.source], index[arc.target], weight))
    return WeightedDigraph.from_arcs(view.nodes, arcs, amount_msat, view.as_of)


# ---------------------------------------------------------------------------
# betweenness kernel
# ---------------------------------------------------------------------------


def _strong_components(n: int, adj: list[list[int]]) -> list[list[int]]:
    """Strongly connected components (iterative Tarjan), in reverse
    topological order: every arc leaving a component enters an earlier one."""
    index_of = [-1] * n
    low = [0] * n
    on_stack = bytearray(n)
    comp_stack: list[int] = []
    components: list[list[int]] = []
    next_index = 0
    for root in range(n):
        if index_of[root] >= 0:
            continue
        frames = [(root, iter(adj[root]))]
        while frames:
            v, neighbours = frames[-1]
            if index_of[v] < 0:
                index_of[v] = low[v] = next_index
                next_index += 1
                comp_stack.append(v)
                on_stack[v] = 1
            for w in neighbours:
                if index_of[w] < 0:
                    frames.append((w, iter(adj[w])))
                    break
                if on_stack[w] and index_of[w] < low[v]:
                    low[v] = index_of[w]
            else:
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
    graph: WeightedDigraph, members: list[int], zero_out: list[list[int]], budget: int
) -> list[tuple[int, int, int, tuple[tuple[int, int], ...]]]:
    """Exact simple-route table for one zero-fee cluster of ``graph``.

    Returns bundles (entry, exit, route_count, visits), sorted by (entry,
    exit), for every ordered member pair connected by zero arcs, plus the
    trivial enter-and-leave bundle per member. ``visits`` counts, per
    member, the routes that pass it before their exit: the entry member on
    every route, each interior member on the routes through it. The
    enter-and-leave bundle has no visits; the exit port's delta credits its
    member. Past ``budget`` steps the error names the graph's amount, the
    cluster's size and its three lowest-indexed node ids.
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
            steps += len(path)
            if steps > budget:
                ids = ", ".join(f"{graph.node_ids[u].hex()[:16]}…" for u in sorted(members)[:3])
                raise ValueError(
                    f"at {graph.amount_msat} msat: zero-fee cluster of {len(members)} nodes "
                    f"({ids}) exceeds {budget} route-enumeration steps"
                )
            key = (start, nxt)
            counts[key] = counts.get(key, 0) + 1
            route_visits = visits.setdefault(key, {})
            for w in path:
                route_visits[w] = route_visits.get(w, 0) + 1
            path.append(nxt)
            on_path.add(nxt)
            iters.append(iter(local[nxt]))
    for x in members:
        counts[x, x] = 1
    return [
        (x, y, counts[x, y], tuple(sorted(visits.get((x, y), {}).items())))
        for x, y in sorted(counts)
    ]


class _PortGraph(NamedTuple):
    """Source-independent search structure with zero-fee clusters contracted
    and leaves stripped.

    Cluster members get an entry and an exit port, joined by the cluster's
    bundle arcs; other kept nodes have one port that serves as both, and a
    leaf has none (port -1). Plain arcs leave out ports only, as
    (dst_port, weight) pairs; bundles leave cluster entry ports only, as
    (exit_port, route_count, visits) from ``_cluster_bundles``, with weight
    0. So a port has plain arcs or bundles, never both.

    Ports are numbered in a topological order of the zero-weight arcs: every
    zero arc, bundle or not, leads from a lower port to a higher one.

    ``_prepare`` reads the arcs twice. The first read gives the zero-fee
    clusters and the leaves; numbering the ports fills ``h_in_of``,
    ``h_out_of`` and ``node_of`` and sets ``target`` to 1 per out port; the
    second read fills ``plain``, ``in_arcs``, ``far``, ``leaves`` and
    ``leaf_targets``, and adds 1 to a hub's ``target`` per leaf it has an
    arc to. ``in_arcs`` lists, per in port, the graph's own ``(src, dst,
    weight)`` triples of the plain arcs into it, so it adds no object per
    arc.

    Source passes drop the dominated arcs of their source's out port, and of
    its in-neighbours' out ports, from ``plain`` (see the module docstring);
    ``in_arcs`` is never changed.
    """

    h_in_of: list[int]
    h_out_of: list[int]
    plain: list[list[tuple[int, int]]]
    in_arcs: list[list[tuple[int, int, int]]]  # per in port: the graph's own triples of its plain in-arcs
    bundles: list[list[tuple[int, int, tuple[tuple[int, int], ...]]]]
    far: int  # exceeds every path cost: the distance of an unreached port
    target: list[int]  # per port: 1 + the leaves u has an arc to on u's out port, 0 on an entry-only port
    node_of: list[int]  # per port: u on u's out port, -1 on an entry-only port
    leaves: list[int]  # per node: how many leaves fold into it
    leaf_targets: list[int]  # per node: its folded leaves it also has an arc to
    sources: list[int]  # nodes that get a source pass: all kept nodes, hubs first


def _prepare(graph: WeightedDigraph) -> _PortGraph:
    n = len(graph.node_ids)
    # first read: the zero arcs, and each node's only neighbour (-1 while
    # none, -2 once several)
    zero_out: list[list[int]] = [[] for _ in range(n)]
    neighbour = [-1] * n
    for src, dst, weight in graph.arcs:
        if weight < 0:  # never a fee weight; arcs built by hand may be
            raise ValueError(f"negative arc weight {weight}")
        if weight == 0:
            zero_out[src].append(dst)
        neighbour[src] = dst if neighbour[src] in (-1, dst) else -2
        neighbour[dst] = src if neighbour[dst] in (-1, src) else -2
    components = _strong_components(n, zero_out)
    clusters = [comp for comp in components if len(comp) >= 2]
    cluster_of = [-1] * n
    for ci, members in enumerate(clusters):
        for u in members:
            cluster_of[u] = ci

    # a leaf leaves the port graph: outside any zero-fee cluster, with one
    # neighbour; of a two-node component only the higher index (a leaf's hub
    # can only be a leaf itself there)
    hub_of = [hub if cluster < 0 else -1 for hub, cluster in zip(neighbour, cluster_of)]
    stripped = [hub >= 0 and (hub_of[hub] < 0 or leaf > hub) for leaf, hub in enumerate(hub_of)]

    # Tarjan emits components in reverse topological order of the zero arcs;
    # inside a cluster every entry port precedes every exit port. A leaf is
    # its own component and gets no port.
    h_in_of = [-1] * n
    h_out_of = [-1] * n
    node_of: list[int] = []
    for comp in reversed(components):
        for u in comp:
            if not stripped[u]:
                h_in_of[u] = h_out_of[u] = len(node_of)
                node_of.append(u if len(comp) == 1 else -1)
        if len(comp) >= 2:
            for u in comp:
                h_out_of[u] = len(node_of)
                node_of.append(u)
    target = [int(u >= 0) for u in node_of]

    # second read: plain arcs between kept nodes, a leaf's arcs in its hub's
    # counts; a hub's leaf_targets count a leaf once both its arcs are seen
    plain: list[list[tuple[int, int]]] = [[] for _ in node_of]
    in_arcs: list[list[tuple[int, int, int]]] = [[] for _ in node_of]
    far = 1
    leaves = [0] * n
    leaf_targets = [0] * n
    to_hub = bytearray(n)  # per leaf: its arc to its hub was seen
    from_hub = bytearray(n)  # per leaf: its hub's arc to it was seen
    for arc in graph.arcs:
        src, dst, weight = arc
        if stripped[src]:
            leaves[dst] += 1
            leaf_targets[dst] += from_hub[src]
            to_hub[src] = 1
        elif stripped[dst]:
            target[h_out_of[src]] += 1
            leaf_targets[src] += to_hub[dst]
            from_hub[dst] = 1
        elif cluster_of[src] < 0 or cluster_of[src] != cluster_of[dst]:
            # not inside a cluster: a zero arc there is in the bundles, and
            # a positive one is on no shortest path (a zero route exists)
            plain[h_out_of[src]].append((h_in_of[dst], weight))
            in_arcs[h_in_of[dst]].append(arc)
            far += weight
    bundles: list[list] = [[] for _ in node_of]
    for members in clusters:
        for x, y, mult, visits in _cluster_bundles(graph, members, zero_out, ZERO_CLUSTER_PATH_BUDGET):
            bundles[h_in_of[x]].append((h_out_of[y], mult, visits))

    # hubs first, ties in index order: they drop the most arcs
    sources = sorted((s for s in range(n) if not stripped[s]), key=lambda s: -len(plain[h_out_of[s]]))

    return _PortGraph(
        h_in_of=h_in_of,
        h_out_of=h_out_of,
        plain=plain,
        in_arcs=in_arcs,
        bundles=bundles,
        far=far,
        target=target,
        node_of=node_of,
        leaves=leaves,
        leaf_targets=leaf_targets,
        sources=sources,
    )


def _source_pass(pg: _PortGraph, s: int, sums: defaultdict[int, list[int]], pending: bytearray) -> list[int]:
    """Dependency accumulation for one source, the leaves folded into it and
    the in-neighbours folded into its pass: adds each reached node's credit
    numerator over the pass's denominator ``L`` to ``sums[L]``. Drops the
    arcs its distances prove to be on no shortest path: the source's out
    arcs that are not tight, and each in-neighbour ``p``'s arcs ``p->x``
    dearer than its arc ``p->s`` and ``dist(s, x)`` together. Folds each
    ``pending`` in-neighbour left with the one arc ``p->s``, clears it in
    ``pending`` and returns those folded (see the module docstring)."""
    plain, bundles, target = pg.plain, pg.bundles, pg.target
    heappop, heappush = heapq.heappop, heapq.heappush
    ports = len(plain)
    shift = ports.bit_length()
    mask = (1 << shift) - 1
    src = pg.h_in_of[s]
    dist = [pg.far] * ports
    sigma = [0] * ports
    dist[src] = 0
    sigma[src] = 1
    order = []
    heap = [src]
    # keyed by (distance << shift) | port, which orders as (distance, port):
    # a positive arc raises the distance and a zero arc leads to a higher
    # port, so every shortest-path predecessor settles first: the settle
    # order is topological and sigma is final as a port settles, when L and
    # reached take it
    L = 1
    reached = -1  # the nodes other than s reached, stripped leaves included
    while heap:
        key = heappop(heap)
        v = key & mask
        d = key >> shift
        if d > dist[v]:
            continue
        order.append(v)
        sv = sigma[v]
        t = target[v]
        if t:  # an out port, with plain arcs only
            reached += t
            if L % sv:
                L = math.lcm(L, sv)
            for dst, weight in plain[v]:
                dd = d + weight
                known = dist[dst]
                if dd < known:
                    dist[dst] = dd
                    sigma[dst] = sv
                    heappush(heap, (dd << shift) | dst)
                elif dd == known:
                    sigma[dst] += sv
        else:  # a cluster entry, with bundles only
            for dst, mult, _ in bundles[v]:
                known = dist[dst]
                if d < known:
                    dist[dst] = d
                    sigma[dst] = sv * mult
                    heappush(heap, (d << shift) | dst)
                elif d == known:
                    sigma[dst] += sv * mult

    # keep only the tight arcs out of s, and out of each in-neighbour p only
    # the arcs p->x that cost no more than p->s and a shortest route from s
    # to x: the others are on no shortest path from any source, so no later
    # pass needs them
    h_in_of, h_out_of, in_arcs = pg.h_in_of, pg.h_out_of, pg.in_arcs
    leaves, leaf_targets, extra = pg.leaves, pg.leaf_targets, sums[1]
    home = h_out_of[s]
    base = dist[home]
    plain[home] = [arc for arc in plain[home] if base + arc[1] == dist[arc[0]]]
    # each folded leaf repeats this pass one arc further out, so every
    # target counts M times; s is interior to no pair of its own, only to
    # every pair (leaf, t) for t reached and not the leaf
    M = 1 + leaves[s]
    extra[s] += (M - 1) * reached - leaf_targets[s]
    E = [0] * ports
    folded = []
    for p, _, w_ps in in_arcs[src]:
        out = h_out_of[p]
        arcs = plain[out] = [arc for arc in plain[out] if arc[1] <= w_ps + dist[arc[0]]]
        # left with only p->s, p's pass and its leaves' repeat this one arc
        # further out too: fold p, unless a zero-fee cluster holds p or s,
        # or p is another share's or has run. Prune p's in-neighbours as
        # its pass would, and count every target M times but p's own port,
        # which p and its leaves do not reach through s.
        if len(arcs) == 1 and pending[p] and arcs[0][0] == src == home and h_in_of[p] == out:
            pending[p] = 0
            folded.append(p)
            for q, _, w_qp in in_arcs[out]:
                q_out = h_out_of[q]
                plain[q_out] = [arc for arc in plain[q_out] if arc[1] <= w_qp + w_ps + dist[arc[0]]]
            kp = 1 + leaves[p]
            M += kp
            gp = target[out] if dist[out] < pg.far else 0
            if gp:
                E[out] = -(kp * gp * L // sigma[out])
                extra[p] += kp
            extra[s] += kp * (reached - gp)
            extra[p] += (kp - 1) * (reached - gp + target[out]) - leaf_targets[p]

    # pull E over the shortest-path arcs, successors first (see the module
    # docstring). An out port's E is final once pulled, so its node is
    # credited then, and a bundle credits the members it visits as it is
    # pulled.
    LM = L * M
    numerators = sums[L]
    node_of = pg.node_of
    for v in reversed(order):
        d, sv = dist[v], sigma[v]
        t = target[v]
        if t:
            e = E[v] + t * LM // sv
            for w, weight in plain[v]:
                if d + weight == dist[w]:
                    e += E[w]
            E[v] = e
            u = node_of[v]
            if u != s:
                numerators[u] += sv * e - LM
        else:
            e = 0
            for w, mult, visits in bundles[v]:
                if d == dist[w]:
                    ew = E[w]
                    e += mult * ew
                    credit = sv * ew
                    for member, count in visits:
                        if member != s:
                            numerators[member] += credit * count
            E[v] = e
    return folded


def _credit(pg: _PortGraph, sources: list[int]) -> list[Value]:
    """Summed credits of the passes of ``sources``, each run unless an
    earlier one folded it in: each pass adds to the numerators of its
    denominator, and each (denominator, node) divides once. A node outside
    ``sources`` is another share's and never folds here."""
    n = len(pg.h_out_of)
    sums: defaultdict[int, list[int]] = defaultdict(lambda: [0] * n)
    pending = bytearray(n)
    for s in sources:
        pending[s] = 1
    for s in sources:
        if pending[s]:
            pending[s] = 0
            _source_pass(pg, s, sums, pending)
    total: list[Value] = sums.pop(1, [0] * n)
    for L, numerators in sums.items():
        for u, numerator in enumerate(numerators):
            if numerator:
                q, rem = divmod(numerator, L)
                total[u] += q if rem == 0 else Fraction(numerator, L)
    return total


def _share_credits(pgs: list[_PortGraph], share: int, workers: int) -> list[list[Value]]:
    """Per graph, the credits of share ``share`` of ``workers``: the passes
    of every ``workers``-th source from the ``share``-th on, hubs first."""
    return [_credit(pg, pg.sources[share::workers]) for pg in pgs]


class _ForkedShare:
    """One share of the passes, run in a forked child.

    The child starts with the parent's port graphs, shared page by page
    until either side writes to them, so nothing is sent to it. It pickles
    its credits, or the exception its share raised, into a pipe and leaves
    by ``os._exit``: it never returns into the parent's code, so nothing
    the parent buffered is flushed twice. The CLI starts no threads, so the
    fork copies no lock held by another thread. ``pickle`` and ``signal``
    are imported here, so a serial call loads neither.
    """

    def __init__(self, pgs: list[_PortGraph], share: int, workers: int):
        import pickle

        self.share = share
        read_end, write_end = os.pipe()
        try:
            self.pid = os.fork()
        except OSError:
            os.close(read_end)
            os.close(write_end)
            raise
        if self.pid == 0:
            status = 1
            try:
                os.close(read_end)
                try:
                    outcome = _share_credits(pgs, share, workers)
                except Exception as exc:
                    outcome = exc
                with open(write_end, "wb") as pipe:
                    pickle.dump(outcome, pipe, pickle.HIGHEST_PROTOCOL)
                status = 0
            finally:
                os._exit(status)
        os.close(write_end)
        self.pipe = open(read_end, "rb")

    def result(self) -> list[list[Value]]:
        """The child's credits, read to the end of the pipe once the child
        has exited and been reaped. Its exception is raised again; a child
        that died, by a signal, a non-zero exit or before its result was
        whole, raises ChildProcessError."""
        import pickle

        with self.pipe:
            data = self.pipe.read()
        status = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
        self.pid = 0
        if status < 0:
            raise ChildProcessError(f"betweenness worker {self.share} was killed by signal {-status}")
        if status > 0:
            raise ChildProcessError(f"betweenness worker {self.share} exited with status {status}")
        try:
            outcome = pickle.loads(data)
        except (EOFError, pickle.UnpicklingError):
            raise ChildProcessError(f"betweenness worker {self.share} exited without its result") from None
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    def kill(self) -> None:
        """Kill and reap the child unless it has been reaped."""
        import signal

        if self.pid:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = 0
        self.pipe.close()


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def betweenness_reports(graphs: list[WeightedDigraph], processes: Optional[int] = None) -> list[CentralityReport]:
    """``betweenness`` of each graph, with one set of workers for all of them.

    Every graph is checked and prepared before a worker starts. At most
    ``processes`` workers run, no more than the largest graph has sources
    and no more than the usable CPUs; each runs one strided share of
    every graph's passes, share 0 in this process and each other share in a
    forked child, and the results are independent of ``processes``. A
    child's exception is raised again, and a child that died raises
    ChildProcessError; on any failure the other children are killed and
    reaped first.
    """
    pgs = [_prepare(graph) for graph in graphs]
    passes = max((len(pg.sources) for pg in pgs), default=0)
    workers = max(1, min(processes or 1, passes, _usable_cpus()))
    children: list[_ForkedShare] = []
    try:
        for share in range(1, workers):
            children.append(_ForkedShare(pgs, share, workers))
        shares = [_share_credits(pgs, 0, workers)]
        shares += [child.result() for child in children]
    finally:
        for child in children:
            child.kill()
    return [
        CentralityReport(graph.as_of, graph.amount_msat, dict(zip(graph.node_ids, map(sum, zip(*credits)))))
        for graph, credits in zip(graphs, zip(*shares))
    ]


def betweenness(
    graph: WeightedDigraph,
    processes: Optional[int] = None,
    *,
    exact: bool = False,  # ignored: the benchmark still passes it, until ROADMAP item 1
) -> CentralityReport:
    """Unnormalized betweenness of every node, endpoints excluded.

    For node v this is the sum over ordered pairs (s, t), s != t, v not in
    {s, t}, of the fraction of minimum-fee s->t paths passing through v,
    exactly: an int, or a Fraction where shortest-path ties leave one. One
    source pass runs per node that keeps a port, unless a neighbour's pass
    folds it in; degree-1 leaves have none and are accounted for by their
    neighbour's pass (see the module docstring). Up to ``processes`` workers
    each run a strided share of the passes, capped as in
    ``betweenness_reports``; the result is independent of ``processes``.
    """
    return betweenness_reports([graph], processes)[0]


def brute_force_betweenness(graph: WeightedDigraph) -> CentralityReport:
    """Independent oracle: enumerate every simple path per ordered pair,
    keep the cheapest ones, count directly. Exact rationals; factorial
    blowup caps the graph at 12 nodes."""
    n = len(graph.node_ids)
    if n > BRUTE_FORCE_MAX_NODES:
        raise ValueError(f"{n} nodes exceeds brute-force bound {BRUTE_FORCE_MAX_NODES}")
    for _, _, weight in graph.arcs:
        if weight < 0:
            raise ValueError(f"negative arc weight {weight}")
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
    """Entries sorted by descending written (float) value, then node id, so
    that a report read back from its JSON ranks the same."""
    return sorted(report.values.items(), key=lambda kv: (-float(kv[1]), kv[0]))


def report_to_csv(report: CentralityReport) -> str:
    return dump_table(("node_id", "betweenness"), ((node_id.hex(), float(value)) for node_id, value in report_items(report)))


def report_document(report: CentralityReport) -> dict:
    """The report as a JSON document, values written as floats."""
    return {
        "format": REPORT_FORMAT,
        "version": REPORT_VERSION,
        "as_of": report.as_of,
        "amount_msat": report.amount_msat,
        "leaf_count": report.leaf_count,
        "values": {
            node_id.hex(): float(value) for node_id, value in report.values.items()
        },
    }


def report_to_json(report: CentralityReport) -> str:
    return dump_document(report_document(report))


def report_from_json(text: str) -> CentralityReport:
    """Parse a report document. Node ids must be 66 lowercase hex digits
    starting with 02 or 03, and values finite, non-negative JSON numbers;
    anything else, a field of the wrong type or a repeated key, raises
    ValueError."""
    return load_document(text, REPORT_FORMAT, REPORT_VERSION, "report", _report_from_doc)


def _report_from_doc(doc: dict) -> CentralityReport:
    values = typed(doc, "values", dict)
    for node_hex in values:
        # the bound also excludes NaN, infinities and integers too large
        # for a float
        value = typed(values, node_hex, int, float)
        if not 0 <= value <= sys.float_info.max:
            raise ValueError(f"value {value!r} of node {node_hex} is not a finite number >= 0")
    return CentralityReport(
        as_of=typed(doc, "as_of", int),
        amount_msat=uint(doc, "amount_msat", 64),
        values={parse_node_id(node_hex): float(value) for node_hex, value in values.items()},
    )
