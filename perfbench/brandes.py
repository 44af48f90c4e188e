"""Independent fee-weighted betweenness, vectorised over blocks of sources.

Used to check the program's centrality reports; it shares no code with
``lntm.centrality``. Semantics are the program's documented ones: for node
v, the sum over ordered pairs (s, t), s != t, v not in {s, t}, of the share
of minimum-fee simple s->t paths through v.

Zero-fee arcs that form cycles would make walk counts diverge from path
counts, so each zero-weight strongly connected cluster is replaced by entry
and exit ports joined by "bundle" arcs that carry the number of simple
zero-cost routes between two members and how often each other member is
visited on them. The resulting port graph has no zero-weight cycle, so
Brandes' recurrences hold on it:

    sigma[v] = sum over DAG arcs (u, v) of sigma[u] * mult
    delta[u] = sum over DAG arcs (u, v) of sigma[u] * mult / sigma[v] * (target[v] + delta[v])

Both are solved for a whole block of sources at once by fixed-point
iteration on a block-diagonal sparse matrix; on a DAG the iteration is exact
after (depth + 1) steps. Distances come from scipy's Dijkstra, exact because
every weight is an integer far below 2**53.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import dijkstra

from reference import zero_clusters

BLOCK = 128


def _routes(members: list[int], zero_out: dict[int, list[int]]):
    """(x, y) -> (simple zero-route count, {interior member: visits})."""
    table: dict[tuple[int, int], list] = {}

    def walk(path: list[int]) -> None:
        for nxt in zero_out[path[-1]]:
            if nxt in path:
                continue
            entry = table.setdefault((path[0], nxt), [0, {}])
            entry[0] += 1
            for w in path[1:]:
                entry[1][w] = entry[1].get(w, 0) + 1
            walk(path + [nxt])

    for x in members:
        walk([x])
    return table


class PortGraph:
    def __init__(self, n: int, arcs: list[tuple[int, int, int]]):
        clusters = zero_clusters(arcs)
        cluster_of = np.full(n, -1)
        for ci, members in enumerate(clusters):
            cluster_of[members] = ci
        self.in_port = np.zeros(n, dtype=np.int64)
        self.out_port = np.zeros(n, dtype=np.int64)
        ports = 0
        for u in range(n):
            self.in_port[u] = ports
            ports += 1 if cluster_of[u] < 0 else 2
            self.out_port[u] = ports - 1
        self.ports = ports
        self.trivial = np.flatnonzero(cluster_of < 0)
        self.is_target = np.zeros(ports, dtype=bool)
        self.is_target[self.out_port] = True

        src, dst, weight, mult = [], [], [], []
        for u, v, w in arcs:
            if cluster_of[u] >= 0 and cluster_of[u] == cluster_of[v]:
                continue  # inside a cluster only zero routes can be shortest
            src.append(self.out_port[u]); dst.append(self.in_port[v]); weight.append(w); mult.append(1)
        bundle_x, bundle_y, bundle_count, bundle_edge = [], [], [], []
        interior_node, interior_visits, interior_ptr = [], [], [0]
        for members in clusters:
            inside = set(members)
            zero_out = {u: [] for u in members}
            for u, v, w in arcs:
                if w == 0 and u in inside and v in inside:
                    zero_out[u].append(v)
            table = {(x, x): [1, {}] for x in members}
            table.update(_routes(members, zero_out))
            for (x, y), (count, visits) in sorted(table.items()):
                bundle_edge.append(len(src)); bundle_x.append(x); bundle_y.append(y); bundle_count.append(count)
                for w, c in sorted(visits.items()):
                    interior_node.append(w); interior_visits.append(c)
                interior_ptr.append(len(interior_node))
                src.append(self.in_port[x]); dst.append(self.out_port[y]); weight.append(0); mult.append(count)
        self.src = np.array(src, dtype=np.int64)
        self.dst = np.array(dst, dtype=np.int64)
        self.weight = np.array(weight, dtype=np.float64)
        self.mult = np.array(mult, dtype=np.float64)
        self.bundle_of_edge = np.full(len(src), -1, dtype=np.int64)
        self.bundle_of_edge[np.array(bundle_edge, dtype=np.int64)] = np.arange(len(bundle_edge))
        self.bundle_x = np.array(bundle_x, dtype=np.int64)
        self.bundle_y = np.array(bundle_y, dtype=np.int64)
        self.bundle_count = np.array(bundle_count, dtype=np.float64)
        self.interior_node = np.array(interior_node, dtype=np.int64)
        self.interior_visits = np.array(interior_visits, dtype=np.float64)
        self.interior_ptr = np.array(interior_ptr, dtype=np.int64)
        self.matrix = sp.csr_matrix((self.weight, (self.src, self.dst)), shape=(ports, ports))


def _fixed_point(base: np.ndarray, step) -> np.ndarray:
    value = base.copy()
    for _ in range(len(base) + 1):
        new = step(value)
        if np.array_equal(new, value):
            return new
        value = new
    raise RuntimeError("no fixed point: the shortest-path graph has a cycle")


def betweenness(n: int, arcs: list[tuple[int, int, int]], block: int = BLOCK) -> np.ndarray:
    """Betweenness of nodes 0..n-1 given unique (src, dst, weight) arcs."""
    credit = np.zeros(n)
    if n < 3 or not arcs:
        return credit
    pg = PortGraph(n, arcs)
    H = pg.ports
    for lo in range(0, n, block):
        sources = np.arange(lo, min(n, lo + block))
        B = len(sources)
        dist = dijkstra(pg.matrix, directed=True, indices=pg.in_port[sources])
        d_src = dist[:, pg.src]
        on_dag = np.isfinite(d_src) & (d_src + pg.weight == dist[:, pg.dst])
        b, e = np.nonzero(on_dag)
        head = b * H + pg.dst[e]
        tail = b * H + pg.src[e]
        size = B * H

        forward = sp.csr_matrix((pg.mult[e], (head, tail)), shape=(size, size))
        seed = np.zeros(size)
        seed[np.arange(B) * H + pg.in_port[sources]] = 1.0
        sigma = _fixed_point(seed, lambda s: seed + forward @ s)

        target = np.tile(pg.is_target, B).astype(np.float64)
        target[np.arange(B) * H + pg.out_port[sources]] = 0.0
        ratio = sigma[tail] * pg.mult[e] / sigma[head]
        backward = sp.csr_matrix((ratio, (tail, head)), shape=(size, size))
        delta = _fixed_point(np.zeros(size), lambda d: backward @ (target + d))

        # trivial nodes: the dependency of their single port
        per_port = delta.reshape(B, H)[:, pg.out_port[pg.trivial]]
        per_port[pg.trivial[None, :] == sources[:, None]] = 0.0
        credit[pg.trivial] += per_port.sum(axis=0)

        # cluster members: credit carried by the bundle arcs on the DAG
        k = pg.bundle_of_edge[e]
        pos = np.flatnonzero(k >= 0)
        if len(pos) == 0:
            continue
        k = k[pos]
        s = sources[b[pos]]
        x, y = pg.bundle_x[k], pg.bundle_y[k]
        cont = ratio[pos] * delta[head[pos]]
        flow = cont + ratio[pos] * target[head[pos]]
        through = x != y
        np.add.at(credit, x, np.where(x == s, 0.0, np.where(through, flow, cont)))
        np.add.at(credit, y[through], cont[through])
        spans = pg.interior_ptr[k + 1] - pg.interior_ptr[k]
        rows = np.repeat(np.arange(len(k)), spans)
        items = np.repeat(pg.interior_ptr[k], spans) + np.arange(rows.size) - np.repeat(np.cumsum(spans) - spans, spans)
        np.add.at(credit, pg.interior_node[items], flow[rows] * pg.interior_visits[items] / pg.bundle_count[k[rows]])
    return credit
