"""Centrality kernel tests: fee weighting, hand fixtures, oracle equivalence."""

import json
import os
import pickle
import random
import signal
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from lntm import centrality
from lntm.centrality import (
    CentralityReport,
    WeightedDigraph,
    _credit,
    _prepare,
    _strong_components,
    betweenness,
    betweenness_reports,
    brute_force_betweenness,
    build_graph,
    fee_weight,
    report_from_json,
    report_items,
    report_to_csv,
    report_to_json,
)
from lntm.codec import U64_MAX
from lntm.replay import Arc, ChannelPolicy, RoutingView

import msggen


def policy(base=0, ppm=0, htlc_min=0, htlc_max=None, disabled=False, ts=0):
    return ChannelPolicy(
        fee_base_msat=base,
        fee_proportional_millionths=ppm,
        cltv_expiry_delta=40,
        htlc_minimum_msat=htlc_min,
        htlc_maximum_msat=htlc_max,
        disabled=disabled,
        last_update_ts=ts,
    )


def make_graph(labels, edges, amount=0):
    """Graph from letter labels and (src, dst, weight) triples."""
    ids = {ch: msggen.node_id(ord(ch)) for ch in labels}
    node_ids = tuple(sorted(ids.values()))
    index = {nid: i for i, nid in enumerate(node_ids)}
    arcs = [(index[ids[a]], index[ids[b]], w) for a, b, w in edges]
    graph = WeightedDigraph.from_arcs(node_ids, arcs, amount_msat=amount)
    return graph, ids


def by_label(report, ids):
    return {label: report.values[nid] for label, nid in ids.items()}


def make_view(labels, arc_defs, as_of=0):
    """RoutingView from (src_label, dst_label, policy) triples."""
    ids = {ch: msggen.node_id(ord(ch)) for ch in labels}
    arcs = []
    for i, (a, b, pol) in enumerate(arc_defs):
        arcs.append(Arc(msggen.scid(i + 1), 0, ids[a], ids[b], pol))
    return RoutingView(as_of=as_of, nodes=tuple(sorted(ids.values())), arcs=tuple(arcs)), ids


class TestFeeWeight:
    def test_reference_point(self):
        # 0.0001 BTC transfer: 1000 base + 10^7 * 100 / 10^6 = 2000 msat
        assert fee_weight(policy(base=1000, ppm=100), 10_000_000) == 2000

    def test_zero_fee(self):
        assert fee_weight(policy(), 10**10) == 0

    def test_floor_division_boundary(self):
        assert fee_weight(policy(base=1, ppm=1), 999_999) == 1
        assert fee_weight(policy(base=1, ppm=1), 1_000_000) == 2

    def test_overflow_flags_corrupt_policy(self):
        with pytest.raises(ValueError, match=r"^fee \d+ msat exceeds u64 \(base=4294967295, ppm=4294967295, amount=18446744073709551615\)$"):
            fee_weight(policy(base=2**32 - 1, ppm=2**32 - 1), 2**64 - 1)

    def test_amount_out_of_range(self):
        with pytest.raises(ValueError):
            fee_weight(policy(), 2**64)


class TestBuildGraph:
    def test_parallel_channels_collapse_to_min(self):
        view, ids = make_view("ab", [("a", "b", policy(base=5)), ("a", "b", policy(base=3))])
        graph = build_graph(view, 0)
        assert graph.arcs == ((0, 1, 3),)

    def test_htlc_bounds_exclude_arc_only_when_enforced(self):
        view, _ = make_view("ab", [("a", "b", policy(htlc_min=10**9))])
        assert len(build_graph(view, 10**7).arcs) == 1
        assert build_graph(view, 10**7, enforce_htlc_bounds=True).arcs == ()

    def test_htlc_maximum_bound(self):
        view, _ = make_view("ab", [("a", "b", policy(htlc_max=10**6))])
        assert build_graph(view, 10**7, enforce_htlc_bounds=True).arcs == ()
        assert len(build_graph(view, 10**5, enforce_htlc_bounds=True).arcs) == 1

    def test_empty_view(self):
        view, _ = make_view("ab", [])
        graph = build_graph(view, 10**7)
        assert graph.arcs == ()
        assert len(graph.node_ids) == 2

    def test_amount_is_recorded(self):
        view, _ = make_view("ab", [("a", "b", policy(ppm=250))])
        graph = build_graph(view, 10**7)
        assert graph.amount_msat == 10**7
        assert graph.arcs[0][2] == 2500

    def test_self_arc_dropped(self):
        # snapshot_from_json and the codec reject equal channel ends, so only
        # a RoutingView built in code, as here, can hold a self-arc
        view, _ = make_view("ab", [("a", "a", policy()), ("a", "b", policy(base=7))])
        assert build_graph(view, 0).arcs == ((0, 1, 7),)

    @pytest.mark.parametrize(
        "arc, message",
        [
            ((0, 2, 1), r"arc \(0,2\) outside node range"),
            ((-1, 0, 1), r"arc \(-1,0\) outside node range"),
            ((1, 1, 1), "self-arc at node 1"),
        ],
    )
    def test_from_arcs_rejects_bad_endpoints(self, arc, message):
        node_ids = (msggen.node_id(1), msggen.node_id(2))
        with pytest.raises(ValueError, match=message):
            WeightedDigraph.from_arcs(node_ids, [(0, 1, 1), arc])


class TestBetweennessFixtures:
    def test_directed_three_cycle(self):
        graph, ids = make_graph("abc", [("a", "b", 1), ("b", "c", 1), ("c", "a", 1)])
        values = by_label(betweenness(graph), ids)
        assert values == {"a": 1.0, "b": 1.0, "c": 1.0}

    def test_bidirected_path(self):
        graph, ids = make_graph(
            "abc", [("a", "b", 1), ("b", "a", 1), ("b", "c", 1), ("c", "b", 1)]
        )
        values = by_label(betweenness(graph), ids)
        assert values == {"a": 0.0, "b": 2.0, "c": 0.0}

    def test_star_center(self):
        edges = []
        for leaf in "abcd":
            edges.append(("h", leaf, 1))
            edges.append((leaf, "h", 1))
        graph, ids = make_graph("habcd", edges)
        values = by_label(betweenness(graph), ids)
        assert values["h"] == 12.0  # all 4*3 ordered leaf pairs
        assert all(values[leaf] == 0.0 for leaf in "abcd")

    def test_equal_cost_paths_split_credit(self):
        # two parallel two-hop routes of equal cost share the pair
        graph, ids = make_graph(
            "sabt", [("s", "a", 1), ("a", "t", 1), ("s", "b", 1), ("b", "t", 1)]
        )
        values = by_label(betweenness(graph), ids)
        assert values["a"] == 0.5
        assert values["b"] == 0.5

    def test_empty_and_single_node(self):
        empty = WeightedDigraph((), ())
        assert betweenness(empty).values == {}
        one = WeightedDigraph((msggen.node_id(1),), ())
        assert betweenness(one).values == {msggen.node_id(1): 0.0}

    def test_negative_weight_rejected(self):
        graph, _ = make_graph("ab", [("a", "b", -1)])
        with pytest.raises(ValueError, match=r"^negative arc weight -1$"):
            betweenness(graph)


class TestPathCountsBeyondFloatRange:
    def test_diamond_chain_credits_stay_exact(self):
        # junction j_i fans out to two middle nodes that rejoin at j_{i+1};
        # j_k has 2^k shortest paths from j_0, far past float range
        k = 1100
        junction = [3 * i for i in range(k + 1)]
        arcs = []
        for i in range(k):
            for middle in (junction[i] + 1, junction[i] + 2):
                arcs += [(junction[i], middle, 1), (middle, junction[i + 1], 1)]
        graph = WeightedDigraph.from_arcs(
            tuple(msggen.node_id(i) for i in range(3 * k + 1)), arcs
        )
        credit = _credit(_prepare(graph), [junction[0]])
        assert credit[junction[0]] == 0
        for i in range(k):
            beyond = 3 * (k - i - 1)
            assert credit[junction[i + 1]] == beyond
            assert credit[junction[i] + 1] == credit[junction[i] + 2] == (beyond + 1) / 2


    def test_tiny_share_is_not_rounded_away(self):
        # a bypass s->x->t ties with the 2^60 paths of a diamond chain, so x
        # carries 1/(2^60 + 1) of the pair (s, t)
        k = 60
        junction = [3 * i for i in range(k + 1)]
        arcs = []
        for i in range(k):
            for middle in (junction[i] + 1, junction[i] + 2):
                arcs += [(junction[i], middle, 1), (middle, junction[i + 1], 1)]
        x = 3 * k + 1
        arcs += [(junction[0], x, k), (x, junction[k], k)]
        graph = WeightedDigraph.from_arcs(tuple(msggen.node_id(i) for i in range(x + 1)), arcs)
        share = Fraction(1, 2**k + 1)
        report = betweenness(graph)
        assert report.values[graph.node_ids[x]] == share
        assert json.loads(report_to_json(report))["values"][graph.node_ids[x].hex()] == float(share)


class TestBruteForce:
    def test_single_arc_all_zero(self):
        graph, ids = make_graph("ab", [("a", "b", 1)])
        values = by_label(brute_force_betweenness(graph), ids)
        assert values == {"a": 0, "b": 0}

    def test_three_cycle_matches_kernel(self):
        graph, _ = make_graph("abc", [("a", "b", 1), ("b", "c", 1), ("c", "a", 1)])
        assert brute_force_betweenness(graph).values == betweenness(graph).values

    def test_star_center_twelve(self):
        edges = []
        for leaf in "abcd":
            edges.append(("h", leaf, 1))
            edges.append((leaf, "h", 1))
        graph, ids = make_graph("habcd", edges)
        assert by_label(brute_force_betweenness(graph), ids)["h"] == 12

    def test_too_large(self):
        node_ids = tuple(msggen.node_id(i) for i in range(13))
        with pytest.raises(ValueError, match=r"^13 nodes exceeds brute-force bound 12$"):
            brute_force_betweenness(WeightedDigraph(node_ids, ()))

    def test_negative_weight_rejected(self):
        graph, _ = make_graph("abc", [("a", "b", 1), ("b", "c", -1)])
        with pytest.raises(ValueError, match=r"^negative arc weight -1$"):
            brute_force_betweenness(graph)


class TestExactValues:
    def test_tie_free_path_gives_ints_only(self):
        graph, ids = make_graph("abcde", [(x, y, 2) for x, y in ("ab", "bc", "cd", "de")])
        values = by_label(betweenness(graph), ids)
        assert values == {"a": 0, "b": 3, "c": 4, "d": 3, "e": 0}
        assert {type(v) for v in values.values()} == {int}

    def test_diamond_tie_gives_a_fraction(self):
        graph, ids = make_graph("sabt", [("s", "a", 1), ("s", "b", 1), ("a", "t", 1), ("b", "t", 1)])
        values = by_label(betweenness(graph), ids)
        assert values["a"] == values["b"] == Fraction(1, 2)
        assert type(values["a"]) is Fraction


class TestHugeCosts:
    def test_fees_near_u64_max_match_brute_force(self):
        # the heap key (distance << shift) | port and an unreached port's
        # bound are plain ints: a path of several arcs near U64_MAX costs
        # far beyond 64 bits, and its ties (two arcs of U64_MAX // 2 against
        # one of U64_MAX - 1) and zero-fee clusters must still count exactly
        rng = random.Random(64)
        weights = (0, 0, U64_MAX, U64_MAX - 1, U64_MAX // 2)
        clustered = tied = 0
        for _ in range(200):
            n = rng.randrange(3, 10)
            arcs = [(u, v, rng.choice(weights)) for u in range(n) for v in range(n) if u != v and rng.random() < 0.35]
            graph = WeightedDigraph.from_arcs(tuple(msggen.node_id(i) for i in range(n)), arcs)
            pg = _prepare(graph)
            clustered += pg.h_in_of != pg.h_out_of
            values = betweenness(graph).values
            assert values == brute_force_betweenness(graph).values
            tied += any(isinstance(v, Fraction) for v in values.values())
        assert clustered > 20
        assert tied > 20


class TestStrongComponents:
    """``_prepare`` numbers ports in the order ``_strong_components`` emits
    its components, so that order is part of the contract."""

    @staticmethod
    def check(n, adj):
        """The components equal networkx's, and every arc that leaves a
        component enters one emitted earlier."""
        import networkx as nx  # test-only oracle

        components = _strong_components(n, adj)
        digraph = nx.DiGraph()
        digraph.add_nodes_from(range(n))
        digraph.add_edges_from((u, v) for u in range(n) for v in adj[u])
        assert sorted(map(sorted, components)) == sorted(map(sorted, nx.strongly_connected_components(digraph)))
        position = {u: i for i, component in enumerate(components) for u in component}
        for u in range(n):
            for v in adj[u]:
                assert position[v] <= position[u]

    def test_random_digraphs_match_networkx_in_reverse_topological_order(self):
        rng = random.Random(21)
        for _ in range(400):
            n = rng.randrange(0, 40)
            density = rng.choice([0.02, 0.05, 0.1, 0.3])
            adj = [[v for v in range(n) if v != u and rng.random() < density] for u in range(n)]
            for row in adj:
                rng.shuffle(row)
            self.check(n, adj)

    def test_long_cycle_and_chain_do_not_recurse(self):
        n = 100_000
        cycle = _strong_components(n, [[(u + 1) % n] for u in range(n)])
        assert len(cycle) == 1 and sorted(cycle[0]) == list(range(n))
        chain = _strong_components(n, [[u + 1] for u in range(n - 1)] + [[]])
        assert chain == [[u] for u in reversed(range(n))]


class TestZeroWeights:
    def test_zero_chain_no_cycle(self):
        graph, ids = make_graph(
            "sabt", [("s", "a", 0), ("a", "b", 0), ("b", "t", 5)]
        )
        report = betweenness(graph)
        assert report.values == brute_force_betweenness(graph).values
        values = by_label(report, ids)
        assert values["a"] == 2  # (s,b), (s,t)
        assert values["b"] == 2  # (s,t), (a,t)

    def test_mutual_zero_pair_counts_simple_paths(self):
        # a<->b at zero fee forms a zero cycle; path counts must not blow up
        graph, ids = make_graph(
            "sabt", [("s", "a", 1), ("a", "b", 0), ("b", "a", 0), ("b", "t", 1)]
        )
        report = betweenness(graph)
        assert report.values == brute_force_betweenness(graph).values
        values = by_label(report, ids)
        assert values["a"] == 2  # interior of (s,b) and (s,t)
        assert values["b"] == 2  # interior of (s,t) and (a,t)

    def test_two_entries_into_zero_pair(self):
        graph, ids = make_graph(
            "sab", [("s", "a", 1), ("s", "b", 1), ("a", "b", 0), ("b", "a", 0)]
        )
        report = betweenness(graph)
        assert report.values == brute_force_betweenness(graph).values
        values = by_label(report, ids)
        assert values["a"] == Fraction(1, 2)
        assert values["b"] == Fraction(1, 2)

    def test_one_way_zero_triangle(self):
        graph, _ = make_graph(
            "sabct",
            [
                ("s", "a", 2),
                ("a", "b", 0),
                ("b", "c", 0),
                ("c", "a", 0),
                ("c", "t", 3),
            ],
        )
        assert betweenness(graph).values == brute_force_betweenness(graph).values

    def test_dense_zero_cluster(self):
        members = "abcd"
        edges = [(x, y, 0) for x in members for y in members if x != y]
        edges += [("s", "a", 1), ("c", "t", 1), ("s", "t", 9)]
        graph, _ = make_graph("sabcdt", edges)
        assert betweenness(graph).values == brute_force_betweenness(graph).values

    def test_random_zero_heavy_graphs(self):
        rng = random.Random(4242)
        for _ in range(150):
            n = rng.randrange(2, 7)
            node_ids = tuple(msggen.node_id(i) for i in range(n))
            arcs = []
            for u in range(n):
                for v in range(n):
                    if u != v and rng.random() < 0.45:
                        weight = 0 if rng.random() < 0.4 else rng.randrange(1, 20)
                        arcs.append((u, v, weight))
            graph = WeightedDigraph.from_arcs(node_ids, arcs)
            assert betweenness(graph).values == brute_force_betweenness(graph).values

    def test_cluster_budget_counts_visit_work(self, monkeypatch):
        # four mutually zero-fee nodes: 60 route extensions, which write
        # 132 visit counts; the budget bounds the visit work
        cluster, _ = make_graph("abcd", [(a, b, 0) for a in "abcd" for b in "abcd" if a != b])
        monkeypatch.setattr(centrality, "ZERO_CLUSTER_PATH_BUDGET", 100)
        with pytest.raises(ValueError, match=r"^at 0 msat: zero-fee cluster of 4 nodes \(0200000000000000…, 0200000000000000…, 0200000000000000…\) exceeds 100 route-enumeration steps$"):
            _prepare(cluster)
        monkeypatch.setattr(centrality, "ZERO_CLUSTER_PATH_BUDGET", 132)
        assert betweenness(cluster).values == brute_force_betweenness(cluster).values

    def test_budget_error_names_the_amount_the_size_and_three_ids(self, monkeypatch):
        # a 9-node zero-fee clique is over the budget; a small one keeps the
        # test fast. Node i's id starts 02 0i, so the ids' first 16 hex
        # digits differ
        node_ids = [bytes([0x02, i]) + bytes(31) for i in range(1, 10)]
        clique = WeightedDigraph.from_arcs(node_ids, [(u, v, 0) for u in range(9) for v in range(9) if u != v], 10**9)
        monkeypatch.setattr(centrality, "ZERO_CLUSTER_PATH_BUDGET", 1000)
        with pytest.raises(ValueError) as raised:
            betweenness_reports([clique])
        assert str(raised.value) == (
            "at 1000000000 msat: zero-fee cluster of 9 nodes "
            "(0201000000000000…, 0202000000000000…, 0203000000000000…) exceeds 1000 route-enumeration steps"
        )

    def test_ports_numbered_topologically(self):
        rng = random.Random(99)
        for _ in range(100):
            n = rng.randrange(2, 12)
            node_ids = tuple(msggen.node_id(i) for i in range(n))
            arcs = [
                (u, v, 0 if rng.random() < 0.5 else 1)
                for u in range(n)
                for v in range(n)
                if u != v and rng.random() < 0.3
            ]
            pg = _prepare(WeightedDigraph.from_arcs(node_ids, arcs))
            for port, (plain, bundles) in enumerate(zip(pg.plain, pg.bundles)):
                # plain arcs leave out ports, bundles cluster entry ports
                assert not (plain and bundles)
                for dst, weight in plain:
                    assert weight > 0 or dst > port
                for exit_port, _, _ in bundles:
                    assert exit_port > port


def random_graph(rng, max_nodes=10, edge_prob=0.3, zero_prob=0.08, max_weight=1000):
    n = rng.randrange(2, max_nodes + 1)
    node_ids = tuple(msggen.node_id(i) for i in range(n))
    arcs = []
    for u in range(n):
        for v in range(n):
            if u != v and rng.random() < edge_prob:
                weight = 0 if rng.random() < zero_prob else rng.randrange(0, max_weight + 1)
                arcs.append((u, v, weight))
    return WeightedDigraph.from_arcs(node_ids, arcs)


def assert_float_matches_networkx(graph):
    """Written values within 1e-9 relative of networkx (no zero-weight arcs)."""
    import networkx as nx  # test-only oracle
    nx_graph = nx.DiGraph()
    nx_graph.add_nodes_from(range(len(graph.node_ids)))
    nx_graph.add_weighted_edges_from(graph.arcs)
    want = nx.betweenness_centrality(nx_graph, weight="weight", normalized=False, endpoints=False)
    got = betweenness(graph).values
    for i, node_id in enumerate(graph.node_ids):
        assert abs(float(got[node_id]) - want[i]) <= 1e-9 * max(1.0, abs(want[i]))


def leafy_graph(rng, core=6, leaves=5, zero_prob=0.3, max_weight=20):
    """Random core (zero-fee clusters likely) with degree-1 nodes of every
    kind hung off it: two-way, leaf->hub only, hub->leaf only, zero-weight
    arcs either way, several on one hub, leaves of leaves, a two-node
    component and an isolated node."""
    arcs = []

    def weight():
        return 0 if rng.random() < zero_prob else rng.randrange(1, max_weight + 1)

    for u in range(core):
        for v in range(core):
            if u != v and rng.random() < 0.4:
                arcs.append((u, v, weight()))
    n = core
    for _ in range(leaves):
        leaf, n = n, n + 1
        hub = rng.randrange(leaf) if rng.random() < 0.2 else rng.randrange(core)
        kind = rng.choice(("both", "both", "out", "in"))
        if kind in ("both", "out"):
            arcs.append((leaf, hub, weight()))
        if kind in ("both", "in"):
            arcs.append((hub, leaf, weight()))
    if rng.random() < 0.5:  # two-node component
        kind = rng.choice(("both", "one-way"))
        arcs.append((n, n + 1, weight()))
        if kind == "both":
            arcs.append((n + 1, n, weight()))
        n += 2
    if rng.random() < 0.5:  # isolated node
        n += 1
    node_ids = tuple(msggen.node_id(i) for i in range(n))
    return WeightedDigraph.from_arcs(node_ids, arcs)


class TestLeafFolding:
    def test_exact_matches_brute_force_with_forced_leaves(self):
        rng = random.Random(1012)
        folded = 0
        hubs_in_clusters = 0
        for _ in range(300):
            graph = leafy_graph(
                rng, core=rng.randrange(1, 5), leaves=rng.randrange(1, 6)
            )
            pg = _prepare(graph)
            folded += len(graph.node_ids) - len(pg.sources)
            hubs_in_clusters += sum(
                1 for u, group in enumerate(pg.leaves) if group and pg.h_in_of[u] != pg.h_out_of[u]
            )
            assert betweenness(graph).values == brute_force_betweenness(graph).values
        # the fold must actually have applied, also on zero-fee cluster hubs
        assert folded > 300
        assert hubs_in_clusters > 10

    def test_star_plus_core_runs_one_pass_per_unfolded_node(self, monkeypatch):
        # core a-b-c-d; hub a gets a two-way leaf e, an f->a-only leaf f, an
        # a->g-only leaf g (stripped, no pass: no way out) and a zero-fee
        # leaf h; i-j is a two-node component (j folds into i); k is isolated
        edges = [(x, y, 3) for x, y in ("ab", "ba", "bc", "cb", "cd", "dc", "da", "ad")]
        edges += [("e", "a", 2), ("a", "e", 5), ("f", "a", 1), ("a", "g", 4)]
        edges += [("h", "a", 0), ("a", "h", 7), ("i", "j", 1), ("j", "i", 1)]
        graph, ids = make_graph("abcdefghijk", edges)
        index = {nid: i for i, nid in enumerate(graph.node_ids)}
        folded = {index[ids[x]] for x in "efghj"}
        calls = []
        real_pass = centrality._source_pass

        def counting_pass(pg, s, sums):
            calls.append(s)
            return real_pass(pg, s, sums)

        monkeypatch.setattr(centrality, "_source_pass", counting_pass)
        report = betweenness(graph)
        assert sorted(calls) == sorted(set(range(len(graph.node_ids))) - folded)
        assert report.values == brute_force_betweenness(graph).values
        assert by_label(report, ids)["a"] > 0

    def test_hub_with_only_leaves(self):
        # every leaf folds; the hub's credit comes from the fold alone
        edges = [(x, "h", 1) for x in "abcde"] + [("h", x, 1) for x in "abc"]
        graph, ids = make_graph("habcde", edges)
        assert len(_prepare(graph).sources) == 1
        values = by_label(betweenness(graph), ids)
        assert values["h"] == 5 * 3 - 3  # each leaf reaches the 3 others h reaches
        assert betweenness(graph).values == brute_force_betweenness(graph).values

    def test_float_mode_matches_networkx_with_40_percent_leaves(self):
        rng = random.Random(340)
        n, core = 300, 180
        arcs = [
            (u, v, rng.randrange(1, 6))
            for u in range(core)
            for v in rng.sample(range(core), 5)
            if u != v
        ]
        for leaf in range(core, n):
            hub = rng.randrange(core)
            kind = rng.choice(("both", "both", "out", "in"))
            if kind in ("both", "out"):
                arcs.append((leaf, hub, rng.randrange(1, 6)))
            if kind in ("both", "in"):
                arcs.append((hub, leaf, rng.randrange(1, 6)))
        graph = WeightedDigraph.from_arcs(tuple(msggen.node_id(i) for i in range(n)), arcs)
        # every leaf of each kind leaves the port graph
        assert sorted(_prepare(graph).sources) == list(range(core))
        assert_float_matches_networkx(graph)

    def test_prepare_leaf_and_port_bookkeeping_on_a_hand_built_graph(self):
        # hub 2 has leaves on both sides of its index, so a two-way leaf's
        # arcs come in either order: 0 and 4 two-way, 1 only 1->2, 3 only
        # 2->3. 5->7->6->5 is a zero-fee cluster that Tarjan emits as
        # [6, 7, 5], and 8 is a leaf of its member 6 by a zero arc. 9-10 is
        # a two-node component (10 folds into 9); 11 is isolated.
        arcs = [(0, 2, 1), (2, 0, 2), (1, 2, 3), (2, 3, 4), (2, 4, 5), (4, 2, 6)]
        arcs += [(5, 7, 0), (7, 6, 0), (6, 5, 0), (5, 6, 9), (2, 5, 3), (6, 2, 4), (7, 2, 2)]
        arcs += [(8, 6, 0), (6, 8, 1), (9, 10, 1), (10, 9, 1)]
        graph = WeightedDigraph.from_arcs(tuple(msggen.node_id(i) for i in range(12)), arcs)
        pg = _prepare(graph)
        # ports in reverse Tarjan order: 11, 9, the cluster's entries then
        # exits (in the order 6, 7, 5), then the hub 2
        assert pg.node_of == [11, 9, -1, -1, -1, 6, 7, 5, 2]
        assert pg.h_in_of == [-1, -1, 8, -1, -1, 4, 2, 3, -1, 1, -1, 0]
        assert pg.h_out_of == [-1, -1, 8, -1, -1, 7, 5, 6, -1, 1, -1, 0]
        assert pg.target == [1, 2, 0, 0, 0, 2, 1, 1, 4]
        assert pg.leaves == [0, 0, 3, 0, 0, 0, 1, 0, 0, 1, 0, 0]
        assert pg.leaf_targets == [0, 0, 2, 0, 0, 0, 1, 0, 0, 1, 0, 0]
        assert pg.sources == [2, 6, 7, 5, 9, 11]
        assert pg.plain == [[], [], [], [], [], [(8, 4)], [(8, 2)], [], [(4, 3)]]
        assert betweenness(graph).values == brute_force_betweenness(graph).values

    def test_stripped_leaves_own_no_port_and_are_never_reached(self):
        rng = random.Random(1013)
        for _ in range(100):
            graph = leafy_graph(rng, core=rng.randrange(1, 6), leaves=rng.randrange(1, 8))
            pg = _prepare(graph)
            kept = set(pg.sources)
            stripped = set(range(len(graph.node_ids))) - kept
            owned = sorted({pg.h_in_of[u] for u in kept} | {pg.h_out_of[u] for u in kept})
            assert owned == list(range(len(pg.plain)))
            assert all(pg.h_in_of[u] == pg.h_out_of[u] == -1 for u in stripped)
            # each out port stands for its node and the stripped leaves it has an arc to
            targets = kept | {dst for _, dst, _ in graph.arcs if dst in stripped}
            assert sum(pg.target) == len(targets)
            for s in pg.sources:
                credit = _credit(pg, [s])
                assert all(credit[u] == 0 for u in stripped)


def plant_dominated_arcs(rng, graph, count):
    """GRAPH plus up to COUNT arcs u->v, each dearer than a two-hop route
    u->m->v, between nodes that had no arc u->v."""
    has_arc = {(u, v) for u, v, _ in graph.arcs}
    out = [[] for _ in graph.node_ids]
    for u, v, w in graph.arcs:
        out[u].append((v, w))
    shortcuts = sorted({
        (u, v, a + b)
        for u, m, a in graph.arcs
        for v, b in out[m]
        if v != u and (u, v) not in has_arc
    })
    planted = [(u, v, w + rng.randrange(1, 5)) for u, v, w in rng.sample(shortcuts, min(count, len(shortcuts)))]
    return WeightedDigraph.from_arcs(graph.node_ids, graph.arcs + tuple(planted), graph.amount_msat)


def out_targets(pg, graph, ids, label):
    """Labels of the nodes that LABEL's out port still has an arc to."""
    label_of = {nid: x for x, nid in ids.items()}
    entry = {pg.h_in_of[u]: label_of[nid] for u, nid in enumerate(graph.node_ids)}
    return {entry[dst] for dst, _ in pg.plain[pg.h_out_of[graph.node_ids.index(ids[label])]]}


def port_arcs(pg, weight=None):
    """Arcs left in the port graph, or those of one weight; bundles weigh 0."""
    weights = [w for arcs in pg.plain for _, w in arcs] + [0 for bundles in pg.bundles for _ in bundles]
    return sum(1 for w in weights if weight is None or w == weight)


class TestArcPruning:
    def test_planted_dominated_arcs_are_dropped_and_values_stay_exact(self):
        rng = random.Random(1400)
        dropped = with_clusters = 0
        for _ in range(150):
            core = leafy_graph(rng, core=rng.randrange(2, 7), leaves=rng.randrange(0, 4))
            graph = plant_dominated_arcs(rng, core, 4)
            assert len(graph.node_ids) <= 12
            pg = _prepare(graph)
            with_clusters += pg.h_in_of != pg.h_out_of
            arcs, zero_arcs = port_arcs(pg), port_arcs(pg, 0)
            credit = _credit(pg, pg.sources)
            dropped += arcs - port_arcs(pg)
            # a zero arc is always tight
            assert port_arcs(pg, 0) == zero_arcs
            want = brute_force_betweenness(graph).values
            assert dict(zip(graph.node_ids, credit)) == want
            assert betweenness(graph).values == want
            # the fully pruned port graph gives the same values again
            assert _credit(pg, pg.sources) == credit
        assert dropped > 100
        assert with_clusters > 20

    @staticmethod
    def cluster_graph():
        # a and b charge each other nothing and both have an arc to t: a's
        # is free, b's costs 5 and is dominated by b->a->t
        return make_graph("sabt", [("a", "b", 0), ("b", "a", 0), ("a", "t", 0), ("b", "t", 5), ("s", "a", 1), ("s", "b", 1)])

    def test_zero_arc_leaving_a_cluster_is_kept(self):
        graph, ids = self.cluster_graph()
        pg = _prepare(graph)
        credit = _credit(pg, pg.sources)
        assert out_targets(pg, graph, ids, "a") == {"t"}
        assert dict(zip(graph.node_ids, credit)) == brute_force_betweenness(graph).values

    def test_cluster_members_dominated_arc_is_dropped(self):
        graph, ids = self.cluster_graph()
        pg = _prepare(graph)
        assert out_targets(pg, graph, ids, "b") == {"t"}
        _credit(pg, [graph.node_ids.index(ids["b"])])
        assert out_targets(pg, graph, ids, "b") == set()
        assert out_targets(pg, graph, ids, "a") == {"t"}
        credit = _credit(pg, pg.sources)
        assert dict(zip(graph.node_ids, credit)) == brute_force_betweenness(graph).values

    def test_tied_arc_is_kept(self):
        # s->t ties with s->m->t
        graph, ids = make_graph("smt", [("s", "t", 4), ("s", "m", 2), ("m", "t", 2), ("t", "s", 1)])
        pg = _prepare(graph)
        credit = _credit(pg, [graph.node_ids.index(ids["s"])])
        assert out_targets(pg, graph, ids, "s") == {"t", "m"}
        assert credit[graph.node_ids.index(ids["m"])] == Fraction(1, 2)
        assert betweenness(graph).values == brute_force_betweenness(graph).values

    def test_workers_prune_different_arcs_and_write_the_same_bytes(self):
        rng = random.Random(1401)
        base = leafy_graph(rng, core=70, leaves=10, zero_prob=0.01)
        # nodes 0, 1 and 2 charge each other nothing
        cluster = tuple((u, v, 0) for u in range(3) for v in range(3) if u != v)
        base = WeightedDigraph.from_arcs(base.node_ids, base.arcs + cluster)
        graph = plant_dominated_arcs(rng, base, 300)
        pg = _prepare(graph)
        assert pg.h_in_of[:3] != pg.h_out_of[:3]
        # two shares of the passes, each on its own copy, leave different arcs
        copies = [_prepare(graph) for _ in range(2)]
        for share, copy in enumerate(copies):
            _credit(copy, copy.sources[share::2])
        assert copies[0].plain != copies[1].plain
        arcs = port_arcs(pg)
        serial = _credit(pg, pg.sources)
        assert arcs - port_arcs(pg) > 300
        # every pass on a port graph that no other pass has pruned
        unpruned = [sum(credits) for credits in zip(*(_credit(_prepare(graph), [s]) for s in pg.sources))]
        assert serial == unpruned
        want = report_to_json(CentralityReport(graph.as_of, graph.amount_msat, dict(zip(graph.node_ids, unpruned))))
        for processes in (1, 2, 3):
            assert report_to_json(betweenness_reports([graph], processes=processes)[0]) == want


class TestOracleEquivalence:
    def test_exact_match_on_random_graphs(self):
        rng = random.Random(20_21)
        for _ in range(120):
            graph = random_graph(rng)
            assert betweenness(graph).values == brute_force_betweenness(graph).values

    def test_written_values_are_correctly_rounded(self):
        # the same graphs as the exact match: every value in the report
        # JSON and CSV is the float nearest the oracle's rational
        rng = random.Random(20_21)
        for _ in range(120):
            graph = random_graph(rng)
            report = betweenness(graph)
            want = {nid.hex(): float(v) for nid, v in brute_force_betweenness(graph).values.items()}
            assert json.loads(report_to_json(report))["values"] == want
            rows = report_to_csv(report).splitlines()[1:]
            assert {nid: float(v) for nid, v in (row.split(",") for row in rows)} == want

    def test_float_mode_matches_networkx_at_300_nodes(self):
        rng = random.Random(300)
        n = 300
        node_ids = tuple(msggen.node_id(i) for i in range(n))
        # small weights make equal-cost ties common
        arcs = [
            (u, v, rng.randrange(1, 6))
            for u in range(n)
            for v in rng.sample(range(n), 6)
            if u != v
        ]
        assert_float_matches_networkx(WeightedDigraph.from_arcs(node_ids, arcs))


class TestInvariants:
    def test_uniform_scaling_leaves_report_unchanged(self):
        rng = random.Random(31)
        for _ in range(20):
            graph = random_graph(rng)
            scaled = WeightedDigraph(
                graph.node_ids,
                tuple((u, v, w * 7) for u, v, w in graph.arcs),
            )
            assert betweenness(graph).values == betweenness(scaled).values

    def test_leaves_score_zero(self):
        rng = random.Random(32)
        for _ in range(20):
            graph = random_graph(rng)
            n = len(graph.node_ids)
            out_deg = [0] * n
            in_deg = [0] * n
            for u, v, _ in graph.arcs:
                out_deg[u] += 1
                in_deg[v] += 1
            report = betweenness(graph)
            for i, node_id in enumerate(graph.node_ids):
                if in_deg[i] == 0 or out_deg[i] == 0:
                    assert report.values[node_id] == 0.0

    def test_nonnegative(self):
        rng = random.Random(33)
        for _ in range(20):
            report = betweenness(random_graph(rng))
            assert all(v >= 0 for v in report.values.values())


class TestAmountSensitivity:
    def _two_route_view(self):
        # route via a: flat base fee; route via b: purely proportional
        flat = policy(base=1100, ppm=0)
        prop = policy(base=0, ppm=100)
        return make_view(
            "sabt",
            [
                ("s", "a", flat),
                ("a", "t", flat),
                ("s", "b", prop),
                ("b", "t", prop),
            ],
        )

    def test_ranking_flips_between_small_and_large_amounts(self):
        view, ids = self._two_route_view()
        small = by_label(betweenness(build_graph(view, 10_000_000)), ids)
        large = by_label(betweenness(build_graph(view, 10_000_000_000)), ids)
        # 0.0001 BTC: proportional route costs 2000 < 2200, so b carries the pair
        assert small["b"] > small["a"]
        # 0.1 BTC: proportional route costs 2_000_000 > 2200, so a carries it
        assert large["a"] > large["b"]


class TestDeterminismAcrossProcesses:
    def test_process_count_never_changes_output(self):
        rng = random.Random(55)
        node_ids = tuple(msggen.node_id(i) for i in range(24))
        arcs = []
        for u in range(24):
            for v in range(24):
                if u != v and rng.random() < 0.2:
                    arcs.append((u, v, rng.randrange(0, 50)))
        graph = WeightedDigraph.from_arcs(node_ids, arcs)
        serial = betweenness(graph)
        for processes in (2, 4):
            assert betweenness(graph, processes=processes).values == serial.values

    def test_leaf_heavy_graph_output_is_byte_identical(self):
        graph = leafy_graph(random.Random(56), core=30, leaves=40, zero_prob=0.1)
        assert len(graph.node_ids) - len(_prepare(graph).sources) > 20
        outputs = set()
        for processes in (1, 2, 3):
            report = betweenness(graph, processes=processes)
            outputs.add((report_to_json(report), report_to_csv(report)))
        assert len(outputs) == 1


class _SerialForks:
    """Stands in for the forked shares: records the (share, workers) of each
    share a call forks, and runs it in this process when the parent reads
    its result, the credits passed through pickle as through the pipe."""

    def __init__(self):
        self.forked: list[tuple[int, int]] = []

    def __call__(self, pgs, share, workers):
        self.forked.append((share, workers))
        return _SerialShare(pgs, share, workers)


class _SerialShare:
    def __init__(self, pgs, share, workers):
        self.args = pgs, share, workers

    def result(self):
        return pickle.loads(pickle.dumps(centrality._share_credits(*self.args)))

    def kill(self):
        pass


@pytest.fixture
def forks(monkeypatch):
    fake = _SerialForks()
    monkeypatch.setattr(centrality, "_ForkedShare", fake)
    cpus(monkeypatch, 64)
    return fake


def cpus(monkeypatch, count):
    monkeypatch.setattr(centrality.os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


def forked(workers):
    """The shares one call with WORKERS workers forks: one strided share
    each, all but share 0, which the calling process runs."""
    return [(share, workers) for share in range(1, workers)]


def pass_count(graph):
    return len(_prepare(graph).sources)


def many_pass_graph():
    graph = leafy_graph(random.Random(58), core=70, leaves=10, zero_prob=0)
    assert pass_count(graph) > 64
    return graph


class TestWorkerCap:
    def test_workers_never_exceed_passes(self, forks):
        # a graph with few passes still forks, one worker per pass
        graph = leafy_graph(random.Random(59), core=6, leaves=3, zero_prob=0.1)
        passes = pass_count(graph)
        assert 1 < passes < 64
        serial = betweenness(graph)
        report = betweenness(graph, processes=10**9)
        assert forks.forked == forked(passes)
        assert report.values == serial.values

    def test_fewer_processes_than_passes_are_kept(self, forks):
        graph = many_pass_graph()
        betweenness(graph, processes=3)
        assert forks.forked == forked(3)

    def test_workers_never_exceed_usable_cpus(self, forks, monkeypatch):
        graph = many_pass_graph()
        cpus(monkeypatch, 2)
        betweenness(graph, processes=10**9)
        assert forks.forked == forked(2)

    def test_cpu_count_without_affinity(self, forks, monkeypatch):
        graph = many_pass_graph()
        monkeypatch.delattr(centrality.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(centrality.os, "cpu_count", lambda: 2)
        betweenness(graph, processes=10**9)
        monkeypatch.setattr(centrality.os, "cpu_count", lambda: None)
        betweenness(graph, processes=10**9)
        assert forks.forked == forked(2)

    def test_one_pass_or_one_process_forks_no_child(self, forks):
        graph, _ = make_graph("ab", [("a", "b", 1)])
        assert pass_count(graph) == 1
        betweenness(graph, processes=8)
        assert betweenness_reports([], processes=8) == []
        assert betweenness(WeightedDigraph((), ()), processes=8).values == {}
        betweenness(many_pass_graph(), processes=1)
        assert forks.forked == []

    def test_three_amounts_fork_once(self, forks):
        graphs = [leafy_graph(random.Random(seed), core=30, leaves=10, zero_prob=0.1) for seed in (60, 61, 62)]
        assert all(pass_count(graph) > 3 for graph in graphs)
        reports = betweenness_reports(graphs, processes=3)
        assert forks.forked == forked(3)
        assert [r.values for r in reports] == [betweenness(graph).values for graph in graphs]

    def test_bad_graph_raises_before_a_fork(self, forks, monkeypatch):
        good = many_pass_graph()
        negative, _ = make_graph("ab", [("a", "b", -1)])
        with pytest.raises(ValueError, match=r"^negative arc weight -1$"):
            betweenness_reports([good, good, negative], processes=3)
        # four mutually zero-fee nodes need more route steps than allowed
        cluster, _ = make_graph("abcd", [(a, b, 0) for a in "abcd" for b in "abcd" if a != b])
        monkeypatch.setattr(centrality, "ZERO_CLUSTER_PATH_BUDGET", 5)
        with pytest.raises(ValueError, match=r"^at 0 msat: zero-fee cluster of 4 nodes \(0200000000000000…, 0200000000000000…, 0200000000000000…\) exceeds 5 route-enumeration steps$"):
            betweenness_reports([good, cluster, good], processes=3)
        assert forks.forked == []


class TestSourceShares:
    @pytest.mark.parametrize("workers", [1, 2, 3, 7])
    def test_exact_totals_do_not_depend_on_the_share_count(self, forks, workers):
        # the fixture's 64 CPUs allow more shares than this host has; the
        # fake children run them in this process
        rng = random.Random(64)
        graphs = [leafy_graph(rng, core=5, leaves=4) for _ in range(20)]
        graphs += [random_graph(rng, max_nodes=12, zero_prob=0.2) for _ in range(20)]
        wide = leafy_graph(rng, core=30, leaves=30, zero_prob=0.1)
        want = betweenness(wide).values
        assert betweenness(wide, processes=workers).values == want
        assert forks.forked == forked(workers)
        for graph in graphs:
            assert len(graph.node_ids) <= 12
            assert betweenness(graph, processes=workers).values == brute_force_betweenness(graph).values

    @pytest.mark.parametrize("workers", [1, 3])
    def test_every_source_runs_exactly_once(self, forks, monkeypatch, workers):
        # the middle graph has fewer passes than there are shares
        graphs = [
            leafy_graph(random.Random(66), core=30, leaves=10, zero_prob=0.1),
            make_graph("abc", [("a", "b", 1), ("b", "c", 1)])[0],
            many_pass_graph(),
        ]
        assert pass_count(graphs[1]) < 3
        # calls name their graph by its node count
        assert len({len(g.node_ids) for g in graphs}) == 3
        calls = []
        real_pass = centrality._source_pass

        def counting_pass(pg, s, sums):
            calls.append((len(pg.h_out_of), s))
            return real_pass(pg, s, sums)

        monkeypatch.setattr(centrality, "_source_pass", counting_pass)
        betweenness_reports(graphs, processes=workers)
        assert forks.forked == forked(workers)
        sources = [(len(g.node_ids), _prepare(g).sources) for g in graphs]
        assert sorted(calls) == sorted((n, s) for n, order in sources for s in order)
        # the parent runs share 0, then each fake child runs its share as
        # its result is read: each takes every workers-th source of each
        # graph, hubs first
        assert calls == [(n, s) for share in range(workers) for n, order in sources for s in order[share::workers]]

    def test_reports_match_single_calls_with_real_forks(self):
        rng = random.Random(65)
        graphs = [leafy_graph(rng, core=30, leaves=20, zero_prob=0.1) for _ in range(3)]
        assert all(pass_count(graph) > 3 for graph in graphs)
        want = [report_to_json(betweenness(graph)) for graph in graphs]
        for processes in (1, 2, 3):
            reports = betweenness_reports(graphs, processes=processes)
            assert [report_to_json(r) for r in reports] == want


needs_two_cpus = pytest.mark.skipif(centrality._usable_cpus() < 2, reason="forks a child beside the parent")


@pytest.fixture
def children(monkeypatch):
    """The pids of the children forked; when the test ends, each must have
    been reaped, so none is left running. One that was not is killed and
    reaped here."""
    pids = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(centrality.os, "fork", fork)
    yield pids
    unreaped = []
    for pid in pids:
        try:
            if os.waitpid(pid, os.WNOHANG)[0] == 0:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            unreaped.append(pid)
        except ChildProcessError:
            pass
    assert unreaped == []


@contextmanager
def within(seconds):
    """Raise TimeoutError in this process if the block runs longer than
    SECONDS; a forked child inherits no alarm."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@needs_two_cpus
class TestForkedShares:
    @pytest.mark.parametrize(
        "fail, message",
        [
            (lambda: os.kill(os.getpid(), signal.SIGKILL), f"was killed by signal {signal.SIGKILL.value}"),
            (lambda: os._exit(3), "exited with status 3"),
            (lambda: os._exit(0), "exited without its result"),
        ],
    )
    def test_a_child_that_dies_raises(self, monkeypatch, children, fail, message):
        real = centrality._share_credits

        def share_credits(pgs, share, workers):
            if share:
                fail()
            return real(pgs, share, workers)

        monkeypatch.setattr(centrality, "_share_credits", share_credits)
        with within(10), pytest.raises(ChildProcessError, match=rf"^betweenness worker 1 {message}$"):
            betweenness_reports([many_pass_graph()], processes=2)
        assert len(children) == 1

    def test_a_childs_exception_is_the_serial_runs(self, monkeypatch, children):
        graph = many_pass_graph()
        failing = _prepare(graph).sources[1]  # the first pass of share 1 of 2
        real_pass = centrality._source_pass

        def bad_pass(pg, s, sums):
            if s == failing:
                raise ValueError(f"pass of source {s} failed")
            return real_pass(pg, s, sums)

        monkeypatch.setattr(centrality, "_source_pass", bad_pass)
        for processes in (1, 2):
            with within(10), pytest.raises(ValueError, match=rf"^pass of source {failing} failed$"):
                betweenness_reports([graph], processes=processes)
        assert len(children) == 1

    def test_a_failing_parent_kills_its_children(self, monkeypatch, children):
        def share_credits(pgs, share, workers):
            if share:
                time.sleep(600)  # the child would run for ten minutes
            raise ValueError("share 0 failed")

        monkeypatch.setattr(centrality, "_share_credits", share_credits)
        with within(10), pytest.raises(ValueError, match=r"^share 0 failed$"):
            betweenness_reports([many_pass_graph()], processes=2)
        assert len(children) == 1


class TestReportSerialization:
    def test_csv_sorted_desc_then_id(self):
        graph, ids = make_graph("abc", [("a", "b", 1), ("b", "c", 1), ("c", "a", 1)])
        report = betweenness(graph)
        lines = report_to_csv(report).strip().split("\n")
        assert lines[0] == "node_id,betweenness"
        # all values equal -> rows fall back to id order
        assert [ln.split(",")[0] for ln in lines[1:]] == [
            nid.hex() for nid in sorted(ids.values())
        ]

    def test_json_roundtrip(self):
        graph, _ = make_graph("abc", [("a", "b", 2), ("b", "c", 3)])
        report = betweenness(graph)
        again = report_from_json(report_to_json(report))
        assert again.values == report.values
        assert again.as_of == report.as_of
        assert again.amount_msat == report.amount_msat

    def test_json_bytes_are_pinned(self):
        report = CentralityReport(1700000000, 1000000000, {msggen.node_id(2): 0.5, msggen.node_id(1): 0})
        assert report_to_json(report) == (
            "{\n"
            '  "amount_msat": 1000000000,\n'
            '  "as_of": 1700000000,\n'
            '  "format": "centrality-report",\n'
            '  "leaf_count": 1,\n'
            '  "values": {\n'
            '    "020000000000000000000000000000000000000000000000000000000000000001": 0.0,\n'
            '    "020000000000000000000000000000000000000000000000000000000000000002": 0.5\n'
            "  },\n"
            '  "version": 1\n'
            "}\n"
        )

    def test_int_and_fraction_values_serialize_alike(self):
        def report(value):
            return CentralityReport(5, 7, {msggen.node_id(1): value, msggen.node_id(2): Fraction(1, 3)})

        as_int, as_fraction = report(3), report(Fraction(3))
        assert report_to_csv(as_int) == report_to_csv(as_fraction)
        assert report_to_json(as_int) == report_to_json(as_fraction)

    def test_leaf_count(self):
        graph, _ = make_graph("abc", [("a", "b", 1), ("b", "c", 1)])
        report = betweenness(graph)
        assert report.leaf_count == 2  # a and c

    def test_values_equal_as_floats_rank_by_id_after_a_round_trip(self):
        # both values are written as 0.3333333333333333, so the CSV and the
        # JSON read back list them in id order
        third = Fraction(1, 3)
        report = CentralityReport(0, 0, {msggen.node_id(1): third, msggen.node_id(2): third + Fraction(1, 10**30)})
        ordered = [nid for nid, _ in report_items(report)]
        assert ordered == [msggen.node_id(1), msggen.node_id(2)]
        assert [nid for nid, _ in report_items(report_from_json(report_to_json(report)))] == ordered
        rows = report_to_csv(report).splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == [nid.hex() for nid in ordered]

    def test_report_items_ordering(self):
        report = CentralityReport(
            0, 0, {msggen.node_id(2): 1.0, msggen.node_id(1): 1.0, msggen.node_id(3): 5.0}
        )
        ordered = [nid for nid, _ in report_items(report)]
        assert ordered == [msggen.node_id(3), msggen.node_id(1), msggen.node_id(2)]
