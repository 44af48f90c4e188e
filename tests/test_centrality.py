"""Centrality kernel tests: fee weighting, hand fixtures, oracle equivalence."""

import random
from fractions import Fraction

import pytest

from lntm import centrality
from lntm.centrality import (
    CentralityReport,
    FeeOverflowError,
    NegativeWeightError,
    TooLargeError,
    WeightedDigraph,
    _prepare,
    betweenness,
    brute_force_betweenness,
    build_graph,
    fee_weight,
    report_from_json,
    report_items,
    report_to_csv,
    report_to_json,
)
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
        with pytest.raises(FeeOverflowError):
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
        # a hand-edited snapshot may name the same node at both channel ends
        view, _ = make_view("ab", [("a", "a", policy()), ("a", "b", policy(base=7))])
        assert build_graph(view, 0).arcs == ((0, 1, 7),)


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
        with pytest.raises(NegativeWeightError):
            betweenness(graph)


class TestBruteForce:
    def test_single_arc_all_zero(self):
        graph, ids = make_graph("ab", [("a", "b", 1)])
        values = by_label(brute_force_betweenness(graph), ids)
        assert values == {"a": 0, "b": 0}

    def test_three_cycle_matches_kernel(self):
        graph, _ = make_graph("abc", [("a", "b", 1), ("b", "c", 1), ("c", "a", 1)])
        assert brute_force_betweenness(graph).values == betweenness(graph, exact=True).values

    def test_star_center_twelve(self):
        edges = []
        for leaf in "abcd":
            edges.append(("h", leaf, 1))
            edges.append((leaf, "h", 1))
        graph, ids = make_graph("habcd", edges)
        assert by_label(brute_force_betweenness(graph), ids)["h"] == 12

    def test_too_large(self):
        node_ids = tuple(msggen.node_id(i) for i in range(13))
        with pytest.raises(TooLargeError):
            brute_force_betweenness(WeightedDigraph(node_ids, ()))


class TestZeroWeights:
    def test_zero_chain_no_cycle(self):
        graph, ids = make_graph(
            "sabt", [("s", "a", 0), ("a", "b", 0), ("b", "t", 5)]
        )
        exact = betweenness(graph, exact=True)
        assert exact.values == brute_force_betweenness(graph).values
        values = by_label(exact, ids)
        assert values["a"] == 2  # (s,b), (s,t)
        assert values["b"] == 2  # (s,t), (a,t)

    def test_mutual_zero_pair_counts_simple_paths(self):
        # a<->b at zero fee forms a zero cycle; path counts must not blow up
        graph, ids = make_graph(
            "sabt", [("s", "a", 1), ("a", "b", 0), ("b", "a", 0), ("b", "t", 1)]
        )
        exact = betweenness(graph, exact=True)
        assert exact.values == brute_force_betweenness(graph).values
        values = by_label(exact, ids)
        assert values["a"] == 2  # interior of (s,b) and (s,t)
        assert values["b"] == 2  # interior of (s,t) and (a,t)

    def test_two_entries_into_zero_pair(self):
        graph, ids = make_graph(
            "sab", [("s", "a", 1), ("s", "b", 1), ("a", "b", 0), ("b", "a", 0)]
        )
        exact = betweenness(graph, exact=True)
        assert exact.values == brute_force_betweenness(graph).values
        values = by_label(exact, ids)
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
        assert betweenness(graph, exact=True).values == brute_force_betweenness(graph).values

    def test_dense_zero_cluster(self):
        members = "abcd"
        edges = [(x, y, 0) for x in members for y in members if x != y]
        edges += [("s", "a", 1), ("c", "t", 1), ("s", "t", 9)]
        graph, _ = make_graph("sabcdt", edges)
        assert betweenness(graph, exact=True).values == brute_force_betweenness(graph).values

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
            assert betweenness(graph, exact=True).values == brute_force_betweenness(graph).values

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
            for port, edges in enumerate(pg.out_edges):
                for dst, weight, _, _ in edges:
                    assert weight > 0 or dst > port


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
    """Float mode within 1e-9 relative of networkx (no zero-weight arcs)."""
    import networkx as nx  # test-only oracle
    nx_graph = nx.DiGraph()
    nx_graph.add_nodes_from(range(len(graph.node_ids)))
    nx_graph.add_weighted_edges_from(graph.arcs)
    want = nx.betweenness_centrality(nx_graph, weight="weight", normalized=False, endpoints=False)
    got = betweenness(graph).values
    for i, node_id in enumerate(graph.node_ids):
        assert abs(got[node_id] - want[i]) <= 1e-9 * max(1.0, abs(want[i]))


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
                1 for u, group in enumerate(pg.leaves) if group and pg.cluster_of[u] >= 0
            )
            assert betweenness(graph, exact=True).values == brute_force_betweenness(graph).values
        # the fold must actually have applied, also on zero-fee cluster hubs
        assert folded > 300
        assert hubs_in_clusters > 10

    def test_star_plus_core_runs_one_pass_per_unfolded_node(self, monkeypatch):
        # core a-b-c-d; hub a gets a two-way leaf e, an e->a-only leaf f, an
        # a->g-only leaf g (not folded: no way out) and a zero-fee leaf h;
        # i-j is a two-node component (j folds into i); k is isolated
        edges = [(x, y, 3) for x, y in ("ab", "ba", "bc", "cb", "cd", "dc", "da", "ad")]
        edges += [("e", "a", 2), ("a", "e", 5), ("f", "a", 1), ("a", "g", 4)]
        edges += [("h", "a", 0), ("a", "h", 7), ("i", "j", 1), ("j", "i", 1)]
        graph, ids = make_graph("abcdefghijk", edges)
        index = {nid: i for i, nid in enumerate(graph.node_ids)}
        folded = {index[ids[x]] for x in "efhj"}
        calls = []
        real_pass = centrality._source_pass

        def counting_pass(pg, s, exact):
            calls.append(s)
            return real_pass(pg, s, exact)

        monkeypatch.setattr(centrality, "_source_pass", counting_pass)
        report = betweenness(graph, exact=True)
        assert sorted(calls) == sorted(set(range(len(graph.node_ids))) - folded)
        assert report.values == brute_force_betweenness(graph).values
        assert by_label(report, ids)["a"] > 0

    def test_hub_with_only_leaves(self):
        # every leaf folds; the hub's credit comes from the fold alone
        edges = [(x, "h", 1) for x in "abcde"] + [("h", x, 1) for x in "abc"]
        graph, ids = make_graph("habcde", edges)
        assert len(_prepare(graph).sources) == 1
        values = by_label(betweenness(graph, exact=True), ids)
        assert values["h"] == 5 * 3 - 3  # each leaf reaches the 3 others h reaches
        assert betweenness(graph, exact=True).values == brute_force_betweenness(graph).values

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
        assert len(graph.node_ids) - len(_prepare(graph).sources) > 60
        assert_float_matches_networkx(graph)


class TestOracleEquivalence:
    def test_exact_match_on_random_graphs(self):
        rng = random.Random(20_21)
        for _ in range(120):
            graph = random_graph(rng)
            assert betweenness(graph, exact=True).values == brute_force_betweenness(graph).values

    def test_float_mode_within_1e9_relative(self):
        rng = random.Random(77)
        for _ in range(60):
            graph = random_graph(rng)
            got = betweenness(graph).values
            want = brute_force_betweenness(graph).values
            for node_id, expected in want.items():
                expected = float(expected)
                assert abs(got[node_id] - expected) <= 1e-9 * max(1.0, abs(expected))

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
        for exact in (False, True):
            outputs = set()
            for processes in (1, 2, 3):
                report = betweenness(graph, exact=exact, processes=processes)
                outputs.add((report_to_json(report), report_to_csv(report)))
            assert len(outputs) == 1


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

    def test_leaf_count(self):
        graph, _ = make_graph("abc", [("a", "b", 1), ("b", "c", 1)])
        report = betweenness(graph)
        assert report.leaf_count == 2  # a and c

    def test_report_items_ordering(self):
        report = CentralityReport(
            0, 0, {msggen.node_id(2): 1.0, msggen.node_id(1): 1.0, msggen.node_id(3): 5.0}
        )
        ordered = [nid for nid, _ in report_items(report)]
        assert ordered == [msggen.node_id(3), msggen.node_id(1), msggen.node_id(2)]
