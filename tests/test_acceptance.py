"""Acceptance gate: one test per release criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines inline.
Criterion 8 needs a real two-year gossip archive; point LNTM_DATASET at a
GSR1 (or JSON-lines) file to enable it, otherwise it reports SKIP.
"""

import json
import os
import random
import time
from fractions import Fraction

import pytest
from click.testing import CliRunner

from lntm.centrality import betweenness, brute_force_betweenness, build_graph, fee_weight
from lntm.cli import main
from lntm.codec import CodecError, decode_message, encode_message
from lntm.inequality import gini_trend, lorenz
from lntm.replay import replay, routing_view, snapshot_from_json, snapshot_to_json
from lntm.store import deduplicate_and_order, open_store, write_store

import msggen
from test_centrality import make_view, policy, random_graph
from test_cli import build_corpus
from test_inequality import report


def check(label, fn):
    try:
        result = fn()
    except BaseException:
        print(f"[acceptance] {label}: FAIL")
        raise
    print(f"[acceptance] {label}: PASS")
    return result


class TestAcceptance:
    def test_1_codec_round_trip_and_fuzz(self):
        def run():
            started = time.monotonic()
            rng = random.Random(0xC0DEC)
            makers = (
                msggen.random_node_announcement,
                msggen.random_channel_announcement,
                msggen.random_channel_update,
            )
            for maker in makers:
                for _ in range(1000):
                    msg = maker(rng)
                    raw = encode_message(msg)
                    assert decode_message(raw) == msg
                    assert encode_message(decode_message(raw)) == raw
            for _ in range(10_000):
                blob = rng.randbytes(rng.randrange(0, 500))
                try:
                    decode_message(blob)
                except CodecError:
                    pass
            elapsed = time.monotonic() - started
            assert elapsed < 10.0, f"codec gate took {elapsed:.1f}s"

        check("1 codec round-trip + fuzz (<10s)", run)

    def test_2_oracle_equivalence(self):
        def run():
            started = time.monotonic()
            rng = random.Random(0x0AC1E)
            for _ in range(500):
                graph = random_graph(rng, max_nodes=10, zero_prob=0.08, max_weight=1000)
                exact = betweenness(graph)
                oracle = brute_force_betweenness(graph)
                assert exact.values == oracle.values
            elapsed = time.monotonic() - started
            assert elapsed < 60.0, f"oracle gate took {elapsed:.1f}s"

        check("2 betweenness == brute force on 500 random digraphs (<60s)", run)

    def test_3_fee_formula_table(self):
        def run():
            bases = (0, 1, 2, 999, 1000, 25_000, 10**6)
            ppms = (0, 1, 10, 100, 999, 1000, 123_456)
            amounts = (10_000_000, 1_000_000_000, 10_000_000_000)
            cases = 0
            for base in bases:
                for ppm in ppms:
                    for amount in amounts:
                        # independent evaluation: exact rational, floored
                        expected = base + int(Fraction(amount * ppm, 1_000_000))
                        assert fee_weight(policy(base=base, ppm=ppm), amount) == expected
                        cases += 1
            assert cases >= 100
            assert fee_weight(policy(base=1000, ppm=100), 10_000_000) == 2000

        check("3 fee formula exact on 147-case table", run)

    def test_4_replay_semantics(self):
        A, B, C, D, E, F = (msggen.node_id(i) for i in range(1, 7))
        sAB, sBC, sCD, sAE, sEF = (msggen.scid(i) for i in (1, 2, 3, 4, 5))
        sUNKNOWN = msggen.scid(9)
        records = [
            # deliberately out of order, with one exact duplicate
            msggen.record(300, msggen.make_channel_announcement(sCD, C, D)),
            msggen.record(100, msggen.make_channel_announcement(sAB, A, B)),
            msggen.record(120, msggen.make_channel_update(sAB, 120, direction=0, fee_base_msat=10)),
            msggen.record(180, msggen.make_channel_update(sAB, 180, direction=0, fee_base_msat=11)),
            msggen.record(130, msggen.make_channel_update(sAB, 130, direction=1, fee_base_msat=12)),
            msggen.record(150, msggen.make_channel_announcement(sBC, B, C)),
            msggen.record(160, msggen.make_channel_update(sBC, 160, direction=0, fee_base_msat=20)),
            msggen.record(165, msggen.make_channel_update(sBC, 160, direction=0, fee_base_msat=20)),
            msggen.record(260, msggen.make_channel_update(sCD, 250, direction=0, fee_base_msat=30)),
            msggen.record(200, msggen.make_channel_announcement(sAE, A, E)),
            msggen.record(110, msggen.make_channel_update(sUNKNOWN, 110, direction=0)),
            msggen.record(140, msggen.make_node_announcement(A, 140, alias=b"alpha")),
            msggen.record(210, msggen.make_node_announcement(A, 210, alias=b"alpha-2")),
            msggen.record(170, msggen.make_node_announcement(F, 170, alias=b"future")),
            msggen.record(400, msggen.make_channel_announcement(sEF, E, F)),
        ]

        def fee_map(snapshot):
            fees = {}
            for scid, channel in snapshot.channels.items():
                for direction in (0, 1):
                    pol = channel.policies[direction]
                    if pol is not None:
                        fees[(scid, direction)] = pol.fee_base_msat
            return fees

        def run():
            feed = deduplicate_and_order(records)

            snap = replay(feed, 125)
            assert set(snap.nodes) == {A, B}
            assert set(snap.channels) == {sAB}
            assert fee_map(snap) == {(sAB, 0): 10}
            assert snap.diagnostics.updates_unknown_channel == 1
            assert snap.diagnostics.orphan_node_announcements == 0

            snap = replay(feed, 199)
            assert set(snap.nodes) == {A, B, C}
            assert set(snap.channels) == {sAB, sBC}
            assert fee_map(snap) == {(sAB, 0): 11, (sAB, 1): 12, (sBC, 0): 20}
            assert snap.nodes[A].alias == "alpha"
            assert snap.diagnostics.orphan_node_announcements == 1

            snap = replay(feed, 349)
            assert set(snap.nodes) == {A, B, C, D, E}
            assert set(snap.channels) == {sAB, sBC, sCD, sAE}
            assert fee_map(snap) == {
                (sAB, 0): 11, (sAB, 1): 12, (sBC, 0): 20, (sCD, 0): 30,
            }
            assert snap.nodes[A].alias == "alpha-2"
            assert snap.diagnostics.orphan_node_announcements == 1

            snap = replay(feed, 450)
            assert set(snap.nodes) == {A, B, C, D, E, F}
            assert set(snap.channels) == {sAB, sBC, sCD, sAE, sEF}
            assert fee_map(snap) == {
                (sAB, 0): 11, (sAB, 1): 12, (sBC, 0): 20, (sCD, 0): 30,
            }
            assert snap.nodes[F].alias == "future"
            assert snap.diagnostics.orphan_node_announcements == 0

            # permuting the corpus changes nothing, at any instant
            rng = random.Random(4)
            for _ in range(5):
                shuffled = records[:]
                rng.shuffle(shuffled)
                permuted = deduplicate_and_order(shuffled)
                for t in (125, 199, 349, 450):
                    assert snapshot_to_json(replay(permuted, t)) == snapshot_to_json(replay(feed, t))

            # prefix equivalence: replay(feed, T) == replay(prefix<=T, infinity)
            for t in (125, 199, 349, 450):
                trimmed = [e for e in feed if e.effective_ts <= t]
                direct = replay(feed, t)
                on_prefix = replay(trimmed, 2**48)
                assert direct.nodes == on_prefix.nodes
                assert direct.channels == on_prefix.channels
                assert direct.diagnostics == on_prefix.diagnostics

        check("4 replay semantics on hand-built corpus", run)

    def test_5_gini_fixtures(self):
        def run():
            for c in (1, 3, 250):
                assert lorenz(report([c] * 7)).gini == pytest.approx(0.0, abs=1e-12)
            for n in (2, 4, 10, 100):
                gini = lorenz(report([0] * (n - 1) + [1])).gini
                assert gini == pytest.approx((n - 1) / n, rel=1e-12)
            assert lorenz(report([0, 0, 0, 1])).gini == pytest.approx(0.75, abs=1e-12)

            rng = random.Random(0x617)
            done = 0
            while done < 100:
                values = sorted(rng.randrange(0, 1000) for _ in range(10))
                d = (values[-1] - values[0]) // 4
                if d == 0:
                    continue
                transferred = sorted(
                    [values[0] + d] + values[1:-1] + [values[-1] - d]
                )
                assert lorenz(report(transferred)).gini < lorenz(report(values)).gini
                done += 1

            values = [rng.randrange(0, 1000) for _ in range(50)]
            base = lorenz(report(values)).gini
            # binary scale factors are float-exact end to end
            for alpha in (2, 1024, 2**20):
                assert lorenz(report([v * alpha for v in values])).gini == base
            assert lorenz(report([v * 3 for v in values])).gini == pytest.approx(base, rel=1e-12)

        check("5 gini fixtures, transfer principle, scale invariance", run)

    def test_6_amount_sensitivity(self):
        def run():
            flat = policy(base=1100, ppm=0)
            proportional = policy(base=0, ppm=100)
            view, ids = make_view(
                "sabt",
                [
                    ("s", "a", flat),
                    ("a", "t", flat),
                    ("s", "b", proportional),
                    ("b", "t", proportional),
                ],
            )
            small = betweenness(build_graph(view, 10_000_000)).values
            large = betweenness(build_graph(view, 10_000_000_000)).values
            a, b = ids["a"], ids["b"]
            assert small[b] > small[a]  # proportional route wins at 0.0001 BTC
            assert large[a] > large[b]  # flat route wins at 0.1 BTC
            rank_small = sorted(small, key=lambda n: (-small[n], n))
            rank_large = sorted(large, key=lambda n: (-large[n], n))
            assert rank_small != rank_large

        check("6 two-route fixture flips ranking between 10^7 and 10^10 msat", run)

    def test_7_pipeline_determinism_across_thread_counts(self, tmp_path, monkeypatch):
        def run():
            runner = CliRunner()
            digests = []
            for threads in ("1", "2", "8"):
                monkeypatch.setenv("LNTM_THREADS", threads)
                workdir = tmp_path / f"threads-{threads}"
                workdir.mkdir()
                store = workdir / "corpus.gsr"
                build_corpus(store)
                snap = workdir / "snap.json"
                result = runner.invoke(
                    main, ["snapshot", "--store", str(store), "--at", "999", "--out", str(snap)]
                )
                assert result.exit_code == 0, result.output
                result = runner.invoke(
                    main,
                    ["centrality", "--snapshot", str(snap),
                     "--amount-msat", "10000000", "--amount-msat", "10000000000",
                     "--out", str(workdir / "run")],
                )
                assert result.exit_code == 0, result.output
                report_path = workdir / "run-centrality-10000000.json"
                result = runner.invoke(
                    main,
                    ["inequality", "--report", f"T1={report_path}", "--report", f"T2={report_path}",
                     "--k", "3", "--anchor", "T2", "--out", str(workdir / "ineq")],
                )
                assert result.exit_code == 0, result.output
                digests.append(
                    {
                        p.name: p.read_bytes()
                        for p in sorted(workdir.iterdir())
                        if p.name != "corpus.gsr"
                    }
                )
            assert digests[0] == digests[1] == digests[2]

        check("7 pipeline byte-identical across LNTM_THREADS=1,2,8", run)

    def test_9_planted_trend_through_the_cli(self, tmp_path):
        # a two-year archive of a star whose hub gains leaves: with uniform
        # fees the hub's betweenness is k(k-1), every leaf's 0, and the Gini
        # of k zeros and one positive value is k/(k+1)
        start, year = 1_546_300_800, 31_536_000
        leaf_counts = (2, 3, 5, 8)
        instants = [start + i * 2 * year // 3 for i in range(4)]
        hub = msggen.node_id(1)
        leaves = [msggen.node_id(i) for i in range(2, 10)]

        def run():
            records = []
            for j, leaf in enumerate(leaves):
                # leaf j joins a day before the first instant that counts it
                joined = instants[next(i for i, k in enumerate(leaf_counts) if j < k)] - 86_400 + j
                scid = msggen.scid(500_000 + j)
                records.append(msggen.record(joined, msggen.make_channel_announcement(scid, hub, leaf)))
                for direction in (0, 1):
                    update = msggen.make_channel_update(
                        scid, joined + direction, direction=direction, fee_base_msat=1000, fee_proportional_millionths=1
                    )
                    records.append(msggen.record(joined + direction, update))
            store = tmp_path / "star.gsr"
            write_store(store, records)
            runner = CliRunner()
            reports = []
            for label, at, k in zip(("T1", "T2", "T3", "T4"), instants, leaf_counts):
                snap = tmp_path / f"{label}.json"
                result = runner.invoke(main, ["snapshot", "--store", str(store), "--at", str(at), "--out", str(snap)])
                assert result.exit_code == 0, result.output
                result = runner.invoke(main, ["centrality", "--snapshot", str(snap), "--amount-msat", "1000000000", "--out", str(tmp_path / label)])
                assert result.exit_code == 0, result.output
                path = tmp_path / f"{label}-centrality-1000000000.json"
                values = json.loads(path.read_text())["values"]
                assert values == {hub.hex(): k * (k - 1), **{leaf.hex(): 0.0 for leaf in leaves[:k]}}
                reports += ["--report", f"{label}={path}"]
            result = runner.invoke(main, ["inequality", *reports, "--k", "1", "--out", str(tmp_path / "ineq")])
            assert result.exit_code == 0, result.output
            ginis = [repr(float(Fraction(k, k + 1))) for k in leaf_counts]
            assert ginis == ["0.6666666666666666", "0.75", "0.8333333333333334", "0.8888888888888888"]
            trend = (tmp_path / "ineq-gini-trend.csv").read_text().splitlines()
            assert trend == ["label,gini"] + [f"T{i},{g}" for i, g in enumerate(ginis, 1)]
            assert all(float(a) < float(b) for a, b in zip(ginis, ginis[1:]))
            shares = (tmp_path / "ineq-top-share.csv").read_text().splitlines()
            assert shares == ["label,fraction,share,degenerate"] + [f"T{i},0.1,1.0,0" for i in range(1, 5)]
            timeline = (tmp_path / "ineq-rank-timeline.csv").read_text().splitlines()
            assert timeline == ["node_id,T1,T2,T3,T4", f"{hub.hex()},1,1,1,1"]

        check("9 planted star trend: snapshot -> centrality -> inequality closed forms", run)

    def test_10_planted_trend_with_a_zero_fee_pair_and_htlc_bounds(self, tmp_path):
        # test 9's star, with its leaves a and b joined by zero-fee arcs both
        # ways and the hub's arc h->a capped at 5 * 10^9 msat. Of k leaves, m
        # = k - 2 stay plain. At every amount h is interior to the m(m-1)
        # pairs of plain leaves and to the 4m pairs of a plain leaf and a or
        # b, so h scores m(m+3). While h->a is kept, each of (a,h), (h,a),
        # (a,l) and (l,a) has two shortest paths, one through b, so b scores
        # (m+1)/2 + (m+1)/2 = m+1, and a alike. At 10^10 msat h->a is gone:
        # every path into a then runs through b, so b scores (m+1)/2 + (m+1)
        # and a, on the paths out of b only, (m+1)/2. The total m^2+5m+2 does
        # not move. The Gini is the sum of |x - y| over unordered node pairs,
        # m^3+7m^2+6m-2, or m+1 more (|a-b|) without h->a, over n = m+3 times
        # the total.
        start, year = 1_546_300_800, 31_536_000
        leaf_counts = (3, 4, 6, 8)
        instants = [start + i * 2 * year // 3 for i in range(4)]
        amounts = (10_000_000, 1_000_000_000, 10_000_000_000)
        hub = msggen.node_id(1)
        leaves = [msggen.node_id(i) for i in range(2, 10)]
        a, b = leaves[:2]

        def expected(m, amount):
            pair = (Fraction(m + 1), Fraction(m + 1)) if amount < 5 * 10**9 else (Fraction(m + 1, 2), Fraction(3 * (m + 1), 2))
            return {hub: Fraction(m * (m + 3)), a: pair[0], b: pair[1], **{leaf: Fraction(0) for leaf in leaves[2 : m + 2]}}

        def gini(m, amount):
            spread = m**3 + 7 * m**2 + 6 * m - 2 + (m + 1) * (amount > 5 * 10**9)
            return Fraction(spread, (m + 3) * (m**2 + 5 * m + 2))

        def run():
            assert [gini(k - 2, 10**9) for k in leaf_counts] == [Fraction(3, 8), Fraction(23, 40), Fraction(99, 133), Fraction(251, 306)]
            assert [gini(k - 2, 10**10) for k in leaf_counts] == [Fraction(7, 16), Fraction(49, 80), Fraction(29, 38), Fraction(509, 612)]
            records = []
            for j, leaf in enumerate(leaves):
                joined = instants[next(i for i, k in enumerate(leaf_counts) if j < k)] - 86_400 + j
                scid = msggen.scid(500_000 + j)
                records.append(msggen.record(joined, msggen.make_channel_announcement(scid, hub, leaf)))
                for direction in (0, 1):
                    # direction 0 runs from the hub, the lower node id
                    update = msggen.make_channel_update(
                        scid, joined + direction, direction=direction, fee_base_msat=1000, fee_proportional_millionths=1,
                        htlc_maximum_msat=5 * 10**9 if leaf == a and direction == 0 else None,
                    )
                    records.append(msggen.record(joined + direction, update))
            pair_scid = msggen.scid(600_000)
            records.append(msggen.record(instants[0] - 3600, msggen.make_channel_announcement(pair_scid, a, b)))
            for direction in (0, 1):
                update = msggen.make_channel_update(pair_scid, instants[0] - 3600 + direction, direction=direction, fee_base_msat=0, fee_proportional_millionths=0)
                records.append(msggen.record(instants[0] - 3600 + direction, update))
            store = tmp_path / "pair.gsr"
            write_store(store, records)
            runner = CliRunner()
            labels = ("T1", "T2", "T3", "T4")
            for label, at, k in zip(labels, instants, leaf_counts):
                snap = tmp_path / f"{label}.json"
                result = runner.invoke(main, ["snapshot", "--store", str(store), "--at", str(at), "--out", str(snap)])
                assert result.exit_code == 0, result.output
                result = runner.invoke(main, ["centrality", "--snapshot", str(snap), "--enforce-htlc-bounds", "--out", str(tmp_path / label)])
                assert result.exit_code == 0, result.output
                view = routing_view(snapshot_from_json(snap.read_text()))
                for amount in amounts:
                    want = expected(k - 2, amount)
                    assert brute_force_betweenness(build_graph(view, amount, enforce_htlc_bounds=True)).values == want
                    values = json.loads((tmp_path / f"{label}-centrality-{amount}.json").read_text())["values"]
                    assert values == {node.hex(): float(value) for node, value in want.items()}
            for amount in amounts:
                reports = [arg for label in labels for arg in ("--report", f"{label}={tmp_path / label}-centrality-{amount}.json")]
                result = runner.invoke(main, ["inequality", *reports, "--k", "3", "--out", str(tmp_path / f"ineq-{amount}")])
                assert result.exit_code == 0, result.output
                ginis = [gini(k - 2, amount) for k in leaf_counts]
                trend = (tmp_path / f"ineq-{amount}-gini-trend.csv").read_text().splitlines()
                assert trend == ["label,gini"] + [f"{label},{float(g)!r}" for label, g in zip(labels, ginis)]
                assert ginis == sorted(set(ginis))
                shares = (tmp_path / f"ineq-{amount}-top-share.csv").read_text().splitlines()
                top = [float(Fraction(m * (m + 3), m**2 + 5 * m + 2)) for m in (k - 2 for k in leaf_counts)]
                assert shares == ["label,fraction,share,degenerate"] + [f"{label},0.1,{t!r},0" for label, t in zip(labels, top)]
                # ties rank by node id: a before b while they score alike
                ranked = (hub, a, b) if amount < 5 * 10**9 else (hub, b, a)
                timeline = (tmp_path / f"ineq-{amount}-rank-timeline.csv").read_text().splitlines()
                assert timeline == ["node_id,T1,T2,T3,T4"] + [f"{node.hex()},{r},{r},{r},{r}" for r, node in enumerate(ranked, 1)]

        check("10 planted trend with a zero-fee pair and htlc bounds: closed forms at 3 amounts", run)

    # Table of reference snapshots: (unix timestamp, published node count)
    REFERENCE_SNAPSHOTS = (
        ("T1", 1554112800, 1362),
        ("T2", 1564653600, 4589),
        ("T3", 1572606000, 4699),
        ("T4", 1585735200, 5230),
        ("T5", 1596276000, 5905),
        ("T6", 1606820400, 6331),
        ("T7", 1609498800, 6629),
    )

    def test_8_reference_dataset_if_mounted(self):
        dataset = os.environ.get("LNTM_DATASET")
        if not dataset or not os.path.exists(dataset):
            print("[acceptance] 8 reference dataset node counts + gini trend: SKIP (no dataset)")
            pytest.skip("LNTM_DATASET not set; reference archive unavailable")

        def run():
            feed = deduplicate_and_order(open_store(dataset))
            reports = []
            for label, as_of, node_count in self.REFERENCE_SNAPSHOTS:
                snap = replay(feed, as_of)
                # 2% covers the arrival-time ambiguity for channel
                # announcements and the published counts' own jitter
                assert abs(len(snap.nodes) - node_count) <= 0.02 * node_count, (
                    f"{label}: {len(snap.nodes)} vs published {node_count}"
                )
                graph = build_graph(routing_view(snap), 10_000_000)
                reports.append((label, betweenness(graph, processes=os.cpu_count())))
            ginis = [g for _, g in gini_trend(reports)]
            assert all(b >= a for a, b in zip(ginis, ginis[1:])), ginis

        check("8 reference dataset node counts + gini trend", run)
