"""Snapshot replay and routing-view tests."""

import random

import pytest

from lntm.replay import (
    TWO_WEEKS_S,
    SnapshotFormatError,
    replay,
    routing_view,
    snapshot_from_json,
    snapshot_to_json,
)
from lntm.codec import encode_message
from lntm.store import DecodeFailureError, StoreRecord, deduplicate_and_order

import msggen

N1, N2, N3 = msggen.node_id(1), msggen.node_id(2), msggen.node_id(3)
S12 = msggen.scid(100, 1, 0)
S23 = msggen.scid(200, 1, 0)


def feed_of(*records):
    return deduplicate_and_order(records)


class TestReplay:
    def test_boundary_exclusive_before_announcement(self):
        feed = feed_of(msggen.record(100, msggen.make_channel_announcement(S12, N1, N2)))
        assert len(replay(feed, 99).channels) == 0
        assert len(replay(feed, 100).channels) == 1  # as_of is inclusive

    def test_supersession_picks_greatest_timestamp_at_or_before(self):
        records = [
            msggen.record(100, msggen.make_channel_announcement(S12, N1, N2)),
            msggen.record(150, msggen.make_channel_update(S12, 150, fee_base_msat=5)),
            msggen.record(200, msggen.make_channel_update(S12, 200, fee_base_msat=9)),
        ]
        feed = feed_of(*records)
        mid = replay(feed, 180)
        assert mid.channels[S12].policies[0].fee_base_msat == 5
        late = replay(feed, 250)
        assert late.channels[S12].policies[0].fee_base_msat == 9

    def test_update_for_unknown_channel_tallied_not_fatal(self):
        feed = feed_of(msggen.record(10, msggen.make_channel_update(S23, 10)))
        snap = replay(feed, 50)
        assert snap.channels == {}
        assert snap.diagnostics.updates_unknown_channel == 1

    def test_update_counts_even_when_sorted_before_announcement(self):
        # the update's embedded timestamp precedes the announcement arrival;
        # once both are inside the prefix the policy applies
        feed = feed_of(
            msggen.record(100, msggen.make_channel_announcement(S12, N1, N2)),
            msggen.record(101, msggen.make_channel_update(S12, 50, fee_base_msat=7)),
        )
        snap = replay(feed, 150)
        assert snap.channels[S12].policies[0].fee_base_msat == 7
        assert snap.diagnostics.updates_unknown_channel == 0

    def test_nodes_only_from_announced_channels(self):
        feed = feed_of(
            msggen.record(10, msggen.make_channel_announcement(S12, N1, N2)),
            msggen.record(20, msggen.make_node_announcement(N3, 20, alias=b"ghost")),
        )
        snap = replay(feed, 99)
        assert set(snap.nodes) == {N1, N2}
        assert snap.diagnostics.orphan_node_announcements == 1

    def test_node_metadata_from_latest_announcement(self):
        feed = feed_of(
            msggen.record(10, msggen.make_channel_announcement(S12, N1, N2)),
            msggen.record(30, msggen.make_node_announcement(N1, 30, alias=b"old")),
            msggen.record(60, msggen.make_node_announcement(N1, 60, alias=b"new")),
        )
        assert replay(feed_of(), 0).nodes == {}
        assert replay(feed, 40).nodes[N1].alias == "old"
        snap = replay(feed, 99)
        assert snap.nodes[N1].alias == "new"
        assert snap.nodes[N1].last_seen == 60
        assert snap.nodes[N2].alias is None

    def test_monotone_reconstruction(self):
        rng = random.Random(5)
        records = []
        for i in range(30):
            a, b = rng.sample(range(6), 2)
            records.append(
                msggen.record(
                    rng.randrange(1000),
                    msggen.make_channel_announcement(
                        msggen.scid(rng.randrange(10)), msggen.node_id(a), msggen.node_id(b)
                    ),
                )
            )
        feed = feed_of(*records)
        previous_nodes, previous_channels = set(), set()
        for t in (0, 250, 500, 750, 1000):
            snap = replay(feed, t)
            assert previous_nodes <= set(snap.nodes)
            assert previous_channels <= set(snap.channels)
            previous_nodes, previous_channels = set(snap.nodes), set(snap.channels)

    def test_prefix_equivalence(self):
        from lntm.store import OrderedFeed

        records = [
            msggen.record(10, msggen.make_channel_announcement(S12, N1, N2)),
            msggen.record(20, msggen.make_channel_update(S12, 20)),
            msggen.record(30, msggen.make_channel_update(S12, 30, fee_base_msat=8)),
            msggen.record(40, msggen.make_node_announcement(N1, 40)),
        ]
        feed = feed_of(*records)
        for t in (5, 10, 25, 35, 99):
            trimmed = OrderedFeed(tuple(e for e in feed if e.effective_ts <= t))
            full_on_prefix = replay(trimmed, 2**40)
            direct = replay(feed, t)
            assert snapshot_to_json(direct).replace(f'"as_of": {t}', "X") == \
                snapshot_to_json(full_on_prefix).replace(f'"as_of": {2**40}', "X")

    def test_determinism_byte_identical(self):
        records = [
            msggen.record(10, msggen.make_channel_announcement(S12, N1, N2)),
            msggen.record(20, msggen.make_channel_update(S12, 20)),
        ]
        a = snapshot_to_json(replay(feed_of(*records), 50))
        b = snapshot_to_json(replay(feed_of(*reversed(records)), 50))
        assert a == b


def msggen_corpus(rng, nodes=12, channels=30, versions=6):
    """Channels with many update versions, same-timestamp clones, re-seen
    and conflicting announcements, updates for never-announced channels
    and node announcements, orphans included."""
    records = []
    for i in range(channels):
        s = msggen.scid(1000 + i // 3, i % 3)
        a, b = rng.sample(range(nodes), 2)
        announced_at = rng.randrange(0, 500)
        ann = msggen.make_channel_announcement(s, msggen.node_id(a), msggen.node_id(b))
        records.append(msggen.record(announced_at, ann))
        if rng.random() < 0.2:
            records.append(msggen.record(rng.randrange(0, 700), ann))
        if rng.random() < 0.1:
            c = rng.choice([n for n in range(nodes + 3) if n not in (a, b)])
            other = msggen.make_channel_announcement(s, msggen.node_id(a), msggen.node_id(c))
            records.append(msggen.record(rng.randrange(0, 700), other))
        for direction in (0, 1):
            for _ in range(rng.randrange(versions)):
                ts = announced_at + rng.randrange(-50, 600)
                upd = msggen.make_channel_update(
                    s, max(ts, 0), direction=direction, fee_base_msat=rng.randrange(4),
                    disabled=rng.random() < 0.1,
                )
                records.append(msggen.record(rng.randrange(0, 900), upd))
                if rng.random() < 0.2:
                    clone = msggen.make_channel_update(
                        s, upd.timestamp, direction=direction, fee_base_msat=7 + rng.randrange(4)
                    )
                    records.append(msggen.record(rng.randrange(0, 900), clone))
    for i in range(5):
        upd = msggen.make_channel_update(msggen.scid(9000 + i), rng.randrange(0, 900))
        records.append(msggen.record(rng.randrange(0, 900), upd))
    for n in range(nodes + 3):
        for _ in range(rng.randrange(4)):
            ts = rng.randrange(0, 900)
            alias = bytes([97 + rng.randrange(3)])
            records.append(msggen.record(ts, msggen.make_node_announcement(msggen.node_id(n), ts, alias=alias)))
    return records


class TestFold:
    def test_same_timestamp_node_announcements_greatest_payload_wins(self):
        a = msggen.make_node_announcement(N1, 50, alias=b"a")
        b = msggen.make_node_announcement(N1, 50, alias=b"b")
        winner = max((a, b), key=encode_message)
        ann = msggen.record(10, msggen.make_channel_announcement(S12, N1, N2))
        for order in ((a, b), (b, a)):
            records = [ann] + [msggen.record(50, m) for m in order]
            snap = replay(records, 60)
            assert snap.nodes[N1].alias == winner.alias.rstrip(b"\x00").decode()
            assert snapshot_to_json(snap) == snapshot_to_json(replay(feed_of(*records), 60))

    def test_conflicting_reannouncement_keeps_least_arrival_then_payload(self):
        small = msggen.make_channel_announcement(S12, N1, N2)
        large = msggen.make_channel_announcement(S12, N1, N3)
        assert encode_message(small) < encode_message(large)
        # the earliest arrival governs, whatever its payload
        records = [
            msggen.record(20, small),
            msggen.record(30, msggen.make_node_announcement(N2, 30)),
            msggen.record(10, large),
        ]
        assert replay(records, 5).channels == {}
        for t in (15, 99):
            channel = replay(records, t).channels[S12]
            assert (channel.node_1, channel.node_2) == (N1, N3)
        snap = replay(records, 99)
        assert set(snap.nodes) == {N1, N3}
        assert snap.diagnostics.orphan_node_announcements == 1
        # at equal arrivals the smaller payload governs
        tied = [msggen.record(10, large), msggen.record(10, small)]
        assert replay(tied, 99).channels[S12].node_2 == N2

    def test_update_before_its_announcement_in_file_order(self):
        records = [
            msggen.record(50, msggen.make_channel_update(S12, 50, fee_base_msat=7)),
            msggen.record(50, msggen.make_channel_update(S12, 50, fee_base_msat=7)),
            msggen.record(100, msggen.make_channel_announcement(S12, N1, N2)),
        ]
        early = replay(records, 80)
        assert early.channels == {}
        assert early.diagnostics.updates_unknown_channel == 1
        snap = replay(records, 150)
        assert snap.channels[S12].policies[0].fee_base_msat == 7
        assert snap.diagnostics.updates_unknown_channel == 0

    def test_bad_record_after_as_of_fails_with_its_file_index(self):
        late = encode_message(msggen.make_channel_update(S12, 999))
        records = [
            msggen.record(10, msggen.make_channel_announcement(S12, N1, N2)),
            msggen.record(20, msggen.make_channel_update(S12, 20)),
            StoreRecord(999, late[:120]),  # timestamp readable, fee fields cut
            StoreRecord(5, b"\x01"),
        ]
        with pytest.raises(DecodeFailureError) as err:
            replay(records, 50)
        assert err.value.index == 2

    def test_fold_equals_replay_of_shuffled_duplicated_feed(self):
        rng = random.Random(11)
        records = msggen_corpus(rng)
        messy = records + rng.sample(records, len(records) // 4)
        rng.shuffle(messy)
        feed = deduplicate_and_order(messy)
        diagnosed = 0
        for t in (0, 100, 250, 400, 550, 700, 2**40):
            direct = replay(records, t)
            assert snapshot_to_json(direct) == snapshot_to_json(replay(feed, t))
            assert direct == replay(messy, t)
            diagnosed += direct.diagnostics.updates_unknown_channel > 0
            diagnosed += direct.diagnostics.orphan_node_announcements > 0
        assert diagnosed > 4


class TestRoutingView:
    def _snapshot(self, *updates, as_of=1000):
        records = [msggen.record(1, msggen.make_channel_announcement(S12, N1, N2))]
        records += [msggen.record(u.timestamp, u) for u in updates]
        return replay(feed_of(*records), as_of)

    def test_single_direction_single_arc(self):
        snap = self._snapshot(msggen.make_channel_update(S12, 10, direction=0))
        view = routing_view(snap)
        assert len(view.arcs) == 1
        arc = view.arcs[0]
        assert (arc.source, arc.target) == (N1, N2)

    def test_direction_bit_one_reverses_orientation(self):
        snap = self._snapshot(msggen.make_channel_update(S12, 10, direction=1))
        arc = routing_view(snap).arcs[0]
        assert (arc.source, arc.target) == (N2, N1)

    def test_disabled_policy_excluded_by_default(self):
        snap = self._snapshot(msggen.make_channel_update(S12, 10, disabled=True))
        assert routing_view(snap).arcs == ()
        assert len(routing_view(snap, include_disabled=True).arcs) == 1

    def test_prune_stale_boundary(self):
        as_of = 10_000_000
        fresh = self._snapshot(
            msggen.make_channel_update(S12, as_of - TWO_WEEKS_S), as_of=as_of
        )
        assert len(routing_view(fresh, prune_stale_after=TWO_WEEKS_S).arcs) == 1
        aged = self._snapshot(
            msggen.make_channel_update(S12, as_of - TWO_WEEKS_S - 1), as_of=as_of
        )
        assert routing_view(aged, prune_stale_after=TWO_WEEKS_S).arcs == ()

    def test_all_snapshot_nodes_present_even_without_arcs(self):
        snap = self._snapshot()
        view = routing_view(snap)
        assert view.nodes == tuple(sorted((N1, N2)))
        assert view.arcs == ()


class TestSnapshotSerialization:
    def test_roundtrip(self):
        feed = feed_of(
            msggen.record(10, msggen.make_channel_announcement(S12, N1, N2)),
            msggen.record(20, msggen.make_channel_update(S12, 20, htlc_maximum_msat=10**6)),
            msggen.record(30, msggen.make_node_announcement(N1, 30, alias=b"alpha")),
            msggen.record(44, msggen.make_channel_update(S23, 44)),
        )
        snap = replay(feed, 100)
        text = snapshot_to_json(snap)
        again = snapshot_from_json(text)
        assert again == snap
        assert snapshot_to_json(again) == text

    def test_rejects_wrong_format(self):
        with pytest.raises(SnapshotFormatError):
            snapshot_from_json("{}")
        with pytest.raises(SnapshotFormatError):
            snapshot_from_json("not json")
