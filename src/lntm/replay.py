"""Fold archived gossip up to an instant into the network view.

A snapshot is one pass over ``(arrival_ts, payload)`` records in any order,
raw or compacted: a compacted record's arrival time is its effective
timestamp, which replay reads as an arrival. Every replay rule is a min or
max reduction, so neither the record order nor duplicates change it, and no
time-ordered feed is needed. Channel closes are invisible to gossip, so a
snapshot never deletes a channel; newer channel_updates supersede older
ones per (channel, direction). The optional staleness window on the routing
view approximates liveness (two weeks, 1209600 s, is the conventional
cutoff).

The fold takes records already validated and keyed where the archive is
read (``store.peek_store``). Each governing payload is read by a compiled
``codec.field_reader`` straight into the records below; the message
dataclasses serve decode/encode round trips only.

Snapshots are written and read as JSON documents through the JSON layer in
``manifest``.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Optional

from .codec import (
    FLAG_DIRECTION,
    FLAG_DISABLED,
    MSG_CHANNEL_ANNOUNCEMENT,
    MSG_CHANNEL_UPDATE,
    MSG_NODE_ANNOUNCEMENT,
    NodeId,
    ShortChannelId,
    alias_text,
    field_reader,
    parse_node_id,
)
from .manifest import dump_document, load_document, typed, uint
from .store import Peeked, StoreRecord, peek_records

SNAPSHOT_FORMAT = "gossip-network-snapshot"
SNAPSHOT_VERSION = 1

# every node referenced by an announced channel, leaf nodes included
NODE_COUNT_DEFINITION = "nodes referenced by at least one announced channel, leaves included"
_LOWER_HEX = frozenset("0123456789abcdef")

TWO_WEEKS_S = 1_209_600


class ChannelPolicy(NamedTuple):
    fee_base_msat: int
    fee_proportional_millionths: int
    cltv_expiry_delta: int
    htlc_minimum_msat: int
    htlc_maximum_msat: Optional[int]
    disabled: bool
    last_update_ts: int


class NodeInfo(NamedTuple):
    alias: Optional[str] = None  # lossy text form
    rgb_color: Optional[str] = None  # hex, e.g. "ff8800"
    last_seen: Optional[int] = None  # timestamp of the governing node_announcement


class Channel(NamedTuple):
    short_channel_id: ShortChannelId
    node_1: NodeId
    node_2: NodeId
    # index 0: node_1 -> node_2, index 1: node_2 -> node_1
    policies: tuple[Optional[ChannelPolicy], Optional[ChannelPolicy]]


class ReplayDiagnostics(NamedTuple):
    updates_unknown_channel: int = 0
    orphan_node_announcements: int = 0


class NetworkSnapshot(NamedTuple):
    """Immutable network state as of one instant. Do not mutate the dicts."""

    as_of: int
    nodes: dict[NodeId, NodeInfo]
    channels: dict[ShortChannelId, Channel]
    diagnostics: ReplayDiagnostics = ReplayDiagnostics()

    @property
    def policy_count(self) -> int:
        return sum(
            (ch.policies[0] is not None) + (ch.policies[1] is not None)
            for ch in self.channels.values()
        )


class Arc(NamedTuple):
    short_channel_id: ShortChannelId
    direction: int
    source: NodeId
    target: NodeId
    policy: ChannelPolicy


class RoutingView(NamedTuple):
    """Arcs usable for routing: one per (channel, direction) with a live policy."""

    as_of: int
    nodes: tuple[NodeId, ...]  # all snapshot nodes, sorted
    arcs: tuple[Arc, ...]


# the governing fields, each read through a plan compiled once; a policy's
# first five fields are named as their channel_update fields
_ENDPOINTS = field_reader(MSG_CHANNEL_ANNOUNCEMENT, "node_id_1", "node_id_2")
_POLICY_FIELDS = field_reader(MSG_CHANNEL_UPDATE, "channel_flags", *ChannelPolicy._fields[:5])
_NODE_FIELDS = field_reader(MSG_NODE_ANNOUNCEMENT, "alias", "rgb_color")


def replay(records: Iterable[StoreRecord], as_of: int) -> NetworkSnapshot:
    """``replay_peeked`` of plain records."""
    return replay_peeked(peek_records(records), as_of)


def replay_peeked(peeked: Iterable[Peeked], as_of: int) -> NetworkSnapshot:
    """Fold peeked archive records into the snapshot as of ``as_of``
    (inclusive).

    The snapshot holds every channel announced at or before as_of; per
    (channel, direction) the policy with the greatest timestamp <= as_of;
    and every node referenced by an included channel, with metadata from
    its latest node_announcement <= as_of. Updates for unannounced channels
    and announcements for unreferenced nodes are tallied, not fatal; both
    tallies count distinct messages.

    Every record is read, and so validated, those after as_of too. Only
    the payloads that govern the snapshot are read past their peek.
    """
    # per scid the least (arrival, payload) announcement: endpoints never
    # change, so snapshots stay monotone even if a conflicting
    # re-announcement shows up
    announcements: dict[bytes, tuple[int, bytes]] = {}
    # per (scid, direction) the newest update; same-timestamp clones go to
    # the smallest payload
    updates: dict[tuple[bytes, int], tuple[int, bytes]] = {}
    # distinct (direction, timestamp) of updates for scids not announced yet
    unannounced: dict[bytes, set[tuple[int, int]]] = {}
    # per node every distinct (timestamp, payload); the greatest governs
    node_versions: dict[NodeId, set[tuple[int, bytes]]] = {}
    for arrival_ts, payload, type_code, timestamp, key, flags in peeked:
        if type_code == MSG_CHANNEL_UPDATE:
            if timestamp > as_of:
                continue
            direction = flags & FLAG_DIRECTION
            best = updates.get((key, direction))
            if best is None or timestamp > best[0] or (timestamp == best[0] and payload < best[1]):
                updates[key, direction] = (timestamp, payload)
            if key not in announcements:
                unannounced.setdefault(key, set()).add((direction, timestamp))
        elif type_code == MSG_CHANNEL_ANNOUNCEMENT:
            if arrival_ts > as_of:
                continue
            candidate = (arrival_ts, payload)
            best = announcements.get(key)
            if best is None or candidate < best:
                announcements[key] = candidate
            unannounced.pop(key, None)
        elif timestamp <= as_of:
            node_versions.setdefault(key, set()).add((timestamp, payload))

    # each governing payload is popped as it is read, so the fold's state
    # shrinks while the snapshot grows
    channels: dict[ShortChannelId, Channel] = {}
    node_set = set()
    for key in sorted(announcements):  # packed scids sort like ShortChannelId
        node_1, node_2 = _ENDPOINTS(announcements.pop(key)[1])
        scid = ShortChannelId.unpack(key)
        policies = (_policy(updates.pop((key, 0), None)), _policy(updates.pop((key, 1), None)))
        channels[scid] = Channel(scid, node_1, node_2, policies)
        node_set.add(node_1)
        node_set.add(node_2)

    nodes: dict[NodeId, NodeInfo] = {}
    for node_id in sorted(node_set):
        versions = node_versions.pop(node_id, None)
        if versions is None:
            nodes[node_id] = NodeInfo()
        else:
            timestamp, payload = max(versions)
            alias, rgb_color = _NODE_FIELDS(payload)
            nodes[node_id] = NodeInfo(alias_text(alias), rgb_color.hex(), timestamp)

    return NetworkSnapshot(
        as_of=as_of,
        nodes=nodes,
        channels=channels,
        diagnostics=ReplayDiagnostics(
            updates_unknown_channel=sum(map(len, unannounced.values())),
            # the versions left are those of nodes no channel references
            orphan_node_announcements=sum(map(len, node_versions.values())),
        ),
    )


def _policy(best: Optional[tuple[int, bytes]]) -> Optional[ChannelPolicy]:
    if best is None:
        return None
    timestamp, payload = best
    flags, *fees = _POLICY_FIELDS(payload)
    return ChannelPolicy(*fees, bool(flags & FLAG_DISABLED), timestamp)


def routing_view(
    snapshot: NetworkSnapshot,
    prune_stale_after: Optional[int] = None,
    include_disabled: bool = False,
) -> RoutingView:
    """Arcs with an announced policy; disabled ones are dropped unless asked
    for, and ``prune_stale_after`` drops arcs whose policy is older than
    as_of minus the window."""
    cutoff = None
    if prune_stale_after is not None:
        cutoff = snapshot.as_of - prune_stale_after
    arcs = []
    for scid in sorted(snapshot.channels):
        channel = snapshot.channels[scid]
        endpoints = (
            (channel.node_1, channel.node_2),
            (channel.node_2, channel.node_1),
        )
        for direction in (0, 1):
            policy = channel.policies[direction]
            if policy is None:
                continue
            if policy.disabled and not include_disabled:
                continue
            if cutoff is not None and policy.last_update_ts < cutoff:
                continue
            source, target = endpoints[direction]
            arcs.append(Arc(scid, direction, source, target, policy))
    return RoutingView(
        as_of=snapshot.as_of,
        nodes=tuple(sorted(snapshot.nodes)),
        arcs=tuple(arcs),
    )


def _policy_from_doc(doc: Optional[dict]) -> Optional[ChannelPolicy]:
    if doc is None:
        return None
    return ChannelPolicy(
        fee_base_msat=uint(doc, "fee_base_msat", 32),
        fee_proportional_millionths=uint(doc, "fee_proportional_millionths", 32),
        cltv_expiry_delta=uint(doc, "cltv_expiry_delta", 16),
        htlc_minimum_msat=uint(doc, "htlc_minimum_msat", 64),
        htlc_maximum_msat=uint(doc, "htlc_maximum_msat", 64, type(None)),
        disabled=typed(doc, "disabled", bool),
        last_update_ts=uint(doc, "last_update_ts", 32),
    )


def snapshot_document(snapshot: NetworkSnapshot) -> dict:
    """The snapshot as a JSON document; lists are sorted, so equal snapshots
    are byte-identical in the canonical form. Policy and diagnostics fields
    are written under their attribute names."""
    return {
        "format": SNAPSHOT_FORMAT,
        "version": SNAPSHOT_VERSION,
        "as_of": snapshot.as_of,
        "node_count": len(snapshot.nodes),
        "node_count_definition": NODE_COUNT_DEFINITION,
        "diagnostics": snapshot.diagnostics._asdict(),
        "nodes": [
            {
                "id": node_id.hex(),
                "alias": info.alias,
                "rgb": info.rgb_color,
                "last_seen": info.last_seen,
            }
            for node_id, info in sorted(snapshot.nodes.items())
        ],
        "channels": [
            {
                "scid": str(scid),
                "node1": channel.node_1.hex(),
                "node2": channel.node_2.hex(),
                "policies": [None if policy is None else policy._asdict() for policy in channel.policies],
            }
            for scid, channel in sorted(snapshot.channels.items())
        ],
    }


def snapshot_to_json(snapshot: NetworkSnapshot) -> str:
    """The snapshot's canonical JSON text."""
    return dump_document(snapshot_document(snapshot))


def snapshot_from_json(text: str) -> NetworkSnapshot:
    """Parse a snapshot document. ValueError is raised for text that is not
    JSON; an object that repeats a key; a missing or other format marker or
    version; a missing field or one of the wrong JSON type; a policy
    integer outside its wire field's range; a policy list that is not one
    entry per direction; a node id or endpoint that is not 66 lowercase hex
    digits starting with 02 or 03; an scid not in the "BxTxO" form ``str``
    writes; a channel whose ``node1`` is not below its ``node2``; a node id
    or scid listed twice; a channel endpoint missing from ``nodes``; an
    ``rgb`` that is neither null nor 6 lowercase hex digits; a
    ``node_count`` other than the number of ``nodes``; and a
    ``node_count_definition`` other than ``NODE_COUNT_DEFINITION``."""
    return load_document(text, SNAPSHOT_FORMAT, SNAPSHOT_VERSION, "snapshot", _snapshot_from_doc)


def _snapshot_from_doc(doc: dict) -> NetworkSnapshot:
    nodes = {}
    for entry in typed(doc, "nodes", list):
        node_id = parse_node_id(typed(entry, "id", str))
        if node_id in nodes:
            raise ValueError(f"node {node_id.hex()} is listed twice")
        rgb = typed(entry, "rgb", str, type(None))
        if rgb is not None and not (len(rgb) == 6 and set(rgb) <= _LOWER_HEX):
            raise ValueError(f"rgb {rgb!r} of node {node_id.hex()} is not 6 lowercase hex digits")
        nodes[node_id] = NodeInfo(
            alias=typed(entry, "alias", str, type(None)),
            rgb_color=rgb,
            last_seen=uint(entry, "last_seen", 32, type(None)),
        )
    node_count = typed(doc, "node_count", int)
    if node_count != len(nodes):
        raise ValueError(f"node_count {node_count} is not the {len(nodes)} nodes listed")
    definition = typed(doc, "node_count_definition", str)
    if definition != NODE_COUNT_DEFINITION:
        raise ValueError(f"node_count_definition {definition!r} is not {NODE_COUNT_DEFINITION!r}")
    channels = {}
    for entry in typed(doc, "channels", list):
        scid = ShortChannelId.parse(typed(entry, "scid", str))
        if scid in channels:
            raise ValueError(f"channel {scid} is listed twice")
        node_1 = parse_node_id(typed(entry, "node1", str))
        node_2 = parse_node_id(typed(entry, "node2", str))
        if node_1 not in nodes or node_2 not in nodes:
            raise ValueError(f"an endpoint of channel {scid} is not among the nodes")
        if not node_1 < node_2:
            raise ValueError(f"node1 of channel {scid} is not below node2")
        policies = typed(entry, "policies", list)
        if len(policies) != 2:
            raise ValueError(f"channel {scid} has {len(policies)} policies, not 2")
        channels[scid] = Channel(
            short_channel_id=scid,
            node_1=node_1,
            node_2=node_2,
            policies=(_policy_from_doc(policies[0]), _policy_from_doc(policies[1])),
        )
    diagnostics = ReplayDiagnostics(
        updates_unknown_channel=uint(doc["diagnostics"], "updates_unknown_channel", 64),
        orphan_node_announcements=uint(doc["diagnostics"], "orphan_node_announcements", 64),
    )
    return NetworkSnapshot(
        # an int, because --prune-stale-after subtracts from it
        as_of=typed(doc, "as_of", int),
        nodes=nodes,
        channels=channels,
        diagnostics=diagnostics,
    )
