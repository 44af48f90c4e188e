"""Fold archived gossip up to an instant into the network view.

A snapshot is one pass over archive records in any order. Every replay rule
is a min or max reduction, so neither the record order nor duplicates
change it, and no time-ordered feed is needed. Channel closes are invisible
to gossip, so a snapshot never deletes a channel; newer channel_updates
supersede older ones per (channel, direction). The optional staleness
window on the routing view approximates liveness (two weeks, 1209600 s, is
the conventional cutoff).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Optional

from .codec import (
    FLAG_DIRECTION,
    MSG_CHANNEL_ANNOUNCEMENT,
    MSG_CHANNEL_UPDATE,
    ChannelUpdate,
    CodecError,
    NodeId,
    ShortChannelId,
    alias_text,
    decode_message,
    peek_message,
)
from .store import DecodeFailureError, OrderedFeed, StoreRecord, feed_to_records

SNAPSHOT_FORMAT = "gossip-network-snapshot"
SNAPSHOT_VERSION = 1

# every node referenced by an announced channel, leaf nodes included
NODE_COUNT_DEFINITION = "nodes referenced by at least one announced channel, leaves included"

TWO_WEEKS_S = 1_209_600


class SnapshotFormatError(ValueError):
    """Serialized snapshot is not in the expected format/version."""


@dataclass(frozen=True)
class ChannelPolicy:
    fee_base_msat: int
    fee_proportional_millionths: int
    cltv_expiry_delta: int
    htlc_minimum_msat: int
    htlc_maximum_msat: Optional[int]
    disabled: bool
    last_update_ts: int

    @classmethod
    def from_update(cls, upd: ChannelUpdate) -> "ChannelPolicy":
        return cls(
            fee_base_msat=upd.fee_base_msat,
            fee_proportional_millionths=upd.fee_proportional_millionths,
            cltv_expiry_delta=upd.cltv_expiry_delta,
            htlc_minimum_msat=upd.htlc_minimum_msat,
            htlc_maximum_msat=upd.htlc_maximum_msat,
            disabled=upd.disabled,
            last_update_ts=upd.timestamp,
        )


@dataclass(frozen=True)
class NodeInfo:
    alias: Optional[str] = None  # lossy text form
    rgb_color: Optional[str] = None  # hex, e.g. "ff8800"
    last_seen: Optional[int] = None  # timestamp of the governing node_announcement


@dataclass(frozen=True)
class Channel:
    short_channel_id: ShortChannelId
    node_1: NodeId
    node_2: NodeId
    # index 0: node_1 -> node_2, index 1: node_2 -> node_1
    policies: tuple[Optional[ChannelPolicy], Optional[ChannelPolicy]]


@dataclass(frozen=True)
class ReplayDiagnostics:
    updates_unknown_channel: int = 0
    orphan_node_announcements: int = 0


@dataclass(frozen=True)
class NetworkSnapshot:
    """Immutable network state as of one instant. Do not mutate the dicts."""

    as_of: int
    nodes: dict[NodeId, NodeInfo]
    channels: dict[ShortChannelId, Channel]
    diagnostics: ReplayDiagnostics = field(default=ReplayDiagnostics())

    @property
    def policy_count(self) -> int:
        return sum(
            (ch.policies[0] is not None) + (ch.policies[1] is not None)
            for ch in self.channels.values()
        )


@dataclass(frozen=True)
class Arc:
    short_channel_id: ShortChannelId
    direction: int
    source: NodeId
    target: NodeId
    policy: ChannelPolicy


@dataclass(frozen=True)
class RoutingView:
    """Arcs usable for routing: one per (channel, direction) with a live policy."""

    as_of: int
    nodes: tuple[NodeId, ...]  # all snapshot nodes, sorted
    arcs: tuple[Arc, ...]


def replay(source: OrderedFeed | Iterable[StoreRecord], as_of: int) -> NetworkSnapshot:
    """Fold archive records into the snapshot as of ``as_of`` (inclusive).

    The snapshot holds every channel announced at or before as_of; per
    (channel, direction) the policy with the greatest timestamp <= as_of;
    and every node referenced by an included channel, with metadata from
    its latest node_announcement <= as_of. Updates for unannounced channels
    and announcements for unreferenced nodes are tallied, not fatal; both
    tallies count distinct messages.

    Every record is validated, those after as_of too: the first that does
    not decode raises DecodeFailureError with its index in ``source``. An
    OrderedFeed is folded as the records it compacts to. Only the payloads
    that govern the snapshot are decoded in full.
    """
    records = feed_to_records(source) if isinstance(source, OrderedFeed) else source
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
    for index, rec in enumerate(records):
        try:
            type_code, timestamp, key, flags = peek_message(rec.payload)
        except CodecError as exc:
            raise DecodeFailureError(index, exc) from exc
        if type_code == MSG_CHANNEL_UPDATE:
            if timestamp > as_of:
                continue
            direction = flags & FLAG_DIRECTION
            best = updates.get((key, direction))
            if best is None or timestamp > best[0] or (timestamp == best[0] and rec.payload < best[1]):
                updates[key, direction] = (timestamp, rec.payload)
            if key not in announcements:
                unannounced.setdefault(key, set()).add((direction, timestamp))
        elif type_code == MSG_CHANNEL_ANNOUNCEMENT:
            if rec.arrival_ts > as_of:
                continue
            candidate = (rec.arrival_ts, rec.payload)
            best = announcements.get(key)
            if best is None or candidate < best:
                announcements[key] = candidate
            unannounced.pop(key, None)
        elif timestamp <= as_of:
            node_versions.setdefault(key, set()).add((timestamp, rec.payload))

    channels: dict[ShortChannelId, Channel] = {}
    node_set = set()
    for key in sorted(announcements):  # packed scids sort like ShortChannelId
        ann = decode_message(announcements[key][1])
        channels[ann.short_channel_id] = Channel(
            short_channel_id=ann.short_channel_id,
            node_1=ann.node_id_1,
            node_2=ann.node_id_2,
            policies=(_policy(updates.get((key, 0))), _policy(updates.get((key, 1)))),
        )
        node_set.add(ann.node_id_1)
        node_set.add(ann.node_id_2)

    nodes: dict[NodeId, NodeInfo] = {}
    for node_id in sorted(node_set):
        versions = node_versions.get(node_id)
        if versions is None:
            nodes[node_id] = NodeInfo()
        else:
            ann = decode_message(max(versions)[1])
            nodes[node_id] = NodeInfo(
                alias=alias_text(ann.alias),
                rgb_color=ann.rgb_color.hex(),
                last_seen=ann.timestamp,
            )

    return NetworkSnapshot(
        as_of=as_of,
        nodes=nodes,
        channels=channels,
        diagnostics=ReplayDiagnostics(
            updates_unknown_channel=sum(map(len, unannounced.values())),
            orphan_node_announcements=sum(
                len(versions) for node_id, versions in node_versions.items() if node_id not in node_set
            ),
        ),
    )


def _policy(best: Optional[tuple[int, bytes]]) -> Optional[ChannelPolicy]:
    return None if best is None else ChannelPolicy.from_update(decode_message(best[1]))


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


def _policy_to_doc(policy: Optional[ChannelPolicy]) -> Optional[dict]:
    if policy is None:
        return None
    return {
        "fee_base_msat": policy.fee_base_msat,
        "fee_proportional_millionths": policy.fee_proportional_millionths,
        "cltv_expiry_delta": policy.cltv_expiry_delta,
        "htlc_minimum_msat": policy.htlc_minimum_msat,
        "htlc_maximum_msat": policy.htlc_maximum_msat,
        "disabled": policy.disabled,
        "last_update_ts": policy.last_update_ts,
    }


def _policy_from_doc(doc: Optional[dict]) -> Optional[ChannelPolicy]:
    if doc is None:
        return None
    return ChannelPolicy(
        fee_base_msat=doc["fee_base_msat"],
        fee_proportional_millionths=doc["fee_proportional_millionths"],
        cltv_expiry_delta=doc["cltv_expiry_delta"],
        htlc_minimum_msat=doc["htlc_minimum_msat"],
        htlc_maximum_msat=doc["htlc_maximum_msat"],
        disabled=doc["disabled"],
        last_update_ts=doc["last_update_ts"],
    )


def snapshot_to_json(snapshot: NetworkSnapshot) -> str:
    """Canonical JSON serialization: keys sorted, lists sorted, so equal
    snapshots are byte-identical (diffable and hashable)."""
    doc = {
        "format": SNAPSHOT_FORMAT,
        "version": SNAPSHOT_VERSION,
        "as_of": snapshot.as_of,
        "node_count": len(snapshot.nodes),
        "node_count_definition": NODE_COUNT_DEFINITION,
        "diagnostics": {
            "updates_unknown_channel": snapshot.diagnostics.updates_unknown_channel,
            "orphan_node_announcements": snapshot.diagnostics.orphan_node_announcements,
        },
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
                "policies": [
                    _policy_to_doc(channel.policies[0]),
                    _policy_to_doc(channel.policies[1]),
                ],
            }
            for scid, channel in sorted(snapshot.channels.items())
        ],
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def snapshot_from_json(text: str) -> NetworkSnapshot:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SnapshotFormatError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != SNAPSHOT_FORMAT:
        raise SnapshotFormatError("missing snapshot format marker")
    if doc.get("version") != SNAPSHOT_VERSION:
        raise SnapshotFormatError(f"unsupported snapshot version {doc.get('version')!r}")
    try:
        nodes = {
            bytes.fromhex(entry["id"]): NodeInfo(
                alias=entry["alias"],
                rgb_color=entry["rgb"],
                last_seen=entry["last_seen"],
            )
            for entry in doc["nodes"]
        }
        channels = {}
        for entry in doc["channels"]:
            scid = ShortChannelId.parse(entry["scid"])
            channels[scid] = Channel(
                short_channel_id=scid,
                node_1=bytes.fromhex(entry["node1"]),
                node_2=bytes.fromhex(entry["node2"]),
                policies=(
                    _policy_from_doc(entry["policies"][0]),
                    _policy_from_doc(entry["policies"][1]),
                ),
            )
        diagnostics = ReplayDiagnostics(
            updates_unknown_channel=doc["diagnostics"]["updates_unknown_channel"],
            orphan_node_announcements=doc["diagnostics"]["orphan_node_announcements"],
        )
        return NetworkSnapshot(
            as_of=doc["as_of"],
            nodes=nodes,
            channels=channels,
            diagnostics=diagnostics,
        )
    except (KeyError, ValueError, TypeError) as exc:
        raise SnapshotFormatError(f"malformed snapshot document: {exc}") from exc
