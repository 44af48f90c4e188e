"""Reference outputs computed from the generator's own messages.

Nothing here calls into ``lntm``: records are taken as the generator built
them (message objects plus their payload bytes), so a snapshot, a compacted
archive or a routing graph computed here is an independent statement of what
the program must produce. The rules are the documented ones:

- exact duplicates collapse, a channel_announcement keeping its earliest
  arrival; channel_updates sharing (scid, direction, timestamp) collapse to
  the smallest payload; the feed is ordered by (effective_ts, type, payload);
- a snapshot at T holds every channel announced by T (first announcement
  wins), per direction the newest policy by T, and every node referenced by
  a channel with metadata from its newest node_announcement by T; updates
  for unknown channels and announcements of unreferenced nodes are counted.
"""

from __future__ import annotations

import json
import math
import struct
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass

from corpus import ARCHIVE_MAGIC, GossipRecord

CHANNEL_ANNOUNCEMENT = 256
NODE_ANNOUNCEMENT = 257
CHANNEL_UPDATE = 258

_FRAME_HEADER = struct.Struct(">QI")


@dataclass(frozen=True)
class Entry:
    effective_ts: int
    type_code: int
    payload: bytes
    message: object


def _type_code(payload: bytes) -> int:
    return int.from_bytes(payload[:2], "big")


def _update_key(msg) -> tuple:
    return (msg.short_channel_id, msg.channel_flags & 1, msg.timestamp)


def feed(records: list[GossipRecord]) -> list[Entry]:
    """The deduplicated, ordered feed the archive stands for."""
    earliest: dict[bytes, tuple[int, GossipRecord]] = {}
    for rec in records:
        code = _type_code(rec.payload)
        eff = rec.arrival_ts if code == CHANNEL_ANNOUNCEMENT else rec.message.timestamp
        known = earliest.get(rec.payload)
        if known is None or eff < known[0]:
            earliest[rec.payload] = (eff, rec)
    winner: dict[tuple, bytes] = {}
    for payload, (_, rec) in earliest.items():
        if _type_code(payload) == CHANNEL_UPDATE:
            key = _update_key(rec.message)
            if key not in winner or payload < winner[key]:
                winner[key] = payload
    entries = [
        Entry(eff, _type_code(payload), payload, rec.message)
        for payload, (eff, rec) in earliest.items()
        if _type_code(payload) != CHANNEL_UPDATE or winner[_update_key(rec.message)] == payload
    ]
    entries.sort(key=lambda e: (e.effective_ts, e.type_code, e.payload))
    return entries


def compact_bytes(entries: list[Entry]) -> bytes:
    parts = [ARCHIVE_MAGIC]
    for e in entries:
        parts.append(_FRAME_HEADER.pack(e.effective_ts, len(e.payload)))
        parts.append(e.payload)
    return b"".join(parts)


def prefix_length(entries: list[Entry], as_of: int) -> int:
    return bisect_right([e.effective_ts for e in entries], as_of)


def _policy_doc(msg) -> dict | None:
    if msg is None:
        return None
    return {
        "fee_base_msat": msg.fee_base_msat,
        "fee_proportional_millionths": msg.fee_proportional_millionths,
        "cltv_expiry_delta": msg.cltv_expiry_delta,
        "htlc_minimum_msat": msg.htlc_minimum_msat,
        "htlc_maximum_msat": msg.htlc_maximum_msat,
        "disabled": bool(msg.channel_flags & 2),
        "last_update_ts": msg.timestamp,
    }


def snapshot_doc(entries: list[Entry], as_of: int) -> dict:
    """The snapshot document at ``as_of``, as plain JSON values."""
    prefix = entries[: prefix_length(entries, as_of)]
    pairs: dict = {}
    for e in prefix:
        if e.type_code == CHANNEL_ANNOUNCEMENT:
            m = e.message
            pairs.setdefault(m.short_channel_id, (m.node_id_1, m.node_id_2))
    best: dict = {}
    unknown = 0
    for e in prefix:
        if e.type_code != CHANNEL_UPDATE:
            continue
        m = e.message
        if m.short_channel_id not in pairs:
            unknown += 1
            continue
        key = (m.short_channel_id, m.channel_flags & 1)
        if key not in best or m.timestamp >= best[key].timestamp:
            best[key] = m
    node_set = {node for pair in pairs.values() for node in pair}
    announcement: dict = {}
    orphans = 0
    for e in prefix:
        if e.type_code != NODE_ANNOUNCEMENT:
            continue
        m = e.message
        if m.node_id not in node_set:
            orphans += 1
        elif m.node_id not in announcement or m.timestamp >= announcement[m.node_id].timestamp:
            announcement[m.node_id] = m
    nodes = []
    for node in sorted(node_set):
        ann = announcement.get(node)
        nodes.append({
            "id": node.hex(),
            "alias": None if ann is None else ann.alias.rstrip(b"\x00").decode("utf-8", errors="replace"),
            "rgb": None if ann is None else ann.rgb_color.hex(),
            "last_seen": None if ann is None else ann.timestamp,
        })
    channels = [
        {
            "scid": f"{scid.block}x{scid.tx_index}x{scid.output_index}",
            "node1": pairs[scid][0].hex(),
            "node2": pairs[scid][1].hex(),
            "policies": [_policy_doc(best.get((scid, 0))), _policy_doc(best.get((scid, 1)))],
        }
        for scid in sorted(pairs, key=lambda s: (s.block, s.tx_index, s.output_index))
    ]
    return {
        "format": "gossip-network-snapshot",
        "version": 1,
        "as_of": as_of,
        "node_count": len(nodes),
        "node_count_definition": "nodes referenced by at least one announced channel, leaves included",
        "diagnostics": {"updates_unknown_channel": unknown, "orphan_node_announcements": orphans},
        "nodes": nodes,
        "channels": channels,
    }


def canonical_json(doc: dict) -> bytes:
    return (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode("utf-8")


@dataclass(frozen=True)
class Graph:
    """Fee-weighted digraph: sorted node ids and unique (src, dst, weight) arcs."""

    nodes: list[str]  # hex node ids, sorted
    arcs: list[tuple[int, int, int]]


def routing_graph(
    doc: dict,
    amount_msat: int,
    prune_stale_after: int | None = None,
    enforce_htlc_bounds: bool = False,
) -> Graph:
    """Arcs with a live, enabled policy weighted by the fee for ``amount_msat``;
    parallel arcs keep the cheapest."""
    nodes = [n["id"] for n in doc["nodes"]]
    index = {node: i for i, node in enumerate(nodes)}
    cutoff = None if prune_stale_after is None else doc["as_of"] - prune_stale_after
    best: dict[tuple[int, int], int] = {}
    for ch in doc["channels"]:
        ends = ((ch["node1"], ch["node2"]), (ch["node2"], ch["node1"]))
        for direction, p in enumerate(ch["policies"]):
            if p is None or p["disabled"]:
                continue
            if cutoff is not None and p["last_update_ts"] < cutoff:
                continue
            if enforce_htlc_bounds and (
                amount_msat < p["htlc_minimum_msat"]
                or (p["htlc_maximum_msat"] is not None and amount_msat > p["htlc_maximum_msat"])
            ):
                continue
            weight = p["fee_base_msat"] + amount_msat * p["fee_proportional_millionths"] // 1_000_000
            key = (index[ends[direction][0]], index[ends[direction][1]])
            if key[0] != key[1] and (key not in best or weight < best[key]):
                best[key] = weight
    return Graph(nodes, sorted((u, v, w) for (u, v), w in best.items()))


def gini(values: list[float]) -> float:
    """Gini coefficient of the trapezoidal Lorenz curve (no small-sample correction)."""
    xs = sorted(values)
    n, total = len(xs), math.fsum(xs)
    if total == 0:
        return 0.0
    return 2.0 * math.fsum(i * x for i, x in enumerate(xs, 1)) / (n * total) - (n + 1) / n


def leaf_count(n: int, arcs: list[tuple[int, int, int]]) -> int:
    """Nodes with exactly one distinct neighbour."""
    neighbours: list[set[int]] = [set() for _ in range(n)]
    for u, v, _ in arcs:
        neighbours[u].add(v)
        neighbours[v].add(u)
    return sum(len(s) == 1 for s in neighbours)


def zero_clusters(arcs: list[tuple[int, int, int]]) -> list[list[int]]:
    """Zero-weight strongly connected components with at least two nodes
    (mutually zero-fee clusters), each sorted, in sorted order."""
    out: dict[int, list[int]] = {}
    for u, v, w in arcs:
        if w == 0:
            out.setdefault(u, []).append(v)
    reach: dict[int, set[int]] = {}
    for start in out:
        seen, stack = set(), list(out[start])
        while stack:
            u = stack.pop()
            if u not in seen:
                seen.add(u)
                stack.extend(out.get(u, ()))
        reach[start] = seen
    clusters: dict[int, list[int]] = {}
    for u in out:
        if u in reach[u]:
            members = sorted(v for v in reach[u] if u in reach.get(v, ()))
            clusters[members[0]] = members
    return sorted(clusters.values())


def zero_cluster_nodes(arcs: list[tuple[int, int, int]]) -> int:
    return sum(len(c) for c in zero_clusters(arcs))


def census(records: list[GossipRecord], entries: list[Entry]) -> dict:
    """Measured properties of an archive (before any instant is chosen)."""
    names = {CHANNEL_ANNOUNCEMENT: "channel_announcement", NODE_ANNOUNCEMENT: "node_announcement", CHANNEL_UPDATE: "channel_update"}
    by_type = Counter(names[_type_code(r.payload)] for r in records)
    distinct = len({r.payload for r in records})
    update_payloads = {r.payload for r in records if _type_code(r.payload) == CHANNEL_UPDATE}
    kept_updates = [e for e in entries if e.type_code == CHANNEL_UPDATE]
    announced = {e.message.short_channel_id for e in entries if e.type_code == CHANNEL_ANNOUNCEMENT}
    kept_updates = [e for e in kept_updates if e.message.short_channel_id in announced]
    directions = {(e.message.short_channel_id, e.message.channel_flags & 1) for e in kept_updates}
    return {
        "records": len(records),
        "records_by_type": dict(sorted(by_type.items())),
        "duplicate_share": (len(records) - distinct) / len(records),
        "clone_share": (len(update_payloads) - len(kept_updates)) / max(1, len(update_payloads)),
        "feed_entries": len(entries),
        "updates_per_direction": len(kept_updates) / max(1, len(directions)),
        "updates_for_unannounced_channels": len([e for e in entries if e.type_code == CHANNEL_UPDATE]) - len(kept_updates),
    }
