"""Seeded, offline, Lightning-shaped gossip archives.

The generator grows a network by preferential attachment: early nodes become
hubs, a set share of newcomers open a single channel (degree-1 leaves), some
node pairs get parallel channels, and small groups of 3-5 nodes charge each
other nothing (mutually zero-fee clusters). Every channel direction carries
several channel_update versions over the archive's span, with fee changes,
disabled flags, htlc bounds and stale directions. The archive also holds the
messiness a real collector sees: exact re-arrivals, same-timestamp update
clones, updates for channels that are never announced (or announced later),
and node announcements from nodes without channels.

The mix of these properties is assumed, not measured; see the note above
the constants below.

Messages are built with the builders in ``tests/msggen.py``; the caller puts
``src`` and ``tests`` on ``sys.path``. The same spec and seed always give the
same records and the same archive bytes.
"""

from __future__ import annotations

import random
import struct
from dataclasses import dataclass, replace
from pathlib import Path

import msggen

DAY = 86_400

ARCHIVE_MAGIC = b"GSR1"
_FRAME_HEADER = struct.Struct(">QI")

HTLC_MAXIMA_MSAT = (200_000_000, 1_000_000_000, 5_000_000_000, 16_777_215_000)


# The shares and counts below shape how much dedup, replay and graph work the
# program does. None of them is taken from a measurement of real Lightning
# gossip: they are unverified assumptions, placeholders until a real archive
# or published statistics are available. Only the ~40% leaf share and the
# ~40 versions per direction of the `history` workload were given as
# targets, and those are not measured either. The same holds for the fee,
# htlc and timing mixes in the functions below. Each run's census records
# the shares it actually produced (see README.md).
START_TS = 1_546_300_800  # 2019-01-01T00:00:00Z
SPAN_S = 730 * DAY
END_TS = START_TS + SPAN_S
LIVE_WINDOW_S = 10 * DAY  # live directions refresh within this window before the end
LEAF_SHARE = 0.4  # newcomers that open exactly one channel
CORE_CHANNELS = (2, 5)  # channels a non-leaf newcomer opens (min, max)
PARALLEL_SHARE = 0.06  # channels that get a parallel twin
ZERO_GROUPS = 8  # mutually zero-fee groups of 3-5 nodes
STALE_SHARE = 0.12  # directions that stop updating weeks before the end
DISABLED_SHARE = 0.05  # update versions flagged disabled
HTLC_MAX_SHARE = 0.7  # channels whose updates carry htlc_maximum_msat
DUPLICATE_SHARE = 0.05  # records re-sent verbatim with another arrival time
CLONE_SHARE = 0.03  # updates that get a same-timestamp clone
UNKNOWN_UPDATE_SHARE = 0.01  # extra updates for channels never announced


@dataclass(frozen=True)
class CorpusSpec:
    nodes: int  # nodes that open channels
    update_versions: int  # mean channel_update versions per direction
    node_versions: int  # mean node_announcement versions per node
    orphan_nodes: int  # nodes that announce themselves but never open a channel


@dataclass(frozen=True)
class GossipRecord:
    arrival_ts: int
    payload: bytes
    message: object  # the msggen-built message the payload encodes


def _fee(rng: random.Random) -> tuple[int, int]:
    if rng.random() < 0.02:
        return 0, 0  # a lone zero-fee arc outside any cluster
    r = rng.random()
    base = 0 if r < 0.2 else 1 if r < 0.3 else 1000 if r < 0.8 else rng.randrange(0, 5001)
    r = rng.random()
    if r < 0.05:
        ppm = 0
    elif r < 0.15:
        ppm = 1
    elif r < 0.5:
        ppm = rng.randrange(10, 100)
    elif r < 0.85:
        ppm = rng.randrange(100, 1000)
    else:
        ppm = rng.randrange(1000, 5001)
    return base, ppm


def _distinct_times(rng: random.Random, count: int, lo: int, hi: int) -> list[int]:
    hi = max(hi, lo + count)
    times: set[int] = set()
    while len(times) < count:
        times.add(rng.randrange(lo, hi + 1))
    return sorted(times)


def _versions(rng: random.Random, mean: int) -> int:
    return rng.randint(max(1, mean // 2), max(1, mean + mean // 2))


def generate(spec: CorpusSpec, seed: int, salt: str = "") -> list[GossipRecord]:
    """Records of one archive, sorted by (arrival_ts, payload)."""
    rng = random.Random(f"{salt}:{seed}")
    start, end = START_TS, END_TS
    records: list[GossipRecord] = []

    def emit(arrival_ts: int, msg) -> None:
        rec = msggen.record(arrival_ts, msg)
        records.append(GossipRecord(rec.arrival_ts, rec.payload, msg))

    used_ids: set[int] = set()

    def fresh_node_id() -> bytes:
        while True:
            value = rng.getrandbits(255)
            if value not in used_ids:
                used_ids.add(value)
                return msggen.node_id(value, rng.choice((0x02, 0x03)))

    # --- topology -------------------------------------------------------
    n = spec.nodes
    ids = [fresh_node_id() for _ in range(n)]
    hub_count = min(8, n)
    grow_until = end - LIVE_WINDOW_S
    join = [start] * hub_count + sorted(
        rng.randrange(start, grow_until) for _ in range(n - hub_count)
    )
    pool: list[int] = []  # non-leaf endpoints, one entry per channel end (PA)
    pairs: list[tuple[int, int, int]] = []  # (a, b, announce_ts)

    def connect(a: int, b: int) -> None:
        pairs.append((a, b, min(end, max(join[a], join[b]) + rng.randrange(60, 6 * 3600))))

    for k in range(hub_count):
        pool.append(k)
        if k:
            connect(k, k - 1)
            pool += [k, k - 1]
    # exact leaf count and channel total, so seeds differ in shape, not size
    newcomers = n - hub_count
    leaves = set(rng.sample(range(hub_count, n), round(LEAF_SHARE * newcomers)))
    lo, hi = CORE_CHANNELS
    wants = [lo + i % (hi - lo + 1) for i in range(newcomers - len(leaves))]
    rng.shuffle(wants)
    for k in range(hub_count, n):
        if k in leaves:
            connect(k, rng.choice(pool))
            continue
        targets: set[int] = set()
        want = wants.pop()
        while len(targets) < want:
            targets.add(rng.choice(pool))
        for t in sorted(targets):
            connect(k, t)
            pool += [k, t]
        pool.append(k)

    for a, b, ts in rng.sample(pairs, round(PARALLEL_SHARE * len(pairs))):
        pairs.append((a, b, min(end, ts + rng.randrange(DAY, 60 * DAY))))

    core = sorted(set(pool))
    zero_pairs: set[int] = set()  # indices into pairs
    members_used: set[int] = set()
    for group in range(ZERO_GROUPS):
        size = 3 + group % 3
        candidates = [u for u in core if u not in members_used]
        if len(candidates) < size:
            break
        members = rng.sample(candidates, size)
        members_used.update(members)
        ring = [(members[i], members[(i + 1) % size]) for i in range(size)]
        if size >= 4:
            ring.append((members[0], members[2]))
        for a, b in ring:
            zero_pairs.add(len(pairs))
            connect(a, b)

    # --- channels and their updates -------------------------------------
    used_scids: set[tuple[int, int, int]] = set()

    def fresh_scid(ts: int):
        while True:
            key = (500_000 + (ts - start) // 600, rng.randrange(1, 3000), rng.randrange(0, 2))
            if key not in used_scids:
                used_scids.add(key)
                return msggen.scid(*key)

    first_channel_ts = [end + 1] * n
    for index, (a, b, ann_ts) in enumerate(pairs):
        first_channel_ts[a] = min(first_channel_ts[a], ann_ts)
        first_channel_ts[b] = min(first_channel_ts[b], ann_ts)
        scid = fresh_scid(ann_ts)
        emit(ann_ts, msggen.make_channel_announcement(scid, ids[a], ids[b]))
        zero = index in zero_pairs
        htlc_max = (
            rng.choice(HTLC_MAXIMA_MSAT)
            if not zero and rng.random() < HTLC_MAX_SHARE
            else None
        )
        for direction in (0, 1):
            _emit_direction(rng, spec, emit, scid, direction, ann_ts, zero, htlc_max)

    # updates for channels that are never announced
    total_updates = sum(1 for r in records if r.payload[:2] == b"\x01\x02")
    for _ in range(int(total_updates * UNKNOWN_UPDATE_SHARE)):
        ts = rng.randrange(start, end)
        base, ppm = _fee(rng)
        upd = msggen.make_channel_update(
            fresh_scid(ts), ts, direction=rng.randrange(2),
            fee_base_msat=base, fee_proportional_millionths=ppm,
            signature=rng.randbytes(64),
        )
        emit(ts + rng.randrange(0, 300), upd)

    # --- node announcements ---------------------------------------------
    for k in range(n):
        lo = min(first_channel_ts[k], end) - rng.randrange(0, 2 * 3600)
        _emit_node(rng, spec, emit, ids[k], k, lo, end)
    for j in range(spec.orphan_nodes):
        _emit_node(rng, spec, emit, fresh_node_id(), n + j, rng.randrange(start, end), end)

    # --- exact re-arrivals -----------------------------------------------
    for rec in list(records):
        if rng.random() < DUPLICATE_SHARE:
            # announcements may be re-seen earlier from another peer; that
            # arrival then governs (it is the announcement's only timestamp)
            shift = rng.randrange(-600, DAY)
            records.append(GossipRecord(max(0, rec.arrival_ts + shift), rec.payload, rec.message))

    records.sort(key=lambda r: (r.arrival_ts, r.payload))
    return records


def _emit_direction(rng, spec, emit, scid, direction, ann_ts, zero, htlc_max) -> None:
    end = END_TS
    count = _versions(rng, spec.update_versions)
    stale = not zero and rng.random() < STALE_SHARE
    if stale:
        hi = max(ann_ts + count, end - 4 * LIVE_WINDOW_S)
        times = _distinct_times(rng, count, ann_ts, hi)
    else:
        live_from = max(ann_ts, end - LIVE_WINDOW_S)
        times = _distinct_times(rng, count - 1, ann_ts, live_from) if count > 1 else []
        last = rng.randrange(live_from, end + 1)
        while times and last <= times[-1]:
            last = rng.randrange(times[-1] + 1, max(end, times[-1] + 1) + 1)
        times.append(last)
    if rng.random() < 0.02:
        # the first update is seen before the channel's announcement
        times[0] = ann_ts - rng.randrange(60, 3600)
    base, ppm = (0, 0) if zero else _fee(rng)
    cltv = rng.choice((18, 40, 144))
    htlc_min = 1 if rng.random() < 0.6 else 1000 if rng.random() < 0.9 else 20_000_000
    for ts in times:
        if not zero and rng.random() < 0.4:
            base, ppm = _fee(rng)
        disabled = not zero and rng.random() < DISABLED_SHARE
        upd = msggen.make_channel_update(
            scid, ts, direction=direction, disabled=disabled,
            fee_base_msat=base, fee_proportional_millionths=ppm,
            cltv_expiry_delta=cltv, htlc_minimum_msat=1 if zero else htlc_min,
            htlc_maximum_msat=htlc_max, signature=rng.randbytes(64),
        )
        emit(ts + rng.randrange(0, 300), upd)
        if rng.random() < CLONE_SHARE:
            # another signer's rendering of the same instant: a distinct
            # payload sharing (scid, direction, timestamp)
            clone_base = base if rng.random() < 0.5 else _fee(rng)[0]
            clone = replace(upd, fee_base_msat=clone_base, signature=rng.randbytes(64))
            emit(ts + rng.randrange(0, 300), clone)


def _emit_node(rng, spec, emit, node_id: bytes, k: int, lo: int, end: int) -> None:
    count = _versions(rng, spec.node_versions)
    for j, ts in enumerate(_distinct_times(rng, count, lo, end)):
        ann = msggen.make_node_announcement(
            node_id, ts, alias=f"bench-{k}-v{j}".encode(), rgb=rng.randbytes(3),
        )
        emit(ts + rng.randrange(0, 300), ann)


def write_archive(path: str | Path, records: list[GossipRecord]) -> int:
    """Write records as a GSR1 archive; returns the byte size."""
    with open(path, "wb") as fh:
        fh.write(ARCHIVE_MAGIC)
        for rec in records:
            fh.write(_FRAME_HEADER.pack(rec.arrival_ts, len(rec.payload)))
            fh.write(rec.payload)
        return fh.tell()
