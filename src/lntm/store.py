"""Framed gossip archives and the deduplicated, time-ordered feed.

Archive framing ("GSR1", bit-exact): 4-byte magic ``GSR1`` followed by zero
or more frames of ``arrival_ts:u64 BE | msg_len:u32 BE | msg bytes``. The
message bytes start with the u16 gossip type code.

A JSON-lines debug format is also read: one object per line with fields
``arrival_ts`` (a JSON integer in [0, 2^64), seconds) and ``hex``
(hex-encoded message).

Ordering model: the feed keeps *every* distinct message version, so the
compacted archive it is written out as still answers "state at time T" for
any T. Only exact duplicates and same-timestamp channel_update clones are
collapsed here. Records are keyed with ``codec.peek_message`` and no
message object is kept. Replay does not need the feed: it folds records in
any order (see ``replay``).
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterable, Iterator, NamedTuple

from .codec import FLAG_DIRECTION, MSG_CHANNEL_UPDATE, CodecError, peek_message
from .manifest import atomic_write

STORE_MAGIC = b"GSR1"

_FRAME_HEADER = struct.Struct(">QI")


class StoreError(Exception):
    """Base class for archive read failures."""


class BadMagicError(StoreError):
    def __init__(self, got: bytes):
        super().__init__(f"not a gossip archive: magic {got!r} != {STORE_MAGIC!r}")


class CorruptFrameError(StoreError):
    def __init__(self, offset: int, detail: str):
        super().__init__(f"corrupt frame at byte offset {offset}: {detail}")
        self.offset = offset


class JsonLinesError(StoreError):
    def __init__(self, line_no: int, detail: str):
        super().__init__(f"bad record on line {line_no}: {detail}")
        self.line_no = line_no


class DecodeFailureError(StoreError):
    def __init__(self, index: int, cause: CodecError):
        super().__init__(f"record {index} does not decode: {cause}")
        self.index = index
        self.cause = cause


@dataclass(frozen=True)
class StoreRecord:
    arrival_ts: int  # seconds, when the collector first saw the message
    payload: bytes  # raw message bytes, starting with the u16 type code


class FeedEntry(NamedTuple):
    """Fields in feed order, so entries sort as plain tuples."""

    effective_ts: int
    type_code: int
    payload: bytes


@dataclass(frozen=True)
class OrderedFeed:
    """Deduplicated entries sorted by (effective_ts, type_code, payload)."""

    entries: tuple[FeedEntry, ...]

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[FeedEntry]:
        return iter(self.entries)


def read_store(path: str | Path) -> Iterator[StoreRecord]:
    """Stream records from a GSR1 archive in file order."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != STORE_MAGIC:
            raise BadMagicError(magic)
        yield from _read_frames(fh)


def _read_frames(fh: IO[bytes]) -> Iterator[StoreRecord]:
    offset = 4
    while True:
        header = fh.read(_FRAME_HEADER.size)
        if not header:
            return
        if len(header) < _FRAME_HEADER.size:
            raise CorruptFrameError(offset, "frame header truncated")
        arrival_ts, msg_len = _FRAME_HEADER.unpack(header)
        payload = fh.read(msg_len)
        if len(payload) < msg_len:
            raise CorruptFrameError(
                offset, f"length field {msg_len} exceeds remaining bytes"
            )
        yield StoreRecord(arrival_ts, payload)
        offset += _FRAME_HEADER.size + msg_len


def write_store(path: str | Path, records: Iterable[StoreRecord]) -> int:
    """Write records as a GSR1 archive; returns the record count. The file
    appears only once every record is written."""
    count = 0
    with atomic_write(path, binary=True) as fh:
        fh.write(STORE_MAGIC)
        for rec in records:
            fh.write(_FRAME_HEADER.pack(rec.arrival_ts, len(rec.payload)))
            fh.write(rec.payload)
            count += 1
    return count


def read_store_jsonl(path: str | Path) -> Iterator[StoreRecord]:
    """Stream records from the JSON-lines debug format: UTF-8, one object
    per line. A line that is not UTF-8, or whose ``arrival_ts`` is not an
    integer that fits the u64 frame field, is a JsonLinesError like any
    other."""
    with open(path, "rb") as fh:
        for line_no, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8").strip()
                if not line:
                    continue
                obj = json.loads(line)
                arrival_ts = obj["arrival_ts"]
                payload = bytes.fromhex(obj["hex"])
            except (ValueError, KeyError, TypeError) as exc:
                raise JsonLinesError(line_no, str(exc)) from exc
            # bool is an int subclass; floats and out-of-range values would
            # only fail later, when a frame header is packed
            if type(arrival_ts) is not int or not 0 <= arrival_ts < 1 << 64:
                raise JsonLinesError(
                    line_no, f"arrival_ts {arrival_ts!r} is not an integer in [0, 2^64)"
                )
            yield StoreRecord(arrival_ts, payload)


def open_store(path: str | Path) -> Iterator[StoreRecord]:
    """Read an archive, sniffing GSR1 vs JSON-lines by the leading magic."""
    with open(path, "rb") as fh:
        head = fh.read(4)
    if head == STORE_MAGIC:
        return read_store(path)
    return read_store_jsonl(path)


def deduplicate_and_order(records: Iterable[StoreRecord]) -> OrderedFeed:
    """Collapse duplicates and sort records into a deterministic feed.

    - exact byte-duplicates collapse to one entry; for channel_announcement
      the earliest arrival time is kept (it carries no timestamp, and the
      arrival is the only observable proxy)
    - distinct channel_updates sharing (scid, direction, timestamp) collapse
      to the lexicographically smallest payload, keeping ordering total and
      permutation-invariant
    - every distinct-timestamp version of an update survives
    """
    earliest: dict[bytes, tuple[int, int]] = {}  # announcement payload -> (ts, type)
    clone_winner: dict[tuple[bytes, int, int], bytes] = {}
    for index, rec in enumerate(records):
        try:
            type_code, timestamp, key, flags = peek_message(rec.payload)
        except CodecError as exc:
            raise DecodeFailureError(index, exc) from exc
        if type_code == MSG_CHANNEL_UPDATE:
            clone = (key, flags & FLAG_DIRECTION, timestamp)
            best = clone_winner.get(clone)
            if best is None or rec.payload < best:
                clone_winner[clone] = rec.payload
        else:
            eff = rec.arrival_ts if timestamp is None else timestamp
            known = earliest.get(rec.payload)
            if known is None or eff < known[0]:
                earliest[rec.payload] = (eff, type_code)

    entries = [
        FeedEntry(timestamp, MSG_CHANNEL_UPDATE, payload)
        for (_, _, timestamp), payload in clone_winner.items()
    ]
    entries += [FeedEntry(eff, type_code, payload) for payload, (eff, type_code) in earliest.items()]
    entries.sort()
    return OrderedFeed(tuple(entries))


def feed_to_records(feed: OrderedFeed) -> Iterator[StoreRecord]:
    """Re-serialize a feed as store records (the compaction output).

    Arrival times are rewritten to the effective timestamps, which is the
    only time information the feed retains.
    """
    for entry in feed:
        yield StoreRecord(entry.effective_ts, entry.payload)
