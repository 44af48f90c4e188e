"""Framed gossip archives and their compaction.

Archive framing ("GSR1", bit-exact): 4-byte magic ``GSR1`` followed by zero
or more frames of ``arrival_ts:u64 BE | msg_len:u32 BE | msg bytes``. The
message bytes start with the u16 gossip type code.

A JSON-lines debug format is also read: one object per line with fields
``arrival_ts`` (a JSON integer in [0, 2^64), seconds) and ``hex``
(hex-encoded message). Its fields are checked with the typed-field checks
of the JSON layer in ``manifest``.

Ordering model: compaction keeps *every* distinct message version, so the
compacted archive still answers "state at time T" for any T. Only exact
duplicates and same-timestamp channel_update clones are collapsed. Records
are keyed with ``codec.peek_message`` and no message object is kept. A
compacted record's arrival time is its effective timestamp, and a payload
starts with its type code, so compacted records sort as plain
``(effective_ts, payload)`` tuples in ``(effective_ts, type_code,
payload)`` order. Replay does not need that order: it folds records in any
order (see ``replay``).

Compaction runs in bounded memory. Announcements stay in memory (one entry
per channel and node version). channel_update versions collapse in a
buffer of ``RUN_RECORDS``; each full buffer is written as a sorted GSR1 run
to a dot-named file beside the output, and the runs are merged, at most
``FAN_IN`` at a time.
"""

from __future__ import annotations

import heapq
import json
import os
import struct
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import IO, Iterable, Iterator, NamedTuple

from .codec import FLAG_DIRECTION, MSG_CHANNEL_UPDATE, CodecError, peek_message
from .manifest import atomic_write, typed, uint

STORE_MAGIC = b"GSR1"

# distinct channel_update versions held before they are spilled as a run
RUN_RECORDS = 1 << 14
# runs read at once, each through one block; beyond that the oldest are
# first merged into one run
FAN_IN = 64
# bytes an archive is read in
BLOCK_BYTES = 1 << 16
# frames joined into one write
_WRITE_BATCH = 1 << 10

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


class SpillError(Exception):
    """A run could not be written or read beside the output: an output
    failure, not a bad input. Raised from the OSError, and reads as it."""


class StoreRecord(NamedTuple):
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
    """Cut frames out of blocks of ``BLOCK_BYTES``; the bytes of a frame that
    does not end in its block are carried into the next read, which is made
    as long as the frame needs."""
    header = _FRAME_HEADER.size
    unpack_from = _FRAME_HEADER.unpack_from
    new = tuple.__new__  # a StoreRecord without the Python frame of its constructor
    block, pos, base = b"", 0, 4  # base: the file offset of block[0]
    while True:
        size = len(block)
        missing = 0
        while pos + header <= size:
            arrival_ts, msg_len = unpack_from(block, pos)
            end = pos + header + msg_len
            if end > size:
                missing = end - size
                break
            yield new(StoreRecord, (arrival_ts, block[pos + header : end]))
            pos = end
        more = fh.read(max(missing, BLOCK_BYTES))
        if len(more) < missing:
            raise CorruptFrameError(base + pos, f"length field {msg_len} exceeds remaining bytes")
        if not more:
            if pos < size:
                raise CorruptFrameError(base + pos, "frame header truncated")
            return
        block, pos, base = block[pos:] + more, 0, base + pos


def _write_frames(fh: IO[bytes], records: Iterable[StoreRecord]) -> int:
    """Write records as frames, ``_WRITE_BATCH`` to a write; returns the
    record count."""
    pack = _FRAME_HEADER.pack
    records = iter(records)
    count = 0
    while batch := list(islice(records, _WRITE_BATCH)):
        fh.write(b"".join([pack(arrival_ts, len(payload)) + payload for arrival_ts, payload in batch]))
        count += len(batch)
    return count


def write_store(path: str | Path, records: Iterable[StoreRecord]) -> int:
    """Write records as a GSR1 archive; returns the record count. The file
    appears only once every record is written."""
    with atomic_write(path, binary=True) as fh:
        fh.write(STORE_MAGIC)
        return _write_frames(fh, records)


def read_store_jsonl(path: str | Path) -> Iterator[StoreRecord]:
    """Stream records from the JSON-lines debug format: UTF-8, one object
    per line. A line that is not UTF-8 or not JSON, or whose fields fail the
    JSON layer's checks (``arrival_ts`` a u64 integer, ``hex`` a string of
    hex digits), is a JsonLinesError naming its line."""
    with open(path, "rb") as fh:
        for line_no, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8").strip()
                if not line:
                    continue
                obj = json.loads(line)  # RecursionError if nested too deeply
                arrival_ts = uint(obj, "arrival_ts", 64)
                payload = bytes.fromhex(typed(obj, "hex", str))
            except (ValueError, KeyError, TypeError, RecursionError) as exc:
                raise JsonLinesError(line_no, str(exc)) from exc
            yield StoreRecord(arrival_ts, payload)


def open_store(path: str | Path) -> Iterator[StoreRecord]:
    """Read an archive, sniffing GSR1 vs JSON-lines by the leading magic."""
    with open(path, "rb") as fh:
        head = fh.read(4)
    if head == STORE_MAGIC:
        return read_store(path)
    return read_store_jsonl(path)


@contextmanager
def compacted(records: Iterable[StoreRecord], beside: str | Path) -> Iterator[Iterator[StoreRecord]]:
    """Collapse duplicates and order records; the block gets the compacted
    records as a stream.

    - exact byte-duplicates collapse to one record; for channel_announcement
      the earliest arrival time is kept (it carries no timestamp, and the
      arrival is the only observable proxy)
    - distinct channel_updates sharing (scid, direction, timestamp) collapse
      to the lexicographically smallest payload, keeping ordering total and
      permutation-invariant
    - every distinct-timestamp version of an update survives

    Arrival times are rewritten to the effective timestamps, and records
    come out in (effective_ts, type_code, payload) order.

    Every record is read and validated before the block starts; the first
    that does not decode raises DecodeFailureError with its index. Sorted
    runs of channel_updates go to dot-named files in the real directory of
    ``beside``. A run that cannot be written, or read before the block
    starts, raises SpillError; one the block's stream cannot read raises
    the OSError there. Every run is removed when the block exits, however
    it exits.
    """
    path = Path(os.path.realpath(beside))
    prefix = path.parent / f".{path.name}.run-"
    runs: list[Path] = []
    try:
        held = _first_pass(records, prefix, runs)
        try:
            while len(runs) > FAN_IN:
                oldest = runs[:FAN_IN]
                with _merged(oldest) as merged:
                    _write_run(prefix, runs, merged)
                for run in oldest:
                    run.unlink()
                del runs[:FAN_IN]
        except OSError as exc:
            raise SpillError(exc) from exc
        held.sort()
        with _merged(runs, held) as merged:
            yield merged
    finally:
        for run in runs:
            run.unlink(missing_ok=True)


def _first_pass(records: Iterable[StoreRecord], prefix: Path, runs: list[Path]) -> list[StoreRecord]:
    """Validate every record; collapse announcements in memory and
    channel_updates in a buffer that is spilled to a new run whenever a
    version past ``RUN_RECORDS`` arrives. Returns the announcements and the
    last buffer, unsorted."""
    earliest: dict[bytes, int] = {}  # announcement payload -> effective timestamp
    versions: dict[tuple[bytes, int, int], bytes] = {}  # (scid, direction, timestamp) -> payload
    for index, (arrival_ts, payload) in enumerate(records):
        try:
            type_code, timestamp, key, flags = peek_message(payload)
        except CodecError as exc:
            raise DecodeFailureError(index, exc) from exc
        if type_code == MSG_CHANNEL_UPDATE:
            clone = (key, flags & FLAG_DIRECTION, timestamp)
            best = versions.get(clone)
            if best is None and len(versions) == RUN_RECORDS:
                _write_run(prefix, runs, sorted(_version_records(versions)))
                versions = {}
            if best is None or payload < best:
                versions[clone] = payload
        else:
            eff = arrival_ts if timestamp is None else timestamp
            known = earliest.get(payload)
            if known is None or eff < known:
                earliest[payload] = eff
    return [StoreRecord(eff, payload) for payload, eff in earliest.items()] + _version_records(versions)


def _version_records(versions: dict[tuple[bytes, int, int], bytes]) -> list[StoreRecord]:
    return [StoreRecord(timestamp, payload) for (_, _, timestamp), payload in versions.items()]


def _write_run(prefix: Path, runs: list[Path], records: Iterable[StoreRecord]) -> None:
    """Write sorted records as a new GSR1 run, listed in ``runs`` from the
    moment it exists."""
    path = Path(f"{prefix}{os.urandom(6).hex()}")
    try:
        with open(path, "xb") as fh:
            runs.append(path)
            fh.write(STORE_MAGIC)
            _write_frames(fh, records)
    except OSError as exc:
        raise SpillError(exc) from exc


@contextmanager
def _merged(runs: list[Path], held: Iterable[StoreRecord] = ()) -> Iterator[Iterator[StoreRecord]]:
    """The collapsed merge of sorted runs and a sorted list held in memory;
    the runs are closed when the block exits."""
    streams = [read_store(run) for run in runs]
    try:
        yield _collapse(heapq.merge(*streams, held))
    finally:
        for stream in streams:
            stream.close()


def _collapse(records: Iterable[StoreRecord]) -> Iterator[StoreRecord]:
    """Drop from a sorted stream every record that repeats or is a clone of
    an earlier one with its timestamp, so the smallest payload stays. Clone
    keys are taken only in timestamp groups of two or more."""
    group_ts, first, seen = None, None, None
    for rec in records:
        if rec.arrival_ts != group_ts:
            group_ts, first, seen = rec.arrival_ts, rec, None
            yield rec
            continue
        if seen is None:
            seen = {_clone_key(first.payload)}
        key = _clone_key(rec.payload)
        if key not in seen:
            seen.add(key)
            yield rec


def _clone_key(payload: bytes) -> object:
    """A channel_update collapses with the others of its (scid, direction)
    at its timestamp; any other record only with its own bytes."""
    type_code, _, key, flags = peek_message(payload)
    return (key, flags & FLAG_DIRECTION) if type_code == MSG_CHANNEL_UPDATE else payload


def deduplicate_and_order(records: Iterable[StoreRecord]) -> OrderedFeed:
    """``compacted`` held in memory as a feed, its runs spilled to a
    temporary directory. Only the benchmark's traced pass and the tests
    still use the feed types."""
    import tempfile

    with tempfile.TemporaryDirectory() as spill, compacted(records, Path(spill) / "feed") as merged:
        return OrderedFeed(
            tuple(FeedEntry(ts, int.from_bytes(payload[:2], "big"), payload) for ts, payload in merged)
        )


def feed_to_records(feed: OrderedFeed) -> Iterator[StoreRecord]:
    """Re-serialize a feed as store records (the compaction output)."""
    for entry in feed:
        yield StoreRecord(entry.effective_ts, entry.payload)
