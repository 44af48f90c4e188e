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
duplicates, later arrivals of a channel_announcement and same-timestamp
channel_update clones are collapsed, by the rules ``_collapse`` states.
Records are keyed with ``codec.peek_message`` and no message object is
kept. A compacted record is the same ``(int, bytes)`` pair as any other;
its arrival time is its effective timestamp, and ``FeedEntry`` names its
fields that way. A payload starts with its type code, so compacted records
sort as plain tuples in ``(effective_ts, type_code, payload)`` order.
Replay does not need that order: it folds records in any order (see
``replay``).

Compaction runs in bounded memory. Every record goes into a buffer of
``RUN_RECORDS``; each full buffer is written as a sorted GSR1 run to a
dot-named file beside the output, and the runs are merged, at most
``FAN_IN`` at a time, collapsing as they go. Only the channel_announcement
payloads already merged are held, one per channel.
"""

from __future__ import annotations

import heapq
import json
import os
import struct
from itertools import islice
from pathlib import Path
from typing import IO, Iterable, Iterator, NamedTuple

from .codec import FLAG_DIRECTION, MSG_CHANNEL_ANNOUNCEMENT, MSG_CHANNEL_UPDATE, CodecError, peek_message
from .manifest import atomic_write, typed, uint

STORE_MAGIC = b"GSR1"

# records held before they are spilled as a sorted run
RUN_RECORDS = 1 << 14
# runs read at once, each through one block; beyond that the oldest are
# first merged into one run
FAN_IN = 64
# bytes an archive is read in
BLOCK_BYTES = 1 << 16
# frames joined into one write
_WRITE_BATCH = 1 << 10

_FRAME_HEADER = struct.Struct(">QI")


class StoreError(ValueError):
    """Base class for archive read failures, a ValueError like every lntm error."""


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


class StoreRecord(NamedTuple):
    arrival_ts: int  # seconds, when the collector first saw the message
    payload: bytes  # raw message bytes, starting with the u16 type code


class FeedEntry(NamedTuple):
    """A compacted record: its arrival time is its effective timestamp."""

    effective_ts: int
    payload: bytes


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
    as long as the frame needs. A frame is checked against the file's size
    before it is read, so a corrupt length never sets the size of a read."""
    header = _FRAME_HEADER.size
    unpack_from = _FRAME_HEADER.unpack_from
    new = tuple.__new__  # a StoreRecord without the Python frame of its constructor
    base = fh.tell()  # the file offset of block[0]
    file_size = fh.seek(0, os.SEEK_END)
    fh.seek(base)
    block, pos = b"", 0
    while True:
        size = len(block)
        missing = 0
        while pos + header <= size:
            arrival_ts, msg_len = unpack_from(block, pos)
            end = pos + header + msg_len
            if end > size:
                if base + end > file_size:
                    raise CorruptFrameError(base + pos, f"length field {msg_len} exceeds remaining bytes")
                missing = end - size
                break
            yield new(StoreRecord, (arrival_ts, block[pos + header : end]))
            pos = end
        more = fh.read(max(missing, BLOCK_BYTES))
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


def write_compacted(path: str | Path, records: Iterable[StoreRecord]) -> int:
    """Write the compacted archive of ``records`` at ``path``, a GSR1 file
    that appears only once it is complete; returns the record count.

    Arrival times are rewritten to the effective timestamps, duplicates
    and clones collapse as ``_collapse`` states, and records come out in
    (effective_ts, type_code, payload) order.

    Every record is validated before the output is started; the first that
    does not decode raises DecodeFailureError with its index. Sorted runs
    go to dot-named files in the real directory of ``path``, and every run
    is removed before this returns or raises. An OSError on the archive, a
    run or the output propagates.
    """
    real = Path(os.path.realpath(path))
    prefix = real.parent / f".{real.name}.run-"
    runs: list[Path] = []
    try:
        held = _first_pass(records, prefix, runs)
        while len(runs) > FAN_IN:
            oldest = runs[:FAN_IN]
            _write_run(prefix, runs, _merge(oldest))
            for run in oldest:
                run.unlink()
            del runs[:FAN_IN]
        held.sort()
        return write_store(path, _merge(runs, held))
    finally:
        for run in runs:
            run.unlink(missing_ok=True)


def _first_pass(records: Iterable[StoreRecord], prefix: Path, runs: list[Path]) -> list[tuple[int, bytes]]:
    """Validate every record and buffer it as ``(effective_ts, payload)``;
    a record that arrives while ``RUN_RECORDS`` are held first spills them
    as a sorted run. Returns the last buffer, unsorted."""
    held: list[tuple[int, bytes]] = []
    for index, (arrival_ts, payload) in enumerate(records):
        try:
            timestamp = peek_message(payload)[1]
        except CodecError as exc:
            raise DecodeFailureError(index, exc) from exc
        if len(held) == RUN_RECORDS:
            held.sort()
            _write_run(prefix, runs, held)
            held = []
        held.append((arrival_ts if timestamp is None else timestamp, payload))
    return held


def _write_run(prefix: Path, runs: list[Path], records: Iterable[StoreRecord]) -> None:
    """Write sorted records as a new GSR1 run, listed in ``runs`` from the
    moment it exists."""
    path = Path(f"{prefix}{os.urandom(6).hex()}")
    with open(path, "xb") as fh:
        runs.append(path)
        fh.write(STORE_MAGIC)
        _write_frames(fh, records)


def _merge(runs: list[Path], held: Iterable[tuple[int, bytes]] = ()) -> Iterator[StoreRecord]:
    """The collapsed merge of sorted runs and a sorted list held in memory."""
    return _collapse(heapq.merge(*map(read_store, runs), held))


def _collapse(records: Iterable[StoreRecord]) -> Iterator[StoreRecord]:
    """The compaction rules, on a sorted stream of records keyed by their
    effective timestamps; every distinct version of a message survives
    except:

    - a channel_announcement already passed drops, so the earliest arrival
      stays (it carries no timestamp, and the arrival is the only
      observable proxy); one payload per channel is held for this
    - at one timestamp, a repeat of a record's bytes drops, and so does a
      channel_update sharing (scid, direction) with an earlier one, so the
      lexicographically smallest payload stays and the output does not
      depend on arrival order; clone keys are taken only in timestamp
      groups of two or more
    """
    announcement = MSG_CHANNEL_ANNOUNCEMENT.to_bytes(2, "big")
    announced: set[bytes] = set()
    group_ts, first, seen = None, None, None
    for rec in records:
        ts, payload = rec
        if payload[:2] == announcement:
            if payload in announced:
                continue
            announced.add(payload)
        if ts != group_ts:
            group_ts, first, seen = ts, payload, None
            yield rec
            continue
        if seen is None:
            seen = {_clone_key(first)}
        key = _clone_key(payload)
        if key not in seen:
            seen.add(key)
            yield rec


def _clone_key(payload: bytes) -> object:
    """A channel_update collapses with the others of its (scid, direction)
    at its timestamp; any other record only with its own bytes."""
    type_code, _, key, flags = peek_message(payload)
    return (key, flags & FLAG_DIRECTION) if type_code == MSG_CHANNEL_UPDATE else payload


def deduplicate_and_order(records: Iterable[StoreRecord]) -> tuple[FeedEntry, ...]:
    """``write_compacted`` into a temporary directory, read back. Only the
    benchmark's traced pass and the tests still use it."""
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "feed"
        write_compacted(path, records)
        return tuple(map(FeedEntry._make, read_store(path)))


def feed_to_records(feed: Iterable[FeedEntry]) -> Iterator[StoreRecord]:
    """Compacted records as store records."""
    return map(StoreRecord._make, feed)
