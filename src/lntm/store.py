"""Framed gossip archives and their compaction.

Archive framing ("GSR1", bit-exact): 4-byte magic ``GSR1`` followed by zero
or more frames of ``arrival_ts:u64 BE | msg_len:u32 BE | msg bytes``. The
message bytes start with the u16 gossip type code. One block scanner reads
archives in blocks of ``BLOCK_BYTES`` and keys each frame as it reads it,
with ``codec.peek_message`` or, for a channel_update, one unpack of the
frame. Replay and compaction read these peeked records (``peek_store``),
validated once, at the read; ``read_store`` yields plain records.

A JSON-lines debug format is also read: one object per line with fields
``arrival_ts`` (a JSON integer in [0, 2^64), seconds) and ``hex``
(hex-encoded message). Each line is parsed and its fields are checked by
the JSON layer in ``manifest``, so a line that repeats a key fails.

Every read failure is a ValueError. Three name where it happened:
CorruptFrameError its byte ``offset``, JsonLinesError its ``line_no`` and
DecodeFailureError the ``index`` of the record that does not decode; the
first two, like a missing magic, start with the archive's path.

Ordering model: compaction keeps *every* distinct message version, so the
compacted archive still answers "state at time T" for any T. Only exact
duplicates, later arrivals of a channel_announcement and same-timestamp
channel_update clones are collapsed, by the rules ``_collapse`` states.
Records, the sorted runs' too, are keyed by their peeked fields, and no
message object is kept. A compacted record is the same ``(int, bytes)``
pair as any other; its arrival time is its effective timestamp, and
``FeedEntry`` names its fields that way. A payload starts with its type
code, so compacted records sort as plain tuples in ``(effective_ts,
type_code, payload)`` order. Replay does not need that order: it folds
records in any order (see ``replay``).

Compaction runs in bounded memory. Every record goes into a buffer of
``RUN_RECORDS``; each full buffer is written as a sorted GSR1 run to a
dot-named file beside the output, and the runs are merged, at most
``FAN_IN`` at a time, collapsing as they go. Only the channel_announcement
payloads already merged are held, one per channel.
"""

from __future__ import annotations

import heapq
import os
import struct
from functools import partial
from itertools import islice
from operator import itemgetter
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, NamedTuple, Optional

from .codec import _U16, _UPDATE_END, _UPDATE_PEEK, FLAG_DIRECTION, FLAG_HTLC_MAXIMUM, MSG_CHANNEL_ANNOUNCEMENT, MSG_CHANNEL_UPDATE, CodecError, peek_message
from .manifest import atomic_write, parse_json, typed, uint

STORE_MAGIC = b"GSR1"

# records held before they are spilled as a sorted run
RUN_RECORDS = 1 << 14
# runs read at once, each through one BLOCK_BYTES buffer (4 MiB in all);
# beyond that the oldest are first merged into one run
FAN_IN = 64
# bytes a file of frames is read in
BLOCK_BYTES = 1 << 16
# frames joined into one write
_WRITE_BATCH = 1 << 10

_FRAME_HEADER = struct.Struct(">QI")
# a frame header, its type code and a channel_update's peek fields
_UPDATE_FRAME = struct.Struct(_FRAME_HEADER.format + _U16.format[1:] + _UPDATE_PEEK.format[1:])

# a record followed by the peek_message of its payload
Peeked = tuple[int, bytes, int, Optional[int], bytes, int]
# the plain record a peeked one starts with, which orders compacted records
_PLAIN = itemgetter(0, 1)


class CorruptFrameError(ValueError):
    def __init__(self, path: str | Path, offset: int, detail: str):
        super().__init__(f"{path}: corrupt frame at byte offset {offset}: {detail}")
        self.offset = offset


class JsonLinesError(ValueError):
    def __init__(self, path: str | Path, line_no: int, detail: str):
        super().__init__(f"{path}: bad record on line {line_no}: {detail}")
        self.line_no = line_no


class DecodeFailureError(ValueError):
    def __init__(self, index: int, cause: CodecError):
        super().__init__(f"record {index} does not decode: {cause}")
        self.index = index


class StoreRecord(NamedTuple):
    arrival_ts: int  # seconds, when the collector first saw the message
    payload: bytes  # raw message bytes, starting with the u16 type code


class FeedEntry(NamedTuple):
    """A compacted record: its arrival time is its effective timestamp."""

    effective_ts: int
    payload: bytes


def _scan(path: str | Path, peek: Callable[[bytes], tuple]) -> Iterator[Peeked]:
    """A GSR1 archive's records in file order, a complete channel_update
    peeked from its frame and any other message by ``peek``, in blocks of
    ``BLOCK_BYTES`` or the rest of the file. A frame's end is checked
    against the file's size before more is read, so a corrupt length never
    sizes a read. The first bad frame raises CorruptFrameError and the
    first message ``peek`` rejects DecodeFailureError."""
    header, fast = _FRAME_HEADER.size, _UPDATE_FRAME.size
    unpack_header, unpack_update = _FRAME_HEADER.unpack_from, _UPDATE_FRAME.unpack_from
    update, short = MSG_CHANNEL_UPDATE, _UPDATE_END
    with open(path, "rb", buffering=BLOCK_BYTES) as fh:
        size = os.fstat(fh.fileno()).st_size
        buf = fh.read(min(BLOCK_BYTES, size))
        if buf[:4] != STORE_MAGIC:
            raise ValueError(f"{path}: not a gossip archive: magic {buf[:4]!r} != {STORE_MAGIC!r}")
        base, pos, index = 0, 4, 0  # buf holds the file from offset base
        while True:
            have = len(buf)
            while pos + header <= have:
                if pos + fast <= have:
                    arrival_ts, msg_len, type_code, key, timestamp, message_flags, flags = unpack_update(buf, pos)
                else:
                    arrival_ts, msg_len = unpack_header(buf, pos)
                    type_code = None
                end = pos + header + msg_len
                if end > have:
                    break
                payload = buf[pos + header : end]
                # an update with room for its flagged htlc_maximum_msat
                if type_code == update and msg_len >= short + (8 if message_flags & FLAG_HTLC_MAXIMUM else 0):
                    yield arrival_ts, payload, update, timestamp, key, flags
                else:
                    try:
                        peeked = peek(payload)
                    except CodecError as exc:
                        raise DecodeFailureError(index, exc) from exc
                    yield arrival_ts, payload, *peeked
                index += 1
                pos = end
            # read on to the end of the frame, or of its header if buf ends first
            offset = base + pos
            end = offset + header + (msg_len if pos + header <= have else 0)
            if end > size:
                if offset == size:
                    return
                raise CorruptFrameError(path, offset, "frame header truncated" if offset + header > size else f"length field {msg_len} exceeds remaining bytes")
            parts, read_to = [buf[pos:]], base + have
            while read_to < end:
                block = fh.read(min(BLOCK_BYTES, size - read_to))
                if not block:  # the file shrank: its frames are checked again
                    size = read_to
                    break
                parts.append(block)
                read_to += len(block)
            buf, base, pos = b"".join(parts), offset, 0


def _type_only(payload: bytes) -> tuple:
    """The peek of a record read unvalidated: its type code alone."""
    return int.from_bytes(payload[:2], "big"), None, None, 0


def peek_records(records: Iterable[StoreRecord]) -> Iterator[Peeked]:
    """Plain records peeked in order; the first that does not decode raises
    DecodeFailureError with its index."""
    for index, (arrival_ts, payload) in enumerate(records):
        try:
            peeked = peek_message(payload)
        except CodecError as exc:
            raise DecodeFailureError(index, exc) from exc
        yield arrival_ts, payload, *peeked


def read_store(path: str | Path) -> Iterator[StoreRecord]:
    """Stream a GSR1 archive's records in file order, unvalidated."""
    return map(partial(tuple.__new__, StoreRecord), map(_PLAIN, _scan(path, _type_only)))


def _write_frames(fh: IO[bytes], records: Iterable[StoreRecord]) -> int:
    """Write records as frames, ``_WRITE_BATCH`` to a write; returns the
    record count."""
    pack = _FRAME_HEADER.pack
    records = iter(records)
    count = 0
    while batch := list(islice(records, _WRITE_BATCH)):
        # a record's first two fields are its arrival time and payload
        fh.write(b"".join([pack(rec[0], len(rec[1])) + rec[1] for rec in batch]))
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
    per line. A line that is not UTF-8 or not JSON, that repeats a key, or
    whose fields fail the JSON layer's checks (``arrival_ts`` a u64
    integer, ``hex`` a string of hex digits), is a JsonLinesError naming
    the file and the line."""
    with open(path, "rb") as fh:
        for line_no, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8").strip()
                if not line:
                    continue
                obj = parse_json(line)  # RecursionError if nested too deeply
                arrival_ts = uint(obj, "arrival_ts", 64)
                payload = bytes.fromhex(typed(obj, "hex", str))
            except (ValueError, KeyError, TypeError, RecursionError) as exc:
                raise JsonLinesError(path, line_no, str(exc)) from exc
            yield StoreRecord(arrival_ts, payload)


def _is_json_lines(path: str | Path) -> bool:
    """Whether the first byte other than ASCII whitespace is ``{`` or there
    is none (an empty archive); any other file is GSR1, so that a file
    without the magic fails as ``read_store`` does."""
    with open(path, "rb") as fh:
        first = b""
        while not first and (block := fh.read(BLOCK_BYTES)):
            first = block.lstrip()[:1]
    return first in (b"{", b"")


def open_store(path: str | Path) -> Iterator[StoreRecord]:
    """Read an archive in either format as plain records."""
    return read_store_jsonl(path) if _is_json_lines(path) else read_store(path)


def peek_store(path: str | Path) -> Iterator[Peeked]:
    """Read an archive in either format as peeked records."""
    return peek_records(read_store_jsonl(path)) if _is_json_lines(path) else _scan(path, peek_message)


def write_compacted(path: str | Path, records: Iterable[StoreRecord]) -> int:
    """``compact_peeked`` of plain records."""
    return compact_peeked(path, peek_records(records))


def compact_peeked(path: str | Path, peeked: Iterable[Peeked]) -> int:
    """Write the compacted archive of ``peeked`` records at ``path``, a
    GSR1 file that appears only once it is complete; returns the record
    count.

    Arrival times are rewritten to the effective timestamps, duplicates
    and clones collapse as ``_collapse`` states, and records come out in
    (effective_ts, type_code, payload) order.

    Every record is read, so validated, before the output is started.
    Sorted runs go to dot-named files in the real directory of ``path``,
    and every run is removed before this returns or raises. An OSError on
    the archive, a run or the output propagates.
    """
    real = Path(os.path.realpath(path))
    prefix = real.parent / f".{real.name}.run-"
    runs: list[Path] = []
    try:
        held = _first_pass(peeked, prefix, runs)
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


def _first_pass(peeked: Iterable[Peeked], prefix: Path, runs: list[Path]) -> list[Peeked]:
    """Buffer every record keyed by its effective timestamp; a record that
    arrives while ``RUN_RECORDS`` are held first spills them as a sorted
    run. Returns the last buffer, unsorted."""
    held: list[Peeked] = []
    append = held.append
    for arrival_ts, payload, type_code, timestamp, key, flags in peeked:
        if len(held) == RUN_RECORDS:
            held.sort()
            _write_run(prefix, runs, held)
            held.clear()
        append((arrival_ts if timestamp is None else timestamp, payload, type_code, timestamp, key, flags))
    return held


def _write_run(prefix: Path, runs: list[Path], records: Iterable[StoreRecord]) -> None:
    """Write sorted records as a new GSR1 run, listed in ``runs`` from the
    moment it exists."""
    path = Path(f"{prefix}{os.urandom(6).hex()}")
    with open(path, "xb") as fh:
        runs.append(path)
        fh.write(STORE_MAGIC)
        _write_frames(fh, records)


def _merge(runs: list[Path], held: Iterable[Peeked] = ()) -> Iterator[Peeked]:
    """The collapsed merge of sorted runs and a sorted list held in memory;
    a run's records were validated when first read, so any but a
    channel_update is peeked for its type code alone."""
    return _collapse(heapq.merge(*(_scan(run, _type_only) for run in runs), held, key=_PLAIN))


def _collapse(peeked: Iterable[Peeked]) -> Iterator[Peeked]:
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
    announced: set[bytes] = set()
    group_ts, first, seen = None, None, None
    for rec in peeked:
        ts, payload, type_code, _, _, _ = rec
        if type_code == MSG_CHANNEL_ANNOUNCEMENT:
            if payload in announced:
                continue
            announced.add(payload)
        if ts != group_ts:
            group_ts, first, seen = ts, rec, None
            yield rec
            continue
        if seen is None:
            seen = {_clone_key(first)}
        key = _clone_key(rec)
        if key not in seen:
            seen.add(key)
            yield rec


def _clone_key(rec: Peeked) -> object:
    """A channel_update collapses with the others of its (scid, direction)
    at its timestamp; any other record only with its own bytes."""
    return (rec[4], rec[5] & FLAG_DIRECTION) if rec[2] == MSG_CHANNEL_UPDATE else rec[1]


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
