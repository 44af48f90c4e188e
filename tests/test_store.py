"""Archive framing and compaction tests."""

import json
import random
import re
import struct
from typing import Iterator

import pytest
from hypothesis import given, settings, strategies as st

from lntm import store
from lntm.codec import _UPDATE_END, CodecError, decode_message, encode_message, peek_message
from lntm.manifest import atomic_write
from lntm.store import (
    CorruptFrameError,
    DecodeFailureError,
    JsonLinesError,
    StoreRecord,
    deduplicate_and_order,
    feed_to_records,
    open_store,
    peek_store,
    read_store,
    read_store_jsonl,
    write_store,
)

import msggen


class TestFraming:
    def test_magic_only_is_empty_stream(self, tmp_path):
        path = tmp_path / "empty.gsr"
        path.write_bytes(b"GSR1")
        assert list(read_store(path)) == []

    def test_single_frame_roundtrip(self, tmp_path):
        path = tmp_path / "one.gsr"
        rec = msggen.record(77, msggen.make_node_announcement(msggen.node_id(1), 50))
        write_store(path, [rec])
        got = list(read_store(path))
        assert got == [rec]
        assert decode_message(got[0].payload).timestamp == 50

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.gsr"
        path.write_bytes(b"NOPE" + bytes(20))
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: not a gossip archive: magic b'NOPE' != b'GSR1'$"):
            list(read_store(path))

    def test_length_field_past_eof_reports_offset(self, tmp_path):
        path = tmp_path / "cut.gsr"
        rec = msggen.record(1, msggen.make_node_announcement(msggen.node_id(1), 1))
        frame = struct.pack(">QI", rec.arrival_ts, len(rec.payload) + 500) + rec.payload
        path.write_bytes(b"GSR1" + frame)
        with pytest.raises(CorruptFrameError) as err:
            list(read_store(path))
        assert err.value.offset == 4

    def test_truncated_header_reports_offset(self, tmp_path):
        path = tmp_path / "cut2.gsr"
        rec = msggen.record(1, msggen.make_node_announcement(msggen.node_id(1), 1))
        write_store(path, [rec])
        blob = path.read_bytes()
        second_frame_offset = len(blob)
        path.write_bytes(blob + b"\x00\x01\x02")
        with pytest.raises(CorruptFrameError) as err:
            list(read_store(path))
        assert err.value.offset == second_frame_offset

    def test_bytes_are_bit_exact(self, tmp_path):
        path = tmp_path / "exact.gsr"
        rec = StoreRecord(0x0102030405060708, b"\x01\x02" + bytes(10))
        write_store(path, [rec])
        blob = path.read_bytes()
        assert blob[:4] == b"GSR1"
        assert blob[4:12] == b"\x01\x02\x03\x04\x05\x06\x07\x08"
        assert blob[12:16] == b"\x00\x00\x00\x0c"
        assert blob[16:] == rec.payload


def reference_peek(payload: bytes):
    """What ``peek_message`` returns for a payload, or the CodecError it raises."""
    try:
        return peek_message(payload)
    except CodecError as exc:
        return exc


def reference_frames(blob: bytes) -> tuple[list[StoreRecord], Iterator, tuple[int, str] | None]:
    """The records of a GSR1 file read field by field, the
    ``reference_peek`` of each payload, made as it is asked for, and the
    offset and detail of the CorruptFrameError that ends them, if one does."""
    records, pos = [], 4
    peeks = map(reference_peek, (rec.payload for rec in records))
    while pos < len(blob):
        if pos + 12 > len(blob):
            return records, peeks, (pos, "frame header truncated")
        arrival_ts = int.from_bytes(blob[pos : pos + 8], "big")
        msg_len = int.from_bytes(blob[pos + 8 : pos + 12], "big")
        if pos + 12 + msg_len > len(blob):
            return records, peeks, (pos, f"length field {msg_len} exceeds remaining bytes")
        records.append(StoreRecord(arrival_ts, blob[pos + 12 : pos + 12 + msg_len]))
        pos += 12 + msg_len
    return records, peeks, None


def read_frames(path, read=read_store) -> tuple[list, tuple[int, str] | None]:
    """What ``read`` yields on a file before it stops, and the offset or
    record index and the message of the CorruptFrameError or
    DecodeFailureError it stops with, if any."""
    records = []
    try:
        for rec in read(path):
            records.append(rec)
    except CorruptFrameError as exc:
        return records, (exc.offset, str(exc))
    except DecodeFailureError as exc:
        return records, (exc.index, str(exc))
    return records, None


def with_peeks(records, peeks, error) -> tuple[list, tuple[int, str] | None]:
    """Each record with its peek, as ``peek_store`` yields them, up to the
    first payload that does not decode; its DecodeFailureError comes before
    ``error``."""
    peeked = []
    for index, (rec, peek) in enumerate(zip(records, peeks)):
        if isinstance(peek, CodecError):
            return peeked, (index, f"record {index} does not decode: {peek}")
        peeked.append((*rec, *peek))
    return peeked, error


def expected_frames(path, blob: bytes, peeked: bool = False) -> tuple[list, tuple[int, str] | None]:
    """``reference_frames`` as ``read_store`` yields it on ``path``, with
    its error as ``read_store`` words it, or, if ``peeked``, as
    ``peek_store`` yields it."""
    records, peeks, error = reference_frames(blob)
    if error is not None:
        error = (error[0], f"{path}: corrupt frame at byte offset {error[0]}: {error[1]}")
    return with_peeks(records, peeks, error) if peeked else (records, error)


@st.composite
def payloads(draw) -> bytes:
    """Frame messages: channel_updates with and without htlc_maximum_msat,
    whole or cut (at the ends of the fixed fields and of a flagged
    htlc_maximum_msat most often), announcements, unknown type codes and
    short or random bytes."""
    rng = draw(st.randoms(use_true_random=False))
    kind = draw(st.sampled_from(["update", "cut update", "announcement", "unknown type", "bytes"]))
    if kind == "bytes":
        return draw(st.binary(max_size=90))  # empty payloads are drawn often
    if kind == "unknown type":
        type_code = draw(st.integers(0, 0xFFFF).filter(lambda t: t not in (256, 257, 258)))
        return type_code.to_bytes(2, "big") + draw(st.binary(max_size=140))
    if kind == "announcement":
        return encode_message(rng.choice([msggen.random_node_announcement, msggen.random_channel_announcement])(rng))
    update = encode_message(msggen.random_channel_update(rng))
    if kind == "update":
        return update
    return update[: draw(st.one_of(st.integers(_UPDATE_END - 1, _UPDATE_END + 8), st.integers(0, len(update))))]


class TestBlockReader:
    @settings(max_examples=150, deadline=None)
    @given(
        frames=st.lists(st.tuples(st.integers(0, 2**64 - 1), payloads()), max_size=12),
        tail=st.binary(max_size=16),
    )
    def test_matches_a_field_by_field_reader(self, tmp_path_factory, frames, tail):
        directory = tmp_path_factory.mktemp("frames")
        path = directory / "blob.gsr"
        blob = b"GSR1" + b"".join(struct.pack(">QI", ts, len(p)) + p for ts, p in frames) + tail
        last = len(blob) - len(tail) - (12 + len(frames[-1][1]) if frames else 0)
        jsonl = directory / "blob.jsonl"
        jsonl.write_text("".join(json.dumps({"arrival_ts": ts, "hex": p.hex()}) + "\n" for ts, p in frames))
        records = [StoreRecord(ts, p) for ts, p in frames]
        for block in (16, store.BLOCK_BYTES):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(store, "BLOCK_BYTES", block)
                # the whole file, then a cut at every byte of the last
                # frame, or of its header and every ninth byte of its
                # message when that is longer than 90 bytes
                step = 1 if not frames or len(frames[-1][1]) <= 90 else 9
                for cut in [len(blob), *range(last, last + 12), *range(last + 12, len(blob) - len(tail), step)]:
                    path.write_bytes(blob[:cut])
                    assert read_frames(path) == expected_frames(path, blob[:cut])
                    peeked = read_frames(path, peek_store)
                    assert peeked == expected_frames(path, blob[:cut], peeked=True)
                    assert all(type(rec[1]) is bytes for rec in peeked[0])  # copies, not views of a block
        # the JSON-lines adapter peeks the same records the same way
        assert read_frames(jsonl, peek_store) == with_peeks(records, [reference_peek(p) for _, p in frames], None)

    # the file is read in blocks of ``block`` bytes, the last one the rest
    # of the file; at the module's BLOCK_BYTES and 2048 good frames the last
    # one's message crosses the first block's end, and the bad frame's
    # header is read from the second
    @pytest.mark.parametrize("block", [16, store.BLOCK_BYTES])
    @pytest.mark.parametrize("frames", [0, 3, 2048])
    def test_a_corrupt_length_never_sets_the_size_of_a_read(self, tmp_path, monkeypatch, block, frames):
        good = b"".join(struct.pack(">QI", i, 20) + bytes(range(20)) for i in range(frames))
        blob = b"GSR1" + good + struct.pack(">QI", 7, 0xFFFFFFFF) + bytes(10)
        path = tmp_path / "blob.gsr"
        path.write_bytes(blob)

        overreach = []  # how far past the end of the file each read asks
        buffering = []  # the buffer size each open asks for

        class Reads:
            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def __getattr__(self, name):
                return getattr(self.fh, name)

            def read(self, size=-1):
                overreach.append(size - (len(blob) - self.fh.tell()))
                return self.fh.read(size)

        def opens(*args, **kwargs):
            buffering.append(kwargs.get("buffering"))
            return Reads(open(*args, **kwargs))

        monkeypatch.setattr(store, "BLOCK_BYTES", block)
        monkeypatch.setattr("lntm.store.open", opens, raising=False)
        records, error = expected_frames(path, blob)
        assert error[1].endswith("length field 4294967295 exceeds remaining bytes")
        assert read_frames(path) == (records, error)
        # one read per block, up to the block that holds the bad header's end
        assert len(overreach) == -(-(len(blob) - 10) // block)
        assert max(overreach) <= 12
        assert buffering == [block]

    def test_frames_across_a_block_boundary(self, tmp_path):
        rng = random.Random(4)
        frames, size = [], 4
        while size < store.BLOCK_BYTES + 100:
            payload = rng.randbytes(rng.choice([0, 1, 11, 12, 13, rng.randrange(40)]))
            frames.append(struct.pack(">QI", rng.getrandbits(64), len(payload)) + payload)
            size += len(frames[-1])
        blob = b"GSR1" + b"".join(frames)
        path = tmp_path / "boundary.gsr"
        # the whole file, then a cut at every byte near the first block's end
        for cut in [len(blob), *range(store.BLOCK_BYTES - 60, store.BLOCK_BYTES + 60)]:
            path.write_bytes(blob[:cut])
            assert read_frames(path) == expected_frames(path, blob[:cut])

    def test_a_frame_longer_than_a_block(self, tmp_path):
        rng = random.Random(5)
        long = rng.randbytes(2 * store.BLOCK_BYTES + 77)
        recs = [StoreRecord(1, b"\x01" * 30), StoreRecord(2, long), StoreRecord(3, b""), StoreRecord(4, long[:5])]
        path = tmp_path / "long.gsr"
        write_store(path, recs)
        assert list(read_store(path)) == recs
        # cut inside the long frame's message: the length is checked first
        blob = path.read_bytes()
        path.write_bytes(blob[: 4 + (12 + 30) + 12 + store.BLOCK_BYTES])
        assert read_frames(path) == expected_frames(path, path.read_bytes())


class TestAtomicWrite:
    def _record(self):
        return msggen.record(7, msggen.make_node_announcement(msggen.node_id(1), 7))

    def test_failure_part_way_leaves_no_file(self, tmp_path):
        def records():
            yield self._record()
            yield self._record()
            raise RuntimeError("source failed")

        with pytest.raises(RuntimeError):
            write_store(tmp_path / "out.gsr", records())
        assert list(tmp_path.iterdir()) == []

    def test_unpackable_record_leaves_no_file(self, tmp_path):
        with pytest.raises(struct.error):
            write_store(tmp_path / "out.gsr", [self._record(), StoreRecord(-5, b"\x01\x02")])
        assert list(tmp_path.iterdir()) == []

    def test_failure_keeps_previous_output(self, tmp_path):
        path = tmp_path / "out.gsr"
        write_store(path, [self._record()])
        before = path.read_bytes()

        def records():
            yield self._record()
            raise RuntimeError("source failed")

        with pytest.raises(RuntimeError):
            write_store(path, records())
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]

    def test_symlinked_output_is_written_through(self, tmp_path):
        target = tmp_path / "target.gsr"
        target.write_bytes(b"old")
        link = tmp_path / "link.gsr"
        link.symlink_to(target)
        write_store(link, [self._record()])
        assert link.is_symlink()
        assert list(read_store(target)) == [self._record()]

    def test_text_write_failure_leaves_no_file(self, tmp_path):
        with pytest.raises(RuntimeError):
            with atomic_write(tmp_path / "out.json") as fh:
                fh.write("partial")
                raise RuntimeError("serializer failed")
        assert list(tmp_path.iterdir()) == []


class TestJsonLines:
    def test_reads_records(self, tmp_path):
        rec = msggen.record(42, msggen.make_node_announcement(msggen.node_id(3), 9))
        path = tmp_path / "debug.jsonl"
        path.write_text(
            json.dumps({"arrival_ts": 42, "hex": rec.payload.hex()}) + "\n\n"
        )
        assert list(read_store_jsonl(path)) == [rec]

    def test_bad_line_reports_number(self, tmp_path):
        path = tmp_path / "debug.jsonl"
        path.write_text('{"arrival_ts": 1, "hex": "0102"}\n{"nope": 1}\n')
        with pytest.raises(JsonLinesError) as err:
            list(read_store_jsonl(path))
        assert err.value.line_no == 2
        assert str(err.value).startswith(f"{path}: bad record on line 2: ")

    def test_deeply_nested_line_reports_number(self, tmp_path):
        path = tmp_path / "debug.jsonl"
        path.write_text('{"arrival_ts": 1, "hex": "0102"}\n' + "[" * 100_000 + "\n")
        with pytest.raises(JsonLinesError) as err:
            list(read_store_jsonl(path))
        assert err.value.line_no == 2

    def test_non_utf8_line_reports_number(self, tmp_path):
        rec = msggen.record(42, msggen.make_node_announcement(msggen.node_id(3), 9))
        path = tmp_path / "debug.jsonl"
        line = json.dumps({"arrival_ts": 42, "hex": rec.payload.hex()}).encode()
        # the bad byte sits in a field nobody reads: still not UTF-8
        bad = line[:-1] + b', "note": "\xff"}'
        path.write_bytes(line + b"\n" + bad + b"\n" + line + b"\n")
        records = read_store_jsonl(path)
        assert next(records) == rec
        with pytest.raises(JsonLinesError) as err:
            next(records)
        assert err.value.line_no == 2

    # the last input gives the field twice, the second time valid
    @pytest.mark.parametrize("arrival_ts", ["-5", "18446744073709551616", "true", "1.5", '1, "arrival_ts": 42'])
    def test_arrival_ts_must_be_a_u64_integer(self, tmp_path, arrival_ts):
        rec = msggen.record(42, msggen.make_node_announcement(msggen.node_id(3), 9))
        good = json.dumps({"arrival_ts": 42, "hex": rec.payload.hex()})
        bad = f'{{"arrival_ts": {arrival_ts}, "hex": "{rec.payload.hex()}"}}'
        path = tmp_path / "debug.jsonl"
        path.write_text(good + "\n" + bad + "\n")
        records = read_store_jsonl(path)
        assert next(records) == rec
        with pytest.raises(JsonLinesError) as err:
            next(records)
        assert err.value.line_no == 2
        assert "arrival_ts" in str(err.value)

    def test_arrival_ts_bounds_are_inclusive_of_u64_range(self, tmp_path):
        rec = msggen.record(0, msggen.make_node_announcement(msggen.node_id(3), 9))
        path = tmp_path / "debug.jsonl"
        path.write_text(
            "".join(
                json.dumps({"arrival_ts": ts, "hex": rec.payload.hex()}) + "\n"
                for ts in (0, 2**64 - 1)
            )
        )
        assert [r.arrival_ts for r in read_store_jsonl(path)] == [0, 2**64 - 1]

    def test_open_store_sniffs_format(self, tmp_path):
        rec = msggen.record(7, msggen.make_node_announcement(msggen.node_id(1), 7))
        gsr = tmp_path / "a.gsr"
        write_store(gsr, [rec])
        jsonl = tmp_path / "a.jsonl"
        jsonl.write_text(json.dumps({"arrival_ts": 7, "hex": rec.payload.hex()}) + "\n")
        assert list(open_store(gsr)) == list(open_store(jsonl)) == [rec]
        # JSON lines are sniffed past leading whitespace and blank lines
        padded = tmp_path / "padded.jsonl"
        padded.write_text("\n \t\r\n" + jsonl.read_text())
        assert list(open_store(padded)) == [rec]

    @pytest.mark.parametrize("content", [b"", b" \n\t\r\n\x0b\x0c"], ids=["empty", "whitespace"])
    def test_open_store_empty_or_blank_is_an_empty_archive(self, tmp_path, content):
        path = tmp_path / "blank"
        path.write_bytes(content)
        assert list(open_store(path)) == []

    @pytest.mark.parametrize("content, magic", [
        (b"NOPE\x00\x01", "b'NOPE'"),
        (b"GS", "b'GS'"),
        (b"\n[1, 2]\n", "b'\\n[1,'"),
        (b'"{}"', "b'\"{}\"'"),
    ])
    def test_open_store_fails_on_the_magic_unless_a_line_opens_an_object(self, tmp_path, content, magic):
        path = tmp_path / "bad.gsr"
        path.write_bytes(content)
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: not a gossip archive: magic {re.escape(magic)} != b'GSR1'$"):
            list(open_store(path))


class TestDeduplicateAndOrder:
    def test_exact_duplicate_updates_collapse(self):
        rec = msggen.record(5, msggen.make_channel_update(msggen.scid(1), 100))
        feed = deduplicate_and_order([rec, rec, rec])
        assert len(feed) == 1

    def test_superseded_updates_both_kept_in_order(self):
        upd_late = msggen.record(5, msggen.make_channel_update(msggen.scid(1), 100))
        upd_early = msggen.record(6, msggen.make_channel_update(msggen.scid(1), 50))
        feed = deduplicate_and_order([upd_late, upd_early])
        assert [e.effective_ts for e in feed] == [50, 100]

    def test_channel_announcement_uses_arrival_time(self):
        ann = msggen.make_channel_announcement(
            msggen.scid(1), msggen.node_id(1), msggen.node_id(2)
        )
        feed = deduplicate_and_order([msggen.record(77, ann)])
        assert feed[0].effective_ts == 77

    def test_duplicate_announcement_keeps_earliest_arrival(self):
        ann = msggen.make_channel_announcement(
            msggen.scid(1), msggen.node_id(1), msggen.node_id(2)
        )
        feed = deduplicate_and_order([msggen.record(90, ann), msggen.record(40, ann)])
        assert len(feed) == 1
        assert feed[0].effective_ts == 40

    def test_exact_duplicate_node_announcements_collapse(self):
        ann = msggen.make_node_announcement(msggen.node_id(1), 100)
        records = [msggen.record(arrival, ann) for arrival in (5, 9, 5)]
        feed = deduplicate_and_order(records)
        assert [(e.effective_ts, e.payload) for e in feed] == [(100, records[0].payload)]

    def test_announcement_seen_again_earlier_keeps_that_arrival(self):
        ann = msggen.make_channel_announcement(
            msggen.scid(1), msggen.node_id(1), msggen.node_id(2)
        )
        upd = msggen.make_channel_update(msggen.scid(1), 50)
        records = [msggen.record(90, ann), msggen.record(91, upd), msggen.record(40, ann), msggen.record(60, ann)]
        feed = deduplicate_and_order(records)
        assert [(e.effective_ts, e.payload) for e in feed] == [(40, records[0].payload), (50, records[1].payload)]

    def test_announcement_and_update_at_one_timestamp_both_survive(self):
        ann = msggen.make_channel_announcement(
            msggen.scid(1), msggen.node_id(1), msggen.node_id(2)
        )
        upd = msggen.make_channel_update(msggen.scid(1), 100)
        records = [msggen.record(5, upd), msggen.record(100, ann)]
        feed = deduplicate_and_order(records)
        assert [(e.effective_ts, e.payload) for e in feed] == [(100, records[1].payload), (100, records[0].payload)]

    def test_same_key_different_bytes_keeps_one(self):
        # same (scid, direction, timestamp) but different fee: one survives,
        # chosen by payload bytes so input order does not matter
        a = msggen.record(1, msggen.make_channel_update(msggen.scid(1), 100, fee_base_msat=1))
        b = msggen.record(2, msggen.make_channel_update(msggen.scid(1), 100, fee_base_msat=2))
        fwd = deduplicate_and_order([a, b])
        rev = deduplicate_and_order([b, a])
        assert len(fwd) == 1
        assert fwd == rev

    def test_decode_failure_carries_record_index(self):
        good = msggen.record(1, msggen.make_channel_update(msggen.scid(1), 1))
        bad = StoreRecord(2, b"\x01\x02\x03")
        with pytest.raises(DecodeFailureError) as err:
            deduplicate_and_order([good, bad])
        assert err.value.index == 1

    def _mixed_corpus(self, rng):
        records = []
        for i in range(40):
            kind = rng.randrange(3)
            if kind == 0:
                msg = msggen.make_node_announcement(
                    msggen.node_id(rng.randrange(5)), rng.randrange(1000)
                )
            elif kind == 1:
                a, b = rng.sample(range(5), 2)
                msg = msggen.make_channel_announcement(
                    msggen.scid(rng.randrange(8)), msggen.node_id(a), msggen.node_id(b)
                )
            else:
                msg = msggen.make_channel_update(
                    msggen.scid(rng.randrange(8)),
                    rng.randrange(1000),
                    direction=rng.randrange(2),
                    fee_base_msat=rng.randrange(3),
                )
            records.append(msggen.record(rng.randrange(1000), msg))
        return records

    def test_idempotence(self):
        rng = random.Random(7)
        records = self._mixed_corpus(rng)
        once = deduplicate_and_order(records)
        twice = deduplicate_and_order(records + records)
        assert once == twice

    def test_permutation_invariance(self):
        rng = random.Random(8)
        records = self._mixed_corpus(rng)
        reference = deduplicate_and_order(records)
        for _ in range(10):
            shuffled = records[:]
            rng.shuffle(shuffled)
            assert deduplicate_and_order(shuffled) == reference

    def test_count_conservation(self):
        rng = random.Random(9)
        records = self._mixed_corpus(rng)
        feed = deduplicate_and_order(records)
        assert len(feed) <= len(records)
        distinct = [
            msggen.record(i, msggen.make_node_announcement(msggen.node_id(i), i))
            for i in range(10)
        ]
        assert len(deduplicate_and_order(distinct)) == len(distinct)

    def test_sorted_with_total_tie_break(self):
        feed = deduplicate_and_order(
            [
                msggen.record(10, msggen.make_channel_update(msggen.scid(2), 100)),
                msggen.record(10, msggen.make_node_announcement(msggen.node_id(1), 100)),
                msggen.record(100, msggen.make_channel_announcement(
                    msggen.scid(3), msggen.node_id(1), msggen.node_id(2))),
            ]
        )
        # a payload starts with its u16 type code, so (effective_ts, payload)
        # order is (effective_ts, type_code, payload) order
        keys = [(e.effective_ts, e.payload) for e in feed]
        assert keys == sorted(keys)
        assert [int.from_bytes(e.payload[:2], "big") for e in feed] == [256, 257, 258]

    def test_compaction_is_stable(self, tmp_path):
        rng = random.Random(10)
        records = self._mixed_corpus(rng)
        feed = deduplicate_and_order(records)
        path = tmp_path / "compact.gsr"
        write_store(path, feed_to_records(feed))
        assert deduplicate_and_order(read_store(path)) == feed


class TestCompactionAcrossRuns(TestDeduplicateAndOrder):
    """Every compaction test again, with channel_updates spilled to runs of
    RUN_RECORDS versions and merged two at a time."""

    @pytest.fixture(autouse=True, params=[1, 2, 5])
    def small_runs(self, request, monkeypatch):
        monkeypatch.setattr(store, "RUN_RECORDS", request.param)
        monkeypatch.setattr(store, "FAN_IN", 2)
        written = []
        write_run = store._write_run
        monkeypatch.setattr(store, "_write_run", lambda *args: written.append(write_run(*args)))
        return written

    @pytest.mark.parametrize("smaller_first", [True, False])
    def test_clone_pair_split_across_runs_keeps_the_smaller_payload(self, small_runs, smaller_first):
        a, b = (
            msggen.record(1, msggen.make_channel_update(msggen.scid(1), 100, fee_base_msat=fee))
            for fee in (1, 2)
        )
        smaller, larger = sorted([a, b], key=lambda rec: rec.payload)
        # enough other versions between the two that they land in different runs
        others = [msggen.record(1, msggen.make_channel_update(msggen.scid(2), ts)) for ts in range(10, 20)]
        pair = [smaller, larger] if smaller_first else [larger, smaller]
        feed = deduplicate_and_order([pair[0], *others, pair[1]])
        assert len(small_runs) >= 2
        assert [e.payload for e in feed if e.effective_ts == 100] == [smaller.payload]
        assert len(feed) == 1 + len(others)
