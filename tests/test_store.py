"""Archive framing and feed ordering tests."""

import json
import random
import struct

import pytest

from lntm.codec import decode_message
from lntm.manifest import atomic_write
from lntm.store import (
    BadMagicError,
    CorruptFrameError,
    DecodeFailureError,
    JsonLinesError,
    OrderedFeed,
    StoreRecord,
    deduplicate_and_order,
    feed_to_records,
    open_store,
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
        with pytest.raises(BadMagicError):
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

    @pytest.mark.parametrize("arrival_ts", ["-5", "18446744073709551616", "true", "1.5"])
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
        assert feed.entries[0].effective_ts == 77

    def test_duplicate_announcement_keeps_earliest_arrival(self):
        ann = msggen.make_channel_announcement(
            msggen.scid(1), msggen.node_id(1), msggen.node_id(2)
        )
        feed = deduplicate_and_order([msggen.record(90, ann), msggen.record(40, ann)])
        assert len(feed) == 1
        assert feed.entries[0].effective_ts == 40

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
        keys = [(e.effective_ts, e.type_code, e.payload) for e in feed]
        assert keys == sorted(keys)

    def test_compaction_is_stable(self, tmp_path):
        rng = random.Random(10)
        records = self._mixed_corpus(rng)
        feed = deduplicate_and_order(records)
        path = tmp_path / "compact.gsr"
        write_store(path, feed_to_records(feed))
        assert deduplicate_and_order(read_store(path)) == feed
