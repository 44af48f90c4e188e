"""Wire codec tests: layouts, structured errors, round-trips, fuzz safety."""

import pickle
import random
from dataclasses import FrozenInstanceError, fields, replace

import pytest
from hypothesis import given, settings, strategies as st

from lntm.codec import (
    FLAG_DIRECTION,
    FLAG_DISABLED,
    MSG_CHANNEL_ANNOUNCEMENT,
    MSG_CHANNEL_UPDATE,
    MSG_NODE_ANNOUNCEMENT,
    ChannelAnnouncement,
    ChannelUpdate,
    CodecError,
    MalformedFieldError,
    NodeAnnouncement,
    ShortChannelId,
    TruncatedError,
    UnknownTypeError,
    _LAYOUTS,
    alias_text,
    decode_message,
    encode_message,
    peek_message,
)

import msggen


class TestShortChannelId:
    def test_pack_layout(self):
        s = ShortChannelId(0x123456, 0xABCDEF, 0x0102)
        assert s.pack() == b"\x12\x34\x56\xab\xcd\xef\x01\x02"

    def test_roundtrip(self):
        s = ShortChannelId(654321, 1234, 7)
        assert ShortChannelId.unpack(s.pack()) == s

    def test_string_form(self):
        s = ShortChannelId(654321, 1234, 7)
        assert str(s) == "654321x1234x7"
        assert ShortChannelId.parse("654321x1234x7") == s

    @pytest.mark.parametrize("text", ["1_0x2x3", " 1x2x3", "+1x2x3", "01x2x3", "\u0661x2x3", "1x2", "1x2x3x4"])
    def test_parse_takes_only_the_string_form(self, text):
        with pytest.raises(ValueError):
            ShortChannelId.parse(text)

    def test_range_validation(self):
        with pytest.raises(ValueError, match=r"^block 16777216 out of u24 range$"):
            ShortChannelId(1 << 24, 0, 0)
        with pytest.raises(ValueError, match=r"^tx_index 16777216 out of u24 range$"):
            ShortChannelId(0, 1 << 24, 0)
        with pytest.raises(ValueError, match=r"^output_index 65536 out of u16 range$"):
            ShortChannelId(0, 0, 1 << 16)
        with pytest.raises(ValueError, match=r"^tx_index 16777216 out of u24 range$"):
            ShortChannelId(1, 2, 3)._replace(tx_index=1 << 24)
        with pytest.raises(ValueError, match=r"^bad field short_channel_id: need 8 bytes, got 7$"):
            ShortChannelId.unpack(bytes(7))

    def test_immutable(self):
        s = ShortChannelId(654321, 1234, 7)
        for field in ("block", "tx_index", "output_index", "other"):
            with pytest.raises(AttributeError):
                setattr(s, field, 1)
        assert s == ShortChannelId(654321, 1234, 7)

    def test_repr(self):
        assert repr(ShortChannelId(654321, 1234, 7)) == "ShortChannelId(block=654321, tx_index=1234, output_index=7)"

    def test_pickles(self):
        s = ShortChannelId(654321, 1234, 7)
        again = pickle.loads(pickle.dumps(s))
        assert type(again) is ShortChannelId and again == s and hash(again) == hash(s)

    @given(st.lists(st.builds(ShortChannelId, st.integers(0, (1 << 24) - 1), st.integers(0, (1 << 24) - 1), st.integers(0, (1 << 16) - 1)), min_size=2, max_size=8))
    def test_sorts_as_its_packed_bytes(self, scids):
        # replay orders channels by their packed ids
        assert sorted(scids) == sorted(scids, key=ShortChannelId.pack)
        a, b = scids[:2]
        assert (a < b, a == b) == (a.pack() < b.pack(), a.pack() == b.pack())


class TestChannelUpdateDecode:
    def _body(self, with_max: bool) -> bytes:
        # hand-built from the field layout, not via encode_message
        body = b"\x01\x02"  # type 258
        body += bytes(range(64))  # signature
        body += b"\xcc" * 32  # chain_hash
        body += b"\x00\x00\x64\x00\x00\x02\x00\x03"  # scid 100x2x3
        body += (1_600_000_000).to_bytes(4, "big")  # timestamp
        body += b"\x01" if with_max else b"\x00"  # message_flags
        body += b"\x03"  # channel_flags: direction 1, disabled
        body += (144).to_bytes(2, "big")  # cltv_expiry_delta
        body += (1000).to_bytes(8, "big")  # htlc_minimum_msat
        body += (1234).to_bytes(4, "big")  # fee_base_msat
        body += (567).to_bytes(4, "big")  # fee_proportional_millionths
        if with_max:
            body += (5_000_000_000).to_bytes(8, "big")
        return body

    def test_full_field_extraction(self):
        msg = decode_message(self._body(with_max=True))
        assert isinstance(msg, ChannelUpdate)
        assert msg.signature == bytes(range(64))
        assert msg.chain_hash == b"\xcc" * 32
        assert msg.short_channel_id == ShortChannelId(100, 2, 3)
        assert msg.timestamp == 1_600_000_000
        assert msg.message_flags == 1
        assert msg.channel_flags == 3
        assert msg.channel_flags & FLAG_DIRECTION == 1
        assert msg.channel_flags & FLAG_DISABLED
        assert msg.cltv_expiry_delta == 144
        assert msg.htlc_minimum_msat == 1000
        assert msg.fee_base_msat == 1234
        assert msg.fee_proportional_millionths == 567
        assert msg.htlc_maximum_msat == 5_000_000_000
        assert msg.extension == b""

    def test_optional_maximum_absent(self):
        msg = decode_message(self._body(with_max=False))
        assert msg.htlc_maximum_msat is None
        assert msg.extension == b""

    def test_trailing_bytes_become_extension(self):
        raw = self._body(with_max=False) + b"\xde\xad\xbe\xef"
        msg = decode_message(raw)
        assert msg.extension == b"\xde\xad\xbe\xef"
        assert encode_message(msg) == raw

    def test_min_max_inversion_recorded_verbatim(self):
        # observed wild data has htlc_minimum > htlc_maximum; keep it
        upd = msggen.make_channel_update(
            msggen.scid(5), 10, htlc_minimum_msat=10**9, htlc_maximum_msat=10**3
        )
        again = decode_message(encode_message(upd))
        assert again.htlc_minimum_msat == 10**9
        assert again.htlc_maximum_msat == 10**3


class TestDecodeErrors:
    def test_empty_input_truncated_at_zero(self):
        with pytest.raises(TruncatedError) as err:
            decode_message(b"")
        assert err.value.offset == 0

    def test_unknown_type_code(self):
        with pytest.raises(UnknownTypeError) as err:
            decode_message(b"\x01\x05" + bytes(200))
        assert err.value.type_code == 261
        assert err.value.offset == 0

    def test_truncated_mid_message_names_offset(self):
        raw = encode_message(msggen.make_channel_update(msggen.scid(1), 1))
        with pytest.raises(TruncatedError) as err:
            decode_message(raw[:80])
        assert 0 < err.value.offset <= 80

    def test_truncated_update_names_field_and_offset(self):
        raw = encode_message(msggen.make_channel_update(msggen.scid(1), 1, htlc_maximum_msat=9))
        expected = {
            1: ("type code", 0),
            50: ("signature", 2),
            80: ("chain_hash", 66),
            100: ("short_channel_id", 98),
            108: ("timestamp", 106),
            110: ("message_flags", 110),
            111: ("channel_flags", 111),
            113: ("cltv_expiry_delta", 112),
            120: ("htlc_minimum_msat", 114),
            125: ("fee_base_msat", 122),
            129: ("fee_proportional_millionths", 126),
            137: ("htlc_maximum_msat", 130),
        }
        for cut, (what, offset) in expected.items():
            with pytest.raises(TruncatedError) as err:
                decode_message(raw[:cut])
            assert (err.value.what, err.value.offset) == (what, offset)

    def test_bad_node_id_prefix(self):
        raw = bytearray(encode_message(msggen.make_node_announcement(msggen.node_id(1), 5)))
        # node_id starts after type(2) + sig(64) + features_len(2) + ts(4)
        raw[72] = 0x04
        with pytest.raises(MalformedFieldError) as err:
            decode_message(bytes(raw))
        assert err.value.offset == 72

    def test_unordered_announcement_node_ids(self):
        ann = msggen.make_channel_announcement(
            msggen.scid(9), msggen.node_id(1), msggen.node_id(2)
        )
        raw = bytearray(encode_message(ann))
        # swap node_id_1 and node_id_2 in place
        off = 2 + 4 * 64 + 2 + len(ann.features) + 32 + 8
        first = raw[off : off + 33]
        second = raw[off + 33 : off + 66]
        raw[off : off + 33] = second
        raw[off + 33 : off + 66] = first
        with pytest.raises(MalformedFieldError):
            decode_message(bytes(raw))


def _announcement_with_features():
    # features of 3 bytes: node_signature_1..bitcoin_signature_2 at 2/66/130/194,
    # features length 258, features 260, chain_hash 263, short_channel_id 295,
    # node_id_1 303, node_id_2 336, bitcoin_key_1 369, bitcoin_key_2 402, end 435
    ann = msggen.make_channel_announcement(
        msggen.scid(9), msggen.node_id(1), msggen.node_id(2), features=b"\xaa\xbb\xcc"
    )
    return encode_message(ann)


def _node_announcement_with_blobs():
    # features of 2 bytes and addresses of 5: signature 2, features length 66,
    # features 68, timestamp 70, node_id 74, rgb_color 107, alias 110,
    # addresses length 142, addresses 144, end 149
    ann = msggen.make_node_announcement(msggen.node_id(1), 5, addresses=b"abcde")
    return encode_message(replace(ann, features=b"\x01\x02"))


def _raises(fn, raw: bytes, cls) -> CodecError:
    with pytest.raises(cls) as err:
        fn(raw)
    return err.value


class TestErrorOffsets:
    """The field name and offset of every decode error, for decode and peek."""

    def _assert_truncations(self, raw: bytes, expected: dict) -> None:
        for cut, (what, offset) in expected.items():
            for fn in (decode_message, peek_message):
                err = _raises(fn, raw[:cut], TruncatedError)
                assert (err.what, err.offset) == (what, offset)
                assert str(err) == f"truncated message: need {what} at offset {offset}"

    def test_truncated_channel_announcement_names_field_and_offset(self):
        raw = _announcement_with_features()
        assert len(raw) == 435
        self._assert_truncations(raw, {
            1: ("type code", 0),
            2: ("node_signature_1", 2),
            100: ("node_signature_2", 66),
            150: ("bitcoin_signature_1", 130),
            257: ("bitcoin_signature_2", 194),
            259: ("features length", 258),
            262: ("features", 260),
            270: ("chain_hash", 263),
            302: ("short_channel_id", 295),
            310: ("node_id_1", 303),
            340: ("node_id_2", 336),
            401: ("bitcoin_key_1", 369),
            434: ("bitcoin_key_2", 402),
        })

    def test_truncated_node_announcement_names_field_and_offset(self):
        raw = _node_announcement_with_blobs()
        assert len(raw) == 149
        self._assert_truncations(raw, {
            1: ("type code", 0),
            60: ("signature", 2),
            67: ("features length", 66),
            69: ("features", 68),
            73: ("timestamp", 70),
            100: ("node_id", 74),
            109: ("rgb_color", 107),
            141: ("alias", 110),
            143: ("addresses length", 142),
            148: ("addresses", 144),
        })

    def test_truncated_update_peek_names_field_and_offset(self):
        raw = encode_message(msggen.make_channel_update(msggen.scid(1), 1, htlc_maximum_msat=9))
        self._assert_truncations(raw, {
            50: ("signature", 2),
            100: ("short_channel_id", 98),
            125: ("fee_base_msat", 122),
            137: ("htlc_maximum_msat", 130),
        })

    @pytest.mark.parametrize(
        "build, pos, expected",
        [
            (_announcement_with_features, 303, "node_id_1 prefix byte 0x04 at offset 303"),
            (_announcement_with_features, 336, "node_id_2 prefix byte 0x04 at offset 336"),
            (_node_announcement_with_blobs, 74, "node_id prefix byte 0x04 at offset 74"),
        ],
    )
    def test_node_id_prefix_names_field_and_offset(self, build, pos, expected):
        raw = bytearray(build())
        raw[pos] = 0x04
        for fn in (decode_message, peek_message):
            err = _raises(fn, bytes(raw), MalformedFieldError)
            assert str(err) == f"malformed field: {expected}"
            assert err.offset == pos

    def test_node_order_names_offset_of_node_id_2(self):
        raw = bytearray(_announcement_with_features())
        raw[336:369], raw[303:336] = raw[303:336], raw[336:369]
        for fn in (decode_message, peek_message):
            err = _raises(fn, bytes(raw), MalformedFieldError)
            assert str(err) == "malformed field: node_id_2 not greater than node_id_1 at offset 336"
            assert (err.what, err.offset) == ("node_id_2 not greater than node_id_1", 336)

    def test_checks_run_in_field_order(self):
        raw = bytearray(_announcement_with_features())
        raw[303] = 0x04  # a bad node_id_1 prefix
        # cut inside node_id_1: the truncation comes first
        assert _raises(decode_message, bytes(raw[:320]), TruncatedError).what == "node_id_1"
        # cut after node_id_1: its prefix is checked before the cut is seen
        for cut in (336, 350, 400):
            err = _raises(decode_message, bytes(raw[:cut]), MalformedFieldError)
            assert err.offset == 303
        # node order is checked once node_id_2 is complete, before later cuts
        swapped = bytearray(_announcement_with_features())
        swapped[336:369], swapped[303:336] = swapped[303:336], swapped[336:369]
        assert _raises(decode_message, bytes(swapped[:350]), TruncatedError).what == "node_id_2"
        assert _raises(decode_message, bytes(swapped[:400]), MalformedFieldError).offset == 336


_CHANNEL_ANNOUNCEMENT = msggen.make_channel_announcement(msggen.scid(9), msggen.node_id(1), msggen.node_id(2))
_NODE_ANNOUNCEMENT = msggen.make_node_announcement(msggen.node_id(1), 5)
_CHANNEL_UPDATE = msggen.make_channel_update(msggen.scid(1), 1, htlc_maximum_msat=9)
_TOO_LONG = bytes(0x10000)

# one fault per field: the message, the field, its bad value, and the error
_ENCODE_FAULTS = [
    (_CHANNEL_ANNOUNCEMENT, "node_signature_1", bytes(63), ValueError, "bad field node_signature_1: need 64 bytes, got 63"),
    (_CHANNEL_ANNOUNCEMENT, "node_signature_2", bytes(63), ValueError, "bad field node_signature_2: need 64 bytes, got 63"),
    (_CHANNEL_ANNOUNCEMENT, "bitcoin_signature_1", bytes(63), ValueError, "bad field bitcoin_signature_1: need 64 bytes, got 63"),
    (_CHANNEL_ANNOUNCEMENT, "bitcoin_signature_2", bytes(65), ValueError, "bad field bitcoin_signature_2: need 64 bytes, got 65"),
    (_CHANNEL_ANNOUNCEMENT, "features", _TOO_LONG, ValueError, "bad field features: 65536 bytes exceeds u16 length prefix"),
    (_CHANNEL_ANNOUNCEMENT, "chain_hash", bytes(31), ValueError, "bad field chain_hash: need 32 bytes, got 31"),
    (_CHANNEL_ANNOUNCEMENT, "node_id_1", msggen.node_id(1)[:32], ValueError, "bad field node_id_1: need 33 bytes, got 32"),
    (_CHANNEL_ANNOUNCEMENT, "node_id_1", b"\x04" + bytes(32), MalformedFieldError, "malformed field: node_id_1 prefix byte 0x04 at offset 0"),
    (_CHANNEL_ANNOUNCEMENT, "node_id_2", msggen.node_id(2)[:32], ValueError, "bad field node_id_2: need 33 bytes, got 32"),
    (_CHANNEL_ANNOUNCEMENT, "node_id_2", b"\x05" + bytes(32), MalformedFieldError, "malformed field: node_id_2 prefix byte 0x05 at offset 0"),
    (_CHANNEL_ANNOUNCEMENT, "node_id_2", msggen.node_id(1), MalformedFieldError, "malformed field: node_id_2 not greater than node_id_1 at offset 0"),
    (_CHANNEL_ANNOUNCEMENT, "bitcoin_key_1", bytes(32), ValueError, "bad field bitcoin_key_1: need 33 bytes, got 32"),
    (_CHANNEL_ANNOUNCEMENT, "bitcoin_key_2", bytes(32), ValueError, "bad field bitcoin_key_2: need 33 bytes, got 32"),
    (_NODE_ANNOUNCEMENT, "signature", bytes(63), ValueError, "bad field signature: need 64 bytes, got 63"),
    (_NODE_ANNOUNCEMENT, "features", _TOO_LONG, ValueError, "bad field features: 65536 bytes exceeds u16 length prefix"),
    (_NODE_ANNOUNCEMENT, "timestamp", 2**32, ValueError, "bad field timestamp: 4294967296 out of u32 range"),
    (_NODE_ANNOUNCEMENT, "timestamp", -1, ValueError, "bad field timestamp: -1 out of u32 range"),
    (_NODE_ANNOUNCEMENT, "node_id", msggen.node_id(1)[:32], ValueError, "bad field node_id: need 33 bytes, got 32"),
    (_NODE_ANNOUNCEMENT, "node_id", b"\x00" + bytes(32), MalformedFieldError, "malformed field: node_id prefix byte 0x00 at offset 0"),
    (_NODE_ANNOUNCEMENT, "rgb_color", bytes(2), ValueError, "bad field rgb_color: need 3 bytes, got 2"),
    (_NODE_ANNOUNCEMENT, "alias", bytes(31), ValueError, "bad field alias: need 32 bytes, got 31"),
    (_NODE_ANNOUNCEMENT, "addresses", _TOO_LONG, ValueError, "bad field addresses: 65536 bytes exceeds u16 length prefix"),
    (_CHANNEL_UPDATE, "signature", bytes(63), ValueError, "bad field signature: need 64 bytes, got 63"),
    (_CHANNEL_UPDATE, "chain_hash", bytes(33), ValueError, "bad field chain_hash: need 32 bytes, got 33"),
    (_CHANNEL_UPDATE, "timestamp", 2**32, ValueError, "bad field timestamp: 4294967296 out of u32 range"),
    (_CHANNEL_UPDATE, "message_flags", 257, ValueError, "bad field message_flags: 257 out of u8 range"),
    (_CHANNEL_UPDATE, "message_flags", 0, ValueError, "bad field htlc_maximum_msat: message_flags bit 0 must match presence of htlc_maximum_msat"),
    (_CHANNEL_UPDATE, "channel_flags", 256, ValueError, "bad field channel_flags: 256 out of u8 range"),
    (_CHANNEL_UPDATE, "cltv_expiry_delta", 2**16, ValueError, "bad field cltv_expiry_delta: 65536 out of u16 range"),
    (_CHANNEL_UPDATE, "htlc_minimum_msat", 2**64, ValueError, "bad field htlc_minimum_msat: 18446744073709551616 out of u64 range"),
    (_CHANNEL_UPDATE, "fee_base_msat", -1, ValueError, "bad field fee_base_msat: -1 out of u32 range"),
    (_CHANNEL_UPDATE, "fee_proportional_millionths", 2**32, ValueError, "bad field fee_proportional_millionths: 4294967296 out of u32 range"),
    (_CHANNEL_UPDATE, "htlc_maximum_msat", 2**64, ValueError, "bad field htlc_maximum_msat: 18446744073709551616 out of u64 range"),
    (_CHANNEL_UPDATE, "htlc_maximum_msat", None, ValueError, "bad field htlc_maximum_msat: message_flags bit 0 must match presence of htlc_maximum_msat"),
]


class TestEncodeFaults:
    @pytest.mark.parametrize(
        "msg, field, value, cls, message",
        _ENCODE_FAULTS,
        ids=[f"{type(m).__name__}-{f}-{i}" for i, (m, f, *_) in enumerate(_ENCODE_FAULTS)],
    )
    def test_single_field_fault(self, msg, field, value, cls, message):
        encode_message(msg)  # the message itself is valid
        with pytest.raises(cls) as err:
            encode_message(replace(msg, **{field: value}))
        assert type(err.value) is cls
        assert str(err.value) == message

    def test_not_a_message(self):
        with pytest.raises(TypeError, match="not a gossip message: bytes"):
            encode_message(b"\x01\x02")


class TestEncodeErrors:
    def test_flag_set_but_maximum_missing(self):
        upd = msggen.make_channel_update(msggen.scid(1), 1)
        upd = ChannelUpdate(
            **{**upd.__dict__, "message_flags": 0x01, "htlc_maximum_msat": None}
        )
        with pytest.raises(ValueError, match=r"^bad field htlc_maximum_msat: message_flags bit 0 must match presence of htlc_maximum_msat$"):
            encode_message(upd)

    def test_flag_clear_omits_trailing_bytes(self):
        with_max = msggen.make_channel_update(msggen.scid(1), 1, htlc_maximum_msat=42)
        without = msggen.make_channel_update(msggen.scid(1), 1)
        assert len(encode_message(with_max)) == len(encode_message(without)) + 8

    def test_wrong_signature_length(self):
        upd = msggen.make_channel_update(msggen.scid(1), 1, signature=bytes(63))
        with pytest.raises(ValueError, match=r"^bad field signature: need 64 bytes, got 63$"):
            encode_message(upd)

    def test_out_of_range_integer(self):
        upd = msggen.make_channel_update(msggen.scid(1), 2**32)
        with pytest.raises(ValueError, match=r"^bad field timestamp: 4294967296 out of u32 range$"):
            encode_message(upd)


class TestMessageClasses:
    """The message classes are built from ``_LAYOUTS``; these are the
    properties decode, encode and their callers rely on."""

    @pytest.mark.parametrize(
        "type_code, cls",
        [
            (MSG_CHANNEL_ANNOUNCEMENT, ChannelAnnouncement),
            (MSG_NODE_ANNOUNCEMENT, NodeAnnouncement),
            (MSG_CHANNEL_UPDATE, ChannelUpdate),
        ],
    )
    def test_fields_are_the_layout_then_extension(self, type_code, cls):
        assert [f.name for f in fields(cls)] == [name for name, _ in _LAYOUTS[type_code]] + ["extension"]
        assert (cls.__module__, cls.__qualname__) == ("lntm.codec", cls.__name__)

    @pytest.mark.parametrize("msg", [_CHANNEL_ANNOUNCEMENT, _NODE_ANNOUNCEMENT, _CHANNEL_UPDATE], ids=lambda m: type(m).__name__)
    def test_frozen_and_hashable(self, msg):
        with pytest.raises(FrozenInstanceError):
            msg.extension = b"\x00"
        copy = replace(msg)
        assert copy is not msg and hash(copy) == hash(msg)
        assert len({msg, copy, replace(msg, extension=b"\x00")}) == 2

    def test_optional_fields_default(self):
        upd = _CHANNEL_UPDATE
        required = {f.name: getattr(upd, f.name) for f in fields(upd)}
        del required["htlc_maximum_msat"], required["extension"]
        bare = ChannelUpdate(**required)
        assert (bare.htlc_maximum_msat, bare.extension) == (None, b"")

    def test_replaced_update_round_trips(self):
        # how the benchmark corpus clones an update with another fee
        clone = replace(_CHANNEL_UPDATE, fee_base_msat=4321, signature=bytes(range(64)))
        again = decode_message(encode_message(clone))
        assert again == clone and again.fee_base_msat == 4321
        assert encode_message(again) == encode_message(clone)


class TestRoundTrip:
    def test_randomized_messages_all_types(self):
        rng = random.Random(1234)
        makers = (
            msggen.random_node_announcement,
            msggen.random_channel_announcement,
            msggen.random_channel_update,
        )
        for maker in makers:
            for _ in range(300):
                msg = maker(rng)
                raw = encode_message(msg)
                assert decode_message(raw) == msg
                assert encode_message(decode_message(raw)) == raw

    def test_direction_bit_constructs_both_orientations(self):
        for direction in (0, 1):
            upd = msggen.make_channel_update(msggen.scid(7), 5, direction=direction)
            assert decode_message(encode_message(upd)).channel_flags & FLAG_DIRECTION == direction


class TestFuzzSafety:
    def test_random_bytes_never_crash(self):
        rng = random.Random(99)
        for _ in range(3000):
            blob = rng.randbytes(rng.randrange(0, 600))
            try:
                decode_message(blob)
            except CodecError:
                pass

    def test_mutated_valid_messages_never_crash(self):
        rng = random.Random(100)
        base = encode_message(msggen.random_channel_update(rng))
        for _ in range(2000):
            raw = bytearray(base)
            for _ in range(rng.randrange(1, 6)):
                raw[rng.randrange(len(raw))] = rng.randrange(256)
            cut = rng.randrange(len(raw) + 1)
            try:
                decode_message(bytes(raw[:cut]))
            except CodecError:
                pass


def _expected_peek(msg) -> tuple:
    if isinstance(msg, ChannelUpdate):
        return MSG_CHANNEL_UPDATE, msg.timestamp, msg.short_channel_id.pack(), msg.channel_flags
    if isinstance(msg, ChannelAnnouncement):
        return MSG_CHANNEL_ANNOUNCEMENT, None, msg.short_channel_id.pack(), 0
    return MSG_NODE_ANNOUNCEMENT, msg.timestamp, msg.node_id, 0


def _assert_peek_agrees(raw: bytes) -> None:
    try:
        msg = decode_message(raw)
    except CodecError as exc:
        with pytest.raises(CodecError) as err:
            peek_message(raw)
        assert (type(err.value), str(err.value)) == (type(exc), str(exc))
        return
    assert peek_message(raw) == _expected_peek(msg)


class TestPeekMatchesDecode:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        maker=st.sampled_from(
            (
                msggen.random_node_announcement,
                msggen.random_channel_announcement,
                msggen.random_channel_update,
            )
        ),
        mask=st.integers(1, 255),
    )
    def test_every_truncation_and_single_byte_mutation(self, seed, maker, mask):
        raw = encode_message(maker(random.Random(seed)))
        for cut in range(len(raw) + 1):
            _assert_peek_agrees(raw[:cut])
        for pos in range(len(raw)):
            mutated = bytearray(raw)
            mutated[pos] ^= mask
            _assert_peek_agrees(bytes(mutated))

    def test_htlc_maximum_flag_without_the_field(self):
        upd = msggen.make_channel_update(msggen.scid(3), 7)
        raw = bytearray(encode_message(upd))
        raw[2 + 64 + 32 + 8 + 4] |= 0x01  # message_flags: claim htlc_maximum_msat
        with pytest.raises(TruncatedError) as err:
            peek_message(bytes(raw))
        assert err.value.what == "htlc_maximum_msat"
        _assert_peek_agrees(bytes(raw))


class TestAliasText:
    def test_strips_padding(self):
        assert alias_text(b"hub-node" + bytes(24)) == "hub-node"

    def test_invalid_utf8_is_lossy_not_fatal(self):
        text = alias_text(b"\xff\xfe caf\xc3" + bytes(26))
        assert isinstance(text, str)
