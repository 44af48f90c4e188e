"""Wire codec tests: layouts, structured errors, round-trips, fuzz safety."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from lntm.codec import (
    MSG_CHANNEL_ANNOUNCEMENT,
    MSG_CHANNEL_UPDATE,
    MSG_NODE_ANNOUNCEMENT,
    ChannelAnnouncement,
    ChannelUpdate,
    CodecError,
    FieldLengthError,
    MalformedFieldError,
    NodeAnnouncement,
    ShortChannelId,
    TruncatedError,
    UnknownTypeError,
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

    def test_range_validation(self):
        with pytest.raises(ValueError):
            ShortChannelId(1 << 24, 0, 0)
        with pytest.raises(ValueError):
            ShortChannelId(0, 0, 1 << 16)


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
        assert msg.direction == 1
        assert msg.disabled is True
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


class TestEncodeErrors:
    def test_flag_set_but_maximum_missing(self):
        upd = msggen.make_channel_update(msggen.scid(1), 1)
        upd = ChannelUpdate(
            **{**upd.__dict__, "message_flags": 0x01, "htlc_maximum_msat": None}
        )
        with pytest.raises(FieldLengthError):
            encode_message(upd)

    def test_flag_clear_omits_trailing_bytes(self):
        with_max = msggen.make_channel_update(msggen.scid(1), 1, htlc_maximum_msat=42)
        without = msggen.make_channel_update(msggen.scid(1), 1)
        assert len(encode_message(with_max)) == len(encode_message(without)) + 8

    def test_wrong_signature_length(self):
        upd = msggen.make_channel_update(msggen.scid(1), 1, signature=bytes(63))
        with pytest.raises(FieldLengthError):
            encode_message(upd)

    def test_out_of_range_integer(self):
        upd = msggen.make_channel_update(msggen.scid(1), 2**32)
        with pytest.raises(FieldLengthError):
            encode_message(upd)


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
            assert decode_message(encode_message(upd)).direction == direction


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
