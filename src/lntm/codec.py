"""Wire codec for the three public Lightning gossip message types.

All integers are big-endian (network order). Offsets below are relative to
the start of the message, i.e. they include the leading u16 type code.

    type 256 channel_announcement:
        node_signature_1(64) node_signature_2(64)
        bitcoin_signature_1(64) bitcoin_signature_2(64)
        features_len:u16 features(features_len)
        chain_hash(32) short_channel_id(8)
        node_id_1(33) node_id_2(33) bitcoin_key_1(33) bitcoin_key_2(33)

    type 257 node_announcement:
        signature(64) features_len:u16 features(features_len)
        timestamp:u32 node_id(33) rgb_color(3) alias(32)
        addr_len:u16 addresses(addr_len)

    type 258 channel_update:
        signature(64) chain_hash(32) short_channel_id(8) timestamp:u32
        message_flags:u8 channel_flags:u8 cltv_expiry_delta:u16
        htlc_minimum_msat:u64 fee_base_msat:u32
        fee_proportional_millionths:u32
        [htlc_maximum_msat:u64 iff message_flags bit 0 is set]

Any bytes past the defined fields are preserved verbatim as an opaque
``extension`` blob so that decode/encode round-trips are byte-identical.
Signatures are carried opaquely and never verified.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Union

MSG_CHANNEL_ANNOUNCEMENT = 256
MSG_NODE_ANNOUNCEMENT = 257
MSG_CHANNEL_UPDATE = 258

GOSSIP_TYPE_CODES = (
    MSG_CHANNEL_ANNOUNCEMENT,
    MSG_NODE_ANNOUNCEMENT,
    MSG_CHANNEL_UPDATE,
)

# channel_flags bits
FLAG_DIRECTION = 0x01
FLAG_DISABLED = 0x02
# message_flags bits
FLAG_HTLC_MAXIMUM = 0x01

# 33-byte compressed public key; no curve validation beyond the prefix byte.
NodeId = bytes

NODE_ID_LEN = 33


class CodecError(ValueError):
    """Base class for wire codec failures."""


class UnknownTypeError(CodecError):
    """Type code is not one of the three gossip messages."""

    def __init__(self, type_code: int, offset: int):
        super().__init__(f"unknown gossip type code {type_code} at offset {offset}")
        self.type_code = type_code
        self.offset = offset


class TruncatedError(CodecError):
    """Message ends before a required field is complete."""

    def __init__(self, what: str, offset: int):
        super().__init__(f"truncated message: need {what} at offset {offset}")
        self.what = what
        self.offset = offset


class MalformedFieldError(CodecError):
    """A field violates a wire-level invariant (bad pubkey prefix, bad node order)."""

    def __init__(self, what: str, offset: int):
        super().__init__(f"malformed field: {what} at offset {offset}")
        self.what = what
        self.offset = offset


class FieldLengthError(CodecError):
    """A fixed-size field has the wrong length or an integer is out of range."""

    def __init__(self, field_name: str, detail: str):
        super().__init__(f"bad field {field_name}: {detail}")
        self.field_name = field_name


@dataclass(frozen=True, order=True)
class ShortChannelId:
    """Channel identifier packing block height, tx index and output index.

    Packs to 8 bytes on the wire (3 + 3 + 2). Renders as "BxTxO".
    """

    block: int
    tx_index: int
    output_index: int

    def __post_init__(self):
        if not 0 <= self.block < 1 << 24:
            raise ValueError(f"block {self.block} out of u24 range")
        if not 0 <= self.tx_index < 1 << 24:
            raise ValueError(f"tx_index {self.tx_index} out of u24 range")
        if not 0 <= self.output_index < 1 << 16:
            raise ValueError(f"output_index {self.output_index} out of u16 range")

    def pack(self) -> bytes:
        return (
            self.block.to_bytes(3, "big")
            + self.tx_index.to_bytes(3, "big")
            + self.output_index.to_bytes(2, "big")
        )

    @classmethod
    def unpack(cls, data: bytes) -> "ShortChannelId":
        if len(data) != 8:
            raise FieldLengthError("short_channel_id", f"need 8 bytes, got {len(data)}")
        return cls(
            int.from_bytes(data[0:3], "big"),
            int.from_bytes(data[3:6], "big"),
            int.from_bytes(data[6:8], "big"),
        )

    def __str__(self) -> str:
        return f"{self.block}x{self.tx_index}x{self.output_index}"

    @classmethod
    def parse(cls, text: str) -> "ShortChannelId":
        parts = text.split("x")
        if len(parts) != 3:
            raise ValueError(f"bad short channel id string {text!r}")
        return cls(int(parts[0]), int(parts[1]), int(parts[2]))


@dataclass(frozen=True)
class NodeAnnouncement:
    signature: bytes
    features: bytes
    timestamp: int
    node_id: NodeId
    rgb_color: bytes
    alias: bytes  # raw 32 bytes, zero padded, possibly invalid UTF-8
    addresses: bytes  # opaque, not parsed
    extension: bytes = b""


@dataclass(frozen=True)
class ChannelAnnouncement:
    node_signature_1: bytes
    node_signature_2: bytes
    bitcoin_signature_1: bytes
    bitcoin_signature_2: bytes
    features: bytes
    chain_hash: bytes
    short_channel_id: ShortChannelId
    node_id_1: NodeId
    node_id_2: NodeId
    bitcoin_key_1: bytes
    bitcoin_key_2: bytes
    extension: bytes = b""


@dataclass(frozen=True)
class ChannelUpdate:
    signature: bytes
    chain_hash: bytes
    short_channel_id: ShortChannelId
    timestamp: int
    message_flags: int
    channel_flags: int
    cltv_expiry_delta: int
    htlc_minimum_msat: int
    fee_base_msat: int
    fee_proportional_millionths: int
    htlc_maximum_msat: int | None = None
    extension: bytes = b""

    @property
    def direction(self) -> int:
        """0 = node_id_1 -> node_id_2, 1 = node_id_2 -> node_id_1."""
        return self.channel_flags & FLAG_DIRECTION

    @property
    def disabled(self) -> bool:
        return bool(self.channel_flags & FLAG_DISABLED)


GossipMessage = Union[NodeAnnouncement, ChannelAnnouncement, ChannelUpdate]


def alias_text(alias: bytes) -> str:
    """Lossy human-readable form of a raw alias (wild aliases may be invalid UTF-8)."""
    return alias.rstrip(b"\x00").decode("utf-8", errors="replace")


class _Reader:
    """Bounded cursor over a byte string; never reads past the end."""

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int, what: str) -> bytes:
        if self.pos + n > len(self.data):
            raise TruncatedError(what, self.pos)
        chunk = self.data[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def uint(self, n: int, what: str) -> int:
        return int.from_bytes(self.take(n, what), "big")

    def rest(self) -> bytes:
        chunk = self.data[self.pos :]
        self.pos = len(self.data)
        return chunk


def _take_node_id(r: _Reader, what: str) -> NodeId:
    offset = r.pos
    raw = r.take(NODE_ID_LEN, what)
    if raw[0] not in (0x02, 0x03):
        raise MalformedFieldError(f"{what} prefix byte {raw[0]:#04x}", offset)
    return raw


def decode_message(data: bytes) -> GossipMessage:
    """Decode one gossip message from wire bytes.

    Raises UnknownTypeError / TruncatedError / MalformedFieldError; never
    reads past the supplied bytes.
    """
    r = _Reader(data)
    type_code = r.uint(2, "type code")
    if type_code == MSG_CHANNEL_ANNOUNCEMENT:
        return _decode_channel_announcement(r)
    if type_code == MSG_NODE_ANNOUNCEMENT:
        return _decode_node_announcement(r)
    if type_code == MSG_CHANNEL_UPDATE:
        return _decode_channel_update(data)
    raise UnknownTypeError(type_code, 0)


def _decode_channel_announcement(r: _Reader) -> ChannelAnnouncement:
    sig1 = r.take(64, "node_signature_1")
    sig2 = r.take(64, "node_signature_2")
    bsig1 = r.take(64, "bitcoin_signature_1")
    bsig2 = r.take(64, "bitcoin_signature_2")
    features = r.take(r.uint(2, "features length"), "features")
    chain_hash = r.take(32, "chain_hash")
    scid = ShortChannelId.unpack(r.take(8, "short_channel_id"))
    node_id_1 = _take_node_id(r, "node_id_1")
    offset_2 = r.pos
    node_id_2 = _take_node_id(r, "node_id_2")
    if not node_id_1 < node_id_2:
        raise MalformedFieldError("node_id_2 not greater than node_id_1", offset_2)
    key1 = r.take(33, "bitcoin_key_1")
    key2 = r.take(33, "bitcoin_key_2")
    return ChannelAnnouncement(
        node_signature_1=sig1,
        node_signature_2=sig2,
        bitcoin_signature_1=bsig1,
        bitcoin_signature_2=bsig2,
        features=features,
        chain_hash=chain_hash,
        short_channel_id=scid,
        node_id_1=node_id_1,
        node_id_2=node_id_2,
        bitcoin_key_1=key1,
        bitcoin_key_2=key2,
        extension=r.rest(),
    )


def _decode_node_announcement(r: _Reader) -> NodeAnnouncement:
    signature = r.take(64, "signature")
    features = r.take(r.uint(2, "features length"), "features")
    timestamp = r.uint(4, "timestamp")
    node_id = _take_node_id(r, "node_id")
    rgb_color = r.take(3, "rgb_color")
    alias = r.take(32, "alias")
    addresses = r.take(r.uint(2, "addresses length"), "addresses")
    return NodeAnnouncement(
        signature=signature,
        features=features,
        timestamp=timestamp,
        node_id=node_id,
        rgb_color=rgb_color,
        alias=alias,
        addresses=addresses,
        extension=r.rest(),
    )


# channel_update fields after the type code, in wire order; the one Struct
# both the key peek and the full decoder read them with
_UPDATE_FIELDS = (
    ("signature", "64s"),
    ("chain_hash", "32s"),
    ("short_channel_id", "8s"),
    ("timestamp", "I"),
    ("message_flags", "B"),
    ("channel_flags", "B"),
    ("cltv_expiry_delta", "H"),
    ("htlc_minimum_msat", "Q"),
    ("fee_base_msat", "I"),
    ("fee_proportional_millionths", "I"),
)
_UPDATE = struct.Struct(">" + "".join(fmt for _, fmt in _UPDATE_FIELDS))
_UPDATE_TYPE = MSG_CHANNEL_UPDATE.to_bytes(2, "big")
_UPDATE_END = 2 + _UPDATE.size
_HTLC_MAXIMUM = struct.Struct(">Q")


def _unpack_channel_update(data: bytes) -> tuple:
    """The fixed channel_update fields, with the length checks (and errors)
    of a field-by-field read."""
    if len(data) < _UPDATE_END:
        offset = 2
        for what, fmt in _UPDATE_FIELDS:
            end = offset + struct.calcsize(">" + fmt)
            if end > len(data):
                raise TruncatedError(what, offset)
            offset = end
    fields = _UPDATE.unpack_from(data, 2)
    if fields[4] & FLAG_HTLC_MAXIMUM and len(data) < _UPDATE_END + _HTLC_MAXIMUM.size:
        raise TruncatedError("htlc_maximum_msat", _UPDATE_END)
    return fields


def _decode_channel_update(data: bytes) -> ChannelUpdate:
    (signature, chain_hash, scid, timestamp, message_flags, channel_flags,
     cltv_expiry_delta, htlc_minimum_msat, fee_base_msat,
     fee_proportional_millionths) = _unpack_channel_update(data)
    htlc_maximum_msat = None
    end = _UPDATE_END
    if message_flags & FLAG_HTLC_MAXIMUM:
        (htlc_maximum_msat,) = _HTLC_MAXIMUM.unpack_from(data, end)
        end += _HTLC_MAXIMUM.size
    return ChannelUpdate(
        signature=signature,
        chain_hash=chain_hash,
        short_channel_id=ShortChannelId.unpack(scid),
        timestamp=timestamp,
        message_flags=message_flags,
        channel_flags=channel_flags,
        cltv_expiry_delta=cltv_expiry_delta,
        htlc_minimum_msat=htlc_minimum_msat,
        fee_base_msat=fee_base_msat,
        fee_proportional_millionths=fee_proportional_millionths,
        htlc_maximum_msat=htlc_maximum_msat,
        extension=data[end:],
    )


def peek_message(data: bytes) -> tuple[int, int | None, bytes, int]:
    """Validate a message and return only what orders and supersedes it:
    ``(type_code, timestamp, key, channel_flags)``.

    ``key`` is the packed short_channel_id for both channel messages and
    the node id for a node_announcement; ``timestamp`` is None for a
    channel_announcement, which carries none, and ``channel_flags`` is 0
    for the two announcements. Raises exactly what decode_message raises
    on the same bytes. A channel_update is read with one struct unpack and
    never becomes a ChannelUpdate; the two rarer types are fully decoded.
    """
    if data[:2] == _UPDATE_TYPE:
        fields = _unpack_channel_update(data)
        return MSG_CHANNEL_UPDATE, fields[3], fields[2], fields[5]
    msg = decode_message(data)
    if isinstance(msg, ChannelAnnouncement):
        return MSG_CHANNEL_ANNOUNCEMENT, None, msg.short_channel_id.pack(), 0
    return MSG_NODE_ANNOUNCEMENT, msg.timestamp, msg.node_id, 0


def _fixed(name: str, value: bytes, n: int) -> bytes:
    if len(value) != n:
        raise FieldLengthError(name, f"need {n} bytes, got {len(value)}")
    return value


def _uint(name: str, value: int, n_bytes: int) -> bytes:
    if not 0 <= value < 1 << (8 * n_bytes):
        raise FieldLengthError(name, f"{value} out of u{8 * n_bytes} range")
    return value.to_bytes(n_bytes, "big")


def _var(name: str, value: bytes) -> bytes:
    if len(value) > 0xFFFF:
        raise FieldLengthError(name, f"{len(value)} bytes exceeds u16 length prefix")
    return len(value).to_bytes(2, "big") + value


def _node_id_field(name: str, value: bytes) -> bytes:
    _fixed(name, value, NODE_ID_LEN)
    if value[0] not in (0x02, 0x03):
        raise MalformedFieldError(f"{name} prefix byte {value[0]:#04x}", 0)
    return value


def encode_message(msg: GossipMessage) -> bytes:
    """Encode a gossip message to wire bytes; exact inverse of decode_message."""
    if isinstance(msg, ChannelAnnouncement):
        return _encode_channel_announcement(msg)
    if isinstance(msg, NodeAnnouncement):
        return _encode_node_announcement(msg)
    if isinstance(msg, ChannelUpdate):
        return _encode_channel_update(msg)
    raise TypeError(f"not a gossip message: {type(msg).__name__}")


def _encode_channel_announcement(msg: ChannelAnnouncement) -> bytes:
    node_id_1 = _node_id_field("node_id_1", msg.node_id_1)
    node_id_2 = _node_id_field("node_id_2", msg.node_id_2)
    if not node_id_1 < node_id_2:
        raise MalformedFieldError("node_id_2 not greater than node_id_1", 0)
    return b"".join(
        (
            _uint("type", MSG_CHANNEL_ANNOUNCEMENT, 2),
            _fixed("node_signature_1", msg.node_signature_1, 64),
            _fixed("node_signature_2", msg.node_signature_2, 64),
            _fixed("bitcoin_signature_1", msg.bitcoin_signature_1, 64),
            _fixed("bitcoin_signature_2", msg.bitcoin_signature_2, 64),
            _var("features", msg.features),
            _fixed("chain_hash", msg.chain_hash, 32),
            msg.short_channel_id.pack(),
            node_id_1,
            node_id_2,
            _fixed("bitcoin_key_1", msg.bitcoin_key_1, 33),
            _fixed("bitcoin_key_2", msg.bitcoin_key_2, 33),
            msg.extension,
        )
    )


def _encode_node_announcement(msg: NodeAnnouncement) -> bytes:
    return b"".join(
        (
            _uint("type", MSG_NODE_ANNOUNCEMENT, 2),
            _fixed("signature", msg.signature, 64),
            _var("features", msg.features),
            _uint("timestamp", msg.timestamp, 4),
            _node_id_field("node_id", msg.node_id),
            _fixed("rgb_color", msg.rgb_color, 3),
            _fixed("alias", msg.alias, 32),
            _var("addresses", msg.addresses),
            msg.extension,
        )
    )


def _encode_channel_update(msg: ChannelUpdate) -> bytes:
    has_max = msg.htlc_maximum_msat is not None
    flagged = bool(msg.message_flags & FLAG_HTLC_MAXIMUM)
    if has_max != flagged:
        raise FieldLengthError(
            "htlc_maximum_msat",
            "message_flags bit 0 must match presence of htlc_maximum_msat",
        )
    parts = [
        _uint("type", MSG_CHANNEL_UPDATE, 2),
        _fixed("signature", msg.signature, 64),
        _fixed("chain_hash", msg.chain_hash, 32),
        msg.short_channel_id.pack(),
        _uint("timestamp", msg.timestamp, 4),
        _uint("message_flags", msg.message_flags, 1),
        _uint("channel_flags", msg.channel_flags, 1),
        _uint("cltv_expiry_delta", msg.cltv_expiry_delta, 2),
        _uint("htlc_minimum_msat", msg.htlc_minimum_msat, 8),
        _uint("fee_base_msat", msg.fee_base_msat, 4),
        _uint("fee_proportional_millionths", msg.fee_proportional_millionths, 4),
    ]
    if has_max:
        parts.append(_uint("htlc_maximum_msat", msg.htlc_maximum_msat, 8))
    parts.append(msg.extension)
    return b"".join(parts)
