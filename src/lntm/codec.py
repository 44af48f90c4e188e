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

``_LAYOUTS`` is the one statement of these layouts in the code: decode,
peek and encode all walk it.

Any bytes past the defined fields are preserved verbatim as an opaque
``extension`` blob so that decode/encode round-trips are byte-identical.
Signatures are carried opaquely and never verified.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from itertools import groupby
from typing import Union

MSG_CHANNEL_ANNOUNCEMENT = 256
MSG_NODE_ANNOUNCEMENT = 257
MSG_CHANNEL_UPDATE = 258

# channel_flags bits
FLAG_DIRECTION = 0x01
FLAG_DISABLED = 0x02
# message_flags bits
FLAG_HTLC_MAXIMUM = 0x01

# 33-byte compressed public key; no curve validation beyond the prefix byte.
NodeId = bytes


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


# Every message's fields after its u16 type code, in wire order, as
# (name, struct format); each dataclass lists them in the same order. The
# reader, the peek and the writer all walk this one table.
_BLOB = "u16 length-prefixed bytes"
_LAYOUTS = {
    MSG_CHANNEL_ANNOUNCEMENT: (
        ("node_signature_1", "64s"),
        ("node_signature_2", "64s"),
        ("bitcoin_signature_1", "64s"),
        ("bitcoin_signature_2", "64s"),
        ("features", _BLOB),
        ("chain_hash", "32s"),
        ("short_channel_id", "8s"),
        ("node_id_1", "33s"),
        ("node_id_2", "33s"),
        ("bitcoin_key_1", "33s"),
        ("bitcoin_key_2", "33s"),
    ),
    MSG_NODE_ANNOUNCEMENT: (
        ("signature", "64s"),
        ("features", _BLOB),
        ("timestamp", "I"),
        ("node_id", "33s"),
        ("rgb_color", "3s"),
        ("alias", "32s"),
        ("addresses", _BLOB),
    ),
    MSG_CHANNEL_UPDATE: (
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
        ("htlc_maximum_msat", "Q"),
    ),
}
# present iff bit 0 of message_flags (the fifth channel_update field) is set
_GATED = "htlc_maximum_msat"
_NODE_IDS = ("node_id_1", "node_id_2", "node_id")
_CLASSES = {
    MSG_CHANNEL_ANNOUNCEMENT: ChannelAnnouncement,
    MSG_NODE_ANNOUNCEMENT: NodeAnnouncement,
    MSG_CHANNEL_UPDATE: ChannelUpdate,
}
_U16 = struct.Struct(">H")


def _steps(layout: tuple) -> tuple:
    """Cut a layout into the steps the reader takes: each blob alone (no
    Struct), the gated field alone, and each run of fixed fields between
    them, read with one Struct. A run also lists its node ids as
    ``(index, offset in the run, name)``."""
    steps = []
    for _, group in groupby(layout, lambda f: f if f[1] == _BLOB or f[0] == _GATED else None):
        fields = tuple(group)
        if fields[0][1] == _BLOB:
            steps.append((None, fields, ()))
            continue
        formats = [">"] + [fmt for _, fmt in fields]
        checks = tuple(
            (i, struct.calcsize("".join(formats[: i + 1])), name)
            for i, (name, _) in enumerate(fields)
            if name in _NODE_IDS
        )
        steps.append((struct.Struct("".join(formats)), fields, checks))
    return tuple(steps)


_STEPS = {type_code: _steps(layout) for type_code, layout in _LAYOUTS.items()}
_UPDATE = _STEPS[MSG_CHANNEL_UPDATE][0][0]
_UPDATE_TYPE = _U16.pack(MSG_CHANNEL_UPDATE)
_UPDATE_END = 2 + _UPDATE.size


def _check_node_id(name: str, value: bytes, offset: int, previous: bytes) -> None:
    """The prefix byte of a node id and, for node_id_2, the node order;
    ``previous`` is the field before it (node_id_1 for node_id_2)."""
    if value[0] not in (0x02, 0x03):
        raise MalformedFieldError(f"{name} prefix byte {value[0]:#04x}", offset)
    if name == "node_id_2" and not previous < value:
        raise MalformedFieldError("node_id_2 not greater than node_id_1", offset)


def _read(data: bytes) -> tuple[int, list, int]:
    """Walk the layout of a message: its type code, its field values in
    layout order (None for an absent htlc_maximum_msat) and the offset its
    extension starts at. Raises what a field-by-field read raises, at the
    first field that is short or malformed, and never reads past the end."""
    if len(data) < 2:
        raise TruncatedError("type code", 0)
    (type_code,) = _U16.unpack_from(data)
    steps = _STEPS.get(type_code)
    if steps is None:
        raise UnknownTypeError(type_code, 0)
    values: list = []
    pos = 2
    for packer, fields, checks in steps:
        if packer is None:
            name = fields[0][0]
            if pos + 2 > len(data):
                raise TruncatedError(f"{name} length", pos)
            end = pos + 2 + _U16.unpack_from(data, pos)[0]
            if end > len(data):
                raise TruncatedError(name, pos + 2)
            values.append(data[pos + 2 : end])
            pos = end
        elif fields[0][0] == _GATED and not values[4] & FLAG_HTLC_MAXIMUM:
            values.append(None)
        elif pos + packer.size <= len(data):
            first = len(values)
            values += packer.unpack_from(data, pos)
            for i, offset, name in checks:
                _check_node_id(name, values[first + i], pos + offset, values[first + i - 1])
            pos += packer.size
        else:
            # short: read field by field up to the one that does not fit
            for name, fmt in fields:
                size = struct.calcsize(">" + fmt)
                if pos + size > len(data):
                    raise TruncatedError(name, pos)
                (value,) = struct.unpack_from(">" + fmt, data, pos)
                if name in _NODE_IDS:
                    _check_node_id(name, value, pos, values[-1])
                values.append(value)
                pos += size
    return type_code, values, pos


def decode_message(data: bytes) -> GossipMessage:
    """Decode one gossip message from wire bytes.

    Raises UnknownTypeError / TruncatedError / MalformedFieldError; never
    reads past the supplied bytes.
    """
    type_code, values, end = _read(data)
    fields = dict(zip((name for name, _ in _LAYOUTS[type_code]), values))
    if "short_channel_id" in fields:
        fields["short_channel_id"] = ShortChannelId.unpack(fields["short_channel_id"])
    return _CLASSES[type_code](**fields, extension=data[end:])


def peek_message(data: bytes) -> tuple[int, int | None, bytes, int]:
    """Validate a message and return only what orders and supersedes it:
    ``(type_code, timestamp, key, channel_flags)``.

    ``key`` is the packed short_channel_id for both channel messages and
    the node id for a node_announcement; ``timestamp`` is None for a
    channel_announcement, which carries none, and ``channel_flags`` is 0
    for the two announcements. Raises exactly what decode_message raises
    on the same bytes. A complete channel_update is read with one struct
    unpack; no message becomes a dataclass.
    """
    if data[:2] == _UPDATE_TYPE and len(data) >= _UPDATE_END:
        fields = _UPDATE.unpack_from(data, 2)
        # message_flags, then room for a flagged u64 htlc_maximum_msat
        if not fields[4] & FLAG_HTLC_MAXIMUM or len(data) >= _UPDATE_END + 8:
            return MSG_CHANNEL_UPDATE, fields[3], fields[2], fields[5]
    # an incomplete channel_update raises here
    type_code, values, _ = _read(data)
    if type_code == MSG_CHANNEL_ANNOUNCEMENT:
        return type_code, None, values[6], 0
    return type_code, values[2], values[3], 0


def encode_message(msg: GossipMessage) -> bytes:
    """Encode a gossip message to wire bytes; exact inverse of decode_message."""
    type_code = next((code for code, cls in _CLASSES.items() if isinstance(msg, cls)), None)
    if type_code is None:
        raise TypeError(f"not a gossip message: {type(msg).__name__}")
    if type_code == MSG_CHANNEL_UPDATE:
        has_max = msg.htlc_maximum_msat is not None
        if has_max != bool(msg.message_flags & FLAG_HTLC_MAXIMUM):
            raise FieldLengthError(_GATED, "message_flags bit 0 must match presence of htlc_maximum_msat")
    parts = [_U16.pack(type_code)]
    value = None
    for name, fmt in _LAYOUTS[type_code]:
        previous, value = value, getattr(msg, name)
        if fmt == _BLOB:
            if len(value) > 0xFFFF:
                raise FieldLengthError(name, f"{len(value)} bytes exceeds u16 length prefix")
            parts += (_U16.pack(len(value)), value)
            continue
        if name == _GATED and value is None:
            continue
        if name == "short_channel_id":
            value = value.pack()
        size = struct.calcsize(">" + fmt)
        if not fmt.endswith("s"):
            if not 0 <= value < 1 << (8 * size):
                raise FieldLengthError(name, f"{value} out of u{8 * size} range")
        elif len(value) != size:
            raise FieldLengthError(name, f"need {size} bytes, got {len(value)}")
        if name in _NODE_IDS:
            _check_node_id(name, value, 0, previous)
        parts.append(struct.pack(">" + fmt, value))
    parts.append(msg.extension)
    return b"".join(parts)
