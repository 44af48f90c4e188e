"""Output files and the one JSON and CSV layer: the canonical form every
JSON document is written in (lntm's own writer makes its text, byte for
byte that of ``json.dumps(doc, sort_keys=True, indent=2)``, streamed every
``_WRITE_CHUNKS`` lines), the one CSV form every table is written in, the
loader of versioned documents, the typed-field checks of every JSON input,
atomic writes, and the reproducibility manifests written alongside every
command's outputs.

A manifest records the tool version, input digests, parameters and output
digests; two runs with identical manifests produced byte-identical files.
"""

from __future__ import annotations

import hashlib
import json
import os
from contextlib import contextmanager
from json.encoder import encode_basestring_ascii
from math import isfinite
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, Optional, Sequence, TypeVar

TOOL_NAME = "lntm"

T = TypeVar("T")

# lines of text joined into one write
_WRITE_CHUNKS = 1 << 10
# each JSON scalar type's text, in the order json tests them with isinstance
_SCALARS: dict[type, Callable] = {
    str: encode_basestring_ascii,
    type(None): lambda _: "null",
    bool: lambda value: "true" if value else "false",
    int: int.__repr__,
    float: lambda value: float.__repr__(value) if isfinite(value) else "NaN" if value != value else "Infinity" if value > 0 else "-Infinity",
}


def _write_canonical(doc, write: Callable[[str], object]) -> None:
    """Pass the canonical text of ``doc`` to ``write`` in batches of
    ``_WRITE_CHUNKS`` lines, each line built as one string. A value of no
    JSON type, or a dict key that is not a str, is a TypeError."""
    lines: list[str] = []

    def emit(head: str, value, tail: str, pad: str) -> None:
        if not isinstance(value, (dict, list, tuple)):
            text = next((text for cls, text in _SCALARS.items() if isinstance(value, cls)), None)
            if text is None:
                raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
            lines.append(f"{head}{text(value)}{tail}")
            return
        brackets = "{}" if isinstance(value, dict) else "[]"
        if not value:
            lines.append(f"{head}{brackets}{tail}")
            return
        lines.append(head + brackets[0])
        inner, last = pad + "  ", len(value) - 1
        for i, item in enumerate(sorted(value.items()) if brackets == "{}" else value):
            item_head, item = (f"{inner}{encode_basestring_ascii(item[0])}: ", item[1]) if brackets == "{}" else (inner, item)
            item_tail = "," if i < last else ""
            # a scalar of an exact JSON type, most items, takes no call
            text = _SCALARS.get(type(item))
            if text is None:
                emit(item_head, item, item_tail, inner)
            else:
                lines.append(f"{item_head}{text(item)}{item_tail}")
            if len(lines) >= _WRITE_CHUNKS:
                write("\n".join(lines) + "\n")
                lines.clear()
        lines.append(pad + brackets[1] + tail)

    emit("", doc, "", "")
    write("\n".join(lines) + "\n")


def dump_document(doc) -> str:
    """The canonical JSON form with a final newline, so equal documents are
    byte-identical (diffable and hashable)."""
    parts: list[str] = []
    _write_canonical(doc, parts.append)
    return "".join(parts)


def write_document(path: str | Path, doc) -> None:
    """Write ``dump_document(doc)`` atomically at ``path``, streamed
    ``_WRITE_CHUNKS`` lines to a write, so the whole text is never held."""
    with atomic_write(path) as fh:
        _write_canonical(doc, fh.write)


def dump_table(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """The one CSV form: a header row, then one row per entry, cells joined
    by commas and never quoted, each row ending in a newline. A cell is its
    value's ``str`` (for a float that is its shortest round-trip ``repr``),
    and ``None`` is an empty cell. Node ids are hex, numbers need no
    quoting, and labels may not hold a comma, a quote or a line break."""
    lines = [",".join(header)]
    lines += [",".join("" if cell is None else str(cell) for cell in row) for row in rows]
    return "\n".join(lines) + "\n"


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """The ``object_pairs_hook`` of every JSON input: an object that repeats
    a key is a ValueError naming it, where ``json`` would keep the last."""
    doc = dict(pairs)
    if len(doc) != len(pairs):
        seen: set[str] = set()
        for key, _ in pairs:
            if key in seen:
                raise ValueError(f"repeated key {key!r}")
            seen.add(key)
    return doc


def parse_json(text: str):
    """``json.loads`` that rejects an object repeating a key."""
    return json.loads(text, object_pairs_hook=_unique_keys)


def load_document(text: str, marker: str, version: int, kind: str, build: Callable[[dict], T]) -> T:
    """Parse a versioned ``kind`` document and build its value. Bad JSON, an
    object that repeats a key, a ``format`` other than ``marker``, another
    ``version``, and a KeyError, ValueError or TypeError from ``build``
    raise ValueError."""
    try:
        doc = parse_json(text)
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != marker:
        raise ValueError(f"missing {kind} format marker")
    if doc.get("version") != version:
        raise ValueError(f"unsupported {kind} version {doc.get('version')!r}")
    try:
        return build(doc)
    except (KeyError, ValueError, TypeError) as exc:
        raise ValueError(f"malformed {kind} document: {exc}") from exc


def typed(doc: dict, key: str, *types: type):
    """``doc[key]``, whose type must be exactly one of ``types``, so that a
    bool is never taken for an int."""
    value = doc[key]
    if type(value) not in types:
        names = " or ".join("null" if t is type(None) else t.__name__ for t in types)
        raise ValueError(f"{key} {value!r} is not {names}")
    return value


def uint(doc: dict, key: str, bits: int, *also: type) -> Optional[int]:
    """``doc[key]`` as an unsigned integer of a wire field's width."""
    value = typed(doc, key, int, *also)
    if type(value) is int and not 0 <= value < 1 << bits:
        raise ValueError(f"{key} {value} is outside [0, 2^{bits})")
    return value


@contextmanager
def atomic_write(path: str | Path, binary: bool = False) -> Iterator[IO]:
    """Write a temporary file next to ``path`` and move it into place once
    the block completes; if anything fails, remove it and leave ``path`` as
    it was. A symlinked ``path`` keeps its link: the file it names is
    replaced."""
    path = Path(os.path.realpath(path))
    tmp = path.parent / f".{path.name}.{os.urandom(6).hex()}.tmp"
    fh = open(tmp, "xb") if binary else open(tmp, "x", encoding="utf-8")
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def sha256_file(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _digests(paths: Sequence[str | Path]) -> list[dict]:
    return [{"path": Path(p).name, "sha256": sha256_file(p)} for p in paths]


@contextmanager
def manifested(
    manifest_path: str | Path,
    command: str,
    inputs: Sequence[str | Path],
    parameters: dict,
    outputs: Sequence[str | Path],
) -> Iterator[None]:
    """Hash ``inputs``, let the block write ``outputs``, then hash those and
    write the manifest. The inputs are hashed before any output is written,
    so an output that replaces an input leaves the input's digest as read."""
    from . import __version__

    doc = {"tool": TOOL_NAME, "version": __version__, "command": command, "inputs": _digests(inputs), "parameters": parameters}
    yield
    doc["outputs"] = _digests(outputs)
    write_document(manifest_path, doc)


def write_manifest(
    manifest_path: str | Path,
    command: str,
    inputs: Sequence[str | Path],
    parameters: dict,
    outputs: Sequence[str | Path],
) -> None:
    """The manifest of outputs that are already written."""
    with manifested(manifest_path, command, inputs, parameters, outputs):
        pass
