"""Output files and the one JSON and CSV layer: the canonical form every
JSON document is written in, the one CSV form every table is written in,
the loader of versioned documents, the typed-field checks of every JSON
input, atomic writes, and the reproducibility manifests written alongside
every command's outputs.

A manifest records the tool version, input digests, parameters and output
digests; two runs with identical manifests produced byte-identical files.
"""

from __future__ import annotations

import hashlib
import json
import os
from contextlib import contextmanager
from itertools import islice
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, Optional, Sequence, TypeVar

TOOL_NAME = "lntm"

T = TypeVar("T")

# the canonical JSON form: keys sorted, two-space indent
_ENCODER = json.JSONEncoder(sort_keys=True, indent=2)
# encoder chunks joined into one write
_WRITE_CHUNKS = 1 << 10


def dump_document(doc) -> str:
    """The canonical JSON form with a final newline, so equal documents are
    byte-identical (diffable and hashable)."""
    return _ENCODER.encode(doc) + "\n"


def write_document(path: str | Path, doc) -> None:
    """Write ``dump_document(doc)`` atomically at ``path``, streamed: the
    encoder's chunks are joined ``_WRITE_CHUNKS`` to a write, so the whole
    text is never held."""
    chunks = _ENCODER.iterencode(doc)
    with atomic_write(path) as fh:
        while batch := list(islice(chunks, _WRITE_CHUNKS)):
            fh.write("".join(batch))
        fh.write("\n")


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
