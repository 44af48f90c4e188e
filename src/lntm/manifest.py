"""Output files: atomic writes and the reproducibility manifests written
alongside every command's outputs.

A manifest records the tool version, input digests, parameters and output
digests; two runs with identical manifests produced byte-identical files.
"""

from __future__ import annotations

import hashlib
import json
import os
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Iterator, Sequence

TOOL_NAME = "lntm"


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


def write_manifest(
    manifest_path: str | Path,
    command: str,
    inputs: Sequence[str | Path],
    parameters: dict,
    outputs: Sequence[str | Path],
) -> None:
    from . import __version__

    doc = {
        "tool": TOOL_NAME,
        "version": __version__,
        "command": command,
        "inputs": [
            {"path": Path(p).name, "sha256": sha256_file(p)} for p in inputs
        ],
        "parameters": parameters,
        "outputs": [
            {"path": Path(p).name, "sha256": sha256_file(p)} for p in outputs
        ],
    }
    with atomic_write(manifest_path) as fh:
        fh.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")
