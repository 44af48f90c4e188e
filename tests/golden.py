"""Golden output digests of the benchmark's CLI pass.

``golden.json`` maps every file that the benchmark's CLI pass writes on the
seed-1 ``history``, ``study`` and ``exact`` archives, at ``LNTM_THREADS=1``,
to its SHA-256: the archive itself, each snapshot, compacted archive,
report, CSV, histogram and manifest, plus what each call prints.
``test_golden.py`` rebuilds them in-process and compares. A change that
alters an output on purpose rewrites the file with::

    python tests/golden.py

and lists each changed file, and why, in ``CHANGES.md``.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent
for path in (ROOT / "perfbench", TESTS, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import corpus  # noqa: E402
from cli_runner import CliRunner  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from lntm.cli import main  # noqa: E402

GOLDEN = TESTS / "golden.json"
PINNED = ("history", "study", "exact")
SEED = 1


def cli_pass(name: str, work: Path) -> dict[str, str]:
    """Run the benchmark's snapshot, compact, centrality and inequality
    calls for workload NAME (seed 1) in WORK, serially; returns the SHA-256
    of each file in WORK, the archive included, keyed ``NAME/file``, and of
    each call's stdout, keyed ``NAME/call.stdout``."""
    w = WORKLOADS[name]
    archive = work / "gossip.gsr"
    corpus.write_archive(archive, corpus.generate(w.corpus, SEED, salt=name))
    single = len(w.instants) == 1
    reports = []
    calls = []
    for i, at in enumerate(w.instants):
        calls.append((f"snapshot-{i}", ["snapshot", "--store", str(archive), "--at", str(at), "--out", str(work / f"snapshot-{i}.json")]))
    calls.append(("compact", ["compact", "--store", str(archive), "--out", str(work / "compact.gsr")]))
    for i in range(len(w.instants)):
        calls.append((f"c{i}", ["centrality", "--snapshot", str(work / f"snapshot-{i}.json"), "--out", str(work / f"c{i}"), *w.centrality_flags()]))
        reports += [(f"A{amount}" if single else f"T{i + 1}", work / f"c{i}-centrality-{amount}.json") for amount in w.amounts]
    calls.append(("ineq", ["inequality", *[f"--report={label}={path}" for label, path in reports], "--out", str(work / "ineq")]))
    digests = {}
    before = os.environ.get("LNTM_THREADS")
    os.environ["LNTM_THREADS"] = "1"
    try:
        for call, argv in calls:
            result = CliRunner().invoke(main, argv)
            if result.exit_code != 0:
                raise RuntimeError(f"{name}: {' '.join(argv[:1])} exited {result.exit_code}: {result.output}")
            digests[f"{name}/{call}.stdout"] = hashlib.sha256(result.stdout.encode()).hexdigest()
    finally:
        if before is None:
            del os.environ["LNTM_THREADS"]
        else:
            os.environ["LNTM_THREADS"] = before
    for path in sorted(work.iterdir()):
        digests[f"{name}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def regenerate() -> None:
    digests = {}
    for name in PINNED:
        with tempfile.TemporaryDirectory() as work:
            digests.update(cli_pass(name, Path(work)))
    GOLDEN.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{GOLDEN}: {len(digests)} digests")


if __name__ == "__main__":
    regenerate()
