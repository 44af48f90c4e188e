"""The benchmark's serial CLI pass, pinned: its outputs' digests against
``golden.json``, and its kernel and ingest work as counts.

The digest and kernel tests share one in-process run of the CLI calls per
workload (see ``golden.py``), made with the betweenness passes and the heap
wrapped to count them; the ingest test repeats two ``history`` calls with
the archive's reads and peeks wrapped to count them. No wrapper changes a
value.
"""

import heapq
import json
import types

import pytest

import golden
from cli_runner import CliRunner
from lntm import centrality, store
from lntm.cli import main
from workloads import WORKLOADS

# Per workload, summed over its instants and amounts (history: 4 instants at
# one amount; study and exact: one at 3) at LNTM_THREADS=1: the source
# passes run, the sources folded into another source's pass, and the
# heap pushes of every pass. A ratchet: passes or pushes that rise, or folds
# that fall, fail; a count that moves the other way is pinned again here,
# its old and new values in CHANGES.md.
WORK_COUNTS = {
    "history": {"passes": 283, "folded": 85, "heappush": 39_930},
    "study": {"passes": 786, "folded": 237, "heappush": 348_113},
    "exact": {"passes": 831, "folded": 186, "heappush": 230_692},
}


@pytest.fixture(scope="module")
def cli_runs(tmp_path_factory):
    """Per pinned workload: (digests of its outputs, counts of its kernel work)."""
    counts = {}
    real_pass = centrality._source_pass

    def counting_pass(pg, s, sums, pending):
        folded = real_pass(pg, s, sums, pending)
        counts["passes"] += 1
        counts["folded"] += len(folded)
        return folded

    def counting_push(heap, item):
        counts["heappush"] += 1
        heapq.heappush(heap, item)

    runs = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(centrality, "_source_pass", counting_pass)
        mp.setattr(centrality, "heapq", types.SimpleNamespace(heappop=heapq.heappop, heappush=counting_push))
        for name in golden.PINNED:
            counts.update(passes=0, folded=0, heappush=0)
            work = tmp_path_factory.mktemp(name)
            digests = golden.cli_pass(name, work)
            runs[name] = digests, dict(counts), work
    return runs


def test_outputs_match_their_golden_digests(cli_runs):
    want = json.loads(golden.GOLDEN.read_text(encoding="utf-8"))
    got = {}
    for digests, _, _ in cli_runs.values():
        got.update(digests)
    changed = sorted(key for key in want.keys() | got.keys() if want.get(key) != got.get(key))
    assert not changed, f"outputs differ from golden.json (rewrite it with python tests/golden.py): {changed}"


@pytest.mark.parametrize("name", golden.PINNED)
def test_work_counts_are_pinned(cli_runs, name):
    _, counts, _ = cli_runs[name]
    pinned = WORK_COUNTS[name]
    worse = {
        key: (pinned[key], counts[key])
        for key in pinned
        if (counts[key] < pinned[key] if key == "folded" else counts[key] > pinned[key])
    }
    assert not worse, f"{name}: more work than pinned (pinned, now): {worse}"
    assert counts == pinned, f"{name}: less work than pinned, pin the new counts: {counts}"


# The seed-1 history archive: the codec.peek_message calls and the read
# calls on files lntm.store opens, of a snapshot at its last instant and of
# a compaction. A ratchet, as WORK_COUNTS. The archive holds 3,579 records
# that are not channel_updates, and 129 blocks of BLOCK_BYTES; the sniff of
# its format reads one more.
INGEST_COUNTS = {
    "snapshot": {"peek_message": 3_579, "read": 130},
    "compact": {"peek_message": 3_579, "read": 245},
}


def test_ingest_counts_are_pinned(cli_runs, tmp_path, monkeypatch):
    archive = str(cli_runs["history"][2] / "gossip.gsr")
    counts = {}

    def counting_peek(payload):
        counts["peek_message"] += 1
        return real_peek(payload)

    class CountingReads:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def __getattr__(self, name):
            return getattr(self.fh, name)

        def read(self, *size):
            counts["read"] += 1
            return self.fh.read(*size)

    real_peek = store.peek_message
    monkeypatch.setattr(store, "peek_message", counting_peek)
    monkeypatch.setattr("lntm.store.open", lambda *a, **kw: CountingReads(open(*a, **kw)), raising=False)
    calls = {
        "snapshot": ["snapshot", "--store", archive, "--at", str(WORKLOADS["history"].instants[-1]), "--out", str(tmp_path / "snap.json")],
        "compact": ["compact", "--store", archive, "--out", str(tmp_path / "compact.gsr")],
    }
    got = {}
    for call, argv in calls.items():
        counts.update(peek_message=0, read=0)
        assert CliRunner().invoke(main, argv).exit_code == 0
        got[call] = dict(counts)
    worse = {(call, key): (INGEST_COUNTS[call][key], got[call][key]) for call in calls for key in got[call] if got[call][key] > INGEST_COUNTS[call][key]}
    assert not worse, f"more ingest work than pinned (pinned, now): {worse}"
    assert got == INGEST_COUNTS, f"less ingest work than pinned, pin the new counts: {got}"
