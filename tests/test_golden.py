"""The benchmark's serial centrality runs, pinned: their outputs' digests
against ``golden.json`` and their kernel work as counts.

Both tests share one in-process run of the CLI calls per workload (see
``golden.py``), made with the betweenness passes and the heap wrapped to
count them; the wrappers change no value.
"""

import heapq
import json
import types

import pytest

import golden
from lntm import centrality

# Per workload, summed over its 3 default amounts at LNTM_THREADS=1: the
# source passes run, the sources folded into another source's pass, and the
# heap pushes of every pass. A ratchet: passes or pushes that rise, or folds
# that fall, fail; a count that moves the other way is pinned again here,
# its old and new values in CHANGES.md.
WORK_COUNTS = {
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
            digests = golden.cli_pass(name, tmp_path_factory.mktemp(name))
            runs[name] = digests, dict(counts)
    return runs


def test_outputs_match_their_golden_digests(cli_runs):
    want = json.loads(golden.GOLDEN.read_text(encoding="utf-8"))
    got = {}
    for digests, _ in cli_runs.values():
        got.update(digests)
    changed = sorted(key for key in want.keys() | got.keys() if want.get(key) != got.get(key))
    assert not changed, f"outputs differ from golden.json (rewrite it with python tests/golden.py): {changed}"


@pytest.mark.parametrize("name", golden.PINNED)
def test_work_counts_are_pinned(cli_runs, name):
    _, counts = cli_runs[name]
    pinned = WORK_COUNTS[name]
    worse = {
        key: (pinned[key], counts[key])
        for key in pinned
        if (counts[key] < pinned[key] if key == "folded" else counts[key] > pinned[key])
    }
    assert not worse, f"{name}: more work than pinned (pinned, now): {worse}"
    assert counts == pinned, f"{name}: less work than pinned, pin the new counts: {counts}"
