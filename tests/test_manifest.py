"""The canonical JSON writer: streamed, and byte-identical to json.dumps."""

import json
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from lntm import manifest
from lntm.manifest import dump_document, write_document


def canonical(doc) -> bytes:
    return (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode("utf-8")


# any text: non-ASCII, control characters and lone surrogates included
TEXT = st.text(st.characters(exclude_categories=()), max_size=12)
JSON_VALUES = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(min_value=-(2**80), max_value=2**80),
        st.floats(allow_nan=False, allow_infinity=False),
        TEXT,
    ),
    lambda children: st.lists(children, max_size=6) | st.dictionaries(TEXT, children, max_size=6),
    max_leaves=40,
)


class TestWriteDocument:
    @settings(max_examples=100, deadline=None)
    # one copy stays below the batch size, _WRITE_CHUNKS copies go past it
    @given(doc=JSON_VALUES, copies=st.sampled_from([1, 2, manifest._WRITE_CHUNKS]))
    def test_bytes_equal_json_dumps(self, doc, copies):
        doc = doc if copies == 1 else [doc] * copies
        with tempfile.TemporaryDirectory() as workdir:
            path = Path(workdir) / "doc.json"
            write_document(path, doc)
            assert path.read_bytes() == canonical(doc)
        assert dump_document(doc).encode("utf-8") == canonical(doc)

    # a list of k integers is k + 2 chunks: the batch size met exactly,
    # crossed by one and filled twice
    @pytest.mark.parametrize("extra", [-3, -2, -1, 0, manifest._WRITE_CHUNKS - 2])
    def test_batch_boundaries(self, tmp_path, extra):
        doc = list(range(manifest._WRITE_CHUNKS + extra))
        assert sum(1 for _ in manifest._ENCODER.iterencode(doc)) == manifest._WRITE_CHUNKS + extra + 2
        write_document(tmp_path / "doc.json", doc)
        assert (tmp_path / "doc.json").read_bytes() == canonical(doc)

    def test_streaming_does_not_hold_the_text(self, tmp_path):
        doc = {
            "nodes": [
                {"id": f"02{i:064x}", "alias": f"node {i}", "rgb": None, "last_seen": 1_600_000_000 + i}
                for i in range(12_000)
            ]
        }
        size = len(dump_document(doc))
        assert 1_500_000 < size < 2_500_000
        tracemalloc.start()
        try:
            write_document(tmp_path / "doc.json", doc)
            streamed = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            text = dump_document(doc)
            built = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (tmp_path / "doc.json").read_text(encoding="utf-8") == text
        assert streamed < size / 4 <= built
