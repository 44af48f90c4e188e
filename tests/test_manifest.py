"""The canonical JSON writer: streamed, and byte-identical to json.dumps."""

import json
import tempfile
import tracemalloc
from contextlib import contextmanager
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from lntm import manifest
from lntm.manifest import dump_document, write_document


def canonical(doc) -> bytes:
    return (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode("utf-8")


class Count(int):
    """An int subclass with its own repr, which JSON does not use."""

    def __repr__(self) -> str:
        return f"Count({int(self)})"


def counting_atomic_write(atomic_write, writes: list[int]):
    """``atomic_write`` whose file appends to ``writes`` the number of
    lines each write holds; every write must end a line."""

    @contextmanager
    def counting(path):
        with atomic_write(path) as fh:
            yield CountingFile(fh, writes)

    return counting


class CountingFile:
    def __init__(self, fh, writes: list[int]):
        self.fh = fh
        self.writes = writes

    def write(self, text: str) -> int:
        assert text.endswith("\n")
        self.writes.append(text.count("\n"))
        return self.fh.write(text)


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

    # a list or a dict of k integers is k + 2 lines: the batch size met
    # exactly, crossed by one and filled twice
    @pytest.mark.parametrize("extra", [-3, -2, -1, 0, manifest._WRITE_CHUNKS - 2])
    def test_batch_boundaries(self, tmp_path, monkeypatch, extra):
        count = manifest._WRITE_CHUNKS + extra
        full, rest = divmod(count + 2, manifest._WRITE_CHUNKS)
        for doc in (list(range(count)), {f"{i:05}": i for i in range(count)}):
            writes = []
            monkeypatch.setattr(manifest, "atomic_write", counting_atomic_write(manifest.atomic_write, writes))
            write_document(tmp_path / "doc.json", doc)
            monkeypatch.undo()
            assert writes == [manifest._WRITE_CHUNKS] * full + [rest] * (rest > 0)
            assert (tmp_path / "doc.json").read_bytes() == canonical(doc)

    @pytest.mark.parametrize(
        "doc",
        [
            True,
            {"on": True, "off": False, "both": [True, False, None]},
            Count(7),
            {"count": Count(-3), "counts": [Count(0), Count(2**70)]},
            [-0.0, 1e16, 5e-324, 2**80, -(2**80), 0.1, 1e-05],
            [float("nan"), float("inf"), float("-inf")],
            {"a": {}, "b": [], "c": [{}, [], [[]], {"d": {}}], "e": {"f": []}},
            {},
            [],
            ("x", (1, ()), [(), (None,)]),
            {"t": (1, 2)},
            ["\ud800", "a\udfffb", {"\udc00": "\ud83d"}, "\ud83d\ude00"],
            {"\u00e9": "\u2603", "\x00\x1f": "\"\\/\n\t"},
        ],
    )
    def test_values_written_as_json_dumps_writes_them(self, tmp_path, doc):
        write_document(tmp_path / "doc.json", doc)
        assert (tmp_path / "doc.json").read_bytes() == canonical(doc)
        assert dump_document(doc).encode("utf-8") == canonical(doc)

    @pytest.mark.parametrize("doc", [b"x", {"a": [1, b"x"]}, {1, 2}, [set()], {1: "a"}, {"a": {None: 1}}, {"a": 1, 2: "b"}])
    def test_unwritable_value_is_a_type_error_and_leaves_no_file(self, tmp_path, doc):
        with pytest.raises(TypeError):
            write_document(tmp_path / "doc.json", doc)
        assert list(tmp_path.iterdir()) == []
        with pytest.raises(TypeError):
            dump_document(doc)

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
