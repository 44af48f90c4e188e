"""End-to-end CLI tests over a synthetic gossip corpus."""

import json

import pytest
from click.testing import CliRunner

from lntm.cli import main
from lntm.manifest import sha256_file
from lntm.store import write_store

import msggen


@pytest.fixture
def runner():
    return CliRunner()


def build_corpus(path):
    """Three nodes in a line (1-2-3) plus a superseded fee change.

    Channel 1-2 announced at t=100 with both directions at t=110/115;
    channel 2-3 announced at t=200, direction 0 at t=210, bumped at t=300.
    """
    n1, n2, n3 = msggen.node_id(1), msggen.node_id(2), msggen.node_id(3)
    s12, s23 = msggen.scid(12), msggen.scid(23)
    records = [
        msggen.record(100, msggen.make_channel_announcement(s12, n1, n2)),
        msggen.record(110, msggen.make_channel_update(s12, 110, direction=0, fee_base_msat=10)),
        msggen.record(115, msggen.make_channel_update(s12, 115, direction=1, fee_base_msat=20)),
        msggen.record(200, msggen.make_channel_announcement(s23, n2, n3)),
        msggen.record(210, msggen.make_channel_update(s23, 210, direction=0, fee_base_msat=30)),
        msggen.record(300, msggen.make_channel_update(s23, 300, direction=0, fee_base_msat=40)),
        msggen.record(150, msggen.make_node_announcement(n1, 150, alias=b"n-one")),
        # duplicate on purpose
        msggen.record(110, msggen.make_channel_update(s12, 110, direction=0, fee_base_msat=10)),
    ]
    write_store(path, records)
    return records


class TestSnapshotCommand:
    def test_empty_store(self, runner, tmp_path):
        store = tmp_path / "empty.gsr"
        store.write_bytes(b"GSR1")
        out = tmp_path / "snap.json"
        result = runner.invoke(main, ["snapshot", "--store", str(store), "--at", "999", "--out", str(out)])
        assert result.exit_code == 0, result.output
        doc = json.loads(out.read_text())
        assert doc["node_count"] == 0
        assert doc["channels"] == []

    def test_counts_match_hand_expectations(self, runner, tmp_path):
        store = tmp_path / "corpus.gsr"
        build_corpus(store)
        out = tmp_path / "snap.json"

        result = runner.invoke(main, ["snapshot", "--store", str(store), "--at", "150", "--out", str(out)])
        assert result.exit_code == 0, result.output
        doc = json.loads(out.read_text())
        assert doc["node_count"] == 2
        assert len(doc["channels"]) == 1
        assert "2 nodes, 1 channels, 2 policies" in result.output

        result = runner.invoke(main, ["snapshot", "--store", str(store), "--at", "250", "--out", str(out)])
        assert result.exit_code == 0
        doc = json.loads(out.read_text())
        assert doc["node_count"] == 3
        assert len(doc["channels"]) == 2
        fee = [c for c in doc["channels"] if c["scid"] == "23x0x0"][0]
        assert fee["policies"][0]["fee_base_msat"] == 30

        result = runner.invoke(main, ["snapshot", "--store", str(store), "--at", "999", "--out", str(out)])
        doc = json.loads(out.read_text())
        fee = [c for c in doc["channels"] if c["scid"] == "23x0x0"][0]
        assert fee["policies"][0]["fee_base_msat"] == 40

    def test_manifest_written_with_digests(self, runner, tmp_path):
        store = tmp_path / "corpus.gsr"
        build_corpus(store)
        out = tmp_path / "snap.json"
        result = runner.invoke(main, ["snapshot", "--store", str(store), "--at", "250", "--out", str(out)])
        assert result.exit_code == 0
        manifest = json.loads((tmp_path / "snap.json.manifest.json").read_text())
        assert manifest["command"] == "snapshot"
        assert manifest["inputs"][0]["sha256"] == sha256_file(store)
        assert manifest["outputs"][0]["sha256"] == sha256_file(out)

    def test_jsonl_store_accepted(self, runner, tmp_path):
        records = build_corpus(tmp_path / "scratch.gsr")
        jsonl = tmp_path / "corpus.jsonl"
        jsonl.write_text(
            "".join(
                json.dumps({"arrival_ts": r.arrival_ts, "hex": r.payload.hex()}) + "\n"
                for r in records
            )
        )
        out = tmp_path / "snap.json"
        result = runner.invoke(main, ["snapshot", "--store", str(jsonl), "--at", "250", "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert json.loads(out.read_text())["node_count"] == 3

    def test_bad_magic_exits_1(self, runner, tmp_path):
        store = tmp_path / "bad.gsr"
        store.write_bytes(b"????junk that is not json either")
        result = runner.invoke(main, ["snapshot", "--store", str(store), "--at", "1", "--out", str(tmp_path / "x.json")])
        assert result.exit_code == 1

    def test_corrupt_frame_exits_1(self, runner, tmp_path):
        store = tmp_path / "cut.gsr"
        store.write_bytes(b"GSR1" + b"\x00" * 8 + b"\x00\x00\x10\x00" + b"\x01")
        result = runner.invoke(main, ["snapshot", "--store", str(store), "--at", "1", "--out", str(tmp_path / "x.json")])
        assert result.exit_code == 1

    def test_non_utf8_jsonl_exits_1(self, runner, tmp_path):
        store = tmp_path / "bad.jsonl"
        store.write_bytes(b'{"arrival_ts": 1, "hex": "0102", "note": "\xff"}\n')
        result = runner.invoke(main, ["snapshot", "--store", str(store), "--at", "1", "--out", str(tmp_path / "x.json")])
        assert result.exit_code == 1
        assert result.stderr.startswith("error: bad record on line 1:")
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("arrival_ts", ["-5", "18446744073709551616", "true", "1.5"])
    def test_bad_jsonl_arrival_ts_exits_1(self, runner, tmp_path, arrival_ts):
        payload = msggen.record(9, msggen.make_node_announcement(msggen.node_id(1), 9)).payload
        store = tmp_path / "bad.jsonl"
        store.write_text(f'{{"arrival_ts": {arrival_ts}, "hex": "{payload.hex()}"}}\n')
        out = tmp_path / "out.gsr"
        result = runner.invoke(main, ["compact", "--store", str(store), "--out", str(out)])
        assert result.exit_code == 1
        assert result.stderr.startswith("error: bad record on line 1: arrival_ts")
        assert "Traceback" not in result.stderr
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.jsonl"]

    def test_failed_move_into_place_leaves_no_output(self, runner, tmp_path, monkeypatch):
        store = tmp_path / "corpus.gsr"
        build_corpus(store)

        def no_space(src, dst):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr("lntm.manifest.os.replace", no_space)
        result = runner.invoke(main, ["snapshot", "--store", str(store), "--at", "999", "--out", str(tmp_path / "x.json")])
        assert result.exit_code == 2
        assert "No space left on device" in result.stderr
        assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus.gsr"]

    def test_write_failure_exits_2(self, runner, tmp_path):
        store = tmp_path / "corpus.gsr"
        build_corpus(store)
        result = runner.invoke(
            main,
            ["snapshot", "--store", str(store), "--at", "1", "--out", str(tmp_path / "missing-dir" / "x.json")],
        )
        assert result.exit_code == 2


def make_snapshot(runner, tmp_path, at=999):
    store = tmp_path / "corpus.gsr"
    build_corpus(store)
    snap = tmp_path / "snap.json"
    result = runner.invoke(main, ["snapshot", "--store", str(store), "--at", str(at), "--out", str(snap)])
    assert result.exit_code == 0, result.output
    return snap


class TestCentralityCommand:
    def test_one_report_per_amount(self, runner, tmp_path):
        snap = make_snapshot(runner, tmp_path)
        prefix = tmp_path / "run"
        result = runner.invoke(
            main,
            ["centrality", "--snapshot", str(snap), "--amount-msat", "10000000",
             "--amount-msat", "1000000000", "--out", str(prefix)],
        )
        assert result.exit_code == 0, result.output
        for amount in (10000000, 1000000000):
            assert (tmp_path / f"run-centrality-{amount}.csv").exists()
            assert (tmp_path / f"run-centrality-{amount}.json").exists()
            assert (tmp_path / f"run-histogram-{amount}.csv").exists()

    def test_middle_node_tops_line_graph(self, runner, tmp_path):
        snap = make_snapshot(runner, tmp_path)
        prefix = tmp_path / "run"
        result = runner.invoke(
            main, ["centrality", "--snapshot", str(snap), "--amount-msat", "10000000", "--out", str(prefix)]
        )
        assert result.exit_code == 0, result.output
        lines = (tmp_path / "run-centrality-10000000.csv").read_text().strip().split("\n")
        assert lines[1].split(",")[0] == msggen.node_id(2).hex()
        # only direction 0 exists on channel 2-3, so just (1,3) routes via 2
        assert lines[1].split(",")[1] == "1.0"

    def test_histogram_excludes_leaves(self, runner, tmp_path):
        snap = make_snapshot(runner, tmp_path)
        prefix = tmp_path / "run"
        runner.invoke(main, ["centrality", "--snapshot", str(snap), "--amount-msat", "10000000", "--out", str(prefix)])
        hist = (tmp_path / "run-histogram-10000000.csv").read_text().strip().split("\n")
        total = sum(int(row.split(",")[2]) for row in hist[1:])
        report = json.loads((tmp_path / "run-centrality-10000000.json").read_text())
        nonzero = sum(1 for v in report["values"].values() if v > 0)
        assert total == nonzero == 1

    def test_default_amounts_are_the_three_reference_sizes(self, runner, tmp_path):
        snap = make_snapshot(runner, tmp_path)
        prefix = tmp_path / "run"
        result = runner.invoke(main, ["centrality", "--snapshot", str(snap), "--out", str(prefix)])
        assert result.exit_code == 0
        manifest = json.loads((tmp_path / "run-manifest.json").read_text())
        assert manifest["parameters"]["amounts_msat"] == [10000000, 1000000000, 10000000000]

    def test_amount_out_of_u64_range_is_a_usage_error(self, runner, tmp_path):
        snap = make_snapshot(runner, tmp_path)
        for amount in ("-5", str(2**64)):
            result = runner.invoke(
                main,
                ["centrality", "--snapshot", str(snap), "--amount-msat", amount, "--out", str(tmp_path / "r")],
            )
            assert result.exit_code == 2, result.output
            assert "--amount-msat" in result.stderr
            assert "Traceback" not in result.stderr

    def test_parse_failure_exits_1(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        result = runner.invoke(main, ["centrality", "--snapshot", str(bad), "--out", str(tmp_path / "r")])
        assert result.exit_code == 1


class TestInequalityCommand:
    def _reports(self, runner, tmp_path):
        snap = make_snapshot(runner, tmp_path)
        prefix = tmp_path / "run"
        result = runner.invoke(
            main, ["centrality", "--snapshot", str(snap), "--amount-msat", "10000000", "--out", str(prefix)]
        )
        assert result.exit_code == 0
        return tmp_path / "run-centrality-10000000.json"

    def test_outputs_and_manifest(self, runner, tmp_path):
        report = self._reports(runner, tmp_path)
        prefix = tmp_path / "ineq"
        result = runner.invoke(
            main,
            ["inequality", "--report", f"T1={report}", "--report", f"T2={report}",
             "--k", "2", "--anchor", "T2", "--out", str(prefix)],
        )
        assert result.exit_code == 0, result.output
        for name in ("ineq-lorenz-T1.csv", "ineq-lorenz-T2.csv", "ineq-gini-trend.csv",
                     "ineq-top-share.csv", "ineq-rank-timeline.csv"):
            assert (tmp_path / name).exists(), name
        manifest = json.loads((tmp_path / "ineq-manifest.json").read_text())
        listed = {o["path"] for o in manifest["outputs"]}
        assert listed == {
            "ineq-lorenz-T1.csv", "ineq-lorenz-T2.csv", "ineq-gini-trend.csv",
            "ineq-top-share.csv", "ineq-rank-timeline.csv",
        }
        for out in manifest["outputs"]:
            assert out["sha256"] == sha256_file(tmp_path / out["path"])

    def test_default_labels_and_anchor(self, runner, tmp_path):
        report = self._reports(runner, tmp_path)
        prefix = tmp_path / "ineq"
        result = runner.invoke(
            main, ["inequality", "--report", str(report), "--report", str(report), "--out", str(prefix)]
        )
        assert result.exit_code == 0, result.output
        trend = (tmp_path / "ineq-gini-trend.csv").read_text().strip().split("\n")
        assert [row.split(",")[0] for row in trend[1:]] == ["T1", "T2"]

    def test_unknown_anchor_exits_1(self, runner, tmp_path):
        report = self._reports(runner, tmp_path)
        result = runner.invoke(
            main, ["inequality", "--report", str(report), "--anchor", "T9", "--out", str(tmp_path / "x")]
        )
        assert result.exit_code == 1

    def test_duplicate_labels_exit_1(self, runner, tmp_path):
        report = self._reports(runner, tmp_path)
        result = runner.invoke(
            main,
            ["inequality", "--report", f"T1={report}", "--report", f"T1={report}", "--out", str(tmp_path / "x")],
        )
        assert result.exit_code == 1

    def test_parse_failure_exits_1(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("[]")
        result = runner.invoke(main, ["inequality", "--report", str(bad), "--out", str(tmp_path / "x")])
        assert result.exit_code == 1


class TestCompactCommand:
    def test_compacted_store_replays_identically(self, runner, tmp_path):
        store = tmp_path / "corpus.gsr"
        build_corpus(store)
        compacted = tmp_path / "compacted.gsr"
        result = runner.invoke(main, ["compact", "--store", str(store), "--out", str(compacted)])
        assert result.exit_code == 0, result.output
        snap_a = tmp_path / "a.json"
        snap_b = tmp_path / "b.json"
        runner.invoke(main, ["snapshot", "--store", str(store), "--at", "999", "--out", str(snap_a)])
        runner.invoke(main, ["snapshot", "--store", str(compacted), "--at", "999", "--out", str(snap_b)])
        assert snap_a.read_bytes() == snap_b.read_bytes()

    def test_compaction_drops_duplicates(self, runner, tmp_path):
        store = tmp_path / "corpus.gsr"
        records = build_corpus(store)
        compacted = tmp_path / "compacted.gsr"
        result = runner.invoke(main, ["compact", "--store", str(store), "--out", str(compacted)])
        assert result.exit_code == 0
        assert f"wrote {len(records) - 1} records" in result.output  # one duplicate in corpus


class TestManifestWriteFailure:
    def _assert_exits_2(self, runner, argv, manifest):
        manifest.mkdir()  # a directory where the manifest file should go
        result = runner.invoke(main, argv)
        assert result.exit_code == 2, result.output
        assert result.stderr.startswith("error:")
        assert "Traceback" not in result.stderr
        assert not [p for p in manifest.parent.iterdir() if p.name.endswith(".tmp")]

    def test_every_command_exits_2(self, runner, tmp_path):
        store = tmp_path / "corpus.gsr"
        build_corpus(store)
        snap = tmp_path / "snap.json"
        self._assert_exits_2(
            runner,
            ["snapshot", "--store", str(store), "--at", "999", "--out", str(snap)],
            tmp_path / "snap.json.manifest.json",
        )
        compacted = tmp_path / "compacted.gsr"
        self._assert_exits_2(
            runner,
            ["compact", "--store", str(store), "--out", str(compacted)],
            tmp_path / "compacted.gsr.manifest.json",
        )
        self._assert_exits_2(
            runner,
            ["centrality", "--snapshot", str(snap), "--amount-msat", "10000000", "--out", str(tmp_path / "run")],
            tmp_path / "run-manifest.json",
        )
        report = tmp_path / "run-centrality-10000000.json"
        self._assert_exits_2(
            runner,
            ["inequality", "--report", str(report), "--out", str(tmp_path / "ineq")],
            tmp_path / "ineq-manifest.json",
        )
