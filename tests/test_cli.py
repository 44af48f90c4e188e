"""End-to-end CLI tests over a synthetic gossip corpus."""

import copy
import errno
import hashlib
import json
import math
import os
import signal
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

import lntm
from lntm import store
from lntm.centrality import CentralityReport, betweenness, build_graph, report_from_json, report_to_json
from lntm.cli import _histogram_csv, main
from lntm.manifest import sha256_file
from lntm.replay import replay, routing_view, snapshot_from_json, snapshot_to_json
from lntm.store import StoreRecord, write_store

from cli_runner import CliRunner
import msggen
from test_centrality import needs_two_cpus, within


@pytest.fixture
def runner():
    return CliRunner()


def corpus_records():
    """Three nodes in a line (1-2-3) plus a superseded fee change.

    Channel 1-2 announced at t=100 with both directions at t=110/115;
    channel 2-3 announced at t=200, direction 0 at t=210, bumped at t=300.
    """
    n1, n2, n3 = msggen.node_id(1), msggen.node_id(2), msggen.node_id(3)
    s12, s23 = msggen.scid(12), msggen.scid(23)
    return [
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


def build_corpus(path):
    records = corpus_records()
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

    def test_archive_without_magic_names_it(self, runner, tmp_path):
        store = tmp_path / "nope.gsr"
        store.write_bytes(b"NOPE\x00\x01")
        result = runner.invoke(main, ["snapshot", "--store", str(store), "--at", "1", "--out", str(tmp_path / "x.json")])
        assert result.exit_code == 1
        assert result.stderr == f"error: {store}: not a gossip archive: magic b'NOPE' != b'GSR1'\n"

    def test_corrupt_frame_exits_1(self, runner, tmp_path):
        store = tmp_path / "cut.gsr"
        store.write_bytes(b"GSR1" + b"\x00" * 8 + b"\x00\x00\x10\x00" + b"\x01")
        result = runner.invoke(main, ["snapshot", "--store", str(store), "--at", "1", "--out", str(tmp_path / "x.json")])
        assert result.exit_code == 1
        assert result.stderr == f"error: {store}: corrupt frame at byte offset 4: length field 4096 exceeds remaining bytes\n"

    def test_non_utf8_jsonl_exits_1(self, runner, tmp_path):
        store = tmp_path / "bad.jsonl"
        store.write_bytes(b'{"arrival_ts": 1, "hex": "0102", "note": "\xff"}\n')
        result = runner.invoke(main, ["snapshot", "--store", str(store), "--at", "1", "--out", str(tmp_path / "x.json")])
        assert result.exit_code == 1
        assert result.stderr.startswith(f"error: {store}: bad record on line 1:")
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("arrival_ts", ["-5", "18446744073709551616", "true", "1.5"])
    def test_bad_jsonl_arrival_ts_exits_1(self, runner, tmp_path, arrival_ts):
        payload = msggen.record(9, msggen.make_node_announcement(msggen.node_id(1), 9)).payload
        store = tmp_path / "bad.jsonl"
        store.write_text(f'{{"arrival_ts": {arrival_ts}, "hex": "{payload.hex()}"}}\n')
        out = tmp_path / "out.gsr"
        result = runner.invoke(main, ["compact", "--store", str(store), "--out", str(out)])
        assert result.exit_code == 1
        assert result.stderr.startswith(f"error: {store}: bad record on line 1: arrival_ts")
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

    @pytest.mark.parametrize("command", ["snapshot", "compact"])
    def test_unreadable_archive_exits_1(self, runner, tmp_path, monkeypatch, command):
        store = tmp_path / "corpus.gsr"
        build_corpus(store)

        def denied(path, *args, **kwargs):
            raise PermissionError(13, "Permission denied", str(path))

        monkeypatch.setattr("lntm.store.open", denied, raising=False)
        at = ["--at", "999"] if command == "snapshot" else []
        result = runner.invoke(main, [command, "--store", str(store), *at, "--out", str(tmp_path / "out")])
        assert result.exit_code == 1
        assert result.stderr.startswith("error: [Errno 13] Permission denied")
        assert isinstance(result.exception, SystemExit)
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
    def test_one_report_per_amount(self, runner, tmp_path, monkeypatch):
        snap = make_snapshot(runner, tmp_path)
        prefix = tmp_path / "run"
        calls = []
        real = lntm.centrality.betweenness_reports

        def recorded(graphs, processes):
            calls.append([graph.amount_msat for graph in graphs])
            return real(graphs, processes)

        # every amount goes to one call, so one set of workers serves them all
        monkeypatch.setattr("lntm.centrality.betweenness_reports", recorded)
        result = runner.invoke(
            main,
            ["centrality", "--snapshot", str(snap), "--amount-msat", "10000000",
             "--amount-msat", "1000000000", "--out", str(prefix)],
        )
        assert result.exit_code == 0, result.output
        assert calls == [[10000000, 1000000000]]
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

    def test_exact_flag_changes_nothing(self, runner, tmp_path):
        # values are always exact; the flag is accepted and ignored
        snap = make_snapshot(runner, tmp_path)
        outputs = []
        for flags in ([], ["--exact"]):
            out = tmp_path / ("exact" if flags else "plain")
            out.mkdir()
            result = runner.invoke(main, ["centrality", "--snapshot", str(snap), *flags, "--out", str(out / "run")])
            assert result.exit_code == 0, result.output
            outputs.append((result.output, {path.name: path.read_bytes() for path in out.iterdir()}))
        assert outputs[0] == outputs[1]
        assert len(outputs[0][1]) == 10  # three amounts' CSV, JSON and histogram, and the manifest
        manifest = json.loads(outputs[0][1]["run-manifest.json"])
        assert "exact" not in manifest["parameters"]
        assert "--exact" not in runner.invoke(main, ["centrality", "--help"]).output

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

    def test_repeated_amount_is_a_usage_error(self, runner, tmp_path):
        snap = make_snapshot(runner, tmp_path)
        result = runner.invoke(
            main,
            ["centrality", "--snapshot", str(snap), "--amount-msat", "10000000",
             "--amount-msat", "1000000000", "--amount-msat", "1000000000", "--out", str(tmp_path / "r")],
        )
        assert result.exit_code == 2, result.output
        assert "--amount-msat" in result.stderr
        assert "amount 1000000000" in result.stderr
        assert not list(tmp_path.glob("r-*"))

    @pytest.mark.parametrize("seconds", ["-1", "-99999999"])
    def test_negative_prune_stale_after_is_a_usage_error(self, runner, tmp_path, seconds):
        snap = make_snapshot(runner, tmp_path)
        result = runner.invoke(
            main,
            ["centrality", "--snapshot", str(snap), "--prune-stale-after", seconds, "--out", str(tmp_path / "r")],
        )
        assert result.exit_code == 2, result.output
        assert "--prune-stale-after" in result.stderr
        assert not list(tmp_path.glob("r-*"))

    def test_non_integer_thread_count_is_a_usage_error(self, runner, tmp_path, monkeypatch):
        snap = make_snapshot(runner, tmp_path)
        monkeypatch.setenv("LNTM_THREADS", "abc")
        result = runner.invoke(
            main,
            ["centrality", "--snapshot", str(snap), "--amount-msat", "10000000", "--out", str(tmp_path / "r")],
        )
        assert result.exit_code == 2, result.output
        assert "LNTM_THREADS='abc' is not an integer" in result.stderr
        assert not list(tmp_path.glob("r-*"))

    def test_non_integer_thread_count_is_caught_before_the_snapshot_is_read(self, runner, tmp_path, monkeypatch):
        monkeypatch.setenv("LNTM_THREADS", "abc")
        result = runner.invoke(
            main, ["centrality", "--snapshot", str(tmp_path / "absent.json"), "--out", str(tmp_path / "r")]
        )
        assert result.exit_code == 2, result.output
        assert "LNTM_THREADS='abc' is not an integer" in result.stderr
        assert not list(tmp_path.glob("r-*"))

    def test_failure_at_a_later_amount_writes_nothing(self, runner, tmp_path):
        snap = make_snapshot(runner, tmp_path, at=150)
        doc = json.loads(snap.read_text())
        # one policy whose fee overflows u64 at the largest amount only
        doc["channels"][0]["policies"] = [
            dict(doc["channels"][0]["policies"][0], fee_proportional_millionths=2_000_000),
            None,
        ]
        snap.write_text(json.dumps(doc))
        result = runner.invoke(
            main,
            ["centrality", "--snapshot", str(snap), "--amount-msat", "10000000",
             "--amount-msat", str(2**64 - 1), "--out", str(tmp_path / "r")],
        )
        assert result.exit_code == 1
        assert result.stderr.startswith("error: fee ")
        assert "exceeds u64" in result.stderr
        assert isinstance(result.exception, SystemExit)
        assert not list(tmp_path.glob("r-*"))

    def test_zero_fee_cluster_over_the_budget_exits_1_and_names_it(self, runner, tmp_path, monkeypatch):
        # a 9-node zero-fee clique; a small budget keeps the test fast
        ids = [bytes([0x02, i]) + bytes(31) for i in range(1, 10)]
        records = []
        for i, a in enumerate(ids):
            for j, b in enumerate(ids[i + 1:], start=i + 1):
                channel = msggen.scid(100 + 10 * i + j)
                records.append(msggen.record(100, msggen.make_channel_announcement(channel, a, b)))
                for direction in (0, 1):
                    update = msggen.make_channel_update(
                        channel, 110, direction=direction, fee_base_msat=0, fee_proportional_millionths=0
                    )
                    records.append(msggen.record(110, update))
        write_store(tmp_path / "clique.gsr", records)
        snap = tmp_path / "clique.json"
        result = runner.invoke(main, ["snapshot", "--store", str(tmp_path / "clique.gsr"), "--at", "999", "--out", str(snap)])
        assert result.exit_code == 0, result.output
        monkeypatch.setattr(lntm.centrality, "ZERO_CLUSTER_PATH_BUDGET", 1000)
        result = runner.invoke(
            main, ["centrality", "--snapshot", str(snap), "--amount-msat", "1000000000", "--out", str(tmp_path / "r")]
        )
        assert result.exit_code == 1
        assert result.stderr == (
            "error: at 1000000000 msat: zero-fee cluster of 9 nodes "
            "(0201000000000000…, 0202000000000000…, 0203000000000000…) exceeds 1000 route-enumeration steps\n"
        )
        assert result.stdout == ""
        assert not list(tmp_path.glob("r-*"))

    def test_parse_failure_exits_1(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        result = runner.invoke(main, ["centrality", "--snapshot", str(bad), "--out", str(tmp_path / "r")])
        assert result.exit_code == 1

    @pytest.mark.parametrize(
        "content, message",
        [
            (b"{}", "missing snapshot format marker"),
            (b"\xff", "'utf-8' codec can't decode byte 0xff in position 0"),
        ],
    )
    def test_parse_failure_names_the_file(self, runner, tmp_path, monkeypatch, content, message):
        monkeypatch.chdir(tmp_path)
        Path("bad.json").write_bytes(content)
        result = runner.invoke(main, ["centrality", "--snapshot", "bad.json", "--out", "r"])
        assert result.exit_code == 1
        assert result.stderr.startswith(f"error: bad.json: {message}"), result.stderr
        assert isinstance(result.exception, SystemExit)
        assert not list(tmp_path.glob("r-*"))


def ring_snapshot(runner, tmp_path, size=6):
    """A snapshot of SIZE nodes in a ring, every channel open both ways:
    no node is a leaf, so each gets a source pass."""
    records = []
    for i in range(size):
        a, b, channel = msggen.node_id(i + 1), msggen.node_id((i + 1) % size + 1), msggen.scid(100 + i)
        records.append(msggen.record(100, msggen.make_channel_announcement(channel, a, b)))
        for direction in (0, 1):
            records.append(msggen.record(110, msggen.make_channel_update(channel, 110, direction=direction)))
    store = tmp_path / "ring.gsr"
    write_store(store, records)
    snap = tmp_path / "ring.json"
    result = runner.invoke(main, ["snapshot", "--store", str(store), "--at", "999", "--out", str(snap)])
    assert result.exit_code == 0, result.output
    return snap


@needs_two_cpus
class TestForkedShares:
    def test_a_killed_child_exits_1_and_writes_nothing(self, runner, tmp_path, monkeypatch):
        snap = ring_snapshot(runner, tmp_path)
        real = lntm.centrality._share_credits

        def share_credits(pgs, share, workers):
            if share:
                os.kill(os.getpid(), signal.SIGKILL)
            return real(pgs, share, workers)

        monkeypatch.setattr(lntm.centrality, "_share_credits", share_credits)
        monkeypatch.setenv("LNTM_THREADS", "2")
        with within(10):
            result = runner.invoke(main, ["centrality", "--snapshot", str(snap), "--out", str(tmp_path / "r")])
        assert result.exit_code == 1, result.output
        assert result.stderr == f"error: betweenness worker 1 was killed by signal {signal.SIGKILL.value}\n"
        assert isinstance(result.exception, SystemExit)
        assert not list(tmp_path.glob("r-*"))

    def test_each_line_is_written_once(self, runner, tmp_path):
        # a child leaves by os._exit: it never runs the rest of the command,
        # so the parent alone writes each line and file
        snap = ring_snapshot(runner, tmp_path)
        env = dict(os.environ, PYTHONPATH=str(Path(lntm.__file__).parents[1]))
        outputs = []
        for threads in ("1", "2"):
            argv = [sys.executable, "-m", "lntm.cli", "centrality", "--snapshot", str(snap), "--out", str(tmp_path / f"t{threads}")]
            result = subprocess.run(
                argv, env=dict(env, LNTM_THREADS=threads), capture_output=True, text=True, check=True, timeout=120
            )
            outputs.append(result.stdout)
        assert outputs[0] == outputs[1]
        assert outputs[0].count("amount ") == 3
        for amount in (10000000, 1000000000, 10000000000):
            for kind in ("centrality", "histogram"):
                name = f"{kind}-{amount}.csv"
                assert (tmp_path / f"t1-{name}").read_bytes() == (tmp_path / f"t2-{name}").read_bytes()


def _histogram(values):
    return _histogram_csv(CentralityReport(0, 0, {msggen.node_id(i): v for i, v in enumerate(values)}))


class TestHistogramCsv:
    def test_no_nonzero_value_is_a_header(self):
        assert _histogram([0.0, 0.0]) == "bin_low,bin_high,count\n"
        assert _histogram([]) == "bin_low,bin_high,count\n"

    def test_one_distinct_value_is_one_bin(self):
        assert _histogram([0.0, 2.5, 2.5]) == "bin_low,bin_high,count\n2.5,2.5,2\n"

    def test_a_spread_fills_fifty_log_spaced_bins(self):
        text = _histogram([float(v) for v in range(101)])
        lines = text.split("\n")
        assert lines[0] == "bin_low,bin_high,count"
        assert lines[1] == "1.0,1.096478196143185,1"
        assert lines[50] == "91.20108393559097,100.0,9"
        assert lines[51:] == [""]
        assert sum(int(line.split(",")[2]) for line in lines[1:51]) == 100
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "9973474d111475474d98e4f783a086424d903d26f936d12f9478c7ef9fc8e37d"
        )

    def test_exact_value_below_float_range_counts_as_written(self):
        # 2^-1100 is below the smallest float, so it is written as 0.0
        tiny = CentralityReport(0, 0, {msggen.node_id(1): Fraction(1, 2**1100), msggen.node_id(2): 1})
        assert _histogram_csv(tiny) == "bin_low,bin_high,count\n1.0,1.0,1\n"
        assert tiny.leaf_count == 1
        assert json.loads(report_to_json(tiny))["values"][msggen.node_id(1).hex()] == 0.0

    def test_exact_value_below_float_range_through_the_cli(self, runner, tmp_path, monkeypatch):
        snap = make_snapshot(runner, tmp_path)

        calls = []

        def tiny_values(graphs, processes):
            calls.append(len(graphs))
            return [
                CentralityReport(g.as_of, g.amount_msat, {g.node_ids[0]: Fraction(1, 2**1100), g.node_ids[1]: 1, g.node_ids[2]: 0})
                for g in graphs
            ]

        monkeypatch.setattr("lntm.centrality.betweenness_reports", tiny_values)
        prefix = tmp_path / "run"
        result = runner.invoke(
            main, ["centrality", "--snapshot", str(snap), "--amount-msat", "10000000", "--out", str(prefix)]
        )
        assert result.exit_code == 0, result.output
        assert calls == [1]
        assert "2 zero-valued nodes" in result.output
        assert (tmp_path / "run-histogram-10000000.csv").read_text() == "bin_low,bin_high,count\n1.0,1.0,1\n"
        report = json.loads((tmp_path / "run-centrality-10000000.json").read_text())
        assert report["leaf_count"] == sorted(report["values"].values()).count(0.0) == 2


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

    @pytest.mark.parametrize("label", ["a,b", "a/b", "a\nb", "a\rb", "", 'a"b'])
    def test_label_that_cannot_name_a_file_is_a_usage_error(self, runner, tmp_path, label):
        report = self._reports(runner, tmp_path)
        result = runner.invoke(
            main, ["inequality", "--report", f"{label}={report}", "--out", str(tmp_path / "ineq")]
        )
        assert result.exit_code == 2, result.output
        assert repr(label) in result.stderr
        assert not list(tmp_path.glob("ineq*"))

    @pytest.mark.parametrize("option", ["--k", "--rank-cap"])
    def test_count_below_one_is_a_usage_error(self, runner, tmp_path, option):
        report = self._reports(runner, tmp_path)
        result = runner.invoke(
            main, ["inequality", "--report", str(report), option, "0", "--out", str(tmp_path / "ineq")]
        )
        assert result.exit_code == 2, result.output
        assert option in result.stderr
        assert not list(tmp_path.glob("ineq*"))

    def test_parse_failure_exits_1(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("[]")
        result = runner.invoke(main, ["inequality", "--report", str(bad), "--out", str(tmp_path / "x")])
        assert result.exit_code == 1

    def test_parse_failure_names_the_bad_file(self, runner, tmp_path, monkeypatch):
        report = self._reports(runner, tmp_path)
        monkeypatch.chdir(tmp_path)
        Path("good.json").write_text(report.read_text())
        doc = json.loads(report.read_text())
        doc["values"][msggen.node_id(2).hex()] = math.nan
        Path("bad.json").write_text(json.dumps(doc))
        result = runner.invoke(
            main, ["inequality", "--report", "T1=good.json", "--report", "T2=bad.json", "--out", "x"]
        )
        assert result.exit_code == 1
        assert result.stderr == (
            f"error: bad.json: malformed report document: value nan of node "
            f"{msggen.node_id(2).hex()} is not a finite number >= 0\n"
        )
        assert not list(tmp_path.glob("x-*"))


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

    def test_in_place_compaction_records_the_input_as_read(self, runner, tmp_path):
        store = tmp_path / "corpus.gsr"
        build_corpus(store)
        original = sha256_file(store)
        result = runner.invoke(main, ["compact", "--store", str(store), "--out", str(store)])
        assert result.exit_code == 0, result.output
        manifest = json.loads((tmp_path / "corpus.gsr.manifest.json").read_text())
        assert manifest["inputs"] == [{"path": "corpus.gsr", "sha256": original}]
        assert manifest["outputs"] == [{"path": "corpus.gsr", "sha256": sha256_file(store)}]
        assert sha256_file(store) != original  # the duplicate record is gone

    def test_compaction_drops_duplicates(self, runner, tmp_path):
        store = tmp_path / "corpus.gsr"
        records = build_corpus(store)
        compacted = tmp_path / "compacted.gsr"
        result = runner.invoke(main, ["compact", "--store", str(store), "--out", str(compacted)])
        assert result.exit_code == 0
        assert f"wrote {len(records) - 1} records" in result.output  # one duplicate in corpus


def spill_corpus(path):
    """The corpus plus six more versions of one direction, 14 records: runs
    of two records spill six times and the last two stay held, and its
    duplicate update (record 8, in run 4) lands in another run than the
    copy it repeats (record 2, in run 1)."""
    s23 = msggen.scid(23)
    extra = [msggen.record(ts, msggen.make_channel_update(s23, ts, direction=1)) for ts in range(400, 406)]
    records = corpus_records() + extra
    write_store(path, records)
    return records


class TestCompactRuns:
    """``compact`` with records spilled in runs of two."""

    @pytest.fixture(autouse=True)
    def runs(self, monkeypatch):
        monkeypatch.setattr(store, "RUN_RECORDS", 2)
        written = []
        write_run = store._write_run
        monkeypatch.setattr(store, "_write_run", lambda *args: written.append(write_run(*args)))
        return written

    def test_runs_write_the_same_bytes(self, runner, tmp_path, monkeypatch, runs):
        spill_corpus(tmp_path / "corpus.gsr")
        outputs = set()
        # every record enters the buffer, announcements included: a record
        # that arrives while two are held spills them, so records 3, 5, 7,
        # 9, 11 and 13 each spill one run (six) and records 13 and 14 stay
        # held. At FAN_IN = 2 the oldest pairs are merged until two runs are
        # left: 1+2, 3+4, 5+6, (1+2)+(3+4), four more; at FAN_IN = 16 none.
        # The last call holds every record.
        for run_records, fan_in, written in ((2, 2, 6 + 4), (2, 16, 6), (1 << 14, 16, 0)):
            monkeypatch.setattr(store, "RUN_RECORDS", run_records)
            monkeypatch.setattr(store, "FAN_IN", fan_in)
            runs.clear()
            out = tmp_path / f"{run_records}-{fan_in}.gsr"
            result = runner.invoke(main, ["compact", "--store", str(tmp_path / "corpus.gsr"), "--out", str(out)])
            assert result.exit_code == 0, result.output
            assert len(runs) == written
            outputs.add(out.read_bytes())
        assert len(outputs) == 1
        assert not list(tmp_path.glob(".*"))

    def test_missing_output_directory_exits_2(self, runner, tmp_path):
        spill_corpus(tmp_path / "corpus.gsr")
        out = tmp_path / "missing-dir" / "x.gsr"
        result = runner.invoke(main, ["compact", "--store", str(tmp_path / "corpus.gsr"), "--out", str(out)])
        assert result.exit_code == 2
        assert result.stderr.startswith("error: [Errno 2] No such file or directory:")
        assert ".x.gsr.run-" in result.stderr
        assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus.gsr"]

    @pytest.mark.parametrize("fails", ["read-only", "full"])
    @pytest.mark.parametrize("failing_run", [1, 6, 7])
    def test_unwritable_run_exits_2(self, runner, tmp_path, monkeypatch, runs, fails, failing_run):
        # runs 1 and 6 are the first and last spilled while the archive is
        # read, run 7 the first written while the oldest runs are merged two
        # at a time
        monkeypatch.setattr(store, "FAN_IN", 2)
        spill_corpus(tmp_path / "corpus.gsr")
        opened = []

        class FullDisk:
            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                raise OSError(28, "No space left on device")

        def run_open(path, mode="r", *args, **kwargs):
            if ".run-" in str(path) and "x" in mode:
                opened.append(path)
                if len(opened) == failing_run and fails == "read-only":
                    raise PermissionError(13, "Permission denied", str(path))
                if len(opened) == failing_run:
                    return FullDisk(open(path, mode, *args, **kwargs))
            return open(path, mode, *args, **kwargs)

        monkeypatch.setattr("lntm.store.open", run_open, raising=False)
        out = tmp_path / "compacted.gsr"
        result = runner.invoke(main, ["compact", "--store", str(tmp_path / "corpus.gsr"), "--out", str(out)])
        assert result.exit_code == 2
        message = "[Errno 13] Permission denied" if fails == "read-only" else "[Errno 28] No space left on device"
        assert result.stderr.startswith(f"error: {message}")
        assert "Traceback" not in result.stderr
        assert len(opened) == failing_run
        assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus.gsr"]

    def test_failed_output_write_removes_the_runs(self, runner, tmp_path, runs):
        spill_corpus(tmp_path / "corpus.gsr")
        (tmp_path / "compacted.gsr.manifest.json").mkdir()  # the manifest cannot be written
        out = tmp_path / "compacted.gsr"
        result = runner.invoke(main, ["compact", "--store", str(tmp_path / "corpus.gsr"), "--out", str(out)])
        assert result.exit_code == 2
        assert len(runs) == 6
        # the output itself was moved into place before the manifest failed
        assert sorted(p.name for p in tmp_path.iterdir()) == ["compacted.gsr", "compacted.gsr.manifest.json", "corpus.gsr"]

    def test_unreadable_run_in_the_final_merge_exits_2(self, runner, tmp_path, monkeypatch, runs):
        # six runs at the default FAN_IN: the first read of a run is the
        # final merge, while the output is being written
        spill_corpus(tmp_path / "corpus.gsr")
        read = []

        def run_open(path, mode="r", *args, **kwargs):
            if ".run-" in str(path) and mode == "rb":
                read.append(path)
                raise OSError(errno.EIO, "Input/output error", str(path))
            return open(path, mode, *args, **kwargs)

        monkeypatch.setattr("lntm.store.open", run_open, raising=False)
        out = tmp_path / "compacted.gsr"
        result = runner.invoke(main, ["compact", "--store", str(tmp_path / "corpus.gsr"), "--out", str(out)])
        assert result.exit_code == 2
        assert result.stderr.startswith("error: [Errno 5] Input/output error")
        assert "Traceback" not in result.stderr
        assert len(runs) == 6 and len(read) == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus.gsr"]

    def test_archive_read_failing_partway_exits_2(self, runner, tmp_path, monkeypatch, runs):
        # the archive opens and, read in blocks of 16 bytes, its first 13
        # records are read, six runs spill, then the read of the 14th frame
        # fails: compact has started writing by then
        monkeypatch.setattr(store, "BLOCK_BYTES", 16)
        archive = tmp_path / "corpus.gsr"
        records = spill_corpus(archive)
        failing = len(store.STORE_MAGIC) + sum(12 + len(rec.payload) for rec in records[:13])

        class Partway:
            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def __getattr__(self, name):
                return getattr(self.fh, name)

            def read(self, size=-1):
                if self.fh.tell() >= failing:
                    raise OSError(errno.EIO, "Input/output error")
                return self.fh.read(size)

        def archive_open(path, mode="r", *args, **kwargs):
            fh = open(path, mode, *args, **kwargs)
            return Partway(fh) if Path(path) == archive else fh

        monkeypatch.setattr("lntm.store.open", archive_open, raising=False)
        out = tmp_path / "compacted.gsr"
        result = runner.invoke(main, ["compact", "--store", str(archive), "--out", str(out)])
        assert result.exit_code == 2
        assert result.stderr.startswith("error: [Errno 5] Input/output error")
        assert len(runs) == 6
        assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus.gsr"]

    def test_bad_record_after_a_spill_exits_1(self, runner, tmp_path, runs):
        records = spill_corpus(tmp_path / "scratch.gsr") + [StoreRecord(5, b"\x01\x02\x03")]
        (tmp_path / "scratch.gsr").unlink()
        write_store(tmp_path / "corpus.gsr", records)
        out = tmp_path / "compacted.gsr"
        result = runner.invoke(main, ["compact", "--store", str(tmp_path / "corpus.gsr"), "--out", str(out)])
        assert result.exit_code == 1
        assert result.stderr.startswith(f"error: record {len(records) - 1} does not decode")
        # the 14 good records spill six runs; the bad one fails before a spill
        assert len(runs) == 6
        assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus.gsr"]


class TestCanonicalJson:
    def test_every_json_output_is_in_canonical_form(self, runner, tmp_path):
        store = tmp_path / "corpus.gsr"
        build_corpus(store)
        snap = tmp_path / "snap.json"
        report = tmp_path / "run-centrality-10000000.json"
        for argv in (
            ["snapshot", "--store", str(store), "--at", "999", "--out", str(snap)],
            ["compact", "--store", str(store), "--out", str(tmp_path / "compacted.gsr")],
            ["centrality", "--snapshot", str(snap), "--out", str(tmp_path / "run")],
            ["inequality", "--report", str(report), "--out", str(tmp_path / "ineq")],
        ):
            assert runner.invoke(main, argv).exit_code == 0
        written = sorted(tmp_path.glob("*.json"))
        # the snapshot, three reports and four manifests
        assert len(written) == 8
        for path in written:
            text = path.read_text()
            assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n", path.name


class TestCanonicalCsv:
    def test_every_csv_output_is_in_canonical_form(self, runner, tmp_path):
        store = tmp_path / "corpus.gsr"
        build_corpus(store)
        snap = tmp_path / "snap.json"
        for argv in (
            ["snapshot", "--store", str(store), "--at", "999", "--out", str(snap)],
            ["centrality", "--snapshot", str(snap), "--out", str(tmp_path / "run")],
            ["inequality", "--report", f"A={tmp_path / 'run-centrality-10000000.json'}",
             "--report", f"B={tmp_path / 'run-centrality-10000000000.json'}",
             "--rank-cap", "2", "--out", str(tmp_path / "ineq")],
        ):
            assert runner.invoke(main, argv).exit_code == 0
        written = sorted(tmp_path.glob("*.csv"))
        # per amount a report and a histogram; two Lorenz curves, the Gini
        # trend, the top shares and the rank timelines
        assert len(written) == 11
        for path in written:
            text = path.read_bytes().decode("utf-8")
            assert "\r" not in text and text.endswith("\n"), path.name
            header, *rows = [line.split(",") for line in text[:-1].split("\n")]
            for row in rows:
                assert len(row) == len(header), path.name
                for column, cell in zip(header, row):
                    if column == "node_id":
                        continue
                    try:
                        value = float(cell)
                    except ValueError:
                        continue  # a label or an absent rank
                    assert cell == repr(value) or (cell.isdigit() and cell == str(int(cell))), (path.name, cell)


def _modules_loaded_by(module: str, names: set[str]) -> list[str]:
    """Which of NAMES a fresh interpreter has loaded after importing MODULE."""
    code = f"import json, sys, {module}; print(json.dumps(sorted(set({sorted(names)!r}) & set(sys.modules))))"
    env = dict(os.environ, PYTHONPATH=str(Path(lntm.__file__).parents[1]))
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return json.loads(result.stdout)


def test_importing_the_cli_leaves_out_the_compute_modules():
    # the command line is parsed with argparse: click is never imported
    compute = {"lntm.replay", "lntm.centrality", "lntm.inequality", "multiprocessing", "click"}
    assert _modules_loaded_by("lntm.cli", compute) == []
    # the betweenness workers are bare forks: nothing imports multiprocessing
    assert _modules_loaded_by("lntm.centrality", {"lntm.centrality", "multiprocessing"}) == ["lntm.centrality"]


# modules no serial command needs: the message dataclasses are built on
# first use, and only a forked betweenness worker pickles or kills
UNUSED_AT_STARTUP = {"dataclasses", "inspect", "pickle", "signal"}

# run each command in turn in one interpreter and list what it has loaded
# of the unused modules when the command returns; then decode an update
# and pickle it, which finds its class by name in lntm.codec
_IMPORT_PROBE = """
import json, sys
from lntm.cli import main
commands, unused, update = json.loads(sys.argv[1])
loaded = {}
for name, argv in commands:
    try:
        main(argv)
    except SystemExit as exc:
        assert exc.code == 0, (name, exc.code)
    loaded[name] = sorted(set(unused) & set(sys.modules))
import pickle
from lntm import codec
msg = codec.decode_message(bytes.fromhex(update))
data = pickle.dumps(msg)
again = pickle.loads(data)
by_name = b"lntm.codec" in data and b"ChannelUpdate" in data and type(again) is codec.ChannelUpdate
print(json.dumps([loaded, by_name, again == msg]))
"""


def test_commands_leave_out_dataclasses_pickle_and_signal(tmp_path):
    build_corpus(tmp_path / "corpus.gsr")
    base = str(tmp_path / "run")
    commands = [
        ("--version", ["--version"]),
        ("snapshot", ["snapshot", "--store", str(tmp_path / "corpus.gsr"), "--at", "400", "--out", base + ".json"]),
        ("compact", ["compact", "--store", str(tmp_path / "corpus.gsr"), "--out", base + ".gsr"]),
        ("centrality", ["centrality", "--snapshot", base + ".json", "--amount-msat", "1000", "--out", base]),
        ("inequality", ["inequality", "--report", base + "-centrality-1000.json", "--out", base]),
    ]
    update = msggen.record(110, msggen.make_channel_update(msggen.scid(12), 110, direction=0, fee_base_msat=10)).payload
    env = dict(os.environ, PYTHONPATH=str(Path(lntm.__file__).parents[1]), LNTM_THREADS="1")
    probe = json.dumps([commands, sorted(UNUSED_AT_STARTUP), update.hex()])
    result = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, probe], env=env, capture_output=True, text=True, check=True)
    loaded, by_name, round_trips = json.loads(result.stdout.splitlines()[-1])
    assert loaded == {name: [] for name, _ in commands}
    assert by_name and round_trips


# each command's required options, with a valid value; "{file}" is an
# existing file
REQUIRED_OPTIONS = {
    "snapshot": [("--store", "{file}"), ("--at", "1"), ("--out", "out")],
    "centrality": [("--snapshot", "{file}"), ("--out", "out")],
    "inequality": [("--report", "{file}"), ("--out", "out")],
    "compact": [("--store", "{file}"), ("--out", "out")],
}


class TestUsageErrors:
    def test_version(self, runner):
        result = runner.invoke(main, ["--version"])
        assert (result.exit_code, result.stdout, result.stderr) == (0, "lntm, version 0.1.0\n", "")

    @pytest.mark.parametrize(
        "command, missing", [(command, i) for command, options in REQUIRED_OPTIONS.items() for i in range(len(options))]
    )
    def test_a_missing_required_option_exits_2(self, runner, tmp_path, monkeypatch, command, missing):
        monkeypatch.chdir(tmp_path)
        Path("input").write_bytes(b"")
        options = REQUIRED_OPTIONS[command]
        argv = [command]
        for i, (option, value) in enumerate(options):
            if i != missing:
                argv += [option, value.format(file="input")]
        result = runner.invoke(main, argv)
        assert result.exit_code == 2
        assert result.stderr.startswith(f"usage: lntm {command} ")
        assert options[missing][0] in result.stderr.splitlines()[-1]
        assert "Traceback" not in result.stderr
        assert isinstance(result.exception, SystemExit)
        assert os.listdir() == ["input"]

    @pytest.mark.parametrize("command", ["snapshot", "centrality", "inequality", "compact"])
    def test_an_input_that_does_not_exist_exits_1(self, runner, tmp_path, monkeypatch, command):
        # not a usage error: it fails on the read, as any unreadable input does
        monkeypatch.chdir(tmp_path)
        argv = [command]
        for option, value in REQUIRED_OPTIONS[command]:
            argv += [option, value.format(file="absent")]
        result = runner.invoke(main, argv)
        assert result.exit_code == 1
        assert result.stderr == "error: [Errno 2] No such file or directory: 'absent'\n"
        assert result.stdout == ""
        assert isinstance(result.exception, SystemExit)
        assert os.listdir() == []

    @pytest.mark.parametrize("command", ["snapshot", "compact"])
    def test_an_output_that_is_a_directory_exits_2(self, runner, tmp_path, monkeypatch, command):
        monkeypatch.chdir(tmp_path)
        build_corpus(tmp_path / "input")
        (tmp_path / "out").mkdir()
        argv = [command]
        for option, value in REQUIRED_OPTIONS[command]:
            argv += [option, value.format(file="input")]
        result = runner.invoke(main, argv)
        assert result.exit_code == 2
        assert result.stderr.splitlines()[-1] == f"lntm {command}: error: argument --out: 'out' is a directory"
        assert sorted(os.listdir()) == ["input", "out"] and os.listdir("out") == []

    def test_an_abbreviated_option_exits_2(self, runner, tmp_path):
        store = tmp_path / "corpus.gsr"
        build_corpus(store)
        result = runner.invoke(main, ["snapshot", "--sto", str(store), "--at", "999", "--out", str(tmp_path / "x.json")])
        assert result.exit_code == 2
        # --sto is not taken for --store
        assert result.stderr.endswith("error: the following arguments are required: --store\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus.gsr"]


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


# a valid snapshot of the corpus and a valid report on it, as JSON documents
_SNAPSHOT = replay(corpus_records(), 999)
SNAPSHOT_DOC = json.loads(snapshot_to_json(_SNAPSHOT))
REPORT_DOC = json.loads(report_to_json(betweenness(build_graph(routing_view(_SNAPSHOT), 10_000_000))))


def leaf_paths(doc, path=()):
    """Key paths to every scalar of a JSON document, nulls included."""
    if isinstance(doc, (dict, list)):
        for key, value in (doc.items() if isinstance(doc, dict) else enumerate(doc)):
            yield from leaf_paths(value, path + (key,))
    else:
        yield path


def replaced(doc, path, value):
    doc = copy.deepcopy(doc)
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return doc


def run_on_document(kind: str, content: bytes, workdir: Path):
    """Run centrality on a snapshot, or inequality on a report, whose file
    holds ``content``; check that a failure is a clean exit 1."""
    doc_path = workdir / "doc.json"
    doc_path.write_bytes(content)
    if kind == "snapshot":
        argv = ["centrality", "--snapshot", str(doc_path), "--amount-msat", "10000000"]
    else:
        argv = ["inequality", "--report", str(doc_path)]
    result = CliRunner().invoke(main, [*argv, "--out", str(workdir / "out")])
    assert result.exit_code in (0, 1), result.output
    assert result.exception is None or isinstance(result.exception, SystemExit), result.exception
    if result.exit_code == 1:
        assert result.stderr.startswith("error:"), result.stderr
        assert not list(workdir.glob("out-*"))
    return result


def _snapshot_edit(path, value):
    return "snapshot", json.dumps(replaced(SNAPSHOT_DOC, path, value)).encode()


def _report_edit(path, value):
    return "report", json.dumps(replaced(REPORT_DOC, path, value)).encode()


_POLICY = ("channels", 0, "policies", 0)
_NODE_3 = msggen.node_id(3).hex()  # the highest id, so a rename keeps node1 < node2


def _renamed(kind, text):
    """The document with every mention of node 3's id spelled ``text``."""
    doc = json.dumps(SNAPSHOT_DOC if kind == "snapshot" else REPORT_DOC)
    return kind, doc.replace(json.dumps(_NODE_3), json.dumps(text)).encode()


def _swapped_endpoints():
    channel = SNAPSHOT_DOC["channels"][0]
    return _snapshot_edit(("channels", 0), dict(channel, node1=channel["node2"], node2=channel["node1"]))

BAD_DOCUMENTS = {
    "snapshot-not-utf8": ("snapshot", b"\xff" + json.dumps(SNAPSHOT_DOC).encode()),
    "snapshot-deeply-nested": ("snapshot", b"[" * 100_000),
    "scid-int": _snapshot_edit(("channels", 0, "scid"), 5),
    "fee-base-str": _snapshot_edit(_POLICY + ("fee_base_msat",), "10"),
    "fee-base-over-u32": _snapshot_edit(_POLICY + ("fee_base_msat",), 2**32),
    "fee-ppm-negative": _snapshot_edit(_POLICY + ("fee_proportional_millionths",), -1),
    "cltv-over-u16": _snapshot_edit(_POLICY + ("cltv_expiry_delta",), 2**16),
    "htlc-min-over-u64": _snapshot_edit(_POLICY + ("htlc_minimum_msat",), 2**64),
    "htlc-max-float": _snapshot_edit(_POLICY + ("htlc_maximum_msat",), 1.5),
    "disabled-int": _snapshot_edit(_POLICY + ("disabled",), 0),
    "last-update-bool": _snapshot_edit(_POLICY + ("last_update_ts",), True),
    "policies-one": _snapshot_edit(("channels", 0, "policies"), [None]),
    "policies-str": _snapshot_edit(("channels", 0, "policies"), ""),
    "endpoint-not-a-node": ("snapshot", json.dumps(dict(SNAPSHOT_DOC, nodes=SNAPSHOT_DOC["nodes"][1:], node_count=2)).encode()),
    "as-of-str": _snapshot_edit(("as_of",), "999"),
    "as-of-float": _snapshot_edit(("as_of",), 999.0),
    "node-listed-twice": _snapshot_edit(("nodes",), SNAPSHOT_DOC["nodes"] + SNAPSHOT_DOC["nodes"][:1]),
    "scid-listed-twice": _snapshot_edit(("channels",), SNAPSHOT_DOC["channels"] + SNAPSHOT_DOC["channels"][-1:]),
    "diagnostics-negative": _snapshot_edit(("diagnostics", "updates_unknown_channel"), -1),
    "alias-int": _snapshot_edit(("nodes", 0, "alias"), 5),
    "rgb-list": _snapshot_edit(("nodes", 0, "rgb"), []),
    "rgb-not-hex": _snapshot_edit(("nodes", 0, "rgb"), "zz"),
    "node-count-wrong": _snapshot_edit(("node_count",), 99),
    "node-count-definition-other": _snapshot_edit(("node_count_definition",), "every node ever announced"),
    "last-seen-float": _snapshot_edit(("nodes", 0, "last_seen"), 150.0),
    "node-id-one-byte": _renamed("snapshot", "03"),
    "node-id-uppercase": _renamed("snapshot", "03" + "AB" * 32),
    "node-id-with-space": _renamed("snapshot", "02 " + _NODE_3[2:]),
    "node-id-prefix-04": _renamed("snapshot", "04" + _NODE_3[2:]),
    "endpoint-with-space": _snapshot_edit(("channels", 1, "node2"), "02 " + _NODE_3[2:]),
    "node1-above-node2": _swapped_endpoints(),
    "scid-underscore": _snapshot_edit(("channels", 0, "scid"), "1_2x0x0"),
    "scid-space": _snapshot_edit(("channels", 0, "scid"), " 12x0x0"),
    "scid-plus": _snapshot_edit(("channels", 0, "scid"), "+12x0x0"),
    "scid-leading-zero": _snapshot_edit(("channels", 0, "scid"), "012x0x0"),
    "scid-arabic-indic": _snapshot_edit(("channels", 0, "scid"), "\u0661\u0662x0x0"),
    "report-not-utf8": ("report", b"\xff" + json.dumps(REPORT_DOC).encode()),
    "report-deeply-nested": ("report", b"{\"a\": " * 100_000),
    "values-list": _report_edit(("values",), []),
    "values-number": _report_edit(("values",), 5),
    "value-nan": _report_edit(("values", msggen.node_id(2).hex()), math.nan),
    "value-inf": _report_edit(("values", msggen.node_id(2).hex()), math.inf),
    "value-minus-inf": _report_edit(("values", msggen.node_id(2).hex()), -math.inf),
    "value-negative": _report_edit(("values", msggen.node_id(2).hex()), -1.0),
    "value-bool": _report_edit(("values", msggen.node_id(2).hex()), True),
    "value-str": _report_edit(("values", msggen.node_id(2).hex()), "1.0"),
    "value-too-large": _report_edit(("values", msggen.node_id(2).hex()), 10**400),
    "report-as-of-float": _report_edit(("as_of",), 1.5),
    "report-node-id-one-byte": _renamed("report", "AB"),
    "report-node-id-with-space": _renamed("report", "02 " + _NODE_3[2:]),
    "amount-over-u64": _report_edit(("amount_msat",), 2**64),
    # raw text, as json.dumps never repeats a key; the first value would lose
    "report-node-id-twice": ("report", json.dumps(REPORT_DOC).replace('"values": {', f'"values": {{"{msggen.node_id(2).hex()}": 0.0, ', 1).encode()),
    "snapshot-as-of-twice": ("snapshot", ('{"as_of": 0, ' + json.dumps(SNAPSHOT_DOC)[1:]).encode()),
}

# stand-ins for a leaf: every JSON type, NaN and the infinities included
JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(),
    st.text(max_size=8),
    st.just([]),
    st.just({}),
)


class TestBadDocuments:
    @pytest.mark.parametrize("name", sorted(BAD_DOCUMENTS))
    def test_exits_1_without_traceback(self, tmp_path, name):
        kind, content = BAD_DOCUMENTS[name]
        parse = snapshot_from_json if kind == "snapshot" else report_from_json
        # the loader's four failures
        message = rf"^(not valid JSON: |missing {kind} format marker$|unsupported {kind} version |malformed {kind} document: )"
        try:
            text = content.decode("utf-8")
        except UnicodeDecodeError:
            pass
        else:
            with pytest.raises(ValueError, match=message):
                parse(text)
        assert run_on_document(kind, content, tmp_path).exit_code == 1

    def test_endpoint_missing_from_nodes_names_the_file(self, tmp_path):
        result = run_on_document(*BAD_DOCUMENTS["endpoint-not-a-node"], tmp_path)
        scid = SNAPSHOT_DOC["channels"][0]["scid"]
        assert result.exit_code == 1
        assert result.stderr == (
            f"error: {tmp_path / 'doc.json'}: malformed snapshot document: "
            f"an endpoint of channel {scid} is not among the nodes\n"
        )

    def test_repeated_key_is_named(self, tmp_path):
        result = run_on_document(*BAD_DOCUMENTS["snapshot-as-of-twice"], tmp_path)
        assert result.stderr == f"error: {tmp_path / 'doc.json'}: not valid JSON: repeated key 'as_of'\n"

    def test_valid_documents_pass(self, tmp_path):
        for kind, doc in (("snapshot", SNAPSHOT_DOC), ("report", REPORT_DOC)):
            assert run_on_document(kind, json.dumps(doc).encode(), tmp_path).exit_code == 0

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), kind=st.sampled_from(["snapshot", "report"]), value=JSON_SCALARS)
    def test_any_replaced_leaf_exits_0_or_1(self, data, kind, value):
        doc = SNAPSHOT_DOC if kind == "snapshot" else REPORT_DOC
        path = data.draw(st.sampled_from(list(leaf_paths(doc))))
        old = doc
        for key in path:
            old = old[key]
        assume(type(value) is not type(old) or value != value)  # NaN may replace a float
        with tempfile.TemporaryDirectory() as workdir:
            run_on_document(kind, json.dumps(replaced(doc, path, value)).encode(), Path(workdir))
