"""Benchmark of the lntm pipeline through its real command line.

    python3 perfbench/run.py --workload history --seed 1 --seconds 36 --trace 0

Run from the root of a checkout. The workload's archive is generated from
``--seed``; the program only ever sees that file. With ``--trace 0`` each
pass runs the workload's CLI calls (``python -m lntm.cli``, one fresh
process each) and the end-to-end metrics are reported; with ``--trace 1``
each pass runs the same work in-process under spans (see ``traced.py``) and
the per-layer metrics are reported. Passes repeat for ``--seconds`` and
every metric is the median over passes. Times are scaled to a reference
machine speed measured by ``calibrate.py``, which runs before and after
every call.
Every output is checked against references computed independently from the
generator's messages.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A fuller record with
per-pass values, the workload census and provenance is written under
``perfbench/.work/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibrate import REFERENCE_S

BENCH = Path(__file__).resolve().parent
ROOT = Path.cwd()
WORK = BENCH / ".work"

SETUP_SAMPLES_PER_PASS = 3
REL_TOL = 1e-9
RUN_LIMIT_S = 150  # from the end of set-up; a hung call is killed so the run still ends

END_TO_END_UNITS = {
    "wall_s": "s",
    "snapshot_s": "s",
    "centrality_s": "s",
    "compact_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def per_layer_unit(name: str) -> str:
    for suffix, unit in (("_s", "s"), ("_ms", "ms"), ("_mb", "MB"), ("_ratio", "ratio"), ("_share", "ratio")):
        if name.endswith(suffix):
            return unit
    return "bytes" if "bytes" in name else "count"


class Op:
    """One kind of CLI invocation in a pass (or its in-process stand-in),
    made once or repeated, and the outputs each invocation is answerable
    for. Every invocation is one operation."""

    def __init__(self, kind: str, outputs: list[Path]):
        self.kind = kind
        self.outputs = outputs
        self.times: list[tuple[float, int]] = []  # (seconds, calibration mark) of each invocation
        self.rss_mb = 0.0
        self.calls = 0
        self.errors: list[str] = []  # one per failed invocation

    def record(self, error: str | None) -> None:
        self.calls += 1
        if error:
            self.errors.append(error)

    def seconds(self, scale) -> float:
        """Median time of the invocations, each as ``scale(seconds, mark)``."""
        return statistics.median(scale(seconds, mark) for seconds, mark in self.times)


class Launcher:
    """Client of ``launcher.py``, the small process that starts the program."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "launcher.py")],
            cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def run(self, argv: list[str], env: dict, log: Path, timeout: float) -> tuple[float, float, int]:
        """(seconds, peak RSS in MB, exit code) of ARGV."""
        request = {"argv": argv, "env": env, "log": str(log), "timeout": timeout}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        return reply["seconds"], reply["rss_mb"], reply["code"]

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()


class Bench:
    def __init__(self, workload, seed: int, work: Path, launcher: Launcher):
        import corpus
        import reference

        self.w = workload
        self.work = work
        self.launcher = launcher
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), LNTM_THREADS=str(workload.threads))
        self.archive = work / "gossip.gsr"
        records = corpus.generate(workload.corpus, seed, salt=workload.name)
        self.archive_bytes = corpus.write_archive(self.archive, records)
        entries = reference.feed(records)
        self.census = reference.census(records, entries)
        self.expected: dict[str, bytes] = {}  # output file name -> exact bytes
        self.expected_reports: dict[str, dict[str, float]] = {}  # report name -> values
        self.expected_gini: dict[str, float] = {}
        self.report_paths: list[tuple[str, str]] = []
        self._reference_outputs(reference, entries)
        self.digests: dict[str, str] = {}  # output digests of the first invocation
        self.calibration: list[float] = []  # seconds of each calibrate.py run
        self.calibration_errors: list[str] = []
        self.deadline = time.monotonic() + RUN_LIMIT_S

    def _reference_outputs(self, reference, entries) -> None:
        import brandes

        w = self.w
        self.expected["compact.gsr"] = reference.compact_bytes(entries)
        per_instant = []
        for i, as_of in enumerate(w.instants):
            doc = reference.snapshot_doc(entries, as_of)
            self.expected[f"snapshot-{i}.json"] = reference.canonical_json(doc)
            instant = {
                "as_of": as_of,
                "prefix_entries": reference.prefix_length(entries, as_of),
                "nodes": doc["node_count"],
                "channels": len(doc["channels"]),
                "updates_unknown_channel": doc["diagnostics"]["updates_unknown_channel"],
                "orphan_node_announcements": doc["diagnostics"]["orphan_node_announcements"],
                "graphs": [],
            }
            for amount in w.amounts:
                g = reference.routing_graph(doc, amount, w.prune_stale_after, w.enforce_htlc_bounds)
                values = brandes.betweenness(len(g.nodes), g.arcs)
                name = f"c{i}-centrality-{amount}.json"
                self.expected_reports[name] = dict(zip(g.nodes, values.tolist()))
                label = f"T{i + 1}" if len(w.instants) > 1 else f"A{amount}"
                self.report_paths.append((label, name))
                self.expected_gini[label] = reference.gini(values.tolist())
                instant["graphs"].append({
                    "amount_msat": amount,
                    "arcs": len(g.arcs),
                    "zero_arcs": sum(1 for _, _, wt in g.arcs if wt == 0),
                    "zero_cluster_nodes": reference.zero_cluster_nodes(g.arcs),
                    "leaf_share": reference.leaf_count(len(g.nodes), g.arcs) / len(g.nodes),
                })
            per_instant.append(instant)
        self.census["instants"] = per_instant

    # --- one pass -------------------------------------------------------

    def plan_ops(self, out: Path) -> list[Op]:
        w = self.w
        ops = [Op("snapshot", [out / f"snapshot-{i}.json"]) for i in range(len(w.instants))]
        ops.append(Op("compact", [out / "compact.gsr"]))
        for i in range(len(w.instants)):
            ops.append(Op("centrality", [out / f"c{i}-centrality-{a}.json" for a in w.amounts]))
        ops.append(Op("inequality", [out / "ineq-gini-trend.csv"]))
        return ops

    def cli_pass(self, out: Path) -> list[Op]:
        w = self.w
        ops = self.plan_ops(out)
        argv = [["snapshot", "--store", str(self.archive), "--at", str(t), "--out", str(out / f"snapshot-{i}.json")] for i, t in enumerate(w.instants)]
        argv.append(["compact", "--store", str(self.archive), "--out", str(out / "compact.gsr")])
        argv += [["centrality", "--snapshot", str(out / f"snapshot-{i}.json"), "--out", str(out / f"c{i}"), *w.centrality_flags()] for i in range(len(w.instants))]
        argv.append(["inequality", *[f"--report={label}={out / name}" for label, name in self.report_paths], "--out", str(out / "ineq")])
        for op, args in zip(ops, argv):
            for _ in range(w.repeats.get(op.kind, 1)):
                # a repeat overwrites the same files: each one's outputs are
                # removed before it runs and checked right after
                for path in op.outputs:
                    path.unlink(missing_ok=True)
                mark = self.calibrate(out / "calibrate.stderr")
                seconds, rss_mb, error = self.run(["-m", "lntm.cli", *args], out / f"{op.kind}.stderr")
                op.times.append((seconds, mark))
                op.rss_mb = max(op.rss_mb, rss_mb)
                op.record(error or self.check(op))
        self.calibrate(out / "calibrate.stderr")  # the run after the last call
        return ops

    def calibrate(self, log: Path) -> int:
        """Run ``calibrate.py``. Returns the mark of a call made next: the
        index the calibration run after that call will have."""
        seconds, _, error = self.run([str(BENCH / "calibrate.py")], log)
        if error:
            self.calibration_errors.append(f"calibrate.py: {error}")
        else:
            self.calibration.append(seconds)
        return len(self.calibration)

    def scale(self, seconds: float, mark: int) -> float:
        """SECONDS of a call made at MARK, in seconds at the reference speed.

        The machine's speed is taken as the mean of the four calibration
        runs nearest the call, two before it and two after: the speed drifts
        within seconds, and the runs next to a call follow it more closely
        than an average over the whole run does. Without calibration the
        time stays unscaled (the run is then reported as not correct)."""
        near = self.calibration[max(0, mark - 2):mark + 2]
        return seconds * REFERENCE_S / statistics.mean(near) if near else seconds

    def run(self, args: list[str], log: Path, env: dict | None = None) -> tuple[float, float, str | None]:
        """Run ``python ARGS``; returns (seconds, peak RSS in MB, error or None)."""
        seconds, rss_mb, code = self.launcher.run([sys.executable, *args], env or self.env, log, self.remaining())
        stderr = log.read_bytes()
        error = None
        if code != 0:
            error = f"exit {code}: {stderr[-400:].decode(errors='replace')}"
        elif b"Traceback" in stderr:
            error = "traceback on stderr"
        return seconds, rss_mb, error

    def remaining(self) -> float:
        return self.deadline - time.monotonic()

    def setup_seconds(self, out: Path) -> tuple[list[tuple[float, int]], int]:
        """(seconds, calibration mark) of each ``python -m lntm.cli --version``
        call and the failure count. The calibration run that closes their
        bracket is the one ``cli_pass`` starts with."""
        samples, failed = [], 0
        mark = self.calibrate(out / "calibrate.stderr")
        for _ in range(SETUP_SAMPLES_PER_PASS):
            seconds, _, error = self.run(["-m", "lntm.cli", "--version"], out / "version.stderr")
            samples.append((seconds, mark))
            failed += error is not None
        return samples, failed

    def traced_pass(self, out: Path) -> tuple[list[Op], dict | None, int]:
        """The pass's operations, the trace (None if it failed) and its
        calibration mark."""
        w = self.w
        ops = self.plan_ops(out)
        plan = {
            "archive": str(self.archive),
            "pass_dir": str(out),
            "instants": w.instants,
            "amounts": list(w.amounts),
            "exact": w.exact,
            "enforce_htlc_bounds": w.enforce_htlc_bounds,
            "prune_stale_after": w.prune_stale_after,
            "threads": w.threads,
            "reports": [(label, str(out / name)) for label, name in self.report_paths],
            "result": str(out / "trace.json"),
        }
        (out / "plan.json").write_text(json.dumps(plan), encoding="utf-8")
        paths = os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests"), str(BENCH)])
        mark = self.calibrate(out / "calibrate.stderr")
        _, _, error = self.run(
            [str(BENCH / "traced.py"), str(out / "plan.json")], out / "traced.stderr", dict(self.env, PYTHONPATH=paths)
        )
        self.calibrate(out / "calibrate.stderr")
        for op in ops:
            op.record(f"traced pass {error}" if error else self.check(op))
        return ops, None if error else json.loads((out / "trace.json").read_text(encoding="utf-8")), mark

    # --- checks -----------------------------------------------------------

    def check(self, op: Op) -> str | None:
        """The first problem with the outputs of OP's latest invocation."""
        try:
            return next(filter(None, (self._check(path) for path in op.outputs)), None)
        except (ValueError, KeyError, TypeError) as exc:
            return f"unreadable output: {exc!r}"

    def _check(self, path: Path) -> str | None:
        if not path.is_file():
            return f"{path.name} missing"
        data = path.read_bytes()
        digest = hashlib.sha256(data).hexdigest()
        if self.digests.setdefault(path.name, digest) != digest:
            return f"{path.name} differs from the first invocation's bytes"
        if path.name in self.expected:
            return None if data == self.expected[path.name] else f"{path.name} differs from the reference bytes"
        if path.name in self.expected_reports:
            doc = json.loads(data)
            return _compare(path.name, doc["values"], self.expected_reports[path.name])
        if path.name == "ineq-gini-trend.csv":
            rows = [line.split(",") for line in data.decode().splitlines()[1:]]
            return _compare(path.name, {label: float(g) for label, g in rows}, self.expected_gini)
        return None


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b), 1.0)


def _compare(name: str, got: dict, want: dict) -> str | None:
    if set(got) != set(want):
        return f"{name}: keys differ from the reference ({len(got)} vs {len(want)})"
    bad = [k for k in want if not _close(float(got[k]), want[k])]
    if bad:
        k = bad[0]
        return f"{name}: {len(bad)} values off the reference, e.g. {k}: {got[k]!r} vs {want[k]!r}"
    return None


def end_to_end(ops: list[Op], scale) -> dict[str, float]:
    """One pass's end-to-end metrics except ``setup_s``, times as
    ``scale(seconds, mark)``."""
    def total(kind: str) -> float:
        return sum(op.seconds(scale) for op in ops if op.kind == kind)

    return {
        "wall_s": sum(op.seconds(scale) for op in ops),
        "snapshot_s": total("snapshot"),
        "centrality_s": total("centrality"),
        "compact_s": total("compact"),
        "peak_rss_mb": max(op.rss_mb for op in ops),
    }


def provenance(bench: Bench, seed: int) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "git_commit": commit,
        "seed": seed,
        "archive_bytes": bench.archive_bytes,
        "compacted_bytes": len(bench.expected["compact.gsr"]),
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines()) for p in sorted((ROOT / "src").rglob("*.py"))),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in ("src/lntm/cli.py", "tests/msggen.py") if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: run from the root of an lntm checkout; missing {', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    work = WORK / f"{workload.name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    launcher = Launcher()  # before the corpus is built, while this process is small
    try:
        return _run(Bench(workload, args.seed, work, launcher), args)
    finally:
        launcher.close()
        shutil.rmtree(work, ignore_errors=True)


def _run(bench: Bench, args) -> int:
    workload, work = bench.w, bench.work
    attempted = failed = 0
    setup: list[tuple[float, int]] = []  # (seconds, calibration mark)
    cli_passes: list[list[Op]] = []
    traces: list[tuple[dict[str, float], int]] = []  # (metrics, calibration mark)
    errors: list[str] = []
    spans = []
    start = time.perf_counter()
    for index in itertools.count():
        out = work / f"pass-{index}"
        out.mkdir()
        pass_start = time.perf_counter()
        if args.trace:
            ops, trace, mark = bench.traced_pass(out)
            if trace is not None:
                traces.append((trace["metrics"], mark))
                spans.append(trace["spans"])
        else:
            # set-up samples spread over the run, so that they see the same
            # machine as the passes
            samples, setup_failed = bench.setup_seconds(out)
            setup += samples
            attempted += len(samples)
            failed += setup_failed
            ops = bench.cli_pass(out)
            cli_passes.append(ops)
        attempted += sum(op.calls for op in ops)
        failed += sum(len(op.errors) for op in ops)
        errors += [f"{op.kind}: {error}" for op in ops for error in op.errors]
        shutil.rmtree(out)
        elapsed = time.perf_counter() - start
        if elapsed + (time.perf_counter() - pass_start) > args.seconds or bench.remaining() < 0:
            break

    def summary(scale) -> tuple[dict[str, float], list[dict[str, float]]]:
        """Metric medians and per-pass values, times as ``scale(seconds, mark)``."""
        if args.trace:
            passes = [
                {name: scale(v, mark) if per_layer_unit(name) in ("s", "ms") else v for name, v in m.items()}
                for m, mark in traces
            ]
            names = passes[0] if passes else ()
        else:
            passes = [end_to_end(ops, scale) for ops in cli_passes]
            names = [name for name in END_TO_END_UNITS if name != "setup_s"]
        medians = {name: statistics.median(p[name] for p in passes) for name in names}
        if not args.trace:
            medians["setup_s"] = statistics.median(scale(seconds, mark) for seconds, mark in setup)
        return medians, passes

    values, passes = summary(bench.scale)
    raw, _ = summary(lambda seconds, mark: seconds)
    units = END_TO_END_UNITS if not args.trace else {name: per_layer_unit(name) for name in values}
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}

    record = {
        "workload": workload.name,
        "why": workload.why,
        "trace": args.trace,
        "seconds": args.seconds,
        "passes": passes,
        "setup_samples": setup,
        "calibration_samples": bench.calibration,
        "unscaled_metrics": raw,
        "errors": (bench.calibration_errors + errors)[:20],
        "census": bench.census,
        "provenance": provenance(bench, args.seed),
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps({**record, "metrics": metrics, "spans": spans}, indent=1), encoding="utf-8")

    for line in (bench.calibration_errors + errors)[:5]:
        print(f"perfbench: {line}", file=sys.stderr)
    print(f"{workload.name}: {len(passes)} passes, seed {args.seed}, trace {args.trace}")
    print("  times scaled to the reference speed by the calibrate.py runs around each call")
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}  (unscaled {raw[name]:.6g})")
    print(f"  {'error_rate':32s} {failed / max(1, attempted):.6g} ratio ({failed} of {attempted} operations failed)")
    print(json.dumps(record, separators=(",", ":")))
    print(json.dumps({
        "correct": failed == 0 and bool(passes) and not bench.calibration_errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
