"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Jobs run in fresh single-threaded
worker processes (perfbench/worker.py), one job at a time, so peak RSS
is the workload's own and the library's in-process memos start cold as
they do for a command-line call.

--trace 0 reports the end-to-end metrics.  One untraced worker runs
whole passes, as many as bring the run closest to S seconds.
Before each pass a fresh worker is started and stopped once set-up is
done, so set-up time is sampled across the run.

--trace 1 reports the per-layer metrics.  A traced and an untraced
worker run the same jobs in lockstep for about S/2 seconds of traced
job time; the pairs give the tracing overhead and the untraced job time
that the layer self times are compared with.  Spans are written to
perfbench/out/.

A readable report goes to stderr; the last stdout line is the JSON
result.  The exit code is 0 when a result was printed, even if jobs
failed (then "correct" is false), and 2 when the checkout holds no
library to measure or a worker did not finish in time.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
MIN_SETUP_SAMPLES = 11

END_TO_END_UNITS = {"jobs_per_s": "1/s", "job_p50_s": "s", "job_tail_s": "s",
                    "peak_rss_mb": "MB", "setup_s": "s"}
LAYER_UNITS = {
    "roots.build_s": "s", "roots.roots": "count", "roots.simple_s": "s",
    "partitions.closed_s": "s", "partitions.closed_calls": "count",
    "partitions.lemma_s": "s",
    "group.bfs_s": "s", "group.elements": "count", "group.elements_per_s": "1/s",
    "group.save_s": "s", "group.load_s": "s", "group.cache_bytes": "bytes",
    "group.span_s": "s", "group.span_calls": "count",
    "classes.walk_s": "s", "classes.classes": "count",
    "linalg.charpoly_s": "s", "linalg.charpoly_calls": "count",
    "linalg.det_s": "s", "linalg.det_calls": "count",
    "trace.overhead_ratio": "ratio", "trace.attributed_ratio": "ratio",
}


class WorkerError(RuntimeError):
    pass


def _worker_command(workload, seed, *extra):
    return [sys.executable, str(HERE / "worker.py"), "--workload", workload,
            "--seed", str(seed), *extra, "--spawned-at", repr(time.monotonic())]


def probe_setup(workload, seed, deadline) -> float:
    """Set-up time of one fresh worker that stops before its first job."""
    try:
        done = subprocess.run(_worker_command(workload, seed, "--probe"),
                              capture_output=True, text=True, cwd=ROOT,
                              timeout=max(deadline - time.monotonic(), 0.1))
    except subprocess.TimeoutExpired as exc:
        raise WorkerError("a set-up probe did not finish in time") from exc
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise WorkerError(f"a set-up probe exited with {done.returncode}")
    return json.loads(done.stdout)["setup_s"]


class Server:
    """A worker in --serve mode: one JSON line in answer to each command."""

    def __init__(self, workload, seed, scratch, trace_out=None):
        extra = ["--serve", str(scratch)]
        if trace_out is not None:
            extra += ["--trace-out", str(trace_out)]
        self.process = subprocess.Popen(_worker_command(workload, seed, *extra),
                                        cwd=ROOT, text=True,
                                        stdin=subprocess.PIPE,
                                        stdout=subprocess.PIPE)
        self.setup_s = self.read()["setup_s"]

    def read(self):
        line = self.process.stdout.readline()
        if not line:
            raise WorkerError(f"a worker exited with {self.process.wait()}")
        return json.loads(line)

    def ask(self, command):
        self.process.stdin.write(command + "\n")
        self.process.stdin.flush()
        return self.read()

    def run_pass(self):
        """Run the jobs of the next pass; return their records."""
        records = [self.ask("job")]
        while not records[-1]["last_in_pass"]:
            records.append(self.ask("job"))
        return records

    def stop(self):
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()


class Servers:
    """Starts workers and makes sure every one has ended on exit,
    killing them when the deadline passes first."""

    def __init__(self, deadline):
        self.started = []
        self.watchdog = threading.Timer(max(deadline - time.monotonic(), 0),
                                        self.stop)

    def start(self, *args, **kwargs):
        server = Server(*args, **kwargs)
        self.started.append(server)
        return server

    def stop(self):
        for server in self.started:
            server.stop()

    def __enter__(self):
        self.watchdog.start()
        return self

    def __exit__(self, *exc_info):
        self.watchdog.cancel()
        self.stop()
        if exc_info[0] in (OSError, ValueError):
            raise WorkerError(f"lost contact with a worker: {exc_info[1]}")


def tail(times):
    """(value, percentile, samples beyond it): the highest order statistic
    with at least ten samples beyond it, or the maximum (with none beyond)
    when a run has fewer than eleven jobs."""
    ordered = sorted(times)
    n = len(ordered)
    k = n - 11 if n >= 11 else n - 1
    return ordered[k], 100.0 * (k + 1) / n, n - 1 - k


def report_failures(records) -> int:
    failed = 0
    for record in records:
        for problem in record["problems"]:
            print(f"FAILED {record['label']}: {problem}", file=sys.stderr)
        failed += bool(record["problems"])
    return failed


def end_to_end(workload, seed, seconds, deadline, scratch):
    setups, jobs, pass_walls, pass_rates = [], [], [], []
    with Servers(deadline) as servers:
        server = servers.start(workload, seed, scratch)
        setups.append(server.setup_s)
        while True:
            setups.append(probe_setup(workload, seed, deadline))
            started = time.monotonic()
            records = server.run_pass()
            pass_walls.append(time.monotonic() - started)
            pass_rates.append(sum(not r["problems"] for r in records) / pass_walls[-1])
            jobs += records
            # stop where the run ends closest to `seconds`
            if sum(pass_walls) + statistics.mean(pass_walls) / 2 > seconds:
                break
        summary = server.ask("end")
        while len(setups) < MIN_SETUP_SAMPLES:
            setups.append(probe_setup(workload, seed, deadline))
    failed = report_failures(jobs)
    attempted = len(jobs)
    times = [record["seconds"] for record in jobs]
    tail_value, tail_pct, beyond = tail(times)
    loop_s = sum(pass_walls)
    metrics = {
        "jobs_per_s": statistics.median(pass_rates),
        "job_p50_s": statistics.median(times),
        "job_tail_s": tail_value,
        "peak_rss_mb": summary["peak_rss_mb"],
        "setup_s": statistics.median(setups),
    }
    notes = [f"{attempted} jobs in {len(pass_walls)} passes, {loop_s:.2f}s",
             f"job_tail_s is p{tail_pct:.0f} of {attempted} jobs, "
             f"{beyond} beyond it",
             f"fail_ratio {failed / attempted:.4f} ({failed}/{attempted})",
             "setup_s is the median of " + " ".join(f"{s:.3f}" for s in setups),
             "jobs: " + " ".join(f"{r['label']}={r['seconds']:.2f}" for r in jobs)]
    return metrics, END_TO_END_UNITS, attempted, failed, notes


def per_layer(workload, seed, seconds, deadline, scratch):
    """A traced and an untraced worker run the same jobs in lockstep.

    Each traced job is paired with the same job run untraced right
    before or after it (the order alternates), so slow phases of a
    shared machine do not land on one side only.
    """
    spans_path = OUT / f"spans-{workload}-{seed}.json"
    pairs = []
    traced_s = 0.0
    passes = 0
    with Servers(deadline) as servers:
        traced = servers.start(workload, seed, scratch / "traced", spans_path)
        plain = servers.start(workload, seed, scratch / "plain")
        while True:
            order = (traced, plain) if len(pairs) % 2 == 0 else (plain, traced)
            answers = {id(server): server.ask("job") for server in order}
            pair = (answers[id(traced)], answers[id(plain)])
            if pair[0]["label"] != pair[1]["label"]:
                raise WorkerError("the traced and untraced workers ran different jobs")
            pairs.append(pair)
            traced_s += pair[0]["seconds"]
            if pair[0]["last_in_pass"]:
                passes += 1
                # stop where the traced job time ends closest to seconds / 2
                if traced_s + traced_s / passes / 2 > seconds / 2:
                    break
        layers = traced.ask("end")["layers"]
        plain.ask("end")
    report_failures(record for pair in pairs for record in pair)
    failed = sum(1 for pair in pairs if pair[0]["problems"] or pair[1]["problems"])
    attempted = len(pairs)
    plain_s = sum(pair[1]["seconds"] for pair in pairs)
    metrics = {name: layers[name] / attempted for name in LAYER_UNITS
               if name in layers}
    bfs_s = layers["group.bfs_s"]
    metrics["group.elements_per_s"] = layers["group.elements"] / bfs_s if bfs_s else 0.0
    attributed = sum(layers[name] for name in LAYER_UNITS
                     if name.endswith("_s") and name in layers)
    metrics["trace.overhead_ratio"] = traced_s / plain_s - 1
    metrics["trace.attributed_ratio"] = attributed / plain_s
    notes = [f"{attempted} jobs, each run traced and untraced; spans in "
             f"{spans_path.relative_to(ROOT)}",
             f"layer self times {attributed:.3f}s + unattributed "
             f"{layers['job.glue_s']:.3f}s = traced job time {traced_s:.3f}s; "
             f"untraced job time {plain_s:.3f}s",
             f"per-layer figures are means per job over {attempted} jobs"]
    return metrics, LAYER_UNITS, attempted, failed, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "coxtraces" / "__init__.py").is_file():
        print(f"no coxtraces package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # whole passes may overrun --seconds by half a pass, set-up by a few seconds
    deadline = time.monotonic() + 2 * args.seconds + 60
    scratch = OUT / f"scratch-{os.getpid()}"
    measure = per_layer if args.trace else end_to_end
    try:
        metrics, units, attempted, failed, notes = measure(
            args.workload, args.seed, args.seconds, deadline, scratch)
    except WorkerError as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(f"{args.workload} seed {args.seed}, trace {args.trace}", file=sys.stderr)
    for note in notes:
        print(f"  {note}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"  {name:26s} {value:.6g} {units[name]}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
