"""One benchmark worker: a fresh, single-threaded process per measurement.

Imports the library from the checkout's src/, generates the workload's
passes from the seed, runs one job at a time (a closed loop with one
client) and checks every answer against perfbench/reference.py.

    worker.py --workload NAME --seed N --spawned-at T --probe
    worker.py --workload NAME --seed N --spawned-at T --serve SCRATCH
              [--trace-out FILE]

Both print the set-up time first: the time from T (the parent's
time.monotonic() just before it started this process) to the moment the
first job can start.  --probe then exits.  --serve runs the next job of
the pass sequence for each "job" line on stdin, keeping cache files in
the directory SCRATCH, and answers with one JSON line; "end" makes it
print its summary (peak RSS, and the per-layer totals when traced) and
exit.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import sys
import time
from pathlib import Path

import tracer as tracing
import workloads
from reference import Reference, ordering_theorem_holds

ROOT = Path(__file__).resolve().parent.parent


def _run_brute_classes(lib, job, scratch):
    system = lib.roots.build_system(lib.roots.parse_system_spec(job["spec"]))
    system.simple_root_indices
    group = lib.group.generate_group(system)
    classes = lib.classes.conjugacy_classes(group)
    return {"traces": sum(not c.has_plus_one for c in classes),
            "supertraces": sum(not c.has_minus_one for c in classes),
            "classes": len(classes), "order": sum(c.size for c in classes)}


def _run_brute_group(lib, job, scratch):
    # `cache warm SPEC`, then `count SPEC --strategy brute --cache-dir`
    path = os.path.join(scratch, "group.grp")
    system = lib.roots.system_from_spec(job["spec"])
    lib.group.save_group(lib.group.generate_group(system), path)
    lib.roots.system_from_spec(job["spec"])
    group = lib.group.load_group(path)
    result = lib.classes.count_brute_force(group)
    return {"traces": result.traces, "supertraces": result.supertraces,
            "order": group.order}


def _run_count(lib, job, scratch):
    result = lib.classes.count(job["spec"])
    return {"traces": result.traces, "supertraces": result.supertraces}


def _run_lemma(lib, job, scratch):
    verdict = lib.partitions.lemma_identity_check(job["degree"])
    return {"ok": verdict.ok, "degree": verdict.degree}


def clear_memos():
    """Empty the library's functools caches before a job, so every job
    starts cold as a command-line call does.  The partition tables are
    keyed by the rank, so a long-lived worker would otherwise answer
    repeated ranks and every lemma after the first from its caches."""
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "coxtraces":
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


RUNNERS = {"brute-classes": _run_brute_classes, "brute-group": _run_brute_group,
           "count": _run_count, "lemma": _run_lemma}


def check(reference, job, answer):
    """Problems with one job's answer; an empty list means correct."""
    if job["kind"] == "lemma":
        ok = answer["ok"] and answer["degree"] == job["degree"]
        return [] if ok else [f"lemma check failed: {answer}"]
    spec = job["spec"]
    problems = []
    got = (answer["traces"], answer["supertraces"])
    expected = reference.counts(spec)
    if got != expected:
        problems.append(f"(T, S) = {got}, reference {expected}")
    if not ordering_theorem_holds(*got, reference.minus_identity(spec)):
        problems.append(f"ordering theorem fails for (T, S) = {got}")
    if "order" in answer and answer["order"] != reference.order(spec):
        problems.append(f"order {answer['order']}, reference {reference.order(spec)}")
    if "classes" in answer and answer["classes"] != reference.class_count(spec):
        problems.append(f"{answer['classes']} classes, reference "
                        f"{reference.class_count(spec)}")
    return problems


class Runner:
    """The pass sequence of one worker and the jobs it has run."""

    def __init__(self, lib, passes, scratch, tracer=None):
        self.lib = lib
        self.scratch = scratch
        self.tracer = tracer
        self.reference = Reference()
        self.passes = passes
        self.pending = []
        self.done = []
        if tracer is not None:
            self._traced_job = tracer.wrap("job", self._call)

    def _call(self, job):
        return RUNNERS[job["kind"]](self.lib, job, self.scratch)

    def next_job(self):
        """Run the next job of the sequence; return its record."""
        if not self.pending:
            number = self.done[-1]["pass"] + 1 if self.done else 0
            self.pending = [(number, job) for job in next(self.passes)]
        number, job = self.pending.pop(0)
        clear_memos()
        started = time.perf_counter()
        try:
            if self.tracer is None:
                answer = self._call(job)
            else:
                self.tracer.job = len(self.done)
                answer = self._traced_job(job)
            error = None
        except Exception as exc:  # a refused or crashed job is a failed job
            answer, error = None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - started
        problems = [error] if error else check(self.reference, job, answer)
        record = {"pass": number, "last_in_pass": not self.pending,
                  "label": workloads.label(job), "seconds": seconds,
                  "problems": problems}
        self.done.append(record)
        return record

    def summary(self, trace_out=None):
        out = {"jobs": self.done,
               "passes": len({record["pass"] for record in self.done}),
               "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        if self.tracer is not None:
            self.tracer.restore()
            self.tracer.dump(trace_out)
            out["layers"] = tracing.layer_totals(self.tracer.spans)
        return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--probe", action="store_true")
    mode.add_argument("--serve", metavar="SCRATCH")
    parser.add_argument("--trace-out")
    parser.add_argument("--spawned-at", type=float, required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import coxtraces
    import coxtraces.classes
    import coxtraces.group
    import coxtraces.linalg
    import coxtraces.partitions
    import coxtraces.roots

    passes = workloads.passes(args.workload, args.seed)
    first = next(passes)
    setup_s = time.monotonic() - args.spawned_at
    if args.probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace_out:
        tracer = tracing.Tracer()
        tracing.install(tracer, coxtraces)
    os.makedirs(args.serve, exist_ok=True)
    runner = Runner(coxtraces, itertools.chain([first], passes), args.serve,
                    tracer)
    print(json.dumps({"setup_s": setup_s}), flush=True)
    for line in sys.stdin:
        if line.strip() == "end":
            break
        print(json.dumps(runner.next_job()), flush=True)
    print(json.dumps(runner.summary(args.trace_out)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
