"""Spans recorded from outside the library.

The tracer replaces public functions and methods at the names their
callers look up (a module attribute, or a class attribute for methods
and properties) with wrappers that time each call.  Spans stay in
memory as flat records with a parent id and the id of the job that
caused them, and are written out once at the end of a run.
"""

from __future__ import annotations

import json
import os
import time

# span name -> per-layer metric that receives its time
LAYER_TIMES = {
    "roots.build": "roots.build_s",
    "roots.simple": "roots.simple_s",
    "partitions.closed": "partitions.closed_s",
    "partitions.lemma": "partitions.lemma_s",
    "group.bfs": "group.bfs_s",
    "group.save": "group.save_s",
    "group.load": "group.load_s",
    "group.span": "group.span_s",
    "classes.walk": "classes.walk_s",
    "linalg.charpoly": "linalg.charpoly_s",
    "linalg.det": "linalg.det_s",
}

# counter recorded on a span -> per-layer metric that sums it
COUNTERS = {"roots": "roots.roots", "elements": "group.elements",
            "bytes": "group.cache_bytes", "classes": "classes.classes"}


class Tracer:
    def __init__(self):
        self.spans = []        # [id, parent, job, name, start, end, counters]
        self.job = None
        self._open = []
        self._patched = []

    def wrap(self, name, fn, measure=None):
        """A callable that runs fn inside a span called name."""
        spans, open_ids, clock = self.spans, self._open, time.perf_counter

        def traced(*args, **kwargs):
            record = [len(spans), open_ids[-1] if open_ids else None,
                      self.job, name, 0.0, 0.0, None]
            spans.append(record)
            open_ids.append(record[0])
            record[4] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[5] = clock()
                open_ids.pop()
            if measure is not None:
                record[6] = measure(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr, name, measure=None):
        """Replace owner.attr (function, method or property) by a traced one."""
        original = owner.__dict__[attr]
        if isinstance(original, property):
            replacement = property(self.wrap(name, original.fget, measure))
        else:
            replacement = self.wrap(name, original, measure)
        setattr(owner, attr, replacement)
        self._patched.append((owner, attr, original))

    def restore(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def dump(self, path):
        keys = ("id", "parent", "job", "name", "start", "end", "counters")
        with open(path, "w") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh)


def install(tracer: Tracer, lib) -> None:
    """Trace the layer boundaries of the coxtraces package `lib`."""
    roots, group, classes = lib.roots, lib.group, lib.classes
    partitions, linalg = lib.partitions, lib.linalg
    tracer.patch(roots, "build_system", "roots.build",
                 lambda args, r: {"roots": len(r.roots)})
    tracer.patch(roots.RootSystem, "simple_root_indices", "roots.simple")
    for module in (group, classes):
        tracer.patch(module, "generate_group", "group.bfs",
                     lambda args, g: {"elements": g.order})
    tracer.patch(group, "save_group", "group.save",
                 lambda args, r: {"bytes": os.path.getsize(args[1])})
    tracer.patch(group, "load_group", "group.load")
    tracer.patch(group.Group, "span_matrix_of", "group.span")
    tracer.patch(classes, "conjugacy_classes", "classes.walk",
                 lambda args, r: {"classes": len(r)})
    for module in (classes, partitions):
        tracer.patch(module, "closed_form_count", "partitions.closed")
    tracer.patch(partitions, "lemma_identity_check", "partitions.lemma")
    tracer.patch(linalg.Matrix, "charpoly", "linalg.charpoly")
    tracer.patch(linalg.Matrix, "det", "linalg.det")


def layer_totals(spans) -> dict:
    """Summed per-layer times and counts over a list of span records.

    A span's self time is its duration minus its children's durations.
    linalg.charpoly keeps the determinants nested in it, so linalg.det
    counts only the top-level ones; with that rule every span's time is
    attributed to exactly one layer, and the "job" spans keep the rest.
    """
    names = {s[0]: s[3] for s in spans}
    child_time = {}
    for s in spans:
        if s[1] is not None:
            child_time[s[1]] = child_time.get(s[1], 0.0) + (s[5] - s[4])
    totals = {metric: 0.0 for metric in LAYER_TIMES.values()}
    totals.update({"job.glue_s": 0.0, "roots.roots": 0, "group.elements": 0,
                   "group.cache_bytes": 0, "group.span_calls": 0,
                   "classes.classes": 0, "partitions.closed_calls": 0,
                   "linalg.charpoly_calls": 0, "linalg.det_calls": 0})
    for sid, parent, _job, name, start, end, counters in spans:
        duration = end - start
        own = duration - child_time.get(sid, 0.0)
        if name == "job":
            totals["job.glue_s"] += own
        elif name == "linalg.charpoly":
            totals["linalg.charpoly_s"] += duration
            totals["linalg.charpoly_calls"] += 1
        elif name == "linalg.det":
            totals["linalg.det_calls"] += 1
            if names.get(parent) != "linalg.charpoly":
                totals["linalg.det_s"] += duration
        else:
            totals[LAYER_TIMES[name]] += own
        if name == "group.span":
            totals["group.span_calls"] += 1
        elif name == "partitions.closed":
            totals["partitions.closed_calls"] += 1
        for key, value in (counters or {}).items():
            totals[COUNTERS[key]] += value
    return totals
