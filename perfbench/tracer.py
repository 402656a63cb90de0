"""Span tracer that measures tannakit's layers from outside.

`Tracer.install()` replaces the named public functions of the tannakit
modules with timing wrappers, also where an importing module re-bound the
name (`quadalg.rank`, `comodrep.kernel`, the names `cli` imported, ...).
`uninstall()` puts the originals back.  Spans are kept in memory as
(name, start, end, parent, job) and written out by `dump()`; each span's
self time is its duration minus the time its direct children cover.
Counts are taken from the arguments and return values of the wrapped calls.
"""

import json
import sys
import time

# (module, attribute) of every wrapped function; a class name means its
# constructor.
TARGETS = [
    ("cli", "load_spec"), ("cli", "render"),
    ("quadalg", "relation_spaces"), ("quadalg", "graded_dims"),
    ("quadalg", "as_regular_check"), ("quadalg", "pairing_matrix"),
    ("exactlin", "rref"), ("exactlin", "kernel"),
    ("exactlin", "intersect_many"), ("exactlin", "kron"),
    ("exactlin", "right_inverse"),
    ("ncpoly", "span_equal"), ("ncpoly", "span_subspace"),
    ("ncpoly", "rewrite_reduce"),
    ("coendc", "compile_coend"), ("coendc", "eliminate_defined_generators"),
    ("coendc", "uend_direct"), ("coendc", "antipode_derive"),
    ("coendc", "verify_antipode"),
    ("comodrep", "StructureContext"), ("comodrep", "comodule_table"),
    ("comodrep", "nabla_delta"), ("comodrep", "simple_dim"),
    ("comodrep", "incoming_image_sum"),
    ("moncat", "leq"), ("moncat", "interval"),
    ("bilform", "hb_presentation"), ("bilform", "quantum_dimension"),
    ("bilform", "comorita_components"),
]
ROOT = "cli.run"


def _count_rref(counts, args, result):
    m = args[0]
    counts["exactlin.rref.cells"] += m.rows * m.cols
    counts["exactlin.rref.rows_in"] += m.rows
    counts["exactlin.rref.rank_out"] += result[2]
    counts["exactlin.rref.max_cols"] = max(counts["exactlin.rref.max_cols"],
                                           m.cols)


def _count_rewrite(counts, args, result):
    counts["ncpoly.rewrite_reduce.passes"] += result.passes
    counts["ncpoly.rewrite_reduce.zero"] += int(result.is_zero)


def _count_compile(counts, args, result):
    counts["coendc.compile_coend.relations"] += len(result.relations)


COUNTERS = {
    "exactlin.rref": _count_rref,
    "ncpoly.rewrite_reduce": _count_rewrite,
    "coendc.compile_coend": _count_compile,
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "job", "child_time")

    def __init__(self, name, start, parent, job):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.job = job
        self.child_time = 0.0

    @property
    def self_time(self):
        return (self.end - self.start) - self.child_time


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.job = None
        self.counts = {}
        self._patches = []
        self.reset_counts()

    def reset_counts(self):
        self.counts = {"exactlin.rref.cells": 0, "exactlin.rref.rows_in": 0,
                       "exactlin.rref.rank_out": 0,
                       "exactlin.rref.max_cols": 0,
                       "ncpoly.rewrite_reduce.passes": 0,
                       "ncpoly.rewrite_reduce.zero": 0,
                       "coendc.compile_coend.relations": 0}

    # -- spans -------------------------------------------------------------

    def begin(self, name):
        parent = self.stack[-1] if self.stack else None
        span = Span(name, time.perf_counter(), parent, self.job)
        self.spans.append(span)
        self.stack.append(len(self.spans) - 1)
        return span

    def end(self, span):
        span.end = time.perf_counter()
        self.stack.pop()
        if span.parent is not None:
            self.spans[span.parent].child_time += span.end - span.start

    def call(self, name, fn, args, kwargs):
        span = self.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            self.end(span)
        counter = COUNTERS.get(name)
        if counter is not None:
            counter(self.counts, args, result)
        return result

    def run_job(self, job_id, fn, *args):
        """Run fn(*args) as the root span of one job."""
        self.job = job_id
        try:
            return self.call(ROOT, fn, args, {})
        finally:
            self.job = None

    # -- patching ----------------------------------------------------------

    def _wrap(self, name, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs)

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        mods = {k[len("tannakit."):]: m for k, m in list(sys.modules.items())
                if k.startswith("tannakit.") and m is not None}
        for modname, attr in TARGETS:
            name = "%s.%s" % (modname, attr)
            orig = getattr(mods[modname], attr)
            if isinstance(orig, type):
                init = orig.__init__
                self._set(orig, "__init__", self._wrap(name, init), init)
                continue
            wrapper = self._wrap(name, orig)
            for mod in mods.values():
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._set(mod, key, wrapper, orig)

    def _set(self, owner, key, new, old):
        setattr(owner, key, new)
        self._patches.append((owner, key, old))

    def uninstall(self):
        while self._patches:
            owner, key, old = self._patches.pop()
            setattr(owner, key, old)

    # -- reporting ---------------------------------------------------------

    def summary(self, spans=None):
        """Self seconds and call counts per span name."""
        out = {}
        for s in self.spans if spans is None else spans:
            agg = out.setdefault(s.name, {"s": 0.0, "calls": 0})
            agg["s"] += s.self_time
            agg["calls"] += 1
        return out

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "job",
                                  "self"],
                       "spans": [[s.name, s.start, s.end, s.parent, s.job,
                                  s.self_time] for s in self.spans]}, fh)
