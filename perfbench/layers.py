"""Traced child process: wraps starlab's layer functions, runs one invocation
and writes its spans and per-layer totals when it ends.

    python3 perfbench/layers.py OUT cli ring enum-stars --gens 4,5,7 --q 3 --jobs 1
    python3 perfbench/layers.py OUT axioms --gens 4,5,6,7 --residue-gens 4,5,7 --q 3 --seed 1

The invocation's stdout and exit code are those of the untraced program.
OUT.json receives the totals and OUT.spans the raw spans. The package is
driven only from outside: every wrapper is installed at each place its name
is looked up (the defining module, each module that imported it by name, and
the CLI's renderer table), and nothing under src/ is edited.

A span records name, parent span, start and end (time.perf_counter, the
same clock in every process). Functions called too often for a span each
are counted only. Tracing adds work to every wrapped call, so per-layer
times come from this separate run and never from the timed runs.
"""

import array
import functools
import json
import sys
import time

# (module, attribute path) -> kind; "span" records a span per call, "count"
# only counts calls.
TRACED = {
    ("fq_linear", "rref"): "span",
    ("fq_linear", "Subspace.reduce"): "span",
    ("fq_linear", "Subspace.intersect"): "span",
    ("fq_linear", "unit_image_map"): "span",
    ("fq_linear", "partition_subspaces"): "span",
    ("fq_linear", "series_mul"): "count",
    ("ring_model", "enumerate_ideals"): "span",
    ("ring_model", "unit_orbits"): "span",
    ("ring_model", "normalized_translate_intersection"): "span",
    ("ring_model", "RingIdeal.colon"): "span",
    ("ring_model", "RingIdeal.product"): "span",
    ("star_engine", "ClosureTable.build"): "span",
    ("star_engine", "RingWorkspace.close"): "span",
    ("star_engine", "StarOperation.apply"): "span",
    ("star_engine", "enumerate_stars"): "span",
    ("star_engine", "verify_star_axioms"): "span",
    ("kunz_lab", "residue_star_family"): "span",
    ("kunz_lab", "structure_report"): "span",
    ("kunz_lab", "lower_bound_certificate"): "span",
    ("kunz_lab", "subspace_lab"): "span",
    ("cli", "render_json"): "span",
    ("cli", "main"): "span",
}
# Work counters: table entries, translates seen by the table build and those
# not already inside rep_i, families found by fresh enumerations, ideals
# enumerated and orbits partitioned.
COUNTERS = (
    "star_engine.ClosureTable.entries",
    "star_engine.table.translates",
    "star_engine.table.useful",
    "star_engine.families",
    "ring_model.ideals",
    "ring_model.orbits",
)
MODULES = ("fq_linear", "numsgp", "ring_model", "star_engine", "kunz_lab", "cli")


class Tracer:
    """In-memory span store plus named counters."""

    def __init__(self):
        self.names = []
        self.name_id = {}
        self.span_name = array.array("i")
        self.span_parent = array.array("i")
        self.span_start = array.array("d")
        self.span_end = array.array("d")
        self.stack = [-1]
        self.calls = {}
        self.counters = {}

    def _id(self, name):
        if name not in self.name_id:
            self.name_id[name] = len(self.names)
            self.names.append(name)
        return self.name_id[name]

    def add(self, counter, amount):
        self.counters[counter] = self.counters.get(counter, 0) + amount

    def span(self, name, fn):
        nid = self._id(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return wrapper

    def count(self, name, fn):
        calls = self.calls
        calls[name] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def totals(self):
        """name -> {calls, s, self_s}. `s` is inclusive time, counted once
        per outermost span of the name, so recursion is not double counted;
        `self_s` subtracts the time covered by child spans."""
        n = len(self.span_name)
        names, parents = self.span_name, self.span_parent
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += dur[i]
        out = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in self.names}
        for i in range(n):
            entry = out[self.names[names[i]]]
            entry["calls"] += 1
            entry["self_s"] += dur[i] - child[i]
            p = parents[i]
            while p >= 0 and names[p] != names[i]:
                p = parents[p]
            if p < 0:
                entry["s"] += dur[i]
        for name, calls in self.calls.items():
            out[name] = {"calls": calls}
        return out

    def write(self, out_base):
        with open(out_base + ".spans", "wb") as fh:
            fh.write(json.dumps(self.names).encode() + b"\n")
            for column in (self.span_name, self.span_parent, self.span_start, self.span_end):
                column.tofile(fh)
        summary = {
            "spans": len(self.span_name),
            "layers": self.totals(),
            "counters": self.counters,
        }
        with open(out_base + ".json", "w", encoding="utf-8") as fh:
            json.dump(summary, fh, sort_keys=True)


def _hooks(tracer, fq):
    """Counters that need a look at arguments or results, keyed by the
    traced name. Each runs outside the layer's own span. The containment
    probe uses the unwrapped Subspace.reduce, so it adds no spans."""
    reduce = fq.Subspace.reduce

    def translates(fn):
        def wrapper(ideal, shifted, *args):
            tracer.add("star_engine.table.translates", 1)
            if any(any(reduce(ideal.sub, row)) for row in shifted.rows):
                tracer.add("star_engine.table.useful", 1)
            return fn(ideal, shifted, *args)

        return wrapper

    def tally(counter, measure, fresh=lambda *args: True):
        def hook(fn):
            def wrapper(*args, **kwargs):
                was_fresh = fresh(*args)
                result = fn(*args, **kwargs)
                if was_fresh:
                    tracer.add(counter, measure(result))
                return result

            return wrapper

        return hook

    def stars_not_cached(model, *args):
        ws = model._cache.get("workspace")
        return ws is None or ws._stars is None

    for counter in COUNTERS:
        tracer.counters[counter] = 0
    return {
        "ring_model.normalized_translate_intersection": translates,
        "ring_model.enumerate_ideals": tally("ring_model.ideals", len),
        "ring_model.unit_orbits": tally("ring_model.orbits", lambda part: part.orbit_count),
        "star_engine.ClosureTable.build": tally(
            "star_engine.ClosureTable.entries", lambda table: table.entry_count
        ),
        "star_engine.enumerate_stars": tally("star_engine.families", len, stars_not_cached),
    }


def install(tracer):
    """Wraps every TRACED name at each place it is looked up."""
    import importlib

    mods = {m: importlib.import_module("starlab." + m) for m in MODULES}
    renderers = mods["cli"].RENDERERS
    hooks = _hooks(tracer, mods["fq_linear"])

    for (module, path), kind in TRACED.items():
        name = f"{module}.{path}"
        owner, _, attr = path.rpartition(".")
        owner = getattr(mods[module], owner) if owner else mods[module]
        raw = vars(owner)[attr]
        fn = raw.__func__ if isinstance(raw, classmethod) else raw
        wrapped = getattr(tracer, kind)(name, fn)
        if name in hooks:
            wrapped = functools.wraps(fn)(hooks[name](wrapped))
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(wrapped))
        elif isinstance(owner, type):
            setattr(owner, attr, wrapped)
        else:
            for mod in mods.values():
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapped)
            for key, value in list(renderers.items()):
                if value is fn:
                    renderers[key] = wrapped


def main(argv):
    out_base, kind, rest = argv[0], argv[1], argv[2:]
    tracer = Tracer()
    install(tracer)
    try:
        if kind == "cli":
            import starlab.cli

            code = starlab.cli.main(rest)
        elif kind == "axioms":
            import library_workload

            code = library_workload.main(rest)
        else:
            raise SystemExit(f"unknown invocation kind {kind!r}")
        sys.stdout.flush()
    finally:
        tracer.write(out_base)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
