"""Traced launcher: one `echonet` CLI invocation with a span per layer call.

    python3 perfbench/launcher.py SPANS_JSON SUBCOMMAND [ARGS...]

The launcher wraps the public functions listed in LAYERS by rebinding every
echonet module name that refers to them, so calls made through the names the
CLI and the library modules imported are timed. It then runs
``echonet.cli.main(argv)`` and writes the spans to SPANS_JSON. Nothing in the
program is edited: a module that imported a function before the rebinding
keeps no stale reference, because every echonet module is rebound.

A span is ``[name, parent, start, end, counts]``: ``parent`` is the index of
the enclosing span (-1 for the root span of ``cli.main``) and ``counts`` holds
deterministic work counts read from the call's arguments and result.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from time import perf_counter


def _partition_counts(args, part) -> dict:
    g = args[0]
    return {"nodes": g.n_nodes, "edges": g.n_edges, "communities": part.n_communities}


def _labelprop_counts(args, kwargs, part) -> dict:
    counts = _partition_counts(args, part)
    counts["not_converged"] = int("not_converged" in part.flags)
    return counts


def _project_counts(args, kwargs, g) -> dict:
    n, e = g.n_nodes, g.n_edges
    return {"edges": e, "density": 2.0 * e / (n * (n - 1)) if n > 1 else 0.0}


# (module, attribute, span name, counts(args, kwargs, result) or None)
LAYERS = [
    ("ingest", "parse_records", "ingest.parse_records",
     lambda a, k, d: {"records": len(d), "skipped": d.skipped_lines,
                      "bytes": os.fstat(a[0].fileno()).st_size}),
    ("ingest", "serialize_records", "ingest.serialize_records",
     lambda a, k, text: {"records": len(a[0]), "bytes": len(text)}),
    ("ingest", "filter_dataset", "ingest.filter_dataset",
     lambda a, k, d: {"records_dropped": len(a[0]) - len(d)}),
    ("synth", "generate", "synth.generate",
     lambda a, k, r: {"records": len(r[0])}),
    ("graphs", "build_bipartite", "graphs.build_bipartite",
     lambda a, k, b: {"edges": b.n_edges}),
    ("graphs", "project", "graphs.project", _project_counts),
    ("graphs", "BipartiteGraph", "graphs.BipartiteGraph", None),
    ("community", "fastgreedy", "community.fastgreedy",
     lambda a, k, r: _partition_counts(a, r[0])),
    ("community", "walktrap", "community.walktrap",
     lambda a, k, r: _partition_counts(a, r[0])),
    ("community", "louvain", "community.multilevel",
     lambda a, k, r: _partition_counts(a, r)),
    ("community", "label_propagation", "community.labelprop", _labelprop_counts),
    ("community", "modularity", "community.modularity", None),
    ("compare", "rand_index", "compare.rand_index", None),
    ("compare", "random_partition", "compare.random_partition", None),
    ("metrics", "user_polarization", "metrics.user_polarization",
     lambda a, k, r: {"profiles": len(r)}),
    ("metrics", "polarization_histogram", "metrics.polarization_histogram", None),
    ("metrics", "user_engagement", "metrics.user_engagement",
     lambda a, k, r: {"users": len(r)}),
    ("metrics", "pages_per_window", "metrics.pages_per_window", None),
    ("metrics", "loess_fit", "metrics.loess_fit",
     lambda a, k, r: {"fits": len(r[0])}),
    ("temporal", "activity_series", "temporal.activity_series",
     lambda a, k, r: {"points": len(r)}),
    ("temporal", "cohesion_series", "temporal.cohesion_series",
     lambda a, k, r: {"points": len(r),
                      "degenerate": sum(1 for p in r if p.flags)}),
    ("cli", "run_validation_matrix", "cli.run_validation_matrix", None),
]


class Tracer:
    """In-memory span recorder; spans nest by call order on one thread."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, counts=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self._stack.pop()
                self.spans[sid] = [name, parent, t0, t1, {}]
            if counts is not None:
                self.spans[sid][4] = counts(args, kwargs, result)
            return result

        return traced


def install(tracer: Tracer) -> None:
    """Rebind each LAYERS target, in every echonet module, to a traced wrapper.

    A class is rebound only outside its defining module, so the library's own
    constructions (``build_bipartite`` building a ``BipartiteGraph``) stay
    inside the caller's span and only direct constructions are counted.
    """
    import importlib

    import echonet

    names = ("cli", "community", "compare", "graphs", "ingest", "metrics",
             "synth", "temporal", "timebins")
    modules = [echonet] + [importlib.import_module(f"echonet.{n}") for n in names]
    for mod_name, attr, span, counts in LAYERS:
        home = importlib.import_module(f"echonet.{mod_name}")
        original = getattr(home, attr)
        wrapped = tracer.wrap(span, original, counts)
        for mod in modules:
            if getattr(mod, attr, None) is original:
                if isinstance(original, type) and mod in (home, echonet):
                    continue
                setattr(mod, attr, wrapped)


def main(argv: list[str]) -> int:
    spans_path, cli_argv = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    from echonet import cli

    run = tracer.wrap("cli.main", cli.main)
    rc = run(cli_argv)
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"spans": tracer.spans}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
