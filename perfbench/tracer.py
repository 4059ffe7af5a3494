"""Span tracer that wraps the program's public functions from outside.

Nothing in the program is edited. ``install`` replaces every public
function of each layer module, both in the module that defines it and
in every ``nbrattack`` namespace that imported it, with a wrapper that
records a span; ``Graph``'s cache methods are wrapped on the class. A
span is ``[name, start, end, parent, run, items]``: ``parent`` is the
index of the enclosing span (-1 for a root), ``run`` the traced
pass, and ``items`` a work count taken at the boundary (1 when a
cache method found its per-graph slot empty, the result length for
functions listed in ``ITEM_COUNTS``). Spans stay in memory and are
written out when the benchmark ends.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

PACKAGE = "nbrattack"
LAYERS = ("graphs", "embed", "distortion", "dqn", "oracles", "victims",
          "analysis", "sbm", "io")
# Graph methods that fill a per-graph cache slot on their first call.
CACHED_METHODS = {"adjacency": "_adj_csr",
                  "normalized_adjacency": "_norm_adj_csr"}
# Functions whose result length counts work done at that boundary.
ITEM_COUNTS = ("graphs.candidate_edits", "embed.sample_positive_walks",
               "dqn.infer_attack")

NAME, START, END, PARENT, RUN, ITEMS = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.run = -1
        self.present: set[str] = set()  # wrapped names
        self.cache_slots: set[str] = set()  # cache methods whose builds count
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    # -- recording -----------------------------------------------------------

    def _wrap(self, name, fn, items=False, cache_slot=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            built = 0
            if cache_slot is not None:
                built = int(getattr(args[0], cache_slot) is None)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.run,
                   built]
            stack.append(len(spans))
            spans.append(rec)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                rec[START] = start
                stack.pop()
            if items:
                rec[ITEMS] = len(result)
            return result

        return wrapper

    def call(self, name, fn, *args):
        """Run fn(*args) under a span of its own (the stage root spans)."""
        return self._wrap(name, fn)(*args)

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        importlib.import_module(f"{PACKAGE}.cli")  # loads every layer
        layers = {}
        for layer in LAYERS:
            try:
                layers[layer] = importlib.import_module(f"{PACKAGE}.{layer}")
            except ImportError:
                continue  # a removed layer reports absent metrics
        namespaces = [m for n, m in list(sys.modules.items())
                      if m is not None and (n == PACKAGE
                                            or n.startswith(PACKAGE + "."))]
        for layer, mod in layers.items():
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                name = f"{layer}.{attr}"
                wrapper = self._wrap(name, fn, items=name in ITEM_COUNTS)
                self.present.add(name)
                for ns in namespaces:
                    for key, val in list(vars(ns).items()):
                        if val is fn:
                            self._patches.append((ns, key, fn))
                            setattr(ns, key, wrapper)
        graph_cls = getattr(layers.get("graphs"), "Graph", None)
        for meth, slot in CACHED_METHODS.items():
            fn = vars(graph_cls).get(meth) if graph_cls else None
            if fn is None:
                continue
            if slot not in getattr(graph_cls, "__slots__", ()):
                slot = None  # cache moved: report calls, not builds
            name = f"graphs.{meth}"
            self.present.add(name)
            if slot is not None:
                self.cache_slots.add(name)
            self._patches.append((graph_cls, meth, fn))
            setattr(graph_cls, meth, self._wrap(name, fn, cache_slot=slot))

    def uninstall(self) -> None:
        for owner, key, fn in reversed(self._patches):
            setattr(owner, key, fn)
        self._patches.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(["name", "start", "end", "parent", "run",
                                 "items"]) + "\n")
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Calls are single-threaded, so children never overlap and the part of
    a span they cover is the sum of their durations.
    """
    own = [rec[END] - rec[START] for rec in spans]
    for rec in spans:
        if rec[PARENT] >= 0:
            own[rec[PARENT]] -= rec[END] - rec[START]
    return own


def roots(spans) -> list[int]:
    """Index of each span's root span; parents precede their children."""
    out = []
    for i, rec in enumerate(spans):
        out.append(i if rec[PARENT] < 0 else out[rec[PARENT]])
    return out
