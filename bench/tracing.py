"""Span tracing around the calls into each `cdspart` layer.

The tracer replaces public functions and methods with wrappers for the
duration of a `with` block and restores them afterwards. A function that
other modules import by value (`from .graphs import dominates`) is
replaced in every `cdspart` module that holds it, so calls through those
copies are seen too. Each call records one span: its name, start, end,
parent span and the instance id set by the caller. Spans stay in memory
in flat arrays; `self_seconds` derives each layer's self time from them
and `write_tsv` writes them out. Hot methods whose cost is the caller's
(placements, tree adjacency builds) are counted without a span.
"""

from __future__ import annotations

import contextlib
import sys
import time
from array import array
from collections import Counter

PACKAGE = "cdspart"

# (module, attribute path, span name); "Class.method" patches the class
# that defines the method, so subclasses inheriting it are covered.
SPANS = [
    ("formats", "parse_bundle", "formats.parse"),
    ("formats", "parse_vertex_sets", "formats.parse"),
    ("formats", "write_bundle", "formats.write"),
    ("formats", "write_sets", "formats.write"),
    ("formats", "build_cds_input", "formats.build_cds_input"),
    ("graphs", "Graph.__init__", "graphs.graph_init"),
    ("graphs", "dominates", "graphs.dominates"),
    ("graphs", "is_connected_subset", "graphs.is_connected_subset"),
    ("graphs", "DominatingTree.validate", "graphs.tree_validate"),
    ("graphs", "spanning_tree", "graphs.spanning_tree"),
    ("graphs", "is_k_connected", "graphs.is_k_connected"),
    ("flows", "vertex_disjoint_paths", "flows.vertex_disjoint_paths"),
    ("flows", "make_induced", "flows.make_induced"),
    ("models", "IntervalModel.derive_graph", "models.derive_graph"),
    ("models", "ConvexModel.derive_graph", "models.derive_graph"),
    ("models", "interval_connectivity", "models.interval_connectivity"),
    ("models", "interval_path_decomposition", "models.interval_path_decomposition"),
    ("models", "IntervalModel.__post_init__", "models.model_init"),
    ("models", "ConvexModel.__post_init__", "models.model_init"),
    ("models", "BiconvexModel.__post_init__", "models.model_init"),
    ("generators", "gen_planted_cds", "generators.gen_planted_cds"),
    ("generators", "gen_gl_extension", "generators.gen_gl_extension"),
    ("generators", "gen_interval", "generators.gen_interval"),
    ("generators", "gen_biconvex", "generators.gen_biconvex"),
    ("generators", "gen_convex", "generators.gen_convex"),
    ("builders", "cds_interval", "builders.cds_interval"),
    ("builders", "cds_biconvex", "builders.cds_biconvex"),
    ("builders", "cds_convex", "builders.cds_convex"),
    ("builders", "validate_family", "builders.validate_family"),
    ("builders", "extend_to_partition", "builders.extend_to_partition"),
    ("engine", "solve", "engine.solve"),
    ("engine", "validate_cds_input", "engine.validate_cds_input"),
    ("engine", "categorize_trees", "engine.categorize_trees"),
    ("engine", "add_trees", "engine.add_trees"),
    ("engine", "labeling", "engine.labeling"),
    ("engine", "add_vertices", "engine.add_vertices"),
    ("engine", "PartitionState.check_invariants", "engine.check_invariants"),
    ("verify", "verify_gl", "verify.verify_gl"),
    ("verify", "verify_cds_partition", "verify.verify_cds_partition"),
]

COUNTS = [
    ("graphs", "DominatingTree.adjacency", "graphs.tree_adjacency_calls"),
    ("engine", "PartitionState.add", "engine.placements"),
    ("engine", "PartitionState.steal", "engine.steals"),
    ("engine", "PartitionState.__init__", "engine.states_built"),
]

# Arguments whose text length is counted as parsed bytes (the files are ASCII).
_PARSERS = ("parse_bundle", "parse_vertex_sets")


class Tracer:
    """Installs wrappers on entry, restores the originals on exit."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("l")
        self.parent = array("l")
        self.inst = array("l")
        self.instance = -1
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around the `with` body (used for the CLI steps)."""
        i = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(i)

    def _open(self, nid: int) -> int:
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.inst.append(self.instance)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def _span_wrapper(self, fn, nid: int, count_bytes: bool):
        open_, close = self._open, self._close
        counts = self.counts
        raised = f"{self.names[nid]}.raised"

        def wrapper(*args, **kwargs):
            if count_bytes:
                counts["formats.bytes_parsed"] += len(args[0])
            i = open_(nid)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                counts[raised] += 1
                raise
            finally:
                close(i)

        return wrapper

    def _count_wrapper(self, fn, key: str):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation -----------------------------------------------------

    def _modules(self):
        return [m for k, m in list(sys.modules.items())
                if m is not None and (k == PACKAGE or k.startswith(PACKAGE + "."))]

    def _install(self, module: str, attr: str, make) -> None:
        mod = sys.modules[f"{PACKAGE}.{module}"]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            self._patch(cls, meth, make(cls.__dict__[meth]))
            return
        original = getattr(mod, attr)
        wrapper = make(original)
        for m in self._modules():
            for key, value in list(vars(m).items()):
                if value is original:
                    self._patch(m, key, wrapper)

    def _patch(self, owner, key: str, value) -> None:
        self._patched.append((owner, key, owner.__dict__[key]))
        setattr(owner, key, value)

    def __enter__(self) -> "Tracer":
        for module, attr, name in SPANS:
            nid = self._id(name)
            count_bytes = attr in _PARSERS
            self._install(module, attr,
                          lambda fn, nid=nid, cb=count_bytes: self._span_wrapper(fn, nid, cb))
        for module, attr, key in COUNTS:
            self._install(module, attr, lambda fn, key=key: self._count_wrapper(fn, key))
        return self

    def __exit__(self, *exc) -> None:
        while self._patched:
            owner, key, original = self._patched.pop()
            setattr(owner, key, original)

    # -- reduction --------------------------------------------------------

    def self_seconds(self) -> tuple[dict[str, float], dict[str, float], Counter]:
        """Per span name: (self seconds, inclusive seconds, call count).

        A span's self time is its duration minus the durations of its
        direct children; calls are sequential in one thread, so children
        never overlap.
        """
        n = len(self.name)
        child = [0.0] * n
        dur = [self.end[i] - self.start[i] for i in range(n)]
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        own: dict[str, float] = {}
        total: dict[str, float] = {}
        calls: Counter[str] = Counter()
        for i in range(n):
            key = self.names[self.name[i]]
            own[key] = own.get(key, 0.0) + dur[i] - child[i]
            total[key] = total.get(key, 0.0) + dur[i]
            calls[key] += 1
        return own, total, calls

    def child_calls(self, parent: str, child: str) -> int:
        """Spans named `child` whose parent span is named `parent`."""
        p, c = self._ids[parent], self._ids[child]
        return sum(1 for i in range(len(self.name))
                   if self.name[i] == c and self.parent[i] >= 0 and self.name[self.parent[i]] == p)

    def returned(self, name: str) -> int:
        """Calls of `name` that returned instead of raising."""
        nid = self._ids[name]
        return sum(1 for x in self.name if x == nid) - self.counts[f"{name}.raised"]

    def write_tsv(self, path) -> None:
        """One line per span: id, name, start, end, parent id, instance id."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tname\tstart\tend\tparent\tinstance\n")
            for i in range(len(self.name)):
                fh.write(f"{i}\t{self.names[self.name[i]]}\t{self.start[i]!r}\t"
                         f"{self.end[i]!r}\t{self.parent[i]}\t{self.inst[i]}\n")

