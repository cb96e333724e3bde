"""Line-oriented text formats for graphs, class models, terminal/demand
extensions, CDS families and partitions.

Files use 1-based ids (DIMACS habit) and allow `#` comments anywhere; all
ids are 0-based in memory and the conversion lives entirely in this
module.  Writers emit a canonical form (sorted edges, fixed record order)
so parse/write round-trips are byte-stable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .engine import CdsInput, GLInstance, TraceEvent
from .graphs import DominatingTree, Graph, GraphError, VertexSet, spanning_tree
from .models import BiconvexModel, ConvexModel, IntervalModel

Model = Graph | IntervalModel | ConvexModel | BiconvexModel


class FormatError(ValueError):
    def __init__(self, code: str, message: str, line: int | None = None):
        if code == "syntax" and line is not None:
            text = f"syntax error at line {line}: {message}"
        elif code == "invariant":
            text = f"invariant violated: {message}"
            if line is not None:
                text += f" (line {line})"
        else:
            text = message
        super().__init__(text)
        self.code = code
        self.line = line


@dataclass(frozen=True)
class InstanceBundle:
    """A parsed model plus its derived graph and optional GL extension."""

    model: Model
    graph: Graph
    terminals: tuple[int, ...] | None = None
    demands: tuple[int, ...] | None = None

    def gl_instance(self) -> GLInstance:
        if self.terminals is None or self.demands is None:
            raise FormatError("invariant", "file carries no terminal/demand extension")
        return GLInstance(
            graph=self.graph, terminals=self.terminals, demands=self.demands
        )


def _tokenize(text: str) -> list[tuple[int, list[str]]]:
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            rows.append((lineno, body.split()))
    return rows


def _ints(tokens: Sequence[str], lineno: int) -> list[int]:
    try:
        return [int(t) for t in tokens]
    except ValueError as exc:
        raise FormatError("syntax", f"expected integers, got {tokens}", lineno) from exc


def _parse_gl_extension(
    rows: list[tuple[int, list[str]]], pos: int, n: int
) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    lineno, toks = rows[pos]
    if toks[0] != "k" or len(toks) != 2:
        raise FormatError("syntax", f"expected 'k <k>', got {' '.join(toks)}", lineno)
    (k,) = _ints(toks[1:], lineno)
    if k < 1:
        raise FormatError("invariant", f"k must be positive, got {k}", lineno)
    pos += 1
    terminals: list[int] = []
    demands: list[int] = []
    for _ in range(k):
        if pos >= len(rows):
            raise FormatError("syntax", "missing 't <terminal> <demand>' line", lineno)
        lineno, toks = rows[pos]
        if toks[0] != "t" or len(toks) != 3:
            raise FormatError("syntax", f"expected 't <terminal> <demand>', got {' '.join(toks)}", lineno)
        c, d = _ints(toks[1:], lineno)
        if not 1 <= c <= n:
            raise FormatError("invariant", f"terminal {c} out of range 1..{n}", lineno)
        if d < 1:
            raise FormatError("invariant", f"demand {d} must be positive", lineno)
        terminals.append(c - 1)
        demands.append(d)
        pos += 1
    if len(set(terminals)) != k:
        raise FormatError("invariant", "terminals are not distinct")
    if sum(demands) != n:
        raise FormatError("invariant", f"demands sum to {sum(demands)}, vertex count is {n}")
    return tuple(terminals), tuple(demands), pos


def parse_bundle(text: str) -> InstanceBundle:
    """Parse a graph / interval / convex / biconvex file with optional
    terminal-demand extension."""
    rows = _tokenize(text)
    if not rows:
        raise FormatError("syntax", "empty file", 1)
    lineno, toks = rows[0]
    if toks[0] != "p" or len(toks) < 2:
        raise FormatError("syntax", f"expected 'p <kind> ...' header, got {' '.join(toks)}", lineno)
    kind = toks[1]
    if kind == "gl":
        model, g, pos = _parse_graph(rows)
    elif kind == "interval":
        model, g, pos = _parse_interval(rows)
    elif kind in ("convex", "biconvex"):
        model, g, pos = _parse_convex(rows, biconvex=(kind == "biconvex"))
    else:
        raise FormatError("syntax", f"unknown model kind '{kind}'", lineno)
    terminals = demands = None
    if pos < len(rows):
        terminals, demands, pos = _parse_gl_extension(rows, pos, g.n)
    if pos != len(rows):
        raise FormatError("syntax", "unexpected trailing content", rows[pos][0])
    return InstanceBundle(model=model, graph=g, terminals=terminals, demands=demands)


def _parse_graph(rows: list[tuple[int, list[str]]]) -> tuple[Model, Graph, int]:
    lineno, toks = rows[0]
    if len(toks) != 4:
        raise FormatError("syntax", "expected 'p gl <n> <m>'", lineno)
    n, m = _ints(toks[2:], lineno)
    edges: list[tuple[int, int]] = []
    pos = 1
    for _ in range(m):
        if pos >= len(rows):
            raise FormatError("syntax", f"expected {m} edge lines", lineno)
        lineno, toks = rows[pos]
        if toks[0] != "e" or len(toks) != 3:
            raise FormatError("syntax", f"expected 'e <u> <v>', got {' '.join(toks)}", lineno)
        u, v = _ints(toks[1:], lineno)
        if not (1 <= u <= n and 1 <= v <= n):
            raise FormatError("invariant", f"edge ({u}, {v}) out of range 1..{n}", lineno)
        edges.append((u - 1, v - 1))
        pos += 1
    try:
        g = Graph(n, edges)
    except GraphError as exc:
        raise FormatError("invariant", str(exc)) from exc
    return g, g, pos


def _parse_interval(rows: list[tuple[int, list[str]]]) -> tuple[Model, Graph, int]:
    lineno, toks = rows[0]
    if len(toks) != 3:
        raise FormatError("syntax", "expected 'p interval <n>'", lineno)
    (n,) = _ints(toks[2:], lineno)
    lefts = [None] * n
    rights = [None] * n
    pos = 1
    for _ in range(n):
        if pos >= len(rows):
            raise FormatError("syntax", f"expected {n} interval lines", lineno)
        lineno, toks = rows[pos]
        if toks[0] != "i" or len(toks) != 4:
            raise FormatError("syntax", f"expected 'i <id> <left> <right>', got {' '.join(toks)}", lineno)
        vid, a, b = _ints(toks[1:], lineno)
        if not 1 <= vid <= n:
            raise FormatError("invariant", f"interval id {vid} out of range", lineno)
        if lefts[vid - 1] is not None:
            raise FormatError("invariant", f"interval {vid} defined twice", lineno)
        if a > b:
            raise FormatError("invariant", f"interval {vid} has left > right", lineno)
        lefts[vid - 1] = a
        rights[vid - 1] = b
        pos += 1
    if any(x is None for x in lefts):
        raise FormatError("invariant", "not every interval id is defined")
    model = IntervalModel(lefts=tuple(lefts), rights=tuple(rights))
    return model, model.derive_graph(), pos


def _parse_convex(rows: list[tuple[int, list[str]]], biconvex: bool) -> tuple[Model, Graph, int]:
    lineno, toks = rows[0]
    if len(toks) != 5:
        raise FormatError("syntax", f"expected 'p {'biconvex' if biconvex else 'convex'} <nA> <nB> <m>'", lineno)
    na, nb, m = _ints(toks[2:], lineno)
    nbrs: list[set[int]] = [set() for _ in range(nb)]
    pos = 1
    for _ in range(m):
        if pos >= len(rows):
            raise FormatError("syntax", f"expected {m} edge lines", lineno)
        lineno, toks = rows[pos]
        if toks[0] != "e" or len(toks) != 3:
            raise FormatError("syntax", f"expected 'e <a> <b>', got {' '.join(toks)}", lineno)
        a, b = _ints(toks[1:], lineno)
        if not (1 <= a <= na and 1 <= b <= nb):
            raise FormatError("invariant", f"edge ({a}, {b}) out of side ranges", lineno)
        if (a - 1) in nbrs[b - 1]:
            raise FormatError("invariant", f"duplicate edge ({a}, {b})", lineno)
        nbrs[b - 1].add(a - 1)
        pos += 1
    windows = []
    for j, s in enumerate(nbrs):
        if not s:
            raise FormatError("invariant", f"B-vertex {j + 1} has no neighbors")
        lo, hi = min(s), max(s)
        if len(s) != hi - lo + 1:
            raise FormatError("invariant", f"B-vertex {j + 1} has a non-contiguous neighborhood")
        windows.append((lo, hi))
    try:
        cls = BiconvexModel if biconvex else ConvexModel
        model = cls(na=na, nb=nb, windows=tuple(windows))
    except GraphError as exc:
        raise FormatError("invariant", str(exc)) from exc
    return model, model.derive_graph(), pos


def parse_vertex_sets(text: str, prefix: str, n: int) -> tuple[VertexSet, ...]:
    """Shared reader for `c`/`v` style indexed vertex-set files."""
    rows = _tokenize(text)
    if not rows:
        raise FormatError("syntax", "empty file", 1)
    pos = 0
    k = None
    if prefix == "s":
        lineno, toks = rows[0]
        if toks[0] != "c" or len(toks) != 2:
            raise FormatError("syntax", f"expected 'c <k>', got {' '.join(toks)}", lineno)
        (k,) = _ints(toks[1:], lineno)
        pos = 1
    sets: list[VertexSet] = []
    expect = 1
    for lineno, toks in rows[pos:]:
        if toks[0] != prefix:
            raise FormatError("syntax", f"expected '{prefix} <i> <v...>', got {' '.join(toks)}", lineno)
        vals = _ints(toks[1:], lineno)
        if not vals or vals[0] != expect:
            raise FormatError("syntax", f"expected set index {expect}", lineno)
        vs = vals[1:]
        for v in vs:
            if not 1 <= v <= n:
                raise FormatError("invariant", f"vertex {v} out of range 1..{n}", lineno)
        if len(set(vs)) != len(vs):
            raise FormatError("invariant", f"set {expect} repeats a vertex", lineno)
        sets.append(frozenset(v - 1 for v in vs))
        expect += 1
    if k is not None and len(sets) != k:
        raise FormatError("invariant", f"declared {k} sets, found {len(sets)}")
    if not sets:
        raise FormatError("syntax", "no sets found", 1)
    return tuple(sets)


def parse_cds_sets(text: str, n: int) -> tuple[VertexSet, ...]:
    return parse_vertex_sets(text, "s", n)


def parse_partition(text: str, n: int) -> tuple[VertexSet, ...]:
    return parse_vertex_sets(text, "v", n)


def build_cds_input(g: Graph, sets: Sequence[VertexSet]) -> CdsInput:
    """Turn vertex sets into dominating trees via deterministic spanning trees."""
    trees = []
    for i, s in enumerate(sets):
        try:
            trees.append(DominatingTree(vertices=frozenset(s), edges=spanning_tree(g, s)))
            trees[-1].validate(g)
        except GraphError as exc:
            raise FormatError("invariant", f"set {i + 1}: {exc}") from exc
    return tuple(trees)


# -- writers -----------------------------------------------------------------


def _extension_lines(terminals, demands) -> list[str]:
    if terminals is None:
        return []
    out = [f"k {len(terminals)}"]
    out += [f"t {c + 1} {d}" for c, d in zip(terminals, demands)]
    return out


def write_bundle(bundle: InstanceBundle, comments: Iterable[str] = ()) -> str:
    lines = [f"# {c}" for c in comments]
    model = bundle.model
    if isinstance(model, Graph):
        lines.append(f"p gl {model.n} {model.m}")
        lines += [f"e {u + 1} {v + 1}" for u, v in model.edges()]
    elif isinstance(model, IntervalModel):
        lines.append(f"p interval {model.n}")
        lines += [
            f"i {v + 1} {model.lefts[v]} {model.rights[v]}" for v in range(model.n)
        ]
    else:
        kind = "biconvex" if isinstance(model, BiconvexModel) else "convex"
        m = sum(hi - lo + 1 for lo, hi in model.windows)
        lines.append(f"p {kind} {model.na} {model.nb} {m}")
        for j, (lo, hi) in enumerate(model.windows):
            lines += [f"e {i + 1} {j + 1}" for i in range(lo, hi + 1)]
    lines += _extension_lines(bundle.terminals, bundle.demands)
    return "\n".join(lines) + "\n"


def write_sets(sets: Sequence[Iterable[int]], prefix: str, header: str | None) -> str:
    lines = [] if header is None else [header]
    for i, s in enumerate(sets, start=1):
        body = " ".join(str(v + 1) for v in sorted(s))
        lines.append(f"{prefix} {i} {body}".rstrip())
    return "\n".join(lines) + "\n"


def write_cds(sets: Sequence[Iterable[int]]) -> str:
    return write_sets(sets, "s", f"c {len(sets)}")


def write_partition(blocks: Sequence[Iterable[int]]) -> str:
    return write_sets(blocks, "v", None)


def write_trace(events: Sequence[TraceEvent]) -> str:
    lines = []
    for ev in events:
        if ev[0] == "place":
            _, v, label = ev
            lines.append(f"PLACE {v + 1} {label + 1}")
        elif ev[0] == "steal":
            _, v, frm, to = ev
            lines.append(f"STEAL {v + 1} {frm + 1} {to + 1}")
        elif ev[0] == "emit":
            _, label, tree = ev
            lines.append(f"EMIT {label + 1} {'-' if tree < 0 else tree + 1}")
    return "\n".join(lines) + ("\n" if lines else "")
