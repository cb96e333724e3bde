"""Reference parser for the differential tests in test_formats.py.

This is the line-table parser `cdspart.formats` used before it streamed
its input: every line is tokenized into a table first, section parsers
then index into it, and a `gl` graph is checked edge by edge in input
order.  It shares only `FormatError`, `GraphError` and the model classes
with the package, so a test can hold the streaming parser to the same
outcome, error messages and line numbers included.
"""

from __future__ import annotations

from cdspart.formats import FormatError
from cdspart.graphs import GraphError
from cdspart.models import BiconvexModel, ConvexModel, IntervalModel


def _tokenize(text):
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            rows.append((lineno, body.split()))
    return rows


def _ints(tokens, lineno):
    try:
        return [int(t) for t in tokens]
    except ValueError as exc:
        raise FormatError("syntax", f"expected integers, got {tokens}", lineno) from exc


def _graph_sets(n, edges):
    """Adjacency sets of edges given as (u, v, line) with the file's 1-based
    ids, checking each edge in input order: the first self-loop or
    repeated edge is named by its ids and line."""
    adj = [set() for _ in range(n)]
    for u, v, lineno in edges:
        if u == v:
            raise FormatError("invariant", f"self-loop at vertex {u}", lineno)
        if v - 1 in adj[u - 1]:
            raise FormatError("invariant", f"duplicate edge ({u}, {v})", lineno)
        adj[u - 1].add(v - 1)
        adj[v - 1].add(u - 1)
    return tuple(frozenset(s) for s in adj)


def _parse_gl_extension(rows, pos, n):
    lineno, toks = rows[pos]
    if toks[0] != "k" or len(toks) != 2:
        raise FormatError("syntax", f"expected 'k <k>', got {' '.join(toks)}", lineno)
    (k,) = _ints(toks[1:], lineno)
    if k < 1:
        raise FormatError("invariant", f"k must be positive, got {k}", lineno)
    pos += 1
    terminals = []
    demands = []
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


def parse_bundle(text):
    """(model or None for a `gl` file, adjacency sets, terminals, demands)."""
    rows = _tokenize(text)
    if not rows:
        raise FormatError("syntax", "empty file", 1)
    lineno, toks = rows[0]
    if toks[0] != "p" or len(toks) < 2:
        raise FormatError("syntax", f"expected 'p <kind> ...' header, got {' '.join(toks)}", lineno)
    kind = toks[1]
    if kind == "gl":
        model, sets, pos = _parse_graph(rows)
    elif kind == "interval":
        model, sets, pos = _parse_interval(rows)
    elif kind in ("convex", "biconvex"):
        model, sets, pos = _parse_convex(rows, biconvex=(kind == "biconvex"))
    else:
        raise FormatError("syntax", f"unknown model kind '{kind}'", lineno)
    terminals = demands = None
    if pos < len(rows):
        terminals, demands, pos = _parse_gl_extension(rows, pos, len(sets))
    if pos != len(rows):
        raise FormatError("syntax", "unexpected trailing content", rows[pos][0])
    return model, sets, terminals, demands


def _derived_sets(model):
    g = model.derive_graph()
    return g.adj


def _parse_graph(rows):
    lineno, toks = rows[0]
    if len(toks) != 4:
        raise FormatError("syntax", "expected 'p gl <n> <m>'", lineno)
    n, m = _ints(toks[2:], lineno)
    if n < 0:
        raise FormatError("invariant", f"negative vertex count {n}", lineno)
    if m < 0:
        raise FormatError("invariant", f"negative edge count {m}", lineno)
    edges = []
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
        edges.append((u, v, lineno))
        pos += 1
    return None, _graph_sets(n, edges), pos


def _parse_interval(rows):
    lineno, toks = rows[0]
    if len(toks) != 3:
        raise FormatError("syntax", "expected 'p interval <n>'", lineno)
    (n,) = _ints(toks[2:], lineno)
    if n < 0:
        raise FormatError("invariant", f"negative interval count {n}", lineno)
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
    return model, _derived_sets(model), pos


def _parse_convex(rows, biconvex):
    lineno, toks = rows[0]
    if len(toks) != 5:
        raise FormatError("syntax", f"expected 'p {'biconvex' if biconvex else 'convex'} <nA> <nB> <m>'", lineno)
    na, nb, m = _ints(toks[2:], lineno)
    if min(na, nb, m) < 0:
        raise FormatError("invariant", f"negative count in '{' '.join(toks)}'", lineno)
    nbrs = [set() for _ in range(nb)]
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
    return model, _derived_sets(model), pos


def parse_vertex_sets(text, prefix, n):
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
    sets = []
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
