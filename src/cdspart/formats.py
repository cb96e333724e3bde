"""Line-oriented text formats for graphs, class models, terminal/demand
extensions, CDS families and partitions.

Files use 1-based ids (DIMACS habit) and allow `#` comments anywhere; all
ids are 0-based in memory and the conversion of records lives entirely in
this module (`verify`'s reports spell ids as the files do).  Writers emit a canonical form (sorted edges, fixed record order)
so parse/write round-trips are byte-stable.
"""

from __future__ import annotations

import re
from bisect import bisect
from collections import defaultdict
from dataclasses import dataclass
from functools import partial
from itertools import chain, count
from typing import Iterable, Iterator, Sequence

from .engine import CdsInput, GLInstance, TraceEvent
from .graphs import DominatingTree, Graph, GraphError, VertexSet
from .models import BiconvexModel, ConvexModel, IntervalModel

Model = Graph | IntervalModel | ConvexModel | BiconvexModel

# Largest vertex count a header may declare, checked before anything is sized
# by it; about 100 times the largest instance the benchmark writes.
MAX_VERTICES = 1 << 20

# Characters of a `gl` edge section split at a time: enough to amortise the
# calls, few enough that the section's tokens never all exist at once.
_WINDOW = 1 << 16


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
    """A parsed model plus its optional GL extension."""

    model: Model
    terminals: tuple[int, ...] | None = None
    demands: tuple[int, ...] | None = None

    @property
    def graph(self) -> Graph:
        """The model's graph, derived on first use."""
        return self.model.graph

    def gl_instance(self) -> GLInstance:
        if self.terminals is None or self.demands is None:
            raise FormatError("invariant", "file carries no terminal/demand extension")
        return GLInstance(
            graph=self.graph, terminals=self.terminals, demands=self.demands
        )


_Row = tuple[int, list[str]]

# The line breaks of `str.splitlines`, "\r\n" first so it counts as one.
_BREAK = re.compile("\r\n|[\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029]")


def _rows(numbered: Iterable[tuple[int, str]]) -> Iterator[_Row]:
    """Numbered lines' tokens with `#` comments cut off; lines without
    tokens are skipped.

    Rows are tokenized lazily, one line at a time, and read `numbered` as
    they go, so a section that advances `numbered` itself skips those lines
    for the rows too.
    """
    for lineno, line in numbered:
        if "#" in line:
            line = line.split("#", 1)[0]
        toks = line.split()
        if toks:
            yield lineno, toks


def _rows_after(text: str, offset: int, lineno: int) -> Iterator[_Row]:
    """The rows of `text` from `offset`, which starts line `lineno + 1`."""
    return _rows(enumerate(text[offset:].splitlines(), lineno + 1))


def _header(text: str) -> tuple[int, list[str], int]:
    """The first row of `text` and the offset just past its line, found a
    line at a time, so the lines after it are never split here."""
    start = 0
    for lineno in count(1):
        brk = _BREAK.search(text, start)
        end = brk.end() if brk else len(text)
        row = next(_rows([(lineno, text[start : brk.start() if brk else end])]), None)
        if row is not None:
            return (*row, end)
        if brk is None:
            raise FormatError("syntax", "empty file", 1)
        start = end


def _not_ints(tokens: Sequence[str], lineno: int) -> FormatError:
    return FormatError("syntax", f"expected integers, got {tokens}", lineno)


def _ints(tokens: Sequence[str], lineno: int) -> list[int]:
    try:
        return [int(t) for t in tokens]
    except ValueError as exc:
        raise _not_ints(tokens, lineno) from exc


def _parse_gl_extension(
    rows: Iterator[_Row], first: _Row, n: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    lineno, toks = first
    if toks[0] != "k" or len(toks) != 2:
        raise FormatError("syntax", f"expected 'k <k>', got {' '.join(toks)}", lineno)
    (k,) = _ints(toks[1:], lineno)
    if k < 1:
        raise FormatError("invariant", f"k must be positive, got {k}", lineno)
    terminals: list[int] = []
    demands: list[int] = []
    for _, (lineno, toks) in zip(range(k), rows):
        if toks[0] != "t" or len(toks) != 3:
            raise FormatError("syntax", f"expected 't <terminal> <demand>', got {' '.join(toks)}", lineno)
        c, d = _ints(toks[1:], lineno)
        if not 1 <= c <= n:
            raise FormatError("invariant", f"terminal {c} out of range 1..{n}", lineno)
        if d < 1:
            raise FormatError("invariant", f"demand {d} must be positive", lineno)
        terminals.append(c - 1)
        demands.append(d)
    if len(terminals) < k:
        raise FormatError("syntax", "missing 't <terminal> <demand>' line", lineno)
    if len(set(terminals)) != k:
        raise FormatError("invariant", "terminals are not distinct")
    if sum(demands) != n:
        raise FormatError("invariant", f"demands sum to {sum(demands)}, vertex count is {n}")
    return tuple(terminals), tuple(demands)


def parse_bundle(text: str) -> InstanceBundle:
    """Parse a graph / interval / convex / biconvex file with optional
    terminal-demand extension."""
    lineno, toks, offset = _header(text)
    if toks[0] != "p" or len(toks) < 2:
        raise FormatError("syntax", f"expected 'p <kind> ...' header, got {' '.join(toks)}", lineno)
    read = _SECTIONS.get(toks[1])
    if read is None:
        raise FormatError("syntax", f"unknown model kind '{toks[1]}'", lineno)
    model, rows = read(text, offset, lineno, toks)
    terminals = demands = None
    row = next(rows, None)
    if row is not None:
        terminals, demands = _parse_gl_extension(rows, row, model.n)
        row = next(rows, None)
    if row is not None:
        raise FormatError("syntax", "unexpected trailing content", row[0])
    return InstanceBundle(model=model, terminals=terminals, demands=demands)


# Each section reader of `_SECTIONS` takes `text`, the `offset` of the line
# after the header, and the header row's number and tokens; it reads its
# records and returns the model and the rows after the section.  After a
# record loop `lineno` is the last line read (the header when none was),
# which is where a short section is reported.


def _parse_graph(text: str, offset: int, lineno: int, toks: list[str]) -> tuple[Graph, Iterator[_Row]]:
    if len(toks) != 4:
        raise FormatError("syntax", "expected 'p gl <n> <m>'", lineno)
    n, m = _ints(toks[2:], lineno)
    if n < 0:
        raise FormatError("invariant", f"negative vertex count {n}", lineno)
    if m < 0:
        raise FormatError("invariant", f"negative edge count {m}", lineno)
    if n > MAX_VERTICES:
        raise FormatError("invariant", f"vertex count {n} exceeds {MAX_VERTICES}", lineno)
    found = _edge_text(text, offset, m, n)
    if found is None:
        rows = _rows_after(text, offset, lineno)
        us, vs = _edge_lines(rows, lineno, m, n)
    else:
        us, vs, end = found
        rows = _rows_after(text, end, lineno + m)
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in zip(us, vs):
        adj[u].append(v)
        adj[v].append(u)
    try:
        return Graph(adj), rows
    except GraphError:
        _name_edge_fault(text, offset, lineno, m)
        raise


def _edge_text(text: str, offset: int, m: int, n: int) -> tuple[list[int], list[int], int] | None:
    """The 0-based endpoints of the m `gl` edge lines at `offset` in
    `text`, and the offset past them, when every line is canonical,
    `e <u> <v>` with single spaces, ids as `str` spells them and a `\n`
    (or the end of the text); None otherwise, and the per-line reader
    reads the section.

    The text is split in place, a window of about `_WINDOW` characters
    that ends at a `\n` at a time, on single spaces and at most 2 × (lines
    left) times: after the window's leading "e", each canonical line gives
    `<u>` and `<v>\ne`, and the last token, `<v>\n` and the rest of the
    window, is cut at its `\n`.  A lookup range-checks an id token and
    makes it 0-based, so any other token misses.  m records name at most
    2m ids, so both tables hold the lowest min(n, 2m), sharing one int
    per id.
    """
    ids = dict(zip(map(str, range(1, min(n, 2 * m) + 1)), range(n)))
    ends = {name + "\ne": v for name, v in ids.items()}
    us: list[int] = []
    vs: list[int] = []
    start, left = offset, m
    while left:
        cut = text.find("\n", start + _WINDOW) + 1 or len(text)
        toks = text[start:cut].split(" ", 2 * left)
        if toks[0] != "e":
            return None
        v, _, rest = toks[-1].partition("\n")
        toks[-1] = v + "\ne"
        try:
            us += map(ids.__getitem__, toks[1::2])
            vs += map(ends.__getitem__, toks[2::2])
        except KeyError:
            return None
        left -= len(toks) // 2
        start = cut - len(rest)
    return us, vs, start


def _edge_lines(rows: Iterator[_Row], lineno: int, m: int, n: int) -> tuple[list[int], list[int]]:
    """The 0-based endpoints of the next m edge records, read line by line:
    comments, blank lines, tabs and ids such as `01` or `+2` parse here,
    and every fault is named with its line."""
    us: list[int] = []
    vs: list[int] = []
    for _, (lineno, toks) in zip(range(m), rows):
        if toks[0] != "e" or len(toks) != 3:
            raise FormatError("syntax", f"expected 'e <u> <v>', got {' '.join(toks)}", lineno)
        try:
            u = int(toks[1])
            v = int(toks[2])
        except ValueError:
            raise _not_ints(toks[1:], lineno) from None
        if not (1 <= u <= n and 1 <= v <= n):
            raise FormatError("invariant", f"edge ({u}, {v}) out of range 1..{n}", lineno)
        us.append(u - 1)
        vs.append(v - 1)
    if len(us) < m:
        raise FormatError("syntax", f"expected {m} edge lines", lineno)
    return us, vs


def _name_edge_fault(text: str, offset: int, lineno: int, m: int) -> None:
    """Raise the error for a `gl` section whose records all parse but whose
    graph `Graph` rejects: the first self-loop or repeated edge in input
    order, named by the file's ids and its line.

    Only then are the m records at `offset`, after the header at `lineno`,
    split into lines and read again, so neither edge reader keeps per-edge
    state for this fault.
    """
    seen: set[tuple[int, int]] = set()
    records = _rows_after(text, offset, lineno)
    for _, (lineno, toks) in zip(range(m), records):
        u = int(toks[1])
        v = int(toks[2])
        if u == v:
            raise FormatError("invariant", f"self-loop at vertex {u}", lineno)
        edge = (u, v) if u < v else (v, u)
        if edge in seen:
            raise FormatError("invariant", f"duplicate edge ({u}, {v})", lineno)
        seen.add(edge)


def _parse_interval(
    text: str, offset: int, lineno: int, toks: list[str]
) -> tuple[IntervalModel, Iterator[_Row]]:
    if len(toks) != 3:
        raise FormatError("syntax", "expected 'p interval <n>'", lineno)
    (n,) = _ints(toks[2:], lineno)
    if n < 0:
        raise FormatError("invariant", f"negative interval count {n}", lineno)
    rows = _rows_after(text, offset, lineno)
    # keyed by id: the header count sizes nothing before the records are read
    spans: dict[int, tuple[int, int]] = {}
    for _, (lineno, toks) in zip(range(n), rows):
        if toks[0] != "i" or len(toks) != 4:
            raise FormatError("syntax", f"expected 'i <id> <left> <right>', got {' '.join(toks)}", lineno)
        try:
            vid = int(toks[1])
            a = int(toks[2])
            b = int(toks[3])
        except ValueError:
            raise _not_ints(toks[1:], lineno) from None
        if not 1 <= vid <= n:
            raise FormatError("invariant", f"interval id {vid} out of range", lineno)
        if vid in spans:
            raise FormatError("invariant", f"interval {vid} defined twice", lineno)
        if a > b:
            raise FormatError("invariant", f"interval {vid} has left > right", lineno)
        spans[vid] = (a, b)
    # Ids are distinct and in 1..n, so an undefined id means a short section.
    if len(spans) < n:
        raise FormatError("syntax", f"expected {n} interval lines", lineno)
    ids = range(1, n + 1)
    lefts = tuple(spans[v][0] for v in ids)
    return IntervalModel(lefts=lefts, rights=tuple(spans[v][1] for v in ids)), rows


def _parse_convex(
    cls: type[ConvexModel], text: str, offset: int, lineno: int, toks: list[str]
) -> tuple[ConvexModel, Iterator[_Row]]:
    if len(toks) != 5:
        raise FormatError("syntax", f"expected 'p {toks[1]} <nA> <nB> <m>'", lineno)
    header = lineno
    na, nb, m = _ints(toks[2:], lineno)
    if min(na, nb, m) < 0:
        raise FormatError("invariant", f"negative count in '{' '.join(toks)}'", lineno)
    found = _window_text(text, offset, na, nb, m) if na + nb <= MAX_VERTICES else None
    if found is None:
        rows = _rows_after(text, offset, lineno)
        windows = _window_lines(rows, lineno, na, nb, m)
    else:
        windows, end = found
        rows = _rows_after(text, end, lineno + m)
    if na + nb > MAX_VERTICES:
        raise FormatError("invariant", f"vertex count {na + nb} exceeds {MAX_VERTICES}", header)
    try:
        return cls(na=na, nb=nb, windows=tuple(windows)), rows
    except GraphError as exc:
        raise FormatError("invariant", str(exc)) from exc


_SECTIONS = {
    "gl": _parse_graph, "interval": _parse_interval,
    "convex": partial(_parse_convex, ConvexModel), "biconvex": partial(_parse_convex, BiconvexModel),
}


def _window_section(windows: Sequence[tuple[int, int]]) -> list[str]:
    """The canonical edge lines of a convex or biconvex section with these
    0-based windows, one string per B-vertex in order: its window's
    `e <a> <b>` lines, A ids rising, joined by newlines in one join."""
    names = list(map(str, range(1, max((hi for _, hi in windows), default=-1) + 2)))
    runs = []
    for b, (lo, hi) in enumerate(windows, 1):
        tail = f" {b}"
        runs.append("e " + (tail + "\ne ").join(names[lo : hi + 1]) + tail)
    return runs


def _window_text(text: str, offset: int, na: int, nb: int, m: int) -> tuple[list[tuple[int, int]], int] | None:
    """The 0-based windows of the m edge lines at `offset` in `text`, and
    the offset past them, when those lines are exactly as `_window_section`
    writes them; None otherwise, and the per-line reader reads them.

    Each B-run's window is proposed from the run's first line and line
    count, found by a few searches of the text per B-vertex, and stands
    only if the text at `offset` starts with the windows written again.
    Ids above m fall back too, so no table outgrows the records.
    """
    top = min(na, m)
    windows = []
    start, line = offset, 0  # the run's first character and its line in the section
    for b in range(1, nb + 1):
        try:
            lo = int(text[start + 2 : text.find("\n", start)].partition(" ")[0])
        except ValueError:
            return None
        if b == nb:  # the last run holds the lines left
            size = m - line
        else:  # the run ends where the first line ending in " <b + 1>" begins
            end = text.rfind("\n", start, text.find(f" {b + 1}\n", start)) + 1
            size = text.count("\n", start, end)
            start = end
        if size < 1 or not 1 <= lo <= top - size + 1:
            return None
        windows.append((lo - 1, lo + size - 2))
        line += size
    rendered = "\n".join([*_window_section(windows), ""])
    if line != m or not text.startswith(rendered, offset):
        return None
    return windows, offset + len(rendered)


def _window_lines(rows: Iterator[_Row], lineno: int, na: int, nb: int, m: int) -> list[tuple[int, int]]:
    """The 0-based windows of the next m edge records, read line by line;
    every fault is named with its line."""
    # keyed by B-vertex: the header count sizes nothing before the records
    # are read, and a B-vertex with no record stops the window loop below
    nbrs: defaultdict[int, set[int]] = defaultdict(set)
    for _, (lineno, toks) in zip(range(m), rows):
        if toks[0] != "e" or len(toks) != 3:
            raise FormatError("syntax", f"expected 'e <a> <b>', got {' '.join(toks)}", lineno)
        try:
            a = int(toks[1])
            b = int(toks[2])
        except ValueError:
            raise _not_ints(toks[1:], lineno) from None
        if not (1 <= a <= na and 1 <= b <= nb):
            raise FormatError("invariant", f"edge ({a}, {b}) out of side ranges", lineno)
        if (a - 1) in nbrs[b - 1]:
            raise FormatError("invariant", f"duplicate edge ({a}, {b})", lineno)
        nbrs[b - 1].add(a - 1)
    # Duplicates are rejected, so the neighbourhoods hold one entry per line.
    if sum(map(len, nbrs.values())) < m:
        raise FormatError("syntax", f"expected {m} edge lines", lineno)
    windows = []
    for j in range(nb):
        s = nbrs.get(j)
        if not s:
            raise FormatError("invariant", f"B-vertex {j + 1} has no neighbors")
        lo, hi = min(s), max(s)
        if len(s) != hi - lo + 1:
            raise FormatError("invariant", f"B-vertex {j + 1} has a non-contiguous neighborhood")
        windows.append((lo, hi))
    return windows


def parse_vertex_sets(text: str, prefix: str, n: int) -> tuple[VertexSet, ...]:
    """Shared reader for `c`/`v` style indexed vertex-set files."""
    rows = _rows(enumerate(text.splitlines(), 1))
    row = next(rows, None)
    if row is None:
        raise FormatError("syntax", "empty file", 1)
    k = None
    if prefix == "s":
        lineno, toks = row
        if toks[0] != "c" or len(toks) != 2:
            raise FormatError("syntax", f"expected 'c <k>', got {' '.join(toks)}", lineno)
        (k,) = _ints(toks[1:], lineno)
    else:
        rows = chain((row,), rows)
    sets: list[VertexSet] = []
    expect = 1
    for lineno, toks in rows:
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
    """One `DominatingTree` per set.

    A set fails here only when it is empty or disconnected, since the
    parser range-checks every id.  Disjointness and domination are left
    to `builders.validate_family`, which `solve` runs on every input.
    """
    trees = []
    for i, s in enumerate(sets):
        try:
            trees.append(DominatingTree(g, s))
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


def _write_graph(g: Graph) -> list[str]:
    lines = [f"p gl {g.n} {g.m}"]
    names = list(map(str, range(1, g.n + 1)))
    for u, name in enumerate(names):
        row = sorted(g.adj[u])
        higher = row[bisect(row, u) :]
        if higher:  # u's lines, joined once
            head = f"e {name} "
            lines.append(head + ("\n" + head).join(map(names.__getitem__, higher)))
    return lines


def _write_interval(model: IntervalModel) -> list[str]:
    return [f"p interval {model.n}", *map("i {} {} {}".format, count(1), model.lefts, model.rights)]


def _write_windows(kind: str, model: ConvexModel) -> list[str]:
    m = sum(hi - lo + 1 for lo, hi in model.windows)
    return [f"p {kind} {model.na} {model.nb} {m}", *_window_section(model.windows)]


# The section writer of each model type, the other half of `_SECTIONS`.
_WRITERS = {
    Graph: _write_graph, IntervalModel: _write_interval,
    ConvexModel: partial(_write_windows, "convex"), BiconvexModel: partial(_write_windows, "biconvex"),
}


def write_bundle(bundle: InstanceBundle, comments: Iterable[str] = ()) -> str:
    lines = [f"# {c}" for c in comments]
    lines += _WRITERS[type(bundle.model)](bundle.model)
    lines += _extension_lines(bundle.terminals, bundle.demands)
    lines.append("")  # ends the last line without copying the text again
    return "\n".join(lines)


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
    """One line per event: its kind upper-cased, then its fields 1-based."""
    return "".join(
        " ".join((ev[0].upper(), *(str(x + 1) for x in ev[1:]))) + "\n" for ev in events
    )
