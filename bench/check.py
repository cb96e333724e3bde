"""Independent output check for the benchmark.

Re-reads every file a CLI step wrote with a small reader of its own and
confirms the properties the step promises. It imports nothing from
`cdspart`, so a defect shared by the library's parsers and verifiers
cannot hide itself here.

File formats (1-based ids, `#` comments): graph `p gl n m` + `e u v`;
interval model `p interval n` + `i id left right`; convex / biconvex model
`p convex na nb m` + `e a b` (A side first, B vertex j is `na + j`);
optional `k K` + `t terminal demand` lines; CDS file `c K` + `s i v...`;
partition file `v i v...`.
"""

from __future__ import annotations

from dataclasses import dataclass


class CheckError(ValueError):
    """A written file is malformed or breaks a promised property."""


@dataclass(frozen=True)
class Instance:
    n: int
    adj: tuple[frozenset[int], ...]
    terminals: tuple[int, ...]
    demands: tuple[int, ...]


def _rows(path) -> list[list[str]]:
    with open(path, encoding="utf-8") as fh:
        rows = [line.split("#", 1)[0].split() for line in fh]
    return [r for r in rows if r]


def _ints(tokens: list[str]) -> list[int]:
    try:
        return [int(t) for t in tokens]
    except ValueError as exc:
        raise CheckError(f"non-integer token in {tokens}") from exc


def read_instance(path) -> Instance:
    """Read a graph or model file into adjacency sets plus its extension."""
    rows = _rows(path)
    if not rows or rows[0][0] != "p" or len(rows[0]) < 3:
        raise CheckError("missing 'p' header")
    kind = rows[0][1]
    edges: list[tuple[int, int]] = []
    if kind == "gl":
        n, m = _ints(rows[0][2:4])
        body = rows[1 : 1 + m]
        for r in body:
            if r[0] != "e" or len(r) != 3:
                raise CheckError(f"bad edge line {r}")
            u, v = _ints(r[1:])
            edges.append((u - 1, v - 1))
        rest = rows[1 + m :]
    elif kind == "interval":
        (n,) = _ints(rows[0][2:3])
        lefts = [0] * n
        rights = [0] * n
        seen = set()
        for r in rows[1 : 1 + n]:
            if r[0] != "i" or len(r) != 4:
                raise CheckError(f"bad interval line {r}")
            vid, a, b = _ints(r[1:])
            if not 1 <= vid <= n or vid in seen or a > b:
                raise CheckError(f"bad interval {r}")
            seen.add(vid)
            lefts[vid - 1], rights[vid - 1] = a, b
        if len(seen) != n:
            raise CheckError("missing interval lines")
        order = sorted(range(n), key=lambda v: lefts[v])
        for pos, u in enumerate(order):
            for v in order[pos + 1 :]:
                if lefts[v] > rights[u]:
                    break
                edges.append((u, v))
        rest = rows[1 + n :]
    elif kind in ("convex", "biconvex"):
        na, nb, m = _ints(rows[0][2:5])
        n = na + nb
        for r in rows[1 : 1 + m]:
            if r[0] != "e" or len(r) != 3:
                raise CheckError(f"bad edge line {r}")
            a, b = _ints(r[1:])
            if not (1 <= a <= na and 1 <= b <= nb):
                raise CheckError(f"edge {r} out of range")
            edges.append((a - 1, na + b - 1))
        rest = rows[1 + m :]
    else:
        raise CheckError(f"unknown kind {kind}")
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n) or u == v or v in adj[u]:
            raise CheckError(f"bad edge ({u + 1}, {v + 1})")
        adj[u].add(v)
        adj[v].add(u)
    terminals: list[int] = []
    demands: list[int] = []
    if rest:
        if rest[0][0] != "k" or len(rest) != 1 + _ints(rest[0][1:2])[0]:
            raise CheckError("bad terminal extension")
        for r in rest[1:]:
            if r[0] != "t" or len(r) != 3:
                raise CheckError(f"bad terminal line {r}")
            c, d = _ints(r[1:])
            if not 1 <= c <= n or d < 1:
                raise CheckError(f"bad terminal line {r}")
            terminals.append(c - 1)
            demands.append(d)
        if len(set(terminals)) != len(terminals) or sum(demands) != n:
            raise CheckError("terminals repeat or demands do not sum to n")
    return Instance(n, tuple(frozenset(s) for s in adj), tuple(terminals), tuple(demands))


def read_sets(path, prefix: str, n: int) -> list[frozenset[int]]:
    """Read an `s`-line CDS file (with its `c K` header) or a `v`-line partition."""
    rows = _rows(path)
    if prefix == "s":
        if not rows or rows[0][0] != "c" or _ints(rows[0][1:2])[0] != len(rows) - 1:
            raise CheckError("bad 'c' header")
        rows = rows[1:]
    sets = []
    for i, r in enumerate(rows, start=1):
        vals = _ints(r[1:])
        if r[0] != prefix or not vals or vals[0] != i:
            raise CheckError(f"bad set line {r[:3]}")
        members = frozenset(v - 1 for v in vals[1:])
        if len(members) != len(vals) - 1 or any(not 0 <= v < n for v in members):
            raise CheckError(f"set {i} repeats or leaves 1..{n}")
        sets.append(members)
    if not sets:
        raise CheckError("no sets")
    return sets


def _connected(adj, s: frozenset[int]) -> bool:
    if not s:
        return False
    start = next(iter(s))
    seen = {start}
    stack = [start]
    while stack:
        for y in adj[stack.pop()]:
            if y in s and y not in seen:
                seen.add(y)
                stack.append(y)
    return len(seen) == len(s)


def _owner(n: int, sets: list[frozenset[int]], cover: bool) -> list[int]:
    owner = [-1] * n
    for i, s in enumerate(sets):
        for v in s:
            if owner[v] != -1:
                raise CheckError(f"vertex {v + 1} in sets {owner[v] + 1} and {i + 1}")
            owner[v] = i
    if cover and -1 in owner:
        raise CheckError(f"vertex {owner.index(-1) + 1} is in no set")
    return owner


def check_cds_family(inst: Instance, sets: list[frozenset[int]], *, cover: bool) -> None:
    """Disjoint, each set connected and dominating; covering V if `cover`."""
    owner = _owner(inst.n, sets, cover)
    for i, s in enumerate(sets):
        if not _connected(inst.adj, s):
            raise CheckError(f"set {i + 1} is not connected")
    k = len(sets)
    for v in range(inst.n):
        seen = {owner[u] for u in inst.adj[v]}
        seen.add(owner[v])
        seen.discard(-1)
        if len(seen) != k:
            raise CheckError(f"vertex {v + 1} is not dominated by every set")


def check_gl_partition(inst: Instance, blocks: list[frozenset[int]]) -> None:
    """Cover, sizes, terminals and connectivity of a prescribed-size partition."""
    if len(blocks) != len(inst.terminals):
        raise CheckError(f"{len(blocks)} blocks for k={len(inst.terminals)}")
    _owner(inst.n, blocks, cover=True)
    for i, b in enumerate(blocks):
        if len(b) != inst.demands[i]:
            raise CheckError(f"block {i + 1} has {len(b)} vertices, demand {inst.demands[i]}")
        if inst.terminals[i] not in b:
            raise CheckError(f"block {i + 1} misses its terminal")
        if not _connected(inst.adj, b):
            raise CheckError(f"block {i + 1} is not connected")
