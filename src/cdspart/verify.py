"""Independent validators and exact brute-force oracles.

The verifiers re-derive every property from graph primitives alone (they
never trust solver state), report all violations rather than the first,
and serialize to a line format of `OK` or `FAIL <rule-id> <detail>`.  A
detail names blocks and vertices as the files spell them: blocks count
from 1 and vertex v is printed as v + 1.  The
oracles exhaustively search tiny instances and return lexicographically
smallest witnesses so golden tests are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .engine import GLInstance
from .graphs import Graph, GraphError, VertexSet, dominates, is_connected_subset


@dataclass(frozen=True)
class VerificationReport:
    violations: tuple[tuple[str, str], ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def render(self) -> str:
        if self.ok:
            return "OK"
        return "\n".join(f"FAIL {rule} {detail}" for rule, detail in self.violations)


# Most uncovered vertices one report line lists; past it the line gives the
# count and the lowest ids, so a near-empty cover of a big graph stays short.
_LISTED = 10


def _partition_violations(g: Graph, blocks: list[frozenset[int]]) -> list[tuple[str, str]]:
    out: list[tuple[str, str]] = []
    seen: dict[int, int] = {}
    for i, b in enumerate(blocks, 1):
        for v in b:
            if not 0 <= v < g.n:
                out.append(("partition", f"block {i} holds unknown vertex {v + 1}"))
            elif v in seen:
                out.append(("partition", f"vertex {v + 1} in blocks {seen[v]} and {i}"))
            else:
                seen[v] = i
    missing = [v + 1 for v in range(g.n) if v not in seen]
    if len(missing) > _LISTED:
        out.append(
            ("partition", f"{len(missing)} uncovered vertices, first {_LISTED} {missing[:_LISTED]}")
        )
    elif missing:
        out.append(("partition", f"uncovered vertices {missing}"))
    return out


def _connected(g: Graph, b: frozenset[int]) -> bool:
    """Whether block b is nonempty and connected.  A block holding an
    unknown vertex, which `_partition_violations` names, is not."""
    try:
        return is_connected_subset(g, b)
    except GraphError:
        return False


def verify_gl(instance: GLInstance, p: Sequence[Iterable[int]]) -> VerificationReport:
    """Check the four partition conditions: cover, sizes, terminals, connectivity."""
    g = instance.graph
    blocks = [frozenset(b) for b in p]
    v: list[tuple[str, str]] = []
    if len(blocks) != instance.k:
        v.append(("partition", f"{len(blocks)} blocks for k={instance.k}"))
    v += _partition_violations(g, blocks)
    for i, (b, c, d) in enumerate(zip(blocks, instance.terminals, instance.demands), 1):
        if len(b) != d:
            v.append(("size-mismatch", f"block {i} has {len(b)}, demand {d}"))
        if c not in b:
            v.append(("terminal-missing", f"terminal {c + 1} not in block {i}"))
        if not _connected(g, b):
            v.append(("not-connected", f"block {i}"))
    return VerificationReport(tuple(v))


def verify_cds_partition(g: Graph, p: Sequence[Iterable[int]]) -> VerificationReport:
    """Check partition-of-V plus per-block connectivity and domination."""
    blocks = [frozenset(b) for b in p]
    v = _partition_violations(g, blocks)
    for i, b in enumerate(blocks, 1):
        if not _connected(g, b):
            v.append(("not-connected", f"block {i}"))
        if not dominates(g, b):
            uncovered = next(
                w for w in range(g.n) if w not in b and not (g.adj[w] & b)
            )
            v.append(("not-dominating", f"block {i} misses vertex {uncovered + 1}"))
    return VerificationReport(tuple(v))


# -- bitmask helpers ---------------------------------------------------------


def _adj_masks(g: Graph) -> list[int]:
    masks = [0] * g.n
    for v in range(g.n):
        for w in g.adj[v]:
            masks[v] |= 1 << w
    return masks


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _component(adj: list[int], mask: int, within: int) -> int:
    """The component of `within` that holds the lowest vertex of mask."""
    comp = mask & -mask
    while True:
        grow = comp
        for v in _bits(comp):
            grow |= adj[v] & within
        if grow == comp:
            return comp
        comp = grow


def _connected_mask(adj: list[int], mask: int) -> bool:
    return _component(adj, mask, mask) == mask


# -- oracles -----------------------------------------------------------------


def brute_gl(instance: GLInstance, max_n: int = 14) -> tuple[VertexSet, ...] | None:
    """Exhaustive search for a valid partition; lexicographically smallest.

    Vertices are assigned in ascending id to the lowest feasible block;
    partial assignments are pruned by block capacity, by connectivity once
    a block fills, and by reachability of a block's fragments through the
    still-unassigned vertices.
    """
    g = instance.graph
    if g.n > max_n:
        raise GraphError("too-large-for-oracle", f"n={g.n} > {max_n}")
    adj = _adj_masks(g)
    k = instance.k
    term_block = {c: i for i, c in enumerate(instance.terminals)}
    free = [v for v in range(g.n) if v not in term_block]
    block_mask = [1 << instance.terminals[i] for i in range(k)]
    counts = [1] * k
    suffix_future = [0] * (len(free) + 1)
    for pos in range(len(free) - 1, -1, -1):
        suffix_future[pos] = suffix_future[pos + 1] | (1 << free[pos])

    def feasible(pos: int) -> bool:
        future = suffix_future[pos]
        for i in range(k):
            if counts[i] == instance.demands[i]:
                continue
            if block_mask[i] & ~_component(adj, block_mask[i], block_mask[i] | future):
                return False
        return True

    def search(pos: int) -> list[int] | None:
        if pos == len(free):
            return list(block_mask)
        v = free[pos]
        for b in range(k):
            if counts[b] == instance.demands[b]:
                continue
            block_mask[b] |= 1 << v
            counts[b] += 1
            ok = True
            if counts[b] == instance.demands[b]:
                ok = _connected_mask(adj, block_mask[b])
            if ok and feasible(pos + 1):
                res = search(pos + 1)
                if res is not None:
                    return res
            block_mask[b] &= ~(1 << v)
            counts[b] -= 1
        return None

    if not feasible(0):
        return None
    masks = search(0)
    if masks is None:
        return None
    return tuple(frozenset(_bits(m)) for m in masks)


def brute_cds(g: Graph, k: int, max_n: int = 14) -> tuple[VertexSet, ...] | None:
    """Exhaustive search for k pairwise-disjoint CDSs; first in lex order."""
    if g.n > max_n:
        raise GraphError("too-large-for-oracle", f"n={g.n} > {max_n}")
    if k < 1:
        raise GraphError("bad-k", f"k={k}")
    adj = _adj_masks(g)
    full = (1 << g.n) - 1
    cds_masks = []
    for mask in range(1, 1 << g.n):
        closed = mask
        for v in _bits(mask):
            closed |= adj[v]
        if closed == full and _connected_mask(adj, mask):
            cds_masks.append(mask)
    cds_masks.sort(key=lambda m: tuple(_bits(m)))

    def search(start: int, used: int, chosen: list[int]) -> list[int] | None:
        if len(chosen) == k:
            return chosen
        for idx in range(start, len(cds_masks)):
            m = cds_masks[idx]
            if m & used:
                continue
            res = search(idx + 1, used | m, chosen + [m])
            if res is not None:
                return res
        return None

    found = search(0, 0, [])
    if found is None:
        return None
    return tuple(frozenset(_bits(m)) for m in found)
