"""Seeded deterministic generators for models, planted instances and
terminal/demand extensions.

All randomness flows through SplitMix64, a published 64-bit generator
whose output stream is fixed by the seed alone, so identical parameters
reproduce byte-identical files on any platform.  Bounded integers are
derived as `lo + next_u64() % span`; `draws(c)` gives the next c
outputs of that same stream, as c calls of `next_u64` would, and leaves
the generator where they would.  A shuffle is Fisher-Yates from the top
with one draw d per position i, swapping i and d % (i + 1).  These
derivations are part of the reproducibility contract.
"""

from __future__ import annotations

import sys
from array import array

from .engine import CdsInput, validate_cds_input
from .graphs import DominatingTree, Graph, GraphError
from .models import BiconvexModel, ConvexModel, IntervalModel

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_BLOCK = 4096  # outputs per block of `SplitMix64.draws`


def _lanes(words) -> int:
    """The int whose i-th 128-bit lane, from the low end, holds words[i]."""
    return int.from_bytes(b"".join(w.to_bytes(16, "little") for w in words), "little")


_LOW = _lanes([_MASK] * _BLOCK)
_ONES = _lanes([1] * _BLOCK)
_STRIDES = _lanes([i * _GAMMA & _MASK for i in range(1, _BLOCK + 1)])


class SplitMix64:
    """splitmix64; reference stream from seed 0 starts 0xE220A8397B1DCDAF."""

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def draws(self, count: int) -> array:
        """The next `count` outputs of `next_u64` (none if count < 1), as an array('Q').

        Output t mixes state + t * gamma, so lane i of one int holds the
        block's position i + 1 in the low half of 128 bits, and each step
        of the mix is one big-int operation over the block: a product of
        two 64-bit values fits its lane, and `low` cuts the bits a right
        shift brings down from the next lane.
        """
        out = array("Q", [0]) * count
        for start in range(0, count, _BLOCK):
            lanes = min(_BLOCK, count - start)
            low = _LOW >> 128 * (_BLOCK - lanes)
            z = (self._state * (_ONES & low) + (_STRIDES & low)) & low
            z = ((z ^ ((z >> 30) & low)) * 0xBF58476D1CE4E5B9) & low
            z = ((z ^ ((z >> 27) & low)) * 0x94D049BB133111EB) & low
            words = array("Q", (z ^ ((z >> 31) & low)).to_bytes(16 * lanes, "little"))
            if sys.byteorder == "big":
                words.byteswap()
            out[start : start + lanes] = words[::2]
            self._state = (self._state + lanes * _GAMMA) & _MASK
        return out

    def randint(self, lo: int, hi: int) -> int:
        """Uniform-ish integer in [lo, hi] via modulo reduction."""
        if lo > hi:
            raise GraphError("bad-range", f"randint({lo}, {hi}): empty range")
        return lo + self.next_u64() % (hi - lo + 1)

    def shuffle(self, xs: list) -> None:
        for i, d in zip(range(len(xs) - 1, 0, -1), self.draws(len(xs) - 1)):
            j = d % (i + 1)
            xs[i], xs[j] = xs[j], xs[i]

    def sample_distinct(self, n: int, k: int) -> list[int]:
        """k distinct values from range(n), in draw order."""
        if not 0 <= k <= n:
            raise GraphError("bad-sample", f"{k} distinct values from range({n})")
        pool = list(range(n))
        self.shuffle(pool)
        return pool[:k]


def gen_interval(n: int, target_k: int, seed: int) -> IntervalModel:
    """Random integer intervals, proved to give connectivity >= k = target_k.

    k chains each lay abutting intervals [1, b], [b, c], ... up to
    end = 1 + (2k + 1)(n // k), with lengths from [2k + 1, 4k + 4] and the
    last one cut at end, so a chain has at most n // k intervals.  The
    other intervals lie inside [1, end]; the ids are shuffled.

    Every unit gap (x, x + 1) of [1, end] lies inside one interval of
    each chain.  Remove a set S with |S| < k < n: every gap keeps a
    crossing interval, so the surviving intervals cover [1, end] with no
    hole, and closed intervals whose union is a segment form a connected
    graph.  No slack is added to the chains, so most models have
    connectivity k exactly, the paper's boundary.
    """
    if not 1 <= target_k < n:
        raise GraphError("generation-failed", f"need 1 <= k < n, got n={n}, k={target_k}")
    rng = SplitMix64(seed)
    lo_len, hi_len = 2 * target_k + 1, 4 * target_k + 4
    end = 1 + lo_len * (n // target_k)
    spans = []
    for _ in range(target_k):
        a = 1
        while a < end:
            b = min(end, a + rng.randint(lo_len, hi_len))
            spans.append((a, b))
            a = b
    for _ in range(n - len(spans)):
        length = rng.randint(lo_len, hi_len)
        a = rng.randint(1, max(1, end - length))
        spans.append((a, min(end, a + length)))
    rng.shuffle(spans)
    return IntervalModel(lefts=tuple(a for a, _ in spans), rights=tuple(b for _, b in spans))


def _staircase_windows(
    rng: SplitMix64, na: int, nb: int, width: int, hold: int
) -> list[tuple[int, int]]:
    """Nondecreasing fixed-width windows sweeping [0, na).

    The left edge takes every value in [0, na - width] at least once, so
    the sweep advances by at most 1 per step and any boundary between
    consecutive A-positions is spanned by >= width - 1 windows; `hold`
    copies are pinned at each extreme so the corner A-vertices reach
    degree `hold`.  Leftover window slots repeat random positions.
    The caller guarantees nb - (na - width + 1) >= 2 * (hold - 1).
    """
    top = na - width
    lows = list(range(top + 1)) + [0] * (hold - 1) + [top] * (hold - 1)
    for _ in range(nb - len(lows)):
        lows.append(rng.randint(0, top))
    lows.sort()
    return [(lo, lo + width - 1) for lo in lows]


def gen_biconvex(na: int, nb: int, target_k: int, seed: int) -> BiconvexModel:
    """Monotone-staircase windows, biconvex by construction and certified
    to give connectivity >= k = target_k, so no flow runs.

    Setup.  Every window has width w.  Every left edge in [0, na - w]
    occurs at least once.  The edges 0 and na - w each occur at least k
    times: the precondition nb >= na - width + 2k - 1 leaves
    nb - (na - w + 1) >= 2k - 2 spare windows, so k - 1 extra copies are
    pinned at each end.

    Case w = na.  The graph is K(na, nb), whose connectivity is
    min(na, nb).  That is at least k when na >= k, since nb >= 2k - 1.

    Case w < na.  Then width < na, so w >= width >= k + 2.  Remove a set
    S with |S| < k.  Take two surviving A-vertices a < b whose g
    in-between A-vertices are all in S; then S holds at most k - 1 - g
    B-vertices.  a and b share every window whose left edge lies in
    [max(0, b - w + 1), min(a, na - w)].  This range is nonempty, since
    b - a = g + 1 <= k <= w - 1.  If the range holds 0 or na - w, at
    least k windows contain both.  Otherwise it holds w - g - 1 >= k - g
    distinct left edges.  Either way one shared window survives, so a
    and b stay joined.  Every surviving B-vertex keeps one of its
    w >= k + 1 A-neighbours.  So G - S is connected.

    Flow-based connectivity stays the test oracle for this certificate.
    """
    if target_k < 1:
        raise GraphError("generation-failed", f"need k >= 1, got k={target_k}")
    width = min(na, max(target_k + 2, na - nb + 2 * target_k - 1))
    # na < k: connectivity is at most na, so no model exists
    if na < max(2, target_k) or nb < 2 or nb < na - width + 2 * target_k - 1:
        raise GraphError("generation-failed", f"sizes too small: na={na}, nb={nb}")
    rng = SplitMix64(seed)
    wide = min(na, width + rng.randint(0, 2))
    windows = _staircase_windows(rng, na, nb, wide, target_k)
    return BiconvexModel(na=na, nb=nb, windows=tuple(windows))


def gen_convex(na: int, nb: int, target_k: int, seed: int) -> ConvexModel:
    """Random windows, proved to give connectivity >= k = target_k.

    Every window contains a common core of k consecutive A-positions,
    and the first k windows span all of A.  Remove a set S with |S| < k:
    a core A-vertex survives and sees every surviving B-vertex, and every
    surviving A-vertex keeps one of its >= k B-neighbours, so G - S is
    connected.  Callers building k CDSs pass target_k = 4k.
    """
    if target_k < 1:
        raise GraphError("generation-failed", f"need k >= 1, got k={target_k}")
    # fewer than k A- or B-vertices leave some vertex of degree < k
    if na < max(2, target_k) or nb < target_k:
        raise GraphError("generation-failed", f"sizes too small: na={na}, nb={nb}")
    rng = SplitMix64(seed)
    core_lo = rng.randint(0, na - target_k)
    windows = [(0, na - 1)] * target_k
    for _ in range(nb - target_k):
        # half the windows pin each extreme, so the graph stays dense
        lo = 0 if rng.randint(0, 1) else rng.randint(0, core_lo)
        hi = na - 1 if rng.randint(0, 1) else rng.randint(core_lo + target_k - 1, na - 1)
        windows.append((lo, hi))
    return ConvexModel(na=na, nb=nb, windows=tuple(windows))


def gen_planted_cds(
    n: int, k: int, extra_edges: int, seed: int
) -> tuple[Graph, CdsInput]:
    """A graph with k planted disjoint dominating path backbones.

    A subset of vertices is split into k paths; every other vertex gets an
    edge to a random member of every backbone (making each one dominating),
    then extra random edges are sprinkled on top.  Each backbone is
    returned as the `DominatingTree` of its vertex set.
    """
    if k < 1:
        raise GraphError("generation-failed", f"need k >= 1, got k={k}")
    if n < 2 * k:
        raise GraphError("generation-failed", f"need n >= 2k, got n={n}, k={k}")
    rng = SplitMix64(seed)
    perm = list(range(n))
    rng.shuffle(perm)
    max_len = max(2, n // k - 1)
    backbones: list[list[int]] = []
    start = 0
    for _ in range(k):
        size = rng.randint(2, max_len)
        backbones.append(perm[start : start + size])
        start += size
    nbrs: list[set[int]] = [set() for _ in range(n)]
    for chain in backbones:
        for a, b in zip(chain, chain[1:]):
            nbrs[a].add(b)
            nbrs[b].add(a)
    members = [set(chain) for chain in backbones]
    # one draw per vertex and backbone it is not on
    stream = iter(rng.draws(n * k - sum(map(len, backbones))))
    for v in range(n):
        for i, chain in enumerate(backbones):
            if v not in members[i]:
                w = chain[next(stream) % len(chain)]
                nbrs[v].add(w)
                nbrs[w].add(v)
    free = n * (n - 1) // 2 - sum(map(len, nbrs)) // 2
    if not 0 <= extra_edges <= free:
        raise GraphError("generation-failed", f"{extra_edges} extra edges, {free} free vertex pairs")
    added = 0
    while added < extra_edges:
        u = rng.randint(0, n - 1)
        v = rng.randint(0, n - 1)
        if u != v and v not in nbrs[u]:
            nbrs[u].add(v)
            nbrs[v].add(u)
            added += 1
    adj = list(map(list, nbrs))
    del nbrs  # the sets go before the graph builds its own copies
    g = Graph(adj)
    trees = tuple(DominatingTree(g, chain) for chain in backbones)
    validate_cds_input(g, trees)
    return g, trees


def gen_gl_extension(n: int, k: int, seed: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """k distinct terminals plus a random composition of n into k parts.

    Terminals are drawn uniformly; demands come from k-1 distinct cut
    points of [1, n), so every part is positive.
    """
    if not 1 <= k <= n:
        raise GraphError("generation-failed", f"need 1 <= k <= n, got k={k}, n={n}")
    rng = SplitMix64(seed)
    terminals = tuple(rng.sample_distinct(n, k))
    cuts = sorted(x + 1 for x in rng.sample_distinct(n - 1, k - 1))
    bounds = [0] + cuts + [n]
    demands = tuple(bounds[i + 1] - bounds[i] for i in range(k))
    return terminals, demands
