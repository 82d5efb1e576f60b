"""Exact independent-set counting for uniform hypergraphs.

This module is the ground-truth oracle the rest of the package is judged
against, so everything here is exact integer arithmetic.  The main counter
works on bitmask set systems.  A vertex in exactly one edge is private to
it, so an edge with p private vertices contributes a factor 2^p, or
2^p - 1 when all of its shared vertices are chosen.  One frontier sweep
visits the shared vertices, those in two or more edges, once each, in a
greedy order that keeps few edges open, and keeps a table from partial
states to integer counts; more than STATE_CAP live states, or more than
COUNT_VERTEX_CAP vertices, refuse with BudgetExceeded.  A vectorized 2^|V|
filter is retained as an independent cross-check for small vertex counts;
it is the one place that enumerates vertex subsets, and the only code here
that loads numpy.  Callers reach it through a small public seam:
`independent_masks(G)` lists the independent sets of G as bitmasks,
`edge_masks(G)` gives the edges in the same bit order (bit i is
`list(G.vertices())[i]`, class-major) and `class_mask(G, cls)` the bits of
one class."""

from __future__ import annotations

import itertools
from typing import Sequence, Union

from .errors import BudgetExceeded, InputError
from .hypergraph import Hypergraph, LinkGraph

STATE_CAP = 1 << 18  # live states of the frontier sweep before it refuses

# vertices of an exact count before it refuses: the count has at most this
# many bits (about 316,000 decimal digits at the cap)
COUNT_VERTEX_CAP = 1 << 20

FILTER_VERTEX_CAP = 24  # vertex cap of the 2^|V| filter


# ----- frontier sweep ---------------------------------------------------------


def _sweep(parts: list, private: list) -> int:
    """Independent-set count of edges given by their parts on the shared
    vertices (each non-empty) and their private vertex counts p: the sum
    over the choices of shared vertices of the product over the edges of
    2^p, or 2^p - 1 when all of the edge's shared vertices are chosen.

    The shared vertices are visited once each in a greedy order: next
    comes the one that opens the fewest edges minus the edges it closes,
    ties going first to a vertex on an already-started edge, then to the
    lowest bit.  So the order depends on the set of edges, not on their
    order.  A state is the set of edges that are started, unfinished and
    fully chosen so far, as a bitmask over slots that an edge holds from
    its first shared vertex to its last; each state maps to its integer
    count.  Refuses with BudgetExceeded when more than STATE_CAP states are
    live."""
    through = {}  # shared vertex (as its bit) -> the edges through it
    # rank: twice (edges a vertex would open - edges it would close), plus
    # one while no started edge passes through it; an edge with a single
    # shared vertex opens and closes there, so it adds nothing
    rank = {}
    for j, rest in enumerate(parts):
        opens = 2 if rest & (rest - 1) else 0
        while rest:
            v = rest & -rest
            rest ^= v
            if v in through:
                through[v].append(j)
                rank[v] += opens
            else:
                through[v] = [j]
                rank[v] = 1 + opens
    bucket = {}  # rank -> the unvisited vertices of that rank, as one mask
    for v, r in rank.items():
        bucket[r] = bucket.get(r, 0) | v
    total = len(rank)
    rest = list(parts)  # each edge's unvisited shared vertices
    slot = [0] * len(parts)  # a started, unfinished edge's bit in the state
    used = 0
    states = {0: 1}
    for swept in range(1, total + 1):
        r = min(bucket)
        group = bucket[r]
        v = group & -group  # the lowest bit of the lowest rank
        if group == v:
            del bucket[r]
        else:
            bucket[r] = group ^ v
        seen = ends = begins = shift = 0
        finishing = []  # (slot bit, or 0 for an edge started here, p)
        for j in through[v]:
            others = rest[j] = rest[j] ^ v
            bit = slot[j]
            if others:
                closes = 0 if others & (others - 1) else 2  # in rank units
                if bit:
                    seen |= bit
                    if not closes:
                        continue
                    touch = 0  # its last vertex now closes it
                else:  # the edge starts here: take the lowest free slot
                    bit = ~used & (used + 1)
                    used |= bit
                    slot[j] = bit
                    begins |= bit
                    touch = 1  # its other vertices no longer open it,
                    # and now lie on a started edge
                drop = closes + 2 * touch
                while others:
                    u = others & -others
                    others ^= u
                    r = rank[u]
                    group = bucket[r] ^ u
                    if group:
                        bucket[r] = group
                    else:
                        del bucket[r]
                    r = rank[u] = r - drop - (r & touch)
                    bucket[r] = bucket.get(r, 0) | u
                continue
            p = private[j]
            finishing.append((bit, p))
            shift += p
            seen |= bit
            ends |= bit
        used &= ~ends
        nxt = {}
        for key, count in states.items():
            # v left out: no edge through it is fully chosen any more
            out = key & ~seen
            nxt[out] = nxt.get(out, 0) + (count << shift)
            # v chosen: each finishing edge that is still fully chosen
            # leaves its private vertices 2^p - 1 choices
            for bit, p in finishing:
                if bit and not key & bit:
                    count <<= p
                else:
                    count *= (1 << p) - 1
            if count:
                key = key & ~ends | begins
                nxt[key] = nxt.get(key, 0) + count
        if len(nxt) > STATE_CAP:
            raise BudgetExceeded(
                f"the exact count swept {swept} of {total} shared "
                f"vertices and held {len(nxt)} live states, over the cap of "
                f"{STATE_CAP}; refusing rather than estimating")
        states = nxt
    return states[0]


def count_subsets_avoiding(num_vertices: int, edge_masks: Sequence[int]) -> int:
    """Number of subsets of {0..num_vertices-1} containing no edge mask.

    A vertex in no edge doubles the count, an edge sharing no vertex with
    another multiplies it by 2^p - 1, and the edges that do share vertices
    go to the frontier sweep, which refuses with BudgetExceeded when more
    than STATE_CAP partial states are live."""
    if num_vertices < 0:
        raise InputError("negative vertex count")
    _check_vertex_cap(num_vertices)
    dedup = dict.fromkeys(map(int, edge_masks))  # in the caller's order
    forced = covered = 0
    for e in dedup:
        covered |= e
        if e.bit_count() == 1:
            forced |= e
    if covered >> num_vertices:
        raise InputError("edge mask uses vertices outside the ground set")
    if 0 in dedup:
        return 0
    edges = [e for e in dedup if not e & forced]
    covered = shared = 0
    for e in edges:
        shared |= covered & e
        covered |= e
    result = 1 << (num_vertices - (forced | covered).bit_count())
    parts, private = [], []
    for e in edges:
        p = (e & ~shared).bit_count()
        if e & shared:
            parts.append(e & shared)
            private.append(p)
        else:
            result *= (1 << p) - 1
    return result * _sweep(parts, private) if parts else result


def _check_vertex_cap(num_vertices: int) -> None:
    if num_vertices > COUNT_VERTEX_CAP:
        raise BudgetExceeded(
            f"the exact count has {num_vertices} vertices, over the cap of "
            f"{COUNT_VERTEX_CAP}, and could need as many bits; refusing "
            f"rather than estimating")


def edge_masks(G: Hypergraph) -> list:
    """The edges of G as bitmasks over its vertices: bit i stands for
    list(G.vertices())[i].  That order is class-major, so each class is a
    contiguous range of bits (see class_mask)."""
    offsets = list(itertools.accumulate(G.sizes, initial=0))
    return [sum(1 << (offsets[v.cls] + v.idx) for v in e) for e in G.edges]


def class_mask(G: Hypergraph, cls: int) -> int:
    """The bits of the given class in edge_masks' vertex order."""
    G._check_class(cls)
    return ((1 << G.sizes[cls]) - 1) << sum(G.sizes[:cls])


def count_independent_sets(H: Union[Hypergraph, LinkGraph]) -> int:
    """Exact number of vertex subsets of H containing no edge as a subset."""
    if isinstance(H, Hypergraph):
        _check_vertex_cap(H.num_vertices)  # before edge_masks builds bits
        return count_subsets_avoiding(H.num_vertices, edge_masks(H))
    if isinstance(H, LinkGraph):
        pos = {v: i for i, v in enumerate(H.vertices)}
        masks = []
        for e in H.edges:
            m = 0
            for v in e:
                m |= 1 << pos[v]
            masks.append(m)
        return count_subsets_avoiding(len(pos), masks)
    raise InputError(f"cannot count structures of type {type(H).__name__}")


# ----- independent 2^V filter oracle ------------------------------------------


_HARD_MASK_CAP = 30  # uint64 mask arrays; beyond this the memory cost is silly
_FILTER_CHUNK = 1 << 20


def _filter_chunks(num_vertices: int, edge_masks: Sequence[int], cap: int):
    """Yield, one chunk of 2^20 candidates at a time, the subsets of
    {0..num_vertices-1} (as uint64 masks, ascending) that contain no edge
    mask.  Refuses when num_vertices exceeds min(cap, 30)."""
    import numpy as np

    cap = min(cap, _HARD_MASK_CAP)
    if num_vertices > cap:
        raise BudgetExceeded(
            f"2^|V| filter limited to {cap} vertices, got {num_vertices}; "
            f"refusing rather than estimating")
    dedup = np.array(sorted(set(int(e) for e in edge_masks)), dtype=np.uint64)
    top = 1 << num_vertices
    for lo in range(0, top, _FILTER_CHUNK):
        arr = np.arange(lo, min(lo + _FILTER_CHUNK, top), dtype=np.uint64)
        keep = np.ones(arr.shape, dtype=bool)
        for e in dedup:
            keep &= (arr & e) != e
        yield arr[keep]


def count_by_filter(num_vertices: int, edge_masks: Sequence[int]) -> int:
    """Count by testing every subset mask; independent of the frontier
    sweep, usable for cross-checks up to FILTER_VERTEX_CAP vertices."""
    return sum(int(kept.size) for kept in
               _filter_chunks(num_vertices, edge_masks, FILTER_VERTEX_CAP))


def independent_masks(G: Hypergraph, cap: int = FILTER_VERTEX_CAP):
    """All independent sets of G as an ascending uint64 array of masks in
    edge_masks' vertex order; refuses beyond `cap` vertices (at most 30)."""
    import numpy as np

    chunks = _filter_chunks(G.num_vertices, edge_masks(G), cap)
    return np.concatenate(list(chunks))


def defect_profile(G: Hypergraph, cls: int,
                   budget: int = FILTER_VERTEX_CAP) -> list:
    """profile[b] = number of independent sets I such that every 2-linked
    piece of I restricted to the class has order at most b, for b in
    0..|class|.  Computed by direct enumeration of independent sets."""
    import numpy as np

    zmask = class_mask(G, cls)
    traces = np.bitwise_and(independent_masks(G, budget), np.uint64(zmask))
    values, counts = np.unique(traces, return_counts=True)
    order = list(G.vertices())
    size = G.sizes[cls]
    profile = [0] * (size + 1)
    for t, c in zip(values.tolist(), counts.tolist()):
        trace = [v for i, v in enumerate(order) if t >> i & 1]
        pieces = G.two_linked_components(trace)
        worst = max((len(p) for p in pieces), default=0)
        profile[worst] += int(c)
    out = []
    acc = 0
    for b in range(size + 1):
        acc += profile[b]
        out.append(acc)
    return out


def count_with_defect_class(G: Hypergraph, cls: int, b: int,
                            budget: int = FILTER_VERTEX_CAP) -> int:
    """Exact number of independent sets I for which every 2-linked piece of
    the trace of I on the given class has order at most b.

    Enumerates independent sets directly (budget-guarded); this keeps the
    count independent of the completion formula and the polymer machinery
    it is tested against.
    """
    if b < 0:
        raise InputError("defect bound b must be non-negative")
    profile = defect_profile(G, cls, budget)
    return profile[min(b, G.sizes[cls])]
