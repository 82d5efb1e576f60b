"""Exact independent-set counting for uniform hypergraphs.

This module is the ground-truth oracle the rest of the package is judged
against, so everything here is exact integer arithmetic.  The main counter
works on bitmask set systems.  A vertex in exactly one edge is private to
it, so an edge with p private vertices contributes a factor 2^p, or
2^p - 1 when all of its shared vertices are chosen.  A system of at most
DIRECT_SHARED shared vertices, those in two or more edges, is summed
directly over the at most 8 subsets of them, as the polymer weigher's
small link graphs mostly are.  Otherwise one frontier sweep visits the
shared vertices once each, in a greedy order that keeps few edges open,
and keeps a table from partial states to integer counts; more than
STATE_CAP live states refuse with BudgetExceeded.  A Hypergraph of more
than hypergraph.COUNT_VERTEX_CAP vertices refuses at construction, and
`count_subsets_avoiding` reads the same cap at call time for its raw
vertex count.  A vectorized 2^|V| filter is retained as an independent
cross-check for at most FILTER_VERTEX_CAP vertices, refusing above it
before any mask is built; it is the one place that enumerates all vertex
subsets, and the only code here that loads numpy.  All three caps are
module constants.  Callers reach the filter through a small public seam:
`independent_masks(G)` lists the independent sets of G as bitmasks,
`edge_masks(G)` gives the edges in the same bit order (bit i is
`list(G.vertices())[i]`, class-major) and `class_mask(G, cls)` the bits of
one class."""

from __future__ import annotations

import itertools
from typing import Sequence

from .errors import BudgetExceeded, InputError
from . import hypergraph
from .hypergraph import Hypergraph

# live states of the frontier sweep before it refuses; a system of at most
# DIRECT_SHARED shared vertices is summed without the sweep and never
# refuses, though its sweep would hold at most 2^DIRECT_SHARED states
STATE_CAP = 1 << 18

DIRECT_SHARED = 3  # shared vertices up to which a count skips the sweep

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


def _direct(shared: int, edges: list) -> int:
    """The number of subsets of the union of the non-empty edge masks that
    contain none of them, summed directly over the subsets X of the shared
    vertices: the sum over X of the product over the edges of 2^p, or
    2^p - 1 when all of the edge's shared vertices lie in X.  Keeps no
    state table, so STATE_CAP does not apply; the work is 2^|shared| times
    the number of edges."""
    private = ~shared
    total = X = 0
    while True:
        out = shared & ~X
        term, shift = 1, 0
        for e in edges:
            if e & out:
                shift += (e & private).bit_count()
            else:
                term *= (1 << (e & private).bit_count()) - 1
        total += term << shift
        if X == shared:
            return total
        X = (X - shared) & shared  # the next subset of shared, increasing


def _count_covered(edges: list) -> tuple:
    """The number of subsets of the union of the non-empty edge masks that
    contain none of them, and that union.  With at most DIRECT_SHARED
    shared vertices the count is `_direct`'s.  Otherwise an edge sharing no
    vertex with another multiplies the count by 2^p - 1 and the others go
    to the sweep, which alone can refuse over STATE_CAP.  A repeated edge
    is fully shared, p = 0, so its copies agree."""
    covered = shared = 0
    for e in edges:
        shared |= covered & e
        covered |= e
    if shared.bit_count() <= DIRECT_SHARED:
        return _direct(shared, edges), covered
    count = 1
    parts, private = [], []
    for e in edges:
        p = (e & ~shared).bit_count()
        if e & shared:
            parts.append(e & shared)
            private.append(p)
        else:
            count *= (1 << p) - 1
    return count * _sweep(parts, private), covered


def count_subsets_avoiding(num_vertices: int, edge_masks: Sequence[int]) -> int:
    """Number of subsets of {0..num_vertices-1} containing no edge mask.

    A vertex in no edge doubles the count, a vertex forming an edge on its
    own is left out, and the other edges go to `_count_covered`, whose
    sweep refuses with BudgetExceeded when more than STATE_CAP partial
    states are live."""
    if num_vertices < 0:
        raise InputError("negative vertex count")
    if num_vertices > hypergraph.COUNT_VERTEX_CAP:
        raise BudgetExceeded(
            f"the exact count has {num_vertices} vertices, over the cap of "
            f"{hypergraph.COUNT_VERTEX_CAP}, and could need as many bits; "
            f"refusing rather than estimating")
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
    count, covered = _count_covered([e for e in dedup if not e & forced])
    return count << num_vertices - (forced | covered).bit_count()


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


def count_independent_sets(G: Hypergraph) -> int:
    """Exact number of vertex subsets of G containing no edge as a subset."""
    return count_subsets_avoiding(G.num_vertices, G._edge_masks)


# ----- independent 2^V filter oracle ------------------------------------------


_FILTER_CHUNK = 1 << 20


def _check_filter_cap(num_vertices: int) -> None:
    if num_vertices > FILTER_VERTEX_CAP:
        raise BudgetExceeded(
            f"2^|V| filter limited to {FILTER_VERTEX_CAP} vertices, got "
            f"{num_vertices}; refusing rather than estimating")


def _filter_chunks(num_vertices: int, edge_masks: Sequence[int]):
    """Yield, one chunk of 2^20 candidates at a time, the subsets of
    {0..num_vertices-1} (as uint64 masks, ascending) that contain no edge
    mask.  The caller checks the filter cap first."""
    import numpy as np

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
    _check_filter_cap(num_vertices)
    return sum(int(kept.size) for kept in
               _filter_chunks(num_vertices, edge_masks))


def independent_masks(G: Hypergraph):
    """All independent sets of G as an ascending uint64 array of masks in
    edge_masks' vertex order; refuses beyond FILTER_VERTEX_CAP vertices
    before building any mask."""
    import numpy as np

    _check_filter_cap(G.num_vertices)
    return np.concatenate(list(_filter_chunks(G.num_vertices, edge_masks(G))))


def count_with_defect_class(G: Hypergraph, cls: int, b: int) -> int:
    """Exact number of independent sets I for which every 2-linked piece of
    the trace of I on the given class has order at most b.

    Enumerates independent sets directly (refusing above FILTER_VERTEX_CAP
    vertices); this keeps the count independent of the completion formula
    and the polymer machinery it is tested against.
    """
    import numpy as np

    if b < 0:
        raise InputError("defect bound b must be non-negative")
    zmask = class_mask(G, cls)  # at most COUNT_VERTEX_CAP bits
    traces = np.bitwise_and(independent_masks(G), np.uint64(zmask))
    values, counts = np.unique(traces, return_counts=True)
    order = list(G.vertices())
    total = 0
    for t, c in zip(values.tolist(), counts.tolist()):
        trace = [v for i, v in enumerate(order) if t >> i & 1]
        if all(len(p) <= b for p in G.two_linked_components(trace)):
            total += c
    return total
