"""Exact independent-set counting for uniform hypergraphs.

This module is the ground-truth oracle the rest of the package is judged
against, so everything here is exact integer arithmetic.  The main counter
is one memoised backtracking search over bitmask set systems: it factors
the edges into connected components and branches each component on its
lowest vertex.  A search that recurses deeper than the interpreter allows
refuses with BudgetExceeded.  A vectorized 2^|V| filter is retained as an
independent cross-check for small vertex counts; it is the one place that
enumerates vertex subsets.  Callers reach it through a small public seam:
`independent_masks(G)` lists the independent sets of G as bitmasks,
`edge_masks(G)` gives the edges in the same bit order (bit i is
`list(G.vertices())[i]`, class-major) and `class_mask(G, cls)` the bits of
one class.
"""

from __future__ import annotations

import itertools
import sys
from dataclasses import dataclass
from typing import Iterable, Sequence, Union

import numpy as np

from .errors import BudgetExceeded, InputError
from .hypergraph import Hypergraph, LinkGraph

_MEMO_LIMIT = 1 << 20  # entries per top-level call before the cache is dropped

FILTER_VERTEX_CAP = 24  # vertex cap of the 2^|V| filter


@dataclass(frozen=True)
class DefectClassCount:
    """Exact count of independent sets whose trace on one class splits into
    2-linked pieces of order at most `bound`."""

    cls: int
    bound: int
    count: int


# ----- bitmask core -----------------------------------------------------------


def _count(vmask: int, edges, memo) -> int:
    """Subsets of vmask containing no edge, for distinct edge masks of two
    or more vertices within vmask.  Each connected component of two or more
    edges branches on its lowest vertex: excluding it drops its edges,
    including it shrinks them, and an edge shrunk to one vertex excludes
    that vertex at once, together with the edges through it."""
    covered = 0
    for e in edges:
        covered |= e
    result = 1 << (vmask & ~covered).bit_count()
    rest = edges
    while rest:
        cmask = rest[0]
        comp = [cmask]
        rest = rest[1:]
        grew = True
        while grew:
            grew = False
            keep = []
            for e in rest:
                if e & cmask:
                    comp.append(e)
                    cmask |= e
                    grew = True
                else:
                    keep.append(e)
            rest = keep
        if len(comp) == 1:
            result *= (1 << cmask.bit_count()) - 1
            continue
        key = tuple(sorted(comp))
        val = memo.get(key)
        if val is None:
            low = cmask & -cmask
            forced = 0
            for e in comp:
                if e & low and (e ^ low).bit_count() == 1:
                    forced |= e ^ low
            included = {e & ~low for e in comp if not e & forced}
            val = (_count(cmask ^ low, [e for e in comp if not e & low], memo)
                   + _count(cmask ^ low ^ forced, list(included), memo))
            if len(memo) > _MEMO_LIMIT:
                memo.clear()
            memo[key] = val
        result *= val
    return result


def count_subsets_avoiding(num_vertices: int, edge_masks: Sequence[int]) -> int:
    """Number of subsets of {0..num_vertices-1} containing no edge mask.

    Refuses with BudgetExceeded when the search recurses deeper than the
    interpreter allows."""
    if num_vertices < 0:
        raise InputError("negative vertex count")
    dedup = set(int(e) for e in edge_masks)
    full = (1 << num_vertices) - 1
    for e in dedup:
        if e & ~full:
            raise InputError("edge mask uses vertices outside the ground set")
    if 0 in dedup:
        return 0
    forced = 0
    for e in dedup:
        if e.bit_count() == 1:
            forced |= e
    edges = sorted(e for e in dedup if not e & forced)
    try:
        return _count(full & ~forced, edges, {})
    except RecursionError:
        raise BudgetExceeded(
            f"the exact count of {len(edges)} edges recursed deeper than "
            f"the interpreter's limit of {sys.getrecursionlimit()} frames; "
            f"refusing rather than estimating") from None


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
        return count_subsets_avoiding(H.num_vertices, edge_masks(H))
    if isinstance(H, LinkGraph):
        pos = {v: i for i, v in enumerate(sorted(H.vertices))}
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
    """Count by testing every subset mask; independent of the backtracking
    path, usable for cross-checks up to FILTER_VERTEX_CAP vertices."""
    return sum(int(kept.size) for kept in
               _filter_chunks(num_vertices, edge_masks, FILTER_VERTEX_CAP))


def independent_masks(G: Hypergraph, cap: int = FILTER_VERTEX_CAP):
    """All independent sets of G as an ascending uint64 array of masks in
    edge_masks' vertex order; refuses beyond `cap` vertices (at most 30)."""
    chunks = _filter_chunks(G.num_vertices, edge_masks(G), cap)
    return np.concatenate(list(chunks))


def defect_profile(G: Hypergraph, cls: int,
                   budget: int = FILTER_VERTEX_CAP) -> list:
    """profile[b] = number of independent sets I such that every 2-linked
    piece of I restricted to the class has order at most b, for b in
    0..|class|.  Computed by direct enumeration of independent sets."""
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
                            budget: int = FILTER_VERTEX_CAP
                            ) -> DefectClassCount:
    """Exact number of independent sets I for which every 2-linked piece of
    the trace of I on the given class has order at most b.

    Enumerates independent sets directly (budget-guarded); this keeps the
    count independent of the completion formula and the polymer machinery
    it is tested against.
    """
    if b < 0:
        raise InputError("defect bound b must be non-negative")
    profile = defect_profile(G, cls, budget)
    bound = min(b, G.sizes[cls])
    return DefectClassCount(cls=cls, bound=b, count=profile[bound])


def count_completions(G: Hypergraph, cls: int, T: Iterable) -> int:
    """Number of independent sets I with trace exactly T on the given class.

    Uses the closed formula: completions of T are independent sets of the
    link graph of T on N(T), times free choices outside the class and N(T).
    """
    G._check_class(cls)
    T = frozenset(G._check_vertex(v) for v in T)
    for v in T:
        if v.cls != cls:
            raise InputError(f"defect vertex {v} not in class {cls}")
    outside = G.num_vertices - G.sizes[cls]
    if not T:
        return 1 << outside
    L = G.link_graph(T)
    return count_independent_sets(L) << (outside - len(L.vertices))
