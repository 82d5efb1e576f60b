"""Exact independent-set counting for uniform hypergraphs.

This module is the ground-truth oracle the rest of the package is judged
against, so everything here is exact integer arithmetic.  The main counter
works on bitmask set systems.  A vertex in exactly one edge is private to
it, so an edge with p private vertices contributes a factor 2^p, or
2^p - 1 when all of its shared vertices are chosen; an edge with no shared
vertex is multiplied out first.  A system of at most DIRECT_SHARED shared
vertices, those in two or more edges, is summed directly over the at most
8 subsets of them, as the polymer weigher's small link graphs mostly
are.  Otherwise one frontier sweep visits the shared vertices once each,
in a greedy order that keeps few edges open, and keeps a table from
partial states to integer counts; more than STATE_CAP live states refuse
with BudgetExceeded.  A Hypergraph of more than
hypergraph.COUNT_VERTEX_CAP vertices refuses at construction, and
`count_subsets_avoiding` reads the same cap at call time for its raw
vertex count.  `count_with_defect_class` counts the independent sets whose
trace on one class has only small 2-linked pieces, as a product over the
class's 2-linked components, and refuses above DEFECT_VERTEX_CAP
vertices.  All three caps are module constants.  The counts of a
Hypergraph read its edge masks (`G.edge_masks`, bit x the vertex of
class-major id x) and class masks (`G.class_mask(cls)`), which the
instance builds and keeps."""

from __future__ import annotations

from typing import Sequence

from .errors import BudgetExceeded, InputError
from . import hypergraph
from .hypergraph import Hypergraph, linked_piece

# live states of the frontier sweep before it refuses; a system of at most
# DIRECT_SHARED shared vertices is summed without the sweep and never
# refuses, though its sweep would hold at most 2^DIRECT_SHARED states
STATE_CAP = 1 << 18

DIRECT_SHARED = 3  # shared vertices up to which a count skips the sweep

# vertices above which defect-count refuses and check def's exhaustive
# search gives way to a randomized one
DEFECT_VERTEX_CAP = 24


# ----- frontier sweep ---------------------------------------------------------


def _sweep(parts: list, private: list) -> int:
    """Independent-set count of edges given by their parts on the shared
    vertices (each non-empty) and their private vertex counts p: the sum
    over the choices of shared vertices of the product over the edges of
    2^p, or 2^p - 1 when all of the edge's shared vertices are chosen.

    The shared vertices are visited once each in a greedy order: next
    comes the one that opens the fewest edges minus the edges it closes,
    ties going first to a vertex on an already-started edge, then to the
    lowest bit; a heap of (rank, vertex) entries yields it, skipping stale
    ones.  So the order depends on the set of edges, not on their
    order.  A state is the set of edges that are started, unfinished and
    fully chosen so far, as a bitmask over slots that an edge holds from
    its first shared vertex to its last; each state maps to its integer
    count.  Refuses with BudgetExceeded when more than STATE_CAP states are
    live."""
    from heapq import heapify, heappop, heappush  # only the sweep needs it

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
    # (rank, vertex) entries; each update lowers a rank and pushes anew, so
    # only a vertex's latest entry, until it is popped, matches its rank
    heap = [(r, v) for v, r in rank.items()]
    heapify(heap)
    total = len(rank)
    rest = list(parts)  # each edge's unvisited shared vertices
    slot = [0] * len(parts)  # a started, unfinished edge's bit in the state
    used = 0
    states = {0: 1}
    for swept in range(1, total + 1):
        r, v = heappop(heap)  # the lowest bit of the lowest rank
        while rank[v] != r:
            r, v = heappop(heap)
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
                    r = rank[u] = r - drop - (r & touch)
                    heappush(heap, (r, u))
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


def _direct(shared: int, parts: list, private: list) -> int:
    """`_sweep`'s count summed directly over the subsets X of the shared
    vertices `shared`: the sum over X of the product over the edges of 2^p,
    or 2^p - 1 when all of the edge's shared vertices lie in X.  Keeps no
    state table, so STATE_CAP does not apply; the work is 2^|shared| times
    the number of edges."""
    total = X = 0
    while True:
        out = shared & ~X
        term, shift = 1, 0
        for part, p in zip(parts, private):
            if part & out:
                shift += p
            else:
                term *= (1 << p) - 1
        total += term << shift
        if X == shared:
            return total
        X = (X - shared) & shared  # the next subset of shared, increasing


def _count_covered(edges: list) -> tuple:
    """The number of subsets of the union of the non-empty edge masks that
    contain none of them, and that union.  An edge sharing no vertex with
    another multiplies the count by 2^p - 1, p its vertex count; the others
    go, as their parts on the shared vertices and their private vertex
    counts, to `_direct` when there are at most DIRECT_SHARED shared
    vertices and to the sweep, which alone can refuse over STATE_CAP,
    otherwise.  A repeated edge is fully shared, p = 0, so its copies
    agree."""
    covered = shared = 0
    for e in edges:
        shared |= covered & e
        covered |= e
    count = 1
    parts, private = [], []
    for e in edges:
        part = e & shared
        if part:
            parts.append(part)
            private.append((e ^ part).bit_count())
        else:
            count *= (1 << e.bit_count()) - 1
    if shared.bit_count() <= DIRECT_SHARED:
        return count * _direct(shared, parts, private), covered
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


def count_independent_sets(G: Hypergraph) -> int:
    """Exact number of vertex subsets of G containing no edge as a subset."""
    return count_subsets_avoiding(G.num_vertices, G.edge_masks)


# ----- defect-restricted counts -----------------------------------------------


def count_with_defect_class(G: Hypergraph, cls: int, b: int) -> int:
    """Exact number of independent sets I for which every 2-linked piece of
    the trace T of I on the given class has order at most b.

    The sets I with trace T are T plus the subsets of the other classes
    that contain no residue e - T of an edge e through T.  Different
    2-linked components C of the class have disjoint neighbourhoods N(C),
    and each piece of T lies in one of them, so the count is 2^(vertices
    outside the class on no edge) times a product over the components of
    the sum, over the passing traces T_C of C, of the subsets of N(C) with
    no residue of an edge through T_C.  For a component of order at most b
    every trace passes, and that sum counts the independent sets of the
    edges through C on C and N(C): one count_subsets_avoiding call.  Any
    other component walks its passing traces, each grown from a passing
    one by a vertex of higher index: a piece only grows with T, so no
    superset of a failing trace passes.  Components and pieces are
    flood-filled by linked_piece on the distance-two masks of
    Hypergraph.class_table, the table the polymer enumeration grows on;
    the independent reference the count is tested against is the filter
    over all independent sets in the tests' oracles.  Refuses above
    DEFECT_VERTEX_CAP vertices."""
    if b < 0:
        raise InputError("defect bound b must be non-negative")
    outside = ~G.class_mask(cls)
    n = G.num_vertices
    if n > DEFECT_VERTEX_CAP:
        raise BudgetExceeded(
            f"the defect count has {n} vertices, over the cap of "
            f"{DEFECT_VERTEX_CAP}; refusing rather than estimating")
    positions, near, _ = G.class_table(cls)
    through = [[G.edge_masks[j] for j in js] for js in positions]

    count, covered = 1, 0  # covered: the neighbourhood of the class
    left = (1 << len(near)) - 1
    while left:
        comp = linked_piece(near, left, left.bit_length() - 1)
        left ^= comp
        members = [i for i in range(len(near)) if comp >> i & 1]
        edges = [m for i in members for m in through[i]]
        around = 0
        for m in edges:
            around |= m & outside
        covered |= around
        if len(members) <= b:
            count *= count_subsets_avoiding(n, edges) >> (
                n - len(members) - around.bit_count())
            continue
        total = 0
        stack = [(0, 0, [])]  # a passing trace, its least new member, residues
        while stack:
            T, start, res = stack.pop()
            total += count_subsets_avoiding(n, res)
            for pos in range(start, len(members)):
                i = members[pos]
                grown = T | 1 << i
                if linked_piece(near, grown, i).bit_count() <= b:
                    stack.append((grown, pos + 1, res + [
                        m & outside for m in through[i]]))
        # each count leaves the vertices outside N(C) free
        count *= total >> n - around.bit_count()
    return count << n - len(near) - covered.bit_count()
