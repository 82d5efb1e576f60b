"""Brute-force and reference oracles used only by the tests.

Each one computes a quantity of the library a second, independent way:
the vectorized 2^|V| subset filter (independent-set counts, defect
counts and Def(b) verdicts), literal enumerations (Ursell functions over
edge subsets, clusters of an abstract polymer model), a transfer matrix
along a loose path, the independence polynomial of a path, a memoised
recursion for the compatibility sum, the per-root interval loop that
bounded the summability sums before `kp_terms` summed them on integers,
the term-by-term `Fraction` form of `truncated_log_xi`, the same-class
distance-two neighbours of a Vertex, the polymer enumeration on Vertex
sets, and 2-linked pieces and polymers built from Vertex sets.  The
Vertex-keyed incidence, the canonical sort of Vertex edges and the edge
masks from Vertex pairs are what Hypergraph kept before it stored
class-major ids.  It also holds helpers that only the tests read: the completion formula for a defect set,
independent-set counts and maximum matchings of link graphs, the
printed-formula pair sum and its gap, the polymer-count bound, the
expansion parameter alpha(k, t), a gadget with a loose 4-cycle by
construction, the loose-cycle definition checked on a witness, and the
JSON serialization that parse_json reads.
"""

from __future__ import annotations

import functools
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

import numpy as np
from mpmath import iv, mp, mpf

from hypercount import (BudgetExceeded, Hypergraph, InputError, LinkGraph,
                        Polymer, Vertex, class_mask, count_subsets_avoiding,
                        edge_masks, enumerate_polymers, gamma_k,
                        polymer_weight, ursell)


def graph_components(n: int, edges) -> int:
    """Number of connected components of a graph on vertices 0..n-1."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        parent[find(a)] = find(b)
    return len({find(i) for i in range(n)})


def loose_path_count(m: int) -> int:
    """Independent sets of conftest's loose path of m 3-edges, by a transfer
    matrix over the joints: an edge whose two joints are both in the set
    leaves its own vertex one choice (out), any other edge two."""
    out, inside = 1, 1  # sets over the joints so far, by the last joint
    for _ in range(m):
        out, inside = 2 * out + 2 * inside, 2 * out + inside
    return out + inside


def path_independence_polynomial(n: int, x: Fraction) -> Fraction:
    """Sum of x^|I| over the independent sets I of a path on n vertices, by
    the recurrence P_n = P_(n-1) + x P_(n-2) from P_(-1) = P_0 = 1."""
    before, last = Fraction(1), Fraction(1)
    for _ in range(n):
        before, last = last, last + x * before
    return last


# ----- the 2^|V| filter -------------------------------------------------------


FILTER_VERTEX_CAP = 24  # vertices the filter enumerates at most
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
    _check_filter_cap(G.num_vertices)
    return np.concatenate(list(_filter_chunks(G.num_vertices, edge_masks(G))))


def defect_count_by_filter(G: Hypergraph, cls: int, b: int) -> int:
    """`exact.count_with_defect_class` over the independent sets themselves:
    group them by their trace on the class, and keep the traces whose
    2-linked pieces all have order at most b."""
    traces = independent_masks(G) & np.uint64(class_mask(G, cls))
    values, counts = np.unique(traces, return_counts=True)
    order = list(G.vertices())
    total = 0
    for t, c in zip(values.tolist(), counts.tolist()):
        trace = [v for i, v in enumerate(order) if t >> i & 1]
        if all(len(p) <= b for p in two_linked_components(G, trace)):
            total += c
    return total


def most_in_every_class_by_filter(G: Hypergraph) -> int:
    """The largest m such that some independent set of G has at least m
    vertices in every class: `lab.check_def(G, b)` finds a violation
    exactly when m > b."""
    ind = independent_masks(G)
    least = np.full(ind.shape, G.num_vertices)
    for cls in range(G.k):
        least = np.minimum(least, np.bitwise_count(
            ind & np.uint64(class_mask(G, cls))))
    return int(least.max())


# ----- Ursell functions and abstract polymer models ---------------------------


def ursell_by_subgraphs(n: int, edges: Iterable) -> Fraction:
    """Literal spanning-connected-subgraph enumeration over all 2^|E| edge
    subsets of a connected graph.  Exponential in the edge count."""
    edges = sorted({tuple(sorted((int(a), int(b)))) for a, b in edges})
    assert graph_components(n, edges) == 1, "graph must be connected"
    total = 0
    m = len(edges)
    for pick in range(1 << m):
        chosen = [edges[i] for i in range(m) if pick >> i & 1]
        if graph_components(n, chosen) == 1:
            total += -1 if pick.bit_count() % 2 else 1
    return Fraction(total, math.factorial(n))


def enumerate_clusters_generic(items: Sequence, order_of: Callable,
                               incompatible: Callable, t: int) -> list:
    """Cluster multisets, as ((item index, multiplicity), ...) tuples, over an
    abstract polymer model given as a list of items, their orders, and an
    incompatibility predicate (which must also answer incompatible(x, x))."""
    items = list(items)
    clusters = []

    def connected(expanded):
        n = len(expanded)
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if incompatible(expanded[i], expanded[j])]
        return graph_components(n, edges) == 1

    def assign(i, budget, chosen):
        if i == len(items):
            if chosen:
                expanded = []
                for idx, m in chosen:
                    expanded.extend([items[idx]] * m)
                if connected(expanded):
                    clusters.append(tuple(chosen))
            return
        assign(i + 1, budget, chosen)
        o = order_of(items[i])
        for m in range(1, budget // o + 1):
            assign(i + 1, budget - m * o, chosen + [(i, m)])

    assign(0, t, [])
    return clusters


def truncated_log_generic(items: Sequence, order_of: Callable,
                          weight_of: Callable, incompatible: Callable,
                          t: int) -> Fraction:
    """Truncated log partition sum of an abstract polymer model: ordered
    cluster weights summed over the clusters of size at most t."""
    total = Fraction(0)
    for chosen in enumerate_clusters_generic(items, order_of, incompatible, t):
        length = sum(m for _, m in chosen)
        orderings = math.factorial(length)
        prod = Fraction(1)
        expanded = []
        for idx, m in chosen:
            orderings //= math.factorial(m)
            prod *= Fraction(weight_of(items[idx])) ** m
            expanded.extend([items[idx]] * m)
        n = len(expanded)
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if incompatible(expanded[i], expanded[j])]
        total += orderings * ursell(n, edges) * prod
    return total


# ----- Fraction forms of the integer engines ----------------------------------


def compatibility_sum_fraction(weights: Sequence[Fraction],
                               neighborhoods: Sequence[frozenset]) -> Fraction:
    """The compatibility sum by an independent recursion, with one Fraction
    operation per term: branch on the highest index of each component of
    the incompatibility graph, memoised by mask.  It shares no code with
    the site sweep of `polymers.compatibility_sum`."""
    n = len(weights)
    incompat = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if neighborhoods[i] & neighborhoods[j]:
                incompat[i] |= 1 << j
                incompat[j] |= 1 << i
    memo = {}

    def components(mask):
        comps = []
        rest = mask
        while rest:
            comp = frontier = rest & -rest
            while frontier:
                i = frontier.bit_length() - 1
                frontier &= ~(1 << i)
                grow = incompat[i] & rest & ~comp
                comp |= grow
                frontier |= grow
            comps.append(comp)
            rest &= ~comp
        return comps

    def total(mask):
        if mask == 0:
            return Fraction(1)
        if mask not in memo:
            result = Fraction(1)
            for comp in components(mask):
                i = comp.bit_length() - 1
                skip = total(comp & ~(1 << i))
                take = weights[i] * total(comp & ~(1 << i) & ~incompat[i])
                result *= skip + take
            memo[mask] = result
        return memo[mask]

    return total((1 << n) - 1)


def site_order_by_rescan(near: Sequence[int]) -> list:
    """The partition function's site order, by least boundary growth, with
    the boundary rescanned at every step: O(n^2) in the n indices, where
    `polymers._site_order` keeps each count in a heap.  near[i] is the mask
    of i's neighbours.  The boundary holds the unnumbered neighbours of the
    numbered indices; next comes the boundary index with the fewest
    neighbours neither numbered nor on the boundary, ties to the lowest
    index, or the lowest unnumbered index when the boundary is empty."""
    numbered = boundary = 0
    order = []
    for _ in near:
        seen = numbered | boundary
        if boundary:
            j = min((i for i in range(len(near)) if boundary >> i & 1),
                    key=lambda i: ((near[i] & ~seen).bit_count(), i))
        else:
            j = (~numbered & (numbered + 1)).bit_length() - 1
        order.append(j)
        numbered |= 1 << j
        boundary = (boundary | near[j]) & ~numbered
    return order


def kp_bounds_by_intervals(G: Hypergraph, cls: int, b: int,
                           root=None) -> list:
    """(lhs_lower, lhs_upper, holds) at each root of `kp_terms`, in its
    order, by 160-bit interval arithmetic throughout: per root and order,
    the exact weight sum W_s as an interval times the interval
    exp(f_s + g_s), summed with outward rounding; the float end points are
    rounded outward once more, and `holds` compares the interval's upper
    end with the lower end of 1/r^3."""
    r = G.regular_degree()
    polymers = enumerate_polymers(G, cls, b, root)
    through = {i: [] for i in (range(G.sizes[cls]) if root is None
                               else [root.idx])}
    for p in polymers:
        for i in p.indices:
            if i in through:
                through[i].append(p)

    def interval(q: Fraction):
        return iv.mpf(q.numerator) / iv.mpf(q.denominator)

    prec, iv.prec = iv.prec, 160
    try:
        k = G.k
        top = iv.mpf(2) ** (k - 1)
        log_gamma = iv.log(top) - iv.log(top - 1)
        boost = {}
        for s in {p.order for p in polymers}:
            f = Fraction(k - 1, r) * s
            g = log_gamma * r * iv.log(iv.mpf(2 * s))
            boost[s] = iv.exp(interval(f) + g)
        rhs_iv = interval(Fraction(1, r ** 3))
        results = []
        for found in through.values():
            by_order = {}
            for p in found:
                by_order.setdefault(p.order, []).append(p.dyadic_weight)
            lhs = iv.mpf(0)
            for s, pairs in sorted(by_order.items()):
                e = max(d for _, d in pairs)
                num = sum(m << (e - d) for m, d in pairs)
                lhs += iv.mpf(num) / iv.mpf(1 << e) * boost[s]
            results.append((math.nextafter(float(lhs.a), -math.inf),
                            math.nextafter(float(lhs.b), math.inf),
                            bool(lhs.b <= rhs_iv.a)))
    finally:
        iv.prec = prec
    return results


def log_series_fraction(coeffs: Sequence[Fraction], t: int) -> list:
    """[z^0..z^t] of log p(z) for p(z) = sum of coeffs[s] z^s with
    coeffs[0] = 1, by the Newton recurrence
    s l_s = s a_s - sum over 0 < i < s of i l_i a_(s-i)."""
    logs = [Fraction(0)] * (t + 1)
    for s in range(1, t + 1):
        acc = s * coeffs[s]
        for i in range(1, s):
            acc -= i * logs[i] * coeffs[s - i]
        logs[s] = acc / s
    return logs


def truncated_log_xi_fraction(G: Hypergraph, cls: int, t: int) -> Fraction:
    """`clusters.truncated_log_xi` with Fraction coefficients: per polymer C
    of order <= t, the log series of Xi_C(z) times the alternating binomial
    sums in d_C."""
    polymers = enumerate_polymers(G, cls, t)
    weights = {p.vertices: polymer_weight(G, p) for p in polymers}
    adj = {v: distance_two_neighbors(G, v) for v in G.class_vertices(cls)}
    total = Fraction(0)
    for p in polymers:
        C = p.vertices
        c = len(C)
        near = [sum(1 << j for j, u in enumerate(C) if u in adj[v]) for v in C]
        subset_weight = [Fraction(1)] * (1 << c)
        coeffs = [Fraction(1)] + [Fraction(0)] * t
        for mask in range(1, 1 << c):
            comp = frontier = mask & -mask
            while frontier:
                i = frontier.bit_length() - 1
                frontier &= ~(1 << i)
                grow = near[i] & mask & ~comp
                comp |= grow
                frontier |= grow
            piece = tuple(C[i] for i in range(c) if comp >> i & 1)
            subset_weight[mask] = weights[piece] * subset_weight[mask ^ comp]
            coeffs[mask.bit_count()] += subset_weight[mask]
        logs = log_series_fraction(coeffs, t)
        d = len(frozenset().union(*(adj[v] for v in C)).difference(C))
        for s in range(c, t + 1):
            total += logs[s] * sum((-1) ** j * math.comb(d, j)
                                   for j in range(s - c + 1))
    return total


# ----- the Vertex forms of an instance ------------------------------------------


@functools.lru_cache(maxsize=64)
def incidence(G: Hypergraph) -> dict:
    """Vertex -> tuple of the positions in G.edges of its edges (empty for
    an isolated vertex)."""
    inc = {v: [] for v in G.vertices()}
    for i, e in enumerate(G.edges):
        for v in e:
            inc[v].append(i)
    return {v: tuple(ix) for v, ix in inc.items()}


def canonical_edges(k: int, edges: Iterable[Iterable]) -> tuple:
    """The edges, given as (class, index) pairs, as sorted tuples of Vertex
    in sorted order, after checking that each meets every class once."""
    canon = sorted(tuple(sorted(Vertex(*v) for v in e)) for e in edges)
    assert all([v.cls for v in e] == list(range(k)) for e in canon)
    return tuple(canon)


def vertex_edge_masks(G: Hypergraph) -> list:
    """exact.edge_masks from the Vertex edges: bit i is list(G.vertices())[i]."""
    offsets = [sum(G.sizes[:c]) for c in range(G.k)]
    return [sum(1 << (offsets[v.cls] + v.idx) for v in e) for e in G.edges]


# ----- polymer enumeration on vertex sets ---------------------------------------


def distance_two_neighbors(G: Hypergraph, v) -> frozenset:
    """Same-class vertices u != v whose neighbourhood meets that of v, by
    walking the Vertex incidence: the class-cls vertex of every edge
    through a neighbour of v."""
    v = G._check_vertex(v)
    inc = incidence(G)
    out = set()
    for i in inc[v]:
        for x in G.edges[i]:
            if x != v:
                out.update(G.edges[j][v.cls] for j in inc[x])
    out.discard(v)
    return frozenset(out)



def _connected_sets(adj, start, max_size, barred):
    """Yield every connected set containing `start` and no vertex of
    `barred` other than `start`, exactly once, by the exclusive-neighbourhood
    scheme on Vertex sets: a vertex enters the extension pool the first time
    it becomes adjacent to the current set, and is permanently retired at
    the level where it was branched on."""
    first = sorted(u for u in adj[start] if u not in barred)
    yield frozenset([start])
    stack = [([start], first, set(first) | {start})]
    while stack:
        sub, pool, closed = stack[-1]
        if len(sub) == max_size or not pool:
            stack.pop()
            continue
        w = pool.pop(0)
        fresh = sorted(u for u in adj[w]
                       if u not in barred and u not in closed)
        grown = sub + [w]
        yield frozenset(grown)
        stack.append((grown, pool + fresh, closed | set(fresh) | {w}))


def polymer_vertex_sets(G: Hypergraph, cls: int, b: int, root=None) -> list:
    """The sorted vertex tuples of the 2-linked sets of the class with
    1 <= |S| <= b (and root in S when given), grown on
    `distance_two_neighbors` from each set's least vertex among
    the roots, in growth order."""
    adj = {v: distance_two_neighbors(G, v) for v in G.class_vertices(cls)}
    roots = G.class_vertices(cls) if root is None else [root]
    out, barred = [], set()
    for start in roots:
        barred.add(start)
        out += [tuple(sorted(s))
                for s in _connected_sets(adj, start, b, barred)]
    return out


# ----- 2-linked pieces and polymers on vertex sets ----------------------------


def two_linked_components(G: Hypergraph, T: Iterable) -> list:
    """Partition of a single-class set T into its 2-linked pieces.

    Two vertices land in the same piece iff they are connected within T
    through chains of shared neighbours.  Pieces are returned sorted by
    their minimum vertex; their neighbourhoods are pairwise disjoint.
    """
    T = sorted({Vertex(*v) for v in T})
    if len({v.cls for v in T}) > 1:
        raise InputError("2-linked pieces need T within a single class")
    tset = set(T)
    seen = set()
    comps = []
    for start in T:
        if start in seen:
            continue
        comp = {start}
        stack = [start]
        while stack:
            v = stack.pop()
            for u in distance_two_neighbors(G, v):
                if u in tset and u not in comp:
                    comp.add(u)
                    stack.append(u)
        seen |= comp
        comps.append(frozenset(comp))
    nbhds = [G.neighborhood(c) for c in comps]
    for a in range(len(nbhds)):
        for b in range(a + 1, len(nbhds)):
            assert not nbhds[a] & nbhds[b], "piece neighbourhoods overlap"
    return comps


def is_two_linked(G: Hypergraph, S: Iterable) -> bool:
    return len(two_linked_components(G, S)) == 1


def make_polymer(G: Hypergraph, vertices: Iterable) -> Polymer:
    """The polymer on a 2-linked vertex set, a repeated vertex counted once,
    weighed through its link graph: |IS(L)| / 2^|N(S)| as a reduced (m, e).
    Refuses a set that is empty or not 2-linked with InputError."""
    verts = tuple(sorted({Vertex(*v) for v in vertices}))
    if not is_two_linked(G, verts):
        raise InputError(f"{[str(v) for v in verts]} is not 2-linked")
    nb = G.neighborhood(verts)
    count = count_link_graph(G.link_graph(verts))
    z = (count & -count).bit_length() - 1
    return Polymer(verts[0].cls, tuple(v.idx for v in verts), len(nb),
                   (count >> z, len(nb) - z), G)


# ----- helpers read only by the tests -------------------------------------------


def count_completions(G: Hypergraph, cls: int, T: Iterable) -> int:
    """Number of independent sets I with trace exactly T on the given class.

    Uses the closed formula: completions of T are independent sets of the
    link graph of T on N(T), times free choices outside the class and N(T).
    """
    T = frozenset(T)
    if not T <= set(G.class_vertices(cls)):
        raise InputError(f"defect set not within class {cls}")
    outside = G.num_vertices - G.sizes[cls]
    if not T:
        return 1 << outside
    L = G.link_graph(T)
    return count_link_graph(L) << (outside - len(L.vertices))


def count_link_graph(L: LinkGraph) -> int:
    """Exact number of subsets of L's vertices containing no edge of L."""
    pos = {v: i for i, v in enumerate(L.vertices)}
    masks = [sum(1 << pos[v] for v in e) for e in L.edges]
    return count_subsets_avoiding(len(pos), masks)


def max_matching_size(L: LinkGraph) -> int:
    """Maximum number of pairwise-disjoint edges, by branch and bound."""
    order = sorted(L.vertices)
    pos = {v: i for i, v in enumerate(order)}
    masks = sorted({sum(1 << pos[v] for v in e) for e in L.edges})
    best = [0]

    def greedy(avail, edges):
        used = 0
        size = 0
        for e in edges:
            if not e & used and (e & avail) == e:
                used |= e
                size += 1
        return size

    def upper(avail, edges):
        live = sum(1 for e in edges if (e & avail) == e)
        if not live:
            return 0
        width = max(1, L.uniformity)
        return min(live, bin(avail).count("1") // width)

    def search(avail, edges, size):
        best[0] = max(best[0], size)
        live = [e for e in edges if (e & avail) == e]
        if not live:
            return
        if size + upper(avail, live) <= best[0]:
            return
        e = live[0]
        # take the first live edge, or discard it
        search(avail & ~e, live[1:], size + 1)
        search(avail, live[1:], size)

    avail = (1 << len(order)) - 1
    best[0] = greedy(avail, masks)
    search(avail, masks, 0)
    return best[0]


def polymer_count_bound(k: int, r: int, s: int):
    """Interval enclosure of e * ((k-1) e r^2)^(s-1), the exact upper bound
    on the number of 2-linked s-sets through a fixed vertex."""
    e = iv.exp(iv.mpf(1))
    return e * (iv.mpf((k - 1) * r * r) * e) ** (s - 1)


def polymer_count_bound_holds(count: int, k: int, r: int, s: int) -> bool:
    """Outward-rounded comparison: True only when the bound certainly holds."""
    return bool(iv.mpf(count) <= polymer_count_bound(k, r, s).a)


def ordered_pair_sum_printed(k: int, n: int, r: int) -> Fraction:
    """Aggregate weight of ordered singleton-pair clusters using the
    printed count n(k-1)r^2."""
    return Fraction(-1, 2) * n * (k - 1) * r * r * gamma_k(k) ** (-2 * r)


def expected_t2_delta(k: int, n: int, r: int) -> Fraction:
    """The printed-vs-corrected gap of closed_form_t2 in closed form."""
    return Fraction((k - 1) * r - 1, 2) * n * gamma_k(k) ** (-2 * r)


@dataclass(frozen=True)
class AlphaBound:
    """Expansion slack parameter: half the minimum of a size-decaying branch
    and a size-free weight-entropy branch; always strictly inside (0, 1)."""

    k: int
    t: int
    decay_branch: float
    balance_branch: float

    @property
    def value(self) -> float:
        return min(self.decay_branch, self.balance_branch)


def alpha_kt(k: int, t: int) -> AlphaBound:
    if k < 2:
        raise InputError("alpha requires k >= 2")
    if t < 1:
        raise InputError("alpha requires t >= 1")
    with mp.workdps(50):
        gamma = mpf(1 << (k - 1)) / mpf((1 << (k - 1)) - 1)
        log_gamma = mp.log(gamma)
        decay = mp.mpf("0.5") * (log_gamma / mp.log(2)) / mp.exp(2 * t)
        balance = mp.mpf("0.5") * (k - 1) * (1 - mp.log(2)) * log_gamma \
            / (mp.log((1 << (k - 1)) - 1) + log_gamma)
        return AlphaBound(k=k, t=t, decay_branch=float(decay),
                          balance_branch=float(balance))


# ----- loose cycles and the JSON mirror ------------------------------------------


def loose_cycle_gadget(k: int, seed: int = 0, padding: int = 0) -> Hypergraph:
    """A four-edge configuration in which two same-class vertices share two
    neighbours, so the instance contains a loose 4-cycle by construction.

    Classes: class 0 holds the two sharing vertices, class 1 the two shared
    neighbours, remaining classes hold one private vertex per edge (plus
    `padding` isolated vertices per class, shuffled by seed).
    """
    if k < 3:
        raise InputError("the gadget needs k >= 3")
    sizes = [2, 2] + [4] * (k - 2)
    edges = []
    for j, (a, b) in enumerate([(0, 0), (0, 1), (1, 1), (1, 0)]):
        e = [(0, a), (1, b)] + [(c, j) for c in range(2, k)]
        edges.append(e)
    if padding:
        sizes = [s + padding for s in sizes]
    rng = random.Random(seed)
    perms = [list(rng.sample(range(s), s)) for s in sizes]
    shuffled = [[(c, perms[c][i]) for c, i in e] for e in edges]
    return Hypergraph.build(k, sizes, shuffled)


def is_loose_cycle(G: Hypergraph, seq: Sequence) -> bool:
    """Check a vertex sequence against the loose-cycle definition."""
    km1 = G.k - 1
    if len(seq) < 3 * km1 or len(seq) % km1 != 0:
        return False
    if len(set(seq)) != len(seq):
        return False
    length = len(seq) // km1
    edge_sets = {frozenset(e) for e in G.edges}
    blocks = set()
    for i in range(length):
        block = frozenset(seq[(km1 * i + j) % len(seq)] for j in range(km1 + 1))
        if block not in edge_sets:
            return False
        blocks.add(block)
    return len(blocks) == length


def serialize_json(G: Hypergraph) -> str:
    """The JSON mirror of the text format, which formats.parse_json reads."""
    return json.dumps({
        "k": G.k,
        "sizes": list(G.sizes),
        "edges": [[[v.cls, v.idx] for v in e] for e in G.edges],
    })
