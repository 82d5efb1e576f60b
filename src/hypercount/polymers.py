"""Polymers: 2-linked single-class vertex sets, their exact weights, the
compatibility relation, exact partition functions, and the
convergence-condition sums at each root, taken over the same enumeration.

The layer runs on class indices.  The instance's table of the class
(`Hypergraph.class_table`) holds for each class index the edges through
it and its distance-two neighbours, both as one mask of class indices and
as an ascending list.  Connected sets grow on the masks, and each is
weighed where it is built: the residues of the edges through S go
straight to the exact counter, whose cover is N(S).  Every weight
|IS(link graph)| / 2^|N(S)| is an integer m over a power of two 2^e.  A
`Polymer` is a lean record of the class, the sorted class indices,
D = |N(S)| and the reduced (m, e).  Compatibility reads the same masks:
distinct polymers S, T of one class have meeting neighbourhoods iff T
meets S or S's distance-two neighbours.  So the partition function sweeps
the class indices once, as sites numbered by least boundary growth on the
table's lists, each polymer given as lists of the sites it covers and
reaches, read off the same lists, and placed at its lowest covered site,
and a state holds a bit only for each site still live.  The exact sums
run on these integers and build one Fraction per result; every identity
tested downstream holds bit-for-bit.  The convergence-condition bounds
are exact dyadic sums too: mpmath only encloses exp(f_s + g_s) once per
polymer order.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterable, NamedTuple, Optional, Sequence

from . import exact
from .errors import BudgetExceeded, InputError
from .exact import count_independent_sets  # noqa: F401 (bench/tracing.py)
from .hypergraph import Hypergraph, Vertex

# polymers one enumeration may list before it refuses
MAX_POLYMERS = 20_000


class Polymer:
    """A 2-linked subset S of one partition class of `graph`: the class,
    the sorted class indices of S, D = |N(S)| and the exact weight
    w(S) = m / 2^e as a reduced (m, e).

    The vertices are derived on demand.  Equality, hashing and ordering
    are by the class and the index tuple, which order as the sorted vertex
    tuple, so streams of polymers have a reproducible canonical order.
    """

    __slots__ = ("cls", "indices", "neighborhood_size", "dyadic_weight",
                 "graph")

    def __init__(self, cls: int, indices: tuple, neighborhood_size: int,
                 dyadic_weight: tuple, graph: Hypergraph):
        self.cls = cls
        self.indices = indices
        self.neighborhood_size = neighborhood_size
        self.dyadic_weight = dyadic_weight
        self.graph = graph

    @property
    def vertices(self) -> tuple:
        return tuple(Vertex(self.cls, i) for i in self.indices)

    @property
    def weight(self) -> Fraction:
        """Exact weight: independent sets of the link graph over 2^|N(S)|."""
        m, e = self.dyadic_weight
        return Fraction(m, 1 << e)

    @property
    def order(self) -> int:
        return len(self.indices)

    def __eq__(self, other):
        if not isinstance(other, Polymer):
            return NotImplemented
        return self.cls == other.cls and self.indices == other.indices

    def __hash__(self):
        return hash((self.cls, self.indices))

    def __lt__(self, other: "Polymer"):
        return (self.cls, self.indices) < (other.cls, other.indices)

    def __repr__(self) -> str:
        return (f"Polymer(cls={self.cls}, indices={self.indices}, "
                f"neighborhood_size={self.neighborhood_size}, "
                f"dyadic_weight={self.dyadic_weight})")

    def __str__(self) -> str:
        return "{" + ",".join(str(v) for v in self.vertices) + "}"


def compatible(S: Polymer, T: Polymer) -> bool:
    """Distinct polymers are compatible iff their neighbourhoods are
    disjoint, that is, iff T misses S and the distance-two neighbours of S.
    Every polymer is incompatible with itself, even when N(S) is empty (an
    isolated vertex), so compatible families are sets of polymers.  Refuses
    polymers of different classes or instances with InputError."""
    G = S.graph
    if S.cls != T.cls or T.graph is not G and T.graph != G:
        raise InputError(f"polymers {S} and {T} are not of one class of one "
                         f"instance")
    _, near, _ = G.class_table(S.cls)
    reach = 0  # S's class indices and their distance-two neighbours
    for i in S.indices:
        reach |= near[i] | 1 << i
    return not reach & sum(1 << j for j in T.indices)


# ----- connected sets in the distance-two structure ----------------------------


def _connected_sets(near, start, max_size, barred):
    """Yield every connected set of class indices containing `start` and no
    index of the mask `barred` other than `start`, exactly once, as a tuple.

    Growth follows the exclusive-neighbourhood scheme: an index enters the
    extension pool the first time it becomes adjacent to the current set,
    and is permanently retired at the level where it was branched on.  The
    growth path is an explicit stack of [set, pool, closed] levels, the
    last two masks, so its depth is not bounded by the recursion limit.
    """
    yield (start,)
    closed = barred | 1 << start
    pool = near[start] & ~closed
    stack = [[(start,), pool, closed | pool]]
    while stack:
        level = stack[-1]
        sub, pool, closed = level
        if len(sub) == max_size or not pool:
            stack.pop()
            continue
        w = pool & -pool
        level[1] = pool = pool ^ w
        i = w.bit_length() - 1
        fresh = near[i] & ~closed
        grown = sub + (i,)
        yield grown
        stack.append([grown, pool | fresh, closed | fresh])


def refuse_cap(cap: int, items: str = "polymers") -> BudgetExceeded:
    return BudgetExceeded(
        f"at least {cap + 1} {items} exceed the cap of {cap}; "
        f"refusing rather than truncating")


def enumerate_polymers(G: Hypergraph, cls: int, b: int,
                       root: Optional[Vertex] = None) -> list:
    """All 2-linked S within the class with 1 <= |S| <= b (and root in S when
    given), each exactly once, sorted lexicographically.  b = 0 denotes the
    empty model.  Each set is grown from its least vertex among the roots
    (the class, or the one root), so no root at or below the start may
    join.  Generation stops at MAX_POLYMERS + 1 sets and refuses with
    BudgetExceeded rather than truncating."""
    G._check_class(cls)
    roots = range(G.sizes[cls])
    if b < 0:
        raise InputError("polymer order bound b must be non-negative")
    if root is not None:
        root = G._check_vertex(root)
        if root.cls != cls:
            raise InputError(f"root {root} not in class {cls}")
        roots = [root.idx]
    if b == 0:
        return []
    _, near, _ = G.class_table(cls)
    cap = MAX_POLYMERS
    sets, barred = [], 0
    for start in roots:
        barred |= 1 << start
        sets += itertools.islice(_connected_sets(near, start, b, barred),
                                 cap + 1 - len(sets))
        if len(sets) > cap:
            raise refuse_cap(cap)
    return _weighed(G, cls, sets)


def _weighed(G: Hypergraph, cls: int, sets: Iterable) -> list:
    """The sets of class indices as Polymers, sorted, each weighed as a
    reduced (m, e), w(S) = m / 2^e: its link graph's edges, the residues
    e - e[cls] of the edges e through S, are counted over the vertices
    they cover, which are N(S)."""
    through, _, _ = G.class_table(cls)
    masks, outside = G._edge_masks, ~exact.class_mask(G, cls)
    out = []
    for idx in sorted(tuple(sorted(s)) for s in sets):
        count, cover = exact._count_covered(
            [masks[j] & outside for i in idx for j in through[i]])
        D = cover.bit_count()
        z = (count & -count).bit_length() - 1
        out.append(Polymer(cls, idx, D, (count >> z, D - z), G))
    return out


def polymer_weight(G: Hypergraph, S: Polymer) -> Fraction:
    """The weight that S carries, as a Fraction."""
    return S.weight


# ----- exact partition function ------------------------------------------------


def _capped(items, nxt: dict, cap: int, p: int, n: int):
    """The (state, count) pairs of `items`, one at a time while `nxt` holds
    at most `cap` states; once it holds more, before the next pair or after
    the last, refuses with BudgetExceeded, naming site p + 1 of n."""
    for item in items:
        if len(nxt) > cap:
            break
        yield item
    if len(nxt) > cap:
        raise BudgetExceeded(
            f"the compatibility sum held {len(nxt)} live states at site "
            f"{p + 1} of {n}, over the cap of {cap}; refusing rather than "
            f"estimating")


def compatibility_sum(weights: Sequence[tuple], covers: Sequence,
                      reaches: Sequence) -> Fraction:
    """Sum over all families of pairwise-compatible items of the product of
    their weights (empty family contributes 1); the weights are (m, e)
    pairs, w = m / 2^e with e >= 0.  Item j covers the sites (integers
    >= 0) in covers[j] and reaches those in reaches[j], which holds
    covers[j]; each lists its sites in any order, repeats allowed.  j is
    incompatible with i iff covers[j] meets reaches[i], a symmetric
    relation, so every item is incompatible with itself.  An empty cover
    is refused with InputError.

    One sweep visits the sites 0..n-1 in ascending order, n - 1 the last
    covered site, and places each item at its lowest covered site p.  A
    state is the set of later sites that the items placed so far reach;
    each state maps to its integer count.  A site holds a bit of the state
    only while it can be live: from the first step whose placed items
    reach it to its own step, when the bit is freed; free bits are taken
    lowest first, so a state is as wide as the most sites live at once,
    and callers number near sites closely to keep that small.  So a
    reached site s gets a bit only when p < s < n: sites up to p are
    swept, and those past n - 1 block nothing.  At a site in the state
    nothing can be placed; otherwise each item placed there whose covered
    sites above p miss the state may join.
    Each weight m_i / 2^e_i is rewritten over the common 2^E, E the largest
    e_i, so after p sites every count is an integer over 2^(E p) and one
    Fraction is built at the end.  Refuses with BudgetExceeded once more
    than exact.STATE_CAP states are live; a step whose states, times one
    plus the items placed there, stay within the cap is not checked.
    """
    E = max((e for _, e in weights), default=0)
    for j, cover in enumerate(covers):
        if not cover:
            raise InputError(f"compatibility sum item {j} covers no site")
    n = max((max(cover) + 1 for cover in covers), default=0)
    placed = [[] for _ in range(n)]  # site -> the items placed there
    for (m, e), cover, reach in zip(weights, covers, reaches):
        placed[min(cover)].append((cover, reach, m << (E - e)))
    cap = exact.STATE_CAP
    slot = [0] * n  # a live site's bit in the state
    used = 0  # the bits of the live sites
    states = {0: 1}
    for p, here in enumerate(placed):
        bit = slot[p]
        used ^= bit
        # (bits of the other covered sites, bits of the reached later
        # sites, weight * 2^E) of each item placed here
        group = []
        for cover, reach, num in here:
            bits = 0
            for s in reach:
                if p < s < n:
                    if not slot[s]:  # s goes live on the lowest free bit
                        slot[s] = ~used & (used + 1)
                        used |= slot[s]
                    bits |= slot[s]
            rest = 0
            for s in cover:
                if s > p:
                    rest |= slot[s]
            group.append((rest, bits, num))
        nxt = {}
        items = states.items()
        if len(states) * (1 + len(group)) > cap:
            items = _capped(items, nxt, cap, p, n)
        for key, count in items:
            if key & bit:  # reached: nothing is placed here
                key ^= bit
                nxt[key] = nxt.get(key, 0) + (count << E)
                continue
            nxt[key] = nxt.get(key, 0) + (count << E)
            for rest, reach, num in group:
                if not key & rest:
                    joined = key | reach
                    nxt[joined] = nxt.get(joined, 0) + count * num
        states = nxt
    return Fraction(sum(states.values()), 1 << E * n)


def _site_order(adj: Sequence[list]) -> list:
    """The indices 0..len(adj)-1 in the order that the partition function
    numbers them as sites, adj[i] listing the neighbours of i (a symmetric
    relation), by least boundary growth.  The boundary is the set of
    unnumbered neighbours of the indices numbered so far.  Next comes the
    boundary index with the fewest neighbours outside the boundary and the
    numbered indices, ties going to the lowest index; when the boundary is
    empty, the lowest unnumbered index.  So each connected component is
    numbered contiguously.  The counts are kept up to date in a heap as the
    boundary grows, stale entries skipped when they come up, so the order
    costs O(m log m) in the m adjacencies."""
    from heapq import heappop, heappush  # only Xi needs it, not every command

    fresh = [len(a) for a in adj]  # neighbours off the boundary, unnumbered
    state = [0] * len(adj)  # 0 unnumbered, 1 on the boundary, 2 numbered
    heap = []  # (fresh count, index) of boundary indices, some stale
    order = []
    lowest = 0
    for _ in range(len(adj)):
        while heap:
            count, j = heappop(heap)
            if state[j] == 1 and fresh[j] == count:
                break
        else:  # an empty boundary: start the next component
            while state[lowest]:
                lowest += 1
            j = lowest
            for w in adj[j]:
                fresh[w] -= 1
        state[j] = 2
        order.append(j)
        for u in adj[j]:
            if state[u]:
                continue
            state[u] = 1
            for w in adj[u]:
                fresh[w] -= 1
                if state[w] == 1:
                    heappush(heap, (fresh[w], w))
            heappush(heap, (fresh[u], u))
    return order


def partition_function(G: Hypergraph, cls: int, b: int) -> Fraction:
    """Exact weighted sum over compatible polymer families of the class.
    The sites are the class indices, numbered by `_site_order` over their
    distance-two neighbours, the class table's lists; a polymer covers its
    own indices and reaches those and their distance-two neighbours, each
    given as a list of sites (a reach lists a neighbour once for each index
    it neighbours)."""
    polymers = enumerate_polymers(G, cls, b)
    _, _, adj = G.class_table(cls)
    site = [0] * len(adj)  # class index -> its site
    for s, i in enumerate(_site_order(adj)):
        site[i] = s
    covers = [[site[i] for i in p.indices] for p in polymers]
    reaches = [[site[j] for i in p.indices for j in (i, *adj[i])]
               for p in polymers]
    return compatibility_sum([p.dyadic_weight for p in polymers], covers,
                             reaches)


# ----- convergence-condition sums ----------------------------------------------


class KpTerms(NamedTuple):
    """Per-root summability data: bounds on the sum of w(S) * exp(f(S) +
    g(S)) over polymers containing the root, from exact weights, against
    the 1/r^3 target.

    The `holds` flag is rigorous when True (the sum's upper bound is at most
    the target); the condition is only guaranteed by the theory for large
    instances, so small instances legitimately fail.
    """

    root: Vertex
    lhs_lower: float
    lhs_upper: float
    rhs: Fraction
    holds: bool
    polymers: tuple  # the polymers containing the root, in canonical order


def _float_toward_zero(v: int, x: int) -> float:
    """v * 2^x, v >= 0, as a float rounded toward zero to 53 bits, as
    mpmath's float() rounds; past the float range it is inf."""
    cut = max(v.bit_length() - 53, 0)
    try:
        return math.ldexp(v >> cut, x + cut)
    except OverflowError:
        return math.inf


def kp_terms(G: Hypergraph, cls: int, b: int,
             root: Optional[Vertex] = None) -> list:
    """Evaluate the summability inequality at each class vertex, in class
    order, or at `root` alone: one KpTerms per root.

    The polymers are enumerate_polymers(G, cls, b, root), so the command
    refuses where that enumeration does, and each weight goes to every
    root it contains.  f(S) = (k-1)|S|/r and g(S) = log(gamma_k) * r *
    log(2|S|) depend on |S| only, so exp(f_s + g_s) is enclosed once per
    order s, by 160-bit interval arithmetic, and its two end points are
    read exactly, as integers over a common power of two.  At each root
    the exact weights are summed per order, W_s, and each bound is the
    exact sum of W_s times one end point, again an integer over a power of
    two.  The float bounds are those sums rounded toward zero and then one
    step outward, and `holds` compares the upper sum with 1/r^3 exactly.
    """
    r = G.regular_degree()
    if r is None:
        raise InputError("summability sums require a regular hypergraph")
    if r == 0:
        raise InputError("summability sums are undefined at degree 0")
    polymers = enumerate_polymers(G, cls, b, root)
    # class index of each root -> the polymers containing it
    through = {i: [] for i in (range(G.sizes[cls]) if root is None
                               else [G._check_vertex(root).idx])}
    for p in polymers:
        for i in p.indices:
            if i in through:
                through[i].append(p)
    from mpmath import iv, mp

    # order s -> the end points of exp(f_s + g_s) as (man, exp) pairs; 160
    # bits are ample, and the caller's precision comes back afterwards
    ends = {}
    prec, iv.prec = iv.prec, 160
    try:
        k = G.k
        top = iv.mpf(2) ** (k - 1)
        log_gamma = iv.log(top) - iv.log(top - 1)
        with mp.workprec(160):
            for s in {p.order for p in polymers}:
                f = Fraction(k - 1, r) * s
                g = log_gamma * r * iv.log(iv.mpf(2 * s))
                boost = iv.exp(iv.mpf(f.numerator) / iv.mpf(f.denominator)
                               + g)
                ends[s] = (mp.mpf(boost.a).man_exp, mp.mpf(boost.b).man_exp)
    finally:
        iv.prec = prec
    # the end points as integers times 2^x0 and the weights over 2^E, so
    # every bound is an integer times 2^x
    x0 = min((x for pair in ends.values() for _, x in pair), default=0)
    scaled = {s: [man << (x - x0) for man, x in pair]
              for s, pair in ends.items()}
    E = max((p.dyadic_weight[1] for p in polymers), default=0)
    x = x0 - E
    rhs = Fraction(1, r ** 3)
    results = []
    for i, found in through.items():
        sums = {}  # order s -> W_s * 2^E
        for p in found:
            m, e = p.dyadic_weight
            sums[p.order] = sums.get(p.order, 0) + (m << (E - e))
        lower = sum(w * scaled[s][0] for s, w in sums.items())
        upper = sum(w * scaled[s][1] for s, w in sums.items())
        # report float end points rounded outward so they stay true bounds
        results.append(KpTerms(
            root=Vertex(cls, i),
            lhs_lower=math.nextafter(_float_toward_zero(lower, x), -math.inf),
            lhs_upper=math.nextafter(_float_toward_zero(upper, x), math.inf),
            rhs=rhs, holds=upper * r ** 3 << max(x, 0) <= 1 << max(-x, 0),
            polymers=tuple(found)))
    return results
