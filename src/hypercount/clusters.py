"""Cluster expansion of log Xi: the truncated log-partition sum, the
log-domain count estimator, and the cluster listing with Ursell functions.

Each polymer S carries the weight w(S) z^|S|, and the size-t truncation is
[z^1..z^t] log Xi(z) at z = 1.  `truncated_log_xi` computes it one polymer C
at a time from the log series of the small polynomial Xi_C(z), the
partition function of the subsets of C, with no clusters and no Ursell
functions.  Every polymer is incompatible with itself, so compatible
families are sets of polymers, as in `polymers.partition_function`.  It
reads each polymer's class indices, |N(C)| and weight, and the instance's
per-class table (`Hypergraph.class_table`): the subsets of C are the
submasks of C's class-index mask, walked in increasing order.  A subset
that is a polymer takes its weight; any other is the 2-linked piece of its
lowest vertex, grown on the table's distance-two masks, times the rest,
met before it, and its weight is kept for the polymers after C.  The same
masks key the weights and give d_C.  Every polymer carries its weight as
an integer over a power of two, so the series run on integers over
2^|N(C)| and lcm(1..t), and one Fraction is built per call; polymers that
agree on |N(C)|, |C|, d_C and the coefficients of Xi_C share one run of
the series.

The cluster listing (`enumerate_clusters`, `cluster_weight`, `ursell`)
serves the `clusters` command and tests the truncation.  Clusters are
canonical multisets of polymers together with the number of orderings they
represent, so sums over ordered polymer vectors are computed without
factorial blowup.  Their incompatibility graphs come from
`polymers.compatible`, which reads the same distance-two masks, and the
same flood fill, `linked_piece`, tests on the graphs' neighbour masks
that they are connected.  The listing refuses, as the polymer
enumeration does, above polymers.MAX_POLYMERS clusters.  Cluster weights
are exact rationals; floats appear only at the log-domain boundary of
the estimator.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations
from typing import Iterable, NamedTuple, Sequence

from . import polymers as pm
from .errors import BudgetExceeded, InputError
from .hypergraph import Hypergraph, linked_piece
from .logdomain import log_sum_exp
from .polymers import Polymer, compatible, refuse_cap
from .polymers import polymer_weight  # noqa: F401 (bench/tracing.py)

URSELL_VERTEX_CAP = 9
# steps truncated_log_xi may take, estimated as the sum over its polymers C
# of 2^|C| subsets plus t^2 series terms, before it refuses
TRUNCATION_WORK_CAP = 1 << 20


# ----- Ursell function ---------------------------------------------------------


def _connected(n: int, edges) -> bool:
    """Whether the graph on the vertices 0..n-1, n >= 1, with these edges is
    connected: linked_piece floods from vertex 0 over the neighbour masks."""
    nbrs = [0] * n
    for a, b in edges:
        nbrs[a] |= 1 << b
        nbrs[b] |= 1 << a
    full = (1 << n) - 1
    return linked_piece(nbrs, full, 0) == full


def ursell(n: int, edges: Iterable) -> Fraction:
    """Ursell function of a connected graph on vertices 0..n-1, for at most
    URSELL_VERTEX_CAP vertices.

    Defined as 1/n! times the signed count, by parity of edge count, of
    spanning connected subgraphs.  Computed exactly by a subset convolution
    over vertex sets (the component of the lowest vertex splits off).
    """
    edges = sorted({tuple(sorted((int(a), int(b)))) for a, b in edges})
    if n < 1:
        raise InputError("Ursell function needs at least one vertex")
    for a, b in edges:
        if a == b or not (0 <= a < n and 0 <= b < n):
            raise InputError(f"bad edge ({a},{b}) for {n} vertices")
    if n > URSELL_VERTEX_CAP:
        raise BudgetExceeded(
            f"Ursell cap is {URSELL_VERTEX_CAP} vertices, got {n}")
    if not _connected(n, edges):
        raise InputError("Ursell function is defined for connected graphs")

    edge_bits = [(1 << a) | (1 << b) for a, b in edges]
    full = (1 << n) - 1

    def edgeless(mask: int) -> bool:
        return all(e & mask != e for e in edge_bits)

    # f[W] = signed spanning-connected count on W.  The alternating sum over
    # ALL edge subsets of W is 1 if W induces no edge and 0 otherwise, and it
    # also equals the sum of f[U] * [W-U edgeless] over the possible
    # components U of W's lowest vertex; solve for f[W].
    f = {}
    for mask in range(1, full + 1):
        low = mask & -mask
        val = 1 if edgeless(mask) else 0
        sub = (mask - 1) & mask
        while sub:
            if sub & low and edgeless(mask ^ sub):
                val -= f[sub]
            sub = (sub - 1) & mask
        f[mask] = val
    return Fraction(f[full], math.factorial(n))


# ----- clusters -----------------------------------------------------------------


class Cluster(NamedTuple):
    """Canonical multiset of polymers whose incompatibility graph is
    connected.  `entries` pairs each distinct polymer with its multiplicity,
    sorted by polymer;  ordering_count is the number of ordered vectors the
    multiset represents."""

    entries: tuple  # ((polymer, multiplicity), ...)

    @property
    def length(self) -> int:
        return sum(m for _, m in self.entries)

    @property
    def size(self) -> int:
        return sum(p.order * m for p, m in self.entries)

    @property
    def support(self) -> frozenset:
        out = set()
        for p, _ in self.entries:
            out.update(p.vertices)
        return frozenset(out)

    @property
    def ordering_count(self) -> int:
        num = math.factorial(self.length)
        for _, m in self.entries:
            num //= math.factorial(m)
        return num

    def expanded(self) -> list:
        return [p for p, m in self.entries for _ in range(m)]

    def __str__(self) -> str:
        return "(" + ",".join(str(p) + (f"^{m}" if m > 1 else "")
                              for p, m in self.entries) + ")"


def incompatibility_graph(entries_expanded: Sequence[Polymer]):
    """Graph on the cluster's entries with edges between incompatible ones;
    copies of a polymer are always joined, since every polymer is
    incompatible with itself."""
    n = len(entries_expanded)
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if not compatible(entries_expanded[i], entries_expanded[j]):
                edges.append((i, j))
    return n, edges


def _connected_multiset(entries_expanded: Sequence[Polymer]) -> bool:
    return _connected(*incompatibility_graph(entries_expanded))


def cluster_weight(cluster: Cluster) -> Fraction:
    """phi(incompatibility graph) times the product of the polymers' own
    weights, for one ordered representative of the multiset."""
    expanded = cluster.expanded()
    n, edges = incompatibility_graph(expanded)
    phi = ursell(n, edges)
    prod = Fraction(1)
    for p, m in cluster.entries:
        prod *= p.weight ** m
    return phi * prod


def enumerate_clusters(G: Hypergraph, cls: int, t: int) -> list:
    """Every cluster of total size at most t over the class's polymer model
    with polymer orders capped at t, as canonical multisets, each once;
    refuses above polymers.MAX_POLYMERS polymers, as enumerate_polymers
    does, and stops at MAX_POLYMERS + 1 clusters and refuses the same way.

    The union of a cluster's polymers is 2-linked (connected entries over a
    connected incompatibility graph), so enumeration runs per candidate
    support: a polymer of order <= t, covered exactly by the chosen
    polymers, which are its 2-linked subsets.
    """
    G._check_class(cls)
    if t < 1:
        raise InputError("cluster size budget t must be at least 1")
    # polymers and supports are keyed by their sorted class indices
    by_indices = {p.indices: p for p in pm.enumerate_polymers(G, cls, t)}
    cap = pm.MAX_POLYMERS
    clusters = []
    for sup in by_indices:
        support = frozenset(sup)
        polymers = sorted(by_indices[sub] for size in range(1, len(sup) + 1)
                          for sub in combinations(sup, size)
                          if sub in by_indices)
        suffix_cover = [frozenset()] * (len(polymers) + 1)
        for i in range(len(polymers) - 1, -1, -1):
            suffix_cover[i] = suffix_cover[i + 1] | frozenset(polymers[i].indices)

        def assign(i, budget, covered, chosen):
            if i == len(polymers) or budget == 0:  # nothing more to choose
                if covered == support:
                    cluster = Cluster(tuple(chosen))
                    if _connected_multiset(cluster.expanded()):
                        clusters.append(cluster)
                        if len(clusters) > cap:
                            raise refuse_cap(cap, "clusters")
                return
            if not (support - covered) <= suffix_cover[i]:
                return
            p = polymers[i]
            max_mult = budget // p.order
            for m in range(max_mult + 1):
                assign(i + 1, budget - m * p.order,
                       covered | (frozenset(p.indices) if m else frozenset()),
                       chosen + [(p, m)] if m else chosen)

        assign(0, t, frozenset(), [])
    clusters.sort(key=lambda c: ([p.indices for p, _ in c.entries],
                                 [m for _, m in c.entries]))
    return clusters


# ----- the truncated log partition sum -----------------------------------------


def truncated_log_xi(G: Hypergraph, cls: int, t: int) -> Fraction:
    """Exact [z^1..z^t] of log Xi(z) for the class, at z = 1: the sum of
    ordered-cluster weights over all clusters of size <= t.

    Moebius inversion over supports, with the terms collected per component,
    writes it as a sum over polymers C of order <= t of

        sum_{s=|C|..t} [z^s] log Xi_C(z) * sum_{j=0..s-|C|} (-1)^j binom(d_C, j)

    where Xi_C(z) sums w(T) z^|T| over the subsets T of C (w(T) is the
    product of the weights of T's 2-linked components, so the subsets are
    exactly C's compatible polymer families) and d_C counts the same-class
    vertices outside C that share a neighbour with C.  The Moebius term of a
    support U holds [z^s] only for s >= |U|; within it, [z^s] log Xi_C
    enters through every W in U that has C as a 2-linked component, and
    those cancel unless U - C lies in the d_C shared-neighbour vertices,
    leaving the sign (-1)^|U - C|.  The subsets T of C are the submasks of
    C's class-index mask, and d_C is read off the distance-two masks of
    C's vertices.  Refuses above polymers.MAX_POLYMERS polymers, and above
    TRUNCATION_WORK_CAP estimated steps before the loop.
    """
    G._check_class(cls)
    if t < 1:
        raise InputError("cluster size budget t must be at least 1")
    polymers = pm.enumerate_polymers(G, cls, t)
    work = sum(1 << len(p.indices) for p in polymers) + len(polymers) * t * t
    if work > TRUNCATION_WORK_CAP:
        raise BudgetExceeded(
            f"the truncation at t={t} over {len(polymers)} polymers needs "
            f"about {work} steps, over the cap of {TRUNCATION_WORK_CAP}; "
            f"refusing rather than estimating")
    _, near, _ = G.class_table(cls)
    masks = []  # each polymer's class-index mask
    for p in polymers:
        Cm = 0
        for i in p.indices:
            Cm |= 1 << i
        masks.append(Cm)
    # class-index mask -> the weight of that set as (m, e), m / 2^e: the
    # polymers', and the product over its 2-linked pieces for each other
    # set the walk meets
    weights = dict(zip(masks, (p.dyadic_weight for p in polymers)))
    lcm = math.lcm(*range(1, t + 1))
    top = max((p.neighborhood_size for p in polymers), default=0)
    total = 0  # the polymers' terms, summed times lcm 2^(top t)
    terms = {}  # (D, |C|, d_C, *A) -> the term of a polymer with that key
    for p, Cm in zip(polymers, masks):
        c = len(p.indices)
        D = p.neighborhood_size
        # the subset T of C, a submask of C's class-index mask, adds its
        # weight m / 2^e times 2^D to A[|T|].  A piece P's exponent is at
        # most |N(P)|, and the pieces of T have disjoint neighbourhoods
        # within N(C), so e <= D and A[s] = 2^D [z^s] Xi_C is an integer.
        # A set that is no polymer splits into the 2-linked piece of its
        # lowest vertex and the rest, a smaller submask met before it.
        A = [1 << D] + [0] * t
        sub = 0
        while sub != Cm:
            sub = (sub - Cm) & Cm  # the next submask, increasing
            w = weights.get(sub)
            if w is None:
                comp = linked_piece(near, sub, (sub & -sub).bit_length() - 1)
                m, e = weights[comp]
                m2, e2 = weights[sub ^ comp]
                weights[sub] = w = m * m2, e + e2
            m, e = w
            A[sub.bit_count()] += m << D - e
        around = 0
        for i in p.indices:
            around |= near[i]
        d = (around & ~Cm).bit_count()
        # the rest of C's term depends only on this key, and repeats are
        # common, so each distinct key runs the series once
        key = (D, c, d, *A)
        term = terms.get(key)
        if term is None:
            # Newton recurrence p L' = p' for the log series l_s of Xi_C, on
            # M[s] = s l_s 2^(D s):
            #   M[s] = s A[s] 2^(D(s-1)) - sum over 0 < i < s of
            #          M[i] A[s-i] 2^(D(s-i-1))
            M = [0] * (t + 1)
            for s in range(1, t + 1):
                acc = s * A[s] << D * (s - 1)
                for i in range(1, s):
                    acc -= M[i] * A[s - i] << D * (s - i - 1)
                M[s] = acc
            # l_s = M[s] / (s 2^(D s))
            #     = M[s] (lcm / s) 2^(D (t-s) + (top-D) t) / (lcm 2^(top t))
            term = 0
            for s in range(c, t + 1):
                # sum_{j<=m} (-1)^j binom(d, j) = (-1)^m binom(d-1, m),
                # m = s - c
                sign_sum = ((-1) ** (s - c) * math.comb(d - 1, s - c)
                            if d else 1)
                term += (M[s] * (lcm // s) << D * (t - s)) * sign_sum
            terms[key] = term = term << (top - D) * t
        total += term
    return Fraction(total, lcm << top * t)


# ----- the estimator -------------------------------------------------------------


class CountEstimate(NamedTuple):
    """Log-domain estimate of the number of independent sets, together with
    the exact per-class exponents."""

    class_exponents: tuple  # (cls, Fraction) pairs
    log_value: float


def estimate_count(G: Hypergraph, t: int) -> CountEstimate:
    """2^((k-1)n) times the sum over classes of exp(truncated class sum),
    assembled in the log domain.

    Requires uniformity at least 3, regularity, and equal class sizes;
    those are the hypotheses under which the truncation is meaningful.
    Each class refuses above polymers.MAX_POLYMERS polymers, as
    enumerate_polymers does.
    """
    if t < 1:
        raise InputError("truncation size t must be at least 1")
    if G.k < 3:
        raise InputError("the estimator requires uniformity k >= 3")
    if G.regular_degree() is None:
        raise InputError("the estimator requires a regular hypergraph")
    if len(set(G.sizes)) != 1:
        raise InputError("the estimator requires equal class sizes")
    n = G.sizes[0]
    exponents = [(cls, truncated_log_xi(G, cls, t)) for cls in range(G.k)]
    log_value = (G.k - 1) * n * math.log(2) + log_sum_exp(
        [float(x) for _, x in exponents])
    return CountEstimate(class_exponents=tuple(exponents),
                         log_value=log_value)
