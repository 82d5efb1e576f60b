"""Random linear regular instances and concrete property checks.

The generator assembles edges one at a time from per-class degree budgets,
rejecting edges that break linearity or (when requested) create a short
loose cycle, with bounded restarts.  Both checks are incremental: a set of
covered vertex pairs decides linearity, and the girth check searches only
for cycles through the candidate edge.  It either returns a conforming
instance or fails loudly; it never hands back a non-conforming graph.

Property checks measure, they never assume: a verdict is `holds` only when
the checked range was covered exhaustively (or sampling found no violation
and the range was complete), `violated` always carries a witness, and
partial coverage yields `unknown`, also where the EXPANSION_* budgets
below cut an expansion check short.
"""

from __future__ import annotations

import itertools
import math
import random
from bisect import bisect_left
from fractions import Fraction
from functools import reduce
from typing import NamedTuple, Optional

from .errors import BudgetExceeded, GenerationError, InputError
from . import exact
from .formulas import gamma_k
from .hypergraph import (Hypergraph, check_vertex_cap, find_loose_cycle,
                         find_loose_cycle_through, girth_at_most)

EDGE_TRIES = 80  # candidate edges drawn per edge slot before a restart
MAX_RESTARTS = 400  # attempts gen_linear_regular makes before it fails
# vertex tries plus vertex-edge tests check_def's local search may make
SEARCH_TESTS = 200_000
EXPANSION_EXHAUSTIVE_SIZE = 3  # expansion set sizes tested exhaustively
EXPANSION_SAMPLES = 10_000  # seeded random sets per larger expansion set size
EXPANSION_WORK = 1_000_000  # set sizes summed over all tested expansion sets


class _PropertyReportFields(NamedTuple):
    name: str
    verdict: str  # "holds" | "violated" | "unknown"
    params: dict
    witness: Optional[object]
    worst_ratio: Optional[Fraction]


class PropertyReport(_PropertyReportFields):
    """A property check's verdict; `params` is a new dict per report unless
    one is given."""

    __slots__ = ()

    def __new__(cls, name: str, verdict: str, params: Optional[dict] = None,
                witness: Optional[object] = None,
                worst_ratio: Optional[Fraction] = None):
        return super().__new__(cls, name, verdict,
                               {} if params is None else params,
                               witness, worst_ratio)

    @property
    def holds(self) -> bool:
        return self.verdict == "holds"


# ----- generation ---------------------------------------------------------------


def gen_linear_regular(k: int, n: int, r: int, seed: int,
                       min_girth: Optional[int] = None) -> Hypergraph:
    """Random linear r-regular k-partite k-graph with all class sizes n,
    deterministic per seed; optionally with no loose cycle shorter than
    min_girth, which must be at least 4 (InputError otherwise, as in
    check_girth).  Raises GenerationError with diagnostics after
    MAX_RESTARTS failed attempts, each of at most EDGE_TRIES draws per edge
    slot; each girth check is one loose-cycle search under
    hypergraph.GIRTH_NODE_CAP."""
    if k < 2 or n < 1 or r < 1:
        raise InputError("generation requires k >= 2, n >= 1, r >= 1")
    if r > n:
        raise InputError(
            f"r={r} > n={n} is infeasible: a vertex needs {r} distinct "
            f"partners per class to stay linear")
    if min_girth is not None and min_girth < 4:
        raise InputError("min_girth below 4 is vacuous")
    check_vertex_cap(k * n)  # before the per-vertex capacity tables
    rng = random.Random(seed)
    total_edges = n * r
    N = k * n  # vertex (c, i) has id c * n + i, so ids sort class-major
    girth_bounded = min_girth is not None
    stuck_at = 0
    for _ in range(MAX_RESTARTS):
        capacity = [r] * N
        # ascending ids with capacity left, one list per class, so
        # rng.choice draws exactly as it would from a fresh scan of `capacity`
        avail = [list(range(c * n, (c + 1) * n)) for c in range(k)]
        covered = set()  # u * N + v for the ids u < v of an accepted edge
        edges, edge_sets, incidence = [], [], {}
        ok = True
        for j in range(total_edges):
            placed = False
            for _ in range(EDGE_TRIES):
                # at slot j each class has n*r - j >= 1 capacity left, so
                # no avail list is empty
                cand = [rng.choice(a) for a in avail]
                pairs = [u * N + v for u, v in itertools.combinations(cand, 2)]
                # sharing a pair with an accepted edge breaks linearity; this
                # also rejects a duplicate edge
                if not covered.isdisjoint(pairs):
                    continue
                # accepted prefixes have no short loose cycle, so a new one
                # must pass through the candidate
                if girth_bounded:
                    cand_set = frozenset(cand)
                    if find_loose_cycle_through(edge_sets, incidence, cand_set,
                                                min_girth - 1) is not None:
                        continue
                    for v in cand:
                        incidence.setdefault(v, []).append(len(edge_sets))
                    edge_sets.append(cand_set)
                covered.update(pairs)
                edges.append(tuple(cand))
                for a, v in zip(avail, cand):
                    capacity[v] -= 1
                    if capacity[v] == 0:
                        del a[bisect_left(a, v)]
                placed = True
                break
            if not placed:
                stuck_at = max(stuck_at, j)
                ok = False
                break
        if ok:
            G = Hypergraph(k, [n] * k, edges)
            assert G.regular_degree() == r
            assert G.is_linear()
            if girth_bounded:
                assert not girth_at_most(G, min_girth - 1)
            return G
    raise GenerationError(
        f"could not assemble a linear {r}-regular instance with k={k}, n={n}"
        + (f", girth >= {min_girth}" if min_girth else "")
        + f" after {MAX_RESTARTS} restarts (best attempt stalled at edge "
        f"{stuck_at + 1}/{total_edges}); try another seed or larger n")


# ----- property checks ------------------------------------------------------------


def _regular_equal(G: Hypergraph):
    r = G.regular_degree()
    if r is None:
        raise InputError("this check requires a regular hypergraph")
    if len(set(G.sizes)) != 1:
        raise InputError("this check requires equal class sizes")
    return r, G.sizes[0]


def check_reg(G: Hypergraph, t: int) -> PropertyReport:
    """Degree-vs-order threshold: r >= (1/t) log_gamma(n), decided exactly
    through the equivalent integer comparison gamma^(r t) >= n."""
    if t < 1:
        raise InputError("t must be at least 1")
    r, n = _regular_equal(G)
    lhs = gamma_k(G.k) ** (r * t)
    verdict = "holds" if lhs >= n else "violated"
    return PropertyReport(
        name=f"Reg({t})", verdict=verdict,
        params={"t": t, "r": r, "n": n},
        witness=None if verdict == "holds" else {"gamma_pow_rt": lhs, "n": n},
        worst_ratio=Fraction(lhs) / n if n else None)


def _expansion_check(G, name, factor, max_size, seed):
    """Shared engine: |N(S)| >= factor * r * |S| over single-class sets up to
    max_size, within the EXPANSION_* budgets.  A set of size s costs s; a
    (class, size) block that does not fit is skipped without drawing.  An
    edge meets a class once, so N(S) ORs S's neighbourhoods."""
    r, n = _regular_equal(G)
    factor = Fraction(factor)
    worst = None
    rng = random.Random(seed)
    top = min(max_size, n)  # sizes beyond n are vacuous
    exhaustive = top <= EXPANSION_EXHAUSTIVE_SIZE
    masks, left = G.edge_masks, EXPANSION_WORK
    for cls in range(G.k):
        nbs, first, outside = [0] * n, G.offsets[cls], ~G.class_mask(cls)
        for e, m in zip(G.ids, masks):
            nbs[e[cls] - first] |= m & outside
        for s in range(1, top + 1):
            sampled = s > EXPANSION_EXHAUSTIVE_SIZE
            cost = s * (EXPANSION_SAMPLES if sampled else math.comb(n, s))
            if cost > left:
                exhaustive = False
                continue
            left -= cost
            pool = ((rng.sample(range(n), s) for _ in range(EXPANSION_SAMPLES))
                    if sampled else itertools.combinations(range(n), s))
            low = G.num_vertices + 1  # a violating set is a new low
            for S in pool:
                nb = reduce(int.__or__, map(nbs.__getitem__, S)).bit_count()
                if nb < low:
                    low, ratio = nb, Fraction(nb, r * s)
                    worst = ratio if worst is None else min(worst, ratio)
                    if ratio < factor:
                        witness = {"S": [f"{cls}:{i}" for i in sorted(S)],
                                   "neighborhood_size": nb,
                                   "required": factor * r * s}
                        return PropertyReport(
                            name=name, verdict="violated",
                            params={"r": r, "n": n, "max_size": max_size},
                            witness=witness, worst_ratio=worst)
    verdict = "holds" if exhaustive else "unknown"
    return PropertyReport(name=name, verdict=verdict,
                          params={"r": r, "n": n, "max_size": max_size,
                                  "exhaustive": exhaustive},
                          worst_ratio=worst)


def check_exp1(G: Hypergraph, alpha, seed: int = 0) -> PropertyReport:
    """Expansion of small sets: |N(S)| >= (k-1-alpha) r |S| for |S| <= r,
    within the expansion budgets (see _expansion_check)."""
    r, _ = _regular_equal(G)
    alpha = Fraction(alpha)
    return _expansion_check(G, f"Exp1({float(alpha):g})",
                            G.k - 1 - alpha, r, seed)


def check_exp2(G: Hypergraph, beta, seed: int = 0) -> PropertyReport:
    """Expansion of mid-scale sets: |N(S)| >= (k-2+beta) r |S| for
    |S| <= beta n / r, within the expansion budgets (see _expansion_check)."""
    r, n = _regular_equal(G)
    beta = Fraction(beta)
    # at r = 0 every set meets the bound (k-2+beta) r |S| = 0
    max_size = max(int(beta * n / r), 0) if r else 0
    return _expansion_check(G, f"Exp2({float(beta):g})",
                            G.k - 2 + beta, max_size, seed)


def check_def(G: Hypergraph, b: int, seed: int = 0) -> PropertyReport:
    """Every independent set must trace at most b vertices into some class.

    Exhaustive up to exact.DEFECT_VERTEX_CAP vertices, over minimal
    traces: b + 1 chosen vertices in each class but one, F.  A vertex of F
    is free when no edge through it has all its other vertices chosen.  An
    edge meets every class once, so the chosen vertices and the free ones
    are independent together, and choosing more vertices only shrinks the
    free set.  So a violation exists iff some choice leaves more than b
    vertices of F free; F is a largest class, whose choices are not
    walked.  The witness is the first such choice, with its free vertices.
    Beyond the cap, a randomized search looks for a violating independent
    set and the verdict degrades to `unknown` when none is found.  Each
    round of that search tries every vertex once against the edges through
    it, and the rounds stop before SEARCH_TESTS tries and tests in all.
    """
    if b < 0:
        raise InputError("b must be non-negative")
    params = {"b": b}
    if min(G.sizes) <= b:
        return PropertyReport(name=f"Def({b})", verdict="holds",
                              params=params | {"vacuous": True})
    num = G.num_vertices
    class_masks = [G.class_mask(cls) for cls in range(G.k)]

    def report(verdict, found=None):
        witness = None if found is None else [
            str(G.vertex(x)) for x in range(num) if found >> x & 1]
        return PropertyReport(name=f"Def({b})", verdict=verdict,
                              params=params, witness=witness)

    if num <= exact.DEFECT_VERTEX_CAP:
        F = max(range(G.k), key=G.sizes.__getitem__)
        joins = [(m & class_masks[F], m & ~class_masks[F])
                 for m in G.edge_masks]  # (the vertex in F, the rest)
        choices = [[sum(1 << G.offsets[c] + i for i in pick) for pick in
                    itertools.combinations(range(G.sizes[c]), b + 1)]
                   for c in range(G.k) if c != F]
        for picks in itertools.product(*choices):
            chosen = sum(picks)
            free = class_masks[F]
            for f, rest in joins:
                if rest & chosen == rest:
                    free &= ~f
            if free.bit_count() > b:
                return report("violated", chosen | free)
        return report("holds")
    # best-effort local search beyond the cap; `chosen` stays
    # independent, so only an edge through the tried vertex can fill up
    through = [[] for _ in range(num)]
    for e, m in zip(G.ids, G.edge_masks):
        for x in e:
            through[x].append(m)
    per_round = num + sum(map(len, through))
    rng = random.Random(seed)
    for _ in range(SEARCH_TESTS // per_round):
        chosen = 0
        for i in rng.sample(range(num), num):
            trial = chosen | (1 << i)
            if all((trial & m) != m for m in through[i]):
                chosen = trial
        if min((chosen & cmask).bit_count() for cmask in class_masks) > b:
            return report("violated", chosen)
    return report("unknown")


def check_common_neighbor(G: Hypergraph) -> PropertyReport:
    """Every same-class pair with intersecting neighbourhoods must share
    exactly one neighbour (the local signature of linear girth >= 5).  The
    pairs v < u are walked in (class, v, u) order, on lists linear in the
    class's edges, so a violation's witness is the least such pair."""
    checked = 0
    for cls in range(G.k):
        outer = [set() for _ in range(G.sizes[cls])]
        owners = {}  # outer vertex id -> class indices on its edges
        for e in G.ids:
            v = e[cls] - G.offsets[cls]
            for x in e[:cls] + e[cls + 1:]:
                outer[v].add(x)
                owners.setdefault(x, []).append(v)
        for v, mine in enumerate(outer):
            for u in sorted({u for x in mine for u in owners[x] if u > v}):
                checked += 1
                common = mine & outer[u]
                if len(common) != 1:
                    return PropertyReport(
                        name="common-neighbor", verdict="violated",
                        params={"pairs_checked": checked},
                        witness={"pair": [f"{cls}:{v}", f"{cls}:{u}"],
                                 "common": sorted(str(G.vertex(x))
                                                  for x in common)})
    return PropertyReport(name="common-neighbor", verdict="holds",
                          params={"pairs_checked": checked})


def check_linear(G: Hypergraph) -> PropertyReport:
    bad = G.linearity_witness()
    if bad is None:
        return PropertyReport(name="linear", verdict="holds")
    return PropertyReport(name="linear", verdict="violated",
                          witness=[[str(v) for v in e] for e in bad])


def check_girth(G: Hypergraph, min_girth: int) -> PropertyReport:
    """Holds iff G has no loose cycle shorter than min_girth; unknown when
    the search visits more than hypergraph.GIRTH_NODE_CAP DFS nodes."""
    if min_girth < 4:
        raise InputError("min_girth below 4 is vacuous")
    try:
        cycle = find_loose_cycle(G, min_girth - 1)
    except BudgetExceeded:
        return PropertyReport(name=f"girth>={min_girth}", verdict="unknown")
    if cycle is None:
        return PropertyReport(name=f"girth>={min_girth}", verdict="holds")
    return PropertyReport(name=f"girth>={min_girth}", verdict="violated",
                          witness=[str(v) for v in cycle])
