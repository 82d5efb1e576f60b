"""Polymer enumeration, weights, compatibility, partition functions,
summability sums, and matching bounds."""

import itertools
import re
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import iv

from hypercount import exact, polymers
from hypercount import (BudgetExceeded, Hypergraph, InputError, Vertex,
                        compatibility_sum, compatible, enumerate_polymers,
                        gamma_k, gen_linear_regular, kp_terms,
                        partition_function, polymer_weight, truncated_log_xi)

from conftest import (fan, girth5_instances, kp_instances, matching,
                      partite_hypergraphs, random_partite, two_shared)
from oracles import (compatibility_sum_fraction, count_by_filter,
                     count_link_graph, distance_two_neighbors, is_two_linked,
                     kp_bounds_by_intervals, make_polymer, max_matching_size,
                     polymer_count_bound_holds, polymer_vertex_sets,
                     site_order_by_rescan)

V = Vertex


@pytest.fixture
def iv_prec_160():
    """Interval arithmetic at 160 bits for the test, restored afterwards."""
    prec, iv.prec = iv.prec, 160
    yield
    iv.prec = prec


@st.composite
def dyadic_items(draw):
    """Up to 14 (weight, neighbourhood) pairs: weights (m, e), w = m / 2^e,
    with mixed exponents, neighbourhoods drawn from a pool of at most 8
    small sets, so repeated and empty ones are common."""
    pool = draw(st.lists(st.frozensets(st.integers(0, 9), max_size=3),
                         min_size=1, max_size=8))
    return draw(st.lists(st.tuples(
        st.tuples(st.integers(0, 40), st.integers(0, 6)),
        st.sampled_from(pool)), max_size=14))


def meeting(neighborhoods):
    """compatibility_sum's covers and reaches for indices that are
    incompatible when their neighbourhoods meet: the i-th index covers
    site i alone and reaches it and the sites of the other indices whose
    neighbourhood meets the i-th."""
    covers = [[i] for i in range(len(neighborhoods))]
    reaches = [[j for j, other in enumerate(neighborhoods)
                if j == i or nb & other]
               for i, nb in enumerate(neighborhoods)]
    return covers, reaches


@st.composite
def site_items(draw):
    """Up to 10 items on at most 8 sites: a weight (m, e), a non-empty
    cover drawn from a pool of at most 5 site lists, so repeated covers are
    common, and the reach of that cover in a random graph on the sites,
    where isolated sites and sites no item covers are common.  Covers and
    reaches list their sites in a drawn order."""
    n = draw(st.integers(1, 8))
    near = [set() for _ in range(n)]
    for s, t in draw(st.lists(st.tuples(st.integers(0, n - 1),
                                        st.integers(0, n - 1)), max_size=8)):
        if s != t:
            near[s].add(t)
            near[t].add(s)
    pool = draw(st.lists(st.lists(st.integers(0, n - 1), min_size=1,
                                  unique=True), min_size=1, max_size=5))
    items = []
    for weight, cover in draw(st.lists(st.tuples(
            st.tuples(st.integers(0, 40), st.integers(0, 6)),
            st.sampled_from(pool)), max_size=10)):
        reach = set(cover).union(*(near[s] for s in cover))
        items.append((weight, cover, draw(st.permutations(sorted(reach)))))
    return items


@st.composite
def neighbour_masks(draw):
    """A symmetric relation on up to 24 indices, as each index's mask of
    neighbours: at most two pairs per index, so several components and
    isolated indices are common."""
    n = draw(st.integers(0, 24))
    near = [0] * n
    for s, t in draw(st.lists(st.tuples(st.integers(0, max(n - 1, 0)),
                                        st.integers(0, max(n - 1, 0))),
                              max_size=2 * n)):
        if s != t:
            near[s] |= 1 << t
            near[t] |= 1 << s
    return near


def adjacency(near):
    """Each index's neighbours, listed from its mask."""
    return [[j for j in range(len(near)) if mask >> j & 1] for mask in near]


def renumbered(G, cls, polys, site):
    """compatibility_sum's covers and reaches for the polymers of the class
    with class index i numbered as site[i]."""
    _, near, _ = G.class_table(cls)
    covers = [[site[i] for i in p.indices] for p in polys]
    reaches = [[site[j] for j in range(len(near))
                if any(j == i or near[i] >> j & 1 for i in p.indices)]
               for p in polys]
    return covers, reaches


class TestEnumeration:
    def test_single_edge_b1(self, edge3):
        polys = enumerate_polymers(edge3, 0, 1)
        assert [p.vertices for p in polys] == [(V(0, 0),)]

    def test_b1_gives_singletons(self):
        G = random_partite(3, (3, 2, 3), 0.4, 2)
        for cls in range(3):
            polys = enumerate_polymers(G, cls, 1)
            assert [p.vertices for p in polys] == \
                [(v,) for v in G.class_vertices(cls)]

    def test_b0_is_empty_model(self, edge3):
        assert enumerate_polymers(edge3, 0, 0) == []

    def test_girth5_pair_counts(self):
        k, n, r = 3, 6, 2
        G = gen_linear_regular(k, n, r, seed=4, min_girth=5)
        v = V(0, 0)
        polys = enumerate_polymers(G, 0, 2, root=v)
        pairs = [p for p in polys if p.order == 2]
        # brute-force pair scan oracle
        expected = [frozenset({v, u}) for u in G.class_vertices(0)
                    if u != v and G.neighborhood([v]) & G.neighborhood([u])]
        assert sorted(frozenset(p.vertices) for p in pairs) == sorted(expected)
        assert len(pairs) == (k - 1) * r * (r - 1)

    def test_each_exactly_once_and_sorted(self):
        G = random_partite(3, (4, 2, 2), 0.5, 6)
        polys = enumerate_polymers(G, 0, 3)
        seen = [p.vertices for p in polys]
        assert len(set(seen)) == len(seen)
        assert seen == sorted(seen)
        # oracle: connected subsets by direct filtering of all subsets
        verts = G.class_vertices(0)
        expected = set()
        for size in range(1, 4):
            for S in itertools.combinations(verts, size):
                if is_two_linked(G, S):
                    expected.add(S)
        assert set(seen) == expected

    def test_root_variant_matches_filter(self):
        G = random_partite(3, (4, 3, 2), 0.45, 8)
        root = V(0, 1)
        with_root = enumerate_polymers(G, 0, 3, root=root)
        all_polys = enumerate_polymers(G, 0, 3)
        assert with_root == [p for p in all_polys if root in p.vertices]

    def test_make_polymer_validates(self):
        G = matching(3, 2)
        with pytest.raises(InputError):
            make_polymer(G, [V(0, 0), V(0, 1)])  # not 2-linked

    def test_make_polymer_counts_a_repeated_vertex_once(self):
        G = gen_linear_regular(3, 4, 2, seed=1)
        p = make_polymer(G, [V(0, 0), V(0, 0)])
        assert p.vertices == (V(0, 0),) and p.order == 1
        assert p.dyadic_weight == make_polymer(G, [V(0, 0)]).dyadic_weight


class TestEnumerationOracle:
    """enumerate_polymers against the enumeration on Vertex sets over the
    oracle's distance_two_neighbors."""

    @given(partite_hypergraphs(max_k=3, max_size=4), st.integers(1, 4))
    @settings(max_examples=100, deadline=None)
    def test_same_sets_with_and_without_root(self, G, b):
        for cls in range(G.k):
            assert [p.vertices for p in enumerate_polymers(G, cls, b)] == \
                sorted(polymer_vertex_sets(G, cls, b))
            for root in G.class_vertices(cls):
                assert [p.vertices for p in
                        enumerate_polymers(G, cls, b, root=root)] == \
                    sorted(polymer_vertex_sets(G, cls, b, root))

    @pytest.mark.parametrize("G, b", [
        (gen_linear_regular(3, 8, 2, seed=0), 3),
        (random_partite(3, (5, 3, 3), 0.5, 2), 4),
        (random_partite(4, (4, 2, 2, 2), 0.4, 7), 3)])
    def test_refuses_where_the_oracle_count_exceeds_the_cap(
            self, monkeypatch, G, b):
        for root in (None, V(0, 1)):
            found = len(polymer_vertex_sets(G, 0, b, root))
            for cap in range(found + 2):
                monkeypatch.setattr(polymers, "MAX_POLYMERS", cap)
                if found > cap:
                    with pytest.raises(BudgetExceeded, match=(
                            f"^at least {cap + 1} polymers exceed the cap "
                            f"of {cap}; refusing rather than truncating$")):
                        enumerate_polymers(G, 0, b, root)
                else:
                    assert len(enumerate_polymers(G, 0, b, root)) == found


@st.composite
def weigher_instances(draw):
    """k-partite instances with k = 2..4, classes of 1..3 vertices and up to
    16 edges, so that residues often repeat; at k = 2 every residue is a
    single vertex.  Vertices 0 and 1 of one class always lie on two edges
    with a common residue, which for k >= 3 makes the instance non-linear,
    and each class sometimes gains a last vertex in no edge."""
    k = draw(st.integers(2, 4))
    cls = draw(st.integers(0, k - 1))
    sizes = [draw(st.integers(2 if c == cls else 1, 3)) for c in range(k)]
    space = list(itertools.product(*[range(s) for s in sizes]))
    picks = set(draw(st.lists(st.sampled_from(space), max_size=16)))
    shared = list(draw(st.sampled_from(space)))
    for i in (0, 1):
        shared[cls] = i
        picks.add(tuple(shared))
    sizes = [s + draw(st.booleans()) for s in sizes]
    return Hypergraph.build(k, sizes, [list(enumerate(combo))
                                       for combo in sorted(picks)])


# 0:2 and 1:1 lie in no edge, so their polymers have empty neighbourhoods
WITH_ISOLATED = Hypergraph.build(3, [3, 2, 1], [[(0, 0), (1, 0), (2, 0)],
                                               [(0, 1), (1, 0), (2, 0)]])
# at k = 2 every residue is one vertex; 1:2 lies in no edge
K2 = Hypergraph.build(2, [2, 3], [[(0, 0), (1, 0)], [(0, 0), (1, 1)],
                                  [(0, 1), (1, 1)]])


def assert_weights_match_link_graphs(G):
    """Every polymer of order <= 3 carries, as a reduced (m, e), what its
    link graph gives through the exact counter, and the size of G's
    neighbourhood of it; make_polymer on the same vertices carries the
    same."""
    for cls in range(G.k):
        for p in enumerate_polymers(G, cls, 3):
            m, e = p.dyadic_weight
            nb = G.neighborhood(p.vertices)
            want = Fraction(count_link_graph(G.link_graph(p.vertices)),
                            2 ** len(nb))
            assert Fraction(m, 1 << e) == want
            assert m % 2 == 1 or e == 0
            assert p.neighborhood_size == len(nb)
            assert p.weight == polymer_weight(G, p) == want
            made = make_polymer(G, p.vertices)
            assert made == p
            assert made.neighborhood_size == len(nb)
            assert made.dyadic_weight == (m, e)


class TestClassIndexLayer:
    """The class table and the lean polymer records against the
    enumeration on Vertex sets and polymers weighed through link graphs."""

    @given(weigher_instances())
    # the residues of the edges through 0:0 share no vertex
    @example(two_shared(4))
    @example(Hypergraph.build(2, [2, 3], [[(0, 0), (1, 0)], [(0, 0), (1, 1)],
                                          [(0, 1), (1, 1)]]))
    # the weigher sums directly over 0 and 3 shared vertices, and sweeps 4
    @example(fan(0))
    @example(fan(3))
    @example(fan(4))
    @settings(max_examples=100, deadline=None)
    def test_matches_the_vertex_set_oracle(self, G):
        for cls in range(G.k):
            _, near, _ = G.class_table(cls)
            assert near == [sum(1 << u.idx for u in
                                distance_two_neighbors(G, v))
                            for v in G.class_vertices(cls)]
            for b in (1, 3):
                found = enumerate_polymers(G, cls, b)
                want = [make_polymer(G, S)
                        for S in sorted(polymer_vertex_sets(G, cls, b))]
                assert found == want
                assert sorted(found[::-1]) == found
                for p, q in zip(found, want):
                    assert p.vertices == q.vertices
                    assert p.neighborhood_size == q.neighborhood_size == \
                        len(G.neighborhood(q.vertices))
                    assert p.dyadic_weight == q.dyadic_weight
                    assert p.weight == q.weight
                    assert p.order == q.order == len(p.indices)
                    assert str(p) == str(q)

    def test_records_compare_by_class_and_indices(self):
        G = random_partite(3, (3, 2, 3), 0.5, 1)
        a, b = enumerate_polymers(G, 0, 1)[:2]
        c = enumerate_polymers(G, 1, 1)[0]
        assert a < b < c and not b < a
        assert a == make_polymer(G, a.vertices) and a != b
        assert len({a, b, c, make_polymer(G, a.vertices)}) == 3

    @pytest.mark.parametrize("index", range(3))
    def test_the_cap_refuses_before_any_weighing(self, monkeypatch, index):
        # the enumeration stops at MAX_POLYMERS + 1 sets, before the weigher
        G = kp_instances()[index]
        weighed = []
        count_covered = exact._count_covered
        monkeypatch.setattr(exact, "_count_covered",
                            lambda e: weighed.append(e) or count_covered(e))
        n = G.sizes[0]
        monkeypatch.setattr(polymers, "MAX_POLYMERS", n - 1)
        for refused in (lambda: enumerate_polymers(G, 0, 2),
                        lambda: truncated_log_xi(G, 0, 2),
                        lambda: kp_terms(G, 0, 2)):
            with pytest.raises(BudgetExceeded,
                               match=f"^at least {n} polymers exceed"):
                refused()
        assert weighed == []
        monkeypatch.setattr(polymers, "MAX_POLYMERS", n)
        assert len(enumerate_polymers(G, 0, 1)) == n
        assert len(weighed) == n


class TestWeights:
    @given(weigher_instances())
    @settings(max_examples=150, deadline=None)
    def test_bitmask_weights_match_link_graphs(self, G):
        assert_weights_match_link_graphs(G)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_repeated_residues_and_an_isolated_vertex(self, k):
        # edges (0:i, 1:0, ..) for i = 0, 1 repeat their residue, and 0:2
        # lies in no edge
        rest = [(c, 0) for c in range(1, k)]
        G = Hypergraph.build(k, [3] + [2] * (k - 1),
                             [[(0, 0)] + rest, [(0, 1)] + rest,
                              [(0, 1)] + [(c, 1) for c in range(1, k)]])
        assert_weights_match_link_graphs(G)
        pair = make_polymer(G, [V(0, 0), V(0, 1)])
        assert len(G.link_graph(pair.vertices).edges) == 2
        # two disjoint (k-1)-edges on the 2(k-1) vertices of N(pair)
        assert pair.dyadic_weight == (((1 << k - 1) - 1) ** 2, 2 * (k - 1))
        alone = make_polymer(G, [V(0, 2)])
        assert alone.neighborhood_size == 0
        assert G.neighborhood(alone.vertices) == frozenset()
        assert alone.dyadic_weight == (1, 0)

    def test_single_edge_weight(self, edge3):
        p = make_polymer(edge3, [V(0, 0)])
        assert polymer_weight(edge3, p) == Fraction(3, 4)

    def test_linear_regular_singleton(self):
        for k, r in [(3, 1), (3, 2), (4, 2)]:
            G = gen_linear_regular(k, 4, r, seed=13)
            p = make_polymer(G, [V(0, 0)])
            assert polymer_weight(G, p) == gamma_k(k) ** (-r)

    def test_girth5_pair_weight(self):
        G = gen_linear_regular(3, 6, 2, seed=0, min_girth=5)
        v = V(0, 0)
        u = sorted(distance_two_neighbors(G, v))[0]
        p = make_polymer(G, [v, u])
        w = polymer_weight(G, p)
        assert w == Fraction(45, 128)
        # independent route: filter-count the link graph
        L = G.link_graph([v, u])
        order = sorted(L.vertices)
        pos = {x: i for i, x in enumerate(order)}
        masks = [sum(1 << pos[x] for x in e) for e in L.edges]
        assert w == Fraction(count_by_filter(len(order), masks),
                             2 ** len(L.vertices))

    @given(partite_hypergraphs())
    @settings(max_examples=50, deadline=None)
    def test_weight_in_unit_interval(self, G):
        for cls in range(G.k):
            for p in enumerate_polymers(G, cls, 2):
                w = polymer_weight(G, p)
                assert 0 < w <= 1
                assert (w.denominator & (w.denominator - 1)) == 0  # power of 2


class TestCompatibility:
    def test_self_incompatible(self, edge3):
        p = make_polymer(edge3, [V(0, 0)])
        assert not compatible(p, p)
        # an isolated vertex has N(S) empty and is still self-incompatible
        G = Hypergraph.build(3, [2, 1, 1], [[(0, 0), (1, 0), (2, 0)]])
        q = make_polymer(G, [V(0, 1)])
        assert not G.neighborhood(q.vertices) and not compatible(q, q)
        assert compatible(q, make_polymer(G, [V(0, 0)]))

    def test_shared_neighbor_incompatible(self):
        G = Hypergraph.build(3, [2, 1, 2],
                             [[(0, 0), (1, 0), (2, 0)],
                              [(0, 1), (1, 0), (2, 1)]])
        p, q = (make_polymer(G, [v]) for v in G.class_vertices(0))
        assert not compatible(p, q)

    def test_disjoint_regions_compatible(self):
        G = matching(3, 2)
        p, q = (make_polymer(G, [v]) for v in G.class_vertices(0))
        assert compatible(p, q)

    @given(weigher_instances())
    @example(WITH_ISOLATED)
    @example(K2)
    @settings(max_examples=100, deadline=None)
    def test_matches_meeting_neighborhoods(self, G):
        # the class-index form against N(S) and N(T) as Vertex sets
        for cls in range(G.k):
            polys = enumerate_polymers(G, cls, 3)
            nb = {p: G.neighborhood(p.vertices) for p in polys}
            for S in polys:
                for T in polys:
                    assert compatible(S, T) == (S != T and not nb[S] & nb[T])

    def test_refuses_across_classes_and_instances(self):
        G = random_partite(3, (3, 2, 3), 0.5, 1)
        p = enumerate_polymers(G, 0, 1)[0]
        q = enumerate_polymers(G, 1, 1)[0]
        for S, T in ((p, q), (q, p)):
            with pytest.raises(InputError, match="not of one class"):
                compatible(S, T)
        other = enumerate_polymers(random_partite(3, (3, 2, 3), 0.5, 2),
                                   0, 1)[0]
        assert other == p and other.graph != p.graph
        with pytest.raises(InputError, match="not of one class"):
            compatible(p, other)
        # an equal instance built again is the same instance
        same = enumerate_polymers(Hypergraph.build(G.k, G.sizes, G.edges),
                                  0, 1)[0]
        assert not compatible(p, same)


class TestPartitionFunction:
    def test_empty_model(self, edge3):
        assert partition_function(edge3, 0, 0) == 1

    def test_single_edge(self, edge3):
        assert partition_function(edge3, 0, 1) == Fraction(7, 4)

    def test_two_incompatible_singletons(self):
        G = Hypergraph.build(3, [2, 1, 2],
                             [[(0, 0), (1, 0), (2, 0)],
                              [(0, 1), (1, 0), (2, 1)]])
        polys = enumerate_polymers(G, 0, 1)
        w = [polymer_weight(G, p) for p in polys]
        assert partition_function(G, 0, 1) == 1 + w[0] + w[1]

    def test_matches_brute_force_families(self):
        for seed in (1, 4, 7):
            G = random_partite(3, (3, 2, 3), 0.4, seed)
            for cls in range(3):
                for b in (1, 2, 3):
                    polys = enumerate_polymers(G, cls, b)
                    w = {p: polymer_weight(G, p) for p in polys}
                    total = Fraction(0)
                    for size in range(len(polys) + 1):
                        for fam in itertools.combinations(polys, size):
                            if all(compatible(a, c)
                                   for a, c in itertools.combinations(fam, 2)):
                                prod = Fraction(1)
                                for p in fam:
                                    prod *= w[p]
                                total += prod
                    assert partition_function(G, cls, b) == total

    @given(weigher_instances())
    @example(WITH_ISOLATED)
    @example(K2)
    @settings(max_examples=100, deadline=None)
    def test_matches_the_fraction_form_over_neighborhoods(self, G):
        for cls in range(G.k):
            for b in (1, 2, 3):
                polys = enumerate_polymers(G, cls, b)
                assert partition_function(G, cls, b) == \
                    compatibility_sum_fraction(
                        [p.weight for p in polys],
                        [G.neighborhood(p.vertices) for p in polys])

    def test_budget_refusal(self, monkeypatch):
        G = random_partite(3, (4, 4, 4), 0.5, 3)
        monkeypatch.setattr(polymers, "MAX_POLYMERS", 2)
        with pytest.raises(BudgetExceeded):
            partition_function(G, 0, 4)

    def test_enumeration_stops_at_the_cap(self, monkeypatch):
        G = gen_linear_regular(3, 12, 3, seed=0)
        expected = enumerate_polymers(G, 0, 3)
        found = len(expected)
        monkeypatch.setattr(polymers, "MAX_POLYMERS", found)
        assert enumerate_polymers(G, 0, 3) == expected
        monkeypatch.setattr(polymers, "MAX_POLYMERS", found - 1)
        with pytest.raises(BudgetExceeded,
                           match=f"at least {found} polymers exceed the cap of "
                                 f"{found - 1}"):
            enumerate_polymers(G, 0, 3)
        monkeypatch.setattr(polymers, "MAX_POLYMERS", 3)
        with pytest.raises(BudgetExceeded, match="at least 4 polymers"):
            enumerate_polymers(G, 0, 3)

    @given(dyadic_items())
    @settings(max_examples=150, deadline=None)
    def test_compatibility_sum_matches_brute_force(self, items):
        # every family of pairwise-disjoint neighbourhoods, listed one by one
        weights = [Fraction(m, 1 << e) for (m, e), _ in items]
        sets = [nb for _, nb in items]
        families = [((), Fraction(1))]
        for i, nb in enumerate(sets):
            families += [(fam + (i,), prod * weights[i])
                         for fam, prod in families
                         if all(not sets[j] & nb for j in fam)]
        assert compatibility_sum([w for w, _ in items], *meeting(sets)) == \
            sum(prod for _, prod in families)

    @given(dyadic_items(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_compatibility_sum_ignores_the_index_order(self, items, data):
        # the sweep's order, and so its states, follow the indices
        shuffled = data.draw(st.permutations(items))
        assert compatibility_sum([w for w, _ in shuffled],
                                 *meeting([nb for _, nb in shuffled])) == \
            compatibility_sum([w for w, _ in items],
                              *meeting([nb for _, nb in items]))

    @given(site_items())
    @example([])
    # site 1 is reached past the last covered site, 0, and gets no bit
    @example([((0, 0), [0], [0, 1])])
    @example([((1, 0), [0], [0]), ((3, 2), [0], [0]), ((5, 1), [2], [2])])
    @example([((1, 1), [0, 2], [0, 1, 2]), ((1, 1), [1], [0, 1, 2]),
              ((2, 3), [2, 0], [2, 1, 0]), ((7, 3), [3], [3])])
    # the items placed at sites 2 and 3 reach site 1, already swept, whose
    # freed bit site 3 holds by then
    @example([((1, 0), [2, 0], [1, 2, 0]), ((3, 1), [2], [2, 1]),
              ((1, 1), [1], [3, 1, 2]), ((5, 2), [3], [3, 1])])
    @settings(max_examples=150, deadline=None)
    def test_compatibility_sum_over_items_of_several_sites(self, items):
        # every family of items whose covers miss each other's reaches,
        # listed one by one
        families = [((), Fraction(1))]
        for i, ((m, e), cover, _) in enumerate(items):
            families += [(fam + (i,), prod * Fraction(m, 1 << e))
                         for fam, prod in families
                         if all(set(cover).isdisjoint(items[j][2])
                                for j in fam)]
        weights, covers, reaches = zip(*items) if items else ((), (), ())
        assert compatibility_sum(weights, covers, reaches) == \
            sum(prod for _, prod in families)

    def test_compatibility_sum_matches_fraction_form(self):
        for k, n, r, G in girth5_instances():
            for cls in range(k):
                polys = enumerate_polymers(G, cls, 3)
                w = [p.weight for p in polys]
                nb = [G.neighborhood(p.vertices) for p in polys]
                assert partition_function(G, cls, 3) == \
                    compatibility_sum([p.dyadic_weight for p in polys],
                                      *meeting(nb)) == \
                    compatibility_sum_fraction(w, nb)

    @pytest.mark.parametrize("b", [1, 2])
    @pytest.mark.parametrize("index", range(len(kp_instances())))
    def test_compatibility_sum_matches_fraction_form_on_kp_instances(
            self, index, b):
        G = kp_instances()[index]
        for cls in range(G.k):
            polys = enumerate_polymers(G, cls, b)
            w = [p.weight for p in polys]
            nb = [G.neighborhood(p.vertices) for p in polys]
            assert partition_function(G, cls, b) == \
                compatibility_sum([p.dyadic_weight for p in polys],
                                  *meeting(nb)) == \
                compatibility_sum_fraction(w, nb)

    @pytest.mark.parametrize("n, r, b", [(20, 2, 3), (20, 3, 3)])
    def test_a_refusal_stops_within_one_state_of_the_cap(
            self, monkeypatch, n, r, b):
        # the cap is checked after each state of any step that could pass
        # it, so a refusal holds more than the cap but at most one more
        # state for each item placed at one site, plus one
        G = gen_linear_regular(3, n, r, seed=0)
        polys = enumerate_polymers(G, 0, b)
        covers, reaches = renumbered(G, 0, polys, range(n))
        placed = Counter(min(cover) for cover in covers)
        for cap in (10, 30, 100):
            monkeypatch.setattr(exact, "STATE_CAP", cap)
            with pytest.raises(BudgetExceeded) as refusal:
                compatibility_sum([p.dyadic_weight for p in polys], covers,
                                  reaches)
            held = int(re.match(r"the compatibility sum held (\d+) ",
                                str(refusal.value))[1])
            assert cap < held <= cap + 1 + max(placed.values())

    @pytest.mark.parametrize("covers", [[[], [0]], [[0], []], [[]]])
    def test_an_empty_cover_is_refused(self, covers):
        empty = covers.index([])
        with pytest.raises(InputError, match=(
                rf"^compatibility sum item {empty} covers no site$")):
            compatibility_sum([(1, 0)] * len(covers), covers, covers)

    def test_state_cap_refusal(self, monkeypatch):
        G = kp_instances()[1]
        expected = partition_function(G, 0, 2)
        monkeypatch.setattr(exact, "STATE_CAP", 7)
        assert partition_function(G, 0, 2) == expected
        monkeypatch.setattr(exact, "STATE_CAP", 6)
        with pytest.raises(BudgetExceeded, match=(
                r"^the compatibility sum held 7 live states at site 2 of 7, "
                r"over the cap of 6; refusing")):
            partition_function(G, 0, 2)


class TestSiteOrder:
    @given(neighbour_masks())
    @settings(max_examples=200, deadline=None)
    def test_numbers_each_component_contiguously(self, near):
        order = polymers._site_order(adjacency(near))
        assert sorted(order) == list(range(len(near)))
        # an index with no numbered neighbour starts a component only once
        # the numbered indices have no unnumbered neighbour
        numbered = reached = 0
        for i in order:
            if not near[i] & numbered:
                assert reached & ~numbered == 0
            numbered |= 1 << i
            reached |= near[i]

    @given(neighbour_masks())
    @settings(max_examples=200, deadline=None)
    def test_matches_the_rescan(self, near):
        assert polymers._site_order(adjacency(near)) == \
            site_order_by_rescan(near)

    def test_matches_the_rescan_on_instance_classes(self):
        instances = [*kp_instances(), *(G for *_, G in girth5_instances()),
                     gen_linear_regular(3, 40, 2, seed=0),
                     gen_linear_regular(3, 30, 3, seed=0)]
        for G in instances:
            for cls in range(G.k):
                _, near, _ = G.class_table(cls)
                assert polymers._site_order(adjacency(near)) == \
                    site_order_by_rescan(near)

    @given(st.one_of(weigher_instances(), st.sampled_from(kp_instances())),
           st.data())
    @settings(max_examples=100, deadline=None)
    def test_compatibility_sum_under_any_site_numbering(self, G, data):
        for cls in range(G.k):
            site = data.draw(st.permutations(range(G.sizes[cls])))
            for b in (1, 2):
                polys = enumerate_polymers(G, cls, b)
                assert compatibility_sum(
                    [p.dyadic_weight for p in polys],
                    *renumbered(G, cls, polys, site)) == \
                    compatibility_sum_fraction(
                        [p.weight for p in polys],
                        [G.neighborhood(p.vertices) for p in polys])


class TestKpTerms:
    def test_single_edge_values(self, edge3):
        res = kp_terms(edge3, 0, 1, root=V(0, 0))[0]
        assert res.rhs == 1
        assert not res.holds
        assert 6.76 < res.lhs_upper < 6.77
        assert res.lhs_upper - res.lhs_lower < 1e-12

    def test_empty_sum_holds(self, edge3):
        res = kp_terms(edge3, 0, 0, root=V(0, 0))[0]
        assert res.lhs_upper < 1e-300 and res.holds

    def test_term_by_term_recomputation(self, iv_prec_160):
        G = gen_linear_regular(3, 4, 2, seed=5)
        res = kp_terms(G, 0, 2, root=V(0, 0))[0]
        k, r = 3, 2
        recomputed = iv.mpf(0)
        for p in enumerate_polymers(G, 0, 2, root=V(0, 0)):
            w = polymer_weight(G, p)
            s = p.order
            gamma = gamma_k(k)
            term = (iv.mpf(w.numerator) / iv.mpf(w.denominator)) * iv.exp(
                iv.mpf((k - 1) * s) / r
                + (iv.log(iv.mpf(gamma.numerator))
                   - iv.log(iv.mpf(gamma.denominator))) * r * iv.log(iv.mpf(2 * s)))
            recomputed += term
        assert recomputed.a <= res.lhs_upper and res.lhs_lower <= recomputed.b

    def test_per_order_interval_contains_term_by_term_sum(self, iv_prec_160):
        # one interval product per order encloses the interval sum taken
        # polymer by polymer
        for seed, b in ((5, 2), (5, 3), (0, 3)):
            G = gen_linear_regular(3, 4 + seed, 2, seed=seed)
            root = V(0, 0)
            res = kp_terms(G, 0, b, root=root)[0]
            log_gamma = iv.log(iv.mpf(4)) - iv.log(iv.mpf(3))  # log gamma_3
            term_by_term = iv.mpf(0)
            for p in enumerate_polymers(G, 0, b, root=root):
                w = polymer_weight(G, p)
                s = p.order
                term_by_term += (iv.mpf(w.numerator) / iv.mpf(w.denominator)
                                 * iv.exp(iv.mpf(2 * s) / 2 + log_gamma * 2
                                          * iv.log(iv.mpf(2 * s))))
            assert res.lhs_lower <= term_by_term.a
            assert term_by_term.b <= res.lhs_upper
            assert res.polymers == tuple(
                enumerate_polymers(G, 0, b, root=root))

    def test_matches_the_interval_loop(self):
        # the bounds summed on integers are the ones that interval
        # arithmetic throughout gave, at every root
        instances = kp_instances() + tuple(G for *_, G in girth5_instances())
        for G in instances:
            for cls in range(G.k):
                for b in range(4):
                    assert [(res.lhs_lower, res.lhs_upper, res.holds)
                            for res in kp_terms(G, cls, b)] == \
                        kp_bounds_by_intervals(G, cls, b)

    def test_requires_regular(self):
        with pytest.raises(InputError):
            kp_terms(two_shared(3), 0, 1, root=V(0, 0))

    def test_leaves_the_callers_precision(self, edge3):
        # kp_terms computes at 160 bits whatever the caller's precision
        expected = kp_terms(edge3, 0, 1, root=V(0, 0))
        prec = iv.prec
        try:
            for bits in (20, 53, 300):
                iv.prec = bits
                assert kp_terms(edge3, 0, 1, root=V(0, 0)) == expected
                assert iv.prec == bits
        finally:
            iv.prec = prec

    def test_shared_pass_matches_single_roots(self):
        # the whole-class pass gives each root what a pass over that root
        # alone gives it
        for G in kp_instances():
            for cls in (0, 1):
                roots = G.class_vertices(cls)
                for b in range(4):
                    shared = kp_terms(G, cls, b)
                    assert [res.root for res in shared] == list(roots)
                    for u, res in zip(roots, shared):
                        [alone] = kp_terms(G, cls, b, root=u)
                        assert res.polymers == alone.polymers
                        assert res.lhs_lower == alone.lhs_lower
                        assert res.lhs_upper == alone.lhs_upper
                        assert res.holds == alone.holds
                        assert res.polymers == tuple(
                            enumerate_polymers(G, cls, b, root=u))

    def test_roots_are_checked_before_the_empty_model(self, edge3):
        for root in (V(0, 1), V(1, 0)):
            with pytest.raises(InputError):
                kp_terms(edge3, 0, 0, root=root)

    def test_polymers_come_from_enumerate_polymers(self, monkeypatch):
        # kp_terms looks enumerate_polymers up in the module, so one
        # rebinding there sees (and budgets) its enumeration
        G = kp_instances()[0]
        calls = []

        def spy(*args):
            calls.append(args)
            return enumerate_polymers(*args)

        monkeypatch.setattr(polymers, "enumerate_polymers", spy)
        found = kp_terms(G, 0, 2)
        assert calls == [(G, 0, 2, None)]
        assert sum(len(res.polymers) for res in found) == sum(
            p.order for p in enumerate_polymers(G, 0, 2))
        kp_terms(G, 0, 2, root=V(0, 3))
        assert calls[1] == (G, 0, 2, V(0, 3))


class TestMatching:
    def test_disjoint_edges(self):
        for r in (1, 2, 3):
            G = matching(3, r)
            L = G.link_graph([V(0, i) for i in range(r)])
            assert max_matching_size(L) == r

    def test_two_sharing(self):
        G = two_shared(4)
        # residues of the two edges through (0,0) are disjoint 3-sets
        L = G.link_graph([V(0, 0)])
        assert max_matching_size(L) == 2

    def test_pair_link_graph(self):
        G = gen_linear_regular(3, 6, 2, seed=0, min_girth=5)
        v = V(0, 0)
        u = sorted(distance_two_neighbors(G, v))[0]
        L = G.link_graph([v, u])
        assert max_matching_size(L) == 3
        # oracle: enumerate all edge subsets
        edges = sorted(L.edges, key=sorted)
        best = 0
        for size in range(len(edges) + 1):
            for sub in itertools.combinations(edges, size):
                if all(not (a & b) for a, b in itertools.combinations(sub, 2)):
                    best = max(best, size)
        assert best == 3


class TestWeightAndCountBounds:
    def test_weight_vs_matching_bound(self):
        # w(S) <= gamma^(-m(S)) exactly, for every enumerated polymer
        instances = [gen_linear_regular(3, 4, 2, seed=1),
                     gen_linear_regular(3, 6, 2, seed=2, min_girth=5),
                     random_partite(3, (3, 3, 2), 0.5, 5)]
        checked = 0
        for G in instances:
            for cls in range(G.k):
                for p in enumerate_polymers(G, cls, 3):
                    w = polymer_weight(G, p)
                    m = max_matching_size(G.link_graph(p.vertices))
                    assert w <= gamma_k(G.k) ** (-m)
                    checked += 1
        assert checked > 50

    def test_expansion_guarantees_matching(self):
        # |N(S)| >= (k-2+beta) r |S| forces a matching of beta r |S| / (k-1)
        G = gen_linear_regular(3, 6, 2, seed=8)
        k, r = 3, 2
        for cls in range(G.k):
            for p in enumerate_polymers(G, cls, 3):
                beta = Fraction(len(G.neighborhood(p.vertices)),
                                r * p.order) - (k - 2)
                if beta <= 0:
                    continue
                m = max_matching_size(G.link_graph(p.vertices))
                assert m >= Fraction(beta, k - 1) * r * p.order

    def test_polymer_count_bound(self):
        # at most e((k-1) e r^2)^(s-1) polymers of order s through a vertex
        for seed in (0, 3):
            G = gen_linear_regular(3, 5, 2, seed=seed)
            r = 2
            for v in G.class_vertices(0):
                polys = enumerate_polymers(G, 0, 3, root=v)
                by_size = {}
                for p in polys:
                    by_size[p.order] = by_size.get(p.order, 0) + 1
                for s, cnt in by_size.items():
                    assert polymer_count_bound_holds(cnt, G.k, r, s)
