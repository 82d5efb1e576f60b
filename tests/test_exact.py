"""Exact counting oracles: frontier-sweep counter vs the subset filter, the
completion formula, and defect-restricted counts."""

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hypercount import exact, hypergraph
from hypercount import (BudgetExceeded, Hypergraph, Vertex, class_mask,
                        count_independent_sets, count_subsets_avoiding,
                        count_with_defect_class, edge_masks,
                        enumerate_polymers, gen_linear_regular)

from conftest import (circulant, fan, loose_path, matching,
                      partite_hypergraphs, random_partite,
                      random_uniform_system, two_shared)
import oracles
from oracles import (count_by_filter, count_completions, count_link_graph,
                     defect_count_by_filter, independent_masks,
                     loose_path_count, two_linked_components)

V = Vertex


@st.composite
def mixed_systems(draw):
    """(vertex count, edge masks) with masks of every size: the empty mask,
    singletons, repeats and edges nested inside other edges."""
    n = draw(st.integers(0, 10))
    full = (1 << n) - 1
    masks = draw(st.lists(st.integers(0, full), max_size=10))
    singles = draw(st.lists(st.sampled_from([1 << v for v in range(n)] or [0]),
                            max_size=3))
    nested = [m & draw(st.integers(0, full)) or m for m in masks[:3]]
    return n, masks + singles + nested + masks[:2]


@st.composite
def linked_systems(draw):
    """(vertex count, edge masks): edges over a pool of shared vertices,
    each with up to two private vertices of its own, plus repeated edges,
    edges nested inside others and singletons."""
    pool = draw(st.integers(1, 6))
    cores = draw(st.lists(st.integers(1, (1 << pool) - 1), min_size=1,
                          max_size=6))
    n = pool
    masks = []
    for core in cores:
        p = draw(st.integers(0, 2))
        masks.append(core | ((1 << p) - 1) << n)
        n += p
    nested = [m & draw(st.integers(1, (1 << n) - 1)) or m for m in masks[:2]]
    singles = draw(st.lists(st.sampled_from([1 << v for v in range(n)]),
                            max_size=2))
    return n, masks + masks[:2] + nested + singles


class TestCountExamples:
    def test_edgeless(self):
        for m in range(6):
            assert count_subsets_avoiding(m, []) == 2 ** m

    def test_single_3_edge(self, edge3):
        assert count_independent_sets(edge3) == 7

    def test_perfect_matching(self):
        # r disjoint (k-1)-edges: independent sets multiply per edge
        for k in (3, 4):
            for r in (1, 2, 3):
                G = matching(k, r)
                L = G.link_graph([V(0, i) for i in range(r)])
                assert count_link_graph(L) == (2 ** (k - 1) - 1) ** r

    def test_two_sharing_edges_k3(self):
        # two 2-edges meeting in one vertex: (2^1)^2 + (2^1 - 1)^2 = 5
        assert count_subsets_avoiding(3, [0b011, 0b110]) == 5

    def test_link_of_shared_vertex_is_disjoint_pair(self):
        # residues of edges through the shared vertex are disjoint: 3 * 3
        G = two_shared(3)
        L = G.link_graph([V(0, 0)])
        assert count_link_graph(L) == 9

    def test_whole_two_shared(self):
        # by hand: 2^5 subsets, minus those containing either 3-edge
        G = two_shared(3)
        assert count_independent_sets(G) == 32 - 4 - 4 + 1


class TestFilterAgreement:
    def test_fixed_sweep(self):
        for seed in range(60):
            n = 4 + seed % 13
            uni = 2 + seed % 3
            n_edges = 1 + (seed * 7) % 12
            n, masks = random_uniform_system(n, uni, n_edges, seed)
            assert count_subsets_avoiding(n, masks) == count_by_filter(n, masks)

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_randomized(self, seed):
        n, masks = random_uniform_system(4 + seed % 10, 2 + seed % 3,
                                         1 + seed % 9, seed)
        assert count_subsets_avoiding(n, masks) == count_by_filter(n, masks)

    @given(mixed_systems())
    @example((0, [0]))
    @example((4, [0b0001, 0b0011, 0b0110, 0b0110, 0b1110]))
    @example((5, [2, 25, 2, 9, 2, 25]))  # {0,3} inside {0,3,4}: 12 sets
    @settings(max_examples=80, deadline=None)
    def test_mixed_sizes(self, system):
        n, masks = system
        assert count_subsets_avoiding(n, masks) == count_by_filter(n, masks)

    @given(linked_systems())
    # 3 shared vertices (0, 1, 2), the most the direct sum takes: {0,1}
    # twice with p = 0, {1,2,3} and {2,6} with p = 1, {0,2,4,5} with p = 2
    @example((7, [0b0000011, 0b0001110, 0b0110101, 0b0000011, 0b1000100]))
    # 4 shared vertices, the fewest the sweep takes: vertex 3 joins the
    # shared ones through {3,7} and the p = 0 edge {0,3}
    @example((8, [0b00000011, 0b00001110, 0b00110101, 0b00000011,
                  0b01000100, 0b10001000, 0b00001001]))
    @settings(max_examples=80, deadline=None)
    def test_shared_and_private_vertices(self, system):
        n, masks = system
        assert count_subsets_avoiding(n, masks) == count_by_filter(n, masks)

    def test_filter_budget(self):
        with pytest.raises(BudgetExceeded):
            count_by_filter(30, [3])

    def test_filter_refuses_before_building_masks(self, monkeypatch):
        def masks():
            raise AssertionError("edge masks read before the refusal")
            yield

        message = r"^2\^\|V\| filter limited to 24 vertices, got 27;"
        with pytest.raises(BudgetExceeded, match=message):
            count_by_filter(27, masks())
        monkeypatch.setattr(oracles, "edge_masks", None)  # not callable
        with pytest.raises(BudgetExceeded, match=message):
            independent_masks(matching(3, 9))


class TestDirectSum:
    @pytest.mark.parametrize("shared", [1, 2, 3, 4])
    def test_the_sweep_starts_at_four_shared_vertices(self, monkeypatch,
                                                      shared):
        G = fan(shared)
        fib = [0, 1]
        while len(fib) < shared + 5:
            fib.append(fib[-1] + fib[-2])
        sweeps = []
        sweep = exact._sweep
        monkeypatch.setattr(exact, "_sweep",
                            lambda *a: sweeps.append(a) or sweep(*a))
        (p,) = enumerate_polymers(G, 0, 1)
        assert p.weight == Fraction(fib[shared + 4], 1 << shared + 2)
        assert len(sweeps) == (shared == 4)


class TestLoosePath:
    def test_long_path_matches_transfer_matrix(self):
        assert count_independent_sets(loose_path(300)) == loose_path_count(300)

    def test_5000_edges_match_transfer_matrix(self, monkeypatch):
        # the sweep's frontier on a path holds at most two edges, so its
        # length costs no states
        monkeypatch.setattr(exact, "STATE_CAP", 4)
        assert count_independent_sets(loose_path(5000)) == loose_path_count(5000)


class TestStateCap:
    # each instance, the cap, and where the greedy order stops: the shared
    # vertices swept, of all of them, and the live states held
    @pytest.mark.parametrize("instance, cap, swept, total, held", [
        (lambda: circulant(5, 2), 12, 5, 15, 16),
        (lambda: gen_linear_regular(3, 20, 2, seed=0), 64, 16, 60, 96),
        (lambda: gen_linear_regular(3, 40, 2, seed=0), 256, 14, 120, 384),
        (lambda: gen_linear_regular(3, 15, 3, seed=0), 256, 9, 45, 281)],
        ids=["circulant-5-2", "gen-3-20-2", "gen-3-40-2", "gen-3-15-3"])
    def test_refusal_names_how_far_the_sweep_got(
            self, monkeypatch, instance, cap, swept, total, held):
        G = instance()
        monkeypatch.setattr(exact, "STATE_CAP", cap)
        with pytest.raises(BudgetExceeded, match=(
                rf"^the exact count swept {swept} of {total} shared vertices "
                rf"and held {held} live states, over the cap of {cap}; "
                rf"refusing")):
            count_independent_sets(G)

    def test_count_under_the_cap_is_exact(self, monkeypatch):
        G = circulant(5, 2)
        expected = count_independent_sets(G)
        monkeypatch.setattr(exact, "STATE_CAP", 16)
        assert count_independent_sets(G) == expected

    def test_direct_sum_keeps_no_states(self, monkeypatch):
        # a loose path of 4 edges has 3 shared vertices and no sweep; the
        # path of 5 edges has 4, and its sweep holds 2 states at once
        monkeypatch.setattr(exact, "STATE_CAP", 1)
        assert count_independent_sets(loose_path(4)) == loose_path_count(4)
        with pytest.raises(BudgetExceeded, match=(
                r"^the exact count swept 1 of 4 shared vertices and held 2 "
                r"live states, over the cap of 1;")):
            count_independent_sets(loose_path(5))

    def test_greedy_order_reaches_a_30_vertex_class(self, monkeypatch):
        # the sweep holds at most 2,048 states on this instance
        G = gen_linear_regular(3, 30, 2, seed=0)
        expected = count_independent_sets(G)
        monkeypatch.setattr(exact, "STATE_CAP", 2048)
        assert count_independent_sets(G) == expected


class TestVertexCap:
    def test_count_at_the_cap(self):
        cap = hypergraph.COUNT_VERTEX_CAP
        assert count_subsets_avoiding(cap, [0b111]) == 7 << (cap - 3)

    def test_refuses_above_the_cap_before_building_the_count(self):
        # 2^(10^12) would not fit in memory
        for n in (hypergraph.COUNT_VERTEX_CAP + 1, 10 ** 12):
            with pytest.raises(BudgetExceeded, match=(
                    rf"^the exact count has {n} vertices, over the cap of "
                    rf"{hypergraph.COUNT_VERTEX_CAP}")):
                count_subsets_avoiding(n, [0b111])

    def test_hypergraph_refuses_before_building_edge_masks(self):
        # the edge's class-1 vertex would be bit 10^12: construction refuses
        with pytest.raises(BudgetExceeded, match=(
                r"^the instance has 1000000000002 vertices, over the cap of "
                rf"{hypergraph.COUNT_VERTEX_CAP};")):
            Hypergraph.build(3, [10 ** 12, 1, 1], [[(0, 0), (1, 0), (2, 0)]])

    def test_hypergraph_at_the_cap(self):
        cap = hypergraph.COUNT_VERTEX_CAP
        assert Hypergraph.build(3, [cap - 2, 1, 1], []).num_vertices == cap
        with pytest.raises(BudgetExceeded):
            Hypergraph.build(3, [cap - 1, 1, 1], [])


    def test_one_cap_gates_the_instance_and_the_raw_count(self, monkeypatch):
        monkeypatch.setattr(hypergraph, "COUNT_VERTEX_CAP", 10)
        with pytest.raises(BudgetExceeded, match=(
                r"^the instance has 12 vertices, over the cap of 10;")):
            Hypergraph.build(3, [4, 4, 4], [])
        with pytest.raises(BudgetExceeded, match=(
                r"^the exact count has 11 vertices, over the cap of 10,")):
            count_subsets_avoiding(11, [])
        assert count_subsets_avoiding(10, []) == 1024


def outcome(n, masks, cap):
    """The count of count_subsets_avoiding under the given STATE_CAP, or
    the message of its refusal."""
    saved = exact.STATE_CAP
    exact.STATE_CAP = cap
    try:
        return count_subsets_avoiding(n, masks)
    except BudgetExceeded as e:
        return str(e)
    finally:
        exact.STATE_CAP = saved


@given(st.one_of(linked_systems(), mixed_systems()), st.randoms())
@example((15, edge_masks(circulant(5, 2))), random.Random(0))
@settings(max_examples=80, deadline=None)
def test_shuffled_edges_count_and_refuse_alike(system, rnd):
    n, masks = system
    shuffled = rnd.sample(masks, len(masks))
    for cap in (1, 2, 4, 8, 12, exact.STATE_CAP):
        assert outcome(n, shuffled, cap) == outcome(n, masks, cap)


@given(partite_hypergraphs())
@settings(max_examples=60, deadline=None)
def test_edge_deletion_monotone(G):
    if not G.edges:
        return
    count = count_independent_sets(G)
    smaller = Hypergraph(G.k, G.sizes, G.edges[1:])
    assert count_independent_sets(smaller) >= count


@given(partite_hypergraphs())
@settings(max_examples=60, deadline=None)
def test_count_at_least_class_free(G):
    # subsets avoiding one whole class are always independent
    count = count_independent_sets(G)
    assert count >= 2 ** (G.num_vertices - max(G.sizes))


@given(partite_hypergraphs())
@settings(max_examples=60, deadline=None)
def test_independent_masks_seam(G):
    # the filter's masks are exactly the independent sets, in the bit order
    # that edge_masks and class_mask describe
    order = list(G.vertices())

    def decode(mask):
        return {v for i, v in enumerate(order) if mask >> i & 1}

    assert [decode(m) for m in edge_masks(G)] == [set(e) for e in G.edges]
    ind = independent_masks(G)
    assert ind.size == count_independent_sets(G)
    assert len(set(ind.tolist())) == ind.size
    for m in ind.tolist():
        members = decode(m)
        assert not any(set(e) <= members for e in G.edges)
        for cls in range(G.k):
            assert decode(m & class_mask(G, cls)) == {
                v for v in members if v.cls == cls}


def direct_completions(G, cls, T):
    """Independent sets of G whose trace on the class is exactly T, counted
    by the 2^|V| filter rather than the completion formula."""
    order = list(G.vertices())
    tmask = sum(1 << order.index(v) for v in T)
    traces = independent_masks(G) & np.uint64(class_mask(G, cls))
    return int((traces == tmask).sum())


class TestCompletions:
    def test_empty_defect_set(self, edge3):
        assert count_completions(edge3, 0, []) == 2 ** 2

    def test_single_edge_vertex(self, edge3):
        assert count_completions(edge3, 0, [V(0, 0)]) == 3
        assert direct_completions(edge3, 0, [V(0, 0)]) == 3

    def test_linear_regular_formula(self):
        from hypercount import gen_linear_regular
        k, n, r = 3, 4, 2
        G = gen_linear_regular(k, n, r, seed=7)
        expected = (2 ** (k - 1) - 1) ** r * 2 ** ((k - 1) * (n - r))
        assert count_completions(G, 0, [V(0, 0)]) == expected
        assert direct_completions(G, 0, [V(0, 0)]) == expected

    @given(partite_hypergraphs(max_k=3, max_size=3))
    @settings(max_examples=40, deadline=None)
    def test_formula_matches_enumeration(self, G):
        for cls in range(G.k):
            verts = G.class_vertices(cls)
            for size in range(min(2, len(verts)) + 1):
                for T in itertools.combinations(verts, size):
                    assert (count_completions(G, cls, T)
                            == direct_completions(G, cls, T))

    def test_rejects_wrong_class(self, edge3):
        from hypercount import InputError
        with pytest.raises(InputError):
            count_completions(edge3, 0, [V(1, 0)])


class TestDefectCounts:
    def test_single_edge_all_small(self, edge3):
        assert count_with_defect_class(edge3, 0, 1) == 7

    def test_large_bound_counts_everything(self):
        for seed in (0, 1, 2):
            G = random_partite(3, (2, 3, 2), 0.4, seed)
            total = count_independent_sets(G)
            for cls in range(3):
                b = G.sizes[cls]
                assert count_with_defect_class(G, cls, b) == total

    def test_zero_bound_counts_empty_trace(self):
        for seed in (3, 4):
            G = random_partite(3, (3, 2, 2), 0.5, seed)
            for cls in range(3):
                expect = 2 ** (G.num_vertices - G.sizes[cls])
                assert count_with_defect_class(G, cls, 0) == expect

    def test_profile_monotone_and_consistent(self):
        # the counts over b = 0..|class|+1 rise to every independent set
        G = random_partite(3, (3, 3, 2), 0.3, 11)
        for cls in range(3):
            prof = [count_with_defect_class(G, cls, b)
                    for b in range(G.sizes[cls] + 2)]
            assert all(a <= b for a, b in zip(prof, prof[1:]))
            assert prof[-1] == prof[-2] == count_independent_sets(G)

    def test_summation_identity(self):
        # defect-restricted count equals the sum of completions over defect
        # sets whose 2-linked pieces are small enough
        for seed in (0, 5, 9):
            G = random_partite(3, (3, 2, 2), 0.45, seed)
            for cls in range(3):
                verts = G.class_vertices(cls)
                for b in range(G.sizes[cls] + 1):
                    total = 0
                    for size in range(len(verts) + 1):
                        for T in itertools.combinations(verts, size):
                            pieces = two_linked_components(G, T)
                            if all(len(p) <= b for p in pieces):
                                total += count_completions(G, cls, T)
                    assert total == count_with_defect_class(G, cls, b)

    def test_budget_refusal(self):
        G = matching(3, 9)  # 27 vertices
        with pytest.raises(BudgetExceeded):
            count_with_defect_class(G, 0, 1)


@given(partite_hypergraphs(max_k=3, max_size=3))
@settings(max_examples=60, deadline=None)
def test_defect_count_equals_scaled_partition_function(G):
    # the central exact identity, hammered over arbitrary shapes including
    # uniformity 2 (the seeded acceptance sweep covers k=3 only)
    from hypercount import partition_function
    for cls in range(G.k):
        scale = 2 ** (G.num_vertices - G.sizes[cls])
        for b in range(G.sizes[cls] + 1):
            rhs = scale * partition_function(G, cls, b)
            assert rhs.denominator == 1
            assert count_with_defect_class(G, cls, b) == rhs


@given(partite_hypergraphs(max_k=4, max_size=4))
@settings(max_examples=60, deadline=None)
def test_defect_count_matches_the_filter(G):
    # the per-trace count against the independent sets grouped by trace
    for cls in range(G.k):
        for b in range(4):
            assert count_with_defect_class(G, cls, b) == \
                defect_count_by_filter(G, cls, b)


@st.composite
def sparse_classes(draw):
    """(G, cls): k = 2..4, a class of 1..9 vertices and the others of 1..3,
    at most 18 vertices, and at most 10 edges, so the class often splits
    into several 2-linked components and holds isolated vertices."""
    k = draw(st.integers(2, 4))
    cls = draw(st.integers(0, k - 1))
    sizes = [draw(st.integers(1, 9 if c == cls else 3)) for c in range(k)]
    space = list(itertools.product(*[range(s) for s in sizes]))
    picks = sorted(set(draw(st.lists(st.sampled_from(space), max_size=10))))
    return Hypergraph.build(k, sizes, [list(enumerate(combo))
                                       for combo in picks]), cls


@given(sparse_classes(), st.integers(0, 24))
@settings(max_examples=60, deadline=None)
def test_defect_count_factors_over_components(Gc, b):
    # components of order <= b are counted whole, the others trace by trace
    G, cls = Gc
    for bound in sorted({b, 0, G.sizes[cls] - 1, 24} - {-1}):
        assert count_with_defect_class(G, cls, bound) == \
            defect_count_by_filter(G, cls, bound)


@pytest.mark.parametrize("k, sizes, density", [
    (2, (22, 2), 0.5), (3, (20, 2, 2), 0.3)])
def test_defect_count_of_a_whole_component(k, sizes, density):
    # class 0 of these 24-vertex instances is one component of 19 or 15
    # vertices plus isolated ones; at b >= 20 every trace passes, each
    # component is counted by one call, and every independent set counts
    G = random_partite(k, sizes, density, 1)
    total = count_independent_sets(G)
    for b in (sizes[0], 23, 24):
        assert count_with_defect_class(G, 0, b) == total


@pytest.mark.parametrize("r", [2, 3])
def test_defect_count_matches_the_filter_at_the_cap(r):
    G = gen_linear_regular(3, 8, r, seed=0)  # 24 vertices
    for b in (1, 3):
        assert count_with_defect_class(G, 1, b) == \
            defect_count_by_filter(G, 1, b)


def test_filter_at_cap_boundary():
    n, masks = random_uniform_system(24, 3, 10, 99)
    assert count_subsets_avoiding(n, masks) == count_by_filter(n, masks)
