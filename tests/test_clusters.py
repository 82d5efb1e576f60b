"""Ursell functions, cluster enumeration, truncated log partition sums, and
the estimator."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypercount import (BudgetExceeded, Hypergraph, InputError, Vertex,
                        cluster_weight, compatible, enumerate_clusters,
                        enumerate_polymers, estimate_count, gamma_k,
                        gen_linear_regular, partition_function,
                        polymer_weight, serialize_text, singleton_sum,
                        truncated_log_xi, ursell)
from hypercount import clusters as cl, exact, polymers
from hypercount.cli import main

from conftest import (girth5_instances, loose_path, partite_hypergraphs,
                      random_partite, single_edge)
from oracles import (distance_two_neighbors, is_two_linked,
                     truncated_log_generic, truncated_log_xi_fraction,
                     ursell_by_subgraphs)

V = Vertex


def _cluster_sum(G, cls, t):
    """The size-t truncation as the sum of ordered-cluster weights."""
    return sum((c.ordering_count * cluster_weight(c)
                for c in enumerate_clusters(G, cls, t)), Fraction(0))


def _log_xi_prefix(G, cls, t):
    """[z^1..z^t] of log Xi(z) at z = 1.  Xi(z) is summed by brute force over
    compatible polymer families, each polymer S weighted w(S) z^|S|, and
    log(1 + u) is expanded as its Mercator series."""
    polys = enumerate_polymers(G, cls, G.sizes[cls])
    w = {p: polymer_weight(G, p) for p in polys}
    xi = [Fraction(0)] * (t + 1)
    for size in range(len(polys) + 1):
        for fam in itertools.combinations(polys, size):
            order = sum(p.order for p in fam)
            if order <= t and all(compatible(a, b) for a, b
                                  in itertools.combinations(fam, 2)):
                xi[order] += math.prod((w[p] for p in fam), start=Fraction(1))
    assert xi[0] == 1
    u = [Fraction(0)] + xi[1:]
    power = [Fraction(1)] + [Fraction(0)] * t
    log = Fraction(0)
    for m in range(1, t + 1):
        power = [sum(power[i] * u[s - i] for i in range(s + 1))
                 for s in range(t + 1)]
        log += Fraction((-1) ** (m + 1), m) * sum(power)
    return log


@st.composite
def wide_class_hypergraphs(draw):
    """Non-linear 3-partite instances whose class 0 has 65 to 100 vertices,
    edges only at two to four scattered ones (one at index 64 or above),
    and classes 1 and 2 of two or three vertices.  Two edges through the
    first low vertex and (1, 0) make the instance non-linear."""
    size = draw(st.integers(65, 100))
    sizes = [size, draw(st.integers(2, 3)), draw(st.integers(2, 3))]
    high = draw(st.integers(64, size - 1))
    low = draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=3,
                        unique=True).filter(lambda xs: high not in xs))
    pairs = list(itertools.product(range(sizes[1]), range(sizes[2])))
    edges = {(low[0], 0, 0), (low[0], 0, 1)}
    for i in [high] + low:
        edges.update((i, a, b) for a, b in draw(st.lists(
            st.sampled_from(pairs), min_size=1, max_size=3)))
    edges = [[(0, i), (1, a), (2, b)] for i, a, b in sorted(edges)]
    return Hypergraph.build(3, sizes, edges)


def _connected_graphs(n):
    """All connected labelled graphs on n vertices."""
    possible = list(itertools.combinations(range(n), 2))
    for picks in range(1 << len(possible)):
        edges = [possible[i] for i in range(len(possible)) if picks >> i & 1]
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for a, b in edges:
            parent[find(a)] = find(b)
        if len({find(i) for i in range(n)}) == 1:
            yield edges


def _ursell_by_orientations(n, edges):
    """Second independent oracle: signed spanning-connected counts equal
    (-1)^(n-1) times the acyclic orientations with unique source at vertex 0."""
    edges = list(edges)
    m = len(edges)
    good = 0
    for picks in range(1 << m):
        arcs = [(a, b) if picks >> i & 1 else (b, a)
                for i, (a, b) in enumerate(edges)]
        indeg = [0] * n
        for _, b in arcs:
            indeg[b] += 1
        # acyclicity by repeated source removal
        alive = set(range(n))
        adj = {}
        for a, b in arcs:
            adj.setdefault(a, []).append(b)
        deg = indeg[:]
        order = [v for v in alive if deg[v] == 0]
        seen = 0
        queue = list(order)
        while queue:
            v = queue.pop()
            seen += 1
            for u in adj.get(v, []):
                deg[u] -= 1
                if deg[u] == 0:
                    queue.append(u)
        if seen == n and sum(1 for v in range(n) if indeg[v] == 0) == 1 \
                and indeg[0] == 0:
            good += 1
    return Fraction((-1) ** (n - 1) * good, math.factorial(n))


class TestUrsell:
    def test_single_vertex(self):
        assert ursell(1, []) == 1

    def test_single_edge(self):
        assert ursell(2, [(0, 1)]) == Fraction(-1, 2)

    def test_complete_graphs(self):
        for m in range(1, 6):
            edges = list(itertools.combinations(range(m), 2))
            assert ursell(m, edges) == Fraction((-1) ** (m - 1), m)

    def test_trees(self):
        paths = {m: [(i, i + 1) for i in range(m - 1)] for m in range(2, 6)}
        for m, edges in paths.items():
            assert ursell(m, edges) == Fraction((-1) ** (m - 1),
                                                math.factorial(m))
        star = [(0, i) for i in range(1, 5)]
        assert ursell(5, star) == Fraction(1, math.factorial(5))

    def test_against_subgraph_enumeration(self):
        for n in range(1, 6):
            for edges in _connected_graphs(n):
                assert ursell(n, edges) == ursell_by_subgraphs(n, edges)

    def test_against_orientation_count(self):
        for n in range(1, 6):
            for edges in _connected_graphs(n):
                assert ursell(n, edges) == _ursell_by_orientations(n, edges)

    def test_disconnected_rejected(self):
        with pytest.raises(InputError):
            ursell(3, [(0, 1)])

    def test_rejects_exactly_the_disconnected_graphs(self):
        for n in range(1, 6):
            possible = list(itertools.combinations(range(n), 2))
            connected = {tuple(edges) for edges in _connected_graphs(n)}
            for size in range(len(possible) + 1):
                for edges in itertools.combinations(possible, size):
                    if edges in connected:
                        ursell(n, edges)
                        continue
                    with pytest.raises(InputError, match="connected graphs"):
                        ursell(n, edges)

    def test_cap_refusal(self):
        with pytest.raises(BudgetExceeded):
            ursell(12, [(i, i + 1) for i in range(11)])

    def test_isomorphic_graphs_agree(self):
        a = ursell(4, [(0, 1), (1, 2), (2, 3)])
        b = ursell(4, [(3, 2), (2, 0), (0, 1)])  # relabelled path
        assert a == b == Fraction(-1, 24)

    def test_large_symmetric_graphs(self):
        # spanning connected subgraphs of a cycle: all edges, or drop one
        for m in (5, 7, 9):
            cycle = [(i, (i + 1) % m) for i in range(m)]
            assert ursell(m, cycle) == Fraction((-1) ** (m - 1) * (m - 1),
                                                math.factorial(m))
        k9 = list(itertools.combinations(range(9), 2))
        assert ursell(9, k9) == Fraction(1, 9)


class TestClusterEnumeration:
    def test_t1_singletons(self):
        G = random_partite(3, (3, 2, 2), 0.5, 1)
        for cls in range(3):
            found = enumerate_clusters(G, cls, 1)
            assert len(found) == G.sizes[cls]
            assert all(c.length == 1 and c.size == 1 for c in found)

    def test_girth5_t2_counts(self):
        k, n, r = 3, 6, 2
        G = gen_linear_regular(k, n, r, seed=4, min_girth=5)
        found = enumerate_clusters(G, 0, 2)
        pair_polymers = [c for c in found if c.length == 1 and c.size == 2]
        assert len(pair_polymers) == n * (k - 1) * r * (r - 1) // 2
        repeated = [c for c in found if c.length == 2
                    and len(c.entries) == 1]
        assert len(repeated) == n
        assert all(c.ordering_count == 1 for c in repeated)
        distinct_pairs = [c for c in found if c.length == 2
                          and len(c.entries) == 2]
        assert all(c.ordering_count == 2 for c in distinct_pairs)
        ordered_total = sum(c.ordering_count for c in found if c.length == 2)
        assert ordered_total == n * ((k - 1) * r * (r - 1) + 1)

    def test_ordered_tuple_oracle(self):
        # brute-force ordered vectors of polymers with connected
        # incompatibility graph must aggregate to the canonical multisets
        from hypercount.clusters import _connected_multiset
        for seed, t in ((0, 3), (2, 3), (0, 4)):
            G = random_partite(3, (2, 2, 2), 0.5, seed)
            polys = enumerate_polymers(G, 0, t)
            ordered = {}
            for length in range(1, t + 1):
                for tup in itertools.product(polys, repeat=length):
                    if sum(p.order for p in tup) > t:
                        continue
                    if _connected_multiset(list(tup)):
                        key = tuple(sorted(
                            (p, tup.count(p)) for p in set(tup)))
                        ordered[key] = ordered.get(key, 0) + 1
            canonical = {c.entries: c.ordering_count
                         for c in enumerate_clusters(G, 0, t)}
            assert ordered == canonical

    def test_support_is_two_linked_and_local(self):
        G = gen_linear_regular(3, 6, 2, seed=6)
        for t in (1, 2, 3):
            for c in enumerate_clusters(G, 0, t):
                support = sorted(c.support)
                assert 1 <= c.length <= c.size <= t
                assert len(support) <= c.size
                assert is_two_linked(G, support)
                # all support vertices within t-1 shared-neighbour hops
                root = support[0]
                reach = {root}
                for _ in range(t - 1):
                    reach |= {u for v in reach
                              for u in distance_two_neighbors(G, v)}
                assert set(support) <= reach

    def test_rejects_bad_t(self, edge3):
        with pytest.raises(InputError):
            enumerate_clusters(edge3, 0, 0)

    def test_cluster_cap_on_a_star(self):
        # ten class-0 vertices share the one class-1 vertex, so every subset
        # of them is a polymer and the clusters outgrow the polymers: 385
        # polymers of order <= 4 make 6,535 clusters of size <= 4, and size
        # 5 (637 polymers) would list 43,139
        G = Hypergraph.build(3, [10, 1, 10],
                             [[(0, i), (1, 0), (2, i)] for i in range(10)])
        assert len(enumerate_clusters(G, 0, 4)) == 6535
        with pytest.raises(BudgetExceeded, match=(
                "^at least 20001 clusters exceed the cap of 20000; refusing")):
            enumerate_clusters(G, 0, 5)


class TestClusterWeights:
    def test_singleton_cluster(self):
        k, r = 3, 2
        G = gen_linear_regular(k, 4, r, seed=3)
        found = enumerate_clusters(G, 0, 1)
        w = {}
        for c in found:
            w[c] = cluster_weight(c)
        assert all(val == gamma_k(k) ** (-r) for val in w.values())

    def test_repeated_singleton(self, edge3):
        found = enumerate_clusters(edge3, 0, 2)
        repeated = [c for c in found if c.length == 2][0]
        w = cluster_weight(repeated)
        assert w == Fraction(-1, 2) * Fraction(3, 4) ** 2

    def test_distinct_singleton_pair(self):
        k, n, r = 3, 6, 2
        G = gen_linear_regular(k, n, r, seed=4, min_girth=5)
        found = enumerate_clusters(G, 0, 2)
        pair = [c for c in found if c.length == 2 and len(c.entries) == 2][0]
        w = cluster_weight(pair)
        assert w == Fraction(-1, 2) * gamma_k(k) ** (-2 * r)


class TestTruncatedSums:
    def test_single_edge_series(self, edge3):
        assert truncated_log_xi(edge3, 0, 1) == Fraction(3, 4)
        assert truncated_log_xi(edge3, 0, 2) == Fraction(15, 32)
        assert truncated_log_xi(edge3, 0, 3) == Fraction(15, 32) + Fraction(9, 64)

    @pytest.mark.parametrize("w", [Fraction(1, 2), Fraction(3, 4)])
    def test_mercator_single_polymer(self, w):
        # one self-incompatible polymer of order 1 and weight w: the
        # truncation must equal the Taylor prefix of log(1+w)
        items = ["S"]
        for t in range(1, 7):
            value = truncated_log_generic(items, lambda s: 1, lambda s: w,
                                          lambda a, b: True, t)
            taylor = sum(Fraction((-1) ** (m + 1), m) * w ** m
                         for m in range(1, t + 1))
            assert value == taylor

    def test_closed_form_sign_sum(self):
        # the truncation's sign factor: sum_{j <= m} (-1)^j binom(d, j)
        for d in range(30):
            for m in range(30):
                direct = sum((-1) ** j * math.comb(d, j) for j in range(m + 1))
                closed = (-1) ** m * math.comb(d - 1, m) if d else 1
                assert direct == closed, (d, m)

    def test_one_set_of_edge_masks_per_instance(self, monkeypatch, tmp_path,
                                                capsys):
        # estimate's k classes, and compare's exact count too, read one
        # exact.edge_masks(G) per instance
        calls = []
        real = exact.edge_masks

        def spy(G):
            calls.append(G)
            return real(G)

        monkeypatch.setattr(exact, "edge_masks", spy)
        G = gen_linear_regular(4, 5, 2, seed=2)
        estimate_count(G, 2)
        assert calls == [G]
        path = tmp_path / "k4.hg"
        path.write_text(serialize_text(G))
        assert main(["compare", "-i", str(path), "--t", "2"]) == 0
        assert "estimate_log=" in capsys.readouterr().out
        assert len(calls) == 2

    def test_enumerates_through_the_polymers_module(self, monkeypatch):
        # a caller that rebinds polymers.enumerate_polymers, as the tracer
        # does, sees the truncation's and the cluster listing's enumeration
        calls = []
        real = polymers.enumerate_polymers

        def spy(G, cls, t, **kwargs):
            calls.append((cls, t))
            return real(G, cls, t, **kwargs)

        monkeypatch.setattr(polymers, "enumerate_polymers", spy)
        G = gen_linear_regular(3, 4, 2, seed=1)
        expected = truncated_log_xi(G, 1, 3)
        enumerate_clusters(G, 0, 2)
        assert calls == [(1, 3), (0, 2)]
        monkeypatch.undo()
        assert truncated_log_xi(G, 1, 3) == expected

    def test_engine_t1_equality(self):
        for k, n, r, seed in [(3, 4, 1, 0), (3, 4, 2, 1), (4, 5, 2, 2)]:
            G = gen_linear_regular(k, n, r, seed=seed)
            for cls in range(k):
                assert truncated_log_xi(G, cls, 1) == singleton_sum(k, n, r)

    def test_matches_generic_enumerator(self):
        for seed in (1, 3):
            G = random_partite(3, (2, 2, 2), 0.6, seed)
            for t in (1, 2, 3):
                polys = enumerate_polymers(G, 0, t)
                w = {p: polymer_weight(G, p) for p in polys}
                nb = {p: G.neighborhood(p.vertices) for p in polys}
                generic = truncated_log_generic(
                    polys, lambda p: p.order, lambda p: w[p],
                    lambda a, b: a == b or bool(nb[a] & nb[b]), t)
                assert generic == truncated_log_xi(G, 0, t)

    def test_matches_generic_on_three_vertex_supports(self):
        # classes of size 2 never produce supports of order 3; use a real
        # girth-5 instance so the locality-based enumeration is checked
        # against the model-level one on larger connected supports too
        G = gen_linear_regular(3, 6, 2, seed=4, min_girth=5)
        t = 3
        polys = enumerate_polymers(G, 0, t)
        assert any(p.order == 3 for p in polys)
        w = {p: polymer_weight(G, p) for p in polys}
        nb = {p: G.neighborhood(p.vertices) for p in polys}
        generic = truncated_log_generic(
            polys, lambda p: p.order, lambda p: w[p],
            lambda a, b: a == b or bool(nb[a] & nb[b]), t)
        assert generic == truncated_log_xi(G, 0, t)

    def test_isolated_vertex_taylor_prefix(self):
        # class 0 holds an isolated vertex, a self-incompatible polymer of
        # weight 1: Xi(z) = (1+z)(1+3z/4)
        G = Hypergraph.build(3, [2, 1, 1], [[(0, 0), (1, 0), (2, 0)]])
        isolated = enumerate_polymers(G, 0, 1)[1]
        assert isolated.vertices == (V(0, 1),)
        assert not compatible(isolated, isolated)
        clusters = {c.entries for c in enumerate_clusters(G, 0, 2)}
        assert ((isolated, 2),) in clusters
        assert truncated_log_xi(G, 0, 1) == Fraction(7, 4)
        assert truncated_log_xi(G, 0, 2) == Fraction(31, 32)
        assert _cluster_sum(G, 0, 2) == Fraction(31, 32)

    @given(partite_hypergraphs())
    @settings(max_examples=60, deadline=None)
    def test_taylor_prefix_of_log_xi(self, G):
        for cls in range(G.k):
            for t in range(1, 5):
                assert truncated_log_xi(G, cls, t) == _log_xi_prefix(G, cls, t)

    def test_matches_cluster_sum_on_girth5_corpus(self):
        for k, n, r, G in girth5_instances():
            for cls in range(k):
                for t in (2, 3):
                    assert truncated_log_xi(G, cls, t) == _cluster_sum(G, cls, t)

    @given(wide_class_hypergraphs())
    @settings(max_examples=40, deadline=None)
    def test_matches_cluster_sum_on_a_wide_class(self, G):
        # class 0 has more than 64 vertices, and its polymers sit on
        # scattered indices, one at 64 or above: the subsets of a polymer
        # are submasks of a class-index mask wider than a machine word
        for cls in range(G.k):
            for t in (2, 3):
                assert truncated_log_xi(G, cls, t) == _cluster_sum(G, cls, t)

    def test_matches_fraction_form_on_girth5_corpus(self):
        for k, n, r, G in girth5_instances():
            for cls in range(k):
                for t in (2, 3, 4):
                    assert truncated_log_xi(G, cls, t) == \
                        truncated_log_xi_fraction(G, cls, t)

    def test_matches_fraction_form_at_depth(self):
        G = gen_linear_regular(3, 10, 2, seed=0)
        for cls in range(3):
            assert truncated_log_xi(G, cls, 5) == truncated_log_xi_fraction(G, cls, 5)

    def test_matches_cluster_sum_at_depth(self):
        for (k, n, r, seed), t in (((3, 10, 2, 0), 5), ((4, 6, 2, 1), 4)):
            G = gen_linear_regular(k, n, r, seed=seed)
            assert truncated_log_xi(G, 0, t) == _cluster_sum(G, 0, t)

    def test_polymer_cap(self, monkeypatch):
        # the cap counts the class's polymers of order <= t, and each
        # class of the estimate is capped on its own; the cluster listing
        # also caps the clusters, which outnumber the polymers
        G = gen_linear_regular(3, 6, 2, seed=0)
        count = len(enumerate_polymers(G, 0, 3))
        most = max(len(enumerate_polymers(G, c, 3)) for c in range(3))
        clusters = len(enumerate_clusters(G, 0, 3))
        assert clusters > count
        log_xi, estimate = truncated_log_xi(G, 0, 3), estimate_count(G, 3)
        monkeypatch.setattr(polymers, "MAX_POLYMERS", count)
        assert truncated_log_xi(G, 0, 3) == log_xi
        monkeypatch.setattr(polymers, "MAX_POLYMERS", clusters)
        assert len(enumerate_clusters(G, 0, 3)) == clusters
        monkeypatch.setattr(polymers, "MAX_POLYMERS", most)
        assert estimate_count(G, 3) == estimate
        for run, found, cap in (
                (lambda: truncated_log_xi(G, 0, 3),
                 f"{count} polymers", count - 1),
                (lambda: enumerate_clusters(G, 0, 3),
                 f"{count} polymers", count - 1),
                (lambda: enumerate_clusters(G, 0, 3),
                 f"{clusters} clusters", clusters - 1),
                (lambda: estimate_count(G, 3),
                 f"{most} polymers", most - 1)):
            monkeypatch.setattr(polymers, "MAX_POLYMERS", cap)
            with pytest.raises(BudgetExceeded, match=(
                    f"at least {found} exceed the cap of {cap};")):
                run()

    def test_work_cap(self, monkeypatch):
        # one polymer of order 1 at t = 3: 2 subsets plus 9 series terms
        G = single_edge(3)
        expected = truncated_log_xi(G, 0, 3)
        monkeypatch.setattr(cl, "TRUNCATION_WORK_CAP", 11)
        assert truncated_log_xi(G, 0, 3) == expected
        monkeypatch.setattr(cl, "TRUNCATION_WORK_CAP", 10)
        with pytest.raises(BudgetExceeded, match=(
                r"^the truncation at t=3 over 1 polymers needs about 11 "
                r"steps, over the cap of 10; refusing")):
            truncated_log_xi(G, 0, 3)

    @pytest.mark.parametrize("G, cls, t", [
        (loose_path(40), 1, 20),  # 210 polymers of up to 20 vertices
        (single_edge(3), 0, 10_000),  # a series of 10,000 terms
    ], ids=["long-polymers", "long-series"])
    def test_work_cap_refuses_before_the_loop(self, G, cls, t):
        with pytest.raises(BudgetExceeded, match=(
                f"^the truncation at t={t} over .* over the cap of "
                f"{cl.TRUNCATION_WORK_CAP};")):
            truncated_log_xi(G, cls, t)

    def test_convergence_trend_on_tiny_instance(self, edge3, capsys):
        # reported, not asserted: the truncation error against the exact
        # log partition function for t = 1..6
        exact_xi = partition_function(edge3, 0, 1)
        errors = []
        for t in range(1, 7):
            approx = float(truncated_log_xi(edge3, 0, t))
            errors.append(abs(approx - math.log(float(exact_xi))))
        print("truncation errors:", [f"{e:.3g}" for e in errors])
        assert errors[-1] < errors[0]  # eventually decreasing here


class TestEstimate:
    def test_single_edge(self, edge3):
        est = estimate_count(edge3, 1)
        assert est.class_exponents == ((0, Fraction(3, 4)),
                                       (1, Fraction(3, 4)),
                                       (2, Fraction(3, 4)))
        assert est.log_value == pytest.approx(math.log(12) + 0.75, rel=1e-12)

    def test_linear_regular_t1_closed_form(self):
        k, n, r = 3, 5, 2
        G = gen_linear_regular(k, n, r, seed=11)
        est = estimate_count(G, 1)
        expected = math.log(k) + (k - 1) * n * math.log(2) \
            + float(singleton_sum(k, n, r))
        assert est.log_value == pytest.approx(expected, rel=1e-12)

    def test_input_gates(self, edge3):
        with pytest.raises(InputError):
            estimate_count(edge3, 0)
        G2 = Hypergraph.build(2, [1, 1], [[(0, 0), (1, 0)]])
        with pytest.raises(InputError):
            estimate_count(G2, 1)
        irregular = Hypergraph.build(3, [1, 2, 2],
                                     [[(0, 0), (1, 0), (2, 0)],
                                      [(0, 0), (1, 1), (2, 1)]])
        with pytest.raises(InputError):
            estimate_count(irregular, 1)
        unequal = Hypergraph.build(3, [1, 1, 2], [[(0, 0), (1, 0), (2, 0)]])
        with pytest.raises(InputError):
            estimate_count(unequal, 1)
