"""Structural primitives: neighbourhoods, link graphs, shared-neighbour
adjacency, 2-linked pieces, linearity, regularity, loose-cycle girth."""

import random
import re

import pytest
from hypothesis import example, given, settings

from hypercount import (Hypergraph, InputError, LinkGraph, Vertex,
                        check_girth, check_linear, find_loose_cycle,
                        find_loose_cycle_through, gen_linear_regular,
                        girth_at_most, loads, parse_json, parse_text,
                        serialize_text)
from hypercount import hypergraph
from hypercount.errors import BudgetExceeded

from conftest import matching, partite_hypergraphs, two_shared
from oracles import (distance_two_neighbors, incidence, is_loose_cycle,
                     loose_cycle_gadget, serialize_json,
                     two_linked_components)


V = Vertex


class TestConstruction:
    def test_rejects_bad_uniformity(self):
        with pytest.raises(InputError):
            Hypergraph.build(1, [1], [[(0, 0)]])

    def test_rejects_duplicate_edges(self):
        with pytest.raises(InputError, match="duplicate"):
            Hypergraph.build(3, [1, 1, 1],
                             [[(0, 0), (1, 0), (2, 0)],
                              [(2, 0), (0, 0), (1, 0)]])

    def test_rejects_out_of_range(self):
        with pytest.raises(InputError):
            Hypergraph.build(3, [1, 1, 1], [[(0, 0), (1, 0), (2, 5)]])

    def test_rejects_class_violation(self):
        with pytest.raises(InputError):
            Hypergraph.build(3, [2, 2, 2], [[(0, 0), (0, 1), (1, 0)]])

    def test_edges_are_canonical(self):
        G = Hypergraph.build(3, [2, 2, 2],
                             [[(2, 1), (0, 1), (1, 0)],
                              [(1, 1), (2, 0), (0, 0)]])
        assert G.edges == ((V(0, 0), V(1, 1), V(2, 0)),
                           (V(0, 1), V(1, 0), V(2, 1)))

    def test_incidence_rebuild(self, edge3):
        # the class tables' edge positions are the Vertex incidence
        rebuilt = {v: [] for v in edge3.vertices()}
        for i, e in enumerate(edge3.edges):
            for v in e:
                rebuilt[v].append(i)
        assert {v: tuple(ix) for v, ix in rebuilt.items()} == incidence(edge3)
        assert all(edge3.class_table(v.cls)[0][v.idx] == ix
                   for v, ix in rebuilt.items())


class TestRecordSemantics:
    """A Hypergraph compares, hashes and prints as the record (k, sizes,
    ids), whatever built it, and cannot be changed."""

    EDGES = [[(2, 0), (0, 0), (1, 1)], [(0, 1), (1, 0), (2, 0)]]
    REPR = "Hypergraph(k=3, sizes=(2, 2, 1), ids=((0, 3, 4), (1, 2, 4)))"

    def built(self):
        G = Hypergraph(3, [2, 2, 1], self.EDGES)
        return [G, Hypergraph.build(3, (2, 2, 1), reversed(self.EDGES)),
                Hypergraph.from_ids(3, [2, 2, 1], [[1, 2, 4], (0, 3, 4)]),
                parse_text(serialize_text(G)), parse_json(serialize_json(G)),
                loads(serialize_json(G))]

    def test_every_constructor_gives_one_record(self):
        for G in self.built():
            assert repr(G) == self.REPR
            assert G == self.built()[0]
            assert hash(G) == hash((3, (2, 2, 1), ((0, 3, 4), (1, 2, 4))))

    def test_other_records_differ(self):
        G = self.built()[0]
        assert G != Hypergraph(3, [2, 2, 1], self.EDGES[:1])
        assert G != Hypergraph(3, [2, 2, 2], self.EDGES)
        assert G != (G.k, G.sizes, G.ids)
        assert G.__eq__(object()) is NotImplemented

    def test_attributes_cannot_be_set_or_deleted(self):
        G = self.built()[0]
        assert G.edges == ((V(0, 0), V(1, 1), V(2, 0)),
                           (V(0, 1), V(1, 0), V(2, 0)))
        for name in ("k", "ids", "edges", "spare"):
            with pytest.raises(AttributeError,
                               match=f"cannot assign to field '{name}'"):
                setattr(G, name, None)
            with pytest.raises(AttributeError,
                               match=f"cannot delete field '{name}'"):
                delattr(G, name)
        assert repr(G) == self.REPR and "spare" not in vars(G)

    def test_cached_views_fill(self):
        G = Hypergraph(3, [2, 2, 1], self.EDGES)
        views = ("edges", "_edge_masks", "_text", "_class_tables")
        assert not set(views) & set(vars(G))
        assert G._edge_masks == [0b11001, 0b10110]
        assert G._text == serialize_text(G)
        assert G.edges[0] == (V(0, 0), V(1, 1), V(2, 0))
        G.class_table(0)
        assert set(views) <= set(vars(G)) and 0 in G._class_tables
        assert repr(G) == self.REPR


class TestNeighborhood:
    def test_single_edge(self, edge3):
        assert edge3.neighborhood([V(0, 0)]) == {V(1, 0), V(2, 0)}

    def test_whole_vertex_set(self, edge3):
        assert edge3.neighborhood(list(edge3.vertices())) == frozenset()

    def test_two_edges_through_vertex(self):
        G = two_shared(3)
        assert G.neighborhood([V(0, 0)]) == {V(1, 0), V(1, 1), V(2, 0), V(2, 1)}

    def test_bad_vertex(self, edge3):
        with pytest.raises(InputError):
            edge3.neighborhood([V(0, 7)])


class TestLinkGraph:
    def test_single_edge(self, edge3):
        L = edge3.link_graph([V(0, 0)])
        assert L.uniformity == 2
        assert L.edges == {frozenset({V(1, 0), V(2, 0)})}
        assert L.vertices == edge3.neighborhood([V(0, 0)])

    def test_linear_regular_singleton_is_matching(self):
        G = gen_linear_regular(3, 5, 2, seed=3)
        L = G.link_graph([V(0, 0)])
        assert len(L.edges) == 2
        e1, e2 = sorted(L.edges, key=sorted)
        assert not (e1 & e2)

    def test_pair_with_one_common_neighbor(self):
        # two vertices sharing exactly one neighbour: 2r-2 disjoint residues
        # plus two residues meeting in the shared vertex, 7 vertices for k=3
        G = gen_linear_regular(3, 6, 2, seed=0, min_girth=5)
        v = V(0, 0)
        u = sorted(distance_two_neighbors(G, v))[0]
        L = G.link_graph([v, u])
        assert len(L.vertices) == 7
        edges = sorted(L.edges, key=sorted)
        sharing = [(a, b) for i, a in enumerate(edges)
                   for b in edges[i + 1:] if a & b]
        assert len(sharing) == 1 and len(sharing[0][0] & sharing[0][1]) == 1

    FAULTS = [
        (2, {V(1, 0)}, {frozenset({V(1, 0)})},
         "link edge [Vertex(cls=1, idx=0)] has 1 vertices, expected 2"),
        (2, {V(1, 0), V(2, 0), V(2, 1)}, {frozenset({V(1, 0), V(2, 0)})},
         "link graph vertex set must equal the union of its edges"),
    ]

    @pytest.mark.parametrize("uniformity, vertices, edges, message", FAULTS)
    def test_refuses_with_its_messages(self, uniformity, vertices, edges,
                                       message):
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            LinkGraph(uniformity, frozenset(vertices), frozenset(edges))

    @pytest.mark.parametrize("uniformity, vertices, edges, message", FAULTS)
    def test_replace_validates(self, edge3, uniformity, vertices, edges,
                               message):
        L = edge3.link_graph([V(0, 0)])
        assert L._replace(uniformity=2) == L
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            L._replace(uniformity=uniformity, vertices=frozenset(vertices),
                       edges=frozenset(edges))

    def test_requires_single_class(self, edge3):
        with pytest.raises(InputError):
            edge3.link_graph([V(0, 0), V(1, 0)])
        with pytest.raises(InputError):
            edge3.link_graph([])


class TestDistanceTwo:
    """The class table's distance-two masks of class indices."""

    def test_single_edge_has_none(self, edge3):
        assert edge3.class_table(0)[1] == [0]

    def test_shared_neighbor_forces_adjacency(self):
        G = Hypergraph.build(3, [2, 1, 2],
                             [[(0, 0), (1, 0), (2, 0)],
                              [(0, 1), (1, 0), (2, 1)]])
        assert G.class_table(0)[1] == [0b10, 0b01]

    def test_girth5_degree(self):
        k, r = 3, 2
        G = gen_linear_regular(k, 6, r, seed=1, min_girth=5)
        for mask in G.class_table(0)[1]:
            assert mask.bit_count() == (k - 1) * r * (r - 1)

    @given(partite_hypergraphs(max_k=3, max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_lists_are_the_masks_in_ascending_order(self, G):
        for cls in range(G.k):
            _, near, adj = G.class_table(cls)
            assert adj == [[j for j in range(G.sizes[cls]) if mask >> j & 1]
                           for mask in near]

    @pytest.mark.parametrize("cls", [-1, 3])
    def test_class_out_of_range(self, edge3, cls):
        with pytest.raises(InputError):
            edge3.class_table(cls)
        assert cls not in edge3._class_tables


class TestTwoLinkedComponents:
    def test_singleton(self, edge3):
        assert two_linked_components(edge3, [V(0, 0)]) == [{V(0, 0)}]

    def test_unrelated_vertices_split(self):
        G = matching(3, 2)
        comps = two_linked_components(G, [V(0, 0), V(0, 1)])
        assert comps == [{V(0, 0)}, {V(0, 1)}]

    def test_shared_neighbor_joins(self):
        G = Hypergraph.build(3, [2, 1, 2],
                             [[(0, 0), (1, 0), (2, 0)],
                              [(0, 1), (1, 0), (2, 1)]])
        assert two_linked_components(G, [V(0, 0), V(0, 1)]) == [
            {V(0, 0), V(0, 1)}]

    def test_empty(self, edge3):
        assert two_linked_components(edge3, []) == []


class TestGlobalChecks:
    def test_single_edge_linear(self, edge3):
        assert edge3.is_linear()

    def test_double_overlap_not_linear(self):
        G = Hypergraph.build(3, [1, 1, 2],
                             [[(0, 0), (1, 0), (2, 0)],
                              [(0, 0), (1, 0), (2, 1)]])
        assert not G.is_linear()
        w = G.linearity_witness()
        assert len(frozenset(w[0]) & frozenset(w[1])) >= 2

    def test_generated_is_linear_regular(self):
        G = gen_linear_regular(4, 5, 2, seed=9)
        assert G.is_linear()
        assert G.regular_degree() == 2

    def test_regular_degree_absent(self):
        G = two_shared(3)
        assert G.regular_degree() is None

    def test_single_edge_degree(self, edge3):
        assert edge3.regular_degree() == 1


class TestGirth:
    def test_loose_triangle(self):
        # three edges pairwise meeting in single vertices, all distinct
        G = Hypergraph.build(3, [2, 2, 2],
                             [[(0, 0), (1, 0), (2, 0)],
                              [(0, 1), (1, 0), (2, 1)],
                              [(0, 1), (1, 1), (2, 0)]])
        assert girth_at_most(G, 3)
        w = find_loose_cycle(G, 3)
        assert is_loose_cycle(G, w) and len(w) == 6

    def test_single_edge_acyclic(self, edge3):
        for limit in (3, 4, 5, 8):
            assert not girth_at_most(edge3, limit)

    def test_generated_girth5(self):
        G = gen_linear_regular(3, 6, 2, seed=5, min_girth=5)
        assert not girth_at_most(G, 4)

    def test_gadget_has_loose_four_cycle(self):
        G = loose_cycle_gadget(3)
        assert not girth_at_most(G, 3)
        assert girth_at_most(G, 4)
        assert is_loose_cycle(G, find_loose_cycle(G, 4))

    def test_gadget_other_uniformities(self):
        for k in (4, 5):
            G = loose_cycle_gadget(k, seed=k)
            assert girth_at_most(G, 4)
            w = find_loose_cycle(G, 4)
            assert is_loose_cycle(G, w) and len(w) == 4 * (k - 1)

    def test_budget_refusal(self, monkeypatch):
        # the replay finds this instance's first cycle after 3 DFS nodes
        G = gen_linear_regular(3, 8, 2, seed=2)
        monkeypatch.setattr(hypergraph, "GIRTH_NODE_CAP", 2)
        with pytest.raises(BudgetExceeded, match="exceeded node cap 2$"):
            find_loose_cycle(G, 8)
        monkeypatch.setattr(hypergraph, "GIRTH_NODE_CAP", 3)
        assert is_loose_cycle(G, find_loose_cycle(G, 8))

    def test_bad_limit(self, edge3):
        with pytest.raises(InputError):
            girth_at_most(edge3, 2)

    def test_budget_spans_the_whole_replay(self, monkeypatch):
        # the replay searches through every edge two of whose vertices the
        # edges before it already connect; each of those searches fits in
        # `cap` nodes on its own, but their sum does not, so the budget must
        # bound the check
        G = gen_linear_regular(3, 6, 2, seed=5, min_girth=5)
        sets = [frozenset(e) for e in G.edges]
        incidence = {}
        label = {}  # vertex -> a label shared by its prefix component
        counts = []
        for i, cand in enumerate(sets):
            labels = {label.get(v, v) for v in cand}
            if len(labels) < len(cand):
                counts.append(_least_node_cap(
                    monkeypatch, lambda: find_loose_cycle_through(
                        sets, incidence, cand, 4)))
            for x in list(label) + list(cand):
                if label.get(x, x) in labels:
                    label[x] = min(labels)
            for v in cand:
                incidence.setdefault(v, []).append(i)
        cap, total = max(counts), sum(counts)
        assert len(counts) < len(sets) and cap < total
        monkeypatch.setattr(hypergraph, "GIRTH_NODE_CAP", cap)
        with pytest.raises(BudgetExceeded):
            find_loose_cycle(G, 4)
        assert check_girth(G, 5).verdict == "unknown"
        assert _least_node_cap(monkeypatch,
                               lambda: find_loose_cycle(G, 4)) == total
        assert check_girth(G, 5).holds


def _least_node_cap(monkeypatch, search):
    """The fewest DFS nodes with which `search()` completes, found by
    raising hypergraph.GIRTH_NODE_CAP from 0; the cap is left there."""
    cap = 0
    while True:
        monkeypatch.setattr(hypergraph, "GIRTH_NODE_CAP", cap)
        try:
            search()
            return cap
        except BudgetExceeded:
            cap += 1


def _through_search(G, cand, max_length):
    return find_loose_cycle_through([frozenset(e) for e in G.edges],
                                    incidence(G), frozenset(cand), max_length)


class TestGirthThroughEdge:
    def test_gadget_closing_edge(self):
        for k in (3, 4):
            G = loose_cycle_gadget(k, seed=k)
            for drop in range(G.num_edges):
                rest = Hypergraph(k, G.sizes,
                                  G.edges[:drop] + G.edges[drop + 1:])
                cand = G.edges[drop]
                assert _through_search(rest, cand, 3) is None
                w = _through_search(rest, cand, 4)
                assert is_loose_cycle(G, w) and len(w) == 4 * (k - 1)
                assert frozenset(w[:k]) == frozenset(cand)

    def test_budget_refusal(self, monkeypatch):
        G = loose_cycle_gadget(3)
        rest = Hypergraph(3, G.sizes, G.edges[1:])
        monkeypatch.setattr(hypergraph, "GIRTH_NODE_CAP", 1)
        with pytest.raises(BudgetExceeded):
            _through_search(rest, G.edges[0], 4)

    def test_bad_limit(self, edge3):
        with pytest.raises(InputError):
            _through_search(edge3, edge3.edges[0], 2)


def _short_girth_free(k, n, g, rng):
    """Random linear k-partite instance with classes of size n, up to 2n
    edges and no loose cycle shorter than g, grown edge by edge and checked
    by the global search."""
    edges = []
    target = rng.randint(2, 2 * n)
    for _ in range(6 * n):
        if len(edges) == target:
            break
        e = tuple(V(c, rng.randrange(n)) for c in range(k))
        if any(len(set(e) & set(f)) >= 2 for f in edges):
            continue
        if not girth_at_most(Hypergraph.build(k, [n] * k, edges + [e]), g - 1):
            edges.append(e)
    return Hypergraph.build(k, [n] * k, edges)


def test_through_edge_search_matches_global_search():
    # on a prefix without loose cycles shorter than g, a linearity-keeping
    # candidate creates one iff the search through it finds one
    rng = random.Random(20241217)
    outcomes = {}
    for g in (4, 5, 6):
        for k in (3, 4):
            for _ in range(12):
                n = rng.randint(4, 7)
                G = _short_girth_free(k, n, g, rng)
                for _ in range(15):
                    cand = tuple(V(c, rng.randrange(n)) for c in range(k))
                    if any(len(set(cand) & set(e)) >= 2 for e in G.edges):
                        continue
                    trial = Hypergraph(k, G.sizes, G.edges + (cand,))
                    expect = girth_at_most(trial, g - 1)
                    w = _through_search(G, cand, g - 1)
                    assert (w is not None) == expect
                    outcomes[g, expect] = outcomes.get((g, expect), 0) + 1
                    if w is not None:
                        assert is_loose_cycle(trial, w)
                        assert len(w) <= (k - 1) * (g - 1)
                        assert frozenset(w[:k]) == frozenset(cand)
    assert len(outcomes) == 6 and min(outcomes.values()) >= 30


def _brute_linearity_witness(G):
    sets = [frozenset(e) for e in G.edges]
    for i in range(len(sets)):
        for j in range(i + 1, len(sets)):
            if len(sets[i] & sets[j]) >= 2:
                return (G.edges[i], G.edges[j])
    return None


@given(partite_hypergraphs())
@settings(max_examples=150, deadline=None)
def test_linearity_witness_matches_pairwise_scan(G):
    expect = _brute_linearity_witness(G)
    assert G.linearity_witness() == expect
    report = check_linear(G)
    if expect is None:
        assert report.holds and report.witness is None
    else:
        assert report.verdict == "violated"
        assert report.witness == [[str(v) for v in e] for e in expect]


def _brute_has_loose_cycle(G, max_length):
    """Oracle: try every cyclic edge arrangement.  A loose cycle is exactly a
    cyclic sequence of distinct edges with consecutive intersections of size
    one, disjoint otherwise, and pairwise distinct joints."""
    import itertools
    edges = [frozenset(e) for e in G.edges]
    for length in range(3, max_length + 1):
        for combo in itertools.combinations(range(len(edges)), length):
            for perm in itertools.permutations(combo):
                if perm[0] != min(perm):
                    continue
                ok = True
                for i in range(length):
                    a, b = edges[perm[i]], edges[perm[(i + 1) % length]]
                    if len(a & b) != 1:
                        ok = False
                        break
                if not ok:
                    continue
                for i in range(length):
                    for j in range(i + 1, length):
                        if j - i in (1, length - 1):
                            continue
                        if edges[perm[i]] & edges[perm[j]]:
                            ok = False
                if not ok:
                    continue
                joints = {next(iter(edges[perm[i]] & edges[perm[(i + 1) % length]]))
                          for i in range(length)}
                if len(joints) == length:
                    return True
    return False


@given(partite_hypergraphs(max_k=3, max_size=3))
@settings(max_examples=120, deadline=None)
def test_loose_cycle_search_matches_oracle(G):
    for limit in (3, 4, 5):
        w = find_loose_cycle(G, limit)
        assert (w is not None) == _brute_has_loose_cycle(G, limit)
        if w is not None:
            assert is_loose_cycle(G, w)
            assert len(w) <= (G.k - 1) * limit


def _first_cycle_on_vertices(G, max_length):
    """The replay of find_loose_cycle on Vertex labels, searching through
    every edge: the witness through the first edge that closes a cycle."""
    sets, inc = [frozenset(e) for e in G.edges], {}
    for i, cand in enumerate(sets):
        w = find_loose_cycle_through(sets, inc, cand, max_length)
        if w is not None:
            return w
        for v in cand:
            inc.setdefault(v, []).append(i)
    return None


@given(partite_hypergraphs(max_k=4, max_size=3))
@example(loose_cycle_gadget(3, seed=1, padding=2))
@example(loose_cycle_gadget(4, seed=2))
@settings(max_examples=120, deadline=None)
def test_loose_cycle_witness_as_on_vertex_labels(G):
    # ids sort as Vertex pairs do, so the search on ids finds the witness
    # the search on Vertex labels finds, vertex for vertex
    for limit in (3, 4, 5):
        assert find_loose_cycle(G, limit) == _first_cycle_on_vertices(G, limit)


def test_loose_cycle_oracle_on_known_instances():
    gadget = loose_cycle_gadget(3)
    assert _brute_has_loose_cycle(gadget, 4) and not _brute_has_loose_cycle(gadget, 3)
    G = gen_linear_regular(3, 6, 2, seed=0, min_girth=5)
    assert not _brute_has_loose_cycle(G, 4)
    assert girth_at_most(G, 6) == _brute_has_loose_cycle(G, 6)


@given(partite_hypergraphs(max_k=4, max_size=3))
@example(Hypergraph.build(3, [2, 2, 2], []))  # all isolated: 0-regular
@example(matching(3, 2))  # 1-regular
@example(Hypergraph.build(3, [1, 1, 2], [[(0, 0), (1, 0), (2, 0)]]))
@settings(max_examples=150, deadline=None)
def test_regular_degree_matches_incidence(G):
    # the definition: one degree shared by every vertex, isolated ones too
    degrees = {len(ix) for ix in incidence(G).values()}
    expect = degrees.pop() if len(degrees) == 1 else None
    assert G.regular_degree() == expect
    assert all(G.degree(v) == len(ix) for v, ix in incidence(G).items())


@given(partite_hypergraphs())
@settings(max_examples=120, deadline=None)
def test_neighborhood_invariants(G):
    import itertools
    for cls in range(G.k):
        verts = G.class_vertices(cls)
        for v in verts:
            N = G.neighborhood([v])
            assert v not in N
            assert all(u.cls != cls for u in N)
            assert len(N) <= (G.k - 1) * G.degree(v)
        for S in itertools.combinations(verts[:3], 2):
            bound = (G.k - 1) * sum(G.degree(v) for v in S)
            assert len(G.neighborhood(S)) <= bound


@given(partite_hypergraphs())
@settings(max_examples=80, deadline=None)
def test_link_graph_matches_neighborhood(G):
    for cls in range(G.k):
        verts = [v for v in G.class_vertices(cls) if G.degree(v)]
        if not verts:
            continue
        S = verts[: 2]
        L = G.link_graph(S)
        assert L.vertices == G.neighborhood(S)
        assert all(len(e) == G.k - 1 for e in L.edges)


@given(partite_hypergraphs())
@settings(max_examples=80, deadline=None)
def test_two_linked_partition(G):
    for cls in range(G.k):
        T = list(G.class_vertices(cls))
        comps = two_linked_components(G, T)
        assert sorted(v for c in comps for v in c) == sorted(T)
        for i, a in enumerate(comps):
            for b in comps[i + 1:]:
                assert all(u not in distance_two_neighbors(G, v)
                           for v in a for u in b)


@given(partite_hypergraphs(max_k=3, max_size=3))
@settings(max_examples=60, deadline=None)
def test_multiple_shared_neighbors_force_short_cycle(G):
    # contrapositive of the girth-5 local signature, on linear instances
    if G.k < 3 or not G.is_linear():
        return
    for cls in range(G.k):
        for v in G.class_vertices(cls):
            for u in distance_two_neighbors(G, v):
                common = G.neighborhood([v]) & G.neighborhood([u])
                if len(common) >= 2:
                    assert girth_at_most(G, 4)
                    return
