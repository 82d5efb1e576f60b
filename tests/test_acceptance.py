"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  All identity checks are exact (zero tolerance); float checks are
outward-rounded so a pass is conservative.
"""

import itertools
import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from hypercount import (check_common_neighbor,
                        closed_form_t2, count_subsets_avoiding,
                        count_with_defect_class, enumerate_clusters,
                        enumerate_polymers, gamma_k,
                        gen_linear_regular, girth_at_most,
                        partition_function, polymer_weight, serialize_text,
                        singleton_sum, truncated_log_xi, ursell)
from hypercount.errors import GenerationError

from conftest import (girth5_instances, matching, random_partite,
                      random_uniform_system, single_edge, two_shared)
from oracles import (count_by_filter, expected_t2_delta, loose_cycle_gadget,
                     max_matching_size, polymer_count_bound_holds,
                     truncated_log_generic, ursell_by_subgraphs)


@contextmanager
def criterion(number, name):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} {name}: FAIL "
              f"({time.perf_counter() - start:.1f}s)")
        raise
    print(f"ACCEPTANCE {number:02d} {name}: PASS "
          f"({time.perf_counter() - start:.1f}s)")


def _sweep_instances():
    """The criterion-1 corpus: seeded sweep of k=3 instances with class sizes
    at most 4 (hence at most 12 vertices), plus handcrafted cases."""
    handcrafted = [
        single_edge(3),
        two_shared(3),
        matching(3, 2),
        matching(3, 4),
        loose_cycle_gadget(3),
        random_partite(3, (2, 2, 2), 1.1, 0),   # complete product
        random_partite(3, (1, 2, 4), 1.1, 0),
    ]
    rng = random.Random(20240901)
    generated = []
    while len(generated) < 200:
        sizes = tuple(rng.randint(1, 4) for _ in range(3))
        density = rng.choice([0.2, 0.35, 0.5, 0.7])
        generated.append(random_partite(3, sizes, density, rng.randrange(10 ** 9)))
    return handcrafted + generated


def test_criterion_1_defect_class_identity():
    with criterion(1, "defect-count equals scaled partition function"):
        start = time.perf_counter()
        instances = _sweep_instances()
        assert len(instances) >= 200
        combos = 0
        for G in instances:
            assert G.num_vertices <= 12
            for cls in range(G.k):
                scale = 2 ** (G.num_vertices - G.sizes[cls])
                for b in range(G.sizes[cls] + 1):
                    lhs = count_with_defect_class(G, cls, b)
                    rhs = scale * partition_function(G, cls, b)
                    assert rhs.denominator == 1 and lhs == rhs, \
                        (serialize_text(G), cls, b, lhs, rhs)
                    combos += 1
        assert combos >= 200 * 3
        assert time.perf_counter() - start < 60


def test_criterion_2_size1_truncation_closed_form():
    with criterion(2, "size-1 truncation equals n/gamma^r"):
        tested = 0
        for k in (3, 4):
            for n in range(1, 7):
                for r in (1, 2):
                    if r > n:
                        continue
                    for seed in (0, 1):
                        try:
                            G = gen_linear_regular(k, n, r, seed=seed)
                        except GenerationError:
                            continue
                        for cls in range(k):
                            assert truncated_log_xi(G, cls, 1) == \
                                singleton_sum(k, n, r)
                        tested += 1
        assert tested >= 20


def test_criterion_3_size2_truncation_closed_form():
    with criterion(3, "size-2 truncation equals corrected pair formula"):
        cases = girth5_instances()
        nontrivial = 0
        for k, n, r, G in cases:
            est = closed_form_t2(k, n, r)
            for cls in range(k):
                assert truncated_log_xi(G, cls, 2) == est.corrected_exponent
            assert est.correction_delta == expected_t2_delta(k, n, r)
            if r >= 2:
                nontrivial += 1
        assert len(cases) >= 15 and nontrivial >= 5


def test_criterion_4_pair_cluster_counts():
    with criterion(4, "pair-cluster counts match local structure"):
        checked = 0
        for k, n, r, G in girth5_instances():
            if r < 2:
                continue
            for cls in range(k):
                found = enumerate_clusters(G, cls, 2)
                pair_polymers = sum(1 for c in found
                                    if c.length == 1 and c.size == 2)
                assert pair_polymers == n * (k - 1) * r * (r - 1) // 2
                ordered_pairs = sum(c.ordering_count for c in found
                                    if c.length == 2)
                enumerated = n * ((k - 1) * r * (r - 1) + 1)
                assert ordered_pairs == enumerated
                printed = n * (k - 1) * r * r
                assert printed - enumerated == (k - 1) * r * n - n
                checked += 1
        print(f"  (ordered pair tuples: enumerated n((k-1)r(r-1)+1); the "
              f"closed-form figure n(k-1)r^2 overcounts the diagonal, "
              f"checked on {checked} class models)")
        assert checked >= 10


def test_criterion_5_ursell_suite():
    with criterion(5, "Ursell values on complete graphs, trees, and all "
                      "small connected graphs"):
        for m in range(1, 6):
            complete = list(itertools.combinations(range(m), 2))
            assert ursell(m, complete) == Fraction((-1) ** (m - 1), m)
            path = [(i, i + 1) for i in range(m - 1)]
            if m >= 2:
                assert ursell(m, path) == Fraction((-1) ** (m - 1),
                                                   math.factorial(m))
        count = 0
        for n in range(1, 6):
            possible = list(itertools.combinations(range(n), 2))
            for picks in range(1 << len(possible)):
                edges = [possible[i] for i in range(len(possible))
                         if picks >> i & 1]
                try:
                    reference = ursell_by_subgraphs(n, edges)
                except Exception:
                    continue  # disconnected
                assert ursell(n, edges) == reference
                count += 1
        assert count > 700  # all connected graphs on <= 5 vertices


def test_criterion_6_single_polymer_log_series():
    with criterion(6, "single-polymer truncation equals log(1+w) prefix"):
        for w in (Fraction(1, 2), Fraction(3, 4)):
            for t in range(1, 7):
                value = truncated_log_generic(["S"], lambda s: 1,
                                              lambda s: w,
                                              lambda a, b: True, t)
                prefix = sum(Fraction((-1) ** (m + 1), m) * w ** m
                             for m in range(1, t + 1))
                assert value == prefix


def test_criterion_7_counter_vs_filter():
    with criterion(7, "frontier-sweep counter equals subset filter on 500 "
                      "random systems"):
        start = time.perf_counter()
        rng = random.Random(77)
        for case in range(500):
            vertices = 4 + case % 17           # up to 20 vertices
            uniformity = 2 + case % 3
            edges = 1 + rng.randrange(2 * vertices)
            n, masks = random_uniform_system(vertices, uniformity, edges,
                                             rng.randrange(10 ** 9))
            assert count_subsets_avoiding(n, masks) == count_by_filter(n, masks)
        assert time.perf_counter() - start < 120


def _criterion_8_polymers():
    for G in _sweep_instances()[:60]:
        yield G
    for k, n, r, G in girth5_instances():
        yield G
    for k, n, r in [(3, 4, 2), (3, 6, 2), (4, 5, 2)]:
        yield gen_linear_regular(k, n, r, seed=17)


def test_criterion_8_weight_and_count_bounds():
    with criterion(8, "polymer weights bounded by matchings, polymer counts "
                      "by the degree bound"):
        weight_checks = 0
        for G in _criterion_8_polymers():
            k = G.k
            r_eff = G.regular_degree()
            if r_eff is None:
                r_eff = max(G.degree(v) for v in G.vertices())
            gamma = gamma_k(k)
            for cls in range(k):
                by_root_size = {}
                for p in enumerate_polymers(G, cls, min(3, G.sizes[cls])):
                    w = polymer_weight(G, p)
                    m = max_matching_size(G.link_graph(p.vertices))
                    assert w <= gamma ** (-m)
                    weight_checks += 1
                    for v in p.vertices:
                        key = (v, p.order)
                        by_root_size[key] = by_root_size.get(key, 0) + 1
                for (v, s), cnt in by_root_size.items():
                    if r_eff >= 1:
                        assert polymer_count_bound_holds(cnt, k, r_eff, s), \
                            (serialize_text(G), v, s, cnt)
        assert weight_checks >= 500


def test_criterion_9_common_neighbor_and_gadgets():
    with criterion(9, "shared-neighbour uniqueness on girth-5 instances, "
                      "violation on loose-4-cycle gadgets"):
        held = 0
        for k, n, r, G in girth5_instances():
            assert check_common_neighbor(G).holds
            held += 1
        extra = 0
        while held + extra < 50:
            G = gen_linear_regular(3, 6 + extra % 3, 2, seed=100 + extra,
                                   min_girth=5)
            assert check_common_neighbor(G).holds
            extra += 1
        violated = 0
        for k in (3, 4, 5):
            for seed in range(4):
                G = loose_cycle_gadget(k, seed=seed, padding=seed % 3)
                rep = check_common_neighbor(G)
                assert rep.verdict == "violated"
                assert girth_at_most(G, 4)
                violated += 1
        assert violated >= 10


def test_criterion_10_compare_report(tmp_path, capsys):
    with criterion(10, "compare report is produced and deterministic"):
        from hypercount.cli import main
        outs = []
        for seed in (5, 6):
            G = gen_linear_regular(3, 4, 2, seed=seed)
            path = tmp_path / f"cmp{seed}.hg"
            path.write_text(serialize_text(G))
            per_run = []
            for _ in range(2):
                code = main(["compare", "-i", str(path), "--t", "2"])
                captured = capsys.readouterr()
                assert code == 0
                body = "\n".join(line for line in captured.out.splitlines()
                                 if not line.startswith("elapsed="))
                assert "relative_error=" in body and "exact=" in body
                per_run.append(body)
            assert per_run[0] == per_run[1]
            outs.append(per_run[0])
        assert outs[0] != outs[1]  # different instances, different digests
