"""Shared instance builders and hypothesis strategies."""

import functools
import itertools
import random

import pytest
from hypothesis import strategies as st

from hypercount import Hypergraph, gen_linear_regular, lab
from hypercount.errors import GenerationError


def single_edge(k: int = 3) -> Hypergraph:
    return Hypergraph.build(k, [1] * k, [[(c, 0) for c in range(k)]])


def matching(k: int, r: int) -> Hypergraph:
    """r pairwise disjoint k-edges (1-regular, linear, girth infinity)."""
    return Hypergraph.build(k, [r] * k,
                            [[(c, i) for c in range(k)] for i in range(r)])


def two_shared(k: int = 3) -> Hypergraph:
    """Two edges sharing exactly their class-0 vertex."""
    sizes = [1] + [2] * (k - 1)
    e1 = [(0, 0)] + [(c, 0) for c in range(1, k)]
    e2 = [(0, 0)] + [(c, 1) for c in range(1, k)]
    return Hypergraph.build(k, sizes, [e1, e2])


def fan(shared: int) -> Hypergraph:
    """The edges through 0:0 leave as link graph a path of shared + 1
    edges alternating between classes 1 and 2, so the polymer {0:0} is
    weighed over exactly `shared` shared vertices, and its shared + 2
    vertices have F(shared + 4) independent sets (F(1) = F(2) = 1)."""
    path = [(1 + j % 2, j // 2) for j in range(shared + 2)]
    return Hypergraph.build(3, [1, (shared + 3) // 2, (shared + 2) // 2],
                            [[(0, 0), a, b] for a, b in zip(path, path[1:])])


def loose_path(m: int) -> Hypergraph:
    """Loose path of m 3-edges: edge i is {J_i, J_(i+1), (2, i)} with joint
    J_i = (i mod 2, i div 2), so consecutive edges share exactly one joint."""
    joint = lambda i: (i % 2, i // 2)
    return Hypergraph.build(3, [m // 2 + 1, (m + 1) // 2, m],
                            [[joint(i), joint(i + 1), (2, i)]
                             for i in range(m)])


def circulant(n: int, r: int) -> Hypergraph:
    """Deterministic linear r-regular 3-partite instance on classes of size
    n: edge (i, j) covers (0, i), (1, i+j mod n), (2, i+2j mod n).  Sharing
    two vertices forces equal (i, j), so the instance is linear for any
    r <= n."""
    edges = [[(0, i), (1, (i + j) % n), (2, (i + 2 * j) % n)]
             for i in range(n) for j in range(r)]
    return Hypergraph.build(3, [n] * 3, edges)


def random_partite(k, sizes, density, seed) -> Hypergraph:
    """Random k-partite instance: each possible edge kept with the given
    probability."""
    rng = random.Random(seed)
    space = list(itertools.product(*[range(s) for s in sizes]))
    edges = [[(c, i) for c, i in enumerate(combo)]
             for combo in space if rng.random() < density]
    return Hypergraph.build(k, sizes, edges)


@functools.cache
def girth5_instances() -> tuple:
    """Generated linear girth>=5 regular instances over k in {3,4}, n <= 6,
    r <= 2, as (k, n, r, G) tuples; infeasible combinations simply do not
    generate.  (For r = 2 the edge-intersection graph is cubic for k=3 and
    4-regular for k=4, so girth 5 forces n >= 6 resp. n >= 10; shapes below
    the Moore bound and (3, 5, 2) are skipped, the rest are left to the
    generator's rejection.)  A few larger k=3 instances are added beyond the
    required range to exercise the pair formulas more broadly.  Built once
    per test run."""
    out = []
    # a shape that cannot be built replays every restart: allow 80, not 400
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lab, "MAX_RESTARTS", 80)
        for k in (3, 4):
            for n in range(1, 7):
                for r in (1, 2):
                    if r > n:
                        continue
                    # for r = 2 each edge of a linear instance meets exactly
                    # k others, so a loose 3- or 4-cycle is a 3- or 4-cycle
                    # of the k-regular edge-intersection graph on 2n
                    # vertices; girth 5 needs 2n >= 1 + k^2 (Moore bound),
                    # so smaller shapes cannot be built
                    if r == 2 and 2 * n < 1 + k * k:
                        continue
                    # (3, 5, 2) meets that bound but has no girth-5
                    # instance: its edge-intersection graph would be the
                    # Petersen graph, which has no proper 3-edge-colouring by
                    # class
                    if (k, n, r) == (3, 5, 2):
                        continue
                    for seed in (0, 1):
                        try:
                            G = gen_linear_regular(k, n, r, seed=seed,
                                                   min_girth=5)
                        except GenerationError:
                            continue
                        out.append((k, n, r, G))
    for n in (7, 8):
        for seed in (0, 1):
            out.append((3, n, 2, gen_linear_regular(3, n, 2, seed=seed,
                                                    min_girth=5)))
    return tuple(out)


@functools.cache
def kp_instances() -> tuple:
    """Generated regular instances for the summability sums: k = 3 at
    r = 2 and 3, and one k = 4 instance."""
    return tuple(gen_linear_regular(k, n, r, seed=seed)
                 for k, n, r, seed in ((3, 6, 2, 1), (3, 7, 2, 0),
                                       (3, 6, 3, 0), (4, 6, 2, 0)))


def random_uniform_system(num_vertices, uniformity, num_edges, seed):
    """Random uniform set system as (vertex count, edge bitmasks)."""
    rng = random.Random(seed)
    masks = set()
    for _ in range(num_edges * 3):
        if len(masks) == num_edges:
            break
        verts = rng.sample(range(num_vertices), uniformity)
        masks.add(sum(1 << v for v in verts))
    return num_vertices, sorted(masks)


@st.composite
def partite_hypergraphs(draw, max_k=3, max_size=3):
    k = draw(st.integers(2, max_k))
    sizes = [draw(st.integers(1, max_size)) for _ in range(k)]
    space = list(itertools.product(*[range(s) for s in sizes]))
    picks = draw(st.integers(0, (1 << len(space)) - 1))
    edges = [[(c, i) for c, i in enumerate(combo)]
             for j, combo in enumerate(space) if picks >> j & 1]
    return Hypergraph.build(k, sizes, edges)


@pytest.fixture
def edge3():
    return single_edge(3)
