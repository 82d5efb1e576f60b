"""k-partite k-uniform hypergraphs and the structural primitives built on them.

Vertices are (class, index) pairs to callers and class-major integer ids
inside: (c, i) is offsets[c] + i, the bit order of exact.edge_masks.  Every
edge meets every class once, so it is stored as its ids in class order.
Ids sort as the pairs do; the checks and the loose-cycle search run on ids
and build Vertex pairs only for a witness they return.  A Hypergraph is
immutable after construction; all operations are pure functions over it.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from functools import cached_property
from typing import Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence

from .errors import BudgetExceeded, InputError

# vertices of an instance before construction refuses: an exact count has at
# most this many bits (about 316,000 decimal digits at the cap), and every
# per-vertex table stays small
COUNT_VERTEX_CAP = 1 << 20


def check_vertex_cap(num_vertices: int) -> None:
    """Refuse an instance of more than COUNT_VERTEX_CAP vertices."""
    if num_vertices > COUNT_VERTEX_CAP:
        raise BudgetExceeded(
            f"the instance has {num_vertices} vertices, over the cap of "
            f"{COUNT_VERTEX_CAP}; refusing rather than estimating")


class Vertex(NamedTuple):
    """Vertex of a partite hypergraph: partition class and index within it."""

    cls: int
    idx: int

    def __str__(self) -> str:
        return f"{self.cls}:{self.idx}"


class _LinkGraphFields(NamedTuple):
    uniformity: int
    vertices: frozenset
    edges: frozenset


class LinkGraph(_LinkGraphFields):
    """(k-1)-uniform residue structure of a single-class vertex set S.

    Vertices are the neighbourhood of S; edges are the residues e minus S
    of edges e meeting S, with duplicate residues collapsed (independent-set
    counts are insensitive to edge multiplicity).
    """

    __slots__ = ()

    def __new__(cls, uniformity: int, vertices: frozenset, edges: frozenset):
        for e in edges:
            if len(e) != uniformity:
                raise InputError(
                    f"link edge {sorted(e)} has {len(e)} vertices, "
                    f"expected {uniformity}"
                )
        covered = frozenset().union(*edges) if edges else frozenset()
        if covered != vertices:
            raise InputError("link graph vertex set must equal the union of its edges")
        return super().__new__(cls, uniformity, vertices, edges)

    @classmethod
    def _make(cls, iterable):  # so that _replace validates too
        return cls(*iterable)


class Hypergraph:
    """k-partite k-uniform hypergraph with fixed class sizes.

    `ids` holds each edge as its k ids in class order, the edges sorted;
    `edges`, the same edges as Vertex tuples, is built on first read.

    Invariants (checked at construction):
      * every edge has exactly one vertex in each of the k classes;
      * all vertex indices are within their class size;
      * edges are pairwise distinct;
      * there are at most COUNT_VERTEX_CAP vertices (else BudgetExceeded).

    Equality, hash and repr are on (k, sizes, ids); setting or deleting an
    attribute raises AttributeError.  The cached views live in the
    instance's __dict__, which cached_property fills directly.
    """

    k: int
    sizes: tuple
    ids: tuple

    def __init__(self, k: int, sizes: Sequence[int], edges: Iterable[Iterable]):
        """From edges given as (class, index) pairs, in any order."""
        def pair_ids(offsets):
            for e in edges:
                ce = sorted(Vertex(*v) for v in e)
                if [v.cls for v in ce] != list(range(k)):
                    raise InputError(
                        f"edge {[str(v) for v in ce]} must contain exactly "
                        f"one vertex per class")
                for v in ce:
                    if not 0 <= v.idx < sizes[v.cls]:
                        raise InputError(f"vertex {v} out of range for class "
                                         f"size {sizes[v.cls]}")
                yield tuple(o + i for o, (_, i) in zip(offsets, ce))
        self._validate(k, sizes, pair_ids)

    @classmethod
    def from_ids(cls, k: int, sizes: Sequence[int],
                 ids: Iterable[Sequence[int]]) -> "Hypergraph":
        """From edges given as their k class-major ids in class order."""
        G = cls.__new__(cls)
        G._validate(k, sizes, lambda offsets: ids)
        return G

    def _validate(self, k, sizes, edges_of) -> None:
        """The validation both constructors share: checks the shape and the
        vertex cap, then the edges `edges_of(offsets)` yields, and stores
        them."""
        sizes = tuple(sizes)
        if k < 2:
            raise InputError(f"uniformity k={k} must be at least 2")
        if len(sizes) != k:
            raise InputError(f"expected {k} class sizes, got {len(sizes)}")
        if any(s < 1 for s in sizes):
            raise InputError("class sizes must be positive")
        check_vertex_cap(sum(sizes))
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "sizes", sizes)
        offsets = self.offsets
        canon = sorted(map(tuple, edges_of(offsets)))
        # one id per class in class order: column c lies in class c's range
        flat = list(itertools.chain.from_iterable(canon))
        if set(map(len, canon)) - {k} or not all(
                lo <= min(flat[c::k], default=lo)
                and max(flat[c::k], default=lo) < hi
                for c, (lo, hi) in enumerate(zip(offsets, offsets[1:]))):
            raise InputError("every edge must give one id per class, in "
                             "class order")
        for a, b in zip(canon, canon[1:]):
            if a == b:
                raise InputError(
                    f"duplicate edge {[str(self.vertex(x)) for x in a]}")
        object.__setattr__(self, "ids", tuple(canon))

    def _key(self) -> tuple:
        return self.k, self.sizes, self.ids

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return (f"{type(self).__qualname__}(k={self.k!r}, "
                f"sizes={self.sizes!r}, ids={self.ids!r})")

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    @classmethod
    def build(cls, k: int, sizes: Sequence[int], edges: Iterable[Iterable]) -> "Hypergraph":
        """Construct from any iterable of edges given as (class, index) pairs."""
        return cls(k, sizes, edges)

    # ----- basic accessors -------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return sum(self.sizes)

    @property
    def num_edges(self) -> int:
        return len(self.ids)

    @cached_property
    def offsets(self) -> tuple:
        """The first id of each class, then the vertex count."""
        return tuple(itertools.accumulate(self.sizes, initial=0))

    def vertex(self, x: int) -> Vertex:
        """The vertex of id x."""
        c = bisect_right(self.offsets, x) - 1
        return Vertex(c, x - self.offsets[c])

    @cached_property
    def edges(self) -> tuple:
        """The edges as sorted tuples of Vertex, in the order of `ids`."""
        return tuple(tuple(map(self.vertex, e)) for e in self.ids)

    def vertices(self) -> Iterator[Vertex]:
        for c, s in enumerate(self.sizes):
            for i in range(s):
                yield Vertex(c, i)

    def class_vertices(self, cls: int) -> tuple:
        self._check_class(cls)
        return tuple(Vertex(cls, i) for i in range(self.sizes[cls]))

    def _check_class(self, cls: int) -> None:
        if not 0 <= cls < self.k:
            raise InputError(f"class {cls} out of range [0, {self.k})")

    def _check_vertex(self, v: Vertex) -> Vertex:
        v = Vertex(*v)
        if not (0 <= v.cls < self.k and 0 <= v.idx < self.sizes[v.cls]):
            raise InputError(f"vertex {v} out of range")
        return v

    def degree(self, v: Vertex) -> int:
        return len(self._ids_through([v])[1])

    @cached_property
    def _edge_masks(self) -> list:
        """exact.edge_masks(self), for every count and class table of it."""
        from . import exact  # exact imports this module
        return exact.edge_masks(self)

    @cached_property
    def _text(self) -> str:
        """formats.canonical_text(self), for the instance's output and digest."""
        from . import formats  # formats imports this module
        return formats.canonical_text(self)

    @cached_property
    def _class_tables(self) -> dict:
        """Class -> self.class_table(class), filled on first use."""
        return {}

    # ----- neighbourhoods and link graphs ----------------------------------

    def _ids_through(self, S: Iterable) -> tuple:
        """The vertices of S, checked, and the edges through S, as ids."""
        S = frozenset(self._check_vertex(v) for v in S)
        xs = {self.offsets[v.cls] + v.idx for v in S}
        return S, [e for e in self.ids if not xs.isdisjoint(e)]

    def neighborhood(self, S: Iterable) -> frozenset:
        """All vertices covered by an edge meeting S, minus S itself."""
        S, edges = self._ids_through(S)
        return frozenset(map(self.vertex, {x for e in edges for x in e})) - S

    def link_graph(self, S: Iterable) -> LinkGraph:
        """Residue (k-1)-graph of a non-empty subset S of a single class."""
        S, edges = self._ids_through(S)
        if not S:
            raise InputError("link graph requires a non-empty vertex set")
        if len({v.cls for v in S}) != 1:
            raise InputError("link graph requires S within a single class")
        cls = next(iter(S)).cls
        edges = {frozenset(self.vertex(x) for x in e[:cls] + e[cls + 1:])
                 for e in edges}
        vertices = frozenset().union(*edges) if edges else frozenset()
        return LinkGraph(self.k - 1, vertices, frozenset(edges))

    # ----- the same-class shared-neighbour ("distance two") structure ------

    def class_table(self, cls: int) -> tuple:
        """The table of the class, built once per instance and class and
        kept with it, as three lists over the class indices: the positions
        in self.ids (and in the instance's edge masks) of the edges through
        the vertex, its distance-two neighbours as one mask of class
        indices, and the same neighbours as an ascending list.  The
        distance-two neighbours are the class indices on an edge through
        one of its neighbours, less itself.  All three come from the edges'
        ids; a class out of range raises InputError."""
        self._check_class(cls)
        tables = self._class_tables
        if cls not in tables:
            first = self.offsets[cls]
            through = [[] for _ in range(self.sizes[cls])]
            owners = {}  # vertex id -> class indices on its edges
            for j, e in enumerate(self.ids):
                i = e[cls] - first
                through[i].append(j)
                for x in e:
                    owners.setdefault(x, []).append(i)
            near, adj = [], []
            for i, js in enumerate(through):
                found = {u for j in js for x in self.ids[j] for u in owners[x]}
                found.discard(i)
                adj.append(sorted(found))
                near.append(sum(1 << u for u in found))
            tables[cls] = through, near, adj
        return tables[cls]

    # ----- global structure checks ------------------------------------------

    def is_linear(self) -> bool:
        """True iff every pair of distinct edges shares at most one vertex."""
        return self.linearity_witness() is None

    def linearity_witness(self) -> Optional[tuple]:
        """The edge pair (e_i, e_j), i < j, sharing >= 2 vertices that comes
        first in lexicographic (i, j) order, or None if the graph is linear.

        Two edges share >= 2 vertices iff they share a vertex pair, so one
        pass over the k(k-1)/2 pairs of each edge, indexed by the first edge
        holding each pair, finds for every e_j the least such e_i.
        """
        n = self.num_vertices
        first = {}
        best = None
        for j, e in enumerate(self.ids):
            for u, v in itertools.combinations(e, 2):
                i = first.setdefault(u * n + v, j)
                if i != j and (best is None or i < best[0]):
                    best = (i, j)
        if best is None:
            return None
        return tuple(tuple(map(self.vertex, self.ids[i])) for i in best)

    def regular_degree(self) -> Optional[int]:
        """The common vertex degree r, or None if degrees differ."""
        degrees = [0] * self.num_vertices
        for x in itertools.chain.from_iterable(self.ids):
            degrees[x] += 1
        values = set(degrees)
        return values.pop() if len(values) == 1 else None


def linked_piece(near: Sequence[int], T: int, i: int) -> int:
    """The 2-linked piece of the class-index mask T that holds the index i:
    a flood fill within T on the distance-two masks `near` of
    Hypergraph.class_table.  Over any symmetric neighbour masks it is the
    component of i in the graph that they induce on T."""
    piece = frontier = 1 << i
    while frontier:
        j = frontier.bit_length() - 1
        frontier ^= 1 << j
        grow = near[j] & T & ~piece
        piece |= grow
        frontier |= grow
    return piece


# ----- loose cycles and girth -----------------------------------------------


GIRTH_NODE_CAP = 2_000_000  # DFS nodes one loose-cycle search may visit


def _node_ticker():
    """Counter for DFS nodes: each call counts one, and the call after
    GIRTH_NODE_CAP of them raises BudgetExceeded."""
    cap = GIRTH_NODE_CAP
    budget = [cap]

    def tick():
        if budget[0] == 0:
            raise BudgetExceeded(f"loose-cycle search exceeded node cap {cap}")
        budget[0] -= 1

    return tick


def find_loose_cycle(G: Hypergraph, max_length: int) -> Optional[list]:
    """Search for a loose cycle of length between 3 and max_length.

    A loose l-cycle is a cyclic sequence of l distinct edges in which
    consecutive edges share exactly one vertex, and all (k-1)*l involved
    vertices are distinct.  Returns the witness vertex sequence (length
    (k-1)*l, consecutive k-blocks with one-vertex overlap are edges), or
    None if no such cycle of length <= max_length exists.

    The edges are added one at a time in G's canonical order, and before
    each is added find_loose_cycle_through's search looks for a short cycle
    through it.  The least prefix holding a short cycle closes one at its
    last edge, so a cycle is found iff one exists; the witness is the cycle
    through the first edge that closes one, starting with that edge.  A
    cycle through an edge needs a path in the prefix between two of its
    vertices, so a union-find over the prefix skips the search for every
    edge whose vertices lie in distinct components: on a loose path none is
    searched.  Raises BudgetExceeded when GIRTH_NODE_CAP DFS nodes are
    visited over the whole replay, so an indeterminate outcome is never
    reported as absence.
    """
    if max_length < 3:
        raise InputError("loose cycles have length at least 3")
    edge_sets = [frozenset(e) for e in G.ids]
    incidence = {}
    parent = {}  # union-find forest over the vertices of the prefix

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    tick = _node_ticker()
    for i, cand in enumerate(edge_sets):
        roots = {find(v) for v in cand}
        if len(roots) < len(cand):
            cycle = _cycle_through(edge_sets, incidence, cand, max_length, tick)
            if cycle is not None:
                return [G.vertex(x) for x in cycle]
        joined = roots.pop()
        for r in roots:
            parent[r] = joined
        for v in cand:
            incidence.setdefault(v, []).append(i)
    return None


def find_loose_cycle_through(edge_sets: Sequence[frozenset],
                             incidence: Mapping[object, Sequence[int]],
                             cand: frozenset, max_length: int
                             ) -> Optional[list]:
    """Search for a loose cycle of length between 3 and max_length that uses
    the edge `cand`, in the hypergraph of the edges `incidence` names plus
    `cand`.

    Vertices may be any ordered hashable labels, such as Vertex pairs or
    the generator's integer ids: the search only hashes and compares them.
    `incidence` maps each vertex to the indices into `edge_sets` of the
    edges containing it (a missing vertex is isolated); edges it does not
    name take no part, and `cand` must not be among them.  Such a cycle is
    `cand` plus a loose path of at most max_length - 1 edges from a vertex u
    of `cand` to another vertex v of `cand` that meets `cand` nowhere else.
    When the named edges alone have no loose cycle of length <= max_length,
    every such cycle in the enlarged hypergraph passes through `cand`, so
    the answer is girth_at_most's on it, while the work depends on the paths
    around `cand`, not on the edge count.

    The DFS grows the path from u on an explicit stack, so its depth is not
    bounded by the interpreter's recursion limit, and takes each cycle in
    the orientation with u < v.  Returns the witness in find_loose_cycle's
    format, `cand` first, or None.  Raises BudgetExceeded when GIRTH_NODE_CAP
    DFS nodes are visited.
    """
    if max_length < 3:
        raise InputError("loose cycles have length at least 3")
    return _cycle_through(edge_sets, incidence, cand, max_length,
                          _node_ticker())


def _cycle_through(edge_sets, incidence, cand, max_length, tick):
    """find_loose_cycle_through's search, counting DFS nodes on `tick`."""

    def steps(tail, joint):
        # every edge of the path meets `used` only at the joint it entered
        # by, so a vertex of the tail other than that joint is fresh
        for x in sorted(edge_sets[tail] - {joint}):
            for f in incidence.get(x, ()):
                if f != tail:
                    yield x, f

    for u in sorted(cand)[:-1]:
        for e in incidence.get(u, ()):
            tick()
            if edge_sets[e] & cand != {u}:
                continue
            used = set(cand | edge_sets[e])
            stack = [(e, u, steps(e, u))]  # (path edge, joint into it, steps)
            while stack:
                for x, f in stack[-1][2]:
                    tick()
                    meet = edge_sets[f] & used
                    if len(meet) == 1:
                        if len(stack) + 3 <= max_length:
                            used |= edge_sets[f]
                            stack.append((f, x, steps(f, x)))
                            break
                    elif len(meet) == 2:
                        (v,) = meet - {x}
                        if v in cand and v > u:
                            path = [g for g, _, _ in stack] + [f]
                            joints = [j for _, j, _ in stack] + [x]
                            seq = []
                            for block, j_in, j_out in zip(
                                    [cand] + [edge_sets[g] for g in path],
                                    [v] + joints, joints + [v]):
                                seq.extend([j_in] + sorted(block - {j_in, j_out}))
                            return seq
                else:  # no step left from the tail: backtrack
                    g, j, _ = stack.pop()
                    used -= edge_sets[g] - {j}
    return None


def girth_at_most(G: Hypergraph, limit: int) -> bool:
    """True iff G contains a loose cycle of length between 3 and limit."""
    return find_loose_cycle(G, limit) is not None
