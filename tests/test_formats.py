"""Text and JSON hypergraph formats: parsing, serialization, digests."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypercount import (Hypergraph, InputError, Vertex, digest, loads,
                        parse_json, parse_text, serialize_text)
from hypercount.hypergraph import edge_ids

from conftest import single_edge, two_shared
from oracles import canonical_edges, serialize_json, vertex_edge_masks


SINGLE = "k=3 sizes=1,1,1\ne 0:0 1:0 2:0\n"


class TestParseText:
    def test_single_edge(self):
        G = parse_text(SINGLE)
        assert G == single_edge(3)

    def test_comments_and_blank_lines(self):
        text = "# a comment\n\nk=3 sizes=1,1,1\ne 0:0 1:0 2:0  # trailing\n"
        assert parse_text(text) == single_edge(3)

    def test_any_vertex_order(self):
        text = "k=3 sizes=1,1,1\ne 2:0 0:0 1:0\n"
        assert parse_text(text) == single_edge(3)

    def test_duplicate_edge_names_line(self):
        text = SINGLE + "e 1:0 0:0 2:0\n"
        with pytest.raises(InputError, match="line 3.*duplicate"):
            parse_text(text)

    def test_bad_token_names_line(self):
        with pytest.raises(InputError, match="line 2"):
            parse_text("k=3 sizes=1,1,1\ne 0:0 1-0 2:0\n")

    def test_wrong_vertex_count_names_line(self):
        with pytest.raises(InputError, match="line 2"):
            parse_text("k=3 sizes=1,1,1\ne 0:0 1:0\n")

    def test_missing_header(self):
        with pytest.raises(InputError, match="header"):
            parse_text("e 0:0 1:0 2:0\n")

    def test_out_of_range_vertex(self):
        with pytest.raises(InputError, match="line 2"):
            parse_text("k=3 sizes=1,1,1\ne 0:0 1:0 2:4\n")

    @pytest.mark.parametrize("sizes", ["2,2", "2,2,2,2"])
    def test_sizes_must_match_k(self, sizes):
        # refused at the header, before an edge reads a missing class size
        with pytest.raises(InputError, match=r"^line 2: header gives"):
            parse_text(f"# short\nk=3 sizes={sizes}\ne 0:0 1:0 2:0\n")


class TestParseJson:
    @pytest.mark.parametrize("k, sizes, vertex", [
        ("3.7", "[1.9, 1, 1]", "[2, 0.5]"),  # truncated by int() before
        ("3.0", "[1, 1, 1]", "[2, 0]"),
        ("true", "[1, 1, 1]", "[2, 0]"),
        ('"3"', "[1, 1, 1]", "[2, 0]"),
        ("3", "[1, 1, 1]", '[2, "0"]'),
        ("3", "[1, 1, 1]", "[2, false]"),
        ("1e999", "[1, 1, 1]", "[2, 0]"),  # overflowed int() before
        ("null", "[1, 1, 1]", "[2, 0]"),
    ])
    def test_only_json_integers(self, k, sizes, vertex):
        text = (f'{{"k": {k}, "sizes": {sizes}, '
                f'"edges": [[[0, 0], [1, 0], {vertex}]]}}')
        with pytest.raises(InputError, match="is not an integer"):
            loads(text)

    def test_integers_load(self):
        text = '{"k": 3, "sizes": [1, 1, 1], "edges": [[[0, 0], [1, 0], [2, 0]]]}'
        assert parse_json(text) == single_edge(3)


class TestRoundTrips:
    def test_text_idempotent(self):
        G = two_shared(3)
        text = serialize_text(G)
        assert serialize_text(parse_text(text)) == text

    def test_json_interchangeable(self):
        G = two_shared(4)
        assert parse_json(serialize_json(G)) == G
        assert loads(serialize_json(G)) == G
        assert loads(serialize_text(G)) == G

    def test_digest_stable_across_formats(self):
        G = two_shared(3)
        assert digest(parse_text(serialize_text(G))) == \
            digest(parse_json(serialize_json(G)))

    def test_digest_distinguishes(self):
        assert digest(single_edge(3)) != digest(two_shared(3))


# ----- the constructors against each other and against the Vertex forms -------


@st.composite
def shuffled_edge_lists(draw):
    """(k, sizes, edges): distinct valid edges as lists of (class, index)
    pairs, with the edges and the vertices within each in random order."""
    k = draw(st.integers(2, 4))
    sizes = [draw(st.integers(1, 4)) for _ in range(k)]
    combos = draw(st.lists(st.tuples(*[st.integers(0, s - 1) for s in sizes]),
                           unique=True, max_size=12))
    rnd = draw(st.randoms(use_true_random=False))
    edges = [[(c, i) for c, i in enumerate(combo)] for combo in combos]
    rnd.shuffle(edges)
    for e in edges:
        rnd.shuffle(e)
    return k, sizes, edges


def as_text(k, sizes, edges):
    """The text format of the edges in their given order."""
    return "".join([f"k={k} sizes={','.join(map(str, sizes))}\n"] + [
        "e " + " ".join(f"{c}:{i}" for c, i in e) + "\n" for e in edges])


def as_json(k, sizes, edges):
    return json.dumps({"k": k, "sizes": sizes,
                       "edges": [[list(v) for v in e] for e in edges]})


@given(shuffled_edge_lists())
@settings(max_examples=150, deadline=None)
def test_constructors_agree(case):
    k, sizes, edges = case
    G = Hypergraph.build(k, sizes, edges)
    ids = [[sum(sizes[:c]) + i for c, i in sorted(e)] for e in edges]
    built = [parse_text(serialize_text(G)),
             parse_text(as_text(k, sizes, edges)),
             parse_json(as_json(k, sizes, edges)),
             Hypergraph(k, sizes, ids)]
    assert all(H == G and digest(H) == digest(G) for H in built)
    assert G.edges == canonical_edges(k, edges)
    assert G.edge_masks == vertex_edge_masks(G)
    assert serialize_text(G) == as_text(k, sizes, G.edges)


def _labels(edge):
    return [str(v) for v in sorted(Vertex(*v) for v in edge)]


@given(shuffled_edge_lists(), st.sampled_from(
    ["range", "class twice", "arity", "duplicate"]), st.randoms())
@settings(max_examples=200, deadline=None)
def test_invalid_edge_lists_keep_their_messages(case, fault, rnd):
    # each reader's message for each kind of fault, as the constructors on
    # Vertex tuples gave it: the text format puts its line in front of the
    # check of (class, index) pairs, edge_ids, but counts a record's tokens
    # and finds a repeated record itself
    k, sizes, edges = case
    if not edges:
        edges.append([(c, 0) for c in range(k)])
    pos = rnd.randrange(len(edges))
    e = list(edges[pos])
    j = rnd.randrange(k)
    c, i = e[j]
    if fault == "range":
        e[j] = (c, sizes[c] + rnd.randrange(3))
        built = f"vertex {e[j][0]}:{e[j][1]} out of range for class size {sizes[c]}"
        parsed = f"line {pos + 2}: {built}"
    elif fault == "class twice":
        other = rnd.choice([d for d in range(k) if d != c])
        e[j] = (other, rnd.randrange(sizes[other]))
        built = f"edge {_labels(e)} must contain exactly one vertex per class"
        parsed = f"line {pos + 2}: {built}"
    elif fault == "arity":
        if rnd.random() < 0.5:
            del e[j]
        else:
            e.insert(rnd.randrange(k + 1), (c, rnd.randrange(sizes[c])))
        built = f"edge {_labels(e)} must contain exactly one vertex per class"
        parsed = f"line {pos + 2}: edge has {len(e)} vertices, expected {k}"
    else:
        rnd.shuffle(e)
        built = f"duplicate edge {_labels(e)}"
        parsed = f"line {len(edges) + 2}: duplicate edge"
    edges = edges + [e] if fault == "duplicate" else (
        edges[:pos] + [e] + edges[pos + 1:])
    offsets = [sum(sizes[:c]) for c in range(k + 1)]
    for make, message in [
            (lambda: Hypergraph(k, sizes, [edge_ids(k, sizes, offsets, f)
                                           for f in edges]), built),
            (lambda: Hypergraph.build(k, sizes, edges), built),
            (lambda: parse_json(as_json(k, sizes, edges)),
             f"bad JSON hypergraph: {built}"),
            (lambda: parse_text(as_text(k, sizes, edges)), parsed)]:
        with pytest.raises(InputError) as exc:
            make()
        assert str(exc.value) == message


def test_constructor_checks_every_edge():
    for ids in ([(0, 1, 2), (0, 1, 2)], [(0, 1)], [(1, 0, 2)], [(0, 1, 9)],
                [(-1, 1, 2)], [((0, 0), (1, 0), (2, 0))], [(0, 1.0, 2)],
                [(0, 1, 2), ((0, 0), (1, 0), (2, 0))]):
        with pytest.raises(InputError):
            Hypergraph(3, [1, 1, 1], ids)
    with pytest.raises(InputError, match="^duplicate edge"):
        Hypergraph(3, [1, 1, 1], [(0, 1, 2), (0, 1, 2)])
