"""Text and JSON hypergraph formats: parsing, serialization, digests."""

import pytest

from hypercount import (InputError, digest, loads, parse_json, parse_text,
                        serialize_text)

from conftest import single_edge, two_shared
from oracles import serialize_json


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
