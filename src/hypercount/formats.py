"""Parsing and serialization of hypergraphs.

Text format, one logical record per line, '#' starts a comment:

    k=3 sizes=1,1,1
    e 0:0 1:0 2:0

A JSON mirror {"k": ..., "sizes": [...], "edges": [[[c, i], ...], ...]} is
accepted interchangeably; the detector looks at the first non-space byte.
Serialization is canonical (sorted edges), so equal hypergraphs always
produce byte-identical text and digests.
"""

from __future__ import annotations

import hashlib
import itertools
import operator
import re
import sys
from typing import Optional

from .errors import InputError
from .hypergraph import Hypergraph


def parse_text(text: str) -> Hypergraph:
    """Parse the text format, handing the edges to Hypergraph.from_ids as
    ids; an error names the first faulty line."""
    k = None
    sizes = None
    edges = []
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("k="):
            if k is not None:
                raise InputError(f"line {lineno}: duplicate header")
            try:
                fields = dict(part.split("=", 1) for part in line.split())
                k = int(fields["k"])
                sizes = tuple(int(x) for x in fields["sizes"].split(","))
            except (KeyError, ValueError) as exc:
                raise InputError(f"line {lineno}: bad header {line!r}: {exc}")
            if len(sizes) != k:
                raise InputError(f"line {lineno}: header gives {len(sizes)} "
                                 f"class sizes for k={k}")
            offsets = list(itertools.accumulate(sizes, initial=0))
            canonical = re.compile(
                "e " + " ".join(f"{c}:([0-9]+)" for c in range(k)))
        elif line.startswith("e "):
            if k is None:
                raise InputError(f"line {lineno}: edge before header")
            # an edge in the canonical form needs only its range check
            match = canonical.fullmatch(line)
            idx = match and tuple(map(int, match.groups()))
            if not (idx and all(map(operator.lt, idx, sizes))):
                idx = _edge_indices(line, lineno, k, sizes)
            ids = tuple(map(operator.add, idx, offsets))
            if ids in seen:
                raise InputError(f"line {lineno}: duplicate edge")
            seen.add(ids)
            edges.append(ids)
        else:
            raise InputError(f"line {lineno}: unrecognized record {line!r}")
    if k is None:
        raise InputError("missing header line 'k=<int> sizes=...'")
    try:
        return Hypergraph.from_ids(k, sizes, edges)
    except InputError as exc:
        raise InputError(f"invalid hypergraph: {exc}")


def _edge_indices(line, lineno, k, sizes) -> list:
    """The vertex indices of an edge record in any form, in class order."""
    toks = line.split()[1:]
    if len(toks) != k:
        raise InputError(
            f"line {lineno}: edge has {len(toks)} vertices, expected {k}")
    edge = []
    for tok in toks:
        try:
            c, i = tok.split(":")
            edge.append((int(c), int(i)))
        except ValueError:
            raise InputError(f"line {lineno}: bad vertex token {tok!r}")
    for c, i in edge:
        if not (0 <= c < k and 0 <= i < sizes[c]):
            raise InputError(f"line {lineno}: vertex {c}:{i} out of range")
    edge.sort()
    if [c for c, _ in edge] != list(range(k)):
        raise InputError(
            f"line {lineno}: edge must meet every class exactly once")
    return [i for _, i in edge]


def _json_int(value) -> int:
    # int() would truncate floats and parse strings, and bool is an int
    if type(value) is not int:
        raise TypeError(f"{value!r} is not an integer")
    return value


def parse_json(text: str) -> Hypergraph:
    import json  # only JSON input needs it
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"bad JSON: {exc}")
    for key in ("k", "sizes", "edges"):
        if key not in obj:
            raise InputError(f"JSON input missing key {key!r}")
    try:
        return Hypergraph.build(_json_int(obj["k"]),
                                [_json_int(s) for s in obj["sizes"]],
                                [[(_json_int(c), _json_int(i)) for c, i in e]
                                 for e in obj["edges"]])
    except (TypeError, ValueError) as exc:
        raise InputError(f"bad JSON hypergraph: {exc}")


def loads(text: str) -> Hypergraph:
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return parse_json(text)
    return parse_text(text)


def load(source: str) -> Hypergraph:
    """Read from a path, or from stdin for '-'.  A path that cannot be read,
    or does not hold UTF-8 text, raises InputError."""
    if source == "-":
        return loads(sys.stdin.read())
    try:
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {source}: {exc.strerror}")
    except UnicodeDecodeError as exc:
        raise InputError(f"{source} is not UTF-8 text: {exc}")
    return loads(text)


def serialize_text(G: Hypergraph, comment: Optional[str] = None) -> str:
    head = "".join(f"# {c}\n" for c in comment.splitlines()) if comment else ""
    return head + G._text


def digest(G: Hypergraph) -> str:
    """SHA-256 of the canonical text serialization."""
    return hashlib.sha256(G._text.encode()).hexdigest()


def canonical_text(G: Hypergraph) -> str:
    """The text of G without a comment: the header, then the edges in
    their canonical order.  Hypergraph keeps it, so serialize_text and
    digest build it once per instance."""
    line = "e " + " ".join(f"{c}:{{}}" for c in range(G.k)) + "\n"
    return (f"k={G.k} sizes={','.join(map(str, G.sizes))}\n"
            + "".join(line.format(*map(operator.sub, e, G.offsets))
                      for e in G.ids))
