"""CLI surface: every subcommand, exit codes, determinism of exact fields."""

import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hypercount
from hypercount import (digest, formats, gen_linear_regular, loads,
                        serialize_text)
from hypercount.cli import (CLOSED_PIPE, _COMMANDS, _build_parser, _parse,
                            _specs, main)

from conftest import (circulant, kp_instances, loose_path, matching,
                      single_edge)
from oracles import path_independence_polynomial


SINGLE = serialize_text(single_edge(3))

# each environment variable that once set a budget, with one command that
# read it; no command reads the environment now
FORMER_BUDGET_VARIABLES = {
    "HYPERCOUNT_MAX_POLYMERS": ("xi", "--class", "0", "--b", "2"),
    "HYPERCOUNT_GIRTH_NODE_CAP": ("check", "girth"),
}

# each command that runs a loose-cycle search, with its arguments past the
# input
GIRTH_SEARCHERS = [
    ("check", "girth"),
    ("closed-form", "--t", "2"),
    ("compare", "--t", "2"),
]

# commands besides exact-count that would build per-vertex tables, masks
# or counts on an instance, with their arguments past the input
VERTEX_CAP_COMMANDS = [
    ("estimate", "--t", "1"),
    ("xi", "--class", "1", "--b", "1"),
    ("closed-form", "--t", "1"),
    ("defect-count", "--class", "1", "--b", "1"),
    ("check", "def", "--b", "0"),
]

# each command that enumerates polymers under polymers.MAX_POLYMERS, with
# its arguments past the input
CAPPED_BY_MAX_POLYMERS = {
    "polymers": ("--class", "0", "--b", "2"),
    "xi": ("--class", "0", "--b", "2"),
    "kp-check": ("--class", "0", "--b", "2"),
    "clusters": ("--class", "0", "--t", "2"),
    "log-xi-trunc": ("--class", "0", "--t", "2"),
    "estimate": ("--t", "2"),
    "compare": ("--t", "2"),
}


@pytest.fixture
def single_path(tmp_path):
    path = tmp_path / "single.hg"
    path.write_text(SINGLE)
    return str(path)


@pytest.fixture
def edgeless_path(tmp_path):
    """A 0-regular instance: it has an exact count and an estimate, but the
    closed forms need r >= 1."""
    path = tmp_path / "edgeless.hg"
    path.write_text("k=3 sizes=2,2,2\n")
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def minimal_argv(name):
    """`name` followed by a value for each argument it requires."""
    argv = [name]
    for flags, kwargs in _COMMANDS[name][2]:
        if not flags[0].startswith("-"):
            argv.append(kwargs["choices"][0])
        elif kwargs.get("required"):
            argv += [flags[0], str(kwargs.get("choices", (1,))[0])]
    return argv


def parse_outcome(capsys, parse, argv):
    """Exit code, stdout and stderr of a parse that ends in SystemExit."""
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


# argv that the parser answers by itself: help, then usage errors
PARSER_CASES = (
    [[name, "--help"] for name in _COMMANDS]
    + [[name] for name in _COMMANDS if minimal_argv(name) != [name]]
    + [minimal_argv(name) + ["--bogus"] for name in _COMMANDS]
    + [["check", "nope"], ["closed-form", "--t", "3"], ["estimate", "--t", "x"],
       [], ["foo"], ["--json"], ["--json", "-h", "estimate"],
       ["-1", "estimate"]])

# tokens of random command lines: every flag, lines argparse alone reads
# (help, "--", "=" values, abbreviated and attached flags), and values that
# int() reads loosely (an Arabic-Indic 3) or that look like flags
FLAGS = sorted({flag for name in _COMMANDS for flags, _ in _specs(name)
                for flag in flags if flag.startswith("-")})
VALUES = ["", "-", "-1", "+3", " 3", "3_0", "\u0663", "1/4", "1:0", "0", "1",
          "2", *(str(choice) for name in _COMMANDS
                 for _, kwargs in _specs(name)
                 for choice in kwargs.get("choices", ()))]
TOKENS = [*_COMMANDS, *FLAGS, "--json", "-h", "--", "--t=2", "--cl", "-ia",
          *VALUES]


@st.composite
def command_lines(draw):
    """Mostly near-plain argv: a command and most of its arguments in any
    order, some under another flag or with an odd value, and a few stray
    tokens."""
    token = st.sampled_from(TOKENS) | st.text(max_size=3)
    name = draw(token if draw(st.integers(0, 7)) == 7
                else st.sampled_from(list(_COMMANDS)))
    parts = []
    for flags, kwargs in _specs(name) if name in _COMMANDS else ():
        # 0-2: plain, 3: an odd value, 4: another flag, 5: left out
        kind = draw(st.integers(0, 5))
        if kind == 5:
            continue
        flag = draw(st.sampled_from(FLAGS if kind == 4 else flags))
        value = draw(st.sampled_from(VALUES) | token if kind == 3 else
                     st.sampled_from([str(c) for c in
                                      kwargs.get("choices", (1, 2))]))
        parts.append([flag, value] if flags[0].startswith("-") else [value])
    parts = draw(st.permutations(parts))
    for extra in draw(st.lists(token, max_size=1)):
        parts.insert(draw(st.integers(0, len(parts))), [extra])
    return (["--json"] * draw(st.booleans()) + [name]
            + [t for part in parts for t in part])


def kv(out):
    pairs = {}
    for line in out.splitlines():
        if "=" in line and " " not in line.split("=", 1)[0]:
            key, val = line.split("=", 1)
            pairs[key] = val
    return pairs


def long_int(text):
    """int(text) for decimals of any length, in chunks under Python's
    int-to-str digit limit."""
    value = 0
    for i in range(0, len(text), 1000):
        chunk = text[i:i + 1000]
        value = value * 10 ** len(chunk) + int(chunk)
    return value


def stable(out):
    return "\n".join(line for line in out.splitlines()
                     if not line.startswith("elapsed=")
                     and '"timings"' not in line)


class TestCommands:
    def test_exact_count(self, capsys, single_path):
        code, out, _ = run_cli(capsys, "exact-count", "-i", single_path)
        assert code == 0
        assert kv(out)["count"] == "7"

    def test_defect_count(self, capsys, single_path):
        code, out, _ = run_cli(capsys, "defect-count", "-i", single_path,
                               "--class", "0", "--b", "1")
        assert code == 0
        assert kv(out)["count"] == "7"

    def test_polymers(self, capsys, single_path):
        code, out, _ = run_cli(capsys, "polymers", "-i", single_path,
                               "--class", "0", "--b", "1")
        assert code == 0
        assert kv(out)["count"] == "1"
        assert "weight=3/4" in out

    def test_xi(self, capsys, single_path):
        code, out, _ = run_cli(capsys, "xi", "-i", single_path,
                               "--class", "0", "--b", "1")
        assert code == 0
        assert kv(out)["xi"] == "7/4"

    def test_xi_beyond_float_range(self, capsys, tmp_path):
        # a 1300-edge perfect matching has Xi = (7/4)^1300, far above the
        # largest double
        path = tmp_path / "matching.hg"
        path.write_text(serialize_text(matching(3, 1300)))
        code, out, _ = run_cli(capsys, "xi", "-i", str(path),
                               "--class", "0", "--b", "1")
        assert code == 0
        assert kv(out)["log_xi"] == format(1300 * math.log(7 / 4), ".12g")

    def test_xi_on_a_long_loose_path(self, capsys, tmp_path):
        # the class-2 vertex of edge i has weight 3/4 and meets only the
        # class-2 vertices of edges i - 1 and i + 1, so Xi is the
        # independence polynomial of a 1200-vertex path at 3/4
        path = tmp_path / "path.hg"
        path.write_text(serialize_text(loose_path(1200)))
        code, out, _ = run_cli(capsys, "xi", "-i", str(path),
                               "--class", "2", "--b", "1")
        assert code == 0
        assert Fraction(kv(out)["xi"]) == \
            path_independence_polynomial(1200, Fraction(3, 4))

    def test_kp_check(self, capsys, single_path):
        code, out, _ = run_cli(capsys, "kp-check", "-i", single_path,
                               "--class", "0", "--b", "1")
        assert code == 0
        assert kv(out)["all_hold"] == "false"
        assert "rhs=1" in out

    def test_clusters(self, capsys, single_path):
        code, out, _ = run_cli(capsys, "clusters", "-i", single_path,
                               "--class", "0", "--t", "2")
        assert code == 0
        assert kv(out)["count"] == "2"
        assert "weight=-9/32" in out

    def test_log_xi_trunc(self, capsys, single_path):
        code, out, _ = run_cli(capsys, "log-xi-trunc", "-i", single_path,
                               "--class", "0", "--t", "2")
        assert code == 0
        assert kv(out)["log_xi_truncated"] == "15/32"

    def test_estimate(self, capsys, single_path):
        code, out, _ = run_cli(capsys, "estimate", "-i", single_path,
                               "--t", "1")
        assert code == 0
        assert kv(out)["log_value"].startswith("3.2349066")

    def test_closed_form_t2(self, capsys, single_path):
        code, out, _ = run_cli(capsys, "closed-form", "-i", single_path,
                               "--t", "2")
        assert code == 0
        pairs = kv(out)
        assert pairs["printed_exponent"] == "3/16"
        assert pairs["corrected_exponent"] == "15/32"
        assert pairs["delta"] == "9/32"

    @pytest.mark.parametrize("t", ["1", "2"])
    def test_closed_form_refuses_a_non_linear_instance(self, capsys,
                                                       tmp_path, t):
        # 2-regular with equal class sizes, but edges 0 and 1 share two
        # vertices
        path = tmp_path / "nonlinear.hg"
        path.write_text("k=3 sizes=2,2,2\ne 0:0 1:0 2:0\ne 0:0 1:0 2:1\n"
                        "e 0:1 1:1 2:0\ne 0:1 1:1 2:1\n")
        code, out, err = run_cli(capsys, "closed-form", "-i", str(path),
                                 "--t", t)
        assert code == 2 and out == ""
        assert err == "error=input closed forms require a linear hypergraph\n"

    @pytest.mark.parametrize("t", ["1", "2"])
    def test_closed_form_refuses_a_non_regular_instance(self, capsys,
                                                        tmp_path, t):
        # vertex 0:1 lies in no edge, the others in one
        path = tmp_path / "irregular.hg"
        path.write_text("k=3 sizes=2,1,1\ne 0:0 1:0 2:0\n")
        code, out, err = run_cli(capsys, "closed-form", "-i", str(path),
                                 "--t", t)
        assert code == 2 and out == ""
        assert err == ("error=input closed forms require a regular "
                       "hypergraph with equal class sizes\n")

    def test_closed_form_t2_refuses_a_short_loose_cycle(self, capsys,
                                                         tmp_path):
        from hypercount import gen_linear_regular, girth_at_most
        G = gen_linear_regular(3, 4, 2, seed=1)
        assert G.is_linear() and girth_at_most(G, 4)
        path = tmp_path / "inst.hg"
        path.write_text(serialize_text(G))
        code, _, _ = run_cli(capsys, "closed-form", "-i", str(path),
                             "--t", "1")
        assert code == 0
        code, out, err = run_cli(capsys, "closed-form", "-i", str(path),
                                 "--t", "2")
        assert code == 2 and out == ""
        assert err.startswith("error=input the size-2 closed form requires "
                              "no loose cycle shorter than 5")

    @pytest.mark.parametrize("json_mode", [False, True])
    def test_exact_count_prints_every_digit(self, capsys, tmp_path,
                                            json_mode):
        # 2^20002 has 6,022 digits, over the default int-to-str limit
        path = tmp_path / "wide.hg"
        path.write_text("k=3 sizes=20000,1,1\n")
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
        code, out, err = run_cli(capsys, *(["--json"] if json_mode else []),
                                 "exact-count", "-i", str(path))
        assert code == 0 and err == ""
        count = (json.loads(out, parse_int=long_int)["results"]["count"]
                 if json_mode else long_int(kv(out)["count"]))
        assert count == 2 ** 20002
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit

    def test_check_linear(self, capsys, single_path):
        code, out, _ = run_cli(capsys, "check", "linear", "-i", single_path)
        assert code == 0
        assert kv(out)["verdict"] == "holds"

    def test_check_girth_and_common_neighbor(self, capsys, tmp_path):
        from hypercount import serialize_text
        from oracles import loose_cycle_gadget
        path = tmp_path / "gadget.hg"
        path.write_text(serialize_text(loose_cycle_gadget(3)))
        code, out, _ = run_cli(capsys, "check", "girth", "-i", str(path),
                               "--min-girth", "5")
        assert code == 0 and kv(out)["verdict"] == "violated"
        code, out, _ = run_cli(capsys, "check", "common-neighbor",
                               "-i", str(path))
        assert code == 0 and kv(out)["verdict"] == "violated"

    def test_check_girth_on_a_long_loose_cycle(self, capsys, tmp_path):
        # a loose 1200-cycle: the search path is deeper than the default
        # recursion limit
        from hypercount import Hypergraph
        n = 1200
        joint = lambda i: (i % n % 2, i % n // 2)
        G = Hypergraph.build(3, [n // 2, n // 2, n],
                             [[joint(i), joint(i + 1), (2, i)]
                              for i in range(n)])
        path = tmp_path / "cycle.hg"
        path.write_text(serialize_text(G))
        code, out, _ = run_cli(capsys, "check", "girth", "-i", str(path),
                               "--min-girth", "1300")
        assert code == 0 and kv(out)["verdict"] == "violated"

    def test_generate_roundtrip(self, capsys):
        code, out, _ = run_cli(capsys, "generate", "--k", "3", "--n", "4",
                               "--r", "2", "--seed", "9")
        assert code == 0
        G = loads(out)
        assert G.regular_degree() == 2 and G.is_linear()

    def test_generate_to_file(self, capsys, tmp_path):
        dest = tmp_path / "gen.hg"
        code, out, _ = run_cli(capsys, "generate", "--k", "3", "--n", "3",
                               "--r", "1", "--seed", "4", "--out", str(dest))
        assert code == 0
        assert kv(out)["out"] == str(dest)
        G = loads(dest.read_text())
        assert G.regular_degree() == 1

    def test_check_reg_and_def(self, capsys, single_path):
        code, out, _ = run_cli(capsys, "check", "reg", "-i", single_path,
                               "--t", "1")
        assert code == 0 and kv(out)["verdict"] == "holds"
        code, out, _ = run_cli(capsys, "check", "def", "-i", single_path,
                               "--b", "0")
        assert code == 0 and kv(out)["verdict"] == "holds"

    def test_check_prints_the_report_params(self, capsys, tmp_path):
        path = tmp_path / "inst.hg"
        path.write_text(serialize_text(gen_linear_regular(3, 6, 2, seed=0)))
        code, out, _ = run_cli(capsys, "check", "def", "-i", str(path),
                               "--b", "6")
        assert code == 0
        assert {key: val for key, val in kv(out).items()
                if key.startswith("param.")} == {
            "param.property": "def", "param.b": "6", "param.vacuous": "true"}
        assert kv(out)["verdict"] == "holds"

    def test_check_reg_ratio_beyond_float_range(self, capsys, tmp_path):
        # at t = 100000 the exact worst ratio has thousands of digits
        from hypercount import gen_linear_regular
        path = tmp_path / "inst.hg"
        path.write_text(serialize_text(gen_linear_regular(3, 4, 2, seed=0)))
        code, out, err = run_cli(capsys, "check", "reg", "-i", str(path),
                                 "--t", "100000")
        assert code == 0 and err == ""
        assert kv(out)["worst_ratio_float"] == "inf"
        num, den = kv(out)["worst_ratio"].split("/")
        assert len(num) - len(den) > 310  # past the float range, 1.8e308

    @pytest.mark.parametrize("t, beyond", [
        (1, ("relative_error", "closed_form_t1_rel_error")),
        (2, ("closed_form_t1_rel_error",))])
    def test_compare_error_beyond_float_range(self, capsys, tmp_path, t,
                                              beyond):
        # on a 5,000-edge perfect matching the size-1 estimates exceed the
        # exact count 7^5000 about e^953 times, past the float range
        path = tmp_path / "matching.hg"
        path.write_text(serialize_text(matching(3, 5000)))
        code, out, err = run_cli(capsys, "compare", "-i", str(path),
                                 "--t", str(t))
        assert code == 0 and err == ""
        fields = kv(out)
        assert long_int(fields["exact"]) == 7 ** 5000
        for name in beyond:
            assert fields[name] == "inf"
        if t == 2:
            assert fields["relative_error"] == "-1"

    def test_check_def_unknown_where_the_filter_refuses(self, capsys,
                                                        single_path,
                                                        monkeypatch):
        # Def(0) holds on a single edge, so the local search that replaces
        # the exhaustive one above the cap finds no violation
        from hypercount import exact
        monkeypatch.setattr(exact, "DEFECT_VERTEX_CAP", 2)
        code, out, err = run_cli(capsys, "check", "def", "-i", single_path,
                                 "--b", "0")
        assert code == 0 and err == ""
        assert kv(out)["verdict"] == "unknown"

    def test_check_exp1(self, capsys, single_path):
        code, out, _ = run_cli(capsys, "check", "exp1", "-i", single_path,
                               "--alpha", "1/2")
        assert code == 0 and kv(out)["verdict"] == "holds"
        assert kv(out)["worst_ratio"] == "2"

    @pytest.mark.parametrize("flag", ["--size-cap", "--samples"])
    def test_expansion_budgets_are_not_options(self, capsys, single_path,
                                               flag):
        code, out, err = parse_outcome(
            capsys, main, ["check", "exp1", "-i", single_path, flag, "5"])
        assert code == 2 and out == ""
        assert f"unrecognized arguments: {flag} 5" in err

    def test_kp_check_single_root(self, capsys, single_path):
        code, out, _ = run_cli(capsys, "kp-check", "-i", single_path,
                               "--class", "0", "--b", "1", "--root", "0:0")
        assert code == 0
        assert kv(out)["roots"] == "1"

    def test_kp_check_rows_match_single_root_runs(self, capsys, tmp_path):
        for i, G in enumerate(kp_instances()):
            path = tmp_path / f"inst{i}.hg"
            path.write_text(serialize_text(G))
            for b in range(4):
                args = ("kp-check", "-i", str(path), "--class", "0",
                        "--b", str(b))
                code, out, _ = run_cli(capsys, *args)
                assert code == 0
                rows = [line for line in out.splitlines()
                        if line.startswith("root ")]
                assert len(rows) == G.sizes[0]
                for u, row in zip(G.class_vertices(0), rows):
                    code, out, _ = run_cli(capsys, *args, "--root", str(u))
                    assert code == 0
                    assert [line for line in out.splitlines()
                            if line.startswith("root ")] == [row]

    def test_polymers_with_root(self, capsys, single_path):
        code, out, _ = run_cli(capsys, "polymers", "-i", single_path,
                               "--class", "0", "--b", "1", "--root", "0:0")
        assert code == 0 and kv(out)["count"] == "1"

    def test_compare(self, capsys, single_path):
        code, out, _ = run_cli(capsys, "compare", "-i", single_path,
                               "--t", "1")
        assert code == 0
        pairs = kv(out)
        assert pairs["exact"] == "7"
        import math
        expected = 12 * math.exp(0.75) / 7 - 1  # estimate is about 25.4
        assert float(pairs["relative_error"]) == pytest.approx(expected,
                                                               rel=1e-9)
        assert "closed_form_t1_log" in pairs

    @pytest.mark.parametrize("t", ["1", "2"])
    def test_compare_on_an_edgeless_instance(self, capsys, edgeless_path, t):
        code, out, err = run_cli(capsys, "compare", "-i", edgeless_path,
                                 "--t", t)
        assert code == 0 and err == ""
        pairs = kv(out)
        assert pairs["exact"] == "64"
        assert not any(key.startswith("closed_form") for key in pairs)

    def test_check_exp2_on_an_edgeless_instance(self, capsys, edgeless_path):
        code, out, err = run_cli(capsys, "check", "exp2", "-i", edgeless_path)
        assert code == 0 and err == ""
        assert kv(out)["verdict"] == "holds"


class TestJsonMode:
    def test_payload_shape(self, capsys, single_path):
        code, out, _ = run_cli(capsys, "--json", "xi", "-i", single_path,
                               "--class", "0", "--b", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["results"]["xi"] == "7/4"
        assert payload["command"] == "xi"
        assert "digest" in payload and "timings" in payload


class TestExitCodes:
    def test_input_error(self, capsys, tmp_path):
        path = tmp_path / "bad.hg"
        path.write_text("k=3 sizes=1,1,1\ne 0:0 1:0\n")
        code, _, err = run_cli(capsys, "exact-count", "-i", str(path))
        assert code == 2 and "error=input" in err

    @pytest.mark.parametrize("t, dropped, message", [
        ("0", 0, "truncation size t must be at least 1"),
        ("1", 3, "the estimator requires a regular hypergraph")])
    def test_compare_checks_the_estimate_before_the_exact_count(
            self, capsys, tmp_path, t, dropped, message):
        # the exact count of this instance, or of it less its last three
        # edges, refuses at the state cap; compare gives estimate's input
        # error instead
        G = gen_linear_regular(3, 40, 3, seed=0)
        lines = serialize_text(G).splitlines()
        path = tmp_path / "inst.hg"
        path.write_text("\n".join(lines[:len(lines) - dropped]) + "\n")
        for command in ("estimate", "compare"):
            code, out, err = run_cli(capsys, command, "-i", str(path),
                                     "--t", t)
            assert (code, out, err) == (2, "", f"error=input {message}\n")

    @pytest.mark.parametrize("argv", [
        ("polymers", "--class", "0", "--b", "3"),
        ("--json", "xi", "--class", "0", "--b", "1"),
        ("generate", "--k", "3", "--n", "6", "--r", "2", "--seed", "0"),
    ])
    def test_closed_pipe(self, tmp_path, argv):
        # a fresh process whose reader has closed standard output before
        # the first write exits CLOSED_PIPE without a traceback
        path = tmp_path / "inst.hg"
        path.write_text(serialize_text(gen_linear_regular(3, 8, 2, seed=0)))
        if argv[0] != "generate":
            argv += ("-i", str(path))
        src = str(Path(hypercount.__file__).parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        read, write = os.pipe()
        os.close(read)
        try:
            child = subprocess.run(
                [sys.executable, "-m", "hypercount.cli", *argv], stdout=write,
                stderr=subprocess.PIPE, timeout=120, env=env)
        finally:
            os.close(write)
        assert CLOSED_PIPE == 141
        assert (child.returncode, child.stderr) == (CLOSED_PIPE, b"")

    @pytest.mark.parametrize("k", ["3.7", "1e999"])  # 1e999 is a float inf
    def test_json_number_that_is_not_an_integer(self, capsys, tmp_path, k):
        path = tmp_path / "bad.json"
        path.write_text(f'{{"k": {k}, "sizes": [1, 1, 1], "edges": []}}')
        code, out, err = run_cli(capsys, "exact-count", "-i", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error=input") and "not an integer" in err

    def test_budget_refusal(self, capsys, single_path, monkeypatch):
        from hypercount import exact
        monkeypatch.setattr(exact, "DEFECT_VERTEX_CAP", 2)
        code, out, err = run_cli(capsys, "defect-count", "-i", single_path,
                                 "--class", "0", "--b", "1")
        assert code == 3 and out == ""
        assert err.startswith("error=budget the defect count has 3 "
                              "vertices, over the cap of 2;")

    def test_vertex_cap_refusal(self, capsys, tmp_path):
        # counting would build 2^(10^12): refuse instead of a MemoryError
        path = tmp_path / "huge.json"
        path.write_text('{"k": 3, "sizes": [1000000000000, 1, 1], '
                        '"edges": []}')
        code, out, err = run_cli(capsys, "exact-count", "-i", str(path))
        assert code == 3 and out == ""
        assert err.startswith("error=budget the instance has "
                              "1000000000002 vertices, over the cap")

    @pytest.mark.parametrize("argv", VERTEX_CAP_COMMANDS,
                             ids=" ".join)
    def test_vertex_cap_gates_every_command(self, capsys, tmp_path, argv):
        # the instance refuses as it is built, before any per-vertex work
        path = tmp_path / "huge.json"
        path.write_text('{"k": 3, "sizes": [1000000000000, 1, 1], '
                        '"edges": []}')
        code, out, err = run_cli(capsys, *argv, "-i", str(path))
        assert code == 3 and out == ""
        assert err.startswith("error=budget the instance has ")

    def test_state_cap_refusal(self, capsys, tmp_path, monkeypatch):
        from hypercount import exact
        monkeypatch.setattr(exact, "STATE_CAP", 12)
        path = tmp_path / "circulant.hg"
        path.write_text(serialize_text(circulant(5, 2)))
        code, out, err = run_cli(capsys, "exact-count", "-i", str(path))
        assert code == 3 and out == "" and "error=budget" in err
        assert "swept 5 of 15 shared vertices and held 16" in err

    @pytest.mark.parametrize("command", sorted(CAPPED_BY_MAX_POLYMERS))
    def test_polymer_cap_refusal(self, capsys, tmp_path, monkeypatch,
                                 command):
        from hypercount import gen_linear_regular, polymers
        monkeypatch.setattr(polymers, "MAX_POLYMERS", 1)
        path = tmp_path / "inst.hg"
        path.write_text(serialize_text(gen_linear_regular(3, 4, 2, seed=1)))
        code, out, err = run_cli(capsys, command, "-i", str(path),
                                 *CAPPED_BY_MAX_POLYMERS[command])
        assert code == 3 and out == ""
        assert err.startswith("error=budget")
        assert "polymers exceed the cap of 1" in err

    def test_kp_check_caps_the_class_polymers(self, capsys, tmp_path,
                                              monkeypatch):
        # the cap bounds the class's polymers, as for `polymers`, so a cap
        # that every single root fits under still refuses the whole class
        from hypercount import enumerate_polymers, polymers
        G = kp_instances()[0]
        most = max(len(enumerate_polymers(G, 0, 2, root=u))
                   for u in G.class_vertices(0))
        total = len(enumerate_polymers(G, 0, 2))
        assert total > most
        path = tmp_path / "inst.hg"
        path.write_text(serialize_text(G))
        args = ("kp-check", "-i", str(path), "--class", "0", "--b", "2")
        monkeypatch.setattr(polymers, "MAX_POLYMERS", most)
        code, out, err = run_cli(capsys, *args)
        assert code == 3 and out == ""
        assert (f"at least {most + 1} polymers exceed the cap of {most};"
                in err)
        for u in G.class_vertices(0):
            assert run_cli(capsys, *args, "--root", str(u))[0] == 0
        monkeypatch.setattr(polymers, "MAX_POLYMERS", total)
        assert run_cli(capsys, *args)[0] == 0

    @pytest.mark.parametrize("name", sorted(FORMER_BUDGET_VARIABLES))
    @pytest.mark.parametrize("value", ["-1", "-5"])
    def test_negative_budget_variable(self, capsys, single_path, monkeypatch,
                                      name, value):
        # the variable is ignored: the command answers as without it
        command, *rest = FORMER_BUDGET_VARIABLES[name]
        argv = (command, "-i", single_path, *rest)
        code, out, err = run_cli(capsys, *argv)
        assert code == 0 and err == ""
        monkeypatch.setenv(name, value)
        code, again, err = run_cli(capsys, *argv)
        assert code == 0 and err == "" and stable(again) == stable(out)

    @pytest.mark.parametrize("argv", GIRTH_SEARCHERS, ids=" ".join)
    def test_girth_cap_reaches_every_search(self, capsys, tmp_path,
                                            monkeypatch, argv):
        from hypercount import gen_linear_regular, hypergraph
        monkeypatch.setattr(hypergraph, "GIRTH_NODE_CAP", 0)
        path = tmp_path / "inst.hg"
        path.write_text(serialize_text(gen_linear_regular(3, 8, 2, seed=2)))
        command, *rest = argv
        code, out, err = run_cli(capsys, command, "-i", str(path), *rest)
        if command == "check":  # answers unknown instead of refusing
            assert code == 0 and kv(out)["verdict"] == "unknown"
        else:
            assert code == 3 and out == ""
            assert err.startswith("error=budget loose-cycle search exceeded "
                                  "node cap 0")

    def test_generation_under_the_girth_cap(self, capsys, monkeypatch):
        from hypercount import hypergraph
        monkeypatch.setattr(hypergraph, "GIRTH_NODE_CAP", 0)
        code, out, err = run_cli(capsys, "generate", "--k", "3", "--n", "8",
                                 "--r", "2", "--seed", "0", "--min-girth", "5")
        assert code == 3 and out == ""
        assert "exceeded node cap 0" in err

    def test_compatibility_sum_state_cap_refusal(self, capsys, tmp_path,
                                                 monkeypatch):
        from hypercount import exact
        path = tmp_path / "inst.hg"
        path.write_text(serialize_text(kp_instances()[1]))
        args = ("xi", "-i", str(path), "--class", "0", "--b", "2")
        monkeypatch.setattr(exact, "STATE_CAP", 7)
        code, out, err = run_cli(capsys, *args)
        assert code == 0 and err == "" and "\nxi=" in out
        monkeypatch.setattr(exact, "STATE_CAP", 6)
        code, out, err = run_cli(capsys, *args)
        assert code == 3 and out == "" and err.startswith("error=budget")
        assert "held 7 live states at site 2 of 7" in err

    def test_long_polymer_growth_refuses_at_the_cap(self, capsys, tmp_path,
                                                    monkeypatch):
        # growing a polymer towards order 990 goes deeper than the default
        # recursion limit before the cap is reached
        from hypercount import gen_linear_regular, polymers
        monkeypatch.setattr(polymers, "MAX_POLYMERS", 2000)
        path = tmp_path / "inst.hg"
        path.write_text(serialize_text(gen_linear_regular(3, 1500, 2, seed=0)))
        code, _, err = run_cli(capsys, "polymers", "-i", str(path),
                               "--class", "0", "--b", "990")
        assert code == 3 and "polymers exceed the cap of 2000" in err

    @pytest.mark.parametrize("command", ["polymers", "kp-check"])
    @pytest.mark.parametrize("b", ["0", "1"])
    def test_missing_root(self, capsys, tmp_path, command, b):
        from hypercount import gen_linear_regular
        path = tmp_path / "inst.hg"
        path.write_text(serialize_text(gen_linear_regular(3, 4, 2, seed=1)))
        code, _, err = run_cli(capsys, command, "-i", str(path),
                               "--class", "0", "--b", b, "--root", "0:99")
        assert code == 2 and "error=input" in err

    @pytest.mark.parametrize("command", ["polymers", "kp-check"])
    def test_empty_root(self, capsys, tmp_path, command):
        # an empty --root names no vertex; it does not mean every root
        path = tmp_path / "inst.hg"
        path.write_text(serialize_text(gen_linear_regular(3, 6, 2, seed=0)))
        assert run_cli(capsys, command, "-i", str(path), "--class", "0",
                       "--b", "1", "--root", "") == (
            2, "", "error=input bad vertex '', expected <class>:<index>\n")

    @pytest.mark.parametrize("prop, flag", [("exp1", "--alpha"),
                                            ("exp2", "--beta")])
    @pytest.mark.parametrize("value", ["foo", "x", "1/0", "1e400"])
    def test_bad_expansion_parameter(self, capsys, single_path, prop, flag,
                                     value):
        code, out, err = run_cli(capsys, "check", prop, "-i", single_path,
                                 flag, value)
        assert code == 2 and out == ""
        assert err.startswith("error=input") and repr(value) in err

    @pytest.mark.parametrize("min_girth", ["3", "0", "-5"])
    def test_vacuous_girth_bound(self, capsys, min_girth):
        code, out, err = run_cli(capsys, "generate", "--k", "3", "--n", "5",
                                 "--r", "2", "--seed", "0", "--min-girth",
                                 min_girth)
        assert (code, out, err) == (
            2, "", "error=input min_girth below 4 is vacuous\n")

    def test_generation_failure(self, capsys):
        code, _, err = run_cli(capsys, "generate", "--k", "4", "--n", "2",
                               "--r", "2", "--seed", "0")
        assert code == 4 and "error=generation" in err

    def test_missing_vertex_class(self, capsys, single_path):
        code, _, err = run_cli(capsys, "xi", "-i", single_path,
                               "--class", "7", "--b", "1")
        assert code == 2

    @pytest.mark.parametrize("case", ["missing", "directory", "undecodable",
                                      "unwritable-out"])
    def test_file_errors(self, capsys, tmp_path, case):
        undecodable = tmp_path / "bytes.hg"
        undecodable.write_bytes(b"\xff\xfe")
        path = {"missing": tmp_path / "none.hg", "directory": tmp_path,
                "undecodable": undecodable,
                "unwritable-out": tmp_path / "none" / "out.hg"}[case]
        if case == "unwritable-out":
            argv = ("generate", "--k", "3", "--n", "3", "--r", "1",
                    "--seed", "4", "--out", str(path))
        else:
            argv = ("estimate", "--t", "1", "-i", str(path))
        code, _, err = run_cli(capsys, *argv)
        assert code == 2 and err.startswith("error=input")
        assert str(path) in err and "Traceback" not in err


FULL_PARSER = _build_parser()


def full_parse(argv):
    """What argparse reads from argv, or 'refused' for its usage errors."""
    try:
        return vars(FULL_PARSER.parse_args(argv))
    except SystemExit:
        return "refused"


class TestParser:
    @pytest.mark.parametrize("argv", PARSER_CASES,
                             ids=lambda argv: " ".join(argv) or "(none)")
    def test_selective_parse_matches_full_parser(self, capsys, argv):
        assert (parse_outcome(capsys, main, argv)
                == parse_outcome(capsys, _build_parser().parse_args, argv))

    @settings(max_examples=500, deadline=None)
    @given(argv=command_lines())
    @example(["estimate", "--t", "2", "-i", "-"])
    @example(["estimate", "--t", "-1"])
    @example(["estimate", "--json", "--t", "1"])
    @example(["kp-check", "--class", "0", "--b", "1", "--root", "-i"])
    @example(["polymers", "--class", "0", "--b", "1", "--root", ""])
    @example(["closed-form", "--t", "+3"])
    @example(["generate", "--k", "3", "--n", "3_0", "--r", "\u0663",
              "--seed", " 3"])
    @example(["xi", "--class", "0", "--b", "1", "--b", "2"])
    @example(["check", "reg", "def"])
    @example(["check", "--t", "1"])
    @example(["--json", "check", "--t", "2", "reg", "-i", ""])
    def test_plain_lines_parse_as_argparse_parses_them(self, argv):
        args = _parse(argv)
        if args is not None:
            assert vars(args) == full_parse(argv)

    def test_specs_use_only_what_the_plain_parser_reads(self):
        used = {key for name in _COMMANDS for _, kwargs in _specs(name)
                for key in kwargs}
        assert used <= {"dest", "type", "required", "choices", "default",
                        "help"}

    @pytest.mark.parametrize("name", list(_COMMANDS))
    def test_full_line_takes_the_plain_path(self, name):
        # every argument once, each flag by its last name (-i for --input):
        # a spec _parse cannot read fails here, not in argparse's hands
        argv = ["--json", name]
        for flags, kwargs in _specs(name):
            value = str(kwargs.get("choices", (1,))[0])
            argv += [flags[-1], value] if flags[0].startswith("-") else [value]
        args = _parse(argv)
        assert args is not None
        assert vars(args) == full_parse(argv)

    @pytest.mark.parametrize("name", list(_COMMANDS))
    def test_every_command_dispatches_to_its_handler(self, monkeypatch, name):
        # main loads the instance once, for exactly the commands that read
        # --input, and hands it to the handler
        handler, needs_input, specs = _COMMANDS[name]
        assert handler.__name__ == "_cmd_" + name.replace("-", "_")
        instance = object()
        sources, calls = [], []

        def load(source):
            sources.append(source)
            return instance

        def record(args, G):
            calls.append((args.command, G))
            return None, {}, {}, []

        monkeypatch.setattr(formats, "load", load)
        monkeypatch.setitem(_COMMANDS, name, (record, needs_input, specs))
        assert main(minimal_argv(name)) == 0
        assert sources == (["-"] if needs_input else [])
        assert calls == [(name, instance if needs_input else None)]


class TestDeterminism:
    def test_repeat_runs_identical(self, capsys, tmp_path):
        from hypercount import gen_linear_regular, serialize_text
        path = tmp_path / "inst.hg"
        path.write_text(serialize_text(gen_linear_regular(3, 4, 2, seed=1)))
        outs = []
        for _ in range(2):
            code, out, _ = run_cli(capsys, "compare", "-i", str(path),
                                   "--t", "2")
            assert code == 0
            outs.append(stable(out))
        assert outs[0] == outs[1]

    def test_json_deterministic(self, capsys, single_path):
        outs = []
        for _ in range(2):
            code, out, _ = run_cli(capsys, "--json", "estimate",
                                   "-i", single_path, "--t", "2")
            assert code == 0
            payload = json.loads(out)
            del payload["timings"]
            outs.append(json.dumps(payload, sort_keys=True))
        assert outs[0] == outs[1]


# instances for the closed-form gate -> whether the size-1 and the size-2
# closed form hold on them
GATE_INSTANCES = {
    "irregular": ("k=3 sizes=2,1,1\ne 0:0 1:0 2:0\n", (False, False)),
    "unequal": ("k=3 sizes=1,2,2\n", (False, False)),
    # 2-regular with equal class sizes, but two edges share two vertices
    "nonlinear": ("k=3 sizes=2,2,2\ne 0:0 1:0 2:0\ne 0:0 1:0 2:1\n"
                  "e 0:1 1:1 2:0\ne 0:1 1:1 2:1\n", (False, False)),
    "loose-4-cycle": (serialize_text(gen_linear_regular(3, 4, 2, seed=1)),
                      (True, False)),
    "edgeless": ("k=3 sizes=2,2,2\n", (False, False)),
    "girth-5": (serialize_text(gen_linear_regular(3, 6, 2, seed=7,
                                                  min_girth=5)),
                (True, True)),
    "matching": (serialize_text(matching(3, 50)), (True, True)),
}


class TestClosedFormGate:
    """compare reports exactly the closed forms that closed-form answers
    on the same instance, with the same values."""

    @pytest.mark.parametrize("name", sorted(GATE_INSTANCES))
    def test_compare_reports_what_closed_form_answers(self, capsys, tmp_path,
                                                      name):
        text, expected = GATE_INSTANCES[name]
        path = tmp_path / "inst.hg"
        path.write_text(text)

        def fields(*argv):
            code, out, _ = run_cli(capsys, *argv, "-i", str(path))
            return code, kv(out)

        (code1, t1), (code2, t2) = (fields("closed-form", "--t", t)
                                    for t in ("1", "2"))
        assert (code1 == 0, code2 == 0) == expected
        _, compared = fields("compare", "--t", "2")
        assert ("closed_form_t1_log" in compared) == (code1 == 0)
        assert ("closed_form_t2_printed_log" in compared) == (code2 == 0)
        if code1 == 0:
            assert compared["closed_form_t1_log"] == t1["log_value"]
        if code2 == 0:
            assert compared["closed_form_t2_printed_log"] == (
                t2["printed_log_value"])
            assert compared["closed_form_t2_corrected_log"] == (
                t2["corrected_log_value"])
            assert compared["closed_form_t2_delta"] == t2["delta"]
        _, compared = fields("compare", "--t", "1")
        assert ("closed_form_t1_log" in compared) == (code1 == 0)
        assert not any(key.startswith("closed_form_t2_") for key in compared)


# each kind of command the benchmark workloads run, with its arguments past
# the input (None: a generate command, which reads no input)
WORKLOAD_COMMANDS = [
    ("generate", "--k", "3", "--n", "9", "--r", "2", "--seed", "1"),
    ("generate", "--k", "3", "--n", "9", "--r", "2", "--seed", "0",
     "--min-girth", "5"),
    ("exact-count",),
    ("compare", "--t", "1"),
    ("compare", "--t", "2"),
    ("estimate", "--t", "2"),
    ("log-xi-trunc", "--class", "1", "--t", "3"),
    ("xi", "--class", "2", "--b", "2"),
    ("kp-check", "--class", "0", "--b", "2"),
]


class TestVertexView:
    """The hot paths run on the instance's ids: G.edges, the Vertex tuples,
    is built only for printers, --root and the tests."""

    @pytest.mark.parametrize("argv", WORKLOAD_COMMANDS + [
        WORKLOAD_COMMANDS[1] + ("--out", "inst.hg")], ids=" ".join)
    def test_workload_commands_never_build_the_vertex_view(
            self, capsys, monkeypatch, tmp_path, argv):
        from hypercount import Hypergraph, gen_linear_regular
        path = tmp_path / "girth5.hg"
        path.write_text(serialize_text(gen_linear_regular(3, 9, 2, seed=0,
                                                          min_girth=5)))
        if argv[0] != "generate":
            argv += ("-i", str(path))
        elif "--out" in argv:
            argv = argv[:-1] + (str(tmp_path / argv[-1]),)

        def refuse(G):
            raise AssertionError("G.edges was built")

        monkeypatch.setattr(Hypergraph, "edges", property(refuse))
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, err
        assert out

    def test_generate_serializes_once(self, capsys, monkeypatch, tmp_path):
        # the file and the digest share one canonical text
        from hypercount import formats
        calls = []
        real = formats.canonical_text

        def spy(G):
            calls.append(G)
            return real(G)

        monkeypatch.setattr(formats, "canonical_text", spy)
        dest = tmp_path / "gen.hg"
        for argv in (("--out", str(dest)), ()):
            code, out, _ = run_cli(capsys, "--json", "generate", "--k", "3",
                                   "--n", "5", "--r", "2", "--seed", "3",
                                   *argv)
            assert code == 0
            payload = json.loads(out)
        assert len(calls) == 2
        text = payload["results"]["text"]
        assert dest.read_text() == text
        assert payload["digest"] == digest(loads(text))
