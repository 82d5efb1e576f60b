"""Package layout: modules talk to each other through public names only,
read nothing from the environment, run without numpy, load mpmath and json
only with the commands that use them, and argparse only for help and usage
errors."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hypercount import gen_linear_regular, hypergraph, serialize_text
from hypercount.cli import main

from oracles import serialize_json

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "hypercount"
TRACING = PACKAGE.parents[1] / "bench" / "tracing.py"

# modules a command loads only when it uses them
LAZY = ("numpy", "mpmath", "json", "argparse")
# ... and the modules no part of the package needs at run time (the
# records are NamedTuples, not dataclasses)
NOT_AT_IMPORT = LAZY + ("dataclasses", "inspect")

# blocks numpy from import, runs the CLI on argv, then prints the lazily
# loaded modules it loaded, also when argparse exits on a usage error
CHILD = ("import sys\n"
         "sys.modules['numpy'] = None\n"
         "from hypercount.cli import main\n"
         "try:\n"
         "    code = main(sys.argv[1:])\n"
         "finally:\n"
         f"    print('loaded=' + ','.join(m for m in {LAZY!r} "
         "if sys.modules.get(m) is not None))\n"
         "sys.exit(code)\n")


def fresh_python(*args):
    """Run a fresh interpreter that imports hypercount from this checkout."""
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent),
                                         os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=path))


def test_no_private_imports_across_modules():
    paths = sorted(PACKAGE.glob("*.py"))
    assert paths, f"no modules under {PACKAGE}"
    offenders = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            package = node.level > 0 or node.module.startswith("hypercount")
            offenders += [f"{path.name}: {alias.name}" for alias in node.names
                          if package and alias.name.startswith("_")]
    assert offenders == []


def test_no_module_reads_the_environment():
    # every budget is a module constant: no variable changes what a
    # command computes
    reads = {"environ", "environb", "getenv", "getenvb"}
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr in reads
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "os"):
                offenders.append(f"{path.name}:{node.lineno} os.{node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                offenders += [f"{path.name}:{node.lineno} {alias.name}"
                              for alias in node.names if alias.name in reads]
    assert offenders == []


def test_every_traced_binding_resolves():
    # the benchmark's tracer rebinds each (module, attribute) of its SPANS
    # through owner.__dict__, so a traced name that leaves the package must
    # fail here, not only in a traced benchmark run
    tree = ast.parse(TRACING.read_text(encoding="utf-8"), filename=str(TRACING))
    [spans] = [node.value for node in tree.body
               if isinstance(node, ast.Assign)
               and [t.id for t in node.targets] == ["SPANS"]]
    bindings = [b for value in spans.values
                for b in ast.literal_eval(value.elts[0])]
    assert len(bindings) >= len(spans.values) > 0
    missing = []
    for owner_name, attr in bindings:
        owner = (hypergraph.Hypergraph if owner_name == "Hypergraph" else
                 importlib.import_module(f"hypercount.{owner_name}"))
        if attr not in owner.__dict__:
            missing.append(f"{owner_name}.{attr}")
    assert missing == []


def test_import_loads_only_what_every_command_needs():
    child = fresh_python("-c", "import sys, hypercount.cli, hypercount; "
                         f"print([m for m in {NOT_AT_IMPORT!r} "
                         "if m in sys.modules])")
    assert child.returncode == 0, child.stderr
    assert child.stdout == "[]\n"


def untimed(out: str) -> list:
    """The lines of a command's output less its timing, which differs from
    run to run: the last text line, or the JSON line's "timings"."""
    *lines, last = out.splitlines()
    if last.startswith("elapsed="):
        return lines
    payload = json.loads(last)
    assert set(payload.pop("timings")) == {"elapsed_s"}
    return [*lines, payload]


@pytest.mark.parametrize("argv, fmt, loaded", [
    pytest.param(("defect-count", "--class", "0", "--b", "1"), "text", "",
                 id="defect-count"),
    pytest.param(("check", "def", "--b", "1"), "text", "", id="check-def"),
    pytest.param(("kp-check", "--class", "0", "--b", "2"), "text", "mpmath",
                 id="kp-check"),
    pytest.param(("--json", "estimate", "--t", "1"), "text", "json",
                 id="json-output"),
    pytest.param(("exact-count",), "json", "json", id="json-input"),
])
def test_commands_load_what_they_use_from_a_cold_start(capsys, tmp_path,
                                                       argv, fmt, loaded):
    # a fresh process that cannot import numpy prints what the command
    # prints in this one, and loads only the modules the command uses
    G = gen_linear_regular(3, 4, 2, seed=1)
    path = tmp_path / f"inst.{fmt}"
    path.write_text(serialize_json(G) if fmt == "json" else serialize_text(G))
    argv = (*argv, "-i", str(path))
    assert main(list(argv)) == 0
    warm = capsys.readouterr().out
    child = fresh_python("-c", CHILD, *argv)
    assert child.returncode == 0, child.stderr
    cold, _, modules = child.stdout.rstrip("\n").rpartition("\n")
    assert modules == f"loaded={loaded}"
    assert untimed(cold) == untimed(warm)


def test_usage_error_loads_argparse_from_a_cold_start(tmp_path):
    path = tmp_path / "inst.hg"
    path.write_text(serialize_text(gen_linear_regular(3, 4, 2, seed=1)))
    child = fresh_python("-c", CHILD, "estimate", "--t", "x", "-i", str(path))
    assert child.returncode == 2
    assert child.stdout == "loaded=argparse\n"
    assert child.stderr.startswith("usage: hypercount estimate")
