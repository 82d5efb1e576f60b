"""Package layout: modules talk to each other through public names only."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "hypercount"


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
