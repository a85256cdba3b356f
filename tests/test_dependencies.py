"""Every module the package and its tests import is the standard library's,
the project's own, or declared in pyproject.toml, so an installed but
undeclared package cannot pass here and fail on a clean install."""
import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
OWN = {"suslovkit", "conftest"}


def _declared() -> set[str]:
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    specs = project["dependencies"] + project["optional-dependencies"]["test"]
    return {re.match(r"[A-Za-z0-9_.-]+", s).group().lower().replace("-", "_") for s in specs}


def test_every_import_is_stdlib_own_or_declared():
    allowed = set(sys.stdlib_module_names) | OWN | _declared()
    undeclared = []
    for path in sorted([*(ROOT / "src").rglob("*.py"), *(ROOT / "tests").rglob("*.py")]):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            undeclared += [f"{path.relative_to(ROOT)}:{node.lineno} {name}"
                           for name in names if name.partition(".")[0] not in allowed]
    assert not undeclared, f"imports neither stdlib, own nor declared: {undeclared}"
