"""Every top-level import in the package and the tests is used.

Each module under `src/crtfft` and `tests/` is parsed with `ast`; a name that
a top-level `import` binds must be read somewhere in the module.  Package
`__init__.py` files are skipped (their imports are re-exports), and so is an
import statement carrying `# noqa: F401`.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    path
    for folder in (ROOT / "src" / "crtfft", ROOT / "tests")
    for path in folder.rglob("*.py")
    if path.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    """Names bound by top-level imports of `source` that it never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    bound: dict[str, int] = {}
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
            continue
        for alias in node.names:
            bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in bound.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_top_level_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize(
    "source, unused",
    [
        ("import os\n", ["line 1: os"]),
        ("import os.path\nos.sep\n", []),
        ("from a import b as c\nb = 1\n", ["line 1: c"]),
        ("from a import b  # noqa: F401\n", []),
        ("from __future__ import annotations\n", []),
        ("import numpy as np\ndef f(x: np.ndarray): pass\n", []),
    ],
)
def test_checker_flags_only_unread_names(source, unused):
    assert unused_imports(source) == unused
