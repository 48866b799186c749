"""Every name imported in `src/`, `tests/` and `demos/` is used in its module.

The scan reads each module's syntax tree: a name bound by an import counts as
used when it appears anywhere in the module as a bare name, which covers calls,
attribute roots (`np` in `np.sum`), annotations and decorators.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def unused_imports(source: str) -> list[str]:
    """Names bound by the imports of `source` that it never reads."""
    tree = ast.parse(source)
    imported: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_scan_flags_only_unread_names():
    source = "import os.path\nimport numpy as np\nfrom math import pi, tau\nnp.sum(pi)\n"
    assert unused_imports(source) == ["os", "tau"]


def test_no_unused_imports():
    offenders = {
        str(path.relative_to(ROOT)): names
        for folder in ("src", "tests", "demos")
        for path in sorted((ROOT / folder).rglob("*.py"))
        if (names := unused_imports(path.read_text()))
    }
    assert offenders == {}
