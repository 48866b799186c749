"""Every name imported in `src/`, `tests/` and `demos/` is used in its module,
and every public definition in `src/` is read by the program.

Both scans read syntax trees.  A name bound by an import counts as used when it
appears anywhere in the module as a bare name, which covers calls, attribute
roots (`np` in `np.sum`), annotations and decorators.  A public top-level
function or class, or a public method, counts as read when `src/`, `bench/` or
`demos/` names it as a bare name or an attribute, or when a `_Command` entry
names it as its handler; the only exceptions are the named oracles below.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Public definitions no program path reads, kept as independent oracles.
ORACLES = {
    "fidelity": "qcore: |<a|b>| of two built states, the oracle for embezzle._chi_overlap",
    "mismatch_probability": "hvaudit: the literal mismatch sum that pins the perfect-correlation cells",
    "grouped_harmonic_sum": "embezzle: the run-grouped sum that pins interpolated_harmonic",
}


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


def public_definitions(source: str) -> set[str]:
    """Public top-level functions and classes of `source`, and the public
    methods of its top-level classes."""
    names: set[str] = set()
    for node in ast.parse(source).body:
        if isinstance(node, ast.ClassDef):
            names.update(item.name for item in node.body if isinstance(item, ast.FunctionDef))
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
    return {name for name in names if not name.startswith("_")}


def read_names(source: str) -> set[str]:
    """Names `source` reads: bare names, attribute names and the handler
    string each `_Command(...)` entry starts with."""
    names: set[str] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_Command":
            names.add(node.args[0].value)
    return names


def test_definition_scan_flags_only_unread_names():
    source = (
        "class Box:\n    def size(self): ...\n    def _hidden(self): ...\n"
        "    def spare(self): ...\n"
        "def run_go(cfg): ...\ndef helper(): ...\ndef unused(): ...\n"
        "def _private(): ...\n"
        "_C = {'go': _Command('run_go')}\nhelper(Box().size)\n"
    )
    assert sorted(public_definitions(source) - read_names(source)) == ["spare", "unused"]


def test_every_public_definition_has_a_program_reader():
    defined = {
        name: path.name
        for path in sorted((ROOT / "src").rglob("*.py"))
        for name in public_definitions(path.read_text())
    }
    read = set().union(
        *(
            read_names(path.read_text())
            for folder in ("src", "bench", "demos")
            for path in (ROOT / folder).rglob("*.py")
        )
    )
    unread = {name: module for name, module in defined.items() if name not in read}
    assert unread == {name: defined[name] for name in ORACLES}
