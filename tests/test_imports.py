"""Every name imported in `src/`, `tests/` and `demos/` is used in its module,
every public definition in `src/` is read by the program, and every public
definition of the test oracles is read by a test.

Both scans read syntax trees.  A name bound by an import counts as used when it
appears anywhere in the module as a bare name, which covers calls, attribute
roots (`np` in `np.sum`), annotations and decorators.  A public top-level
function or class counts as read when `src/`, `bench/` or `demos/` loads it as
a bare name that no enclosing function, lambda or comprehension rebinds, reads
it as an attribute of a name bound to a `parind_lab` module, or names it as a
`_Command` handler; a public method also counts as read by any attribute read.
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


def public_definitions(source: str) -> tuple[set[str], set[str]]:
    """Public top-level functions and classes of `source`, and the public
    methods of its top-level classes."""
    top: set[str] = set()
    methods: set[str] = set()
    for node in ast.parse(source).body:
        if isinstance(node, ast.ClassDef):
            methods.update(item.name for item in node.body if isinstance(item, ast.FunctionDef))
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            top.add(node.name)
    top, methods = ({name for name in names if not name.startswith("_")} for names in (top, methods))
    return top, methods


SCOPES = (
    ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda,
    ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp,
)


def local_names(scope: ast.AST) -> set[str]:
    """Names a function, lambda or comprehension binds for itself: its
    parameters and every name its own body stores, defines or imports, less
    those it declares `global` or `nonlocal`."""
    bound: set[str] = set()
    free: set[str] = set()
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        if isinstance(node, ast.arg):
            bound.add(node.arg)
        elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            bound.add(node.id)
        elif isinstance(node, ast.alias):
            bound.add(node.asname or node.name.split(".")[0])
        elif isinstance(node, ast.ExceptHandler) and node.name:
            bound.add(node.name)
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            free.update(node.names)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        if not isinstance(node, (*SCOPES, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))
    return bound - free


def package_modules(tree: ast.AST) -> set[str]:
    """Names an import binds to a `parind_lab` module: `from . import x as y`,
    `from parind_lab import x` and `import parind_lab.x as y`."""
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
            (node.level and node.module is None) or node.module == "parind_lab"
        ):
            names.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            names.update(
                alias.asname for alias in node.names
                if alias.asname and alias.name.startswith("parind_lab.")
            )
    return names


def read_names(source: str) -> tuple[set[str], set[str]]:
    """What `source` reads: the names it reads as module-level definitions,
    and every attribute name it reads.

    A definition is read by a bare-name load that no enclosing function,
    lambda or comprehension rebinds, by an attribute of an unshadowed name
    bound to a `parind_lab` module, or as the handler string a `_Command(...)`
    entry starts with."""
    tree = ast.parse(source)
    modules = package_modules(tree)
    definitions: set[str] = set()
    attributes: set[str] = set()

    def visit(node: ast.AST, bound: frozenset[str]) -> None:
        if isinstance(node, ast.Name):
            if isinstance(node.ctx, ast.Load) and node.id not in bound:
                definitions.add(node.id)
            return
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            attributes.add(node.attr)
            root = node.value
            if isinstance(root, ast.Name) and root.id in modules and root.id not in bound:
                definitions.add(node.attr)
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_Command":
            definitions.add(node.args[0].value)
        if isinstance(node, SCOPES):
            bound = bound | local_names(node)
        for child in ast.iter_child_nodes(node):
            visit(child, bound)

    visit(tree, frozenset())
    return definitions, attributes


def unread_definitions(source: str, reads: tuple[set[str], set[str]]) -> set[str]:
    """Public definitions of `source` that `reads` (a `read_names` result)
    does not read; a method also counts as read by any attribute read."""
    top, methods = public_definitions(source)
    definitions, attributes = reads
    return (top - definitions) | (methods - definitions - attributes)


def test_definition_scan_flags_only_unread_names():
    source = (
        "from . import embezzle as ez\n"
        "class Box:\n    def size(self): ...\n    def _hidden(self): ...\n"
        "    def spare(self): ...\n"
        "class Report:\n    x: float\n"
        "def x(): ...\n"
        "def run_go(cfg): ...\ndef helper(): ...\ndef unused(): ...\n"
        "def shadowed(): ...\ndef local(): ...\ndef remote(): ...\n"
        "def _private(): ...\n"
        "def user(shadowed, report: Report):\n"
        "    local = ez.remote()\n"
        "    return shadowed(report.x, local)\n"
        "_C = {'go': _Command('run_go')}\nhelper(Box().size, user)\n"
    )
    assert sorted(unread_definitions(source, read_names(source))) == [
        "local", "shadowed", "spare", "unused", "x",
    ]


def reads_of(paths) -> tuple[set[str], set[str]]:
    """The union of the `read_names` results of the files at `paths`."""
    reads = [read_names(path.read_text()) for path in paths]
    return set().union(*(r[0] for r in reads)), set().union(*(r[1] for r in reads))


def test_every_public_definition_has_a_program_reader():
    read = reads_of(
        path for folder in ("src", "bench", "demos") for path in (ROOT / folder).rglob("*.py")
    )
    unread = {
        name: path.name
        for path in sorted((ROOT / "src").rglob("*.py"))
        for name in unread_definitions(path.read_text(), read)
    }
    assert unread == {}


def test_every_oracle_has_a_test_reader():
    read = reads_of((ROOT / "tests").glob("test_*.py"))
    assert unread_definitions((ROOT / "tests" / "oracles.py").read_text(), read) == set()
