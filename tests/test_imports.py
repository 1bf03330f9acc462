"""Every module of the package, every test module and every script uses each
name it imports and imports inside a function only from modules it does not
import at top level, every private module-level function or class of the
package is referenced somewhere in the package, every attribute a
package class sets on `self` is read somewhere, and no module of the package
and no script holds an `assert` statement, which `python -O` strips, or
raises `AssertionError` for a failed self-check.

No linter ships with the test dependencies, so these checks read each
module's syntax tree: a name bound by an import must appear somewhere as a
name, an import inside a function must import from a module that no
top-level import names, a private helper must appear as a name, an
attribute or an import outside its own definition, and a name assigned as
`self.<name>` in a package class must be read as `.<name>` in the package,
the tests or the scripts.
"""

import ast
from pathlib import Path

import pytest

import wallman_lab

MODULES = sorted(Path(wallman_lab.__file__).parent.glob("*.py"))
ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted(ROOT.glob("scripts/*.py"))
TESTS_AND_SCRIPTS = sorted(ROOT.glob("tests/*.py")) + SCRIPTS
EVERY_FILE = pytest.mark.parametrize(
    "path",
    MODULES + TESTS_AND_SCRIPTS,
    ids=lambda p: p.name if p in MODULES else f"{p.parent.name}/{p.name}",
)


def _imported_names(tree):
    """The names that the imports anywhere in a syntax tree bind."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names if alias.name != "*")
    return imported


def unused_imports(source):
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(_imported_names(tree) - used)


def test_checker_finds_unused_names():
    source = "import os\nimport a.b\nfrom x import y as z, w\n\ndef f():\n    from q import r\n    return w\n"
    assert unused_imports(source) == ["a", "os", "r", "z"]


@EVERY_FILE
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def _imported_modules(node):
    """The modules an import statement imports from, relative ones with their dots."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom):
        return ["." * node.level + (node.module or "")]
    return []


def repeated_lazy_imports(source):
    """Line numbers of the imports inside a function from a module that the
    file already imports at top level: such an import breaks no cycle and
    defers no start-up cost."""
    tree = ast.parse(source)
    top = {module for stmt in tree.body for module in _imported_modules(stmt)}
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            lines.update(inner.lineno for inner in ast.walk(node) if top.intersection(_imported_modules(inner)))
    return sorted(lines)


def test_checker_finds_repeated_lazy_imports():
    source = (
        "import os\nfrom .a import b\nfrom p import q\n\n"
        "def f():\n    import os.path\n    from .a import c\n    from .d import e\n\n"
        "    def g():\n        from p import r\n        import sys\n"
    )
    assert repeated_lazy_imports(source) == [7, 11]


@EVERY_FILE
def test_no_function_level_import_from_a_module_imported_at_top_level(path):
    assert repeated_lazy_imports(path.read_text()) == []


def _defined_names(stmt):
    """The names a top-level statement binds by def, class or assignment."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, ast.AnnAssign):
        targets = [stmt.target]
    else:
        return []
    return [node.id for target in targets for node in ast.walk(target) if isinstance(node, ast.Name)]


def orphaned_helpers(sources):
    """Private top-level names (functions, classes and assigned names) of
    `sources` (module name to source text) that nothing references outside
    their own definition."""
    private = {}
    uses = []  # (referenced name, module, top-level statement it occurs in)
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            for name in _defined_names(stmt):
                if name.startswith("_") and not name.startswith("__"):
                    private[(module, name)] = stmt
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    uses.append((node.id, module, stmt))
                elif isinstance(node, ast.Attribute):
                    uses.append((node.attr, module, stmt))
                elif isinstance(node, ast.ImportFrom):
                    uses.extend((alias.name, module, stmt) for alias in node.names)
    used = {name for name, module, stmt in uses if private.get((module, name)) is not stmt}
    return sorted(f"{module}.{name}" for module, name in private if name not in used)


def test_orphan_checker_finds_unreferenced_helpers():
    sources = {
        "a": "def _used():\n    pass\n\ndef _recursive(n):\n    return _recursive(n - 1)\n\nclass _Gone:\n    pass\n",
        "b": "from .a import _used\n\ndef _by_attribute():\n    pass\n\nx = a._by_attribute\n",
        "c": "_KEPT = 1\n_LOST: int = 2\n_SELF = [_SELF]\n__version__ = '1'\n\ndef f():\n    return _KEPT\n",
    }
    assert orphaned_helpers(sources) == ["a._Gone", "a._recursive", "c._LOST", "c._SELF"]


def test_no_orphaned_private_helpers():
    assert orphaned_helpers({path.stem: path.read_text() for path in MODULES}) == []


def _attribute_reads(source):
    """The names a source reads as `.<name>`, except on a name it imports:
    `st.text` reads a module's function, not an instance's attribute."""
    tree = ast.parse(source)
    imported = _imported_names(tree)
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.ctx, ast.Load)
        and not (isinstance(node.value, ast.Name) and node.value.id in imported)
    }


def unread_attributes(package, readers):
    """The attributes, as "Class.name", that a class in the `package` sources
    assigns as `self.<name>` and that no source in `readers` reads as
    `.<name>`, on a name it does not import."""
    assigned = set()
    for source in package:
        for cls in ast.walk(ast.parse(source)):
            if isinstance(cls, ast.ClassDef):
                assigned.update(
                    (cls.name, node.attr)
                    for node in ast.walk(cls)
                    if isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Store)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "self"
                )
    read = set().union(*map(_attribute_reads, readers))
    return sorted(f"{cls}.{name}" for cls, name in assigned if name not in read)


def test_attribute_checker_finds_unread_attributes():
    package = [
        "class A:\n    def __init__(self, x):\n        self.kept, self.lost = x, x\n        self.count = 0\n"
        "        self.shown = x\n\n    def tick(self):\n        self.count += 1\n        return self.kept\n",
        "class B:\n    pass\n\ndef f(b):\n    b.other = 1\n",
    ]
    readers = package + ["import st\n\ndef g(a):\n    return a.shown, st.lost\n"]
    assert unread_attributes(package, readers) == ["A.count", "A.lost"]


def test_no_unread_instance_attributes():
    readers = [path.read_text() for path in MODULES + TESTS_AND_SCRIPTS]
    assert unread_attributes([path.read_text() for path in MODULES], readers) == []


def _is_assertion(node):
    """An `assert` statement or a `raise AssertionError`."""
    if isinstance(node, ast.Raise) and node.exc is not None:
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        return isinstance(exc, ast.Name) and exc.id == "AssertionError"
    return isinstance(node, ast.Assert)


def assert_statements(source):
    """Line numbers of the `assert` statements and the `raise AssertionError`s
    in a source, ascending: a failed self-check raises `PostconditionFailed`."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source)) if _is_assertion(node))


def test_assert_checker_finds_assert_statements():
    source = "def f(x):\n    assert x, 'x'\n    if x:\n        assert not x\n    return AssertionError\n"
    assert assert_statements(source) == [2, 4]


def test_assert_checker_finds_raised_assertion_errors():
    source = (
        "def f(x):\n    if x:\n        raise AssertionError('x')\n"
        "    raise AssertionError\n    raise ValueError\n    raise\n"
    )
    assert assert_statements(source) == [3, 4]


@pytest.mark.parametrize("path", MODULES + SCRIPTS, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_assert_statements_in_the_package_or_the_scripts(path):
    # a self-check must not vanish under python -O: raise, or report and exit 1
    assert assert_statements(path.read_text()) == []
