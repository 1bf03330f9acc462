"""Every module of the package uses each name it imports.

No linter ships with the test dependencies, so this check reads each module's
syntax tree: a name bound by an import must appear somewhere as a name.
"""

import ast
from pathlib import Path

import pytest

import wallman_lab

MODULES = sorted(Path(wallman_lab.__file__).parent.glob("*.py"))


def unused_imports(source):
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names if alias.name != "*")
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_checker_finds_unused_names():
    source = "import os\nimport a.b\nfrom x import y as z, w\n\ndef f():\n    from q import r\n    return w\n"
    assert unused_imports(source) == ["a", "os", "r", "z"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
