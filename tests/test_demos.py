"""The demos import only names the package still has.

Each demo is parsed, not run (all five together take seconds), so an API
deletion that would break a demo fails here instead.
"""

import ast
import importlib.util
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).parent.parent / "demos").glob("*.py"))


def twopoint_imports(path):
    """(module, name or None) for every import of twopoint in a source file."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            if node.module.split(".")[0] == "twopoint":
                yield from ((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "twopoint":
                    yield alias.name, None


def test_demos_are_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_imports_resolve(path):
    imports = list(twopoint_imports(path))
    assert imports, f"{path.name} imports nothing from twopoint"
    for module_name, name in imports:
        module = importlib.import_module(module_name)
        if name is not None:
            found = (hasattr(module, name)
                     or importlib.util.find_spec(f"{module_name}.{name}") is not None)
            assert found, f"{path.name}: {name} is not in {module_name}"
