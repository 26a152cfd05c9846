"""Every public name is used by the package itself, not only by the tests."""

import ast
from pathlib import Path

import tfpainleve

# decay_check computes criterion 10's certificates, which no CLI command writes
_TEST_ONLY = {"decay_check"}


def _loaded_names():
    names = set()
    for path in Path(tfpainleve.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
    return names


def test_every_public_name_is_used_inside_the_package():
    loaded = _loaded_names()
    unused = sorted(set(tfpainleve.__all__) - loaded - _TEST_ONLY)
    assert unused == [], f"public names no package module uses: {unused}"
    assert _TEST_ONLY <= set(tfpainleve.__all__)
