"""Every public name is used by the package itself, not only by tests."""

import ast
from pathlib import Path

import slpgram

PACKAGE = Path(slpgram.__file__).resolve().parent


def referenced_names() -> set[str]:
    """Names read anywhere in the package's modules other than
    ``__init__.py``, leaving out each top-level definition's reads of its
    own name."""
    names = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for statement in ast.parse(path.read_text(), str(path)).body:
            found = {node.id for node in ast.walk(statement) if isinstance(node, ast.Name)}
            found |= {node.attr for node in ast.walk(statement) if isinstance(node, ast.Attribute)}
            if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
                found.discard(statement.name)
            names |= found
    return names


def test_every_public_name_is_used_by_the_package():
    assert sorted(set(slpgram.__all__) - referenced_names()) == []
