import ast
from pathlib import Path

import prismvol


def test_no_assert_in_package():
    """``python -O`` strips asserts, so the package states its checks as
    raised errors and leaves self-checks of proved facts to the tests."""
    package = Path(prismvol.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_orbifolds_imports_nothing_from_seifert():
    """``seifert`` builds on ``orbifolds``; the reverse import would be a cycle."""
    tree = ast.parse((Path(prismvol.__file__).parent / "orbifolds.py").read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported += [node.module or ""] + [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
    assert [name for name in imported if "seifert" in name] == []
