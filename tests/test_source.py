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
