import ast
import importlib
import inspect
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


def test_every_traced_target_is_a_function_of_its_module():
    """``perfbench/run.py --trace 1`` wraps each ``tracing.TARGETS`` entry with
    ``getattr``, so a renamed or removed function would break it.  The tuple
    is read from the source, so this imports nothing from ``perfbench``."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    targets = next(
        node.value
        for node in ast.parse(path.read_text()).body
        if isinstance(node, ast.Assign)
        and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["TARGETS"]
    )
    entries = [(ast.literal_eval(e.elts[0]), ast.literal_eval(e.elts[1])) for e in targets.elts]
    assert len(entries) > 10
    missing = [
        f"{layer}.{function}"
        for layer, function in entries
        if not inspect.isfunction(
            getattr(importlib.import_module(f"prismvol.{layer}"), function, None)
        )
    ]
    assert missing == []
