import ast
import importlib
import inspect
from pathlib import Path

import pytest

import prismvol


def _package_nodes():
    """(file name, node) for every syntax node of the package's modules."""
    for path in sorted(Path(prismvol.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            yield path.name, node


def test_no_assert_in_package():
    """``python -O`` strips asserts, so the package states its checks as
    raised errors and leaves self-checks of proved facts to the tests."""
    found = [
        f"{name}:{node.lineno}" for name, node in _package_nodes() if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_package_reads_no_environment_variable():
    """Every setting of a command is an argument on its command line: no
    module reads ``os.environ`` or ``os.getenv``."""
    names = {"environ", "environb", "getenv", "getenvb"}
    found = [
        f"{name}:{node.lineno}"
        for name, node in _package_nodes()
        if (isinstance(node, ast.Attribute) and node.attr in names)
        or (isinstance(node, ast.Name) and node.id in names)
        or (isinstance(node, ast.alias) and node.name in names)
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


def test_covers_imports_nothing_from_seifert_or_montesinos():
    """The audit rows are in closed form in mu = |4n - 1|: ``covers`` builds
    them without a Seifert symbol or a Montesinos link."""
    tree = ast.parse((Path(prismvol.__file__).parent / "covers.py").read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported += [node.module or ""] + [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
    assert [name for name in imported if "seifert" in name or "montesinos" in name] == []


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


def test_stdlib_is_the_one_json_writer():
    """Every JSON document is written by ``json.dumps``: no module imports
    from ``json.encoder``, and the only indent passed is ``indent=2``, in
    ``cli``."""
    imported = [
        f"{name}:{node.lineno}"
        for name, node in _package_nodes()
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
        if ".".join(filter(None, [getattr(node, "module", None), alias.name])).startswith(
            "json.encoder"
        )
    ]
    indents = {
        (name, ast.unparse(keyword.value))
        for name, node in _package_nodes()
        if isinstance(node, ast.Call)
        for keyword in node.keywords
        if keyword.arg == "indent"
    }
    assert imported == []
    assert indents == {("cli.py", "2")}


def test_all_is_what_the_package_imports():
    """``__all__`` is the names of ``__init__``'s layer table, once each; each
    resolves to its layer's own object, and the test oracles that stay in
    their modules are left out."""
    table = [(name, layer) for layer, names in prismvol._PUBLIC.items() for name in names]
    assert len(prismvol.__all__) == len(set(prismvol.__all__)) == len(table)
    assert set(prismvol.__all__) == {name for name, _ in table}
    for name, layer in table:
        assert getattr(prismvol, name) is getattr(importlib.import_module(f"prismvol.{layer}"), name)
    assert {"smith_normal_form", "remove_fiber"}.isdisjoint(prismvol.__all__)
    assert set(prismvol.__all__) <= set(dir(prismvol))


@pytest.mark.parametrize(
    "layer, name",
    [
        ("orbifolds", "orbifold_from_json"),
        ("slopes", "slope_from_json"),
        ("braids", "exponent_sum"),
        ("covers", "prism_rows"),
        ("covers", "ROW_LEAVES"),
        ("orbifolds", "orientation_double_cover"),
        ("reader", "require_int"),
        ("reader", "read"),
        ("covers", "_SLOPE_DEMO_PAIRS"),
        ("orbifolds", "_disk_case"),
        ("covers", "_partitions"),
        ("covers", "_conjugacy_classes"),
        ("covers", "_fixes_every_point"),
        ("covers", "_invert"),
        ("covers", "_is_transitive"),
        ("cli", "_indented"),
        ("orbifolds", "disk_cases"),
        ("covers", "MAX_ENUMERATION"),
        ("orbifolds", "_prism_mu"),
    ],
)
def test_removed_helpers_are_gone(layer, name):
    """Removed helpers are in neither the package nor their layer: some only
    tests called, and the tuple enumeration's went with it."""
    assert name not in prismvol.__all__
    assert not hasattr(prismvol, name)
    assert not hasattr(importlib.import_module(f"prismvol.{layer}"), name)


def test_reader_defines_only_its_one_rule():
    """``check`` is the one rule for the shape of an input; beside it the
    reader defines only ``loads`` and the ``Record`` base."""
    tree = ast.parse(Path(prismvol.__file__).with_name("reader.py").read_text())
    names = {node.name for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    names |= {
        target.id
        for node in tree.body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name)
    }
    assert {name for name in names if not name.startswith("_")} == {"check", "loads", "Record"}


def test_no_constructor_coerces_a_field_to_a_tuple():
    """``tuple(self.<field>)`` iterates a dict's keys or drains a generator;
    constructors read array fields with ``reader.check``, which refuses
    anything but a list or a tuple."""
    found = [
        f"{name}:{node.lineno}"
        for name, node in _package_nodes()
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "tuple"
        and node.args
        and isinstance(node.args[0], ast.Attribute)
        and isinstance(node.args[0].value, ast.Name)
        and node.args[0].value.id == "self"
    ]
    assert found == []


def test_only_the_reader_tests_for_an_array_type():
    """``reader.check`` is the one rule for arrays: no other module compares
    ``type(...)`` with ``list`` or ``tuple``."""
    found = [
        f"{name}:{node.lineno}"
        for name, node in _package_nodes()
        if name != "reader.py"
        and isinstance(node, ast.Compare)
        and any(
            isinstance(side, ast.Call) and isinstance(side.func, ast.Name) and side.func.id == "type"
            for side in [node.left, *node.comparators]
        )
        and any(
            isinstance(leaf, ast.Name) and leaf.id in ("list", "tuple")
            for side in [node.left, *node.comparators]
            for leaf in ast.walk(side)
        )
    ]
    assert found == []


def test_no_module_calls_isinstance():
    """Types are exact: ``isinstance(x, int)`` takes ``True`` for an ``int``."""
    found = [
        f"{name}:{node.lineno}"
        for name, node in _package_nodes()
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "isinstance"
    ]
    assert found == []


def test_no_module_imports_dataclasses():
    """``dataclasses`` imports ``inspect`` and its chain on every cold start;
    the value types derive from ``reader.Record`` instead."""
    found = [
        f"{name}:{node.lineno}"
        for name, node in _package_nodes()
        if (isinstance(node, ast.Import) and any(a.name == "dataclasses" for a in node.names))
        or (isinstance(node, ast.ImportFrom) and node.module == "dataclasses")
    ]
    assert found == []


def test_layers_reach_each_other_through_the_lazy_module():
    """``from .exact import frac_str`` runs ``exact`` when the importing layer
    runs, whether or not the command calls ``frac_str``; ``from . import exact``
    and ``exact.frac_str`` run it at the first call.  ``reader`` is the one
    exception: ``Record`` is a base class, needed when a class is defined."""
    found = []
    for name, node in _package_nodes():
        if isinstance(node, ast.ImportFrom) and node.module:
            module = node.module if node.level else node.module.removeprefix("prismvol.")
            if module in prismvol._PUBLIC and module != "reader":
                found.append(f"{name}:{node.lineno} from {module}")
    assert found == []


def test_no_layer_reads_another_layers_private_names():
    """A layer reaches another only through its public names: ``covers``
    reads ``orbifolds.fixed_cases_report`` and does not rebuild it from
    ``orbifolds._fixed_case`` and the like."""
    found = [
        f"{name}:{node.lineno} {node.value.id}.{node.attr}"
        for name, node in _package_nodes()
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in prismvol._PUBLIC
        and node.value.id != name.removesuffix(".py")
        and node.attr.startswith("_")
    ]
    assert found == []
