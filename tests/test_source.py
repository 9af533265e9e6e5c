import ast
import importlib
import inspect
from pathlib import Path

import pytest

import prismvol
from prismvol import cli


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


def _imported(module: str) -> list[str]:
    """Every module and name that the package module ``module`` imports."""
    tree = ast.parse((Path(prismvol.__file__).parent / f"{module}.py").read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported += [node.module or ""] + [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
    return imported


def test_orbifolds_imports_nothing_from_seifert():
    """``seifert`` builds on ``orbifolds``; the reverse import would be a cycle."""
    assert [name for name in _imported("orbifolds") if "seifert" in name] == []


def test_covers_imports_nothing_from_seifert_or_montesinos():
    """The audit rows are in closed form in mu = |4n - 1|: ``audit`` builds
    them, and ``covers`` puts them together, without a Seifert symbol or a
    Montesinos link."""
    for module in ("audit", "covers"):
        found = [name for name in _imported(module) if "seifert" in name or "montesinos" in name]
        assert found == [], module


def test_audit_and_covers_stay_apart():
    """``covers count`` runs no audit code and ``prism verify`` no low-index
    search: ``audit`` imports nothing from ``covers``, and in ``covers`` only
    ``prism_verify`` names ``audit``."""
    assert [name for name in _imported("audit") if "covers" in name] == []
    tree = ast.parse((Path(prismvol.__file__).parent / "covers.py").read_text())
    verify = next(
        node for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "prism_verify"
    )
    lines = [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Name) and n.id == "audit"]
    assert lines and all(verify.lineno <= line <= verify.end_lineno for line in lines)


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
    ``cli`` and in ``audit``, which writes the audit."""
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
    assert indents == {("audit.py", "2"), ("cli.py", "2")}


def test_cli_reads_no_audit_record():
    """``audit`` is the one module that reads the audit's records and header:
    ``cli.py`` names none of their keys as a string and reaches ``audit`` only
    through its two writers."""
    keys = {
        "status", "reports", "header", "cases", "mu", "reason", "candidate_exceptional",
        "upper_bound", "max_degree", "twist_knot_excluded",
    }
    assert sorted(path.stem for path in Path(cli.__file__).parent.glob("cli*.py")) == ["cli"]
    tree = ast.parse(Path(cli.__file__).read_text())
    found = [
        f"cli:{node.lineno}: {node.value!r}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and node.value in keys
    ]
    called = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "audit"
    }
    assert found == []
    assert called == {"prism_json", "prism_table"}


def _package_imports(module: str) -> list[tuple[str | None, str]]:
    """(module, name) of each relative ``from`` import at the top level of
    the package module ``module``; ``module`` is None for ``from . import``."""
    tree = ast.parse((Path(prismvol.__file__).parent / f"{module}.py").read_text())
    return [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level
        for alias in node.names
    ]


def test_cli_frame_imports_no_layer_and_no_group_module():
    """``cli`` runs no package module when it loads: each package import is
    ``from . import <layer>``, the lazy module whose code runs at the first
    call, and there is no group module left to import."""
    imports = _package_imports("cli")
    assert imports
    assert [(s, n) for s, n in imports if s is not None or n not in prismvol._PUBLIC] == []
    assert sorted(path.stem for path in Path(cli.__file__).parent.glob("cli*.py")) == ["cli"]


def test_group_modules_reach_layers_through_the_lazy_module():
    """The handlers, which the group modules held, reach each layer they call
    through a lazy module ``cli`` imports, so that a layer runs only when a
    handler calls it and ``perfbench`` can wrap its functions; no handler
    imports a module of its own."""
    tree = ast.parse(Path(cli.__file__).read_text())
    lazy = {name for source, name in _package_imports("cli") if source is None}
    handlers = [
        node for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_cmd_")
    ]
    assert len(handlers) == 16
    called = set()
    for handler in handlers:
        nodes = list(ast.walk(handler))
        assert not [n for n in nodes if isinstance(n, (ast.Import, ast.ImportFrom))], handler.name
        called |= {
            n.value.id for n in nodes
            if isinstance(n, ast.Attribute)
            and isinstance(n.value, ast.Name)
            and n.value.id in prismvol._PUBLIC
        }
    assert called
    assert called <= lazy


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
        ("covers", "MAX_NODES"),
        ("orbifolds", "_prism_mu"),
        ("orbifolds", "_fixed_case"),
        ("orbifolds", "_solve_case"),
    ],
)
def test_removed_helpers_are_gone(layer, name):
    """Removed helpers are in neither the package nor their layer: some only
    tests called, and the tuple enumeration's went with it."""
    assert name not in prismvol.__all__
    assert not hasattr(prismvol, name)
    assert not hasattr(importlib.import_module(f"prismvol.{layer}"), name)


def test_no_module_caches_a_result():
    """No function is decorated with ``functools.cache``, ``lru_cache`` or
    ``cached_property``.  This round drops caching, and a cache must show the
    traffic it serves before it comes back."""
    caches = {"cache", "lru_cache", "cached_property"}
    found = [
        f"{name}:{node.lineno} {node.name}"
        for name, node in _package_nodes()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for decorator in node.decorator_list
        for part in ast.walk(decorator)  # a Name's id, an Attribute's attr
        if getattr(part, "id", getattr(part, "attr", None)) in caches
    ]
    assert found == []


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


def test_fractions_is_imported_only_where_rationals_are_public():
    """``fractions`` imports ``decimal`` and ``numbers``.  It is imported only
    in the bodies of the three public points where a rational appears:
    ``orbifolds.chi_orb``, ``seifert.euler_number`` and ``exact.frac_str``.
    The degree equations are solved in integers, so an import at module
    level or in any other function would load it for commands that need none."""
    found = []
    for path in sorted(Path(prismvol.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        for top in tree.body:
            where = top.name if isinstance(top, ast.FunctionDef) else f"line {top.lineno}"
            for node in ast.walk(top):
                if isinstance(node, ast.ImportFrom):
                    names = [node.module or ""]
                elif isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                else:
                    continue
                if "fractions" in [name.split(".")[0] for name in names]:
                    found.append(f"{path.stem}.{where}")
    assert sorted(found) == ["exact.frac_str", "orbifolds.chi_orb", "seifert.euler_number"]


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
    ``orbifolds._case`` and the like."""
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
