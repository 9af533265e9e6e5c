"""The package registers each layer module without running it: a command
executes only the layers it calls, and ``import prismvol`` executes none."""

import ast
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# stdlib modules whose import a command may not need
_STDLIB = (
    "copy", "dataclasses", "decimal", "fractions", "importlib.resources", "inspect",
    "numbers", "pathlib", "tempfile", "zipfile",
)

# a layer still waiting for its first attribute access is of a ModuleType
# subclass, and becomes a plain ModuleType when its code runs
_REPORT = (
    "import json, sys, types\n"
    "print(json.dumps({'executed': sorted(n for n, m in sys.modules.items()"
    " if n.split('.')[0] == 'prismvol' and type(m) is types.ModuleType),"
    " 'registered': sorted(n for n in sys.modules if n.split('.')[0] == 'prismvol'),"
    f" 'stdlib': sorted(n for n in {_STDLIB!r} if n in sys.modules)}}))\n"
)


def _fresh(code: str) -> str:
    """What ``code`` writes to stdout, run in a fresh interpreter.  ``-S``
    skips ``site``, so a ``.pth`` file's imports cannot hide the code's own."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), *sys.path]))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _modules(code: str) -> dict:
    """Run ``code`` in a fresh interpreter; the ``prismvol`` modules it left."""
    return json.loads(_fresh(code + _REPORT).splitlines()[-1])


def test_import_prismvol_executes_no_layer():
    modules = _modules("import prismvol\n")
    assert modules["executed"] == ["prismvol"]
    layers = [
        "audit", "braids", "covers", "exact", "montesinos", "orbifolds", "reader", "seifert",
        "slopes",
    ]
    assert modules["registered"] == ["prismvol"] + [f"prismvol.{layer}" for layer in layers]


# every command, with the layers it runs: a layer reaches another only through
# the package's lazy module, so a layer runs only when a name of it is used
COMMANDS = [
    (["seifert", "h1", "@m1_oo"], ["exact", "reader", "seifert"]),
    (["covers", "count", "@trefoil", "--degree", "3"], ["covers", "reader"]),
    (["braid", "ttk", "3", "2", "2", "1"], ["braids", "reader"]),
    (
        ["orbifold", "chi", "--orientable", "true", "--genus", "0", "--boundary", "0",
         "--cones", "2,3,5"],
        ["exact", "orbifolds", "reader"],
    ),
    (["prism", "verify", "--from", "-3", "--to", "3", "--json"], ["audit", "orbifolds", "reader"]),
    (["seifert", "normalize", "@m1_oo"], ["reader", "seifert"]),
    (["seifert", "euler", "@m1_on"], ["exact", "reader", "seifert"]),
    (["seifert", "base", "@m1_oo"], ["orbifolds", "reader", "seifert"]),
    (
        ["orbifold", "cover", "--genus", "0", "--boundary", "1", "--degree", "2",
         "--branch", "2", "--branch", "2"],
        ["orbifolds", "reader"],
    ),
    (
        ["orbifold", "solve", "--fiber-genus", "2", "--fiber-boundary", "1",
         "--orientable", "false", "--genus", "1", "--boundary", "1", "--cones", "2"],
        ["orbifolds", "reader"],
    ),
    (["montesinos", "cover", '{"genus": 1, "tangles": [[3, 2]]}'],
     ["montesinos", "reader", "seifert"]),
    (["montesinos", "ln", "-3"], ["montesinos", "reader", "seifert"]),
    (["slopes", "delta", "-2,1", "1,0"], ["reader", "slopes"]),
    (["slopes", "enumerate", "1,0", "0,1"], ["reader", "slopes"]),
    (["braid", "components", '{"strands": 3, "letters": [1, -2]}'], ["braids", "reader"]),
    (["braid", "chi", '{"strands": 3, "letters": [1, 2, 1]}'], ["braids", "reader"]),
    (["prism", "verify", "--from", "-3", "--to", "3"], ["audit", "orbifolds", "reader"]),
]


def test_readme_layer_table_is_the_commands():
    """The README's "command | layers it runs" table lists every command of
    ``COMMANDS`` once, with the layers that command runs."""
    text = (ROOT / "README.md").read_text()
    table = text.split("| command | layers it runs |\n|---|---|\n", 1)[1].split("\n\n", 1)[0]
    documented = [
        (command.strip(" `"), sorted(layer.strip(" `") for layer in layers.split(",")))
        for row in table.splitlines()
        for commands, layers in [row.strip("|").split("|")]
        for command in commands.split(",")
    ]
    expected = {" ".join(argv[:2]): sorted(layers) for argv, layers in COMMANDS}
    assert sorted(documented) == sorted(expected.items())


def _run(argv: list[str]) -> dict:
    """The modules left by ``python -m prismvol argv``, run as ``-m`` runs it."""
    code = (
        "import runpy, sys\n"
        f"sys.argv = ['prismvol', *{argv!r}]\n"
        "try:\n"
        "    runpy.run_module('prismvol', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exit:\n"
        "    assert exit.code == 0, exit.code\n"
    )
    return _modules(code)


@pytest.mark.parametrize("argv, layers", COMMANDS)
def test_a_command_executes_only_the_layers_it_calls(argv, layers):
    """A command runs the command line ``cli`` and the layers it calls: a
    module-level import that pulls in a layer the command does not call fails
    this."""
    executed = _run(argv)["executed"]
    assert executed == sorted(["prismvol", "prismvol.cli"] + [f"prismvol.{m}" for m in layers])


def test_import_cli_executes_no_layer_and_no_group_module():
    """``import prismvol.cli`` and the parser with no group named run no
    layer: the handlers reach the layers through the package's lazy modules,
    and the command line has no module per group."""
    modules = _modules("import prismvol.cli as cli\ncli.build_parser([])\n")
    assert modules["executed"] == ["prismvol", "prismvol.cli"]


@pytest.mark.parametrize("argv", [argv for argv, _ in COMMANDS])
def test_a_command_imports_neither_dataclasses_nor_inspect(argv):
    """``dataclasses`` imports ``inspect``, which imports ``ast``, ``dis`` and
    ``tokenize``: several milliseconds of every cold start.  The value types
    are ``reader.Record``s, so no command needs either; and none needs
    ``copy``."""
    assert {"copy", "dataclasses", "inspect"}.isdisjoint(_run(argv)["stdlib"])


def test_covers_count_imports_no_probed_stdlib_module():
    """``fractions``, which imports ``decimal`` and ``numbers``, comes with
    the code that computes with rationals (``orbifolds.chi_orb``,
    ``seifert.euler_number``); the representation count uses none of it."""
    assert _run(["covers", "count", "@trefoil", "--degree", "3"])["stdlib"] == []


@pytest.mark.parametrize("argv", [argv for argv, _ in COMMANDS])
def test_a_command_imports_no_resource_loader(argv):
    """Fixtures are found next to ``cli.py`` with ``os.path``:
    ``importlib.resources`` would bring ``pathlib``, ``tempfile`` and
    ``zipfile`` into every cold start."""
    assert {"importlib.resources", "pathlib", "tempfile", "zipfile"}.isdisjoint(
        _run(argv)["stdlib"]
    )


# the commands that compute with rationals; ``fractions`` imports ``decimal``
# and ``numbers``
RATIONAL = {"seifert euler", "orbifold chi"}
_RATIONALS = {"decimal", "fractions", "numbers"}


@pytest.mark.parametrize("argv", [argv for argv, _ in COMMANDS])
def test_only_a_command_with_rationals_imports_fractions(argv):
    """``orbifolds.chi_orb``, ``exact.frac_str`` and ``seifert.euler_number``
    import ``fractions`` in their bodies; the degree equations are solved in
    integers, so ``orbifold solve`` and ``prism verify`` load none of the three
    modules, and nor do ``seifert h1``, ``seifert base`` and ``orbifold cover``."""
    loaded = _RATIONALS & set(_run(argv)["stdlib"])
    assert loaded == (_RATIONALS if " ".join(argv[:2]) in RATIONAL else set())


def test_the_audit_and_orbifold_solve_import_no_rationals():
    """The audit over a window that holds n = -1, 0 and 1 solves the five
    cases at n = -1 and 1 and writes the header's fixed cases, and
    ``orbifold solve`` solves one base: in integers, in either format."""
    solve = [
        "orbifold", "solve", "--fiber-genus", "2", "--fiber-boundary", "1",
        "--orientable", "true", "--genus", "0", "--boundary", "1", "--cones", "2,5",
    ]
    for argv in (["prism", "verify", "--from", "-1", "--to", "1"], solve):
        for fmt in ([], ["--json"]):
            assert _RATIONALS.isdisjoint(_run(argv + fmt)["stdlib"]), argv + fmt


def _traced_targets() -> list[tuple[str, str]]:
    """The ``(layer, function)`` pairs of ``perfbench/tracing.py``'s
    ``TARGETS``, read from the source, so that nothing is imported from
    ``perfbench``."""
    path = ROOT / "perfbench" / "tracing.py"
    targets = next(
        node.value
        for node in ast.parse(path.read_text()).body
        if isinstance(node, ast.Assign)
        and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["TARGETS"]
    )
    return [(ast.literal_eval(e.elts[0]), ast.literal_eval(e.elts[1])) for e in targets.elts]


def test_import_cli_registers_every_traced_layer():
    """``perfbench/run.py --trace 1`` reads ``sys.modules["prismvol.<layer>"]``
    for each ``tracing.TARGETS`` layer right after ``import prismvol.cli``."""
    layers = {layer for layer, _ in _traced_targets()}
    assert len(layers) > 5
    registered = _modules("import prismvol.cli\n")["registered"]
    assert [layer for layer in sorted(layers) if f"prismvol.{layer}" not in registered] == []


def test_import_cli_resolves_every_traced_function():
    """``perfbench/run.py --trace 1`` wraps each ``tracing.TARGETS`` function,
    found as an attribute of its layer; a package that drops one breaks the
    traced run."""
    code = (
        "import sys\n"
        "import prismvol.cli\n"
        f"missing = [(l, f) for l, f in {_traced_targets()!r}"
        " if not hasattr(sys.modules[f'prismvol.{l}'], f)]\n"
        "assert missing == [], missing\n"
    )
    _modules(code)


_FAILED_LAYER = """
import json, sys
import prismvol
import prismvol.cli as cli

def outcome(get):
    try:
        get()
    except RuntimeError as err:
        return str(err)
    return "returned"

layer = sys.modules["prismvol.braids"]
print(json.dumps([
    outcome(lambda: prismvol.twisted_torus_braid(3, 2, 2, 1)),
    outcome(lambda: prismvol.twisted_torus_braid(3, 2, 2, 1)),
    outcome(lambda: prismvol.BraidWord),
    outcome(lambda: prismvol.braids.BraidWord),
    outcome(lambda: cli.braids.twisted_torus_braid),
    outcome(lambda: cli.main(["braid", "ttk", "3", "2", "2", "1"])),
    layer is prismvol.braids is cli.braids,
    prismvol.frac_str(3),
]))
"""


def test_a_layer_whose_code_raises_raises_at_every_access(tmp_path):
    """A failed first run leaves nothing of the layer behind: ``BraidWord``,
    defined before the fault, is not served from a half-run module, and the
    layers the fault does not touch still load."""
    shutil.copytree(ROOT / "src", tmp_path / "src")
    braids = tmp_path / "src" / "prismvol" / "braids.py"
    braids.write_text(braids.read_text() + '\nraise RuntimeError("braids is broken")\n')
    env = dict(os.environ, PYTHONPATH=str(tmp_path / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-c", _FAILED_LAYER],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == ["braids is broken"] * 6 + [True, "3/1"]


_TREFOIL = json.loads((ROOT / "src" / "prismvol" / "fixtures" / "trefoil.json").read_text())
# counts the trefoil's transitive representations at d = 9: answered under a read cap
# of 125 467, refused under 125 466
_COUNT_AT_NINE = (
    f"pres = covers.presentation_from_json({_TREFOIL!r})\n"
    "try:\n"
    "    print(covers.count_representations(pres, 9, transitive=True))\n"
    "except Exception as err:\n"
    "    print(f'{type(err).__name__}: {err}')\n"
)


def test_an_assignment_to_a_layer_before_it_runs_sticks():
    """The layer runs before the assignment acts: run after it, its code would
    set ``MAX_READS`` back to 20 000 000, and the count would be answered."""
    out = _fresh("from prismvol import covers\ncovers.MAX_READS = 125466\n" + _COUNT_AT_NINE)
    assert out == (
        "EnumerationTooLargeError: the subgroup search into S_9 exceeds the limit of"
        " 125466 table reads\n"
    )


def test_a_deletion_from_a_layer_before_it_runs_sticks():
    """The layer runs before the deletion acts, so the name is there to delete
    and its code does not define it again."""
    code = "from prismvol import covers\ndel covers.MAX_READS\nprint(hasattr(covers, 'MAX_READS'))\n"
    assert _fresh(code + _COUNT_AT_NINE) == "False\nNameError: name 'MAX_READS' is not defined\n"
