"""The command line's surface, pinned byte for byte: the ``--help`` text of
every parser and the stderr of the usage errors, at a terminal width of 80.

``cli_surface.txt`` holds one block per invocation: a header line
``### <argv> -> <exit status>``, then what the invocation writes, its stdout
for ``--help`` and its stderr otherwise.  A change to the surface that is
meant rewrites it with ``python tests/test_cli_surface.py``.
"""

import argparse
import contextlib
import io
import os
import re
import shlex
import sys
from pathlib import Path

import pytest

from prismvol import cli

SURFACE = Path(__file__).with_name("cli_surface.txt")
WIDTH = "80"

GROUPS = {
    "seifert": ["normalize", "euler", "h1", "base"],
    "orbifold": ["chi", "cover", "solve"],
    "montesinos": ["cover", "ln"],
    "slopes": ["delta", "enumerate"],
    "braid": ["ttk", "components", "chi"],
    "covers": ["count"],
    "prism": ["verify"],
}
USAGE_ERRORS = [
    [],
    ["seifert"],
    ["covers", "frobnicate", "@trefoil"],
    ["braid", "ttk", "3", "2", "2", "1", "--bogus"],
    ["orbifold", "cover", "--orientable", "true", "--genus", "0", "--boundary", "1",
     "--degree", "2"],
    ["slopes", "delta", "1,0", "0,1", "--verbose"],
    ["prism", "verify", "--from", "1"],
    ["orbifold", "chi", "--orientable", "maybe", "--genus", "0", "--boundary", "0"],
    ["prism", "verify", "--from", "1", "--to", "2", "--json", "--table"],
    ["prism", "verify", "--from", "3", "--to", "1"],
]
INVOCATIONS = [
    ["--help"],
    *([group, "--help"] for group in GROUPS),
    *([group, name, "--help"] for group, names in GROUPS.items() for name in names),
    *USAGE_ERRORS,
]


def transcript(argv: list[str]) -> tuple[int, str, str]:
    """Exit status, stdout and stderr of ``prismvol argv``, run in process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def block(argv: list[str]) -> tuple[str, str]:
    """The header of ``argv``'s block and what it pins: stdout for ``--help``,
    stderr otherwise."""
    code, out, err = transcript(argv)
    assert (code, err if "--help" in argv else out) == (0 if "--help" in argv else 2, "")
    return f"{shlex.join(argv)} -> {code}", out if "--help" in argv else err


def pinned() -> dict[str, str]:
    parts = re.split(r"^### (.*)\n", SURFACE.read_text(), flags=re.M)
    return {header: text for header, text in zip(parts[1::2], parts[2::2])}


@pytest.fixture(autouse=True)
def fixed_width(monkeypatch):
    monkeypatch.setenv("COLUMNS", WIDTH)


def test_every_invocation_is_pinned():
    assert [header.rsplit(" -> ", 1)[0] for header in pinned()] == [
        shlex.join(argv) for argv in INVOCATIONS
    ]


@pytest.mark.parametrize("argv", INVOCATIONS, ids=shlex.join)
def test_surface_is_byte_identical(argv):
    header, text = block(argv)
    assert pinned()[header] == text


def _commands(parser: argparse.ArgumentParser):
    """The parser of each command, walking the subparsers."""
    subparsers = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subparsers:
        yield parser
    for action in subparsers:
        for sub in action.choices.values():
            yield from _commands(sub)


def test_each_handler_runs_exactly_one_command():
    every_name = [*cli._COMMANDS, *(n for _, names in cli._COMMANDS.values() for n in names)]
    funcs = [parser.get_default("func") for parser in _commands(cli.build_parser(every_name))]
    handlers = [value for name, value in vars(cli).items() if name.startswith("_cmd_")]
    assert len(handlers) == 16
    assert sorted(f.__name__ for f in funcs) == sorted(f.__name__ for f in handlers)
    assert all(funcs.count(handler) == 1 for handler in handlers)


if __name__ == "__main__":
    os.environ["COLUMNS"] = WIDTH
    sys.stdout.write("".join("### {}\n{}".format(*block(argv)) for argv in INVOCATIONS))
