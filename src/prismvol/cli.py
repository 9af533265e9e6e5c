"""Command-line surface for the toolkit.

Every operation is exposed as a two-level subcommand.  Structured inputs
(Seifert symbols, Montesinos links, braid words, group presentations) are
given either as inline JSON or as ``@ref`` references: a file path, or
else the bare name of a fixture shipped inside the package.

Output is a human-readable table by default and JSON with ``--json``, the one
option every command takes.  Rationals always print as ``p/q`` and volumes
with 12 decimal places.  Exit status is 0 on success, 1 on a domain error
(one diagnostic line on stderr), 2 on a usage error.

Each group of commands is one module, ``cli_<group>``, whose ``COMMANDS``
table declares each command once: its name, handler, help and arguments.
``build_parser`` builds the top and group parsers always, from ``_GROUPS``; it
imports a group's module, and builds its command parsers, only when the command
line names the group, and gives a command its arguments only when the command
line names it, since argparse enters no other group or command.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import re
import sys

from . import reader

_PAIR_TOKEN = re.compile(r"^-\d+,-?\d+$")
_INT_TOKEN = re.compile(r"-?[0-9]+")


class UsageError(Exception):
    """Arguments that parse but make no sense together (exit status 2)."""


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that accepts ``p,q`` pair positionals with negative p.

    Stock argparse classifies any dash-leading token that is not a bare
    negative number as an option, which would force quoting of slopes like
    ``-2,1``.  Pair-shaped tokens are reclassified as positionals.
    """

    def _parse_optional(self, arg_string):
        if _PAIR_TOKEN.match(arg_string):
            return None
        return super()._parse_optional(arg_string)


# argument types raise ArgumentTypeError: argparse then prefixes the argument's name

def _parse_bool(text: str) -> bool:
    if text not in ("true", "false"):
        raise argparse.ArgumentTypeError(f"expected true or false, got {text!r}")
    return text == "true"


def integer_arg(text: str) -> int:
    """Only ``-?[0-9]+``: ``int()`` also takes ``1_0``, spaces and other digits."""
    if not _INT_TOKEN.fullmatch(text):
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    return int(text)


def _parse_int_list(text: str) -> list[int]:
    return [integer_arg(part) for part in text.split(",")] if text else []


def _load_input(text: str) -> object:
    """Inline JSON, or ``@ref`` where ref is a file path or a fixture's bare name."""
    raw = text
    if text.startswith("@"):
        ref = text[1:]
        if not os.path.isfile(ref):
            if os.path.dirname(ref):
                raise ValueError(f"no file named {ref!r}")
            name = ref if ref.endswith(".json") else f"{ref}.json"
            ref = os.path.join(os.path.dirname(__file__), "fixtures", name)
            if not os.path.isfile(ref):
                raise ValueError(f"no packaged fixture named {name!r}")
        with open(ref) as file:
            raw = file.read()
    try:
        return reader.loads(raw)
    except (ValueError, RecursionError) as err:
        where = f" {text}" if text.startswith("@") else ""
        raise ValueError(f"invalid JSON input{where}: {err}") from None


def _emit(args: argparse.Namespace, payload: object, lines: list[str]) -> None:
    # one write per document: unbuffered, ``print`` would make two system calls
    text = json.dumps(payload, indent=2) if args.json else "\n".join(lines)
    sys.stdout.write(text + "\n")


def _symbol_line(s) -> str:
    """A Seifert symbol, as ``seifert normalize`` and ``montesinos cover`` print it."""
    fibers = ", ".join(f"{beta}/{alpha}" for beta, alpha in s.fibers)
    return f"({s.base_class}, {s.genus}; {fibers})"


# Argument specs shared by several groups: a name or flag, and add_argument options
_INT, _REQUIRED_INT = {"type": integer_arg}, {"type": integer_arg, "required": True}
_JSON = ("--json", {"action": "store_true", "help": "emit JSON (default: a table)"})
_INLINE = "{} as inline JSON {{{}}} or @ref"  # the help of a structured input

# Every group and its help; each command also takes _JSON, which build_parser adds first
_GROUPS = {
    "seifert": "Seifert symbol operations",
    "orbifold": "2-orbifold operations",
    "montesinos": "Montesinos link operations",
    "slopes": "torus slope operations",
    "braid": "braid word operations",
    "covers": "branched-cover counting",
    "prism": "prism-family pipeline",
}


def _commands(group: str) -> dict:
    """The ``COMMANDS`` of ``group``'s module: command -> (handler, help, arguments)."""
    return importlib.import_module(f"{__package__}.cli_{group}").COMMANDS


def build_parser(argv: list[str] | None = None) -> argparse.ArgumentParser:
    """The parser of every group; a group not named in ``argv`` (default
    ``sys.argv[1:]``, as ``parse_known_args``) gets no subcommand parser, and a
    command not named there a parser with only its help, since argparse enters
    a group or a command only at its name: every help, choice list and error
    reads the same.  Passing every group and command name builds them all."""
    named = set(sys.argv[1:] if argv is None else argv)
    parser = _Parser(
        prog="prismvol",
        description="Exact Seifert, Montesinos, orbifold, slope, braid, and "
        "branched-cover computations for the prism-family link-volume audit.",
    )
    top = parser.add_subparsers(dest="command", required=True)
    for group, about in _GROUPS.items():
        group_parser = top.add_parser(group, help=about)
        if group in named:
            sub = group_parser.add_subparsers(dest="subcommand", required=True)
            for name, (handler, text, arguments) in _commands(group).items():
                command = sub.add_parser(name, help=text)
                if name in named:
                    for flag, options in [_JSON, *arguments]:
                        command.add_argument(flag, **options)
                    command.set_defaults(func=handler, parser=command)
    return parser


def main(argv: list[str] | None = None) -> int:
    args, extras = build_parser(argv).parse_known_args(argv)
    if extras:  # reported with the usage of the command they follow
        args.parser.error(f"unrecognized arguments: {' '.join(extras)}")
    try:
        args.func(args)
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (ValueError, argparse.ArgumentTypeError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    # ``python -m prismvol.cli`` runs this file as ``__main__``, a second copy of
    # ``prismvol.cli``: the group modules raise the package copy's UsageError
    from prismvol.cli import main as package_main

    sys.exit(package_main())
