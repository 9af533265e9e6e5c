"""The ``montesinos`` commands of the command line: Montesinos link operations."""

from __future__ import annotations

import argparse

from . import montesinos
from .cli import _INLINE, _INT, _emit, _load_input, _symbol_line


def _link_line(link: montesinos.MontesinosLink) -> str:
    tangles = ", ".join(f"{beta}/{alpha}" for beta, alpha in link.tangles)
    return f"genus {link.genus}; tangles {tangles}"


def _cmd_montesinos_cover(args: argparse.Namespace) -> None:
    link = montesinos.link_from_json(_load_input(args.link))
    symbol = montesinos.double_branched_cover(link)
    _emit(args, symbol.to_json(), [_symbol_line(symbol)])


def _cmd_montesinos_ln(args: argparse.Namespace) -> None:
    spherical, crosscap = montesinos.ln_link(args.n)
    payload = {"spherical": spherical.to_json(), "crosscap": crosscap.to_json()}
    lines = [
        f"spherical: {_link_line(spherical)}",
        f"crosscap: {_link_line(crosscap)}",
    ]
    _emit(args, payload, lines)


# command -> (handler, help, arguments)
COMMANDS = {
    "cover": (_cmd_montesinos_cover, "double branched cover symbol", [
        ("link", {"help": _INLINE.format("link", '"genus","tangles"')}),
    ]),
    "ln": (
        _cmd_montesinos_ln,
        "the two Montesinos presentations of the n-th family branching link",
        [("n", _INT)],
    ),
}
