"""The ``braid`` commands of the command line: braid word operations."""

from __future__ import annotations

import argparse

from . import braids
from .cli import _INLINE, _INT, _emit, _load_input


def _cmd_braid_ttk(args: argparse.Namespace) -> None:
    word = braids.twisted_torus_braid(args.p, args.q, args.r, args.s)
    _emit(args, word.to_json(), [word.artin()])


def _cmd_braid_components(args: argparse.Namespace) -> None:
    word = braids.word_from_json(_load_input(args.word))
    count = braids.closure_components(word)
    _emit(args, {"components": count}, [str(count)])


def _cmd_braid_chi(args: argparse.Namespace) -> None:
    word = braids.word_from_json(_load_input(args.word))
    chi = braids.bennequin_chi(word)
    payload: dict[str, int] = {"chi": chi}
    lines = [f"chi: {chi}"]
    if braids.closure_components(word) == 1:
        genus = braids.bennequin_genus(word)
        payload["genus"] = genus
        lines.append(f"genus: {genus}")
    _emit(args, payload, lines)


_WORD = ("word", {"help": _INLINE.format("braid word", '"strands","letters"')})

# command -> (handler, help, arguments)
COMMANDS = {
    "ttk": (_cmd_braid_ttk, "twisted torus braid word", [(c, _INT) for c in "pqrs"]),
    "components": (_cmd_braid_components, "closure component count", [_WORD]),
    "chi": (
        _cmd_braid_chi,
        "Bennequin surface chi of a positive word (and genus for knots)",
        [_WORD],
    ),
}
