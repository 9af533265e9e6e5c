"""The ``covers`` command of the command line: branched-cover counting."""

from __future__ import annotations

import argparse

from . import covers
from .cli import _INLINE, _REQUIRED_INT, _emit, _load_input


def _cmd_covers_count(args: argparse.Namespace) -> None:
    pres = covers.presentation_from_json(_load_input(args.presentation))
    count = covers.count_representations(pres, args.degree, transitive=args.transitive)
    _emit(args, {"count": count}, [str(count)])


# command -> (handler, help, arguments)
COMMANDS = {
    "count": (
        _cmd_covers_count,
        "homomorphisms of a presented group into a symmetric group",
        [("presentation", {"help": _INLINE.format("presentation", '"generators","relators"')}),
         ("--degree", _REQUIRED_INT),
         ("--transitive", {"action": "store_true", "help": "count transitive images only"})],
    ),
}
