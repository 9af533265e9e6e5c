"""The ``prism`` command of the command line: the prism-family audit."""

from __future__ import annotations

import argparse
import sys
from itertools import islice

from . import audit
from .cli import _REQUIRED_INT, UsageError


def _cmd_prism_verify(args: argparse.Namespace) -> None:
    if args.n_from > args.n_to:
        raise UsageError(
            f"--from {args.n_from} is greater than --to {args.n_to}; the range is empty"
        )
    chunks = (audit.prism_json if args.json else audit.prism_table)(args.n_from, args.n_to)
    # a few hundred rows per write: unbuffered, each write is a system call
    while batch := "".join(islice(chunks, 200)):
        sys.stdout.write(batch)


# command -> (handler, help, arguments)
COMMANDS = {
    "verify": (_cmd_prism_verify, "audit every parameter in [--from, --to]", [
        ("--from", {"dest": "n_from", **_REQUIRED_INT}),
        ("--to", {"dest": "n_to", **_REQUIRED_INT}),
    ]),
}
