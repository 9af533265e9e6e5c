"""The ``seifert`` commands of the command line: Seifert symbol operations."""

from __future__ import annotations

import argparse

from . import exact, orbifolds, seifert
from .cli import _INLINE, _emit, _load_input, _symbol_line


def _orbifold_line(b: orbifolds.Orbifold2D) -> str:
    kind = "orientable" if b.orientable else "non-orientable"
    cones = ", ".join(map(str, b.cones)) if b.cones else "none"
    return f"{kind} genus {b.genus}, boundary {b.boundary}, cones {cones}"


def _cmd_seifert_normalize(args: argparse.Namespace) -> None:
    s = seifert.symbol_from_json(_load_input(args.symbol))
    normalized = seifert.normalize(s)
    _emit(args, normalized.to_json(), [_symbol_line(normalized)])


def _cmd_seifert_euler(args: argparse.Namespace) -> None:
    s = seifert.symbol_from_json(_load_input(args.symbol))
    e = seifert.euler_number(s)
    _emit(args, {"euler": exact.frac_str(e)}, [exact.frac_str(e)])


def _cmd_seifert_h1(args: argparse.Namespace) -> None:
    s = seifert.symbol_from_json(_load_input(args.symbol))
    divisors = seifert.first_homology(s)
    order = seifert.homology_order(divisors)
    lines = [
        f"divisors: {' '.join(map(str, divisors)) if divisors else '1'}",
        f"order: {order if order is not None else 'infinite'}",
    ]
    _emit(args, {"divisors": divisors, "order": order}, lines)


def _cmd_seifert_base(args: argparse.Namespace) -> None:
    s = seifert.symbol_from_json(_load_input(args.symbol))
    b = seifert.base_orbifold(s)
    _emit(args, b.to_json(), [_orbifold_line(b)])


_SYMBOL = ("symbol", {"help": _INLINE.format("symbol", '"class","genus","fibers"')})

# command -> (handler, help, arguments)
COMMANDS = {
    "normalize": (_cmd_seifert_normalize, "canonical form of a symbol", [_SYMBOL]),
    "euler": (_cmd_seifert_euler, "Euler number -sum(beta/alpha)", [_SYMBOL]),
    "h1": (_cmd_seifert_h1, "first homology divisors and order", [_SYMBOL]),
    "base": (_cmd_seifert_base, "closed base orbifold", [_SYMBOL]),
}
