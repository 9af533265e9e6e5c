"""The ``slopes`` commands of the command line: torus slope operations."""

from __future__ import annotations

import argparse

from . import slopes
from .cli import _INT, _emit, _parse_int_list


def _parse_slope(text: str) -> slopes.Slope:
    pair = _parse_int_list(text)
    if len(pair) != 2:
        raise ValueError(f"slope {text!r}: expected two comma-separated integers p,q")
    return slopes.Slope(*pair)


def _cmd_slopes_delta(args: argparse.Namespace) -> None:
    value = slopes.delta(_parse_slope(args.a), _parse_slope(args.b))
    _emit(args, {"delta": value}, [str(value)])


def _cmd_slopes_enumerate(args: argparse.Namespace) -> None:
    found = slopes.enumerate_constrained_slopes(
        _parse_slope(args.fiber), _parse_slope(args.constraint), args.k1, args.k2
    )
    payload = {"slopes": [a.to_json() for a in found]}
    lines = [f"{a.p},{a.q}" for a in found] or ["none"]
    _emit(args, payload, lines)


_SLOPE = {"help": "slope p,q"}

# command -> (handler, help, arguments)
COMMANDS = {
    "delta": (_cmd_slopes_delta, "geometric intersection number", [(c, _SLOPE) for c in "ab"]),
    "enumerate": (
        _cmd_slopes_enumerate,
        "all alpha with delta(fiber, alpha) = k1 and delta(constraint, alpha) <= k2",
        [("fiber", _SLOPE), ("constraint", _SLOPE),
         ("--k1", {**_INT, "default": 1}), ("--k2", {**_INT, "default": 2})],
    ),
}
