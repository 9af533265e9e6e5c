"""The ``orbifold`` commands of the command line: 2-orbifold operations."""

from __future__ import annotations

import argparse

from . import exact, orbifolds
from .cli import _REQUIRED_INT, _emit, _parse_bool, _parse_int_list


def _surface_line(f: orbifolds.SurfaceData) -> str:
    kind = "orientable" if f.orientable else "non-orientable"
    return f"{kind} genus {f.genus}, boundary {f.boundary}, euler {f.euler}"


def _degrees_str(degrees) -> str:
    return ", ".join(map(str, degrees)) if degrees else "none"


def _orbifold_from_flags(args: argparse.Namespace) -> orbifolds.Orbifold2D:
    return orbifolds.Orbifold2D(
        orientable=args.orientable,
        genus=args.genus,
        boundary=args.boundary,
        cones=args.cones,
    )


def _cmd_orbifold_chi(args: argparse.Namespace) -> None:
    value = orbifolds.chi_orb(_orbifold_from_flags(args))
    _emit(args, {"chi_orb": exact.frac_str(value)}, [exact.frac_str(value)])


def _cmd_orbifold_cover(args: argparse.Namespace) -> None:
    base = orbifolds.SurfaceData(genus=args.genus, boundary=args.boundary)
    branch = [_parse_int_list(point) for point in args.branch or []]
    cover = orbifolds.riemann_hurwitz_cover(base, args.degree, branch)
    _emit(args, cover.to_json(), [_surface_line(cover)])


def _cmd_orbifold_solve(args: argparse.Namespace) -> None:
    fiber = orbifolds.SurfaceData(args.fiber_genus, args.fiber_boundary)
    base = _orbifold_from_flags(args)
    solve = (
        orbifolds.horizontal_degree_solutions
        if base.orientable
        else orbifolds.nonorientable_base_solutions
    )
    degrees, chi_only = solve(fiber, base)
    lines = [
        f"degrees: {_degrees_str(degrees)}",
        f"chi-only degrees: {_degrees_str(chi_only)}",
    ]
    _emit(args, {"degrees": degrees, "chi_only_degrees": chi_only}, lines)


_BASE = [  # the base orbifold: --orientable --genus --boundary --cones
    ("--orientable", {"type": _parse_bool, "required": True}),
    ("--genus", _REQUIRED_INT), ("--boundary", _REQUIRED_INT),
    ("--cones", {"type": _parse_int_list, "default": (), "help": "comma-separated indices"}),
]

# command -> (handler, help, arguments)
COMMANDS = {
    "chi": (_cmd_orbifold_chi, "orbifold Euler characteristic", _BASE),
    "cover": (_cmd_orbifold_cover, "branched cover of a surface", [
        *_BASE[1:3],  # --genus, --boundary
        ("--degree", _REQUIRED_INT),
        ("--branch", {
            "action": "append", "metavar": "LOCALS",
            "help": "one branch point as comma-separated local degrees; repeatable",
        }),
    ]),
    "solve": (_cmd_orbifold_solve, "degrees d with chi(fiber) = d * chi_orb(base)", [
        ("--fiber-genus", _REQUIRED_INT), ("--fiber-boundary", _REQUIRED_INT), *_BASE,
    ]),
}
