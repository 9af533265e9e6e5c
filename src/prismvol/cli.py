"""Command-line surface for the toolkit.

Every operation is exposed as a two-level subcommand.  Structured inputs
(Seifert symbols, Montesinos links, braid words, group presentations) are
given either as inline JSON or as ``@ref`` references: a file path, or
else the bare name of a fixture shipped inside the package.

Output is a human-readable table by default and JSON with ``--json``, the one
option every command takes.  Rationals always print as ``p/q`` and volumes
with 12 decimal places.  Exit status is 0 on success, 1 on a domain error
(one diagnostic line on stderr), 2 on a usage error.

Each group is declared once, in ``_COMMANDS``: its help and its commands, each
with its handler, help and arguments.  ``build_parser`` builds the top and
group parsers always; it builds a group's command parsers only when the
command line names the group, and gives a command its arguments only when the
command line names it, since argparse enters no other group or command.  The
layers are the package's lazy modules, so a command runs only the layers its
handler calls.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from itertools import islice

from . import audit, braids, covers, exact, montesinos, orbifolds, reader, seifert, slopes

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


def _parse_slope(text: str) -> slopes.Slope:
    pair = _parse_int_list(text)
    if len(pair) != 2:
        raise ValueError(f"slope {text!r}: expected two comma-separated integers p,q")
    return slopes.Slope(*pair)


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


def _symbol_line(s: seifert.SeifertSymbol) -> str:
    fibers = ", ".join(f"{beta}/{alpha}" for beta, alpha in s.fibers)
    return f"({s.base_class}, {s.genus}; {fibers})"


def _orbifold_line(b: orbifolds.Orbifold2D) -> str:
    kind = "orientable" if b.orientable else "non-orientable"
    cones = ", ".join(map(str, b.cones)) if b.cones else "none"
    return f"{kind} genus {b.genus}, boundary {b.boundary}, cones {cones}"


def _surface_line(f: orbifolds.SurfaceData) -> str:
    kind = "orientable" if f.orientable else "non-orientable"
    return f"{kind} genus {f.genus}, boundary {f.boundary}, euler {f.euler}"


def _link_line(link: montesinos.MontesinosLink) -> str:
    tangles = ", ".join(f"{beta}/{alpha}" for beta, alpha in link.tangles)
    return f"genus {link.genus}; tangles {tangles}"


def _degrees_str(degrees) -> str:
    return ", ".join(map(str, degrees)) if degrees else "none"


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


def _cmd_covers_count(args: argparse.Namespace) -> None:
    pres = covers.presentation_from_json(_load_input(args.presentation))
    count = covers.count_representations(pres, args.degree, transitive=args.transitive)
    _emit(args, {"count": count}, [str(count)])


def _cmd_prism_verify(args: argparse.Namespace) -> None:
    if args.n_from > args.n_to:
        raise UsageError(
            f"--from {args.n_from} is greater than --to {args.n_to}; the range is empty"
        )
    chunks = (audit.prism_json if args.json else audit.prism_table)(args.n_from, args.n_to)
    # a few hundred rows per write: unbuffered, each write is a system call
    while batch := "".join(islice(chunks, 200)):
        sys.stdout.write(batch)


# Argument specs shared by several commands: a name or flag, and add_argument options
_INT, _REQUIRED_INT = {"type": integer_arg}, {"type": integer_arg, "required": True}
_SLOPE = {"help": "slope p,q"}
_JSON = ("--json", {"action": "store_true", "help": "emit JSON (default: a table)"})
_BASE = [  # the base orbifold: --orientable --genus --boundary --cones
    ("--orientable", {"type": _parse_bool, "required": True}),
    ("--genus", _REQUIRED_INT), ("--boundary", _REQUIRED_INT),
    ("--cones", {"type": _parse_int_list, "default": (), "help": "comma-separated indices"}),
]
_INLINE = "{} as inline JSON {{{}}} or @ref"  # the help of a structured input
_SYMBOL = ("symbol", {"help": _INLINE.format("symbol", '"class","genus","fibers"')})
_WORD = ("word", {"help": _INLINE.format("braid word", '"strands","letters"')})

# Every command: group -> (help, {command: (handler, help, arguments)}).  Each
# command also takes _JSON, which build_parser adds first.
_COMMANDS = {
    "seifert": ("Seifert symbol operations", {
        "normalize": (_cmd_seifert_normalize, "canonical form of a symbol", [_SYMBOL]),
        "euler": (_cmd_seifert_euler, "Euler number -sum(beta/alpha)", [_SYMBOL]),
        "h1": (_cmd_seifert_h1, "first homology divisors and order", [_SYMBOL]),
        "base": (_cmd_seifert_base, "closed base orbifold", [_SYMBOL]),
    }),
    "orbifold": ("2-orbifold operations", {
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
    }),
    "montesinos": ("Montesinos link operations", {
        "cover": (_cmd_montesinos_cover, "double branched cover symbol", [
            ("link", {"help": _INLINE.format("link", '"genus","tangles"')}),
        ]),
        "ln": (
            _cmd_montesinos_ln,
            "the two Montesinos presentations of the n-th family branching link",
            [("n", _INT)],
        ),
    }),
    "slopes": ("torus slope operations", {
        "delta": (_cmd_slopes_delta, "geometric intersection number", [(c, _SLOPE) for c in "ab"]),
        "enumerate": (
            _cmd_slopes_enumerate,
            "all alpha with delta(fiber, alpha) = k1 and delta(constraint, alpha) <= k2",
            [("fiber", _SLOPE), ("constraint", _SLOPE),
             ("--k1", {**_INT, "default": 1}), ("--k2", {**_INT, "default": 2})],
        ),
    }),
    "braid": ("braid word operations", {
        "ttk": (_cmd_braid_ttk, "twisted torus braid word", [(c, _INT) for c in "pqrs"]),
        "components": (_cmd_braid_components, "closure component count", [_WORD]),
        "chi": (
            _cmd_braid_chi,
            "Bennequin surface chi of a positive word (and genus for knots)",
            [_WORD],
        ),
    }),
    "covers": ("branched-cover counting", {
        "count": (
            _cmd_covers_count,
            "homomorphisms of a presented group into a symmetric group",
            [("presentation", {"help": _INLINE.format("presentation", '"generators","relators"')}),
             ("--degree", _REQUIRED_INT),
             ("--transitive", {"action": "store_true", "help": "count transitive images only"})],
        ),
    }),
    "prism": ("prism-family pipeline", {
        "verify": (_cmd_prism_verify, "audit every parameter in [--from, --to]", [
            ("--from", {"dest": "n_from", **_REQUIRED_INT}),
            ("--to", {"dest": "n_to", **_REQUIRED_INT}),
        ]),
    }),
}


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
    for group, (about, commands) in _COMMANDS.items():
        group_parser = top.add_parser(group, help=about)
        if group in named:
            sub = group_parser.add_subparsers(dest="subcommand", required=True)
            for name, (handler, text, arguments) in commands.items():
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
    except (MemoryError, OverflowError):  # no text or Python's own, naming no field
        print("error: the result is too large to build", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
