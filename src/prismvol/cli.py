"""Command-line surface for the toolkit.

Every operation is exposed as a two-level subcommand.  Structured inputs
(Seifert symbols, Montesinos links, braid words, group presentations) are
given either as inline JSON or as ``@name`` references: a file path, or a
bare fixture name resolved against ``--fixtures DIR`` or the fixtures
shipped inside the package.

Output is a human-readable table by default and JSON with ``--json``; the
environment variable ``PRISMVOL_FORMAT=json`` flips the default.  Rationals
always print as ``p/q`` and volumes with 12 decimal places.  Exit status is
0 on success, 1 on a domain error (one diagnostic line on stderr), 2 on a
usage error.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import re
import sys
from collections.abc import Iterator
from functools import reduce
from importlib import resources
from json.encoder import encode_basestring_ascii
from operator import getitem
from pathlib import Path

from . import braids, covers, montesinos, orbifolds, seifert, slopes
from .exact import frac_str
from .reader import loads

FORMAT_ENV_VAR = "PRISMVOL_FORMAT"

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


def _load_input(text: str, fixtures_dir: str | None) -> object:
    """Inline JSON, or ``@ref`` where ref is a file path or a fixture name."""
    raw = text
    if text.startswith("@"):
        ref = text[1:]
        name = ref if ref.endswith(".json") else f"{ref}.json"
        if Path(ref).is_file():
            fixture = Path(ref)
        elif fixtures_dir is not None:
            fixture = Path(fixtures_dir) / name
            if not fixture.is_file():
                raise ValueError(f"no fixture {name!r} in {fixtures_dir}")
        else:
            fixture = resources.files("prismvol").joinpath("fixtures", name)
            if not fixture.is_file():
                raise ValueError(f"no packaged fixture named {name!r}")
        raw = fixture.read_text()
    try:
        return loads(raw)
    except (ValueError, RecursionError) as err:
        where = f" {text}" if text.startswith("@") else ""
        raise ValueError(f"invalid JSON input{where}: {err}") from None


def _use_json(args: argparse.Namespace) -> bool:
    if args.json:
        return True
    if args.table:
        return False
    return os.environ.get(FORMAT_ENV_VAR, "").strip().lower() == "json"


def _emit(args: argparse.Namespace, payload: object, lines: list[str]) -> None:
    if _use_json(args):
        print(_indented(payload, ""))
    else:
        print("\n".join(lines))


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
    s = seifert.symbol_from_json(_load_input(args.symbol, args.fixtures))
    normalized = seifert.normalize(s)
    _emit(args, normalized.to_json(), [_symbol_line(normalized)])


def _cmd_seifert_euler(args: argparse.Namespace) -> None:
    s = seifert.symbol_from_json(_load_input(args.symbol, args.fixtures))
    e = seifert.euler_number(s)
    _emit(args, {"euler": frac_str(e)}, [frac_str(e)])


def _cmd_seifert_h1(args: argparse.Namespace) -> None:
    s = seifert.symbol_from_json(_load_input(args.symbol, args.fixtures))
    divisors = seifert.first_homology(s)
    order = seifert.homology_order(divisors)
    lines = [
        f"divisors: {' '.join(map(str, divisors)) if divisors else '1'}",
        f"order: {order if order is not None else 'infinite'}",
    ]
    _emit(args, {"divisors": divisors, "order": order}, lines)


def _cmd_seifert_base(args: argparse.Namespace) -> None:
    s = seifert.symbol_from_json(_load_input(args.symbol, args.fixtures))
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
    _emit(args, {"chi_orb": frac_str(value)}, [frac_str(value)])


def _cmd_orbifold_cover(args: argparse.Namespace) -> None:
    base = orbifolds.SurfaceData(
        genus=args.genus, boundary=args.boundary, orientable=args.orientable
    )
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
    degrees = solve(fiber, base)
    chi_only = solve(fiber, base, require_cone_divisibility=False)
    lines = [
        f"degrees: {_degrees_str(degrees)}",
        f"chi-only degrees: {_degrees_str(chi_only)}",
    ]
    _emit(args, {"degrees": degrees, "chi_only_degrees": chi_only}, lines)


def _cmd_montesinos_cover(args: argparse.Namespace) -> None:
    link = montesinos.link_from_json(_load_input(args.link, args.fixtures))
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
    word = braids.word_from_json(_load_input(args.word, args.fixtures))
    count = braids.closure_components(word)
    _emit(args, {"components": count}, [str(count)])


def _cmd_braid_chi(args: argparse.Namespace) -> None:
    word = braids.word_from_json(_load_input(args.word, args.fixtures))
    chi = braids.bennequin_chi(word)
    payload: dict[str, int] = {"chi": chi}
    lines = [f"chi: {chi}"]
    if braids.closure_components(word) == 1:
        genus = braids.bennequin_genus(word)
        payload["genus"] = genus
        lines.append(f"genus: {genus}")
    _emit(args, payload, lines)


def _cmd_covers_count(args: argparse.Namespace) -> None:
    pres = covers.presentation_from_json(_load_input(args.presentation, args.fixtures))
    count = covers.count_representations(pres, args.degree, transitive=args.transitive)
    _emit(args, {"count": count}, [str(count)])


def _indented(value: object, margin: str) -> str:
    """``json.dumps(value, indent=2)`` with each line after the first moved
    right by ``margin``; it writes every ``--json`` document.  The stdlib's
    indenting encoder leaves its closures in a reference cycle per call, which
    only the cyclic collector frees; this leaves no garbage for it, and writes
    every leaf but a float itself."""
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int:
        return repr(value)
    if kind is bool:
        return "true" if value else "false"
    if value is None:
        return "null"
    if kind is not dict and kind is not list:
        return json.dumps(value)  # a float
    if not value:
        return "{}" if kind is dict else "[]"
    inner = margin + "  "
    if kind is dict:
        items = [f"{encode_basestring_ascii(k)}: {_indented(v, inner)}" for k, v in value.items()]
        return f"{{\n{inner}" + f",\n{inner}".join(items) + f"\n{margin}}}"
    items = [_indented(v, inner) for v in value]
    return f"[\n{inner}" + f",\n{inner}".join(items) + f"\n{margin}]"


# The leaves of a "conditional" row that depend on n, in text order: n twice,
# then mu and chi_orb of cases 3 and 5.  The rest is the same for all such
# rows of one call, with every degree list empty: 3 mu/(mu - 1) is an integer
# for no odd mu, and 6 mu/(mu - 2) only at the candidates mu = 3 and 5.
_ROW_LEAVES = (
    ("n",),
    ("case_analysis", "n"),
    ("case_analysis", "cases", 2, "orbifold", "cones", 2),
    ("case_analysis", "cases", 2, "chi_orb"),
    ("case_analysis", "cases", 4, "orbifold", "cones", 1),
    ("case_analysis", "cases", 4, "chi_orb"),
)


def _prism_json(rows) -> Iterator[str]:
    """What ``print(json.dumps(report, indent=2))`` writes for the report
    ``{"reports": rows, "candidate_exceptional": [...]}``, one row at a time;
    the candidates are collected along the way.  The first "conditional" row
    is also written with "\\0", which no row holds, at each ``_ROW_LEAVES``
    leaf; every conditional row is that text with its own leaves in the gaps."""
    candidates = []
    gaps = None
    yield '{\n  "reports": ['
    separator, closing = "\n    ", "]"
    for row in rows:
        if row["status"] == "conditional":
            if gaps is None:
                marked = copy.deepcopy(row)
                for *path, key in _ROW_LEAVES:
                    reduce(getitem, path, marked)[key] = "\0"
                gaps = _indented(marked, "    ").split(_indented("\0", ""))
            leaves = [_indented(reduce(getitem, path, row), "") for path in _ROW_LEAVES]
            text = "".join(gap + leaf for gap, leaf in zip(gaps, leaves)) + gaps[-1]
        else:
            text = _indented(row, "    ")
            if row["status"] == "candidate-exceptional":
                candidates.append(row["n"])
        yield separator + text
        separator, closing = ",\n    ", "\n  ]"
    yield f'{closing},\n  "candidate_exceptional": {_indented(candidates, "  ")}\n}}\n'


def _prism_table(rows) -> Iterator[str]:
    """The table of audit rows, one line at a time."""
    yield (
        f"upper bound {covers.UPPER_BOUND.label} = {covers.upper_bound_value():.12f}"
        " (degree-2 certificate)"
    )
    yield (
        f"{'n':>5}  {'status':<22}  {'horizontal d':<14}  "
        f"{'twist-knot excluded':<19}  max degree"
    )
    candidates = []
    for row in rows:
        if row["status"] == "excluded":
            yield f"{row['n']:>5}  {'excluded':<22}  {row['reason']}"
            continue
        if row["status"] == "candidate-exceptional":
            candidates.append(row["n"])
        degrees = sorted(
            d for case in row["case_analysis"]["cases"] for d in case["degrees"]
        )
        excluded = "yes" if row["twist_knot_excluded"] else "NO"
        yield (
            f"{row['n']:>5}  {row['status']:<22}  {_degrees_str(degrees):<14}  "
            f"{excluded:<19}  {row['max_degree']}"
        )
    yield f"candidate exceptional: {_degrees_str(candidates)}"


def _cmd_prism_verify(args: argparse.Namespace) -> None:
    if args.n_from > args.n_to:
        raise UsageError(
            f"--from {args.n_from} is greater than --to {args.n_to}; the range is empty"
        )
    rows = covers.prism_rows(args.n_from, args.n_to)
    if _use_json(args):
        chunks = _prism_json(rows)
    else:
        chunks = (line + "\n" for line in _prism_table(rows))
    for chunk in chunks:
        sys.stdout.write(chunk)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    fmt = common.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", help="emit JSON")
    fmt.add_argument("--table", action="store_true", help="emit a table (default)")
    common.add_argument(
        "--fixtures",
        metavar="DIR",
        default=None,
        help="directory for @name fixture references (default: packaged fixtures)",
    )

    parser = _Parser(
        prog="prismvol",
        description="Exact Seifert, Montesinos, orbifold, slope, braid, and "
        "branched-cover computations for the prism-family link-volume audit.",
    )
    top = parser.add_subparsers(dest="command", required=True)

    seifert_p = top.add_parser("seifert", help="Seifert symbol operations")
    seifert_sub = seifert_p.add_subparsers(dest="subcommand", required=True)
    for name, handler, text in (
        ("normalize", _cmd_seifert_normalize, "canonical form of a symbol"),
        ("euler", _cmd_seifert_euler, "Euler number -sum(beta/alpha)"),
        ("h1", _cmd_seifert_h1, "first homology divisors and order"),
        ("base", _cmd_seifert_base, "closed base orbifold"),
    ):
        sub = seifert_sub.add_parser(name, parents=[common], help=text)
        sub.add_argument(
            "symbol",
            help='symbol as inline JSON {"class","genus","fibers"} or @ref',
        )
        sub.set_defaults(func=handler)

    orbifold_p = top.add_parser("orbifold", help="2-orbifold operations")
    orbifold_sub = orbifold_p.add_subparsers(dest="subcommand", required=True)

    chi = orbifold_sub.add_parser(
        "chi", parents=[common], help="orbifold Euler characteristic"
    )
    chi.add_argument("--orientable", type=_parse_bool, required=True)
    chi.add_argument("--genus", type=integer_arg, required=True)
    chi.add_argument("--boundary", type=integer_arg, required=True)
    chi.add_argument(
        "--cones", type=_parse_int_list, default=[], help="comma-separated indices"
    )
    chi.set_defaults(func=_cmd_orbifold_chi)

    cover = orbifold_sub.add_parser(
        "cover", parents=[common], help="branched cover of a surface"
    )
    cover.add_argument("--orientable", type=_parse_bool, default=True)
    cover.add_argument("--genus", type=integer_arg, required=True)
    cover.add_argument("--boundary", type=integer_arg, required=True)
    cover.add_argument("--degree", type=integer_arg, required=True)
    cover.add_argument(
        "--branch",
        action="append",
        metavar="LOCALS",
        help="one branch point as comma-separated local degrees; repeatable",
    )
    cover.set_defaults(func=_cmd_orbifold_cover)

    solve = orbifold_sub.add_parser(
        "solve",
        parents=[common],
        help="degrees d with chi(fiber) = d * chi_orb(base)",
    )
    solve.add_argument("--fiber-genus", type=integer_arg, required=True)
    solve.add_argument("--fiber-boundary", type=integer_arg, required=True)
    solve.add_argument("--orientable", type=_parse_bool, required=True)
    solve.add_argument("--genus", type=integer_arg, required=True)
    solve.add_argument("--boundary", type=integer_arg, required=True)
    solve.add_argument(
        "--cones", type=_parse_int_list, default=[], help="comma-separated indices"
    )
    solve.set_defaults(func=_cmd_orbifold_solve)

    montesinos_p = top.add_parser("montesinos", help="Montesinos link operations")
    montesinos_sub = montesinos_p.add_subparsers(dest="subcommand", required=True)

    mcover = montesinos_sub.add_parser(
        "cover", parents=[common], help="double branched cover symbol"
    )
    mcover.add_argument(
        "link", help='link as inline JSON {"genus","tangles"} or @ref'
    )
    mcover.set_defaults(func=_cmd_montesinos_cover)

    ln = montesinos_sub.add_parser(
        "ln",
        parents=[common],
        help="the two Montesinos presentations of the n-th family branching link",
    )
    ln.add_argument("n", type=integer_arg)
    ln.set_defaults(func=_cmd_montesinos_ln)

    slopes_p = top.add_parser("slopes", help="torus slope operations")
    slopes_sub = slopes_p.add_subparsers(dest="subcommand", required=True)

    sdelta = slopes_sub.add_parser(
        "delta", parents=[common], help="geometric intersection number"
    )
    sdelta.add_argument("a", help="slope p,q")
    sdelta.add_argument("b", help="slope p,q")
    sdelta.set_defaults(func=_cmd_slopes_delta)

    senum = slopes_sub.add_parser(
        "enumerate",
        parents=[common],
        help="all alpha with delta(fiber, alpha) = k1 and delta(constraint, alpha) <= k2",
    )
    senum.add_argument("fiber", help="slope p,q")
    senum.add_argument("constraint", help="slope p,q")
    senum.add_argument("--k1", type=integer_arg, default=1)
    senum.add_argument("--k2", type=integer_arg, default=2)
    senum.set_defaults(func=_cmd_slopes_enumerate)

    braid_p = top.add_parser("braid", help="braid word operations")
    braid_sub = braid_p.add_subparsers(dest="subcommand", required=True)

    ttk = braid_sub.add_parser(
        "ttk", parents=[common], help="twisted torus braid word"
    )
    ttk.add_argument("p", type=integer_arg)
    ttk.add_argument("q", type=integer_arg)
    ttk.add_argument("r", type=integer_arg)
    ttk.add_argument("s", type=integer_arg)
    ttk.set_defaults(func=_cmd_braid_ttk)

    components = braid_sub.add_parser(
        "components", parents=[common], help="closure component count"
    )
    components.add_argument(
        "word", help='braid word as inline JSON {"strands","letters"} or @ref'
    )
    components.set_defaults(func=_cmd_braid_components)

    bchi = braid_sub.add_parser(
        "chi",
        parents=[common],
        help="Bennequin surface chi of a positive word (and genus for knots)",
    )
    bchi.add_argument(
        "word", help='braid word as inline JSON {"strands","letters"} or @ref'
    )
    bchi.set_defaults(func=_cmd_braid_chi)

    covers_p = top.add_parser("covers", help="branched-cover counting")
    covers_sub = covers_p.add_subparsers(dest="subcommand", required=True)

    ccount = covers_sub.add_parser(
        "count",
        parents=[common],
        help="homomorphisms of a presented group into a symmetric group",
    )
    ccount.add_argument(
        "presentation",
        help='presentation as inline JSON {"generators","relators"} or @ref',
    )
    ccount.add_argument("--degree", type=integer_arg, required=True)
    ccount.add_argument(
        "--transitive", action="store_true", help="count transitive images only"
    )
    ccount.set_defaults(func=_cmd_covers_count)

    prism_p = top.add_parser("prism", help="prism-family pipeline")
    prism_sub = prism_p.add_subparsers(dest="subcommand", required=True)

    verify = prism_sub.add_parser(
        "verify", parents=[common], help="audit every parameter in [--from, --to]"
    )
    verify.add_argument("--from", dest="n_from", type=integer_arg, required=True)
    verify.add_argument("--to", dest="n_to", type=integer_arg, required=True)
    verify.set_defaults(func=_cmd_prism_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (ValueError, argparse.ArgumentTypeError, ZeroDivisionError, IndexError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
