#!/usr/bin/env python3
"""Print the five-case fiber-removal table for one parameter, then decide the
whole family: the parameters whose degree equations have solutions.

The family is settled by a divisor argument, not by a scan.  With
mu = |4n - 1| (odd, at least 3) and c = -chi(F) for the fiber surface F,
cases 1, 2 and 4 have bases that do not depend on n, and the degree
equations of cases 3 and 5 read

    case 3, disk with cones {2, 2, mu}:  d = c*mu/(mu - 1) = c + c/(mu - 1)
    case 5, disk with cones {2, mu}:     d = 2c*mu/(mu - 2) = 2c + 4c/(mu - 2)

so d is an integer only if (mu - 1) | c, respectively (mu - 2) | 4c.  Each
odd mu >= 3 that these divisors leave is checked with the five-case analysis.

Example:
    python3 scripts/case_table.py --n 1
"""

import argparse
import sys

from prismvol import fiber_surface, frac_str, prism_case_analysis
from prismvol.cli import integer_arg


def print_case_table(n: int) -> None:
    results = prism_case_analysis(n)  # a degenerate n is refused before any output
    print(f"five-case analysis for n = {n} (fiber: genus 2, one boundary circle)")
    header = f"{'case':>4}  {'base orbifold':<40}  {'chi_orb':>8}  {'degrees':<10}  chi-only"
    print(header)
    for r in results:
        b = r.orbifold
        kind = "orientable" if b.orientable else "non-orientable"
        cones = ",".join(map(str, b.cones)) if b.cones else "-"
        base = f"{kind} g={b.genus} b={b.boundary} cones {cones}"
        degrees = ",".join(map(str, r.degrees)) or "-"
        chi_only = ",".join(map(str, r.chi_only_degrees)) or "-"
        print(f"{r.case:>4}  {base:<40}  {frac_str(r.chi_orb):>8}  {degrees:<10}  {chi_only}")


def _divisors(k: int) -> list[int]:
    return [q for q in range(1, k + 1) if k % q == 0]


def _parameter(mu: int) -> int:
    """The one n with |4n - 1| = mu, for odd mu."""
    return (mu + 1) // 4 if mu % 4 == 3 else (1 - mu) // 4


def decide_family() -> None:
    c = -fiber_surface().euler
    print(f"\nfamily decided by divisors (mu = |4n - 1| odd >= 3, c = -chi(F) = {c}):")
    # a base that does not depend on n has the same degrees for every n
    fixed = [r for r in prism_case_analysis(1) if r.case in (1, 2, 4)]
    shown = ", ".join(",".join(map(str, r.degrees)) or "-" for r in fixed)
    print(f"  cases 1, 2, 4 (bases independent of n): degrees {shown}")
    hits = [f"(d={d}, every n)" for r in fixed for d in r.degrees]
    for case, k, m in ((3, 1, c), (5, 2, 4 * c)):
        mus = [q + k for q in _divisors(m) if (q + k) % 2 and q + k >= 3]
        print(f"  case {case}: (mu - {k}) | {m} leaves odd mu >= 3 in {mus}")
        for mu in mus:
            n = _parameter(mu)
            result = prism_case_analysis(n)[case - 1]
            hits += [f"(d={d}, n={n})" for d in result.degrees]
    print(f"  family: {', '.join(hits) or 'no solutions'}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=integer_arg, default=1, help="family parameter")
    args = parser.parse_args(argv)
    try:
        print_case_table(args.n)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    decide_family()
    return 0


if __name__ == "__main__":
    sys.exit(main())
