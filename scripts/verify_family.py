#!/usr/bin/env python3
"""Audit a window of the prism family and summarize the verdicts.

Example:
    python3 scripts/verify_family.py --from -5 --to 25
"""

import argparse
import sys

from prismvol import prism_rows, upper_bound_value
from prismvol.cli import integer_arg


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--from", dest="n_from", type=integer_arg, default=-5)
    parser.add_argument("--to", dest="n_to", type=integer_arg, default=25)
    args = parser.parse_args(argv)
    if args.n_from > args.n_to:  # refused as ``prismvol prism verify`` refuses it
        print(
            f"error: --from {args.n_from} is greater than --to {args.n_to}; the range is empty",
            file=sys.stderr,
        )
        return 2

    by_status: dict[str, list[int]] = {}
    candidate_lines = []
    for row in prism_rows(args.n_from, args.n_to):
        by_status.setdefault(row["status"], []).append(row["n"])
        if row["status"] == "candidate-exceptional":
            degrees = sorted(
                d for case in row["case_analysis"]["cases"] for d in case["degrees"]
            )
            candidate_lines.append(
                f"candidate n = {row['n']}: horizontal fiber degrees {degrees}"
            )

    audited = sum(map(len, by_status.values()))
    print(f"parameters audited: {audited} (n from {args.n_from} to {args.n_to})")
    print(f"upper bound per parameter: 2*V0 = {upper_bound_value():.12f}")
    for status in ("conditional", "candidate-exceptional", "excluded"):
        values = by_status.get(status, [])
        shown = ", ".join(map(str, values)) if values else "none"
        print(f"  {status:<22} {len(values):>4}  {shown}")
    for line in candidate_lines:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
