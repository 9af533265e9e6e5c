"""Volume budgets and the per-parameter audit of the prism family.

A cover's complexity is its degree times the volume of its branching-link
complement.  The family's bound is twice the Whitehead link exterior's volume,
from a 2-fold branched cover; over a floor below every one-cusped volume, it
caps a competing cover's degree at 3.  ``prism_header`` holds what is the same
for every n; ``prism_row_stream`` yields one record per n, in mu = |4n - 1|.
``prism_json`` and ``prism_table`` write the audit that ``prismvol prism verify``
prints, with ``--json`` and without, so the command line reads no record.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterator

from . import orbifolds
from .reader import Record, check


def _require_volume(refusal: str, **values: object) -> None:
    """Refuse any value that is not a finite, positive ``float`` or ``int`` by
    exact type (``True`` is not a volume): a wrong type or infinity names its
    argument, and a value that is not positive gets ``refusal``."""
    for name, value in values.items():
        if type(value) is not float and type(value) is not int:
            raise ValueError(f"{name} must be a float or an integer, got {value!r}")
    if not all(value > 0 for value in values.values()):
        raise ValueError(refusal)
    for name, value in values.items():
        if value == math.inf:
            raise ValueError(f"{name} must be finite, got {value!r}")


class VolumeConstant(Record):
    name: str
    value: float
    provenance: str

    def __post_init__(self) -> None:
        _require_volume("volume constants are positive", value=self.value)
        check(self.name, str, "name")
        check(self.provenance, str, "provenance")


WHITEHEAD_VOLUME = VolumeConstant(
    name="whitehead_link_exterior_volume",
    value=3.663862376708876,
    provenance=(
        "volume of the Whitehead link exterior, equal to 4 * Catalan; digits "
        "are checked against the Euler-accelerated alternating series in tests"
    ),
)

ONE_CUSP_VOLUME_FLOOR = VolumeConstant(
    name="one_cusp_volume_floor",
    value=2.0,
    provenance=(
        "a floor below the volume of every one-cusped hyperbolic 3-manifold; "
        "every conclusion in this package holds with this floor alone"
    ),
)

FIGURE_EIGHT_VOLUME = VolumeConstant(
    name="figure_eight_complement_volume",
    value=2.029883212819307,
    provenance=(
        "the smallest one-cusped hyperbolic volume, 4 * Lobachevsky(pi/6); a "
        "sharper floor than 2.0, checked by quadrature in tests, never load-bearing"
    ),
)


class CoverCertificate(Record):
    """A branched cover with known branching-complement volume.

    Genuine branched covers have degree >= 2; degree 1 is admitted as the
    identity certificate so complexity arithmetic stays total.
    """

    degree: int
    branch_volume: float
    label: str

    def __post_init__(self) -> None:
        check(self.degree, int, "degree")
        if self.degree < 1:
            raise ValueError("degree must be a positive integer")
        _require_volume("branch volume must be positive", branch_volume=self.branch_volume)
        check(self.label, str, "label")


def complexity(cert: CoverCertificate) -> float:
    """degree * branch volume; strictly monotone in both arguments."""
    return cert.degree * cert.branch_volume


def degree_bound_for_budget(budget: float, floor: float) -> int:
    """Largest integer p with p * floor strictly below the budget, exactly: with
    budget = a/b and floor = c/d, p * c/d < a/b is p * b * c <= a * d - 1."""
    _require_volume("budget and floor must be positive", budget=budget, floor=floor)
    a, b = budget.as_integer_ratio()
    c, d = floor.as_integer_ratio()
    return (a * d - 1) // (b * c)


UPPER_BOUND = CoverCertificate(2, WHITEHEAD_VOLUME.value, "2*V0")
# every record reports this bound, and the audit's header the degree cap it allows
_UPPER_BOUND_VALUE = round(complexity(UPPER_BOUND), 12)
_MAX_DEGREE = degree_bound_for_budget(complexity(UPPER_BOUND), ONE_CUSP_VOLUME_FLOOR.value)

_NONEFFECTIVE_STEPS = (
    "pseudo-Anosov monodromy: all but finitely many fillings are hyperbolic "
    "(Thurston Dehn surgery), exceptional slopes not enumerated",
    "reducible monodromy, hyperbolic piece: all but finitely many fillings "
    "keep the essential-torus complement hyperbolic, not enumerated",
    "reducible monodromy, fibered piece: candidate filling slopes are capped "
    "by the intersection-number constraints, not resolved slope by slope",
    "bounded-degree covers: finitely many covers of degree at most max_degree "
    "over the finite list of small-volume knot complements, not enumerated",
)

# cases 3 and 5 of the case analysis, which depend on n, in closed form
_DISK_CASES = (
    "mu = |4n - 1|; case 3 is the disk with cones 2, 2, mu and chi_orb (1 - mu)/mu, "
    "case 5 the disk with cones 2, mu and chi_orb (2 - mu)/(2 mu); a record lists "
    "their degrees and chi-only degrees only where it finds one, and there "
    "periodic monodromy admits a horizontal genus-2 fiber candidate"
)


def upper_bound_value() -> float:
    return _UPPER_BOUND_VALUE


def prism_header() -> dict:
    """The facts of the audit that are the same for every n, made of fresh dicts
    and lists: the bound and the degree cap it allows, the twist-knot exclusion,
    cases 1, 2 and 4 of the case analysis, the closed form of cases 3 and 5,
    and the steps that are finite but not effective."""
    return {
        "upper_bound": UPPER_BOUND.label,
        "max_degree": _MAX_DEGREE,
        # a twist knot's double branched cover is a lens space; the family's
        # sphere fibration has cones 2, 2, mu with mu >= 3, so it never is one
        "twist_knot_excluded": True,
        "fixed_cases": orbifolds.fixed_cases_report(),
        "disk_cases": _DISK_CASES,
        "unresolved_steps": list(_NONEFFECTIVE_STEPS),
    }


def _record(n: int) -> dict:
    """The record of parameter n, made of fresh dicts and lists.  By the
    divisor argument of ``orbifolds.disk_case_divisors``, cases 3 and 5 have
    a degree or a chi-only degree only where mu is in
    ``orbifolds.DISK_CASE_MUS``, so every other record with mu >= 3 is
    conditional without a solve.  A candidate lists cases 3 and 5 of
    ``orbifolds.prism_case_analysis(n)``, which runs only at n = -1 and 1,
    where every chi-only degree is also a degree."""
    mu = abs(4 * n - 1)
    if mu < 3:
        return {
            "n": n,
            "upper_bound_value": _UPPER_BOUND_VALUE,
            "status": "excluded",
            "reason": f"degenerate parameter: |4n - 1| = {mu} < 3",
        }
    if mu not in orbifolds.DISK_CASE_MUS:
        return {"n": n, "upper_bound_value": _UPPER_BOUND_VALUE, "status": "conditional", "mu": mu}
    return {
        "n": n,
        "upper_bound_value": _UPPER_BOUND_VALUE,
        "status": "candidate-exceptional",
        "mu": mu,
        "cases": [
            {
                "case": case.case,
                "degrees": list(case.degrees),
                "chi_only_degrees": list(case.chi_only_degrees),
            }
            for case in orbifolds.prism_case_analysis(n)[2::2]  # cases 3 and 5
        ],
    }


def prism_row_stream(n_from: int, n_to: int) -> Iterator[dict]:
    """The records of ``covers.prism_verify(n_from, n_to)``, one at a time; a non-int
    ``n_from`` or ``n_to`` is refused at the call."""
    check(n_from, int, "n_from")
    check(n_to, int, "n_to")
    return map(_record, range(n_from, n_to + 1))


def _listed(values: list[int]) -> str:
    return ", ".join(map(str, values)) or "none"


def prism_json(n_from: int, n_to: int) -> Iterator[str]:
    """What ``print(json.dumps(covers.prism_verify(n_from, n_to), indent=2))``
    writes, for the records of ``prism_row_stream(n_from, n_to)``, one at a
    time; the candidates are collected along the way.  Each value but a
    "conditional" record is ``json.dumps(value, indent=2)`` moved right to its
    depth (exact: ``json.dumps`` escapes every newline in a string); a
    conditional record is one f-string with its n and mu as its only gaps."""
    stream = prism_row_stream(n_from, n_to)
    value = json.dumps(_UPPER_BOUND_VALUE)
    header = json.dumps(prism_header(), indent=2).replace("\n", "\n  ")
    candidates = []
    yield f'{{\n  "header": {header},\n  "reports": ['
    separator, closing = "\n    ", "]"
    for record in stream:
        if record["status"] == "conditional":
            yield (
                f'{separator}{{\n      "n": {record["n"]},\n      "upper_bound_value": {value},'
                f'\n      "status": "conditional",\n      "mu": {record["mu"]}\n    }}'
            )
        else:
            if record["status"] == "candidate-exceptional":
                candidates.append(record["n"])
            yield separator + json.dumps(record, indent=2).replace("\n", "\n    ")
        separator, closing = ",\n    ", "\n  ]"
    listed = json.dumps(candidates, indent=2).replace("\n", "\n  ")
    yield f'{closing},\n  "candidate_exceptional": {listed}\n}}\n'


def prism_table(n_from: int, n_to: int) -> Iterator[str]:
    """The table of the records of ``prism_row_stream(n_from, n_to)``, one line
    at a time, each with its newline.  It reads the bound and the degree cap,
    not ``prism_header``, so a window without n = -1 or 1 solves no case."""
    stream = prism_row_stream(n_from, n_to)
    yield f"upper bound {UPPER_BOUND.label} = {_UPPER_BOUND_VALUE:.12f} (degree-2 certificate)\n"
    yield (
        f"{'n':>5}  {'status':<22}  {'horizontal d':<14}  "
        f"{'twist-knot excluded':<19}  max degree\n"
    )
    candidates = []
    for record in stream:
        if record["status"] == "excluded":
            yield f"{record['n']:>5}  {'excluded':<22}  {record['reason']}\n"
            continue
        degrees = sorted(d for case in record.get("cases", ()) for d in case["degrees"])
        if record["status"] == "candidate-exceptional":
            candidates.append(record["n"])
        # "yes": the header's twist_knot_excluded holds for every n
        yield (
            f"{record['n']:>5}  {record['status']:<22}  {_listed(degrees):<14}  "
            f"{'yes':<19}  {_MAX_DEGREE}\n"
        )
    yield f"candidate exceptional: {_listed(candidates)}\n"
