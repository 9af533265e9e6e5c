"""Branched-cover bookkeeping: representation counts, volume budgets, and the
per-parameter audit of the prism family.

The complexity of a cover is degree times the hyperbolic volume of the
branching-link complement.  The family's upper bound comes from the 2-fold
cover branched over a link whose complement is the Whitehead link exterior,
so the budget is twice that volume; combined with a floor below every
one-cusped hyperbolic volume, the budget caps the degree of any competing
cover at 3.

``count_representations`` counts homomorphisms of a finitely presented
group into the symmetric group S_d; degree-d covers of a knot complement
correspond to (conjugacy classes of) transitive such representations, so the
raw count is a finite upper bound for the covers of each degree.  One
low-index subgroup search (C. C. Sims, *Computation with Finitely Presented
Groups*, 1994, ch. 5) finds a_k, the number of subgroups of index k, for
every k <= d; the transitive count is t_d = (d - 1)! a_d, and the plain count
follows from t_1..t_d by Hall's recursion (P. Hall, Canad. J. Math. 1,
1949), so Hall's identity between the two holds by construction.  ``MAX_CELLS``
caps the coset table's size and ``MAX_NODES`` the calls to the search.

The audit of the family is one header, ``prism_header``, with every fact that
is the same for all n, made of constants and the three cases of the case
analysis that do not depend on n, and one short record per parameter, in
closed form in mu = |4n - 1|: ``prism_row_stream`` yields the records one at
a time, and ``prism_verify`` returns the whole document.
"""

from __future__ import annotations

import math
from collections.abc import Iterator

from . import orbifolds
from .reader import Record, check

MAX_CELLS = 512  # degree * 2 * generators: coset table size, search depth, Hall's terms
MAX_NODES = 200_000  # calls to the low-index search


class EnumerationTooLargeError(ValueError):
    """Raised instead of attempting a hopeless exhaustive enumeration."""


class GroupPresentation(Record):
    """Finitely presented group; relators are words of signed 1-based
    generator indices."""

    generators: int
    relators: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        check(self.generators, int, "generators")
        if self.generators < 1:
            raise ValueError("a presentation needs at least one generator")
        relators = check(self.relators, [[int]], "relators")
        for word in relators:
            for letter in word:
                if letter == 0 or abs(letter) > self.generators:
                    raise ValueError(
                        f"relator letter {letter} is out of range for "
                        f"{self.generators} generators"
                    )
        object.__setattr__(self, "relators", relators)

    def to_json(self) -> dict:
        return {
            "generators": self.generators,
            "relators": [list(word) for word in self.relators],
        }


def presentation_from_json(data: object) -> GroupPresentation:
    fields = {"generators": int, "relators": [[int]]}
    return GroupPresentation(*check(data, fields, "presentation"))


def _subgroup_counts(pres: GroupPresentation, degree: int) -> list[int]:
    """a_k, the number of subgroups of index k, at k = 0..degree (a_0 = 0).

    Sims' low-index search over standardised coset tables, with the deduction
    step of Holt, Eick and O'Brien (*Handbook of Computational Group Theory*,
    2005, section 5.4).  Column 2i is generator i + 1 and column 2i + 1 its
    inverse.  The first undefined entry in row-major order is filled with each
    existing coset whose inverse entry is free, or with the next new coset
    while there are fewer than ``degree``.  A new entry c -x-> t is settled:
    each rotation of each relator, and of its inverse, that starts with x is
    read from c, forwards and backwards.  A path read whole must return to c.
    A path with exactly one undefined entry forces that entry, which is set,
    pushed on the trail and settled in turn, unless the coset it must reach
    already has a preimage under that letter, and then the table is dropped.
    Deduced entries only point at existing cosets, so every table stays
    standardised and each subgroup is still found once.  A table with no
    undefined entry and k cosets is one subgroup of index k.
    """
    columns = 2 * pres.generators
    words = [tuple(2 * l - 2 if l > 0 else -2 * l - 1 for l in w) for w in pres.relators]
    words += [tuple(c ^ 1 for c in reversed(w)) for w in words]
    rotations: list[set[tuple[int, ...]]] = [set() for _ in range(columns)]
    for w in words:
        for i, c in enumerate(w):
            rotations[c].add(w[i:] + w[:i])
    # each rotation with its letters inverted, to read it backwards, and its last index
    starting = [[(w, tuple(c ^ 1 for c in w), len(w) - 1) for w in r] for r in rotations]
    table = [-1] * (degree * columns)
    trail: list[int] = []  # deduced entries, each followed by its inverse entry
    counts = [0] * (degree + 1)
    nodes = 0

    def settle(coset: int, column: int) -> bool:
        deduced = len(trail)
        while True:
            for word, inverse, last in starting[column]:
                ahead, i = coset, 0
                while i <= last and (point := table[ahead * columns + word[i]]) >= 0:
                    ahead, i = point, i + 1
                if i > last:
                    if ahead != coset:
                        return False
                    continue
                behind, j = coset, last
                while j > i and (point := table[behind * columns + inverse[j]]) >= 0:
                    behind, j = point, j - 1
                if j == i:
                    back = behind * columns + inverse[i]
                    if table[back] >= 0:
                        return False
                    entry = ahead * columns + word[i]
                    table[entry], table[back] = behind, ahead
                    trail.extend((entry, back))
            if deduced == len(trail):
                return True
            coset, column = divmod(trail[deduced], columns)
            deduced += 2

    def search(entry: int, cosets: int) -> None:
        nonlocal nodes
        if (nodes := nodes + 1) > MAX_NODES:
            raise EnumerationTooLargeError(
                f"the subgroup search into S_{degree} exceeds the limit of {MAX_NODES} nodes"
            )
        while entry < cosets * columns and table[entry] >= 0:
            entry += 1
        if entry == cosets * columns:
            counts[cosets] += 1
            return
        coset, column = divmod(entry, columns)
        paths = starting[column]
        backs = range(column ^ 1, min(cosets + 1, degree) * columns, columns)
        for target, back in enumerate(backs):
            if table[back] >= 0:
                continue
            mark = len(trail)
            table[entry], table[back] = target, coset
            if not paths or settle(coset, column):
                search(entry + 1, cosets + (target == cosets))
            table[entry] = table[back] = -1
            while len(trail) > mark:
                table[trail.pop()] = -1

    search(0, 1)
    return counts


def count_representations(
    pres: GroupPresentation, degree: int, transitive: bool = False
) -> int:
    """Number of homomorphisms into S_degree (optionally transitive ones).

    A transitive homomorphism is a subgroup of index d, the stabiliser of
    the first point, with one of (d - 1)! numberings of its other cosets, so
    t_d = (d - 1)! a_d; one low-index search (``_subgroup_counts``) gives
    every a_k with k <= d.  The plain count follows from t_1..t_d by Hall's
    recursion h_d = sum_k C(d-1, k-1) t_k h_{d-k}, h_0 = 1 (P. Hall, Canad.
    J. Math. 1, 1949), so Hall's identity between the two counts holds by
    construction and checks the recursion, not the search.

    Refuses before building anything when the table's degree * 2 * generators
    cells exceed ``MAX_CELLS``, which also bounds the search's depth (degree *
    generators frames) and Hall's degree * (degree + 1) / 2 terms; refuses
    mid-search once the search passes ``MAX_NODES`` calls.
    """
    check(degree, int, "degree")
    check(transitive, bool, "transitive")
    if degree < 1:
        raise ValueError("degree must be a positive integer")
    if degree == 1:
        return 1  # S_1 is trivial: one homomorphism, and it is transitive
    if (cells := degree * 2 * pres.generators) > MAX_CELLS:
        raise EnumerationTooLargeError(
            f"the coset table for S_{degree} has {cells} cells, over the limit of {MAX_CELLS}"
        )
    subgroups = _subgroup_counts(pres, degree)
    t = [math.factorial(k - 1) * subgroups[k] for k in range(1, degree + 1)]
    if transitive:
        return t[-1]
    h = [1]
    for n in range(1, degree + 1):
        h.append(sum(math.comb(n - 1, k - 1) * t[k - 1] * h[n - k] for k in range(1, n + 1)))
    return h[degree]


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
    """Largest integer p with p * floor strictly below the budget."""
    _require_volume("budget and floor must be positive", budget=budget, floor=floor)
    quotient = budget / floor
    if quotient == math.inf:
        raise ValueError(f"budget / floor overflows a float: {budget!r} / {floor!r}")
    p = math.floor(quotient)
    while p * floor >= budget:
        p -= 1
    return max(p, 0)


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
    """The records of ``prism_verify(n_from, n_to)``, one at a time; a non-int
    ``n_from`` or ``n_to`` is refused at the call."""
    check(n_from, int, "n_from")
    check(n_to, int, "n_to")
    return map(_record, range(n_from, n_to + 1))


def prism_verify(n_from: int, n_to: int) -> dict:
    """Audit every parameter in [n_from, n_to].

    The document is ``prism_header()``, one record per parameter under
    "reports", and the candidates' n under "candidate_exceptional".  A record
    holds n, the value of the 2-fold upper-bound certificate (budget 2*V0) and
    a status.  Parameters whose computable obstructions all vanish are
    "conditional" (the remaining steps are finite but not effective) and add
    mu; parameters where the case analysis finds a candidate degree are
    "candidate-exceptional" and add mu and the degrees of cases 3 and 5;
    degenerate parameters are "excluded" and add the reason.

    The records are held at once, so memory grows with the range; the command
    line writes ``prism_row_stream`` instead.
    """
    reports = list(prism_row_stream(n_from, n_to))
    return {
        "header": prism_header(),
        "reports": reports,
        "candidate_exceptional": [
            r["n"] for r in reports if r["status"] == "candidate-exceptional"
        ],
    }
