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
raw count is a finite upper bound for the covers of each degree.  The count
is a sum over the conjugacy classes K of S_d of |K| times the number of
homomorphisms that send the first generator to a fixed representative of K,
because conjugation permutes the homomorphisms.  Transitive counts are found
by the same enumeration, tuple by tuple, and not from the plain counts by
Hall's recursion (P. Hall, Canad. J. Math. 1, 1949): the recursion is what
checks the two against each other.

The audit of the family is one header, ``prism_header``, with every fact that
is the same for all n, made of constants and the three cases of the case
analysis that do not depend on n, and one short record per parameter, in
closed form in mu = |4n - 1|: ``prism_row_stream`` yields the records one at
a time, and ``prism_verify`` returns the whole document.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator

from . import orbifolds
from .reader import Record, check

MAX_ENUMERATION = 10**8


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


def _partitions(n: int, largest: int):
    """Partitions of n into parts of at most ``largest``, parts non-increasing."""
    if n == 0:
        yield ()
        return
    for part in range(min(n, largest), 0, -1):
        for rest in _partitions(n - part, part):
            yield (part,) + rest


def _conjugacy_classes(degree: int) -> list[tuple[tuple[int, ...], int]]:
    """One representative per conjugacy class of S_degree, with the class size.

    A class is a cycle type, a partition of ``degree``; its representative
    cycles consecutive points, and the class has d!/prod_k k^m_k m_k!
    elements when the type has m_k cycles of length k.
    """
    classes = []
    for parts in _partitions(degree, degree):
        image = []
        for length in parts:
            first = len(image)
            image += range(first + 1, first + length)
            image.append(first)
        centralizer = 1
        for length in set(parts):
            many = parts.count(length)
            centralizer *= length**many * math.factorial(many)
        classes.append((tuple(image), math.factorial(degree) // centralizer))
    return classes


def _fixes_every_point(word, images, degree: int) -> bool:
    """Whether each point comes back to itself when traced through the word,
    first letter first; ``images[letter]`` is the permutation that letter
    stands for.  Stops at the first point the word moves."""
    for start in range(degree):
        point = start
        for letter in word:
            point = images[letter][point]
        if point != start:
            return False
    return True


def _invert(p: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


def _is_transitive(assignment, degree: int) -> bool:
    seen = {0}
    frontier = [0]
    while frontier:
        x = frontier.pop()
        for g in assignment:
            y = g[x]
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return len(seen) == degree


def count_representations(
    pres: GroupPresentation, degree: int, transitive: bool = False
) -> int:
    """Number of homomorphisms into S_degree (optionally transitive ones).

    Conjugation by S_d permutes the homomorphisms and keeps transitivity, so
    the count with the first generator sent to a permutation depends only on
    its conjugacy class.  The first generator therefore runs over one
    representative per cycle type (p(d) branches instead of d!) and each
    branch is weighted by its class size; the other generators run over all
    of S_d, assigned one at a time, and a relator is checked point by point
    as soon as every generator it mentions is assigned.  Transitive
    homomorphisms are counted tuple by tuple under the same weights, not
    derived from the plain counts by Hall's recursion
    h_d = sum_k C(d-1, k-1) t_k h_{d-k}, so that the identity stays an
    independent check of the two counts.

    Refuses outright when the candidate-tuple count (degree!)^generators
    exceeds ``MAX_ENUMERATION``; the count is built one factor at a time and
    abandoned as soon as it passes the limit.
    """
    check(degree, int, "degree")
    check(transitive, bool, "transitive")
    if degree < 1:
        raise ValueError("degree must be a positive integer")
    if degree == 1:
        return 1  # S_1 is trivial: one homomorphism, and it is transitive
    tuples = 1
    for _ in range(pres.generators):
        for factor in range(2, degree + 1):
            tuples *= factor
            if tuples > MAX_ENUMERATION:
                raise EnumerationTooLargeError(
                    f"enumeration into S_{degree} over {pres.generators} generators "
                    f"exceeds the limit of {MAX_ENUMERATION} candidate tuples"
                )
    generators = pres.generators
    # a relator lands at the level of its largest generator; an empty relator
    # mentions none, lands at level 0 and holds for every assignment
    by_level: list[list[tuple[int, ...]]] = [[] for _ in range(generators + 1)]
    for word in pres.relators:
        by_level[max((abs(l) for l in word), default=0)].append(word)
    # images[k] and images[-k] are generator k and its inverse
    images: list[tuple[int, ...]] = [()] * (2 * generators + 1)
    # built only for a second generator: one generator never needs all of
    # S_d, which the guard allows up to 11! elements
    pairs = []
    if generators > 1:
        pairs = [(p, _invert(p)) for p in itertools.permutations(range(degree))]

    def completions(level: int) -> int:
        if level == generators:
            return int(not transitive or _is_transitive(images[1 : generators + 1], degree))
        found = 0
        for p, inverse in pairs:
            images[level + 1], images[-level - 1] = p, inverse
            if all(_fixes_every_point(w, images, degree) for w in by_level[level + 1]):
                found += completions(level + 1)
        return found

    count = 0
    for p, size in _conjugacy_classes(degree):
        images[1], images[-1] = p, _invert(p)
        if all(_fixes_every_point(w, images, degree) for w in by_level[1]):
            count += size * completions(1)
    return count


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
    """The record of parameter n, made of fresh dicts and lists.  A record that
    is neither excluded nor conditional lists the degrees of cases 3 and 5;
    ``orbifolds.disk_cases`` finds some only at n = -1 and 1, and there every
    chi-only degree is also a degree."""
    mu = abs(4 * n - 1)
    record = {"n": n, "upper_bound_value": _UPPER_BOUND_VALUE}
    if mu < 3:
        reason = f"degenerate parameter: |4n - 1| = {mu} < 3"
        return {**record, "status": "excluded", "reason": reason}
    found = orbifolds.disk_cases(n)
    if found is None:
        return {**record, "status": "conditional", "mu": mu}
    degrees_3, chi_only_3, degrees_5, chi_only_5 = found
    return {
        **record,
        "status": "candidate-exceptional",
        "mu": mu,
        "cases": [
            {"case": 3, "degrees": degrees_3, "chi_only_degrees": chi_only_3},
            {"case": 5, "degrees": degrees_5, "chi_only_degrees": chi_only_5},
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
