"""Compact 2-orbifolds, Riemann-Hurwitz accounting, and degree equations.

A closed or bounded 2-orbifold here is an underlying compact surface with a
finite multiset of cone points.  Its orbifold Euler characteristic is

    chi_orb = chi(underlying surface) - sum over cones of (1 - 1/index).

A horizontal surface F in a Seifert fibered space projects to the base
orbifold B as a branched cover whose local degree over a cone point equals
the cone index, which forces two conditions on the covering degree d:

    chi(F) = d * chi_orb(B),  and  every cone index divides d.

``horizontal_degree_solutions`` and ``nonorientable_base_solutions`` give
the degrees that meet both, and the "chi-only" degrees that meet the first.

``prism_case_analysis`` runs that degree equation for ``fiber_surface()``
over the five base orbifolds obtained by removing one fiber from either
fibration of the prism manifold with parameter n; three do not depend on n.
``case_analysis_report`` is its JSON.  The audit writes the three cases that
do not depend on n, ``fixed_cases_report``, once per call.  The other two, the
disks whose cones hold mu = |4n - 1|, are decided for every n by the divisor
argument of ``disk_case_divisors``: they have a degree or a chi-only degree
only where mu is in ``DISK_CASE_MUS``, and only there does the audit run
``prism_case_analysis``.
"""

from __future__ import annotations

import functools
import math

from .reader import Record, check


class InfiniteSolutionsError(ValueError):
    """Raised when a degree equation degenerates to 0 == d * 0."""


def _check_surface_fields(x: SurfaceData | Orbifold2D, what: str) -> None:
    # exact types, not coercion: True is not a genus and 2.5 is not a count
    check(x.orientable, bool, "orientable")
    check(x.genus, int, "genus")
    check(x.boundary, int, "boundary")
    if x.genus < 0 or x.boundary < 0:
        raise ValueError("genus and boundary count must be non-negative")
    if not x.orientable and x.genus < 1:
        raise ValueError(f"a non-orientable {what} needs at least one cross-cap")


def _euler(x: SurfaceData | Orbifold2D) -> int:
    """chi of the (underlying) surface: 2 - 2g - b, or 2 - g - b for g cross-caps."""
    return 2 - (2 if x.orientable else 1) * x.genus - x.boundary


class SurfaceData(Record):
    """A compact connected surface: genus, boundary circles, orientability.

    For non-orientable surfaces ``genus`` counts cross-caps.
    """

    genus: int
    boundary: int
    orientable: bool = True

    def __post_init__(self) -> None:
        _check_surface_fields(self, "surface")

    euler = property(_euler)

    def to_json(self) -> dict:
        return {
            "orientable": self.orientable,
            "genus": self.genus,
            "boundary": self.boundary,
            "euler": self.euler,
        }


class Orbifold2D(Record):
    """A compact 2-orbifold with cone singularities only.

    ``cones`` is the multiset of cone indices (each >= 2), stored sorted.
    """

    orientable: bool
    genus: int
    boundary: int
    cones: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        _check_surface_fields(self, "base")
        cones = check(self.cones, [int], "cones")
        if any(c < 2 for c in cones):
            raise ValueError("cones: cone indices must be integers >= 2")
        object.__setattr__(self, "cones", tuple(sorted(cones)))

    underlying_euler = property(_euler)

    def to_json(self) -> dict:
        return {
            "orientable": self.orientable,
            "genus": self.genus,
            "boundary": self.boundary,
            "cones": list(self.cones),
        }


def chi_orb(b: Orbifold2D) -> Fraction:
    """Orbifold Euler characteristic, exact: one ``Fraction`` over the least
    common multiple L of the cone indices, since chi(underlying) - k + sum 1/i
    over k cones is ((chi(underlying) - k) * L + sum L // i) / L."""
    from fractions import Fraction

    lcm = math.lcm(*b.cones)
    excess = sum(lcm // index for index in b.cones)
    return Fraction((b.underlying_euler - len(b.cones)) * lcm + excess, lcm)


def riemann_hurwitz_cover(
    base: SurfaceData, degree: int, branch_local_degrees: list[tuple[int, ...]]
) -> SurfaceData:
    """The surface that covers ``base`` with the given branching data.

    Each entry of ``branch_local_degrees`` is the multiset of local degrees
    over one branch point; it must partition ``degree``.  The cover's Euler
    characteristic is  degree * chi(base) - sum(local - 1).

    Local degrees alone do not determine boundary behavior in general, so the
    supported cases are exactly the ones with a forced answer:

    * degree 1 with no genuine branching (the identity);
    * degree 2 over an orientable base with at most one boundary circle and
      at least one genuine branch point.  Branch points have Z/2 monodromy,
      so over a one-boundary base the boundary preimage is connected iff the
      number of genuine branch points is odd, and over a closed base that
      number must be even for the cover to exist at all.
    """
    check(degree, int, "degree")
    if degree < 1:
        raise ValueError("degree must be a positive integer")
    branch = check(branch_local_degrees, [[int]], "branch_local_degrees")
    for point in branch:
        if any(local < 1 for local in point):
            raise ValueError(f"local degrees must be positive integers, got {point}")
        if sum(point) != degree:
            raise ValueError(
                f"local degrees {tuple(sorted(point))} do not partition the degree {degree}"
            )
    genuine = sum(1 for point in branch if len(point) < degree)
    total_defect = sum(local - 1 for point in branch for local in point)
    chi_cover = degree * base.euler - total_defect

    if degree == 1:
        return SurfaceData(base.genus, base.boundary, base.orientable)
    if not base.orientable:
        raise ValueError("covers of non-orientable bases are not supported here")
    if degree == 2:
        if genuine == 0:
            raise ValueError("an unbranched double cover is not determined by degree data")
        if base.boundary == 0:
            if genuine % 2:
                raise ValueError(
                    "no double cover of a closed surface has an odd number of branch points"
                )
            boundary = 0
        elif base.boundary == 1:
            boundary = 1 if genuine % 2 else 2
        else:
            raise ValueError(
                "double covers of multi-boundary bases need monodromy data"
            )
        # exact by the parity rules above (test_euler_equation_and_boundary_parity)
        return SurfaceData((2 - boundary - chi_cover) // 2, boundary, True)
    raise ValueError("degrees above 2 need monodromy data beyond local degrees")


def fiber_surface() -> SurfaceData:
    """The family's fiber: the genus-2 one-boundary surface, rebuilt from first
    principles as the double cover of the disk branched over five points."""
    disk = SurfaceData(genus=0, boundary=1, orientable=True)
    return riemann_hurwitz_cover(disk, 2, [(2,)] * 5)


def _degree_solutions(chi_f: int, num: int, den: int, cones) -> tuple[list[int], list[int]]:
    """Positive integer degrees d with chi_f == d * num/den, for any nonzero den,
    reduced or not: those that every cone index divides, and all of them, from
    one ``divmod`` of chi_f * den by num."""
    if num == 0:
        if chi_f == 0:
            raise InfiniteSolutionsError(
                "chi(F) = 0 = chi_orb(B): every degree solves the equation"
            )
        return [], []
    d, rest = divmod(chi_f * den, num)
    if rest or d <= 0:
        return [], []
    return ([] if any(d % index for index in cones) else [d]), [d]


def _solve(chi_f: int, b: Orbifold2D) -> tuple[Fraction, list[int], list[int]]:
    """chi_orb(b) and both degree lists of chi_f = d * chi_orb(b).  A non-orientable
    base is solved over its orientation double cover: g cross-caps and m
    boundary circles lift to genus g - 1 with 2m, each cone to two of its
    index, so chi_orb doubles over the same cones, and the degrees double."""
    chi = chi_orb(b)
    sheets = 1 if b.orientable else 2
    degrees, chi_only = _degree_solutions(
        chi_f, sheets * chi.numerator, chi.denominator, b.cones
    )
    return chi, [sheets * d for d in degrees], [sheets * d for d in chi_only]


def horizontal_degree_solutions(f: SurfaceData, b: Orbifold2D) -> tuple[list[int], list[int]]:
    """Positive integer degrees d with chi(f) == d * chi_orb(b), as two lists:
    those that every cone index also divides (the local degree over a cone
    point equals its index), and all of them.  When chi_orb(b) != 0 each list
    has at most one degree; when chi_orb(b) == 0 the equation is empty
    (chi(f) != 0) or met by every degree, and ``InfiniteSolutionsError`` is
    raised.  A branched cover of an orientable base is orientable, so a
    non-orientable ``f`` is refused.
    """
    if not b.orientable:
        raise ValueError(
            "base is non-orientable; use nonorientable_base_solutions"
        )
    if not f.orientable:
        raise ValueError("the covering surface must be orientable here")
    return _solve(f.euler, b)[1:]


def nonorientable_base_solutions(f: SurfaceData, b: Orbifold2D) -> tuple[list[int], list[int]]:
    """The two lists of ``horizontal_degree_solutions`` over a non-orientable base.

    An orientable cover factors through the orientation double cover, so the
    degrees over ``b`` are exactly twice the degrees over that cover, where
    each duplicated cone index must divide as usual.  (With all cone indices
    equal to 2 this is the even-degree constraint: the degree over the
    orientation cover itself must be even.)
    """
    if b.orientable:
        raise ValueError("base is orientable; use horizontal_degree_solutions")
    if not f.orientable:
        raise ValueError("the covering surface must be orientable here")
    return _solve(f.euler, b)[1:]


class CaseResult(Record):
    """One row of the five-case fiber-removal analysis."""

    case: int
    orbifold: Orbifold2D
    chi_orb: Fraction
    degrees: tuple[int, ...]
    chi_only_degrees: tuple[int, ...]

    def to_json(self) -> dict:
        return {
            "case": self.case,
            "orbifold": self.orbifold.to_json(),
            "chi_orb": f"{self.chi_orb.numerator}/{self.chi_orb.denominator}",
            "degrees": list(self.degrees),
            "chi_only_degrees": list(self.chi_only_degrees),
        }


def _solve_case(case: int, base: Orbifold2D, chi_f: int) -> CaseResult:
    """Degrees with chi_f = d * chi_orb(base), with and without cone divisibility."""
    chi, degrees, chi_only = _solve(chi_f, base)
    return CaseResult(case, base, chi, tuple(degrees), tuple(chi_only))


# chi(F) of the family's fiber
_FIBER_EULER = fiber_surface().euler


@functools.cache
def _fixed_case(case: int) -> CaseResult:
    """Case 1, 2 or 4, whose base does not depend on n, nor its result: solved
    on first use, so that loading the module builds no ``Fraction``."""
    bases = {1: (False, 1, 1, ()), 2: (False, 1, 1, (2,)), 4: (True, 0, 1, (2, 2))}
    return _solve_case(case, Orbifold2D(*bases[case]), _FIBER_EULER)


def fixed_cases_report() -> list[dict]:
    """``CaseResult.to_json`` of cases 1, 2 and 4, made of fresh dicts and lists."""
    return [_fixed_case(case).to_json() for case in (1, 2, 4)]


def prism_case_analysis(n: int) -> list[CaseResult]:
    """Degree equations over the five fiber-removed prism base orbifolds.

    Removing one fiber from either fibration of the prism manifold with
    parameter n leaves a fibered solid-torus complement over one of five
    bounded base orbifolds (mu = |4n - 1|):

      1. Moebius band, no cones        (cross-cap fibration, exceptional fiber)
      2. Moebius band, one cone {2}    (cross-cap fibration, regular fiber)
      3. disk, cones {2, 2, mu}        (orientable fibration, regular fiber)
      4. disk, cones {2, 2}            (orientable fibration, the mu fiber)
      5. disk, cones {2, mu}           (orientable fibration, an index-2 fiber)

    For each base the degree equation for ``fiber_surface()`` is solved with
    and without the cone-divisibility requirement; ``degrees`` is the honest
    solution set, ``chi_only_degrees`` drops divisibility so near-misses stay
    visible.  The bases are in closed form (tests derive them with ``remove_fiber``).

    Cases 1, 2 and 4 are solved on their first use, 3 and 5 per call, by
    ``_solve_case`` as an ``Orbifold2D`` with a ``Fraction`` chi_orb.  A
    non-integer or degenerate n is refused.
    """
    check(n, int, "n")
    mu = abs(4 * n - 1)
    if mu < 3:
        raise ValueError(f"parameter n = {n} is degenerate: |4n - 1| = {mu} < 3")
    return [
        _fixed_case(1),
        _fixed_case(2),
        _solve_case(3, Orbifold2D(True, 0, 1, (2, 2, mu)), _FIBER_EULER),
        _fixed_case(4),
        _solve_case(5, Orbifold2D(True, 0, 1, (2, mu)), _FIBER_EULER),
    ]


def disk_case_divisors() -> list[tuple[int, int, int, list[int]]]:
    """The divisor argument that decides cases 3 and 5 for every n at once,
    as one (case, k, m, mus) per case: the case has a degree or a chi-only
    degree exactly where (mu - k) | m, and mus lists the odd mu >= 3 that
    meet it.  With c = -chi(F), case 3 (chi_orb (1 - mu)/mu) needs the integer
    d = c mu/(mu - 1) = c + c/(mu - 1), so k = 1 and m = c; case 5 (chi_orb
    (2 - mu)/(2 mu)) needs d = 2c mu/(mu - 2) = 2c + 4c/(mu - 2), so k = 2
    and m = 4c."""
    c = -_FIBER_EULER
    return [
        (case, k, m, [q + k for q in range(1, m + 1) if m % q == 0 and (q + k) % 2 and q + k >= 3])
        for case, k, m in ((3, 1, c), (5, 2, 4 * c))
    ]


# the mu = |4n - 1| whose disk cases can have a degree or a chi-only degree
DISK_CASE_MUS = frozenset(mu for *_, mus in disk_case_divisors() for mu in mus)


def case_analysis_report(n: int) -> dict:
    """JSON-ready report of ``prism_case_analysis(n)``, made of fresh dicts and lists."""
    results = prism_case_analysis(n)
    return {
        "n": n,
        "cases": [r.to_json() for r in results],
        "admits_horizontal": any(r.degrees for r in results),
    }
