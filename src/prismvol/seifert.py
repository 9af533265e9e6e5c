"""Seifert symbols over closed base orbifolds.

A symbol is written (class, genus; beta_1/alpha_1, ..., beta_r/alpha_r) where
``class`` is "Oo" (orientable total space, orientable base) or "On"
(orientable total space, non-orientable base), ``genus`` counts handles of an
orientable base or cross-caps of a non-orientable one, and each fiber pair
(beta, alpha) has alpha >= 1 and gcd(beta, alpha) = 1.  Pairs with alpha = 1
are integer terms, not exceptional fibers.

Conventions fixed here:

* Euler number:  e = -sum(beta_i / alpha_i).  It is an invariant of the
  fibration and is preserved by normalization.
* Normal form:  every exceptional beta reduced into [0, alpha), the excess
  collected into a single trailing integer term (b, 1), exceptional pairs
  sorted by (alpha, beta).

Only ``euler_number`` computes with rationals; it imports ``fractions``
itself, so normalizing a symbol or computing its homology never loads it.

``prism_fibrations(n)`` returns the two fibrations carried by the prism
manifold with parameter n (defined whenever |4n - 1| >= 3): one over a
sphere with three exceptional fibers, one over a projective plane with a
single index-2 fiber.
"""

from __future__ import annotations

import math

from . import exact, orbifolds
from .reader import Record, check

OO = "Oo"
ON = "On"


class UnsupportedBaseClass(ValueError):
    """Raised when an operation does not cover the symbol's base class."""


def check_pairs(pairs, field: str, item: str) -> tuple[tuple[int, int], ...]:
    """``pairs`` checked as ``[(int, int)]``, with alpha >= 1 and
    gcd(beta, alpha) = 1; a refusal names ``field`` or ``item``."""
    checked = check(pairs, [(int, int)], field)
    for beta, alpha in checked:
        if alpha < 1:
            raise ValueError(f"{item} ({beta}, {alpha}): alpha must be >= 1")
        if math.gcd(beta, alpha) != 1:
            raise ValueError(f"{item} ({beta}, {alpha}) is not reduced")
    return checked


class SeifertSymbol(Record):
    base_class: str
    genus: int
    fibers: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.base_class not in (OO, ON):
            raise ValueError(f"base class must be {OO!r} or {ON!r}, got {self.base_class!r}")
        check(self.genus, int, "genus")
        if self.genus < 0:
            raise ValueError("genus must be non-negative")
        if self.base_class == ON and self.genus < 1:
            raise ValueError("a non-orientable base needs at least one cross-cap")
        object.__setattr__(self, "fibers", check_pairs(self.fibers, "fibers", "fiber pair"))

    def to_json(self) -> dict:
        return {
            "class": self.base_class,
            "genus": self.genus,
            "fibers": [[beta, alpha] for beta, alpha in self.fibers],
        }


def symbol_from_json(data: object) -> SeifertSymbol:
    fields = {"class": str, "genus": int, "fibers": [(int, int)]}
    return SeifertSymbol(*check(data, fields, "symbol"))


def normalize(s: SeifertSymbol) -> SeifertSymbol:
    """Canonical form of a symbol.

    Exceptional pairs are reduced to 0 <= beta < alpha and sorted by
    (alpha, beta); all integer excess lands in one trailing (b, 1) term,
    which is always present.  Idempotent, and preserves the Euler number.
    """
    excess = 0
    exceptional = []
    for beta, alpha in s.fibers:
        if alpha == 1:
            excess += beta
            continue
        reduced = beta % alpha
        excess += (beta - reduced) // alpha
        exceptional.append((reduced, alpha))
    exceptional.sort(key=lambda pair: (pair[1], pair[0]))
    return SeifertSymbol(s.base_class, s.genus, tuple(exceptional) + ((excess, 1),))


def euler_number(s: SeifertSymbol) -> Fraction:
    """e = -sum(beta/alpha), exact."""
    from fractions import Fraction

    return -sum((Fraction(beta, alpha) for beta, alpha in s.fibers), Fraction(0))


def base_orbifold(s: SeifertSymbol) -> orbifolds.Orbifold2D:
    """The closed base orbifold: one cone of index alpha per fiber with alpha >= 2."""
    return orbifolds.Orbifold2D(
        orientable=s.base_class == OO,
        genus=s.genus,
        boundary=0,
        cones=tuple(alpha for _, alpha in s.fibers if alpha >= 2),
    )


def remove_fiber(s: SeifertSymbol, which: int | str) -> orbifolds.Orbifold2D:
    """Base orbifold after drilling one fiber out of the total space.

    Removing a fibered solid-torus neighborhood punches one open disk out of
    the base.  ``which`` is either the string "regular" (the cone multiset is
    unchanged) or the index of an exceptional fiber in ``s.fibers`` (its cone
    point disappears along with the fiber).
    """
    closed = base_orbifold(s)
    cones = list(closed.cones)
    if which != "regular":
        if type(which) is not int:
            raise ValueError("which must be 'regular' or a fiber index")
        if not 0 <= which < len(s.fibers):
            raise IndexError(f"fiber index {which} out of range")
        alpha = s.fibers[which][1]
        if alpha < 2:
            raise ValueError(f"fiber {which} has alpha = 1 and is not exceptional")
        cones.remove(alpha)
    return orbifolds.Orbifold2D(
        orientable=closed.orientable,
        genus=closed.genus,
        boundary=1,
        cones=tuple(cones),
    )


def first_homology(s: SeifertSymbol) -> list[int]:
    """Elementary divisors of H_1 of the fibered space (orientable base only).

    Abelianized presentation: one generator x_i per fiber pair plus the
    regular fiber class h, relations alpha_i x_i + beta_i h = 0 and
    sum x_i = 0.  A genus-g base adds 2g free generators appearing in no
    relation, reported as trailing zeros.  Divisors equal to 1 are dropped;
    zeros mark free rank.
    """
    if s.base_class != OO:
        raise UnsupportedBaseClass(
            "first homology is implemented for the orientable base class only"
        )
    r = len(s.fibers)
    rows = []
    for i, (beta, alpha) in enumerate(s.fibers):
        row = [0] * (r + 1)
        row[i] = alpha
        row[r] = beta
        rows.append(row)
    rows.append([1] * r + [0])
    diagonal = exact.elementary_divisors(exact.IntMatrix.from_rows(rows))
    divisors = [d for d in diagonal if d != 1]
    divisors.extend([0] * (2 * s.genus))
    return divisors


def homology_order(divisors: list[int]) -> int | None:
    """Group order from a divisor list, or None when there is free rank."""
    if any(d == 0 for d in divisors):
        return None
    return math.prod(divisors)


def prism_fibrations(n: int) -> tuple[SeifertSymbol, SeifertSymbol]:
    """The two normalized fibrations of the prism manifold with parameter n.

    Defined whenever |4n - 1| >= 3.  The first is over the sphere with
    exceptional fibers 1/2, -1/2, -2/(4n-1) (stored with positive alpha),
    the second over the projective plane with the single fiber (4n-1)/2.
    The first has Euler number 2/(4n-1); both are returned in normal form,
    and the pair of normal forms is distinct for distinct n.
    """
    check(n, int, "n")
    m = 4 * n - 1
    if abs(m) < 3:
        raise ValueError(
            f"parameter n = {n} is degenerate: |4n - 1| = {abs(m)} < 3"
        )
    third = (-2, m) if m > 0 else (2, -m)
    over_sphere = SeifertSymbol(OO, 0, ((1, 2), (-1, 2), third))
    over_projective_plane = SeifertSymbol(ON, 1, ((m, 2),))
    return normalize(over_sphere), normalize(over_projective_plane)
