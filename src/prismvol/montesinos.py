"""Montesinos links and their double branched covers.

A Montesinos link is determined here by a genus g >= 0 and a list of
rational tangles beta/alpha.  Its double branched cover is a Seifert fibered
space read off directly from the data: over the sphere with the tangle
fractions as exceptional fibers when g = 0, over the non-orientable genus-g
surface otherwise.  Two-tangle data always covers to a lens space (an
orientable-base genus-0 symbol with at most two exceptional fibers), which is
what excludes twist knots as branching sets for the prism family.
"""

from __future__ import annotations

from . import seifert
from .reader import Record, read, require_int


class MontesinosLink(Record):
    genus: int
    tangles: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        require_int(genus=self.genus)
        if self.genus < 0:
            raise ValueError("genus must be non-negative")
        tangles = seifert.check_pairs(self.tangles, "tangles", "tangle")
        if not tangles:
            raise ValueError("a Montesinos link needs at least one tangle")
        object.__setattr__(self, "tangles", tangles)

    def to_json(self) -> dict:
        return {
            "genus": self.genus,
            "tangles": [[beta, alpha] for beta, alpha in self.tangles],
        }


def link_from_json(data: object) -> MontesinosLink:
    fields = {"genus": int, "tangles": [(int, int)]}
    return MontesinosLink(*read(data, "montesinos link", fields))


def double_branched_cover(link: MontesinosLink) -> seifert.SeifertSymbol:
    """Normalized Seifert symbol of the double cover branched over the link."""
    base_class = seifert.OO if link.genus == 0 else seifert.ON
    return seifert.normalize(seifert.SeifertSymbol(base_class, link.genus, link.tangles))


def is_lens_space_symbol(s: seifert.SeifertSymbol) -> bool:
    """Whether the symbol is a lens-space one: orientable base of genus 0
    with at most two exceptional fibers.  Read on the symbol as given:
    normalizing keeps the base class, the genus and every pair with
    alpha >= 2, and only merges the alpha = 1 terms."""
    exceptional = sum(1 for _, alpha in s.fibers if alpha >= 2)
    return s.base_class == seifert.OO and s.genus == 0 and exceptional <= 2


def ln_link(n: int) -> tuple[MontesinosLink, MontesinosLink]:
    """Two Montesinos presentations of the n-th branching link of the family.

    Defined for every integer n.  The double branched covers of the two
    presentations are the two prism fibrations whenever |4n - 1| >= 3 (checked
    by test_family_consistent_with_fibrations and acceptance criterion 6); for
    the other parameters the cover degenerates to a lens-space symbol.
    """
    require_int(n=n)
    m = 4 * n - 1
    third = (-2, m) if m > 0 else (2, -m)
    spherical = MontesinosLink(0, ((1, 2), (-1, 2), third))
    crosscap = MontesinosLink(1, ((m, 2),))
    return spherical, crosscap
