"""Branched-cover counting: representation counts of finitely presented groups.

``count_representations`` counts homomorphisms of a finitely presented
group into the symmetric group S_d; degree-d covers of a knot complement
correspond to (conjugacy classes of) transitive such representations, so the
raw count is a finite upper bound for the covers of each degree.  One
low-index subgroup search (C. C. Sims, *Computation with Finitely Presented
Groups*, 1994, ch. 5) finds a_k, the number of subgroups of index k, for
every k <= d; the transitive count is t_d = (d - 1)! a_d, and the plain count
follows from t_1..t_d by Hall's recursion (P. Hall, Canad. J. Math. 1,
1949), so Hall's identity between the two holds by construction.  ``MAX_CELLS``
caps the coset table's size and ``MAX_READS`` the entries the search reads.

``prism_verify`` puts the header and records of the layer ``audit`` into one
document; nothing else here reaches ``audit``, so a count never runs it.
"""

from __future__ import annotations

import math

from . import audit
from .reader import Record, check

MAX_CELLS = 512  # degree * 2 * generators: coset table size, search depth, Hall's terms
MAX_READS = 20_000_000  # coset-table entries the low-index search reads


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
    undefined entry and k cosets is one subgroup of index k.  Each word is
    stored once, as w + w and inverted, and read in place (O(L) data); the
    search is refused once it has read ``MAX_READS`` table entries.
    """
    columns = 2 * pres.generators
    words = [[2 * l - 2 if l > 0 else -2 * l - 1 for l in w] for w in pres.relators]
    words += [[c ^ 1 for c in reversed(w)] for w in words]
    starting: list[list] = [[] for _ in range(columns)]  # (w + w, inverted, first, last)
    for w in words:
        doubled, inverse = w + w, [c ^ 1 for c in w + w]
        for i, c in enumerate(w):
            starting[c].append((doubled, inverse, i, i + len(w) - 1))
    table = [-1] * (degree * columns)
    trail: list[int] = []  # deduced entries, each followed by its inverse entry
    counts, reads, limit = [0] * (degree + 1), 0, MAX_READS
    refusal = f"the subgroup search into S_{degree} exceeds the limit of {limit} table reads"

    def settle(coset: int, column: int) -> bool:
        nonlocal reads
        deduced = len(trail)
        while reads <= limit:
            for word, inverse, first, last in starting[column]:
                ahead, i = coset, first
                while i <= last and (point := table[ahead * columns + word[i]]) >= 0:
                    ahead, i = point, i + 1
                if i > last:
                    reads += i - first
                    if ahead != coset:
                        return False
                    continue
                behind, j = coset, last
                while j > i and (point := table[behind * columns + inverse[j]]) >= 0:
                    behind, j = point, j - 1
                reads += i - first + last - j + 2  # i - first + 1 forwards, last - j + 1 back
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
        raise EnumerationTooLargeError(refusal)

    def search(entry: int, cosets: int) -> None:
        nonlocal reads
        scanned = entry
        while entry < cosets * columns and table[entry] >= 0:
            entry += 1
        reads += entry - scanned
        if entry == cosets * columns:
            counts[cosets] += 1
            return
        coset, column = divmod(entry, columns)
        paths = starting[column]
        backs = range(column ^ 1, min(cosets + 1, degree) * columns, columns)
        if (reads := reads + 1 + len(backs)) > limit:  # the entry it stops at, and backs
            raise EnumerationTooLargeError(refusal)
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
    mid-search once the search has read ``MAX_READS`` table entries.
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


def prism_verify(n_from: int, n_to: int) -> dict:
    """Audit every parameter in [n_from, n_to].

    The document is ``audit.prism_header()``, one record per parameter under
    "reports", and the candidates' n under "candidate_exceptional".  A record
    holds n, the value of the 2-fold upper-bound certificate (budget 2*V0) and
    a status.  Parameters whose computable obstructions all vanish are
    "conditional" (the remaining steps are finite but not effective) and add
    mu; parameters where the case analysis finds a candidate degree are
    "candidate-exceptional" and add mu and the degrees of cases 3 and 5;
    degenerate parameters are "excluded" and add the reason.

    The records are held at once, so memory grows with the range; the command
    line's ``audit.prism_json`` writes the same JSON a record at a time.
    """
    reports = list(audit.prism_row_stream(n_from, n_to))
    return {
        "header": audit.prism_header(),
        "reports": reports,
        "candidate_exceptional": [
            r["n"] for r in reports if r["status"] == "candidate-exceptional"
        ],
    }
