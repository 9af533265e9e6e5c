"""Exact integer and rational arithmetic.

Everything downstream (Euler numbers, orbifold Euler characteristics, degree
equations, homology presentations) is decided by exact comparisons, so this
module never touches floating point.  Rationals are stdlib
``fractions.Fraction`` values: always stored reduced, denominator positive.
The module itself computes with integers only and imports ``fractions`` in
``frac_str``, so a command that never renders a rational (``seifert h1``)
never loads it.

``elementary_divisors`` gives the Smith normal form diagonal, computed modulo
a determinant.  ``smith_normal_form`` adds the unimodular transforms; it is
kept as the transform oracle for the tests and is not exported.
"""

from __future__ import annotations

import math

from .reader import Record, check


def frac_str(q: Fraction | int) -> str:
    """Render an exact ``int`` or ``Fraction`` as ``p/q`` with positive
    denominator (``0`` -> ``0/1``); anything else, a ``bool`` or ``float``
    included, is refused, not coerced."""
    from fractions import Fraction

    if type(q) is not Fraction and type(q) is not int:
        raise ValueError(f"frac_str needs an int or a Fraction, got {type(q).__name__}")
    return f"{q.numerator}/{q.denominator}"


def extended_gcd(a: int, b: int) -> tuple[int, int, int]:
    """Return ``(g, x, y)`` with ``g = gcd(a, b) >= 0`` and ``x*a + y*b = g``."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        old_r, old_x, old_y = -old_r, -old_x, -old_y
    return old_r, old_x, old_y


class IntMatrix(Record):
    """Immutable integer matrix, entries stored row-major."""

    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        check(self.rows, int, "rows")
        check(self.cols, int, "cols")
        if self.rows < 1 or self.cols < 1:
            raise ValueError("matrix dimensions must be positive")
        entries = check(self.entries, [int], "entries")
        if len(entries) != self.rows * self.cols:
            raise ValueError(f"expected {self.rows * self.cols} entries, got {len(entries)}")
        object.__setattr__(self, "entries", entries)

    @classmethod
    def from_rows(cls, rows: list[list[int]]) -> "IntMatrix":
        """Rows are lists or tuples: a dict or a generator is refused, not iterated."""
        rows = check(rows, [[int]], "rows")
        if not rows:
            raise ValueError("matrix needs at least one row")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ValueError("ragged rows")
        return cls(len(rows), width, tuple(x for r in rows for x in r))

    def to_rows(self) -> list[list[int]]:
        return [
            list(self.entries[i * self.cols : (i + 1) * self.cols])
            for i in range(self.rows)
        ]


def smith_normal_form(m: IntMatrix) -> tuple[list[int], tuple[IntMatrix, IntMatrix]]:
    """Diagonalize ``m`` over the integers.

    Returns ``(diagonal, (U, V))`` where ``U @ m @ V`` is diagonal with
    non-negative entries, each entry divides the next, zeros trail, and both
    transforms are unimodular (determinant +-1).  Classic Euclidean pivoting:
    row and column operations shrink the pivot until it divides its whole row,
    column, and trailing block.
    """
    R, C = m.rows, m.cols
    a = m.to_rows()
    u = [[int(i == j) for j in range(R)] for i in range(R)]
    v = [[int(i == j) for j in range(C)] for i in range(C)]

    def swap_rows(i: int, j: int) -> None:
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def add_row(src: int, dst: int, k: int) -> None:
        a[dst] = [x + k * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x + k * y for x, y in zip(u[dst], u[src])]

    def swap_cols(i: int, j: int) -> None:
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_col(src: int, dst: int, k: int) -> None:
        for row in a:
            row[dst] += k * row[src]
        for row in v:
            row[dst] += k * row[src]

    def negate_row(i: int) -> None:
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    for t in range(min(R, C)):
        # seed with the smallest-magnitude nonzero entry of the trailing block
        pivot = None
        for i in range(t, R):
            for j in range(t, C):
                if a[i][j] and (pivot is None or abs(a[i][j]) < abs(a[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        if pivot[0] != t:
            swap_rows(t, pivot[0])
        if pivot[1] != t:
            swap_cols(t, pivot[1])

        while True:
            # Euclid-reduce column t below the pivot
            progressed = True
            while progressed:
                progressed = False
                for i in range(t + 1, R):
                    if a[i][t]:
                        add_row(t, i, -(a[i][t] // a[t][t]))
                        if a[i][t]:  # nonzero remainder becomes the smaller pivot
                            swap_rows(t, i)
                            progressed = True
            # Euclid-reduce row t; a column swap can dirty the cleared column
            column_dirtied = False
            for j in range(t + 1, C):
                if a[t][j]:
                    add_col(t, j, -(a[t][j] // a[t][t]))
                    if a[t][j]:
                        swap_cols(t, j)
                        column_dirtied = True
                        break
            if column_dirtied:
                continue
            # divisibility of the trailing block; fold an offender into row t
            offender = None
            for i in range(t + 1, R):
                if any(a[i][j] % a[t][t] for j in range(t + 1, C)):
                    offender = i
                    break
            if offender is None:
                break
            add_row(offender, t, 1)  # column t stays clear: a[offender][t] == 0
        if a[t][t] < 0:
            negate_row(t)

    diagonal = [a[i][i] for i in range(min(R, C))]
    return diagonal, (IntMatrix.from_rows(u), IntMatrix.from_rows(v))


def _first_nonzero(a: list[list[int]], t: int) -> tuple[int, int] | None:
    """Position of a nonzero entry in the block of rows and columns >= t."""
    for i in range(t, len(a)):
        for j in range(t, len(a[i])):
            if a[i][j]:
                return i, j
    return None


def _move_to_corner(a: list[list[int]], t: int, at: tuple[int, int]) -> None:
    i, j = at
    a[t], a[i] = a[i], a[t]
    for row in a:
        row[t], row[j] = row[j], row[t]


def _rank_and_minor(m: IntMatrix) -> tuple[int, int]:
    """Rank r of ``m`` and one nonzero r-by-r minor (1 when r = 0).

    Fraction-free Bareiss elimination with full pivoting: after step t the
    pivot is the leading (t+1)-by-(t+1) minor of the permuted matrix, every
    division is exact, and no entry exceeds a minor of ``m`` in size.
    """
    a = m.to_rows()
    previous = 1
    for t in range(min(m.rows, m.cols)):
        at = _first_nonzero(a, t)
        if at is None:
            return t, previous
        _move_to_corner(a, t, at)
        pivot, pivot_row = a[t][t], a[t]
        for row in a[t + 1 :]:
            head = row[t]
            for j in range(t + 1, m.cols):
                row[j] = (pivot * row[j] - head * pivot_row[j]) // previous
        previous = pivot
    return min(m.rows, m.cols), previous


def elementary_divisors(m: IntMatrix) -> list[int]:
    """The Smith normal form diagonal of ``m``, without the transforms.

    Returns the same list as ``smith_normal_form(m)[0]``: non-negative, each
    entry dividing the next, zeros trailing.  Works modulo |Delta|, where
    Delta is a nonzero r-by-r minor and r the rank (Cohen, *A Course in
    Computational Algebraic Number Theory*, Alg. 2.4.14), so no entry grows
    past |Delta|.  The nonzero invariant factors multiply to the gcd of all
    r-by-r minors, which divides Delta; so any diagonalization modulo |Delta|
    has entries whose gcds with |Delta|, put in divisibility order, are those
    factors followed by ``min(rows, cols) - r`` copies of |Delta|, and the
    copies are the zeros.
    """
    rank, minor = _rank_and_minor(m)
    modulus = abs(minor)
    a = [[x % modulus for x in row] for row in m.to_rows()]
    size = min(m.rows, m.cols)
    diagonal = []
    for t in range(size):
        at = _first_nonzero(a, t)
        if at is None:
            break
        _move_to_corner(a, t, at)
        # Each pass that dirties column t again has strictly lowered the
        # pivot (a positive integer below modulus), so the loop ends.
        column_dirty = True
        while column_dirty:
            for i in range(t + 1, m.rows):
                if a[i][t]:
                    a[t], a[i] = _combine(a[t], a[i], t, modulus)
            for j in range(t + 1, m.cols):
                if a[t][j]:
                    column_t, column_j = _combine(
                        [row[t] for row in a], [row[j] for row in a], t, modulus
                    )
                    for row, x, y in zip(a, column_t, column_j):
                        row[t], row[j] = x, y
            column_dirty = any(row[t] for row in a[t + 1 :])
        diagonal.append(a[t][t])
    diagonal.extend([0] * (size - len(diagonal)))

    factors = [math.gcd(d, modulus) for d in diagonal]
    for i in range(size):
        for j in range(i + 1, size):
            factors[i], factors[j] = (
                math.gcd(factors[i], factors[j]),
                math.lcm(factors[i], factors[j]),
            )
    return factors[:rank] + [0] * (size - rank)


def _combine(
    lead: list[int], other: list[int], t: int, modulus: int
) -> tuple[list[int], list[int]]:
    """Two lines (rows or columns) of a matrix over Z/modulus, replaced by a
    unimodular combination that leaves ``other[t]`` zero and ``lead[t]`` the
    gcd of the two.

    When the pivot ``lead[t]`` already divides ``other[t]`` only ``other``
    changes, so the pivot's row and column stay as they were; an
    extended-gcd step there may return x = 0 and swap the lines instead,
    and elimination would then never settle.
    """
    p, b = lead[t], other[t]
    if b % p == 0:
        q = b // p
        return lead, [(y - q * x) % modulus for x, y in zip(lead, other)]
    g, x, y = extended_gcd(p, b)
    u, v = p // g, b // g
    return (
        [(x * s + y * o) % modulus for s, o in zip(lead, other)],
        [(u * o - v * s) % modulus for s, o in zip(lead, other)],
    )
