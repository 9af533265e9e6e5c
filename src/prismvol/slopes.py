"""Slopes on a torus and constrained slope enumeration.

A slope is an isotopy class of essential simple closed curves on a torus,
i.e. a primitive integer pair (p, q) up to overall sign.  We store the
canonical representative with q > 0, or (1, 0) when q = 0.  The geometric
intersection number of two slopes is |p1*q2 - q1*p2|.

No preferred basis is assumed anywhere: every statement is invariant under a
common unimodular change of coordinates, and the enumeration below works in
an adapted basis that it builds itself.
"""

from __future__ import annotations

import math

from .reader import Record, check


class Slope(Record):
    p: int
    q: int

    def __post_init__(self) -> None:
        p, q = self.p, self.q
        check(p, int, "slope p")
        check(q, int, "slope q")
        if (p, q) == (0, 0):
            raise ValueError("(0, 0) is not a slope")
        if math.gcd(abs(p), abs(q)) != 1:
            raise ValueError(f"({p}, {q}) is not primitive")
        if q < 0 or (q == 0 and p < 0):
            object.__setattr__(self, "p", -p)
            object.__setattr__(self, "q", -q)

    def to_json(self) -> list[int]:
        return [self.p, self.q]


def delta(a: Slope, b: Slope) -> int:
    """Geometric intersection number of two slopes."""
    return abs(a.p * b.q - a.q * b.p)


def enumerate_constrained_slopes(f: Slope, c: Slope, k1: int, k2: int) -> list[Slope]:
    """All slopes alpha with delta(f, alpha) == k1 and delta(c, alpha) <= k2.

    The two constraints pin alpha down to finitely many classes as soon as
    f != c: extend f to a basis (f, e) of Z^2 by inverting f.p modulo f.q,
    so that in the new coordinates f = (1, 0) and the first constraint forces
    alpha' = (t, +-k1).  The second constraint then confines t to an interval
    of length 2*k2 / |delta(f, c)|, so each sign contributes at most 2*k2 + 1
    candidates and the output has at most 2*(2*k2 + 1) slopes
    (test_constraints_and_size_bound).
    """
    check(k1, int, "k1")
    check(k2, int, "k2")
    if k1 < 1:
        raise ValueError("k1 must be a positive intersection number")
    if k2 < 0:
        raise ValueError("k2 must be non-negative")
    if f == c:
        raise ValueError(
            "constraint slopes coincide; the constraints degenerate "
            "to an empty or infinite family"
        )

    # unimodular M = [[f.p, r], [f.q, s]] with det f.p*s - r*f.q = 1 maps (1,0) to f
    if f.q:  # s inverts f.p mod f.q, as slopes are primitive
        s = pow(f.p, -1, f.q)
        r = (f.p * s - 1) // f.q
    else:  # f = (1, 0)
        r, s = 0, 1
    # c in the new basis: c' = M^-1 c = (s*c.p - r*c.q, -f.q*c.p + f.p*c.q)
    c1 = s * c.p - r * c.q
    c2 = -f.q * c.p + f.p * c.q  # +-delta(f, c), nonzero as f != c

    found: set[Slope] = set()
    for eps in (1, -1):
        # |c1*eps*k1 - c2*t| <= k2 confines t to one integer interval
        lo_raw = c1 * eps * k1 - k2
        hi_raw = c1 * eps * k1 + k2
        if c2 > 0:
            lo, hi = -((-lo_raw) // c2), hi_raw // c2
        else:
            lo, hi = -((-hi_raw) // c2), lo_raw // c2
        for t in range(lo, hi + 1):
            if math.gcd(abs(t), k1) != 1:
                continue  # (t, eps*k1) must be primitive
            found.add(Slope(f.p * t + r * eps * k1, f.q * t + s * eps * k1))
    return sorted(found, key=lambda a: (a.p, a.q))
