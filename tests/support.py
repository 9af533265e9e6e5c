"""Independent oracles and shared hypothesis strategies for the test suite.

Everything here is deliberately written with different algorithms and
different data representations than the package itself, so agreement between
the two is evidence and not tautology: homomorphisms are counted by filtering
raw tuples of dict-based permutations, Smith normal form is recomputed from
determinantal divisors (gcds of k-by-k minors), rank and determinant come
from Gaussian elimination over ``Fraction``, and slope enumeration is
checked against a plain window scan whose completeness follows from Cramer's
rule.  Degrees over a non-orientable base are checked over an orientation
double cover built as an orbifold, not by scaling chi_orb.  Degree equations
over the whole family are cross-checked by a bounded integrality scan of
affine ratios, and the Whitehead volume by Catalan's alternating series.
Audit rows are rebuilt the way the audit once built them, from the
fibrations and the lens-space test, with a five-case report over the bases
that ``remove_fiber`` drills out of the fibrations, chi_orb from its
definition and the degrees by exact division; ``expand`` puts the audit's
header and one record back into such a row.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable

from hypothesis import strategies as st

from prismvol import MontesinosLink, Orbifold2D, Slope, SeifertSymbol, delta
from prismvol import seifert as seifert_mod


# --- permutations as dicts, composed pointwise ---------------------------

def _dict_perms(degree: int) -> list[dict[int, int]]:
    return [
        {i: image[i] for i in range(degree)}
        for image in itertools.permutations(range(degree))
    ]


def _invert_dict(p: dict[int, int]) -> dict[int, int]:
    return {v: k for k, v in p.items()}


def _word_fixes_everything(word, assignment, degree: int) -> bool:
    for start in range(degree):
        x = start
        for letter in word:
            perm = assignment[abs(letter) - 1]
            x = perm[x] if letter > 0 else _invert_dict(perm)[x]
        if x != start:
            return False
    return True


def _orbit_of_zero(assignment, degree: int) -> set[int]:
    orbit = {0}
    changed = True
    while changed:
        changed = False
        for perm in assignment:
            for x in list(orbit):
                for y in (perm[x], _invert_dict(perm)[x]):
                    if y not in orbit:
                        orbit.add(y)
                        changed = True
    return orbit


def brute_hom_count(
    generators: int, relators, degree: int, transitive: bool = False
) -> int:
    """Representation count by unpruned scan over all permutation tuples."""
    count = 0
    for assignment in itertools.product(_dict_perms(degree), repeat=generators):
        if not all(
            _word_fixes_everything(word, assignment, degree) for word in relators
        ):
            continue
        if transitive and len(_orbit_of_zero(assignment, degree)) != degree:
            continue
        count += 1
    return count


# --- Smith normal form via determinantal divisors ------------------------

def identity_rows(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def matmul_rows(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    """The product of two matrices given as lists of rows."""
    return [[sum(x * y for x, y in zip(row, column)) for column in zip(*b)] for row in a]


def det_int(rows: list[list[int]]) -> int:
    """Integer determinant by Laplace expansion (fine for the sizes tested)."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1 :] for row in rows[1:]]
        total += (-1) ** j * rows[0][j] * det_int(minor)
    return total


def snf_diagonal_oracle(rows: list[list[int]]) -> list[int]:
    """Invariant factors from gcds of k-by-k minors: s_k = d_k / d_{k-1}."""
    height, width = len(rows), len(rows[0])
    k_max = min(height, width)
    out = []
    previous = 1
    for k in range(1, k_max + 1):
        minors_gcd = 0
        for row_idx in itertools.combinations(range(height), k):
            for col_idx in itertools.combinations(range(width), k):
                sub = [[rows[i][j] for j in col_idx] for i in row_idx]
                minors_gcd = math.gcd(minors_gcd, abs(det_int(sub)))
        if minors_gcd == 0:
            out.extend([0] * (k_max - k + 1))
            break
        out.append(minors_gcd // previous)
        previous = minors_gcd
    return out


# --- rank and determinant by Gaussian elimination over the rationals -----

def _fraction_pivots(rows: list[list[int]]) -> tuple[list[Fraction], int]:
    """Row-echelon pivots over Q, and the sign of the row swaps made."""
    a = [[Fraction(x) for x in row] for row in rows]
    pivots: list[Fraction] = []
    sign = 1
    for col in range(len(a[0])):
        top = len(pivots)
        below = [i for i in range(top, len(a)) if a[i][col] != 0]
        if not below:
            continue
        if below[0] != top:
            a[top], a[below[0]] = a[below[0]], a[top]
            sign = -sign
        for i in range(top + 1, len(a)):
            factor = a[i][col] / a[top][col]
            a[i] = [x - factor * y for x, y in zip(a[i], a[top])]
        pivots.append(a[top][col])
    return pivots, sign


def rank_q(rows: list[list[int]]) -> int:
    """Rank over the rationals; polynomial, unlike the minors behind
    ``snf_diagonal_oracle``."""
    return len(_fraction_pivots(rows)[0])


def det_q(rows: list[list[int]]) -> int:
    """Determinant of a square integer matrix by Gaussian elimination over
    the rationals; reaches sizes that Laplace ``det_int`` cannot."""
    if any(len(row) != len(rows) for row in rows):
        raise ValueError("determinant of a non-square matrix")
    pivots, sign = _fraction_pivots(rows)
    if len(pivots) < len(rows):
        return 0
    value = sign * math.prod(pivots)
    if value.denominator != 1:
        raise ArithmeticError("integer matrix with a non-integer determinant")
    return int(value)


# --- complete slope window scan ------------------------------------------

def cramer_window(f: Slope, c: Slope, k1: int, k2: int) -> int:
    """Coordinate bound for every solution slope, from solving the two
    intersection forms for (p, q) by Cramer's rule (the forms' determinant is
    a nonzero integer, so dividing by it only shrinks)."""
    return k1 * (abs(c.p) + abs(c.q)) + k2 * (abs(f.p) + abs(f.q)) + 1


def window_scan(f: Slope, c: Slope, k1: int, k2: int, window: int) -> list[Slope]:
    found = []
    for q in range(window + 1):
        p_values = [1] if q == 0 else range(-window, window + 1)
        for p in p_values:
            if math.gcd(abs(p), q) != 1:
                continue
            alpha = Slope(p, q)
            if delta(f, alpha) == k1 and delta(c, alpha) <= k2:
                found.append(alpha)
    return sorted(found, key=lambda a: (a.p, a.q))


def enumerate_slopes_oracle(f: Slope, c: Slope, k1: int, k2: int) -> list[Slope]:
    return window_scan(f, c, k1, k2, cramer_window(f, c, k1, k2))


# --- field operations on rationals ---------------------------------------

_BINARY_OPS: dict[str, Callable[[Fraction, Fraction], Fraction]] = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "div": lambda a, b: a / b,
}


def rational_arith(a: Fraction, b: Fraction, op: str) -> Fraction:
    """Apply one of the four field operations; ``div`` by zero raises."""
    if op not in _BINARY_OPS:
        raise ValueError(f"unknown operation {op!r}; expected one of {sorted(_BINARY_OPS)}")
    a, b = Fraction(a), Fraction(b)
    if op == "div" and b == 0:
        raise ZeroDivisionError("rational division by zero")
    return _BINARY_OPS[op](a, b)


# --- bounded integrality scan of affine ratios ----------------------------

@dataclass(frozen=True)
class AffineRatio:
    """The function ``x -> (a*x + b) / (c*x + d)`` with rational coefficients.

    Calling it returns an exact ``Fraction``, or ``None`` where the
    denominator vanishes (the function has no value there).
    """

    a: Fraction
    b: Fraction
    c: Fraction
    d: Fraction

    def __post_init__(self) -> None:
        for name in ("a", "b", "c", "d"):
            object.__setattr__(self, name, Fraction(getattr(self, name)))
        if self.c == 0 and self.d == 0:
            raise ValueError("denominator is identically zero")

    def __call__(self, x: int) -> Fraction | None:
        den = self.c * x + self.d
        if den == 0:
            return None
        return (self.a * x + self.b) / den


def bounded_diophantine(
    f: Callable[[int], Fraction | None],
    domain: Iterable[int],
    value_filter: Callable[[int], bool] | None = None,
) -> list[tuple[int, int]]:
    """All ``(x, f(x))`` with ``x`` in ``domain`` and ``f(x)`` an integer.

    ``f`` is any callable returning an exact rational, or ``None`` at a pole;
    pole points are skipped (the function takes no value there).  An optional
    ``value_filter`` keeps only integer values it accepts.  The domain must be
    finite; callers supply whatever bound their problem justifies.
    """
    out: list[tuple[int, int]] = []
    for x in domain:
        value = f(x)
        if value is None:
            continue
        value = Fraction(value)
        if value.denominator != 1:
            continue
        n = int(value)
        if value_filter is None or value_filter(n):
            out.append((x, n))
    return out


# --- orbifolds -----------------------------------------------------------

def orientation_double_cover(b: Orbifold2D) -> Orbifold2D:
    """Orientation double cover of a non-orientable orbifold, built as an
    orbifold: the underlying surface with g cross-caps and m boundary circles
    lifts to the orientable surface of genus g - 1 with 2m boundary circles,
    and every cone point has two preimages of the same index.  Solving over
    it and doubling checks the package's non-orientable rule, which only
    scales chi_orb."""
    if b.orientable:
        raise ValueError("the orbifold is already orientable")
    return Orbifold2D(
        orientable=True,
        genus=b.genus - 1,
        boundary=2 * b.boundary,
        cones=b.cones + b.cones,
    )


# --- twist knots --------------------------------------------------------

def wn_link(m: int) -> MontesinosLink:
    """Two-tangle Montesinos data for the m-twist knot: tangles 1/2 and
    m/(2m + 1), stored with positive alpha.  Its double branched cover is a
    lens space for every m, which is why the audit never builds it."""
    a = 2 * m + 1
    tangle = (m, a) if a > 0 else (-m, -a)
    return MontesinosLink(0, ((1, 2), tangle))


# --- audit rows ----------------------------------------------------------

def _fiber_index(symbol, alpha):
    return next(i for i, (_, a) in enumerate(symbol.fibers) if a == alpha)


def derived_bases(n: int) -> list[Orbifold2D]:
    """The five bases of the case analysis, in case order, by drilling fibers
    out of ``prism_fibrations(n)``."""
    oo, on = seifert_mod.prism_fibrations(n)
    mu = abs(4 * n - 1)
    return [
        seifert_mod.remove_fiber(on, _fiber_index(on, 2)),
        seifert_mod.remove_fiber(on, "regular"),
        seifert_mod.remove_fiber(oo, "regular"),
        seifert_mod.remove_fiber(oo, _fiber_index(oo, mu)),
        seifert_mod.remove_fiber(oo, _fiber_index(oo, 2)),
    ]


# chi of the family's fiber, the genus-2 surface with one boundary circle
_FIBER_CHI = 2 - 2 * 2 - 1


def _orbifold_chi(b: Orbifold2D) -> Fraction:
    """chi(underlying surface) - sum over cones of (1 - 1/index)."""
    surface = 2 - (2 if b.orientable else 1) * b.genus - b.boundary
    return Fraction(surface) - sum(1 - Fraction(1, index) for index in b.cones)


def _oracle_degrees(b: Orbifold2D) -> tuple[list[int], list[int]]:
    """Degrees d with chi(F) = d * chi_orb(b) that every cone index divides,
    and all of them; a non-orientable base is solved over its orientation
    double cover, and the degrees doubled."""
    if not b.orientable:
        degrees, chi_only = _oracle_degrees(orientation_double_cover(b))
        return [2 * d for d in degrees], [2 * d for d in chi_only]
    chi = _orbifold_chi(b)
    if chi == 0:  # chi(F) = -3 is not 0 * d
        return [], []
    d = _FIBER_CHI / chi
    if d.denominator != 1 or d <= 0:
        return [], []
    d = int(d)
    return ([d] if all(d % index == 0 for index in b.cones) else []), [d]


def case_report_oracle(n: int) -> dict:
    """``case_analysis_report(n)`` rebuilt from the bases that ``remove_fiber``
    drills out of the fibrations, with chi_orb from its definition and the
    degrees from an exact division, not by the package's degree solver."""
    cases = []
    for case, b in enumerate(derived_bases(n), start=1):
        chi = _orbifold_chi(b)
        degrees, chi_only = _oracle_degrees(b)
        cases.append({
            "case": case,
            "orbifold": {
                "orientable": b.orientable,
                "genus": b.genus,
                "boundary": b.boundary,
                "cones": list(b.cones),
            },
            "chi_orb": f"{chi.numerator}/{chi.denominator}",
            "degrees": degrees,
            "chi_only_degrees": chi_only,
        })
    return {
        "n": n,
        "cases": cases,
        "admits_horizontal": any(case["degrees"] for case in cases),
    }


def audit_row_oracle(n: int) -> dict:
    """The audit row of parameter n as the audit built it before its rows
    were in closed form: the twist-knot verdict from the lens-space test on
    ``prism_fibrations(n)[0]``, the cases from ``case_report_oracle(n)``, not
    from the closed form the audit embeds."""
    from prismvol import covers
    from prismvol.montesinos import is_lens_space_symbol
    from prismvol.seifert import prism_fibrations

    head = {
        "n": n,
        "upper_bound": covers.UPPER_BOUND.label,
        "upper_bound_value": covers.upper_bound_value(),
    }
    if abs(4 * n - 1) < 3:
        return {
            **head,
            "status": "excluded",
            "reason": f"degenerate parameter: |4n - 1| = {abs(4 * n - 1)} < 3",
        }
    analysis = case_report_oracle(n)
    status = "candidate-exceptional" if analysis["admits_horizontal"] else "conditional"
    unresolved = list(covers._NONEFFECTIVE_STEPS)
    if status == "candidate-exceptional":
        degrees = sorted(d for case in analysis["cases"] for d in case["degrees"])
        unresolved.insert(
            0,
            "periodic monodromy admits a horizontal genus-2 fiber candidate "
            f"at degrees {degrees}",
        )
    return {
        **head,
        "twist_knot_excluded": not is_lens_space_symbol(prism_fibrations(n)[0]),
        "case_analysis": analysis,
        "max_degree": covers._MAX_DEGREE,
        "status": status,
        "unresolved_steps": unresolved,
    }


def expand(header: dict, record: dict) -> dict:
    """The whole row that the audit wrote per parameter before it wrote one
    header and one record each, put together from ``header`` and ``record``.
    Cases 3 and 5 come from ``case_report_oracle``, with the record's mu as
    their last cone and the record's degrees, none where it lists no case."""
    n = record["n"]
    row = {
        "n": n,
        "upper_bound": header["upper_bound"],
        "upper_bound_value": record["upper_bound_value"],
    }
    if record["status"] == "excluded":
        return {**row, "status": "excluded", "reason": record["reason"]}
    fixed = dict(zip((1, 2, 4), header["fixed_cases"]))
    listed = {case["case"]: case for case in record.get("cases", [])}
    cases = []
    for case in case_report_oracle(n)["cases"]:
        number = case["case"]
        if number in fixed:
            cases.append(fixed[number])
            continue
        found = listed.get(number, {"degrees": [], "chi_only_degrees": []})
        cones = case["orbifold"]["cones"][:-1] + [record["mu"]]
        cases.append({
            **case,
            "orbifold": {**case["orbifold"], "cones": cones},
            "degrees": found["degrees"],
            "chi_only_degrees": found["chi_only_degrees"],
        })
    degrees = sorted(d for case in cases for d in case["degrees"])
    unresolved = list(header["unresolved_steps"])
    if degrees:
        unresolved.insert(
            0,
            "periodic monodromy admits a horizontal genus-2 fiber candidate "
            f"at degrees {degrees}",
        )
    return {
        **row,
        "twist_knot_excluded": header["twist_knot_excluded"],
        "case_analysis": {
            "n": n,
            "cases": cases,
            "admits_horizontal": any(case["degrees"] for case in cases),
        },
        "max_degree": header["max_degree"],
        "status": record["status"],
        "unresolved_steps": unresolved,
    }


# --- Catalan's constant ----------------------------------------------------

def catalan_alternating(levels: int = 60) -> float:
    """Catalan's constant from sum_k (-1)^k / (2k+1)^2.

    The raw series converges too slowly to be useful, so the partial sums are
    Euler-accelerated by repeated adjacent averaging; 60 levels give full
    double precision.
    """
    partial = []
    total = 0.0
    for k in range(levels + 1):
        total += (-1.0) ** k / (2 * k + 1) ** 2
        partial.append(total)
    while len(partial) > 1:
        partial = [(x + y) / 2.0 for x, y in zip(partial, partial[1:])]
    return partial[0]


# --- hypothesis strategies -------------------------------------------------

def slope_pairs_st(max_entry: int = 8):
    raw = st.tuples(
        st.integers(-max_entry, max_entry), st.integers(-max_entry, max_entry)
    )
    return raw.filter(
        lambda t: t != (0, 0) and math.gcd(abs(t[0]), abs(t[1])) == 1
    ).map(lambda t: Slope(*t))


def fiber_pairs_st(max_alpha: int = 9, max_beta: int = 9):
    return st.tuples(
        st.integers(-max_beta, max_beta), st.integers(1, max_alpha)
    ).filter(lambda pair: math.gcd(pair[0], pair[1]) == 1)


def symbols_st(max_fibers: int = 4):
    def build(draw_class, genus, fibers):
        if draw_class == seifert_mod.ON:
            genus = max(genus, 1)
        return SeifertSymbol(draw_class, genus, tuple(fibers))

    return st.builds(
        build,
        st.sampled_from([seifert_mod.OO, seifert_mod.ON]),
        st.integers(0, 3),
        st.lists(fiber_pairs_st(), min_size=1, max_size=max_fibers),
    )


def oo_symbols_st(max_fibers: int = 4):
    return st.builds(
        lambda genus, fibers: SeifertSymbol(seifert_mod.OO, genus, tuple(fibers)),
        st.integers(0, 2),
        st.lists(fiber_pairs_st(), min_size=1, max_size=max_fibers),
    )


def relator_words_st(generators: int, max_len: int = 6):
    letters = st.sampled_from(
        [i for i in range(-generators, generators + 1) if i != 0]
    )
    return st.lists(letters, min_size=0, max_size=max_len).map(tuple)


def presentations_st(max_generators: int = 2, max_relators: int = 2):
    return st.integers(1, max_generators).flatmap(
        lambda g: st.builds(
            lambda relators: (g, tuple(relators)),
            st.lists(relator_words_st(g), min_size=0, max_size=max_relators),
        )
    )
