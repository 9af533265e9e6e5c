"""Independent oracles and shared hypothesis strategies for the test suite.

Everything here is deliberately written with different algorithms and
different data representations than the package itself, so agreement between
the two is evidence and not tautology: homomorphisms are counted by filtering
raw tuples of dict-based permutations, Smith normal form is recomputed from
determinantal divisors (gcds of k-by-k minors), rank and determinant come
from Gaussian elimination over ``Fraction``, and slope enumeration is
checked against a plain window scan whose completeness follows from Cramer's
rule.  The H_1 of a knot's branched cover is read from the cellular chain
complex of the cover of the presentation complex, built from one brute-force
homomorphism, and the linking form of a lens space from the inverse, over
``Fraction``, of a star-shaped plumbing's intersection form.  Degrees over a
non-orientable base are checked over an orientation double cover built as an
orbifold, not by scaling chi_orb.  Degree equations
over the whole family are cross-checked by a bounded integrality scan of
affine ratios, and the Whitehead volume by Catalan's alternating series.
The ``prism verify`` table is rebuilt from the divisor rule alone.  Audit
rows are rebuilt the way the audit once built them, from the
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


def brute_homs(generators: int, relators, degree: int, transitive: bool = False):
    """Every homomorphism into S_degree, as a tuple of dict permutations, one
    per generator, by unpruned scan over all permutation tuples."""
    for assignment in itertools.product(_dict_perms(degree), repeat=generators):
        if not all(
            _word_fixes_everything(word, assignment, degree) for word in relators
        ):
            continue
        if transitive and len(_orbit_of_zero(assignment, degree)) != degree:
            continue
        yield assignment


def brute_hom_count(
    generators: int, relators, degree: int, transitive: bool = False
) -> int:
    """Representation count by unpruned scan over all permutation tuples."""
    return sum(1 for _ in brute_homs(generators, relators, degree, transitive))


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


# --- H_1 of a branched cover from its cellular chain complex -----------

def branched_cover_boundaries(relators, assignment, meridian: int):
    """The boundary maps d1 and d2, as lists of rows, of the cellular chain
    complex of a branched cover of a knot.

    The relators present the knot group, with generator ``meridian`` (1-based)
    a meridian, and ``assignment`` is a transitive homomorphism into S_d as
    ``brute_homs`` gives it.  The complex is the d-fold cover of the
    presentation complex with the branching disks glued in: one vertex per
    sheet; one edge per (generator, sheet), from sheet s to its image under
    the generator; one 2-cell per (relator, sheet), the relator's lift read
    from that sheet; and one 2-cell per cycle of the meridian's image, the lift
    of the meridian's power that closes up along the cycle."""
    degree = len(assignment[0])
    edges = len(assignment) * degree

    def lift(word, sheet: int) -> list[int]:
        row = [0] * edges
        for letter in word:
            perm = assignment[abs(letter) - 1]
            if letter > 0:
                row[(letter - 1) * degree + sheet] += 1
                sheet = perm[sheet]
            else:
                sheet = _invert_dict(perm)[sheet]
                row[(-letter - 1) * degree + sheet] -= 1
        return row

    d1 = [[0] * edges for _ in range(degree)]
    for g, perm in enumerate(assignment):
        for sheet in range(degree):
            d1[perm[sheet]][g * degree + sheet] += 1
            d1[sheet][g * degree + sheet] -= 1
    d2 = [lift(word, sheet) for word in relators for sheet in range(degree)]
    image, unseen = assignment[meridian - 1], set(range(degree))
    while unseen:
        cycle = [min(unseen)]
        while image[cycle[-1]] != cycle[0]:
            cycle.append(image[cycle[-1]])
        unseen -= set(cycle)
        d2.append(lift([meridian] * len(cycle), cycle[0]))
    return d1, d2


def h1_from_boundaries(d1: list[list[int]], d2: list[list[int]]) -> list[int]:
    """H_1 = ker d1 / im d2 as its nonzero divisors above 1, then a 0 per free
    summand: the torsion is that of coker d2, since C_1 / ker d1 is free, and
    the rank is the edges less the ranks of d1 and d2."""
    free = len(d1[0]) - rank_q(d1) - rank_q(d2)
    return [d for d in snf_diagonal_oracle(d2) if d > 1] + [0] * free


# --- the linking form of a star-shaped plumbing --------------------------

def plumbing_rows(central: int, arms: list[list[int]]) -> list[list[int]]:
    """The intersection form of a star-shaped plumbing: vertex 0 of weight
    ``central``, then each arm's weights as a chain whose first vertex is
    joined to vertex 0."""
    weights = [central] + [w for arm in arms for w in arm]
    rows = [[w if i == j else 0 for j in range(len(weights))] for i, w in enumerate(weights)]
    start = 1
    for arm in arms:
        for i in range(start, start + len(arm)):
            j = 0 if i == start else i - 1
            rows[i][j] = rows[j][i] = 1
        start += len(arm)
    return rows


def inverse_q(rows: list[list[int]]) -> list[list[Fraction]]:
    """The inverse of a nonsingular integer matrix, by Gauss-Jordan
    elimination over ``Fraction``."""
    n = len(rows)
    a = [[Fraction(x) for x in row] + unit for row, unit in zip(rows, identity_rows(n))]
    for col in range(n):
        top = next(i for i in range(col, n) if a[i][col] != 0)
        a[col], a[top] = a[top], a[col]
        a[col] = [x / a[col][col] for x in a[col]]
        for i in range(n):
            if i != col:
                a[i] = [x - a[i][col] * y for x, y in zip(a[i], a[col])]
    return [row[n:] for row in a]


def self_linking(rows: list[list[int]], vertex: int) -> tuple[int, Fraction]:
    """The order in H_1 = coker(rows) of the meridian of ``vertex`` and its
    self-linking, the diagonal entry of the inverse form: the meridian is
    rows^-1 times the vertex's unit vector, up to the image of ``rows``."""
    inverse = inverse_q(rows)
    return math.lcm(*(row[vertex].denominator for row in inverse)), inverse[vertex][vertex]


def linking_class(order: int, value: Fraction) -> int:
    """The least of +-u^2 q mod ``order``, over the units u, for a
    self-linking q/order: the same for every generator of a cyclic H_1, since
    another is u times it, and for both orientations."""
    q = value * order
    assert q.denominator == 1, "the self-linking of a generator has the order as denominator"
    units = [u for u in range(1, order) if math.gcd(u, order) == 1]
    return min(s * u * u * int(q) % order for u in units for s in (1, -1))


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


def orbifold_chi(b: Orbifold2D) -> Fraction:
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
    chi = orbifold_chi(b)
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
        chi = orbifold_chi(b)
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
    from prismvol import audit
    from prismvol.montesinos import is_lens_space_symbol
    from prismvol.seifert import prism_fibrations

    head = {
        "n": n,
        "upper_bound": audit.UPPER_BOUND.label,
        "upper_bound_value": audit.upper_bound_value(),
    }
    if abs(4 * n - 1) < 3:
        return {
            **head,
            "status": "excluded",
            "reason": f"degenerate parameter: |4n - 1| = {abs(4 * n - 1)} < 3",
        }
    analysis = case_report_oracle(n)
    status = "candidate-exceptional" if analysis["admits_horizontal"] else "conditional"
    unresolved = list(audit._NONEFFECTIVE_STEPS)
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
        "max_degree": audit._MAX_DEGREE,
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


def prism_table_oracle(n_from: int, n_to: int) -> str:
    """The ``prism verify`` table of [n_from, n_to] from the rule alone, with
    mu = |4n - 1|: mu < 3 is excluded; (mu - 2) | 12 is a candidate, whose one
    horizontal degree is case 5's d = 6 mu / (mu - 2); anything else is
    conditional.  The bound 2 V0 = 8 G comes from Catalan's series, and every
    row's degree cap is 3."""
    lines = [
        f"upper bound 2*V0 = {8 * catalan_alternating():.12f} (degree-2 certificate)",
        "    n  status                  horizontal d    twist-knot excluded  max degree",
    ]
    candidates = []
    for n in range(n_from, n_to + 1):
        mu = abs(4 * n - 1)
        if mu < 3:
            lines.append(f"{n:>5}  {'excluded':<22}  degenerate parameter: |4n - 1| = {mu} < 3")
            continue
        status, degree = "conditional", "none"
        if 12 % (mu - 2) == 0:
            candidates.append(n)
            status, degree = "candidate-exceptional", str(6 * mu // (mu - 2))
        lines.append(f"{n:>5}  {status:<22}  {degree:<14}  {'yes':<19}  3")
    lines.append("candidate exceptional: " + (", ".join(map(str, candidates)) or "none"))
    return "\n".join(lines) + "\n"


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
