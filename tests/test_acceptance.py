"""End-to-end acceptance suite.

Each test covers one numbered acceptance criterion, enforces that criterion's
runtime budget, and prints a single pass/fail line (visible under
``pytest -s``).  Every expected value here is either frozen from an
independent oracle in ``support`` or asserted against two internally
independent computations.
"""

import contextlib
import json
import math
import random
import subprocess
import sys
import time
from fractions import Fraction

from prismvol import (
    Orbifold2D,
    Slope,
    SurfaceData,
    closure_components,
    bennequin_chi,
    count_representations,
    double_branched_cover,
    enumerate_constrained_slopes,
    euler_number,
    fiber_surface,
    first_homology,
    homology_order,
    horizontal_degree_solutions,
    ln_link,
    nonorientable_base_solutions,
    prism_case_analysis,
    prism_fibrations,
    riemann_hurwitz_cover,
    twisted_torus_braid,
)
import pytest

from support import (
    AffineRatio,
    bounded_diophantine,
    brute_hom_count,
    enumerate_slopes_oracle,
)
from test_covers import HOPF, TREFOIL, UNKNOT

FIBER = fiber_surface()


@contextlib.contextmanager
def criterion(number: int, label: str, budget: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"criterion {number:2d} {label}: FAIL ({elapsed:.2f}s)")
        raise
    elapsed = time.perf_counter() - start
    verdict = "PASS" if elapsed < budget else "FAIL"
    print(f"criterion {number:2d} {label}: {verdict} ({elapsed:.2f}s, budget {budget:g}s)")
    assert elapsed < budget, (
        f"criterion {number} exceeded its runtime budget: "
        f"{elapsed:.2f}s >= {budget:g}s"
    )


def test_criterion_01_five_case_table():
    with criterion(1, "five-case chi table", 1.0):
        results = prism_case_analysis(1)
        assert [r.chi_orb for r in results] == [
            Fraction(0),
            Fraction(-1, 2),
            Fraction(-2, 3),
            Fraction(0),
            Fraction(-1, 6),
        ]
        assert [r.orbifold for r in results] == [
            Orbifold2D(False, 1, 1, ()),
            Orbifold2D(False, 1, 1, (2,)),
            Orbifold2D(True, 0, 1, (2, 2, 3)),
            Orbifold2D(True, 0, 1, (2, 2)),
            Orbifold2D(True, 0, 1, (2, 3)),
        ]


def test_criterion_02_regular_fiber_family_scan():
    with criterion(2, "three-cone disk family is empty", 1.0):
        in_family = lambda n: abs(4 * n - 1) >= 3
        # chi(F) = -3 = d * (-1 + 1/m) solved for the parameter, one branch
        # per sign of 4n - 1: n = (2d-3)/(4d-12) and n = -3/(4d-12)
        hits = []
        for ratio in (AffineRatio(2, -3, 4, -12), AffineRatio(0, -3, 4, -12)):
            hits += bounded_diophantine(ratio, range(1, 1001), value_filter=in_family)
        assert hits == []
        # independent divisor route: d = 3m/(m-1) integral needs (m-1) | 3,
        # and no odd cone index m >= 3 satisfies that
        assert [m for m in range(3, 2001, 2) if 3 % (m - 1) == 0] == []


def test_criterion_03_two_cone_disk_family_scan():
    with criterion(3, "two-cone disk family is {(18,1),(10,-1)}", 1.0):
        in_family = lambda n: abs(4 * n - 1) >= 3
        # chi(F) = -3 = d * (-1/2 + 1/m), branches n = (3d-6)/(4d-24)
        # and n = -(d+6)/(4d-24)
        positive = bounded_diophantine(
            AffineRatio(3, -6, 4, -24), range(1, 1001), value_filter=in_family
        )
        negative = bounded_diophantine(
            AffineRatio(-1, -6, 4, -24), range(1, 1001), value_filter=in_family
        )
        assert positive == [(18, 1)]
        assert negative == [(10, -1)]
        # both candidates pass cone divisibility on the actual base orbifolds
        assert horizontal_degree_solutions(FIBER, Orbifold2D(True, 0, 1, (2, 3)))[0] == [18]
        assert horizontal_degree_solutions(FIBER, Orbifold2D(True, 0, 1, (2, 5)))[0] == [10]
        # independent divisor route: d = 6 + 12/(m-2) integral needs (m-2) | 12;
        # the odd cone indices m >= 3 satisfying it are exactly 3 and 5
        assert [m for m in range(3, 2001, 2) if 12 % (m - 2) == 0] == [3, 5]


def test_criterion_04_crosscap_parity_exclusion():
    with criterion(4, "Moebius-with-cone case is empty", 1.0):
        base = Orbifold2D(False, 1, 1, (2,))
        assert nonorientable_base_solutions(FIBER, base)[0] == []


def test_criterion_05_riemann_hurwitz_fiber():
    with criterion(5, "double cover of disk over 5 points", 1.0):
        disk = SurfaceData(genus=0, boundary=1, orientable=True)
        cover = riemann_hurwitz_cover(disk, 2, [(2,)] * 5)
        assert cover == SurfaceData(genus=2, boundary=1, orientable=True)


def test_criterion_06_montesinos_consistency():
    with criterion(6, "branched covers match fibrations", 1.0):
        seen = set()
        for n in range(-20, 21):
            if abs(4 * n - 1) < 3:
                continue
            spherical, crosscap = ln_link(n)
            oo, on = prism_fibrations(n)
            assert double_branched_cover(spherical) == oo
            assert double_branched_cover(crosscap) == on
            assert euler_number(oo) == Fraction(2, 4 * n - 1)
            assert (oo, on) not in seen
            seen.add((oo, on))


def test_criterion_07_slope_finiteness():
    with criterion(7, "constrained slope enumeration vs oracle", 5.0):
        rng = random.Random(20260816)

        def draw_slope():
            while True:
                p, q = rng.randint(-8, 8), rng.randint(-8, 8)
                if (p, q) != (0, 0) and math.gcd(abs(p), abs(q)) == 1:
                    return Slope(p, q)

        for _ in range(200):
            f = draw_slope()
            c = draw_slope()
            while c == f:
                c = draw_slope()
            found = enumerate_constrained_slopes(f, c, 1, 2)
            assert len(found) <= 10
            assert found == enumerate_slopes_oracle(f, c, 1, 2), (f, c)


def test_criterion_08_braid_family():
    with criterion(8, "twisted torus braid family closes to knots", 1.0):
        for n in range(0, 101):
            assert closure_components(twisted_torus_braid(5, 5 * n + 1, 2, 1)) == 1
        assert bennequin_chi(twisted_torus_braid(5, 1, 2, 1)) == -1


def test_criterion_09_representation_counting():
    with criterion(9, "representation counts vs brute oracle", 5.0):
        for pres in (UNKNOT, HOPF, TREFOIL):
            for degree in (2, 3):
                assert count_representations(pres, degree) == brute_hom_count(
                    pres.generators, pres.relators, degree
                )
        start = time.perf_counter()
        trefoil_s3 = count_representations(TREFOIL, 3)
        assert time.perf_counter() - start < 1.0
        assert trefoil_s3 == 12
        from prismvol import EnumerationTooLargeError, GroupPresentation

        with pytest.raises(EnumerationTooLargeError):
            count_representations(GroupPresentation(3, ()), 10)


def test_criterion_10_pipeline():
    with criterion(10, "prism verify pipeline via CLI", 10.0):
        wide = subprocess.run(
            [
                sys.executable, "-m", "prismvol",
                "prism", "verify", "--from", "2", "--to", "50", "--json",
            ],
            capture_output=True,
            text=True,
            check=True,
        )
        payload = json.loads(wide.stdout)
        assert len(payload["reports"]) == 49
        assert payload["candidate_exceptional"] == []
        assert all(
            r["upper_bound_value"] == 7.327724753418 for r in payload["reports"]
        )
        narrow = subprocess.run(
            [
                sys.executable, "-m", "prismvol",
                "prism", "verify", "--from", "-1", "--to", "1", "--json",
            ],
            capture_output=True,
            text=True,
            check=True,
        )
        assert json.loads(narrow.stdout)["candidate_exceptional"] == [-1, 1]


def test_criterion_11_homology_order():
    with criterion(11, "first homology order 8 two ways", 1.0):
        for n in range(1, 21):
            oo, _ = prism_fibrations(n)
            assert homology_order(first_homology(oo)) == 8
            closed_form = abs(
                math.prod(alpha for _, alpha in oo.fibers) * euler_number(oo)
            )
            assert closed_form == 8
