import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prismvol import (
    InfiniteSolutionsError,
    DISK_CASE_MUS,
    Orbifold2D,
    SurfaceData,
    case_analysis_report,
    chi_orb,
    disk_case_divisors,
    horizontal_degree_solutions,
    nonorientable_base_solutions,
    prism_case_analysis,
    riemann_hurwitz_cover,
)
from prismvol.exact import frac_str
from prismvol.orbifolds import _chi, _degree_solutions
from support import case_report_oracle, orbifold_chi, orientation_double_cover

MOEBIUS = Orbifold2D(False, 1, 1)
DISK_2_2_3 = Orbifold2D(True, 0, 1, (2, 2, 3))
DISK_2_5 = Orbifold2D(True, 0, 1, (2, 5))

small_orbifolds_st = st.builds(
    lambda orientable, genus, boundary, cones: Orbifold2D(
        orientable, max(genus, 0 if orientable else 1), boundary, tuple(cones)
    ),
    st.booleans(),
    st.integers(0, 3),
    st.integers(0, 2),
    st.lists(st.integers(2, 6), max_size=3),
)


class TestSurfaceData:
    def test_euler_values(self):
        assert SurfaceData(2, 1).euler == -3
        assert SurfaceData(0, 2).euler == 0
        assert SurfaceData(2, 0, orientable=False).euler == 0  # Klein bottle
        assert SurfaceData(1, 1, orientable=False).euler == 0  # Moebius band

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            SurfaceData(-1, 0)
        with pytest.raises(ValueError):
            SurfaceData(0, -2)

    def test_nonorientable_needs_crosscap(self):
        with pytest.raises(ValueError):
            SurfaceData(0, 1, orientable=False)

    def test_json_shape(self):
        assert SurfaceData(2, 1).to_json() == {
            "orientable": True,
            "genus": 2,
            "boundary": 1,
            "euler": -3,
        }


class TestOrbifold2D:
    def test_cones_stored_sorted(self):
        assert Orbifold2D(True, 0, 0, (5, 2, 3)).cones == (2, 3, 5)

    def test_cone_index_one_rejected(self):
        with pytest.raises(ValueError):
            Orbifold2D(True, 0, 0, (2, 1))

    def test_non_integer_cone_rejected(self):
        with pytest.raises(ValueError):
            Orbifold2D(True, 0, 0, (2.5,))

    def test_nonorientable_needs_crosscap(self):
        with pytest.raises(ValueError):
            Orbifold2D(False, 0, 1, ())

    @given(st.booleans(), st.integers(0, 10**6), st.integers(0, 10**6))
    def test_underlying_euler_is_the_surface_euler(self, orientable, genus, boundary):
        genus += not orientable  # a non-orientable surface has a cross-cap
        assert (
            Orbifold2D(orientable, genus, boundary, ()).underlying_euler
            == SurfaceData(genus, boundary, orientable).euler
        )


class TestChiOrb:
    def test_moebius_band(self):
        assert chi_orb(MOEBIUS) == 0

    def test_disk_with_cones_2_2_3(self):
        assert chi_orb(DISK_2_2_3) == Fraction(-2, 3)

    def test_disk_with_cones_2_5(self):
        assert chi_orb(DISK_2_5) == Fraction(-3, 10)

    @given(small_orbifolds_st)
    def test_no_cones_gives_surface_euler(self, b):
        bare = Orbifold2D(b.orientable, b.genus, b.boundary, ())
        assert chi_orb(bare) == bare.underlying_euler

    @given(small_orbifolds_st)
    def test_each_cone_subtracts_its_defect(self, b):
        expected = Fraction(b.underlying_euler) - sum(
            1 - Fraction(1, c) for c in b.cones
        )
        assert chi_orb(b) == expected

    # large, mostly coprime indices: the common denominator has up to 72 digits
    @given(
        st.booleans(),
        st.integers(0, 3),
        st.integers(0, 2),
        st.lists(st.integers(2, 10**6), max_size=12),
    )
    def test_large_cones_against_the_fraction_sum(self, orientable, genus, boundary, cones):
        b = Orbifold2D(orientable, max(genus, 0 if orientable else 1), boundary, tuple(cones))
        expected = Fraction(b.underlying_euler) - sum(
            1 - Fraction(1, c) for c in b.cones
        )
        assert chi_orb(b) == expected


# small cones share factors, so the sum over their lcm often reduces; large
# ones give long denominators
orbifolds_st = st.builds(
    lambda orientable, genus, boundary, cones: Orbifold2D(
        orientable, max(genus, 0 if orientable else 1), boundary, tuple(cones)
    ),
    st.booleans(),
    st.integers(0, 4),
    st.integers(0, 3),
    st.lists(st.integers(2, 60) | st.integers(2, 10**6), max_size=8),
)


class TestIntegerChi:
    """The integer kernel ``_chi`` and what reads it, against the definition
    in ``support.orbifold_chi``, not against the package."""

    @given(orbifolds_st)
    def test_kernel_is_reduced_with_a_positive_denominator(self, b):
        num, den = _chi(b)
        assert type(num) is int and type(den) is int
        assert den > 0 and math.gcd(num, den) == 1
        assert Fraction(num, den) == orbifold_chi(b)

    @given(orbifolds_st)
    def test_chi_orb_is_the_fraction_of_the_kernel(self, b):
        value = chi_orb(b)
        assert type(value) is Fraction
        assert value == Fraction(*_chi(b)) == orbifold_chi(b)

    def test_case_result_chi_orb_is_derived_from_its_orbifold(self):
        checked = 0
        for n in range(-200, 201):
            if abs(4 * n - 1) < 3:
                continue
            for r in prism_case_analysis(n):
                chi = orbifold_chi(r.orbifold)
                assert r.chi_orb == chi_orb(r.orbifold) == chi, (n, r.case)
                assert r.to_json()["chi_orb"] == f"{chi.numerator}/{chi.denominator}", (n, r.case)
                checked += 1
        assert checked == 5 * 400


class TestRiemannHurwitzCover:
    def test_five_fully_branched_points_over_disk(self):
        cover = riemann_hurwitz_cover(SurfaceData(0, 1), 2, [(2,)] * 5)
        assert cover == SurfaceData(genus=2, boundary=1, orientable=True)
        assert cover.euler == -3

    def test_two_branched_points_give_annulus(self):
        cover = riemann_hurwitz_cover(SurfaceData(0, 1), 2, [(2,), (2,)])
        assert cover == SurfaceData(genus=0, boundary=2, orientable=True)

    def test_degree_one_is_identity(self):
        base = SurfaceData(3, 2)
        assert riemann_hurwitz_cover(base, 1, [(1,)]) == base

    def test_closed_base_even_branching(self):
        cover = riemann_hurwitz_cover(SurfaceData(0, 0), 2, [(2,)] * 4)
        assert cover == SurfaceData(genus=1, boundary=0, orientable=True)

    def test_bad_partition_rejected(self):
        with pytest.raises(ValueError, match="partition"):
            riemann_hurwitz_cover(SurfaceData(0, 1), 2, [(3,)])

    def test_nonpositive_local_degree_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            riemann_hurwitz_cover(SurfaceData(0, 1), 2, [(0, 2)])

    def test_closed_base_odd_branching_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            riemann_hurwitz_cover(SurfaceData(0, 0), 2, [(2,)] * 3)

    def test_multi_boundary_base_rejected(self):
        with pytest.raises(ValueError, match="monodromy"):
            riemann_hurwitz_cover(SurfaceData(0, 2), 2, [(2,)])

    def test_nonorientable_base_rejected(self):
        with pytest.raises(ValueError, match="non-orientable"):
            riemann_hurwitz_cover(SurfaceData(1, 1, orientable=False), 2, [(2,)])

    def test_degree_three_rejected(self):
        with pytest.raises(ValueError, match="monodromy"):
            riemann_hurwitz_cover(SurfaceData(0, 1), 3, [(3,)])

    def test_unbranched_double_cover_rejected(self):
        with pytest.raises(ValueError, match="unbranched"):
            riemann_hurwitz_cover(SurfaceData(0, 1), 2, [(1, 1)])

    @given(
        st.integers(0, 3),
        st.integers(0, 1),
        st.integers(1, 6),
        st.integers(0, 3),
    )
    @settings(max_examples=120)
    def test_euler_equation_and_boundary_parity(
        self, genus, boundary, genuine, trivial
    ):
        if boundary == 0:
            genuine *= 2  # closed bases only admit evenly many branch points
        base = SurfaceData(genus, boundary)
        branch = [(2,)] * genuine + [(1, 1)] * trivial
        cover = riemann_hurwitz_cover(base, 2, branch)
        assert cover.orientable
        assert cover.euler == 2 * base.euler - genuine
        if boundary == 1:
            assert cover.boundary == (1 if genuine % 2 else 2)
        else:
            assert cover.boundary == 0


class TestOrientationDoubleCover:
    """The oracle in ``support`` that the non-orientable solver is checked against."""

    def test_moebius_with_cone(self):
        assert orientation_double_cover(
            Orbifold2D(False, 1, 1, (2,))
        ) == Orbifold2D(True, 0, 2, (2, 2))

    def test_moebius_band(self):
        assert orientation_double_cover(MOEBIUS) == Orbifold2D(True, 0, 2, ())

    def test_projective_plane_with_cone(self):
        assert orientation_double_cover(
            Orbifold2D(False, 1, 0, (3,))
        ) == Orbifold2D(True, 0, 0, (3, 3))

    def test_orientable_input_rejected(self):
        with pytest.raises(ValueError, match="already orientable"):
            orientation_double_cover(DISK_2_5)

    @given(small_orbifolds_st.filter(lambda b: not b.orientable))
    def test_doubles_chi_orb(self, b):
        assert chi_orb(orientation_double_cover(b)) == 2 * chi_orb(b)


class TestHorizontalDegreeSolutions:
    fiber = SurfaceData(2, 1)  # euler -3

    def test_zero_chi_base_nonzero_fiber(self):
        assert horizontal_degree_solutions(self.fiber, Orbifold2D(True, 0, 1, (2, 2))) == ([], [])

    def test_unique_solution_with_divisibility(self):
        assert horizontal_degree_solutions(self.fiber, Orbifold2D(True, 0, 1, (2, 3))) == (
            [18],
            [18],
        )

    def test_non_integer_ratio(self):
        assert horizontal_degree_solutions(self.fiber, DISK_2_2_3) == ([], [])

    def test_divisibility_can_kill_the_chi_solution(self):
        fiber = SurfaceData(1, 2)  # euler -2, candidate degree 3 over chi -2/3
        assert horizontal_degree_solutions(fiber, DISK_2_2_3) == ([], [3])

    def test_sign_mismatch(self):
        assert horizontal_degree_solutions(self.fiber, Orbifold2D(True, 0, 1, ())) == ([], [])

    def test_both_chi_zero_is_degenerate(self):
        with pytest.raises(InfiniteSolutionsError):
            horizontal_degree_solutions(SurfaceData(0, 2), Orbifold2D(True, 0, 1, (2, 2)))

    def test_nonorientable_base_redirected(self):
        with pytest.raises(ValueError, match="nonorientable_base_solutions"):
            horizontal_degree_solutions(self.fiber, MOEBIUS)

    def test_nonorientable_fiber_rejected(self):
        # the chi equation alone reads 6 here, but no such cover exists: a
        # branched cover of an orientable orbifold is orientable
        fiber = SurfaceData(2, 1, orientable=False)
        base = Orbifold2D(True, 0, 1, (2, 3))
        with pytest.raises(ValueError, match="^the covering surface must be orientable here$"):
            horizontal_degree_solutions(fiber, base)

    @given(
        st.integers(0, 2),
        st.integers(0, 2),
        st.lists(st.integers(2, 5), max_size=3),
        st.integers(0, 2),
        st.integers(0, 2),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_direct_search(self, genus, boundary, cones, fg, fb):
        base = Orbifold2D(True, genus, boundary, tuple(cones))
        fiber = SurfaceData(fg, fb)
        chi_base = chi_orb(base)
        if chi_base == 0:
            if fiber.euler == 0:
                with pytest.raises(InfiniteSolutionsError):
                    horizontal_degree_solutions(fiber, base)
            else:
                assert horizontal_degree_solutions(fiber, base) == ([], [])
            return
        # any solution d = chi(F)/chi_orb(B) obeys d <= |chi(F)| * lcm(cones)
        bound = abs(fiber.euler) * math.lcm(1, *base.cones) + 2
        chi_only = [d for d in range(1, bound + 1) if fiber.euler == d * chi_base]
        direct = [d for d in chi_only if all(d % c == 0 for c in base.cones)]
        assert horizontal_degree_solutions(fiber, base) == (direct, chi_only)


def over_the_double_cover(fiber: SurfaceData, base: Orbifold2D) -> tuple[list[int], list[int]]:
    """Both degree lists over a non-orientable ``base``, solved over its
    orientation double cover, built as an orbifold, and doubled."""
    degrees, chi_only = horizontal_degree_solutions(fiber, orientation_double_cover(base))
    return [2 * d for d in degrees], [2 * d for d in chi_only]


class TestNonorientableBaseSolutions:
    fiber = SurfaceData(2, 1)  # euler -3

    def test_moebius_with_cone_has_no_solutions(self):
        base = Orbifold2D(False, 1, 1, (2,))
        # the chi equation alone is solvable at degree 6 over this base
        assert nonorientable_base_solutions(self.fiber, base) == ([], [6])
        assert over_the_double_cover(self.fiber, base) == ([], [6])

    def test_bare_moebius_has_no_solutions(self):
        assert nonorientable_base_solutions(self.fiber, MOEBIUS) == ([], [])

    def test_flat_fiber_over_flat_base_is_degenerate(self):
        with pytest.raises(InfiniteSolutionsError):
            nonorientable_base_solutions(SurfaceData(0, 2), MOEBIUS)

    def test_solution_doubles_orientation_cover_degree(self):
        base = Orbifold2D(False, 2, 1)
        assert nonorientable_base_solutions(SurfaceData(2, 2), base) == ([4], [4])
        assert over_the_double_cover(SurfaceData(2, 2), base) == ([4], [4])

    def test_orientable_base_redirected(self):
        with pytest.raises(ValueError, match="horizontal_degree_solutions"):
            nonorientable_base_solutions(self.fiber, DISK_2_5)

    def test_nonorientable_fiber_rejected(self):
        with pytest.raises(ValueError, match="orientable"):
            nonorientable_base_solutions(SurfaceData(1, 1, orientable=False), MOEBIUS)

    @given(
        st.integers(1, 3),
        st.integers(0, 2),
        st.lists(st.integers(2, 5), max_size=2),
        st.integers(0, 2),
        st.integers(0, 2),
    )
    @settings(max_examples=120, deadline=None)
    def test_solutions_satisfy_chi_equation_and_are_even(
        self, crosscaps, boundary, cones, fg, fb
    ):
        base = Orbifold2D(False, crosscaps, boundary, tuple(cones))
        fiber = SurfaceData(fg, fb)
        try:
            degrees, chi_only = nonorientable_base_solutions(fiber, base)
        except InfiniteSolutionsError:
            assert fiber.euler == 0 and chi_orb(base) == 0
            with pytest.raises(InfiniteSolutionsError):
                over_the_double_cover(fiber, base)
            return
        assert (degrees, chi_only) == over_the_double_cover(fiber, base)
        for d in chi_only:
            assert d % 2 == 0
            assert fiber.euler == d * chi_orb(base)
        assert degrees == [d for d in chi_only if all((d // 2) % c == 0 for c in base.cones)]


class TestDegreeSolutions:
    """The one solver behind both public ones and ``prism_case_analysis``,
    which call it with each base's chi_orb as an integer numerator and
    denominator."""

    @given(
        small_orbifolds_st,
        st.integers(0, 2),
        st.integers(0, 2),
    )
    @settings(max_examples=200, deadline=None)
    def test_both_lists_match_the_public_solvers(self, base, fg, fb):
        """Over a non-orientable base, against the double cover built as an
        orbifold, not against a second copy of the doubling rule."""
        fiber = SurfaceData(fg, fb)
        solve, cover, sheets = horizontal_degree_solutions, base, 1
        if not base.orientable:
            solve, cover, sheets = nonorientable_base_solutions, orientation_double_cover(base), 2
        chi = chi_orb(cover)
        try:
            degrees, chi_only = _degree_solutions(
                fiber.euler, chi.numerator, chi.denominator, cover.cones
            )
        except InfiniteSolutionsError:
            assert fiber.euler == 0 and chi_orb(base) == 0
            with pytest.raises(InfiniteSolutionsError):
                solve(fiber, base)
            return
        assert solve(fiber, base) == (
            [sheets * d for d in degrees],
            [sheets * d for d in chi_only],
        )

    def test_zero_chi_on_both_sides_is_degenerate(self):
        with pytest.raises(InfiniteSolutionsError):
            _degree_solutions(0, 0, 1, (2, 2))
        assert _degree_solutions(-3, 0, 1, (2, 2)) == ([], [])

    def test_divisibility_filters_only_the_first_list(self):
        # chi -2 over chi_orb -2/3 gives d = 3, which the index 2 does not divide
        assert _degree_solutions(-2, -2, 3, (2, 2, 3)) == ([], [3])
        assert _degree_solutions(-3, -1, 6, (2, 3)) == ([18], [18])

    @given(
        st.integers(-12, 12),
        st.integers(-12, 12),
        st.integers(-12, 12).filter(bool),
        st.lists(st.integers(2, 6), max_size=3),
    )
    @settings(max_examples=500)
    def test_matches_a_search_over_d(self, chi_f, num, den, cones):
        """Every sign of numerator and denominator, unreduced ratios included
        (the non-orientable call passes 2 * numerator over the denominator)."""
        if num == 0 and chi_f == 0:
            with pytest.raises(InfiniteSolutionsError):
                _degree_solutions(chi_f, num, den, cones)
            return
        # d * |num| = |chi_f * den| bounds d when num != 0
        chi_only = [d for d in range(1, abs(chi_f * den) + 1) if chi_f * den == d * num]
        degrees = [d for d in chi_only if all(d % c == 0 for c in cones)]
        assert _degree_solutions(chi_f, num, den, cones) == (degrees, chi_only)


class TestPrismCaseAnalysis:
    fiber = SurfaceData(2, 1)

    def test_cases_match_the_public_solvers(self):
        for n in range(-200, 201):
            if abs(4 * n - 1) < 3:
                continue
            for r in prism_case_analysis(n):
                if r.orbifold.orientable:
                    solve = horizontal_degree_solutions
                else:
                    solve = nonorientable_base_solutions
                assert solve(self.fiber, r.orbifold) == (
                    list(r.degrees),
                    list(r.chi_only_degrees),
                ), n

    def test_case_json_writes_chi_as_frac_str(self):
        """``CaseResult.to_json`` writes ``chi_orb`` from its numerator and
        denominator, as ``frac_str`` does, zero included."""
        for n in (-3, -2, -1, 1, 2, 3):
            for r in prism_case_analysis(n):
                assert r.to_json()["chi_orb"] == frac_str(r.chi_orb), (n, r.case)

    def test_chi_values_first_parameter(self):
        results = prism_case_analysis(1)
        assert [r.chi_orb for r in results] == [
            Fraction(0),
            Fraction(-1, 2),
            Fraction(-2, 3),
            Fraction(0),
            Fraction(-1, 6),
        ]
        assert [r.case for r in results] == [1, 2, 3, 4, 5]

    def test_base_orbifolds_first_parameter(self):
        results = prism_case_analysis(1)
        assert results[0].orbifold == MOEBIUS
        assert results[1].orbifold == Orbifold2D(False, 1, 1, (2,))
        assert results[2].orbifold == DISK_2_2_3
        assert results[3].orbifold == Orbifold2D(True, 0, 1, (2, 2))
        assert results[4].orbifold == Orbifold2D(True, 0, 1, (2, 3))

    def test_degrees_first_parameter(self):
        results = prism_case_analysis(1)
        assert [list(r.degrees) for r in results] == [[], [], [], [], [18]]

    def test_chi_only_near_miss_in_case_two(self):
        results = prism_case_analysis(1)
        assert list(results[1].chi_only_degrees) == [6]

    def test_degrees_negative_parameter(self):
        results = prism_case_analysis(-1)
        assert [list(r.degrees) for r in results] == [[], [], [], [], [10]]
        assert results[4].orbifold == DISK_2_5

    def test_all_cases_empty_for_second_parameter(self):
        results = prism_case_analysis(2)
        assert all(r.degrees == () for r in results)

    def test_degenerate_parameter_rejected(self):
        with pytest.raises(ValueError):
            prism_case_analysis(0)

    def test_exceptional_parameters_in_wide_sweep(self):
        admitting = [
            n
            for n in range(-50, 51)
            if abs(4 * n - 1) >= 3
            and any(r.degrees for r in prism_case_analysis(n))
        ]
        assert admitting == [-1, 1]

    def test_report_schema(self):
        report = case_analysis_report(1)
        assert report["n"] == 1
        assert report["admits_horizontal"] is True
        assert len(report["cases"]) == 5
        row = report["cases"][2]
        assert row["case"] == 3
        assert row["chi_orb"] == "-2/3"
        assert row["orbifold"]["cones"] == [2, 2, 3]
        assert row["degrees"] == []
        report2 = case_analysis_report(2)
        assert report2["admits_horizontal"] is False


class TestCaseAnalysisReport:
    """``case_analysis_report`` is the JSON of ``prism_case_analysis``, whose
    cases 3 and 5 the audit writes for its candidates; ``case_report_oracle``
    rebuilds it from the bases that ``remove_fiber`` drills out."""

    @staticmethod
    def _assert_equals_the_general_path(n):
        report, general = case_analysis_report(n), case_report_oracle(n)
        # json.dumps also tells True from 1 and keeps the key order
        assert report == general and json.dumps(report) == json.dumps(general), n

    def test_equals_the_general_path_for_every_small_parameter(self):
        checked = [n for n in range(-1000, 1001) if abs(4 * n - 1) >= 3]
        for n in checked:
            self._assert_equals_the_general_path(n)
        assert len(checked) == 2000

    @given(st.integers(-(10**12), 10**12).filter(lambda n: abs(4 * n - 1) >= 3))
    @settings(max_examples=200)
    def test_equals_the_general_path_for_large_parameters(self, n):
        self._assert_equals_the_general_path(n)

    @pytest.mark.parametrize("n", [True, 1.0, 0])
    def test_refuses_as_the_general_path(self, n):
        with pytest.raises(ValueError) as general:
            prism_case_analysis(n)
        with pytest.raises(ValueError) as closed:
            case_analysis_report(n)
        assert str(closed.value) == str(general.value)

    @pytest.mark.parametrize("n", [-(10**12), -1000, -2, -1, 1, 2, 1000, 10**12])
    def test_cases_1_2_and_4_have_no_degree(self, n):
        """The audit writes a row whose disk cases have no degree as a
        "conditional" row; that holds only while the other three have none."""
        cases = prism_case_analysis(n)
        assert [cases[i].degrees for i in (0, 1, 3)] == [(), (), ()]


class TestDiskCaseDivisors:
    """The divisor argument that decides cases 3 and 5 for every n, against
    the bounded scan of their degree equations."""

    def test_leaves_mu_3_and_5(self):
        assert disk_case_divisors() == [(3, 1, 3, []), (5, 2, 12, [3, 5])]
        assert DISK_CASE_MUS == {3, 5}

    def test_agrees_with_the_degree_equations_for_every_odd_mu(self):
        chi_f = riemann_hurwitz_cover(SurfaceData(0, 1), 2, [(2,)] * 5).euler
        assert chi_f == -3
        left = {case: mus for case, _, _, mus in disk_case_divisors()}
        for mu in range(3, 10**4 + 1, 2):
            three = _degree_solutions(chi_f, 1 - mu, mu, (2, 2, mu))
            five = _degree_solutions(chi_f, 2 - mu, 2 * mu, (2, mu))
            # a degree is also a chi-only degree, so each case is decided by its chi-only list
            assert (mu in left[3]) is bool(three[1]) and set(three[0]) <= set(three[1]), mu
            assert (mu in left[5]) is bool(five[1]) and set(five[0]) <= set(five[1]), mu
            assert (mu in DISK_CASE_MUS) is any((*three, *five)), mu
