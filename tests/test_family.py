"""Facts of the one-parameter family that the audit computes once."""

import pytest

from prismvol import (
    fiber_surface,
    prism_case_analysis,
    prism_fibrations,
    prism_verify,
)
from prismvol import orbifolds, slopes
from support import derived_bases


def test_closed_form_bases_match_fiber_removal():
    checked = 0
    for n in range(-1000, 1001):
        if abs(4 * n - 1) < 3:
            continue
        bases = [r.orbifold for r in prism_case_analysis(n)]
        assert bases == derived_bases(n), n
        checked += 1
    assert checked == 2000


def test_degenerate_parameter_refused_like_the_fibrations():
    with pytest.raises(ValueError) as from_fibrations:
        prism_fibrations(0)
    with pytest.raises(ValueError) as from_cases:
        prism_case_analysis(0)
    assert str(from_cases.value) == str(from_fibrations.value)


@pytest.mark.parametrize("n", [True, 1.5, 1.0, "1", None])
def test_wrong_type_refused_like_the_fibrations(n):
    with pytest.raises(ValueError, match="^n must be an integer") as from_fibrations:
        prism_fibrations(n)
    with pytest.raises(ValueError) as from_cases:
        prism_case_analysis(n)
    assert str(from_cases.value) == str(from_fibrations.value)


def test_fixed_cases_are_the_same_objects_for_every_n():
    """Cases 1, 2 and 4 are solved per call, so "the same" is equal records."""
    first = prism_case_analysis(2)
    for n in range(-300, 301):
        if abs(4 * n - 1) < 3:
            continue
        results = prism_case_analysis(n)
        for case in (1, 2, 4):
            assert results[case - 1] == first[case - 1], (n, case)
        assert [r.case for r in results] == [1, 2, 3, 4, 5], n


def test_audit_runs_no_slope_enumeration(monkeypatch):
    calls = []
    original = slopes.enumerate_constrained_slopes

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(slopes, "enumerate_constrained_slopes", counting)
    result = prism_verify(-50, 50)
    assert calls == []
    assert "slope_demo" not in result["header"]
    assert all("slope_demo" not in r for r in result["reports"])


def test_chi_orb_per_base_not_per_audit_row(monkeypatch):
    """chi_orb is computed once per base that a call solves, by the one
    solver ``_solve``: five per case analysis, and for the audit five at each
    of n = -1 and 1 and the header's three.  The solver works in integers, so
    the audit calls the public ``chi_orb`` not at all."""
    solved, public = [], []
    original_solve, original_chi_orb = orbifolds._solve, orbifolds.chi_orb

    def counting_solve(chi_f, base):
        solved.append(base)
        return original_solve(chi_f, base)

    def counting_chi_orb(base):
        public.append(base)
        return original_chi_orb(base)

    monkeypatch.setattr(orbifolds, "_solve", counting_solve)
    monkeypatch.setattr(orbifolds, "chi_orb", counting_chi_orb)
    for n in (-7, -1, 1, 2, 40):
        solved.clear()
        results = prism_case_analysis(n)
        assert solved == [r.orbifold for r in results], n
    fixed = [r.orbifold for r in prism_case_analysis(2) if r.case in (1, 2, 4)]
    candidates = [r.orbifold for n in (-1, 1) for r in prism_case_analysis(n)]
    solved.clear()
    public.clear()
    prism_verify(-50, 50)
    assert len(solved) == 13
    assert solved == candidates + fixed
    assert public == []


def test_fiber_is_read_once_per_process(monkeypatch):
    calls = []

    def counting():
        calls.append(None)
        return fiber_surface()

    monkeypatch.setattr(orbifolds, "fiber_surface", counting)
    prism_verify(-50, 50)
    assert calls == []
    assert orbifolds._FIBER_EULER == fiber_surface().euler == -3
