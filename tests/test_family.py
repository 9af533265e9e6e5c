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
    first = prism_case_analysis(2)
    for n in range(-300, 301):
        if abs(4 * n - 1) < 3:
            continue
        results = prism_case_analysis(n)
        for case in (1, 2, 4):
            assert results[case - 1] is first[case - 1], (n, case)
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
    calls = []
    original = orbifolds.chi_orb

    def counting(base):
        calls.append(base)
        return original(base)

    monkeypatch.setattr(orbifolds, "chi_orb", counting)
    for n in (-7, -1, 1, 2, 40):
        calls.clear()
        results = prism_case_analysis(n)
        assert calls == [results[2].orbifold, results[4].orbifold], n
    disks = [r.orbifold for n in (-1, 1) for r in prism_case_analysis(n)[2::2]]
    calls.clear()
    prism_verify(-50, 50)
    assert calls == disks


def test_fiber_is_read_once_per_process(monkeypatch):
    calls = []

    def counting():
        calls.append(None)
        return fiber_surface()

    monkeypatch.setattr(orbifolds, "fiber_surface", counting)
    prism_verify(-50, 50)
    assert calls == []
    assert orbifolds._FIBER_EULER == fiber_surface().euler == -3
