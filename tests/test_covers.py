import contextlib
import io
import json
import math
import random
import re
from importlib import resources

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prismvol import (
    FIGURE_EIGHT_VOLUME,
    ONE_CUSP_VOLUME_FLOOR,
    WHITEHEAD_VOLUME,
    CoverCertificate,
    EnumerationTooLargeError,
    GroupPresentation,
    SurfaceData,
    VolumeConstant,
    complexity,
    count_representations,
    degree_bound_for_budget,
    fiber_surface,
    presentation_from_json,
    prism_case_analysis,
    prism_header,
    prism_row_stream,
    prism_verify,
    upper_bound_value,
)
from prismvol import cli, covers
from prismvol.covers import UPPER_BOUND, _subgroup_counts
from prismvol.exact import frac_str
from prismvol.orbifolds import Orbifold2D, chi_orb
from support import (
    audit_row_oracle,
    brute_hom_count,
    expand,
    catalan_alternating,
    presentations_st,
    relator_words_st,
)


def load_fixture(name: str) -> GroupPresentation:
    text = (
        resources.files("prismvol").joinpath("fixtures", f"{name}.json").read_text()
    )
    return presentation_from_json(json.loads(text))


UNKNOT = load_fixture("unknot")
HOPF = load_fixture("hopf")
TREFOIL = load_fixture("trefoil")


class TestGroupPresentation:
    def test_zero_letter_rejected(self):
        with pytest.raises(ValueError):
            GroupPresentation(2, ((1, 0),))

    def test_out_of_range_letter_rejected(self):
        with pytest.raises(ValueError):
            GroupPresentation(2, ((3,),))

    def test_needs_a_generator(self):
        with pytest.raises(ValueError):
            GroupPresentation(0, ())

    def test_json_round_trip(self):
        assert presentation_from_json(TREFOIL.to_json()) == TREFOIL

    def test_from_json_missing_field(self):
        with pytest.raises(ValueError, match="relators"):
            presentation_from_json({"generators": 2})

    def test_from_json_bool_letter_rejected(self):
        with pytest.raises(ValueError, match="relators"):
            presentation_from_json({"generators": 2, "relators": [[1, True]]})


class TestCountRepresentations:
    def test_unknot_counts(self):
        assert count_representations(UNKNOT, 2) == 2
        assert count_representations(UNKNOT, 3) == 6
        assert count_representations(UNKNOT, 3, transitive=True) == 2

    def test_hopf_counts(self):
        assert count_representations(HOPF, 2) == 4
        assert count_representations(HOPF, 3) == 18

    def test_trefoil_counts(self):
        assert count_representations(TREFOIL, 2) == 2
        assert count_representations(TREFOIL, 3) == 12
        assert count_representations(TREFOIL, 3, transitive=True) == 8

    def test_matches_brute_force_on_fixtures(self):
        for pres in (UNKNOT, HOPF, TREFOIL):
            for degree in (1, 2, 3):
                for transitive in (False, True):
                    assert count_representations(
                        pres, degree, transitive=transitive
                    ) == brute_hom_count(
                        pres.generators, pres.relators, degree, transitive=transitive
                    ), (pres, degree, transitive)

    def test_degree_below_one_rejected(self):
        with pytest.raises(ValueError):
            count_representations(UNKNOT, 0)

    @pytest.mark.parametrize("flag", ["false", "true", None, 0, 1, [], 0.0])
    @pytest.mark.parametrize("degree", [1, 3])
    def test_transitive_must_be_a_bool(self, flag, degree):
        """``"false"`` is truthy: it gave the transitive count 8 where
        ``False`` gives 12, and ``None``, ``0`` and ``[]`` were read as
        ``False``."""
        with pytest.raises(ValueError, match="^transitive must be a boolean$"):
            count_representations(TREFOIL, degree, transitive=flag)

    def test_enumeration_guard(self):
        with pytest.raises(EnumerationTooLargeError, match="10"):
            count_representations(GroupPresentation(3, ()), 10)

    def test_guard_stops_before_the_product(self):
        # the table cap refuses from the table's size alone, before any
        # search, and 300000! (over a million digits) is never built
        with pytest.raises(EnumerationTooLargeError) as caught:
            count_representations(GroupPresentation(2, ((1, 2),)), 300000)
        assert str(caught.value) == (
            "the coset table for S_300000 has 1200000 cells, over the limit of 512"
        )

    def test_guard_boundary_is_generous(self):
        # the search for F_1 at d = 6 takes twelve nodes, far under the node cap;
        # the trivial relator set makes the count a pure power
        assert count_representations(GroupPresentation(1, ()), 6) == 720

    def test_node_cap_edge(self, monkeypatch):
        """The trefoil at d = 9 calls the search 2 140 times: a cap of 2 140
        answers 8! * 130 and a cap of 2 139 refuses mid-search."""
        monkeypatch.setattr(covers, "MAX_NODES", 2140)
        assert count_representations(TREFOIL, 9, transitive=True) == math.factorial(8) * 130
        monkeypatch.setattr(covers, "MAX_NODES", 2139)
        refusal = "^the subgroup search into S_9 exceeds the limit of 2139 nodes$"
        with pytest.raises(EnumerationTooLargeError, match=refusal):
            count_representations(TREFOIL, 9, transitive=True)

    def test_table_cap_edge_is_answered(self):
        """At d * 2g = 512 the search is at most 256 frames deep and Hall's
        recursion has 256 * 257 / 2 terms: both run without a refusal."""
        assert count_representations(GroupPresentation(1, ()), 256) == math.factorial(256)
        # I_n = I_{n-1} + (n - 1) I_{n-2} counts the involutions of S_n
        involutions = [1, 1]
        for n in range(2, 257):
            involutions.append(involutions[-1] + (n - 1) * involutions[-2])
        assert count_representations(GroupPresentation(1, ((1, 1),)), 256) == involutions[256]

    def test_table_cap_refuses_before_the_search(self, monkeypatch):
        calls = []
        monkeypatch.setattr(covers, "_subgroup_counts", lambda *args: calls.append(args))
        refusal = "^the coset table for S_257 has 514 cells, over the limit of 512$"
        for pres in (GroupPresentation(1, ()), GroupPresentation(1, ((1, 1),))):
            with pytest.raises(EnumerationTooLargeError, match=refusal):
                count_representations(pres, 257)
        assert calls == []

    def test_empty_relator_word_is_vacuous(self):
        pres = GroupPresentation(1, ((),))
        assert count_representations(pres, 3) == 6

    @given(presentations_st(), st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force(self, gp, degree):
        generators, relators = gp
        pres = GroupPresentation(generators, relators)
        for transitive in (False, True):
            assert count_representations(
                pres, degree, transitive=transitive
            ) == brute_hom_count(generators, relators, degree, transitive=transitive)

    @given(presentations_st())
    @settings(max_examples=40, deadline=None)
    def test_degree_one_count_is_one(self, gp):
        generators, relators = gp
        pres = GroupPresentation(generators, relators)
        assert count_representations(pres, 1) == 1
        assert count_representations(pres, 1, transitive=True) == 1

    @given(
        presentations_st().flatmap(
            lambda gp: st.tuples(
                st.just(gp), relator_words_st(gp[0]), st.integers(2, 3)
            )
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_adding_a_relator_never_raises_the_count(self, data):
        (generators, relators), extra, degree = data
        base = count_representations(GroupPresentation(generators, relators), degree)
        tightened = count_representations(
            GroupPresentation(generators, relators + (extra,)), degree
        )
        assert tightened <= base


PARTITION_COUNTS = (1, 2, 3, 5, 7, 11)  # p(1), ..., p(6)
DIVISOR_SUMS = (1, 3, 4, 7, 6, 12)  # sigma(1), ..., sigma(6)


def hall_violations(plain, transitive) -> list[int]:
    """Degrees n where h_n != sum_k C(n-1, k-1) t_k h_{n-k}, with h_0 = 1."""
    h = [1, *plain]
    return [
        n
        for n in range(1, len(plain) + 1)
        if h[n]
        != sum(math.comb(n - 1, k - 1) * transitive[k - 1] * h[n - k] for k in range(1, n + 1))
    ]


class TestBenchmarkDegrees:
    """The degrees the cover-count benchmark asks for, against closed forms,
    frozen values, Hall's identity and the unpruned oracle."""

    @pytest.mark.parametrize("n", range(1, 7))
    def test_hopf_closed_forms(self, n):
        assert count_representations(HOPF, n) == math.factorial(n) * PARTITION_COUNTS[n - 1]
        assert count_representations(HOPF, n, transitive=True) == (
            math.factorial(n - 1) * DIVISOR_SUMS[n - 1]
        )

    def test_trefoil_frozen_counts(self):
        plain = [count_representations(TREFOIL, n) for n in range(1, 7)]
        transitive = [count_representations(TREFOIL, n, transitive=True) for n in range(1, 7)]
        assert plain == [1, 2, 12, 96, 600, 6480]
        assert transitive == [1, 1, 8, 54, 144, 2640]
        assert hall_violations(plain, transitive) == []

    def test_hall_check_sees_a_wrong_count(self):
        assert hall_violations([1, 2, 12], [1, 1, 7]) == [3]

    @given(presentations_st())
    @settings(max_examples=40, deadline=None)
    def test_hall_identity(self, gp):
        """The plain counts are built from the transitive ones by Hall's
        recursion, so this checks the recursion; the counts themselves are
        checked against ``brute_hom_count``."""
        pres = GroupPresentation(*gp)
        plain = [count_representations(pres, n) for n in range(1, 6)]
        transitive = [count_representations(pres, n, transitive=True) for n in range(1, 6)]
        assert hall_violations(plain, transitive) == []

    @given(presentations_st())
    @settings(max_examples=30, deadline=None)
    def test_matches_brute_force_at_degree_four(self, gp):
        generators, relators = gp
        pres = GroupPresentation(generators, relators)
        for transitive in (False, True):
            assert count_representations(
                pres, 4, transitive=transitive
            ) == brute_hom_count(generators, relators, 4, transitive=transitive)

    def test_one_generator_builds_no_permutation_list(self):
        # the involutions of S_11 are counted by Hall's recursion from the
        # two subgroups of <x | x^2>, not from a list of permutations
        assert count_representations(GroupPresentation(1, ((1, 1),)), 11) == 35696


# cyclically reduced length-6 words in two generators that use both: the
# shape of the cover-count benchmark's seeded one-relator groups
LENGTH_SIX_RELATORS = [
    (2, -1, -2, 1, 1, 1),
    (2, 1, 1, -2, -1, 2),
    (-1, -2, -2, 1, 1, 2),
    (-2, -2, -2, -2, 1, -2),
    (1, 1, -2, -2, -2, -2),
    (2, -1, 2, -1, -1, -1),
    (-1, -2, -1, 2, -1, -2),
    (-1, -1, -2, 1, 1, 2),
    (1, 1, -2, 1, 1, -2),
    (2, -1, -2, -1, -2, 1),
]
FIGURE_EIGHT = GroupPresentation(2, ((2, 1, -2, 1, 2, -1, -2, 1, -2, -1),))
# the trefoil's Wirtinger presentation, one generator per arc
WIRTINGER_TREFOIL = GroupPresentation(3, ((1, 2, -3, -2), (2, 3, -1, -3)))
# the Whitehead link, the 2-bridge link 8/3: a w = w a with
# w = b^e1 a^e2 ... b^e7 and e_i = (-1)^floor(3i/8)
_WHITEHEAD_W = tuple((2 if i % 2 else 1) * (-1) ** (3 * i // 8) for i in range(1, 8))
WHITEHEAD_LINK = GroupPresentation(
    2, ((1, *_WHITEHEAD_W, -1, *(-letter for letter in reversed(_WHITEHEAD_W))),)
)


def _two_relator_presentations(generators, count, seed):
    """``count`` seeded presentations with two relators of length 2 to 6."""
    rng = random.Random(seed)
    letters = [i for i in range(-generators, generators + 1) if i != 0]
    return [
        GroupPresentation(
            generators,
            tuple(tuple(rng.choice(letters) for _ in range(rng.randint(2, 6))) for _ in range(2)),
        )
        for _ in range(count)
    ]


class TestIndependentCounts:
    """Counts checked without Hall's recursion: against the unpruned oracle,
    frozen values, and a second presentation of the same group."""

    @pytest.mark.parametrize("relator", LENGTH_SIX_RELATORS)
    @pytest.mark.parametrize("transitive", [False, True])
    def test_length_six_relator_at_degree_five(self, relator, transitive):
        count = count_representations(GroupPresentation(2, (relator,)), 5, transitive=transitive)
        assert count == brute_hom_count(2, (relator,), 5, transitive=transitive)

    def test_figure_eight_frozen_counts(self):
        plain = [count_representations(FIGURE_EIGHT, n) for n in range(1, 6)]
        transitive = [count_representations(FIGURE_EIGHT, n, transitive=True) for n in range(1, 6)]
        assert plain == [1, 2, 6, 48, 600]
        assert transitive == [1, 1, 2, 30, 384]

    @pytest.mark.parametrize(
        "transitive, expected", [(False, [1, 2, 12, 96, 600]), (True, [1, 1, 8, 54, 144])]
    )
    def test_wirtinger_trefoil_counts_as_the_trefoil(self, transitive, expected):
        counts = [count_representations(WIRTINGER_TREFOIL, n, transitive=transitive) for n in range(1, 6)]
        assert counts == expected
        assert counts == [count_representations(TREFOIL, n, transitive=transitive) for n in range(1, 6)]

    def test_tietze_pair_at_degrees_the_guard_refuses(self):
        """The 3-generator Wirtinger trefoil and the 2-generator trefoil are
        one group, so they count alike also at d = 6 and 7, which a guard on
        (d!)^3 candidate tuples once refused."""
        subgroups = _subgroup_counts(WIRTINGER_TREFOIL, 7)
        assert subgroups == _subgroup_counts(TREFOIL, 7)
        assert subgroups[6:] == [22, 43]
        assert count_representations(WIRTINGER_TREFOIL, 6, transitive=True) == 2640
        assert count_representations(WIRTINGER_TREFOIL, 7, transitive=True) == 30960
        assert count_representations(TREFOIL, 7, transitive=True) == 30960

    @pytest.mark.parametrize(
        "pres",
        _two_relator_presentations(2, 6, seed=2) + _two_relator_presentations(3, 4, seed=3),
        ids=lambda pres: ";".join(",".join(map(str, word)) for word in pres.relators),
    )
    def test_two_relator_presentations_up_to_degree_four(self, pres):
        for degree in range(2, 5):
            for transitive in (False, True):
                count = count_representations(pres, degree, transitive=transitive)
                expected = brute_hom_count(pres.generators, pres.relators, degree, transitive)
                assert count == expected, (degree, transitive)

    @pytest.mark.parametrize(
        "pres, subgroups",
        [
            (FIGURE_EIGHT, [0, 1, 1, 1, 5, 16, 55, 57]),
            (WHITEHEAD_LINK, [0, 1, 3, 10, 35, 86, 312, 610]),
        ],
        ids=["figure-eight", "whitehead"],
    )
    def test_frozen_subgroup_counts_to_degree_seven(self, pres, subgroups):
        """a_1..a_7, frozen from a search that made no deductions, so they do
        not come from the search under test."""
        assert _subgroup_counts(pres, 7) == subgroups


class TestVolumeConstants:
    def test_positive_value_enforced(self):
        with pytest.raises(ValueError):
            VolumeConstant("x", 0.0, "nope")
        with pytest.raises(ValueError):
            VolumeConstant("x", -1.0, "nope")

    def test_whitehead_volume_is_four_catalan(self):
        assert abs(4 * catalan_alternating() - WHITEHEAD_VOLUME.value) < 1e-12

    def test_figure_eight_volume_matches_quadrature(self):
        # 4 * Lobachevsky(pi/6), with Lobachevsky(t) = -integral of log|2 sin|
        lob = -mpmath.quad(
            lambda t: mpmath.log(abs(2 * mpmath.sin(t))), [0, mpmath.pi / 6]
        )
        assert abs(4 * float(lob) - FIGURE_EIGHT_VOLUME.value) < 1e-12

    def test_floor_is_below_every_named_volume(self):
        assert ONE_CUSP_VOLUME_FLOOR.value < FIGURE_EIGHT_VOLUME.value
        assert FIGURE_EIGHT_VOLUME.value < WHITEHEAD_VOLUME.value


class TestComplexity:
    def test_double_cover_budget(self):
        cert = CoverCertificate(2, WHITEHEAD_VOLUME.value, "branch volume V0")
        assert round(complexity(cert), 4) == 7.3277

    def test_triple_cover_over_smallest_cusp(self):
        cert = CoverCertificate(3, FIGURE_EIGHT_VOLUME.value, "smallest cusp")
        assert complexity(cert) == pytest.approx(6.089649638457921)

    def test_identity_cover(self):
        cert = CoverCertificate(1, 5.25, "identity")
        assert complexity(cert) == 5.25

    def test_strictly_monotone_in_both_arguments(self):
        base = CoverCertificate(2, 3.0, "base")
        assert complexity(CoverCertificate(3, 3.0, "deeper")) > complexity(base)
        assert complexity(CoverCertificate(2, 3.5, "bigger")) > complexity(base)

    def test_certificate_validation(self):
        with pytest.raises(ValueError):
            CoverCertificate(0, 1.0, "no degree")
        with pytest.raises(ValueError):
            CoverCertificate(2, 0.0, "no volume")
        assert CoverCertificate(1, 1.0, "identity").degree == 1


class TestDegreeBoundForBudget:
    def test_budget_from_double_cover_with_floor_two(self):
        assert degree_bound_for_budget(2 * WHITEHEAD_VOLUME.value, 2.0) == 3

    def test_budget_with_floor_at_the_branch_volume(self):
        assert degree_bound_for_budget(
            2 * WHITEHEAD_VOLUME.value, WHITEHEAD_VOLUME.value
        ) == 1

    def test_exact_multiple_is_excluded(self):
        assert degree_bound_for_budget(7.0, 3.5) == 1

    def test_sharper_floor_gives_same_cap(self):
        budget = 2 * WHITEHEAD_VOLUME.value
        assert degree_bound_for_budget(budget, 2.0) == degree_bound_for_budget(
            budget, FIGURE_EIGHT_VOLUME.value
        )

    def test_nonpositive_inputs_rejected(self):
        with pytest.raises(ValueError):
            degree_bound_for_budget(0.0, 1.0)
        with pytest.raises(ValueError):
            degree_bound_for_budget(1.0, -2.0)

    @given(
        st.floats(min_value=0.5, max_value=50, allow_nan=False),
        st.floats(min_value=0.5, max_value=50, allow_nan=False),
    )
    @settings(max_examples=120)
    def test_result_is_the_last_degree_under_budget(self, budget, floor):
        p = degree_bound_for_budget(budget, floor)
        assert p >= 0
        assert p * floor < budget
        assert (p + 1) * floor >= budget


NOT_A_NUMBER = "must be a float or an integer, got"


class TestVolumeArguments:
    """A volume is a finite, positive float or int by exact type, a name or
    label is a str; anything else is refused with the field's name."""

    @pytest.mark.parametrize(
        "build, args, message",
        [
            (CoverCertificate, (2, True, "x"), f"branch_volume {NOT_A_NUMBER} True"),
            (CoverCertificate, (2, "3", "x"), f"branch_volume {NOT_A_NUMBER} '3'"),
            (CoverCertificate, (2, None, "x"), f"branch_volume {NOT_A_NUMBER} None"),
            (CoverCertificate, (2, math.inf, "x"), "branch_volume must be finite, got inf"),
            (CoverCertificate, (2, 1.5, 5), "label must be a string"),
            (VolumeConstant, ("n", math.inf, "p"), "value must be finite, got inf"),
            (VolumeConstant, ("n", False, "p"), f"value {NOT_A_NUMBER} False"),
            (VolumeConstant, (b"n", 1.0, "p"), "name must be a string"),
            (VolumeConstant, ("n", 1.0, None), "provenance must be a string"),
            (degree_bound_for_budget, (math.inf, 2.0), "budget must be finite, got inf"),
            (degree_bound_for_budget, (7.0, math.inf), "floor must be finite, got inf"),
            (degree_bound_for_budget, (True, 2.0), f"budget {NOT_A_NUMBER} True"),
            (degree_bound_for_budget, (7.0, "2"), f"floor {NOT_A_NUMBER} '2'"),
            (degree_bound_for_budget, (1e308, 1e-10), "budget / floor overflows a float"),
        ],
    )
    def test_refused_with_the_field_named(self, build, args, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            build(*args)

    @pytest.mark.parametrize(
        "build, args, message",
        [
            (CoverCertificate, (2, -math.inf, "x"), "branch volume must be positive"),
            (CoverCertificate, (2, math.nan, "x"), "branch volume must be positive"),
            (VolumeConstant, ("n", -1, "p"), "volume constants are positive"),
            (degree_bound_for_budget, (math.inf, -2.0), "budget and floor must be positive"),
        ],
    )
    def test_a_number_that_is_not_positive_keeps_its_message(self, build, args, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            build(*args)

    def test_an_int_is_a_volume(self):
        assert complexity(CoverCertificate(2, 3, "x")) == 6
        assert VolumeConstant("n", 2, "p").value == 2
        assert degree_bound_for_budget(7, 2) == 3


class TestPrismVerify:
    def test_fiber_surface(self):
        assert fiber_surface() == SurfaceData(genus=2, boundary=1, orientable=True)

    def test_upper_bound_value(self):
        assert upper_bound_value() == 7.327724753418

    def test_empty_range(self):
        assert prism_verify(1, 0) == {
            "header": prism_header(),
            "reports": [],
            "candidate_exceptional": [],
        }

    def test_small_window_flags_both_exceptional_candidates(self):
        result = prism_verify(-1, 1)
        assert [r["n"] for r in result["reports"]] == [-1, 0, 1]
        assert [r["status"] for r in result["reports"]] == [
            "candidate-exceptional",
            "excluded",
            "candidate-exceptional",
        ]
        assert result["candidate_exceptional"] == [-1, 1]

    def test_degenerate_row_carries_reason(self):
        result = prism_verify(0, 0)
        row = result["reports"][0]
        assert row["status"] == "excluded"
        assert "degenerate" in row["reason"]
        assert result["header"]["upper_bound"] == "2*V0"

    def test_positive_window_is_all_conditional(self):
        result = prism_verify(2, 10)
        assert len(result["reports"]) == 9
        assert result["candidate_exceptional"] == []
        for row in result["reports"]:
            assert row["status"] == "conditional"
        assert result["header"]["twist_knot_excluded"] is True

    def test_negative_window_is_all_conditional(self):
        result = prism_verify(-10, -2)
        assert result["candidate_exceptional"] == []
        assert all(r["status"] == "conditional" for r in result["reports"])

    def test_report_schema(self):
        result = prism_verify(2, 2)
        header, [row] = result["header"], result["reports"]
        assert row == {"n": 2, "upper_bound_value": 7.327724753418, "status": "conditional", "mu": 7}
        assert header["upper_bound"] == "2*V0"
        assert header["twist_knot_excluded"] is True
        # cases 1, 2 and 4 in the header, 3 and 5 stated there in mu, none
        # with a degree: the record lists no case
        assert [case["case"] for case in header["fixed_cases"]] == [1, 2, 4]
        assert not any(case["degrees"] for case in header["fixed_cases"])
        assert "case 3 " in header["disk_cases"] and "case 5 " in header["disk_cases"]
        assert "slope_demo" not in header
        assert header["max_degree"] == 3
        assert len(header["unresolved_steps"]) == 4
        whole = expand(header, row)
        assert whole["case_analysis"]["admits_horizontal"] is False
        assert len(whole["case_analysis"]["cases"]) == 5

    def test_candidate_row_names_its_degrees(self):
        result = prism_verify(1, 1)
        [row] = result["reports"]
        assert row["status"] == "candidate-exceptional"
        assert row["cases"] == [
            {"case": 3, "degrees": [], "chi_only_degrees": []},
            {"case": 5, "degrees": [18], "chi_only_degrees": [18]},
        ]
        unresolved = expand(result["header"], row)["unresolved_steps"]
        assert len(unresolved) == 5
        assert "[18]" in unresolved[0]

    def test_negative_candidate_row_names_its_degrees(self):
        row = prism_verify(-1, -1)["reports"][0]
        assert [case["degrees"] for case in row["cases"]] == [[], [10]]

    def test_deterministic_across_runs(self):
        assert prism_verify(-3, 3) == prism_verify(-3, 3)

    def test_json_serializable(self):
        payload = prism_verify(-1, 2)
        assert json.loads(json.dumps(payload)) == payload


# the keys of a record of each status, in order
RECORD_KEYS = {
    "excluded": ["n", "upper_bound_value", "status", "reason"],
    "conditional": ["n", "upper_bound_value", "status", "mu"],
    "candidate-exceptional": ["n", "upper_bound_value", "status", "mu", "cases"],
}


class TestClosedFormRows:
    """Each audit record is built from mu = |4n - 1| alone; these tests hold it,
    with the header, to the rows the audit built from the fibrations and the
    case analysis."""

    def test_rows_equal_the_oracle(self):
        result = prism_verify(-1000, 1000)
        checked = 0
        for record in result["reports"]:
            row, oracle = expand(result["header"], record), audit_row_oracle(record["n"])
            # json.dumps also tells True from 1 and keeps the key order
            assert row == oracle and json.dumps(row) == json.dumps(oracle), record["n"]
            assert list(record) == RECORD_KEYS[record["status"]], record["n"]
            checked += 1
        assert checked == 2001

    @given(st.integers(-(10**12), 10**12).filter(lambda n: abs(4 * n - 1) >= 3))
    @settings(max_examples=200)
    def test_large_n_matches_the_case_analysis(self, n):
        result = prism_verify(n, n)
        [record] = result["reports"]
        mu = record["mu"]
        assert mu == abs(4 * n - 1)
        # the header's closed form of cases 3 and 5, at this mu
        assert "chi_orb (1 - mu)/mu" in result["header"]["disk_cases"]
        assert "chi_orb (2 - mu)/(2 mu)" in result["header"]["disk_cases"]
        assert f"{1 - mu}/{mu}" == frac_str(chi_orb(Orbifold2D(True, 0, 1, (2, 2, mu))))
        assert f"{2 - mu}/{2 * mu}" == frac_str(chi_orb(Orbifold2D(True, 0, 1, (2, mu))))
        cases = expand(result["header"], record)["case_analysis"]["cases"]
        assert cases == [r.to_json() for r in prism_case_analysis(n)]
        assert (record["status"] == "conditional") is (abs(n) != 1)

    @staticmethod
    def _scribble(value):
        """Add an entry to every dict and list inside ``value``."""
        if type(value) is dict:
            for item in list(value.values()):
                TestClosedFormRows._scribble(item)
            value["scribbled"] = True
        elif type(value) is list:
            for item in list(value):
                TestClosedFormRows._scribble(item)
            value.append("scribbled")

    @pytest.mark.parametrize("n", [1, 2, -1, -2])
    def test_rows_share_no_object(self, n):
        result = prism_verify(-3, 3)
        self._scribble(result["reports"][n + 3])
        for record in result["reports"]:
            if record["n"] != n:
                assert expand(result["header"], record) == audit_row_oracle(record["n"]), record["n"]
        self._scribble(result["header"])
        again = prism_verify(-3, 3)
        rows = [expand(again["header"], record) for record in again["reports"]]
        assert rows == [audit_row_oracle(m) for m in range(-3, 4)]


FAR = 10**12
windows_st = st.one_of(
    # windows that hold -1, 0 and 1
    st.tuples(st.integers(-40, -1), st.integers(1, 40)),
    # windows that start on a row that is not conditional
    st.tuples(st.sampled_from([-1, 0, 1]), st.integers(0, 40)).map(lambda w: (w[0], w[0] + w[1])),
    # single rows, anywhere
    st.integers(-FAR, FAR).map(lambda n: (n, n)),
    # empty windows
    st.tuples(st.integers(-FAR, FAR), st.integers(1, 5)).map(lambda w: (w[0], w[0] - w[1])),
    # anywhere
    st.tuples(st.integers(-FAR, FAR - 40), st.integers(0, 40)).map(lambda w: (w[0], w[0] + w[1])),
)


class TestRowStream:
    """``prism_row_stream`` yields the records of ``prism_verify`` as dicts, and
    the command line writes them as ``json.dumps`` writes the whole document."""

    @given(windows_st)
    @settings(max_examples=200, deadline=None)
    def test_written_stream_is_prism_verify(self, window):
        n_from, n_to = window
        expected = prism_verify(n_from, n_to)
        records = list(prism_row_stream(n_from, n_to))
        # json.dumps also tells True from 1 and keeps the key order
        assert json.dumps(records) == json.dumps(expected["reports"])
        assert all(type(record) is dict for record in records)
        if n_from > n_to:  # the command line refuses an empty range, its writer does not
            out = "".join(cli._prism_json(prism_row_stream(n_from, n_to)))
        else:
            argv = ["prism", "verify", "--from", str(n_from), "--to", str(n_to), "--json"]
            with contextlib.redirect_stdout(io.StringIO()) as stdout:
                assert cli.main(argv) == 0
            out = stdout.getvalue()
        assert out == json.dumps(expected, indent=2) + "\n"


class TestDegreeOne:
    @pytest.mark.parametrize("relators", [(), ((1, 2, -1, -2), (3, 3, 3))])
    def test_many_generators(self, relators):
        pres = GroupPresentation(2000, relators)
        assert count_representations(pres, 1) == 1
        assert count_representations(pres, 1, transitive=True) == 1

    @given(presentations_st(3, 3))
    @settings(max_examples=30, deadline=None)
    def test_matches_brute_force(self, data):
        generators, relators = data
        pres = GroupPresentation(generators, relators)
        assert count_representations(pres, 1) == brute_hom_count(generators, relators, 1) == 1


class TestUpperBoundCertificate:
    def test_is_the_degree_two_whitehead_cover(self):
        assert UPPER_BOUND == CoverCertificate(2, WHITEHEAD_VOLUME.value, "2*V0")
        assert upper_bound_value() == round(complexity(UPPER_BOUND), 12)

    def test_feeds_the_degree_cap(self):
        cap = degree_bound_for_budget(complexity(UPPER_BOUND), ONE_CUSP_VOLUME_FLOOR.value)
        assert cap == 3
        assert prism_verify(-2, 5)["header"]["max_degree"] == cap
