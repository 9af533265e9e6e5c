import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prismvol import (
    MontesinosLink,
    SeifertSymbol,
    base_orbifold,
    double_branched_cover,
    is_lens_space_symbol,
    link_from_json,
    ln_link,
    normalize,
    prism_fibrations,
    prism_verify,
)
from prismvol import audit, montesinos, seifert
from support import fiber_pairs_st, wn_link

tangle_lists_st = st.lists(fiber_pairs_st(), min_size=1, max_size=4)
# both classes, unreduced betas, alpha = 1 terms and a repeated first pair,
# over the least genus or one more, so that lens-space symbols are common
lens_candidates_st = st.builds(
    lambda orientable, genus, fibers, repeats: SeifertSymbol(
        "Oo" if orientable else "On",
        genus if orientable else genus + 1,
        tuple(fibers + fibers[:1] * repeats),
    ),
    st.booleans(),
    st.integers(0, 1),
    st.lists(fiber_pairs_st(max_alpha=4), max_size=4),
    st.integers(0, 3),
)


class TestMontesinosLink:
    def test_needs_a_tangle(self):
        with pytest.raises(ValueError):
            MontesinosLink(0, ())

    def test_unreduced_tangle_rejected(self):
        with pytest.raises(ValueError):
            MontesinosLink(0, ((2, 4),))

    def test_nonpositive_alpha_rejected(self):
        with pytest.raises(ValueError):
            MontesinosLink(0, ((1, -2),))

    def test_negative_genus_rejected(self):
        with pytest.raises(ValueError):
            MontesinosLink(-1, ((1, 2),))

    def test_json_round_trip(self):
        link = MontesinosLink(1, ((3, 2),))
        assert link_from_json(link.to_json()) == link

    def test_from_json_missing_field(self):
        with pytest.raises(ValueError, match="tangles"):
            link_from_json({"genus": 0})

    def test_from_json_bad_pair(self):
        with pytest.raises(ValueError, match=r"tangles\[0\]"):
            link_from_json({"genus": 0, "tangles": [[True, 2]]})

    @pytest.mark.parametrize(
        "tangles, message",
        [
            (((1, 2.0),), "tangles[0][1] must be an integer"),
            (((1, 2), (True, 3)), "tangles[1][0] must be an integer"),
            (([None, 3],), "tangles[0][0] must be an integer"),
            (((1, -2),), "tangle (1, -2): alpha must be >= 1"),
            (((5, 0),), "tangle (5, 0): alpha must be >= 1"),
            (((1, 2), (2, 4)), "tangle (2, 4) is not reduced"),
            (((0, 3),), "tangle (0, 3) is not reduced"),
        ],
    )
    def test_pair_refusal_messages(self, tangles, message):
        with pytest.raises(ValueError) as refused:
            MontesinosLink(0, tangles)
        assert str(refused.value) == message


class TestDoubleBranchedCover:
    def test_spherical_presentation_covers_to_prism_fibration(self):
        spherical, crosscap = ln_link(1)
        oo, on = prism_fibrations(1)
        assert double_branched_cover(spherical) == oo
        assert double_branched_cover(crosscap) == on

    def test_two_tangles_cover_to_lens_symbol(self):
        cover = double_branched_cover(MontesinosLink(0, ((1, 2), (1, 3))))
        assert is_lens_space_symbol(cover)

    @given(tangle_lists_st)
    @settings(max_examples=80)
    def test_cover_is_normalized(self, tangles):
        from prismvol import normalize

        cover = double_branched_cover(MontesinosLink(0, tuple(tangles)))
        assert cover == normalize(cover)

    @given(tangle_lists_st, st.randoms(use_true_random=False))
    @settings(max_examples=80)
    def test_tangle_order_irrelevant_to_cover(self, tangles, rng):
        shuffled = list(tangles)
        rng.shuffle(shuffled)
        assert double_branched_cover(
            MontesinosLink(0, tuple(shuffled))
        ) == double_branched_cover(MontesinosLink(0, tuple(tangles)))


class TestIsLensSpaceSymbol:
    def test_two_exceptional_fibers(self):
        s = SeifertSymbol("Oo", 0, ((1, 2), (1, 3), (-1, 1)))
        assert is_lens_space_symbol(s)

    def test_three_exceptional_fibers(self):
        assert not is_lens_space_symbol(prism_fibrations(1)[0])

    def test_no_exceptional_fibers(self):
        assert is_lens_space_symbol(SeifertSymbol("Oo", 0, ((5, 1),)))

    def test_crosscap_base(self):
        assert not is_lens_space_symbol(prism_fibrations(1)[1])

    def test_positive_genus(self):
        assert not is_lens_space_symbol(SeifertSymbol("Oo", 1, ((1, 2), (0, 1))))

    def test_normalizes_before_counting(self):
        # 5/2 and -5/2 cancel into integer terms plus two genuine cones
        s = SeifertSymbol("Oo", 0, ((5, 2), (-5, 2), (7, 1)))
        assert is_lens_space_symbol(s)

    @given(lens_candidates_st)
    def test_normalizing_never_changes_the_answer(self, s):
        assert is_lens_space_symbol(s) == is_lens_space_symbol(normalize(s))

    def test_audit_normalizes_no_symbol(self, monkeypatch):
        calls = []
        original = seifert.normalize

        def counting(s):
            calls.append(s)
            return original(s)

        monkeypatch.setattr(seifert, "normalize", counting)
        result = prism_verify(-50, 50)
        rows = [r for r in result["reports"] if r["status"] != "excluded"]
        assert len(rows) == 100
        assert calls == []


class TestBranchingLinkFamily:
    def test_first_parameter_tangles(self):
        spherical, crosscap = ln_link(1)
        assert spherical == MontesinosLink(0, ((1, 2), (-1, 2), (-2, 3)))
        assert crosscap == MontesinosLink(1, ((3, 2),))

    def test_negative_parameter_cone_indices(self):
        spherical, _ = ln_link(-1)
        cover = double_branched_cover(spherical)
        assert base_orbifold(cover).cones == (2, 2, 5)

    def test_degenerate_parameter_covers_to_lens_symbol(self):
        spherical, _ = ln_link(0)
        assert is_lens_space_symbol(double_branched_cover(spherical))

    def test_family_consistent_with_fibrations(self):
        for n in range(-20, 21):
            spherical, crosscap = ln_link(n)
            if abs(4 * n - 1) < 3:
                continue
            oo, on = prism_fibrations(n)
            assert double_branched_cover(spherical) == oo
            assert double_branched_cover(crosscap) == on


class TestTwistKnotExclusion:
    def test_twist_knot_data_is_valid_and_two_tangle(self):
        for m in range(-20, 21):
            link = wn_link(m)
            assert link.genus == 0
            assert len(link.tangles) == 2
            assert all(alpha >= 1 for _, alpha in link.tangles)

    def test_twist_knot_covers_are_lens_symbols(self):
        for m in range(-20, 21):
            assert is_lens_space_symbol(double_branched_cover(wn_link(m)))

    def test_prism_covers_are_not_lens_symbols(self):
        for n in range(-20, 21):
            if abs(4 * n - 1) < 3:
                continue
            assert not is_lens_space_symbol(prism_fibrations(n)[0])

    def test_audit_verdict_matches_the_twist_knot_cover(self):
        # the expression the audit evaluated per row before it read the
        # family fact, with the twist knot's cover built each time; the
        # header states the verdict once for every row that is not excluded
        result = prism_verify(-1000, 1000)
        for row in result["reports"]:
            n = row["n"]
            if row["status"] == "excluded":
                assert abs(4 * n - 1) < 3
                continue
            twist_cover = double_branched_cover(wn_link(n))
            built = is_lens_space_symbol(twist_cover) and not is_lens_space_symbol(
                prism_fibrations(n)[0]
            )
            assert result["header"]["twist_knot_excluded"] is built

    def test_audit_builds_no_twist_knot_cover(self, monkeypatch):
        calls = []
        original = montesinos.double_branched_cover

        def counting(link):
            calls.append(link)
            return original(link)

        monkeypatch.setattr(montesinos, "double_branched_cover", counting)
        monkeypatch.setattr(audit, "double_branched_cover", counting, raising=False)
        prism_verify(-50, 50)
        assert calls == []

    @given(fiber_pairs_st(), fiber_pairs_st())
    @settings(max_examples=80)
    def test_any_two_tangle_link_covers_to_lens_symbol(self, t1, t2):
        cover = double_branched_cover(MontesinosLink(0, (t1, t2)))
        assert is_lens_space_symbol(cover)
