import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prismvol import (
    BraidWord,
    bennequin_chi,
    bennequin_genus,
    closure_components,
    twisted_torus_braid,
    word_from_json,
)

positive_words_st = st.integers(2, 5).flatmap(
    lambda n: st.builds(
        lambda letters: BraidWord(n, tuple(letters)),
        st.lists(st.integers(1, n - 1), min_size=0, max_size=8),
    )
)


class TestBraidWord:
    def test_zero_letter_rejected(self):
        with pytest.raises(ValueError):
            BraidWord(3, (1, 0))

    def test_letter_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            BraidWord(3, (3,))
        with pytest.raises(ValueError):
            BraidWord(3, (-3,))

    def test_single_strand_rejected(self):
        with pytest.raises(ValueError):
            BraidWord(1, ())

    def test_artin_spelling(self):
        assert BraidWord(4, (1, -2, 3)).artin() == "s1 s2^-1 s3"

    def test_json_round_trip(self):
        w = BraidWord(5, (1, 2, 3, 4, 1, 1))
        assert word_from_json(w.to_json()) == w

    def test_from_json_missing_field(self):
        with pytest.raises(ValueError, match="letters"):
            word_from_json({"strands": 3})

    def test_from_json_bool_letter_rejected(self):
        with pytest.raises(ValueError, match="letters"):
            word_from_json({"strands": 3, "letters": [1, True]})


class TestTwistedTorusBraid:
    def test_single_extra_twist(self):
        w = twisted_torus_braid(5, 1, 2, 1)
        assert w.strands == 5
        assert w.letters == (1, 2, 3, 4, 1, 1)

    def test_letter_count(self):
        w = twisted_torus_braid(5, 6, 2, 1)
        assert len(w.letters) == 26  # 4*6 torus letters + 2 twist letters

    def test_no_extra_twists_is_torus_braid(self):
        assert twisted_torus_braid(4, 3, 2, 0).letters == (1, 2, 3) * 3

    def test_negative_q_uses_inverse_letters(self):
        w = twisted_torus_braid(3, -2, 2, 0)
        assert w.letters == (-2, -1, -2, -1)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            twisted_torus_braid(1, 1, 2, 1)
        with pytest.raises(ValueError):
            twisted_torus_braid(5, 1, 1, 1)
        with pytest.raises(ValueError):
            twisted_torus_braid(5, 1, 6, 1)

    @given(
        st.integers(2, 6),
        st.integers(-6, 6),
        st.integers(2, 6),
        st.integers(-3, 3),
    )
    @settings(max_examples=120)
    def test_exponent_sum_formula(self, p, q, r, s):
        r = min(r, p)
        w = twisted_torus_braid(p, q, r, s)
        exponent_sum = sum(1 if letter > 0 else -1 for letter in w.letters)
        assert exponent_sum == q * (p - 1) + s * r * (r - 1)


class TestClosureComponents:
    def test_knotted_example(self):
        assert closure_components(twisted_torus_braid(5, 1, 2, 1)) == 1

    def test_two_component_example(self):
        assert closure_components(twisted_torus_braid(4, 2, 2, 0)) == 2

    def test_empty_word_closes_to_unlink(self):
        assert closure_components(BraidWord(4, ())) == 4

    def test_torus_braid_gcd(self):
        for p in range(2, 9):
            for q in list(range(-8, 0)) + list(range(1, 9)):
                w = twisted_torus_braid(p, q, 2, 0)
                assert closure_components(w) == math.gcd(p, abs(q))

    def test_family_members_are_knots(self):
        # closures of T(5, 5n+1; 2, 1) stay connected across the family
        for n in range(0, 101):
            w = twisted_torus_braid(5, 5 * n + 1, 2, 1)
            assert closure_components(w) == 1

    @given(positive_words_st, st.integers(0, 7))
    @settings(max_examples=80)
    def test_invariant_under_cyclic_rotation(self, w, shift):
        if not w.letters:
            return
        k = shift % len(w.letters)
        rotated = BraidWord(w.strands, w.letters[k:] + w.letters[:k])
        assert closure_components(rotated) == closure_components(w)

    @given(positive_words_st)
    @settings(max_examples=80)
    def test_sign_of_letters_irrelevant(self, w):
        mirrored = BraidWord(w.strands, tuple(-l for l in w.letters))
        assert closure_components(mirrored) == closure_components(w)


class TestBennequin:
    def test_chi_of_single_twist_example(self):
        assert bennequin_chi(twisted_torus_braid(5, 1, 2, 1)) == -1

    def test_chi_of_larger_example(self):
        assert bennequin_chi(twisted_torus_braid(5, 6, 2, 1)) == -21

    def test_chi_of_trivial_torus_braid(self):
        assert bennequin_chi(twisted_torus_braid(2, 1, 2, 0)) == 1

    def test_genus_of_single_twist_example(self):
        assert bennequin_genus(twisted_torus_braid(5, 1, 2, 1)) == 1

    def test_genus_of_unknot_braid(self):
        assert bennequin_genus(twisted_torus_braid(2, 1, 2, 0)) == 0

    def test_genus_of_trefoil_braid(self):
        assert bennequin_genus(BraidWord(2, (1, 1, 1))) == 1

    def test_negative_letter_rejected(self):
        with pytest.raises(ValueError):
            bennequin_chi(BraidWord(3, (1, -2)))

    def test_genus_needs_connected_closure(self):
        with pytest.raises(ValueError, match="1-component"):
            bennequin_genus(twisted_torus_braid(4, 2, 2, 0))

    @given(positive_words_st)
    @settings(max_examples=80)
    def test_chi_is_strands_minus_length(self, w):
        assert bennequin_chi(w) == w.strands - len(w.letters)

    @given(positive_words_st)
    @settings(max_examples=80)
    def test_genus_parity_consistency(self, w):
        if closure_components(w) != 1:
            return
        g = bennequin_genus(w)
        assert g >= 0
        assert 1 - 2 * g == bennequin_chi(w)

