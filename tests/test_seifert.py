import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prismvol import (
    Orbifold2D,
    SeifertSymbol,
    UnsupportedBaseClass,
    base_orbifold,
    euler_number,
    first_homology,
    homology_order,
    normalize,
    prism_fibrations,
    symbol_from_json,
)
from prismvol.seifert import remove_fiber
from support import fiber_pairs_st, symbols_st

genus_zero_oo_st = st.builds(
    lambda fibers: SeifertSymbol("Oo", 0, tuple(fibers)),
    st.lists(fiber_pairs_st(), min_size=1, max_size=4),
)


class TestSymbolValidation:
    def test_crosscap_base_needs_genus(self):
        with pytest.raises(ValueError):
            SeifertSymbol("On", 0, ((1, 2),))

    def test_unreduced_pair_rejected(self):
        with pytest.raises(ValueError):
            SeifertSymbol("Oo", 0, ((2, 4),))

    def test_nonpositive_alpha_rejected(self):
        with pytest.raises(ValueError):
            SeifertSymbol("Oo", 0, ((1, 0),))

    def test_unknown_class_rejected(self):
        with pytest.raises(ValueError):
            SeifertSymbol("No", 0, ((1, 2),))

    def test_json_round_trip(self):
        s = SeifertSymbol("Oo", 1, ((1, 2), (-2, 1)))
        assert symbol_from_json(s.to_json()) == s

    def test_from_json_names_missing_field(self):
        with pytest.raises(ValueError, match="fibers"):
            symbol_from_json({"class": "Oo", "genus": 0})

    def test_from_json_names_bad_pair(self):
        with pytest.raises(ValueError, match=r"fibers\[1\]"):
            symbol_from_json({"class": "Oo", "genus": 0, "fibers": [[1, 2], [1]]})

    @pytest.mark.parametrize(
        "fibers, message",
        [
            (((1.5, 2),), "fibers: pair (1.5, 2) must be two integers"),
            (((1, 2), (1, True)), "fibers: pair (1, True) must be two integers"),
            (([1, "3"],), "fibers: pair (1, '3') must be two integers"),
            (((1, 0),), "fiber pair (1, 0): alpha must be >= 1"),
            (((3, -2),), "fiber pair (3, -2): alpha must be >= 1"),
            (((1, 2), (2, 4)), "fiber pair (2, 4) is not reduced"),
            (((0, 2),), "fiber pair (0, 2) is not reduced"),
        ],
    )
    def test_pair_refusal_messages(self, fibers, message):
        with pytest.raises(ValueError) as refused:
            SeifertSymbol("Oo", 0, fibers)
        assert str(refused.value) == message


class TestNormalize:
    def test_prism_symbol(self):
        s = SeifertSymbol("Oo", 0, ((1, 2), (-1, 2), (-2, 3)))
        assert normalize(s) == SeifertSymbol(
            "Oo", 0, ((1, 2), (1, 2), (1, 3), (-2, 1))
        )

    def test_trivial_symbol(self):
        s = SeifertSymbol("Oo", 0, ((0, 1),))
        assert normalize(s) == SeifertSymbol("Oo", 0, ((0, 1),))

    def test_excess_extraction(self):
        s = SeifertSymbol("Oo", 1, ((5, 3),))
        assert normalize(s) == SeifertSymbol("Oo", 1, ((2, 3), (1, 1)))

    @given(symbols_st())
    def test_idempotent(self, s):
        assert normalize(normalize(s)) == normalize(s)

    @given(symbols_st())
    @settings(max_examples=100)
    def test_euler_number_preserved(self, s):
        assert euler_number(normalize(s)) == euler_number(s)

    @given(symbols_st())
    def test_normal_form_shape(self, s):
        ns = normalize(s)
        *exceptional, last = ns.fibers
        assert last[1] == 1
        assert all(0 <= beta < alpha and alpha >= 2 for beta, alpha in exceptional)
        assert exceptional == sorted(exceptional, key=lambda f: (f[1], f[0]))


class TestEulerNumber:
    def test_cancellation(self):
        assert euler_number(SeifertSymbol("Oo", 0, ((1, 2), (-1, 2)))) == 0

    def test_prism_oo(self):
        s = SeifertSymbol("Oo", 0, ((1, 2), (-1, 2), (-2, 3)))
        assert euler_number(s) == Fraction(2, 3)

    def test_prism_on(self):
        assert euler_number(SeifertSymbol("On", 1, ((3, 2),))) == Fraction(-3, 2)


class TestBaseOrbifold:
    def test_sphere_with_three_cones(self):
        s = SeifertSymbol("Oo", 0, ((1, 2), (-1, 2), (-2, 3)))
        assert base_orbifold(s) == Orbifold2D(True, 0, 0, (2, 2, 3))

    def test_projective_plane_with_cone(self):
        s = SeifertSymbol("On", 1, ((3, 2),))
        assert base_orbifold(s) == Orbifold2D(False, 1, 0, (2,))

    def test_no_exceptional_fibers(self):
        s = SeifertSymbol("Oo", 2, ((3, 1),))
        assert base_orbifold(s) == Orbifold2D(True, 2, 0, ())

    @given(symbols_st())
    def test_invariant_under_normalize(self, s):
        assert base_orbifold(normalize(s)) == base_orbifold(s)


class TestRemoveFiber:
    def test_crosscap_exceptional(self):
        s = normalize(SeifertSymbol("On", 1, ((3, 2),)))
        index = next(i for i, (_, a) in enumerate(s.fibers) if a == 2)
        assert remove_fiber(s, index) == Orbifold2D(False, 1, 1, ())

    def test_crosscap_regular(self):
        s = normalize(SeifertSymbol("On", 1, ((3, 2),)))
        assert remove_fiber(s, "regular") == Orbifold2D(False, 1, 1, (2,))

    def test_spherical_regular(self):
        s = normalize(SeifertSymbol("Oo", 0, ((1, 2), (-1, 2), (-2, 3))))
        assert remove_fiber(s, "regular") == Orbifold2D(True, 0, 1, (2, 2, 3))

    def test_index_out_of_range(self):
        s = SeifertSymbol("Oo", 0, ((1, 2),))
        with pytest.raises(IndexError):
            remove_fiber(s, 5)

    def test_integer_term_not_removable(self):
        s = SeifertSymbol("Oo", 0, ((1, 2), (-2, 1)))
        with pytest.raises(ValueError):
            remove_fiber(s, 1)


class TestFirstHomology:
    def test_prism_order_eight(self):
        s = SeifertSymbol("Oo", 0, ((1, 2), (1, 2), (1, 3), (-2, 1)))
        divisors = first_homology(s)
        assert divisors == [8]
        assert homology_order(divisors) == 8

    def test_product_fibration_free_part(self):
        divisors = first_homology(SeifertSymbol("Oo", 0, ((0, 1),)))
        assert divisors == [0]
        assert homology_order(divisors) is None

    def test_perfect_fundamental_group(self):
        s = SeifertSymbol("Oo", 0, ((1, 2), (1, 3), (1, 5), (-1, 1)))
        divisors = first_homology(s)
        assert divisors == []
        assert homology_order(divisors) == 1

    def test_positive_genus_adds_free_rank(self):
        assert first_homology(SeifertSymbol("Oo", 2, ((0, 1),))) == [0] * 5

    def test_ten_fibres_past_the_small_sizes(self):
        fibers = (
            (-5, 8), (1, 2), (-17, 21), (-8, 23), (-7, 19),
            (1, 2), (-9, 25), (4, 19), (7, 12), (-1, 2),
        )
        s = SeifertSymbol("Oo", 0, fibers)
        divisors = first_homology(s)
        assert divisors == [2, 2, 2, 509242332]
        expected = abs(math.prod(alpha for _, alpha in fibers) * euler_number(s))
        assert homology_order(divisors) == expected

    def test_zero_euler_number_leaves_free_rank(self):
        # e = 0 over the (3,3,3) sphere: the torus bundle whose monodromy has
        # order 3, with H_1 = Z/3 + Z
        s = SeifertSymbol("Oo", 0, ((1, 3), (1, 3), (1, 3), (-1, 1)))
        assert euler_number(s) == 0
        assert first_homology(s) == [3, 0]

    def test_crosscap_base_unsupported(self):
        with pytest.raises(UnsupportedBaseClass):
            first_homology(SeifertSymbol("On", 1, ((3, 2),)))

    @given(genus_zero_oo_st)
    @settings(max_examples=80, deadline=None)
    def test_order_matches_closed_form(self, s):
        # |H1| = |alpha_1 ... alpha_r * e| whenever e != 0 and the base is a sphere
        e = euler_number(s)
        if e == 0:
            return
        order = homology_order(first_homology(s))
        expected = abs(math.prod(alpha for _, alpha in s.fibers) * e)
        assert expected.denominator == 1
        assert order == int(expected)


class TestPrismFibrations:
    def test_first_parameter(self):
        oo, on = prism_fibrations(1)
        assert oo == normalize(SeifertSymbol("Oo", 0, ((1, 2), (-1, 2), (-2, 3))))
        assert on == normalize(SeifertSymbol("On", 1, ((3, 2),)))

    def test_negative_parameter_positive_index(self):
        oo, on = prism_fibrations(-1)
        assert (2, 5) in oo.fibers
        assert all(alpha >= 1 for _, alpha in oo.fibers + on.fibers)

    def test_degenerate_parameter(self):
        with pytest.raises(ValueError):
            prism_fibrations(0)

    def test_euler_number_family(self):
        for n in range(-20, 21):
            if n == 0:
                continue
            oo, _ = prism_fibrations(n)
            assert euler_number(oo) == Fraction(2, 4 * n - 1)

    def test_family_pairwise_distinct(self):
        symbols = [prism_fibrations(n)[0] for n in range(-20, 21) if n != 0]
        assert len(set(symbols)) == len(symbols)
