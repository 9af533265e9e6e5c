import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from prismvol import Slope, delta, enumerate_constrained_slopes
from support import cramer_window, enumerate_slopes_oracle, slope_pairs_st, window_scan


class TestSlopeCanonicalForm:
    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            Slope(0, 0)

    def test_non_primitive_rejected(self):
        with pytest.raises(ValueError):
            Slope(2, 4)

    def test_sign_flipped_to_positive_q(self):
        assert Slope(-1, -1) == Slope(1, 1)
        assert Slope(3, -2) == Slope(-3, 2)

    def test_horizontal_representative(self):
        assert Slope(-1, 0) == Slope(1, 0)

    def test_json_round_trip(self):
        assert Slope(*Slope(-2, 1).to_json()) == Slope(-2, 1)

    @pytest.mark.parametrize(
        "p, q, message",
        [
            (True, 0, "slope p must be an integer, got True"),
            (1.0, 0, "slope p must be an integer, got 1.0"),
            ("1", 2.0, "slope p must be an integer, got '1'"),
            (1, 2.0, "slope q must be an integer, got 2.0"),
            (0, False, "slope q must be an integer, got False"),
            (2, None, "slope q must be an integer, got None"),
        ],
    )
    def test_type_refusal_messages(self, p, q, message):
        with pytest.raises(ValueError) as refused:
            Slope(p, q)
        assert str(refused.value) == message


class TestDelta:
    def test_standard_basis(self):
        assert delta(Slope(1, 0), Slope(0, 1)) == 1

    def test_equal_slopes(self):
        assert delta(Slope(1, 0), Slope(1, 0)) == 0

    def test_unit_determinant_pair(self):
        assert delta(Slope(3, 2), Slope(5, 3)) == 1

    @given(slope_pairs_st(), slope_pairs_st())
    def test_symmetric_and_separating(self, a, b):
        assert delta(a, b) == delta(b, a)
        assert (delta(a, b) == 0) == (a == b)

    def test_invariant_under_basis_change(self):
        rng = random.Random(5)
        pairs = [(Slope(1, 0), Slope(0, 1)), (Slope(3, 2), Slope(5, 3))]
        for _ in range(50):
            # random SL2(Z) word in the two standard generators
            a, b, c, d = 1, 0, 0, 1
            for _ in range(rng.randint(1, 6)):
                if rng.random() < 0.5:
                    a, b, c, d = a + c, b + d, c, d
                else:
                    a, b, c, d = a, b, a + c, b + d
            if rng.random() < 0.5:
                a, b, c, d = -a, -b, -c, -d
            assert a * d - b * c == 1
            for x, y in pairs:
                tx = Slope(a * x.p + b * x.q, c * x.p + d * x.q)
                ty = Slope(a * y.p + b * y.q, c * y.p + d * y.q)
                assert delta(tx, ty) == delta(x, y)


class TestEnumerateConstrainedSlopes:
    def test_standard_fiber_pair(self):
        found = enumerate_constrained_slopes(Slope(1, 0), Slope(0, 1), 1, 2)
        assert found == [Slope(-2, 1), Slope(-1, 1), Slope(0, 1), Slope(1, 1), Slope(2, 1)]

    def test_skewed_constraint(self):
        found = enumerate_constrained_slopes(Slope(1, 0), Slope(1, 2), 1, 2)
        assert found == [Slope(0, 1), Slope(1, 1)]

    def test_tight_constraint(self):
        assert enumerate_constrained_slopes(Slope(1, 0), Slope(0, 1), 1, 0) == [
            Slope(0, 1)
        ]

    def test_equal_slopes_rejected(self):
        with pytest.raises(ValueError):
            enumerate_constrained_slopes(Slope(1, 0), Slope(1, 0), 1, 2)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            enumerate_constrained_slopes(Slope(1, 0), Slope(0, 1), 0, 2)
        with pytest.raises(ValueError):
            enumerate_constrained_slopes(Slope(1, 0), Slope(0, 1), 1, -1)

    def test_solution_outside_narrow_window(self):
        # (14,3) is a genuine solution whose coordinates exceed
        # k1 + k2 + |c.p| + |c.q| + 1 = 9, so any completeness window must
        # grow with the fiber slope as well; see cramer_window.
        f, c = Slope(5, 1), Slope(4, 1)
        found = enumerate_constrained_slopes(f, c, 1, 2)
        assert Slope(14, 3) in found
        narrow = window_scan(f, c, 1, 2, 9)
        assert Slope(14, 3) not in narrow
        assert found == enumerate_slopes_oracle(f, c, 1, 2)

    @pytest.mark.parametrize(
        "f", [Slope(1, 0), Slope(0, 1), Slope(4, 1), Slope(-3, 1), Slope(-1, 2), Slope(-5, 3)]
    )
    def test_basis_from_a_modular_inverse_matches_the_oracle(self, f):
        """The basis (f, e) takes e from ``pow(f.p, -1, f.q)``: f = (1, 0) has no
        inverse to take, f = (p, 1) takes one modulo 1, and p may be negative."""
        constraints = [Slope(1, 0), Slope(0, 1), Slope(1, 1), Slope(-2, 1), Slope(-7, 5)]
        for c in constraints:
            for k1, k2 in ((1, 2), (2, 3), (3, 0)):
                if c != f:
                    found = enumerate_constrained_slopes(f, c, k1, k2)
                    assert found == enumerate_slopes_oracle(f, c, k1, k2), (c, k1, k2)

    @given(slope_pairs_st(5), slope_pairs_st(5))
    @settings(max_examples=80, deadline=None)
    def test_matches_window_oracle(self, f, c):
        if f == c:
            return
        found = enumerate_constrained_slopes(f, c, 1, 2)
        assert found == enumerate_slopes_oracle(f, c, 1, 2)
        assert len(found) <= 2 * (2 * 2 + 1)
        # the narrower additive window never finds anything extra
        narrow = window_scan(f, c, 1, 2, min(9, cramer_window(f, c, 1, 2)))
        assert set(narrow) <= set(found)

    @given(slope_pairs_st(4), slope_pairs_st(4))
    @settings(max_examples=40, deadline=None)
    def test_outputs_satisfy_constraints_and_sorted(self, f, c):
        if f == c:
            return
        found = enumerate_constrained_slopes(f, c, 2, 3)
        for alpha in found:
            assert delta(f, alpha) == 2
            assert delta(c, alpha) <= 3
        assert found == sorted(found, key=lambda a: (a.p, a.q))
        assert len(set(found)) == len(found)

    @given(slope_pairs_st(6), slope_pairs_st(6), st.integers(1, 4), st.integers(0, 6))
    @settings(max_examples=150, deadline=None)
    def test_constraints_and_size_bound(self, f, c, k1, k2):
        assume(f != c)
        found = enumerate_constrained_slopes(f, c, k1, k2)
        assert len(found) <= 2 * (2 * k2 + 1)
        for alpha in found:
            assert delta(f, alpha) == k1 and delta(c, alpha) <= k2
