import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prismvol import (
    IntMatrix,
    elementary_divisors,
    extended_gcd,
    frac_str,
)
from prismvol.exact import smith_normal_form
from support import (
    AffineRatio,
    bounded_diophantine,
    det_int,
    det_q,
    identity_rows,
    matmul_rows,
    rank_q,
    rational_arith,
    snf_diagonal_oracle,
)

rationals = st.builds(
    Fraction, st.integers(-50, 50), st.integers(1, 50)
)


class TestRationalArith:
    def test_additive_inverse(self):
        assert rational_arith(Fraction(1, 2), Fraction(-1, 2), "add") == 0

    def test_disk_three_cone_chi(self):
        # 1 - 1/2 - 1/2 - (1 - 1/3) = -2/3
        value = Fraction(1)
        value = rational_arith(value, Fraction(1, 2), "sub")
        value = rational_arith(value, Fraction(1, 2), "sub")
        drop = rational_arith(Fraction(1), Fraction(1, 3), "sub")
        assert rational_arith(value, drop, "sub") == Fraction(-2, 3)

    def test_disk_two_cone_chi(self):
        assert rational_arith(Fraction(-1, 2), Fraction(1, 5), "add") == Fraction(-3, 10)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            rational_arith(Fraction(1), Fraction(0), "div")

    def test_unknown_operation(self):
        with pytest.raises(ValueError):
            rational_arith(Fraction(1), Fraction(1), "pow")

    @given(rationals, rationals, rationals)
    def test_add_associative_commutative(self, a, b, c):
        add = lambda x, y: rational_arith(x, y, "add")
        assert add(add(a, b), c) == add(a, add(b, c))
        assert add(a, b) == add(b, a)

    @given(rationals, rationals, rationals)
    def test_mul_associative_commutative(self, a, b, c):
        mul = lambda x, y: rational_arith(x, y, "mul")
        assert mul(mul(a, b), c) == mul(a, mul(b, c))
        assert mul(a, b) == mul(b, a)

    def test_results_stay_reduced(self):
        value = rational_arith(Fraction(2, 4), Fraction(2, 4), "add")
        assert (value.numerator, value.denominator) == (1, 1)


class TestFracStr:
    def test_zero(self):
        assert frac_str(Fraction(0)) == "0/1"

    def test_negative(self):
        assert frac_str(Fraction(-2, 3)) == "-2/3"

    def test_integer_input(self):
        assert frac_str(5) == "5/1"


class TestExtendedGcd:
    @given(st.integers(-200, 200), st.integers(-200, 200))
    def test_bezout_identity(self, a, b):
        g, x, y = extended_gcd(a, b)
        import math

        assert g == math.gcd(a, b)
        assert x * a + y * b == g
        assert g >= 0


class TestIntMatrix:
    def test_entry_count_checked(self):
        with pytest.raises(ValueError):
            IntMatrix(2, 2, (1, 2, 3))

    def test_non_integer_entries_rejected(self):
        with pytest.raises(ValueError):
            IntMatrix(1, 2, (1.5, 2))

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError):
            IntMatrix.from_rows([[1, 2], [3]])


def _is_unimodular(m: IntMatrix) -> bool:
    return abs(det_int(m.to_rows())) == 1


class TestSmithNormalForm:
    def test_identity(self):
        diagonal, _ = smith_normal_form(IntMatrix.from_rows(identity_rows(2)))
        assert diagonal == [1, 1]

    def test_coprime_diagonal(self):
        diagonal, _ = smith_normal_form(IntMatrix.from_rows([[2, 0], [0, 3]]))
        assert diagonal == [1, 6]

    def test_rank_deficient(self):
        diagonal, _ = smith_normal_form(IntMatrix.from_rows([[2, 4], [2, 4]]))
        assert diagonal == [2, 0]

    @given(
        st.lists(
            st.lists(st.integers(-9, 9), min_size=1, max_size=5),
            min_size=1,
            max_size=5,
        ).filter(lambda rows: len({len(r) for r in rows}) == 1)
    )
    @settings(max_examples=60, deadline=None)
    def test_random_matrices(self, rows):
        m = IntMatrix.from_rows(rows)
        diagonal, (u, v) = smith_normal_form(m)

        product = matmul_rows(matmul_rows(u.to_rows(), rows), v.to_rows())
        for i, row in enumerate(product):
            for j, entry in enumerate(row):
                expected = diagonal[i] if i == j and i < len(diagonal) else 0
                assert entry == expected

        assert all(d >= 0 for d in diagonal)
        nonzero = [d for d in diagonal if d]
        assert diagonal == nonzero + [0] * (len(diagonal) - len(nonzero))
        for a, b in zip(nonzero, nonzero[1:]):
            assert b % a == 0

        assert _is_unimodular(u) and _is_unimodular(v)
        assert diagonal == snf_diagonal_oracle(rows)

    @given(
        st.lists(
            st.lists(st.integers(-9, 9), min_size=3, max_size=3),
            min_size=3,
            max_size=3,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_square_invariant_factor_product(self, rows):
        determinant = det_int(rows)
        if determinant == 0:
            return
        diagonal, _ = smith_normal_form(IntMatrix.from_rows(rows))
        product = 1
        for d in diagonal:
            product *= d
        assert product == abs(determinant)


def _matrices(height, width, bound):
    row = st.lists(st.integers(-bound, bound), min_size=width, max_size=width)
    return st.lists(row, min_size=height, max_size=height)


def _low_rank_matrices(height, width, rank, bound=7):
    """Products of a height-by-rank and a rank-by-width matrix, so of rank
    at most ``rank``."""
    return st.tuples(
        _matrices(height, rank, bound), _matrices(rank, width, bound)
    ).map(
        lambda pair: [
            [sum(x * y for x, y in zip(left, column)) for column in zip(*pair[1])]
            for left in pair[0]
        ]
    )


def _small_matrices(max_size):
    return st.integers(1, max_size).flatmap(
        lambda h: st.integers(1, max_size).flatmap(lambda w: _matrices(h, w, 9))
    )


class TestElementaryDivisors:
    """Sizes past the 5x5 the transform path was tested at, where its
    coefficients blow up."""

    def _check_invariants(self, rows):
        divisors = elementary_divisors(IntMatrix.from_rows(rows))
        size = min(len(rows), len(rows[0]))
        assert len(divisors) == size
        assert all(d >= 0 for d in divisors)
        rank = rank_q(rows)
        assert divisors[rank:] == [0] * (size - rank)
        assert all(d > 0 for d in divisors[:rank])
        for a, b in zip(divisors[:rank], divisors[1:rank]):
            assert b % a == 0
        if len(rows) == len(rows[0]):
            assert math.prod(divisors) == abs(det_q(rows))
        return divisors

    @given(st.sampled_from([12, 20]).flatmap(lambda n: _matrices(n, n, 50)))
    @settings(max_examples=25, deadline=None)
    def test_random_square(self, rows):
        self._check_invariants(rows)

    @given(
        st.sampled_from([(12, 12, 9), (20, 20, 13), (12, 20, 8), (20, 12, 5)]).flatmap(
            lambda shape: _low_rank_matrices(*shape)
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_rank_deficient(self, rows):
        divisors = self._check_invariants(rows)
        assert divisors[-1] == 0

    @given(
        st.sampled_from([(12, 20), (20, 12), (3, 17)]).flatmap(
            lambda shape: _matrices(*shape, 50)
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_non_square(self, rows):
        self._check_invariants(rows)

    @given(_small_matrices(5))
    @settings(max_examples=80, deadline=None)
    def test_matches_determinantal_divisors(self, rows):
        assert elementary_divisors(IntMatrix.from_rows(rows)) == snf_diagonal_oracle(rows)

    @given(_small_matrices(6))
    @settings(max_examples=80, deadline=None)
    def test_matches_smith_normal_form(self, rows):
        m = IntMatrix.from_rows(rows)
        assert elementary_divisors(m) == smith_normal_form(m)[0]

    def test_zero_and_unit_matrices(self):
        assert elementary_divisors(IntMatrix.from_rows([[0, 0], [0, 0], [0, 0]])) == [0, 0]
        assert elementary_divisors(IntMatrix.from_rows(identity_rows(4))) == [1, 1, 1, 1]
        assert elementary_divisors(IntMatrix.from_rows([[-7]])) == [7]

    def test_pivot_dividing_entries(self):
        # every entry a multiple of the first pivot: direct elimination only
        assert elementary_divisors(IntMatrix.from_rows([[2, 4], [6, 8]])) == [2, 4]
        assert elementary_divisors(IntMatrix.from_rows([[2, 4], [2, 4]])) == [2, 0]

    def test_same_result_under_optimize_flag(self):
        rows = [[3, 0, 0, 1], [0, 3, 0, 1], [0, 0, 3, 1], [1, 1, 1, 1]]
        code = (
            "from prismvol import IntMatrix, elementary_divisors;"
            f"print(elementary_divisors(IntMatrix.from_rows({rows!r})))"
        )
        result = subprocess.run(
            [sys.executable, "-O", "-c", code],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        assert result.stdout.strip() == str(elementary_divisors(IntMatrix.from_rows(rows)))
        assert result.stdout.strip() == "[1, 1, 3, 0]"


class TestAffineRatio:
    def test_zero_denominator_rejected(self):
        with pytest.raises(ValueError):
            AffineRatio(1, 1, 0, 0)

    def test_pole_returns_none(self):
        f = AffineRatio(2, -3, 4, -12)
        assert f(3) is None
        assert f(4) == Fraction(5, 4)


class TestBoundedDiophantine:
    def test_halving(self):
        f = AffineRatio(1, 0, 0, 2)
        assert bounded_diophantine(f, range(1, 5)) == [(2, 1), (4, 2)]

    def test_empty_domain(self):
        assert bounded_diophantine(AffineRatio(1, 0, 0, 1), []) == []

    def test_poles_skipped(self):
        f = AffineRatio(2, -3, 4, -12)
        hits = bounded_diophantine(f, range(1, 10))
        assert all(x != 3 for x, _ in hits)

    def test_value_filter(self):
        f = AffineRatio(1, 0, 0, 1)
        hits = bounded_diophantine(f, range(-3, 4), value_filter=lambda n: n % 2 == 0)
        assert hits == [(-2, -2), (0, 0), (2, 2)]

    def test_agrees_with_direct_loop(self):
        rng = random.Random(20260816)
        for _ in range(100):
            coeffs = [rng.randint(-9, 9) for _ in range(4)]
            if coeffs[2] == 0 and coeffs[3] == 0:
                coeffs[3] = 1
            f = AffineRatio(*coeffs)
            domain = range(rng.randint(-30, 0), rng.randint(1, 30))
            expected = []
            for x in domain:
                value = f(x)
                if value is not None and value.denominator == 1:
                    expected.append((x, int(value)))
            assert bounded_diophantine(f, domain) == expected
