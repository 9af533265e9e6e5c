"""Computed facts of the certificate that every prism manifold M_n of the
family is told apart from the rest, and from every cheap branched cover, by
its fundamental group.  Each test is named by its fact id and computes the
fact twice: with the package's kernels, and with the test's own arithmetic.

M_n is ``prism_fibrations(n)[0]``: over the sphere, with exceptional fibres
1/2, -1/2 and -2/(4n - 1), for every n with mu = |4n - 1| >= 3.
"""

from fractions import Fraction

from prismvol import (
    base_orbifold,
    chi_orb,
    euler_number,
    first_homology,
    prism_fibrations,
)
from support import snf_diagonal_oracle


def _parameters(bound: int) -> list[int]:
    """Every non-degenerate n with |n| <= bound."""
    return [n for n in range(-bound, bound + 1) if abs(4 * n - 1) >= 3]


def _fibres(n: int) -> list[tuple[int, int]]:
    """The (beta, alpha) fibres of M_n as defined, alpha > 0, not normalized."""
    m = 4 * n - 1
    return [(1, 2), (-1, 2), (-2, m) if m > 0 else (2, -m)]


def test_h1_is_z8():
    """H_1(M_n) = Z/8 for every n: the closed form is
    |e| * prod(alpha) = (2/mu) * (2 * 2 * mu) = 8, and the group is cyclic.

    The oracle reads H_1 from the relations alpha_i x_i + beta_i h = 0 and
    x_1 + x_2 + x_3 = 0 by determinantal divisors."""
    wrong = [n for n in _parameters(3000) if first_homology(prism_fibrations(n)[0]) != [8]]
    assert wrong == []
    for n in _parameters(300):
        fibres = _fibres(n)
        rows = [[alpha if j == i else 0 for j in range(3)] + [beta]
                for i, (beta, alpha) in enumerate(fibres)]
        rows.append([1, 1, 1, 0])
        assert [d for d in snf_diagonal_oracle(rows) if d != 1] == [8], n


def test_pi1_order_is_8mu():
    """|pi_1(M_n)| = 8 mu.

    (Scott, "The geometries of 3-manifolds", Bull. LMS 15, 1983.)  Let M be
    Seifert fibred over the sphere with exactly three cone points, with
    chi_orb(B) > 0 and e != 0, so that pi_1(M) is finite.  Then
    |pi_1(M)| = 4|e| / chi_orb(B)^2.  This is stated for three cone points
    only: it fails for lens spaces, which fibre with fewer.

    M_n has cones 2, 2, mu, with chi_orb = 1/mu and |e| = 2/mu, so the order
    is 8 mu.  So pi_1 determines mu, and mu determines n: 4n - 1 is 3 mod 4,
    so mu mod 4 gives its sign.  The M_n are pairwise distinct, the paper's
    corollary: infinitely many manifolds share lv = 2 V0, and link volume is
    not finite-to-one."""
    parameters = _parameters(2000)
    orders = {}
    for n in parameters:
        mu = abs(4 * n - 1)
        symbol = prism_fibrations(n)[0]
        assert len(base_orbifold(symbol).cones) == 3
        order = 4 * abs(euler_number(symbol)) / chi_orb(base_orbifold(symbol)) ** 2
        fibres = _fibres(n)
        e = -sum(Fraction(beta, alpha) for beta, alpha in fibres)
        chi = 2 - sum(1 - Fraction(1, alpha) for _, alpha in fibres)
        assert order == 4 * abs(e) / chi**2 == 8 * mu, n
        orders[order] = n
    assert len(orders) == len(parameters)
