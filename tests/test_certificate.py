"""Computed facts of the certificate that every prism manifold M_n of the
family is told apart from the rest, and from every cheap branched cover, by
its fundamental group.  Each test is named by its fact id and computes the
fact twice: with the package's kernels, and with the test's own arithmetic.
Each cited fact has one test, whose docstring states the theorem exactly as
the argument uses it; the test checks the floating-point inequalities the
argument draws from it, with the package's volume constants.

M_n is ``prism_fibrations(n)[0]``: over the sphere, with exceptional fibres
1/2, -1/2 and -2/(4n - 1), for every n with mu = |4n - 1| >= 3.
"""

from fractions import Fraction

from prismvol import (
    FIGURE_EIGHT_VOLUME,
    ONE_CUSP_VOLUME_FLOOR,
    WHITEHEAD_VOLUME,
    GroupPresentation,
    IntMatrix,
    base_orbifold,
    chi_orb,
    count_representations,
    double_branched_cover,
    elementary_divisors,
    euler_number,
    first_homology,
    ln_link,
    prism_fibrations,
    prism_header,
    upper_bound_value,
)
from support import (
    branched_cover_boundaries,
    brute_hom_count,
    brute_homs,
    catalan_alternating,
    det_int,
    h1_from_boundaries,
    identity_rows,
    linking_class,
    matmul_rows,
    plumbing_rows,
    self_linking,
    snf_diagonal_oracle,
)

# the figure-eight knot group <x, y | y x y^-1 x y = x y x^-1 y x>
FIGURE_EIGHT_RELATOR = (2, 1, -2, 1, 2, -1, -2, 1, -2, -1)
# the trefoil's Wirtinger group <x, y | x y x = y x y>, the packaged fixture
TREFOIL_RELATOR = (1, 2, 1, -2, -1, -2)


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


def test_figure_eight_counts():
    """The homomorphisms of the figure-eight group into S_d, d = 1..5: 1, 2,
    6, 48, 600, of which 1, 1, 2, 30, 384 have a transitive image: those are
    the connected d-sheeted covers of the knot's complement, with labelled
    sheets.  The oracle scans every pair of permutations, up to d = 4."""
    figure_eight = GroupPresentation(2, (FIGURE_EIGHT_RELATOR,))
    plain = [count_representations(figure_eight, d) for d in range(1, 6)]
    transitive = [count_representations(figure_eight, d, transitive=True) for d in range(1, 6)]
    assert plain == [1, 2, 6, 48, 600]
    assert transitive == [1, 1, 2, 30, 384]
    assert [brute_hom_count(2, (FIGURE_EIGHT_RELATOR,), d) for d in range(1, 5)] == plain[:4]


def test_figure_eight_monodromy_divisors():
    """The figure-eight complement fibres over the circle with monodromy
    h = [[2, 1], [1, 1]] on the fibre's H_1 = Z^2, so the k-fold cyclic cover
    has H_1 = Z + coker(h^k - I): the cokernels are 0, Z/5 and Z/4 + Z/4 for
    k = 1, 2, 3.  The oracle reads the divisors from the gcds of minors."""
    h = [[2, 1], [1, 1]]
    power = identity_rows(2)
    divisors = []
    for _ in range(3):
        power = matmul_rows(power, h)
        rows = [[entry - (i == j) for j, entry in enumerate(row)] for i, row in enumerate(power)]
        assert elementary_divisors(IntMatrix.from_rows(rows)) == snf_diagonal_oracle(rows)
        divisors.append(snf_diagonal_oracle(rows))
    assert divisors == [[1, 1], [1, 5], [4, 4]]


def _cover_h1(relator: tuple[int, ...], degree: int) -> list[list[int]]:
    """H_1 of the branched cover of each transitive map into S_degree, with
    generator 1 the meridian.  The package's divisors of d2 must agree with
    the oracle's."""
    found = []
    for assignment in brute_homs(2, (relator,), degree, transitive=True):
        d1, d2 = branched_cover_boundaries((relator,), assignment, 1)
        assert elementary_divisors(IntMatrix.from_rows(d2)) == snf_diagonal_oracle(d2)
        found.append(h1_from_boundaries(d1, d2))
    return found


def test_figure_eight_three_fold_cover_h1():
    """Both transitive maps of the figure-eight group into S_3 give a branched
    cover with H_1 = Z/4 + Z/4: the 3-fold cyclic cover, the Hantzsche-Wendt
    manifold.  The low-index search counts the same two maps."""
    figure_eight = GroupPresentation(2, (FIGURE_EIGHT_RELATOR,))
    assert count_representations(figure_eight, 3, transitive=True) == 2
    assert _cover_h1(FIGURE_EIGHT_RELATOR, 3) == [[4, 4], [4, 4]]


def test_double_branched_covers_of_the_two_knots():
    """The double branched covers are the lens spaces L(5, 2) over the
    figure-eight and L(3, 1) over the trefoil, with H_1 = Z/5 and Z/3."""
    assert _cover_h1(FIGURE_EIGHT_RELATOR, 2) == [[5]]
    assert _cover_h1(TREFOIL_RELATOR, 2) == [[3]]


def test_l0_double_cover_is_a_lens_space_of_order_8():
    """L_0 = M(1/2, -1/2, 2/1) covers to (Oo, 0; 1/2, 1/2, 1/1): a lens-space
    symbol with two exceptional fibres and H_1 = Z/8."""
    symbol = double_branched_cover(ln_link(0)[0])
    assert (symbol.base_class, symbol.genus, symbol.fibers) == ("Oo", 0, ((1, 2), (1, 2), (1, 1)))
    assert first_homology(symbol) == [8]


def test_ln_third_tangle_is_l0_twisted():
    """The third tangle of L_n is 1/(1/2 - 2n) = -2/(4n - 1): L_0's third
    tangle 2/1 with n full twists added, as exact rationals for |n| <= 5."""
    for n in range(-5, 6):
        beta, alpha = ln_link(n)[0].tangles[2]
        assert Fraction(beta, alpha) == 1 / (Fraction(1, 2) - 2 * n), n


def test_l0_double_cover_is_l_8_3_not_l_8_1():
    """L_0's double cover (Oo, 0; 1/2, 1/2, 1/1) is the lens space L(8, 3),
    not L(8, 1).

    Plumb it: a central vertex of weight a and, for each fibre 1/2, an arm of
    one vertex of weight -2, since 2/1 = [2]; the fibre 1/1 moves only a.
    The determinant is 4a + 4, and rather than fix the sign convention that
    sets a, take both a with |det| = |H_1| = 8: a = 1 and a = -3.  An arm's
    meridian has order 8, and its self-linking, a diagonal entry of the
    inverse form, is -3/8 or -5/8.  Every unit mod 8 squares to 1, so the
    class of q in a self-linking q/8, up to sign, does not depend on the
    generator or the orientation: it is 3 for both, and 1 for L(8, 1), the
    plumbing of one vertex of weight -8."""
    symbol = double_branched_cover(ln_link(0)[0])
    assert symbol.fibers == ((1, 2), (1, 2), (1, 1))
    arms = [[-2], [-2]]
    for a in range(-5, 6):
        assert det_int(plumbing_rows(a, arms)) == 4 * a + 4
    values = []
    for a in (1, -3):
        rows = plumbing_rows(a, arms)
        assert snf_diagonal_oracle(rows) == [1, 1, 8]
        order, value = self_linking(rows, 1)
        assert (order, linking_class(order, value)) == (8, 3)
        values.append(value)
    assert values == [Fraction(-3, 8), Fraction(-5, 8)]
    assert self_linking([[-8]], 0) == (8, Fraction(-1, 8))
    assert linking_class(8, Fraction(-1, 8)) == 1


# --- cited facts: each stated once, exactly as the argument uses it ---------

TWO_V0 = 2 * WHITEHEAD_VOLUME.value


def test_cited_link_volume_definition():
    """(Rieck and Yamashita, "The link volume of 3-manifolds", Algebr. Geom.
    Topol. 13, 2013.)  The link volume of a closed orientable 3-manifold M is
    the infimum of d * vol(S^3 - L) over the d-fold covers M -> S^3 branched
    over a hyperbolic link L.

    Used: one such cover bounds lv(M_n) above, the degree-2 cover over a link
    whose complement is the Whitehead link exterior, of cost 2 V0; another
    cover lowers the bound only if d * vol(S^3 - L) < 2 V0."""
    assert upper_bound_value() == round(TWO_V0, 12)
    assert prism_header()["upper_bound"] == "2*V0"


def test_cited_two_cusped_volume_floor():
    """(Agol, "The minimal volume orientable hyperbolic 2-cusped
    3-manifolds", Proc. Amer. Math. Soc. 138, 2010.)  An orientable hyperbolic
    3-manifold with two cusps has volume at least V0 = 3.6638..., that of the
    Whitehead link exterior.  (Thurston, "The geometry and topology of
    3-manifolds", 1979, ch. 6.)  All but finitely many Dehn fillings of one
    cusp of a hyperbolic 3-manifold are hyperbolic, and each has less volume.

    Used: filling all but two cusps, the complement of a hyperbolic link with
    two or more components has volume at least V0.  A cover of degree
    d >= 2 over it costs at least 2 V0, so only knots remain.  Degree 1
    would make M_n the 3-sphere, whose H_1 is 0, not Z/8."""
    assert 3.6638 < WHITEHEAD_VOLUME.value < 3.6639
    assert abs(WHITEHEAD_VOLUME.value - 4 * catalan_alternating()) < 1e-12
    assert first_homology(prism_fibrations(1)[0]) == [8]


def test_cited_double_cover_order_is_the_determinant():
    """(See Lickorish, "An Introduction to Knot Theory", 1997, ch. 9.)  The
    double cover of S^3 branched over a knot K has |H_1| = det K =
    |Delta_K(-1)|, which is odd, since Delta_K(1) = +-1 and Delta_K(-1) has the
    same parity.

    Used: no double cover branched over a knot has H_1 = Z/8.  The computed
    double covers agree: Z/3 over the trefoil, Delta = t^2 - t + 1, and Z/5
    over the figure-eight, Delta = -t^2 + 3t - 1."""
    knots = ((TREFOIL_RELATOR, (1, -1, 1)), (FIGURE_EIGHT_RELATOR, (-1, 3, -1)))
    for relator, alexander in knots:
        determinant = abs(sum(c * (-1) ** k for k, c in enumerate(alexander)))
        assert _cover_h1(relator, 2) == [[determinant]]
        assert determinant % 2 == 1


def test_cited_small_one_cusped_manifolds():
    """(Cao and Meyerhoff, Invent. Math. 146, 2001.)  The orientable cusped
    hyperbolic 3-manifolds of least volume are m003 and m004, of volume
    2.0298...  (Gabai, Meyerhoff and Milley, J. Amer. Math. Soc. 22, 2009.)
    The orientable one-cusped hyperbolic 3-manifolds of volume at most 2.848
    are ten census manifolds, and all but m003 and m004 have volume at least
    2.5689.

    Used: a cover of degree 3 costs less than 2 V0 only over a knot whose
    complement has volume below 2 V0 / 3 < 2.5689, so the complement is m003
    or m004.  The census gives H_1(m003) = Z + Z/5, and a knot complement in
    S^3 has H_1 = Z, so it is m004.  A cover of degree 4 or more costs at
    least 4 * 2.0 > 2 V0, as 2.0 is below 2.0298: the audit's degree cap 3."""
    assert TWO_V0 / 3 < 2.5689
    assert 2.0298 < FIGURE_EIGHT_VOLUME.value < 2.0299
    assert ONE_CUSP_VOLUME_FLOOR.value < FIGURE_EIGHT_VOLUME.value
    assert 4 * ONE_CUSP_VOLUME_FLOOR.value > TWO_V0
    assert prism_header()["max_degree"] == 3


def test_cited_knots_are_determined_by_their_complements():
    """(Gordon and Luecke, "Knots are determined by their complements",
    J. Amer. Math. Soc. 2, 1989.)  If two knots in S^3 have homeomorphic
    complements, a homeomorphism of S^3 takes one knot to the other.

    Used: the one knot with complement m004 is the figure-eight knot.  Volume
    does not rule out its 3-fold covers, since 3 vol(4_1) < 2 V0; their
    H_1 = Z/4 + Z/4, computed above, does."""
    assert 3 * FIGURE_EIGHT_VOLUME.value < TWO_V0
    assert _cover_h1(FIGURE_EIGHT_RELATOR, 3) == [[4, 4], [4, 4]]
