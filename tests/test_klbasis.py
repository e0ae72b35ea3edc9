"""
The canonical-basis machinery, certified against independent oracles:
the bar-invariance solver for every basis element, and the plain group
algebra for the longest-element structure constant at v = 1.
"""

from collections import Counter
from itertools import combinations

import pytest

from fiatcells import (
    LaurentPoly,
    Permutation,
    all_permutations,
    bruhat_leq,
    canonical_basis,
    canonical_basis_by_bar_invariance,
    kl_polynomial,
    kl_structure_constants,
)
from fiatcells.klbasis import kl_structure_constants_at_one


def test_bruhat_against_subword_oracle():
    # subword property: x <= w iff a fixed reduced word of w contains a
    # subword that is a reduced expression of x
    for n in (2, 3, 4):
        group = all_permutations(n)
        for w in group:
            word = w.reduced_word()
            below = set()
            for r in range(len(word) + 1):
                for positions in combinations(range(len(word)), r):
                    x = Permutation.identity(n)
                    for p in positions:
                        x = x.right_mul_simple(word[p])
                    if x.length() == r:
                        below.add(x.one_line)
            for x in group:
                assert bruhat_leq(x, w) == (x.one_line in below), (x, w)


def test_kl_polynomials_trivial_small():
    for n in (2, 3):
        for x in all_permutations(n):
            for w in all_permutations(n):
                p = kl_polynomial(n, x, w)
                if bruhat_leq(x, w):
                    assert p == LaurentPoly.one()
                else:
                    assert p == LaurentPoly.zero()


def test_kl_polynomial_s4_classical_value():
    s1 = Permutation.simple(1, 4)
    s2 = Permutation.simple(2, 4)
    s3 = Permutation.simple(3, 4)
    w = s2 * s1 * s3 * s2
    assert kl_polynomial(4, s2, w) == LaurentPoly({0: 1, 1: 1})  # 1 + q
    # the other length-4 elements have trivial polynomials against s2
    assert kl_polynomial(4, s1, w) == LaurentPoly.one()


def test_kl_constant_term_and_degree_bound():
    for n in (3, 4, 5):
        for x in all_permutations(n):
            for w in all_permutations(n):
                p = kl_polynomial(n, x, w)
                if not bruhat_leq(x, w):
                    assert p == LaurentPoly.zero(), (x, w)
                    continue
                assert p.coeff(0) == 1
                if x != w:
                    assert 2 * p.max_exp() <= w.length() - x.length() - 1


def test_kl_polynomials_stable_under_padding_with_fixed_points():
    # S_4 sits in S_8 as a standard parabolic subgroup, and P_{x,w} does
    # not see the fixed points 5..8
    pad = (5, 6, 7, 8)
    for x in all_permutations(4):
        for w in all_permutations(4):
            big_x, big_w = Permutation(x.one_line + pad), Permutation(w.one_line + pad)
            assert kl_polynomial(8, big_x, big_w) == kl_polynomial(4, x, w), (x, w)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_recursion_agrees_with_bar_invariance_solver(n):
    assert canonical_basis(n) == canonical_basis_by_bar_invariance(n)


def test_canonical_basis_unitriangular_positive(hecke3):
    basis = canonical_basis(3)
    for w, vec in basis.items():
        assert vec[w] == LaurentPoly.one()
        for x, h in vec.items():
            if x != w:
                assert h.only_positive_exps()
                assert all(c >= 0 for c in h.coeffs.values())


def test_structure_constants_bar_invariant_and_positive():
    sc = kl_structure_constants(3)
    for (x, y), terms in sc.items():
        for z, h in terms.items():
            assert h.is_bar_invariant(), (x, y, z)
            assert all(c >= 0 for c in h.coeffs.values())


@pytest.mark.parametrize("n", [2, 3, 4])
def test_integer_constants_are_the_graded_ones_at_one(n):
    # the multiplication rule in Python ints against the full expansion
    # of every product over Laurent polynomials, entry for entry
    graded = kl_structure_constants(n)
    # the integer constants are by position in all_permutations(n)
    keys = [w.one_line for w in all_permutations(n)]
    at_one = {
        (keys[x], keys[y]): {keys[z]: c for z, c in col.items()}
        for x, col_x in enumerate(kl_structure_constants_at_one(n))
        for y, col in enumerate(col_x)
    }
    assert at_one.keys() == graded.keys()
    for xy, terms in graded.items():
        assert at_one[xy] == {z: h.eval_one() for z, h in terms.items()}, xy
        assert all(type(c) is int and c > 0 for c in at_one[xy].values()), xy


def test_s3_products_frozen():
    sc = kl_structure_constants(3)
    s, t = (2, 1, 3), (1, 3, 2)
    st, ts, w0 = (2, 3, 1), (3, 1, 2), (3, 2, 1)
    v_plus = LaurentPoly({1: 1, -1: 1})
    assert sc[(s, s)] == {s: v_plus}
    assert sc[(t, st)] == {w0: LaurentPoly.one(), t: LaurentPoly.one()}
    assert sc[(ts, st)] == {w0: v_plus, t: v_plus}
    assert sc[(w0, w0)][w0].eval_one() == 6


def test_longest_element_constant_against_group_algebra():
    # at v=1 the basis element of the longest element is the sum over the
    # group, and squaring it in the plain group ring gives n! copies
    for n in (2, 3, 4):
        group = all_permutations(n)
        w0 = Permutation.longest(n)
        basis_at_one = Counter()
        for x, h in canonical_basis(n)[w0.one_line].items():
            basis_at_one[x] = h.eval_one()
        assert basis_at_one == Counter({x.one_line: 1 for x in group})
        square = Counter()
        for x in group:
            for y in group:
                square[(x * y).one_line] += basis_at_one[x.one_line] * basis_at_one[y.one_line]
        import math

        assert square == Counter({x.one_line: math.factorial(n) for x in group})
        sc = kl_structure_constants(n)
        assert sc[(w0.one_line, w0.one_line)][w0.one_line].eval_one() == math.factorial(n)
