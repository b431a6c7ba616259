import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from metafix.endo import Endomorphism, inner_automorphism
from metafix.fox import (
    abelian_monomial,
    fox_derivative,
    jacobian,
    jacobian_row_identity_holds,
    product_rule_holds,
    word_coords,
)
from metafix.laurent import LaurentPoly, parse_poly
from metafix.matrices import LaurentMatrix
from metafix.samples import random_ia, random_word
from metafix.words import Word, parse_word


def test_derivative_base_cases():
    x1 = parse_word("x1", 2)
    assert fox_derivative(x1, 0) == 1
    assert fox_derivative(x1, 1) == 0
    assert fox_derivative(parse_word("x1^-1", 2), 0) == parse_poly("-x1^-1", 2)


def test_derivative_of_commutator():
    c = parse_word("[x1,x2]", 2)
    assert fox_derivative(c, 0) == parse_poly("x1^-1*x2^-1 - x1^-1", 2)
    assert fox_derivative(c, 1) == parse_poly("x2^-1 - x1^-1*x2^-1", 2)


def test_derivative_index_range():
    with pytest.raises(ValueError):
        fox_derivative(parse_word("x1", 2), 2)


def test_jacobian_of_identity():
    n = 3
    assert jacobian(Endomorphism.identity(n)) == LaurentMatrix.identity(n, n)


def test_jacobian_of_conjugation():
    n = 3
    phi = inner_automorphism(parse_word("x1", n))
    j = jacobian(phi)
    x1inv = LaurentPoly.variable(0, n, -1)
    for i in range(n):
        for k in range(n):
            if i == 0:
                expected = LaurentPoly.one(n) if k == 0 else LaurentPoly.zero(n)
            elif k == 0:
                expected = x1inv * (LaurentPoly.variable(i, n) - 1)
            elif k == i:
                expected = x1inv
            else:
                expected = LaurentPoly.zero(n)
            assert j.entries[i][k] == expected
    assert jacobian_row_identity_holds(phi, j)
    assert (j - LaurentMatrix.identity(n, n)).det() == 0


def test_displaced_pair_rank_defect(displaced_pair):
    jmi = jacobian(displaced_pair) - LaurentMatrix.identity(2, 2)
    assert jmi.rank() == 1


def test_row_identity_random():
    rng = random.Random(21)
    for _ in range(50):
        n = rng.randrange(2, 5)
        phi = random_ia(rng, n)
        assert jacobian_row_identity_holds(phi)


def test_fundamental_identity_random_words():
    rng = random.Random(22)
    for _ in range(100):
        n = rng.randrange(2, 5)
        w = random_word(rng, n, rng.randrange(20))
        total = LaurentPoly.zero(n)
        for k, d in enumerate(word_coords(w)):
            total = total + d * (LaurentPoly.variable(k, n) - 1)
        assert total == abelian_monomial(w) - 1


def test_derivative_cocycle_rules():
    rng = random.Random(23)
    for _ in range(100):
        n = rng.randrange(2, 4)
        u = random_word(rng, n, rng.randrange(12))
        v = random_word(rng, n, rng.randrange(12))
        du, dv, duv = word_coords(u), word_coords(v), word_coords(u * v)
        ua = abelian_monomial(u)
        for i in range(n):
            assert duv[i] == du[i] + ua * dv[i]
        dinv = word_coords(u.inverse())
        ua_inv = abelian_monomial(u.inverse())
        for i in range(n):
            assert dinv[i] == -(ua_inv * du[i])


def test_image_coords_transform_by_jacobian():
    # row vector of derivatives of the image word = row vector of the word
    # times the Jacobian (IA case); the coset solver depends on this
    rng = random.Random(24)
    for _ in range(50):
        n = rng.randrange(2, 4)
        phi = random_ia(rng, n)
        j = jacobian(phi)
        w = random_word(rng, n, rng.randrange(10))
        assert word_coords(phi.apply(w)) == j.vec_mul(word_coords(w))


def ia_cases(n):
    """n, the images x_i * [u_1, v_1] ... as pairs of raw letter lists,
    and a raw word."""
    letters = st.lists(st.integers(-n, n).filter(bool), max_size=5)
    image = st.lists(st.tuples(letters, letters), max_size=2)
    word = st.lists(st.integers(-n, n).filter(bool), max_size=30)
    return st.tuples(st.just(n), st.lists(image, min_size=n, max_size=n), word)


@given(st.integers(2, 4).flatmap(ia_cases))
def test_chain_rule_on_ia_images(case):
    # coords(phi(w)) = coords(w) J: the "unique" coset route takes its
    # particular solution -x^-a coords(w_a) from this identity
    n, images, letters = case
    ys = []
    for i, pairs in enumerate(images):
        y = Word.generator(i, n)
        for u, v in pairs:
            y = y * Word(n, u).commutator(Word(n, v))
        ys.append(y)
    phi = Endomorphism(ys)
    w = Word(n, letters)
    assert word_coords(phi.apply(w)) == jacobian(phi).vec_mul(word_coords(w))


def test_det_vanishes_for_ia():
    rng = random.Random(25)
    for _ in range(30):
        n = rng.randrange(2, 5)
        phi = random_ia(rng, n)
        jmi = jacobian(phi) - LaurentMatrix.identity(n, n)
        assert jmi.det().is_zero()


def test_product_rule_identity_pair():
    n = 3
    e = Endomorphism.identity(n)
    assert product_rule_holds(e, e)


def test_product_rule_pins_composition_order():
    n = 2
    phi = inner_automorphism(parse_word("x1", n))
    psi = inner_automorphism(parse_word("x2", n))
    assert product_rule_holds(phi, psi)
    composed = jacobian(phi.compose(psi))
    assert composed == jacobian(psi) * jacobian(phi)
    assert composed != jacobian(phi) * jacobian(psi)


def test_product_rule_random_pairs():
    rng = random.Random(26)
    for _ in range(25):
        n = rng.randrange(2, 4)
        assert product_rule_holds(random_ia(rng, n), random_ia(rng, n))


def test_product_rule_requires_ia():
    n = 2
    swap = Endomorphism([Word.generator(1, n), Word.generator(0, n)])
    with pytest.raises(ValueError):
        product_rule_holds(swap, Endomorphism.identity(n))
