import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from metafix.endo import Endomorphism, inner_automorphism
from metafix.fox import (
    chain_rule_coords,
    jacobian,
    membership,
    membership_row,
    peel,
    product_rule_holds,
    word_coords,
)
from metafix.laurent import LaurentPoly, parse_poly
from metafix.matrices import ExactDivisionError
from metafix.samples import random_ia, random_module_vector, random_word
from metafix.words import Word, parse_word


def abelian_monomial(w):
    """The image of the word in the Laurent ring: x^(exponent sums)."""
    return LaurentPoly.monomial(w.exponent_sums(), w.rank)


def jacobian_row_identity_holds(phi, J=None):
    """Row i of the Jacobian contracts against (x_k - 1) to image_i^a - 1."""
    if J is None:
        J = jacobian(phi)
    return all(
        membership(row) == abelian_monomial(y) - 1 for row, y in zip(J.entries, phi.images)
    )


def test_derivative_base_cases():
    assert word_coords(parse_word("x1", 2)) == [1, 0]
    assert word_coords(parse_word("x1^-1", 2))[0] == parse_poly("-x1^-1", 2)


def test_derivative_of_commutator():
    assert word_coords(parse_word("[x1,x2]", 2)) == [
        parse_poly("x1^-1*x2^-1 - x1^-1", 2),
        parse_poly("x2^-1 - x1^-1*x2^-1", 2),
    ]


def test_jacobian_of_identity():
    n = 3
    jmi = jacobian(Endomorphism.identity(n)).minus_identity()
    assert all(e.is_zero() for row in jmi.entries for e in row)


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
    assert j.minus_identity().det() == 0


def test_displaced_pair_rank_defect(displaced_pair):
    jmi = jacobian(displaced_pair).minus_identity()
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


def test_chain_rule_coords_are_the_difference_word_s():
    # coords(g) (J - I), formed from the rows of g's generators only, is
    # the Fox pass of phi(g) g^-1, also for words that leave generators
    # out, for the identity word and for a word in M'', whose derivatives
    # all vanish, so that no row is formed
    rng = random.Random(29)
    for trial in range(60):
        n = 1 + trial % 6
        if n == 1:
            phi = Endomorphism.identity(1)
        else:
            phi = random_ia(rng, n, skip_chance=rng.choice((0.0, 0.5)))
        used = rng.sample(range(1, n + 1), rng.randrange(1, n + 1))
        words = [
            Word.identity(n),
            random_word(rng, n, rng.randrange(12)),
            Word(n, [rng.choice(used) * rng.choice((1, -1)) for _ in range(rng.randrange(1, 20))]),
        ]
        if n >= 2:
            m2 = parse_word("[[x1,x2], x2 [x1,x2] x2^-1]", n)
            assert not any(word_coords(m2))
            words.append(m2)
        for g in words:
            want = word_coords(phi.apply(g) * g.inverse())
            assert chain_rule_coords(phi, word_coords(g)) == want, (phi, g)


def test_det_vanishes_for_ia():
    rng = random.Random(25)
    for _ in range(30):
        n = rng.randrange(2, 5)
        phi = random_ia(rng, n)
        jmi = jacobian(phi).minus_identity()
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


# -- the membership row, its sum and the peel by x_j - 1 --------------------


def ref_membership(u):
    """sum u_i (x_i - 1), one variable and one product at a time."""
    n = len(u)
    total = LaurentPoly.zero(n)
    for i, p in enumerate(u):
        total = total + p * (LaurentPoly.variable(i, n) - 1)
    return total


def polys(n):
    monos = st.tuples(*[st.integers(-4, 4)] * n)
    terms = st.dictionaries(monos, st.integers(-50, 50).filter(bool), max_size=6)
    return terms.map(lambda t: LaurentPoly(n, t))


ranks = st.integers(1, 4)


def test_membership_row_is_built_once():
    for n in range(1, 5):
        row = membership_row(n)
        assert row is membership_row(n)
        assert list(row) == [LaurentPoly.variable(i, n) - 1 for i in range(n)]


@given(ranks.flatmap(lambda n: st.lists(polys(n), min_size=n, max_size=n)))
def test_membership_matches_reference(u):
    assert membership(u) == ref_membership(u)


@given(ranks.flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.integers(-n, n).filter(bool), max_size=30))))
def test_membership_of_word_coords_is_the_fundamental_identity(case):
    n, letters = case
    w = Word(n, letters)
    assert membership(word_coords(w)) == abelian_monomial(w) - 1


@given(st.integers(2, 4), st.integers(0, 2**32))
def test_membership_vanishes_on_module_vectors(n, seed):
    u = random_module_vector(random.Random(seed), n, entries=3)
    assert membership(u) == 0


@given(ranks.flatmap(lambda n: st.tuples(polys(n), st.integers(0, n - 1))))
def test_peel_splits_off_x_j_minus_1(case):
    p, j = case
    h, low = peel(p, j)
    assert p == h * membership_row(p.nvars)[j] + low
    assert low.subs_one(j) == low


def test_failed_peel_is_an_exact_division_error(monkeypatch):
    p = parse_poly("x1*x2 + 3*x2^-2", 2)
    assert peel(p, 0)[0] == parse_poly("x2", 2)
    monkeypatch.setattr(LaurentPoly, "divide_exact", lambda self, divisor: None)
    with pytest.raises(ExactDivisionError):
        peel(p, 1)
    assert peel(parse_poly("x1 + 1", 2), 1) == (0, parse_poly("x1 + 1", 2))
