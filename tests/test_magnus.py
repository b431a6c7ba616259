import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from metafix import magnus
from metafix.errors import InvariantError
from metafix.fox import membership, word_coords
from metafix.laurent import LaurentPoly, parse_poly
from metafix.magnus import (
    MagnusElement,
    coset_word,
    is_trivial,
    koszul_decompose,
    module_power_word,
    realize_coords,
)
from metafix.samples import (
    random_commutator_subgroup_word,
    random_module_vector,
    random_poly,
    random_word,
)
from metafix.words import Word, parse_word


def fundamental_identity_holds(m):
    """sum_i coords_i * (x_i - 1) == x^abelian - 1, exactly."""
    return membership(m.coords) == LaurentPoly.monomial(m.abelian, m.rank) - 1


def words_equal(u, v):
    """Equality of two words in the free metabelian group."""
    return is_trivial(u * v.inverse())


def power_coords(r, u):
    """Coordinates of r^u for r in the commutator subgroup and a ring
    scalar u: the action is componentwise multiplication."""
    if any(r.exponent_sums()):
        raise ValueError("base word is not in the commutator subgroup")
    return [u * c for c in word_coords(r)]


def test_of_word_examples():
    empty = MagnusElement.of_word(Word.identity(2))
    assert empty.is_identity()

    c = MagnusElement.of_word(parse_word("[x1,x2]", 2))
    assert c.abelian == (0, 0)
    assert c.coords[0] == parse_poly("x1^-1*x2^-1 - x1^-1", 2)
    assert c.coords[1] == parse_poly("x1^-1*x2^-1", 2) * parse_poly("x1 - 1", 2)

    m = MagnusElement.of_word(parse_word("x1 x2 x1^-1", 2))
    assert m.abelian == (0, 1)
    assert m.coords == (parse_poly("1 - x2", 2), parse_poly("x1", 2))
    assert fundamental_identity_holds(m)


def test_fundamental_identity_random():
    rng = random.Random(31)
    for _ in range(100):
        n = rng.randrange(2, 5)
        m = MagnusElement.of_word(random_word(rng, n, rng.randrange(25)))
        assert fundamental_identity_holds(m)


def test_group_structure():
    rng = random.Random(32)
    for _ in range(200):
        n = rng.randrange(2, 5)
        u = random_word(rng, n, rng.randrange(12))
        v = random_word(rng, n, rng.randrange(12))
        mu, mv = MagnusElement.of_word(u), MagnusElement.of_word(v)
        assert MagnusElement.of_word(u * v) == mu * mv
        assert (mu * mu.inverse()).is_identity()
        assert MagnusElement.of_word(Word.identity(n)) * mu == mu


def test_word_problem_examples():
    assert is_trivial(parse_word("[[x1,x2],[x1,x3]]", 3))
    assert not is_trivial(parse_word("[x1,x2]", 2))
    assert is_trivial(Word.identity(2))


def test_second_derived_subgroup_elements_are_trivial():
    rng = random.Random(33)
    for _ in range(20):
        n = rng.randrange(2, 4)
        a = random_commutator_subgroup_word(rng, n)
        b = random_commutator_subgroup_word(rng, n)
        assert is_trivial(a.commutator(b))


def test_power_coords_examples():
    r = parse_word("[x1,x2]", 2)
    rc = word_coords(r)
    one = LaurentPoly.one(2)
    assert power_coords(r, one) == rc
    assert power_coords(r, LaurentPoly.zero(2)) == [LaurentPoly.zero(2)] * 2

    x1 = LaurentPoly.variable(0, 2)
    conj = r.conjugated_by(parse_word("x1", 2))
    assert power_coords(r, x1) == word_coords(conj)


def test_power_coords_requires_commutator_subgroup():
    with pytest.raises(ValueError):
        power_coords(parse_word("x1", 2), LaurentPoly.one(2))


def test_module_power_word_matches_action():
    rng = random.Random(34)
    for _ in range(30):
        n = rng.randrange(2, 4)
        r = random_commutator_subgroup_word(rng, n)
        u = random_poly(rng, n, terms=2, span=1, coeff=2)
        w = module_power_word(r, u)
        assert word_coords(w) == power_coords(r, u)


def test_torsion_free_smoke():
    rng = random.Random(35)
    for _ in range(30):
        n = rng.randrange(2, 4)
        r = random_commutator_subgroup_word(rng, n)
        if is_trivial(r):
            continue
        u = random_poly(rng, n, terms=2, span=1, coeff=2)
        zero = all(p.is_zero() for p in power_coords(r, u))
        assert zero == u.is_zero()


def test_realize_round_trip_examples():
    c = parse_word("[x1,x2]", 2)
    u = word_coords(c)
    w = realize_coords(u)
    assert words_equal(w, c)

    n = 3
    base = parse_word("[x2,x3]", n)
    scalar = LaurentPoly.variable(0, n) - 1
    u = power_coords(base, scalar)
    w = realize_coords(u)
    assert word_coords(w) == u
    assert words_equal(w, module_power_word(base, scalar))

    zero = [LaurentPoly.zero(n)] * n
    assert realize_coords(zero).is_identity()


def test_realize_requires_module_vector():
    n = 2
    bad = [LaurentPoly.one(n), LaurentPoly.zero(n)]
    assert membership(bad)
    with pytest.raises(ValueError):
        realize_coords(bad)


def test_realize_round_trip_random():
    rng = random.Random(36)
    for _ in range(30):
        n = rng.randrange(2, 5)
        u = random_module_vector(rng, n)
        assert not membership(u)
        assert word_coords(realize_coords(u)) == list(u)


def test_koszul_decomposition_reassembles():
    rng = random.Random(37)
    for _ in range(30):
        n = rng.randrange(2, 5)
        u = random_module_vector(rng, n)
        decomp = koszul_decompose(u)
        rebuilt = [LaurentPoly.zero(n) for _ in range(n)]
        for (i, j), c in decomp.items():
            rebuilt[i] = rebuilt[i] + c * (LaurentPoly.variable(j, n) - 1)
            rebuilt[j] = rebuilt[j] - c * (LaurentPoly.variable(i, n) - 1)
        assert rebuilt == list(u)


def test_failed_peeling_division_is_an_invariant_error(monkeypatch):
    u = random_module_vector(random.Random(38), 3)
    monkeypatch.setattr(LaurentPoly, "divide_exact", lambda self, divisor: None)
    with pytest.raises(InvariantError, match="peeling"):
        koszul_decompose(u)


def test_is_trivial_runs_no_fox_pass_on_nonzero_exponent_sums(monkeypatch):
    passes = []

    def counted(w):
        passes.append(w)
        return word_coords(w)

    monkeypatch.setattr(magnus, "word_coords", counted)
    for text in ("x1", "x1^2 x2^-1", "[x1,x2] x3", "[[x1,x2],[x1,x3]] x2^-5"):
        assert not is_trivial(parse_word(text, 3))
    assert passes == []
    assert is_trivial(parse_word("[[x1,x2],[x1,x3]]", 3))
    assert not is_trivial(parse_word("[x1,x2]", 3))
    assert len(passes) == 2


def ref_module_power_word(r, u):
    """`module_power_word` as a product of words, one conjugate
    (g_m r g_m^-1)^c per monomial."""
    out = Word.identity(r.rank)
    for m, c in sorted(u.exponent_terms().items()):
        out = out * (r.conjugated_by(coset_word(m, r.rank)) ** c)
    return out


@given(st.integers(2, 3).flatmap(lambda n: st.tuples(
    st.lists(st.integers(-n, n).filter(bool), max_size=8),
    st.dictionaries(st.tuples(*[st.integers(-2, 2)] * n), st.integers(-3, 3).filter(bool), max_size=5),
    st.just(n),
)))
def test_module_power_word_matches_product_reference(case):
    # the letter list cancels where each piece joins it, as the product of
    # words does: the same freely reduced letters, for any base word
    letters, terms, n = case
    r, u = Word(n, letters), LaurentPoly(n, terms)
    assert module_power_word(r, u).letters == ref_module_power_word(r, u).letters
    base = Word.generator(0, n).commutator(Word.generator(n - 1, n))
    assert module_power_word(base, u).letters == ref_module_power_word(base, u).letters
