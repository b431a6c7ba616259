import random
from itertools import groupby

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from metafix.samples import random_word
from metafix.words import MAX_LETTERS, Word, WordError, free_reduce, parse_word, word_to_text


def test_reduce_examples():
    assert Word(2, (1, -1)).is_identity()
    assert Word(2, (1, 2, -2, 1)).letters == (1, 1)
    w = Word(2, (1, 2, 1))
    assert Word(2, w.letters) == w


def test_letter_range_checked():
    with pytest.raises(WordError):
        Word(2, (3,))
    with pytest.raises(WordError):
        Word(2, (0,))


def test_group_axioms_examples():
    u = parse_word("x1 x2 x1^-1 x2", 2)
    assert (u * u.inverse()).is_identity()
    assert parse_word("x1 x2", 2).inverse() == parse_word("x2^-1 x1^-1", 2)
    v = parse_word("x2 x1", 2)
    assert Word.identity(2) * v == v


def test_rank_mismatch():
    with pytest.raises(WordError):
        parse_word("x1", 2) * parse_word("x1", 3)


def test_exponent_sums_examples():
    assert parse_word("[x1,x2]", 2).exponent_sums() == (0, 0)
    assert parse_word("x1^3 x2^-1", 2).exponent_sums() == (3, -1)
    assert Word.identity(3).exponent_sums() == (0, 0, 0)


def test_exponent_sums_homomorphism():
    rng = random.Random(8)
    for _ in range(200):
        n = rng.randrange(2, 5)
        u = random_word(rng, n, rng.randrange(15))
        v = random_word(rng, n, rng.randrange(15))
        uv = (u * v).exponent_sums()
        assert uv == tuple(a + b for a, b in zip(u.exponent_sums(), v.exponent_sums()))


def _random_schedule_reduce(letters, rng):
    letters = list(letters)
    while True:
        cancel = [i for i in range(len(letters) - 1) if letters[i] == -letters[i + 1]]
        if not cancel:
            return tuple(letters)
        i = rng.choice(cancel)
        del letters[i : i + 2]


def test_reduction_confluent_under_random_schedules():
    rng = random.Random(9)
    for _ in range(300):
        n = rng.randrange(2, 4)
        raw = [rng.choice([1, -1]) * rng.randrange(1, n + 1) for _ in range(20)]
        assert free_reduce(raw) == _random_schedule_reduce(raw, rng)


def test_parse_examples():
    w = parse_word("x1 [x2,x3] x1^-1", 3)
    expected = (
        Word.generator(0, 3)
        * Word.generator(1, 3).commutator(Word.generator(2, 3))
        * Word.generator(0, 3).inverse()
    )
    assert w == expected

    assert parse_word("[x1,x2]^-1", 2) == parse_word("x2^-1 x1^-1 x2 x1", 2)
    assert parse_word("[x2,x3,x1]", 3) == parse_word("[[x2,x3],x1]", 3)
    assert parse_word("(x1 x2)^2", 2) == parse_word("x1 x2 x1 x2", 2)
    assert parse_word("1", 2).is_identity()


def test_parse_errors_carry_position():
    with pytest.raises(WordError):
        parse_word("x4", 3)
    err = None
    try:
        parse_word("x1 ]", 2)
    except WordError as e:
        err = e
    assert err is not None and err.position == 3
    with pytest.raises(WordError):
        parse_word("[x1]", 2)
    with pytest.raises(WordError):
        parse_word("(x1", 2)


def test_text_round_trip():
    rng = random.Random(10)
    for _ in range(200):
        n = rng.randrange(2, 5)
        w = random_word(rng, n, rng.randrange(20))
        assert parse_word(word_to_text(w), n) == w
    assert word_to_text(Word.identity(2)) == "1"
    assert word_to_text(parse_word("x1 x1 x2^-1", 2)) == "x1^2 x2^-1"


def test_powers():
    u = parse_word("x1 x2", 2)
    assert u**0 == Word.identity(2)
    assert u**3 == parse_word("x1 x2 x1 x2 x1 x2", 2)
    assert u**-2 == (u * u).inverse()
    rng = random.Random(12)
    for _ in range(300):
        n = rng.randrange(1, 4)
        w = random_word(rng, n, rng.randrange(12))
        k = rng.randint(-20, 20)
        expected = Word.identity(n)
        for _ in range(abs(k)):
            expected = expected * (w if k > 0 else w.inverse())
        assert w**k == expected


def test_power_over_the_letter_cap_is_rejected():
    w = parse_word("x3 [x1,x2] x3^-1", 3)  # 4-letter core, conjugator counted twice
    with pytest.raises(WordError):
        w ** (MAX_LETTERS // 4)
    with pytest.raises(WordError):
        w ** -(MAX_LETTERS // 4)
    with pytest.raises(WordError):
        parse_word("([x1,x2])^100000000", 2)


def test_parsed_products_and_commutators_over_the_letter_cap_are_rejected():
    half = MAX_LETTERS // 2 + 1
    with pytest.raises(WordError, match="product"):
        parse_word(f"x1^{half} x2^{half}", 2)
    with pytest.raises(WordError, match="commutator"):
        parse_word(f"[x1^{half // 2 + 1}, x2^{half // 2}]", 2)
    # at the cap itself the word is still built
    assert len(parse_word(f"x1^{half - 1} x2^{half - 1}", 2)) == MAX_LETTERS


# -- products and exponent sums against letter-by-letter references ----------

ranks = st.integers(1, 4)


def raw_letters(n, max_size=30):
    return st.lists(st.integers(-n, n).filter(bool), max_size=max_size)


def inverse_letters(letters):
    return [-L for L in reversed(letters)]


# (rank, u, k, w): the right factor inverts the last k letters of u, then
# continues with w, so the junction cancels k or more letters
products = ranks.flatmap(lambda n: st.tuples(
    st.just(n), raw_letters(n), st.integers(0, 30), raw_letters(n, 10)))


@given(products)
@example((2, [], 0, []))
@example((2, [1, 2, -1], 0, []))
@example((2, [], 0, [2, 1]))
@example((3, [1, 2, -3], 3, []))
@example((3, [1, 2, -3], 2, [-1]))
def test_product_matches_letter_by_letter_reduction(case):
    n, u_raw, k, w_raw = case
    u = Word(n, u_raw)
    tail = list(u.letters[max(len(u) - k, 0) :])
    v = Word(n, inverse_letters(tail) + w_raw)
    assert (u * v).letters == free_reduce(u.letters + v.letters)
    assert (v * u).letters == free_reduce(v.letters + u.letters)
    assert (u * u.inverse()).is_identity()


@given(ranks.flatmap(lambda n: st.tuples(st.just(n), raw_letters(n, 60))))
def test_exponent_sums_match_a_loop(case):
    n, raw = case
    w = Word(n, raw)
    sums = [0] * n
    for L in w.letters:
        sums[abs(L) - 1] += 1 if L > 0 else -1
    assert w.exponent_sums() == tuple(sums)


# -- text against the letter-by-letter formatter ------------------------------


def ref_word_to_text(w):
    """The groupby formatter that the joined tokens and run regex replace."""
    if not w.letters:
        return "1"
    parts = []
    for letter, run in groupby(w.letters):
        e = len(list(run))
        if letter < 0:
            letter, e = -letter, -e
        parts.append(f"x{letter}" if e == 1 else f"x{letter}^{e}")
    return " ".join(parts)


def runs(n):
    """(letter, run length) pairs, short runs mostly, some long ones."""
    letter = st.integers(-n, n).filter(bool)
    length = st.integers(1, 3) | st.integers(50, 1500)
    return st.lists(st.tuples(letter, length), max_size=20)


@given(st.integers(1, 12).flatmap(lambda n: st.tuples(st.just(n), runs(n))))
@example((2, []))
@example((12, [(1, 1), (11, 1), (12, 2), (1, 3), (-11, 1), (-1, 2), (-12, 1), (10, 1)]))
@example((12, [(11, 1), (1, 1), (-12, 1), (-1, 1), (11, 2), (1, 11)]))
@example((2, [(1, 1), (-2, 1)] * 50))
@example((3, [(-3, 1000), (2, 1), (-3, 999)]))
def test_word_to_text_matches_reference(case):
    n, pairs = case
    w = Word(n, [letter for letter, length in pairs for _ in range(length)])
    text = word_to_text(w)
    assert text == ref_word_to_text(w)
    assert parse_word(text, n) == w
