import random
import tracemalloc
from itertools import groupby

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from metafix.samples import random_word
from metafix.words import (
    MAX_DEPTH,
    MAX_DIGITS,
    MAX_LETTERS,
    Word,
    WordError,
    _tokenize,
    check_size,
    free_reduce,
    parse_word,
    word_to_text,
)


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


def test_digit_runs_drop_leading_zeros_and_are_capped():
    # int() refuses more than 4300 digits; the tokenizer drops leading
    # zeros first and rejects, by length and position, a run that is
    # still longer than MAX_DIGITS
    zeros = "0" * 5000
    assert parse_word(f"x{zeros}2^-{zeros}3 x1^{zeros}", 2) == parse_word("x2^-3", 2)
    assert parse_word(f"x1^{zeros}{MAX_LETTERS}", 1) == Word(1, (1,) * MAX_LETTERS)
    for text, at, digits in (
        (f"x1^-{'9' * 5000}", 2, 5000),
        (f"x1 x{'1' * 5000}", 3, 5000),
        (f"x1^1{zeros}", 2, 5001),
        (f"x{zeros}{10 ** MAX_DIGITS}", 0, MAX_DIGITS + 1),
    ):
        with pytest.raises(WordError) as info:
            parse_word(text, 2)
        assert str(info.value) == (
            f"number of {digits} digits exceeds the limit of {MAX_DIGITS} digits"
            f" (at position {at})"
        )


def test_nesting_is_capped_by_depth_with_a_position():
    # each level takes two parser frames; past MAX_DEPTH the parser stops
    # with a positioned input error, not a RecursionError
    deepest = "(" * MAX_DEPTH + "x1" + ")" * MAX_DEPTH
    assert parse_word(deepest, 2) == Word(2, (1,))
    assert parse_word("[1," * MAX_DEPTH + "x1" + "]" * MAX_DEPTH, 2).is_identity()
    for opener in ("(", "[1,", "[x1,("):
        with pytest.raises(WordError) as info:
            parse_word(opener * 10_000 + "x1", 2)
        assert str(info.value).startswith(f"nesting deeper than {MAX_DEPTH} levels")
        assert info.value.position is not None


@pytest.mark.parametrize("text,at,message", [
    ("x1 x١", 3, "generator name needs an index"),
    ("x1^٣", 2, "exponent needs digits"),
    ("x1^-٣", 2, "exponent needs digits"),
])
def test_only_ascii_digits_are_digits(text, at, message):
    # str.isdecimal and int() also read "١" and "٣"; the grammar does not
    with pytest.raises(WordError) as info:
        parse_word(text, 2)
    assert info.value.position == at
    assert str(info.value) == f"{message} (at position {at})"


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


# -- the parser against the Word-building parser -----------------------------


def ref_parse_word(text, rank):
    """The parser that builds a `Word` for every factor and power, which
    the letter-list parser replaces."""
    tokens = _tokenize(text)
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else (None, None, len(text))

    def parse_sequence(stoppers):
        nonlocal pos
        out = Word.identity(rank)
        while pos < len(tokens) and tokens[pos][0] not in stoppers:
            at = tokens[pos][2]
            factor = parse_factor()
            check_size(len(out) + len(factor), "product", at)
            out = out * factor
        return out

    def parse_factor():
        nonlocal pos
        kind, value, at = peek()
        if kind == "gen":
            if not 1 <= value <= rank:
                raise WordError(f"generator x{value} out of range for rank {rank}", at)
            pos += 1
            atom = Word._raw(rank, (value,))
        elif kind == "one":
            pos += 1
            atom = Word.identity(rank)
        elif kind == "[":
            pos += 1
            entries = [parse_sequence({",", "]"})]
            while peek()[0] == ",":
                pos += 1
                entries.append(parse_sequence({",", "]"}))
            if peek()[0] != "]":
                raise WordError("unclosed '['", at)
            pos += 1
            if len(entries) < 2:
                raise WordError("a commutator needs at least two entries", at)
            atom = entries[0]
            for e in entries[1:]:
                check_size(2 * (len(atom) + len(e)), "commutator", at)
                atom = atom.commutator(e)
        elif kind == "(":
            pos += 1
            atom = parse_sequence({")"})
            if peek()[0] != ")":
                raise WordError("unclosed '('", at)
            pos += 1
        else:
            raise WordError(f"unexpected token {kind!r}", at)
        if peek()[0] == "pow":
            atom = atom ** peek()[1]
            pos += 1
        return atom

    out = parse_sequence(set())
    if pos != len(tokens):
        raise WordError("trailing input", tokens[pos][2])
    return out


def parse_outcome(parse, text, rank):
    """The letters of the parsed word, or the WordError's message and
    position."""
    try:
        w = parse(text, rank)
    except WordError as e:
        return "error", str(e), e.position
    assert type(w) is Word and w.rank == rank and w.letters == free_reduce(w.letters)
    return "word", w.letters


@st.composite
def word_texts(draw, n, depth=0):
    """A text in the grammar over n generators: a product of factors xK,
    1, (...) and [..., ...], each with or without an exponent, nested at
    most three deep."""
    factors = []
    for _ in range(draw(st.integers(0 if depth == 0 else 1, 4))):
        kind = draw(st.integers(0, 4 if depth < 3 else 2))
        if kind <= 1:
            factor = f"x{draw(st.integers(1, n))}"
        elif kind == 2:
            factor = "1"
        elif kind == 3:
            factor = f"({draw(word_texts(n, depth + 1))})"
        else:
            entries = [draw(word_texts(n, depth + 1)) for _ in range(draw(st.integers(2, 3)))]
            factor = f"[{','.join(entries)}]"
        if draw(st.booleans()):
            factor += f"^{draw(st.integers(-12, 12))}"
        factors.append(factor)
    return " ".join(factors)


# (position, text) insertions, none in about half the cases: stray
# brackets, signs and letters, generators out of range, exponents that
# the tokenizer rejects, and digits that int() rejects ("²") or accepts
# ("٣")
strays = st.just([]) | st.lists(
    st.tuples(
        st.integers(0, 200),
        st.sampled_from(
            list("x^-+[](),1 2²٣a\t") + ["x0", "x5", "x12", "^-", "^+2", "^²", "^٣", "^ 2", "^007"]
        ),
    ),
    min_size=1,
    max_size=3,
)


def with_strays(text, inserts):
    for at, ch in inserts:
        at = min(at, len(text))
        text = text[:at] + ch + text[at:]
    return text


cases = st.integers(1, 4).flatmap(lambda n: st.tuples(st.just(n), word_texts(n), strays))


half = MAX_LETTERS // 2 + 1


@given(cases)
@example((2, "x²", []))
@example((2, "x1^²", []))
@example((2, "x1^٣ x2^-٣", []))
@example((2, "x1 (x1^-1 x2)^3 x2^-3 [x1,x2,x1]^-2 1^5", []))
@example((2, f"x1^{half} x2^{half}", []))
@example((2, f"[x1^{half // 2 + 1}, x2^{half // 2}]", []))
@example((2, f"x1^{MAX_LETTERS + 1}", []))
@example((2, f"(x1 x2)^{half}", []))
def test_parse_word_matches_the_word_building_parser(case):
    rank, text, inserts = case
    text = with_strays(text, inserts)
    assert parse_outcome(parse_word, text, rank) == parse_outcome(ref_parse_word, text, rank)


@pytest.mark.parametrize("text,size", [
    (f"x1^{MAX_LETTERS + 1}", MAX_LETTERS + 1),
    (f"(x1 x2)^{MAX_LETTERS // 2 + 1}", MAX_LETTERS + 2),
])
def test_powers_over_the_letter_cap_are_rejected_before_building(text, size):
    # a word at the cap holds MAX_LETTERS pointers, 8 MB on 64-bit
    # builds, so a peak far below that shows none was built
    tracemalloc.start()
    try:
        with pytest.raises(WordError, match=f"power of {size} letters exceeds"):
            parse_word(text, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < MAX_LETTERS
