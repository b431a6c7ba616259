import json
import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from metafix import endo, magnus
from metafix.braid import BraidWord, parse_braid
from metafix.cli import main
from metafix.endo import Endomorphism, inner_automorphism, parse_endomorphism
from metafix.laurent import LaurentPoly, parse_poly
from metafix.magnus import MagnusElement
from metafix.samples import random_word
from metafix.words import MAX_LETTERS, Word, WordError, free_reduce, parse_word, word_to_text
from tests.conftest import data_path

ranks = st.integers(1, 4)


def raw_letters(n, max_size):
    return st.lists(st.integers(-n, n).filter(bool), max_size=max_size)


def ref_apply(images, letters):
    """Substitute every letter's image, then free-reduce letter by letter."""
    out = []
    for L in letters:
        img = images[abs(L) - 1]
        out.extend(img if L > 0 else [-M for M in reversed(img)])
    return free_reduce(out)


# short images over few generators: many are 1, and many cancel against
# the running image
cases = ranks.flatmap(lambda n: st.tuples(
    st.just(n), st.lists(raw_letters(n, 6), min_size=n, max_size=n), raw_letters(n, 40)))


@given(cases)
@example((1, [[]], [1, 1, -1]))
@example((3, [[], [1, 2], [-2, -1]], [2, 3, 1, -3, -2]))
@example((2, [[1, 2, 1], [-1, -2, 2]], [-1, 2, -2, -1, 2]))
@example((2, [[1, 2], [-2, -1, 2]], [1, -2, -1, 2, 1]))
def test_apply_matches_letter_by_letter_reduction(case):
    n, image_letters, w_raw = case
    images = [Word(n, raw) for raw in image_letters]
    phi = Endomorphism(images)
    w = Word(n, w_raw)
    reduced = [y.letters for y in images]
    # the second call reuses the image table the first one built
    assert phi.apply(w).letters == ref_apply(reduced, w.letters)
    assert phi.apply(w.inverse()).letters == ref_apply(reduced, w.inverse().letters)


# x1 -> [x1,x2]^512 x1: 2049 letters, none cancelling in powers of x1
HOSTILE = "x1 -> (x1 x2 x1^-1 x2^-1)^512 x1\nx2 -> x2\n"


def test_image_past_the_letter_limit_is_rejected():
    # x1^1024 would map to 2,098,176 letters; apply stops once the
    # running image passes the limit
    phi = parse_endomorphism(HOSTILE)
    with pytest.raises(WordError, match=str(MAX_LETTERS)):
        phi.apply(parse_word("x1^1024", 2))
    assert len(phi.apply(parse_word("x1^511", 2))) == 511 * 2049 <= MAX_LETTERS
    # x1 -> x1^1024: x1^1024 maps to exactly 2^20 letters, which the limit
    # allows, and one letter more is rejected
    phi = parse_endomorphism("x1 -> x1^1024\nx2 -> x2\n")
    assert len(phi.apply(parse_word("x1^1024", 2))) == 1 << 20 == MAX_LETTERS
    with pytest.raises(WordError, match=str(MAX_LETTERS)):
        phi.apply(parse_word("x1^1024 x2", 2))


def test_verify_rejects_an_image_past_the_letter_limit(tmp_path, capsys):
    # x1 -> [x1,x2]^512 x1 x1 is not IA, so verify builds the image of
    # x1^1024, which passes the limit at its 512th letter, 512 * 2050
    # letters long; the error gives that length
    f = tmp_path / "hostile.endo"
    f.write_text("x1 -> (x1 x2 x1^-1 x2^-1)^512 x1 x1\nx2 -> x2\n")
    code = main(["verify", str(f), "(x1)^1024"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == f"error: image of 1049600 letters exceeds the limit of {MAX_LETTERS}\n"


def test_verify_rejects_a_non_ia_image_before_the_pass_over_the_word(monkeypatch, capsys):
    # x1 -> x1 x1 is not IA: the image of x1^1000000 passes the limit at
    # 1048578 letters, and verify rejects it before any Fox pass
    def fail(*args, **kwargs):
        raise AssertionError("verify ran a Fox pass before building the image")

    monkeypatch.setattr(magnus, "word_coords", fail)
    code = main(["verify", data_path("doubling.endo"), "x1^1000000"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == f"error: image of 1048578 letters exceeds the limit of {MAX_LETTERS}\n"


def test_verify_answers_an_ia_word_whose_image_passes_the_limit(monkeypatch, tmp_path, capsys):
    # the chain rule answers an unfixed word of an IA endomorphism with no
    # image word, however long the image would be
    def refuse(self, w):
        raise AssertionError("verify built an image")

    monkeypatch.setattr(Endomorphism, "apply", refuse)
    f = tmp_path / "hostile.endo"
    f.write_text(HOSTILE)
    code = main(["verify", str(f), "(x1)^1024", "--json"])
    out, err = capsys.readouterr()
    assert code == 0 and err == ""
    assert json.loads(out)["fixed"] is False


def test_image_that_reduces_below_the_limit_is_kept():
    # conjugation by a 1000-letter g: letter by letter the images total
    # about 2M letters, more than the limit, but the reduced running image
    # never exceeds about 3k
    rng = random.Random(5)
    n = 3
    g = random_word(rng, n, 1000)
    w = random_word(rng, n, 1000)
    while len(g) < 1000 or len(w) < 1000:
        g, w = g * random_word(rng, n, 10), w * random_word(rng, n, 10)
    phi = inner_automorphism(g)
    assert len(w) * max(len(y) for y in phi.images) > MAX_LETTERS
    assert phi.apply(w) == g.inverse() * w * g


def test_left_sides_drop_leading_zeros_and_cap_their_digits():
    zeros = "0" * 5000
    phi = parse_endomorphism(f"x{zeros}1 -> x1^{zeros}2\nx2 -> x2\n")
    assert phi.images == (parse_word("x1^2", 2), parse_word("x2", 2))
    with pytest.raises(WordError) as info:
        parse_endomorphism(f"x1 -> x1\n\n# padded\nx{'3' * 5000} -> x1\n")
    assert str(info.value) == (
        "line 4: left side: number of 5000 digits exceeds the limit of 7 digits (at position 0)"
    )
    # a long run on the right side keeps its line number
    with pytest.raises(WordError, match=r"^line 2: number of 5000 digits .* \(at position 3\)$"):
        parse_endomorphism(f"x1 -> x1\nx2 -> x2 x{'1' * 5000}\n")


# every break of `str.splitlines` that is not LF, CR LF or CR
OTHER_BREAKS = ["\u2028", "\u2029", "\x85", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e"]


def analyze_json(capsys, path):
    assert main(["analyze", str(path), "--bound", "1", "--json"]) == 0
    rep = json.loads(capsys.readouterr().out)
    del rep["timing"], rep["input"]["file"]
    return rep


@pytest.mark.parametrize("brk", OTHER_BREAKS)
def test_a_line_break_inside_a_comment_stays_in_the_comment(tmp_path, capsys, brk):
    plain = tmp_path / "plain.endo"
    plain.write_text("x1 -> x1 [x2,x1]  # see note which wraps\nx2 -> x2\n", encoding="utf-8")
    broken = tmp_path / "broken.endo"
    broken.write_text(f"x1 -> x1 [x2,x1]  # see note{brk}which wraps\nx2 -> x2\n", encoding="utf-8")
    assert analyze_json(capsys, broken) == analyze_json(capsys, plain)
    # a bad line after such a comment is reported under its own number
    for end in ("\n", "\r\n", "\r"):
        with pytest.raises(WordError, match=r"^line 3: expected 'xI -> word'$"):
            parse_endomorphism(f"x1 -> x1  # a{brk}b{end}x2 -> x2{end}bogus{end}")


def test_left_sides_read_ascii_digits_only():
    with pytest.raises(WordError) as info:
        parse_endomorphism("x1 -> x1\nx١ -> x2\n")
    assert str(info.value) == "line 2: left side must be a generator, got 'x١'"


def test_equal_values_hash_equal():
    # each pair is built two ways; equal objects must collapse in a set
    x1, x2 = Word.generator(0, 2), Word.generator(1, 2)
    pairs = [
        (parse_poly("x2 + x1 - 2", 2), LaurentPoly.variable(0, 2) + LaurentPoly.variable(1, 2) - 2),
        (parse_word("[x1,x2]", 2), x1.commutator(x2)),
        (
            MagnusElement.of_word(parse_word("[[x1,x2],[x1,x3]]", 3)),
            MagnusElement.of_word(Word.identity(3)),
        ),
        (
            parse_endomorphism("x1 -> x1 [x1,x2]\nx2 -> x2"),
            Endomorphism([x1 * x1.commutator(x2), x2]),
        ),
        (parse_braid("A[1,2] A[2,3]^-1", 3), BraidWord(3, [(1, 2, 1), (2, 3, -1)])),
        # a constant polynomial equals its integer
        (LaurentPoly.constant(3, 2), 3),
        (LaurentPoly.zero(2), 0),
        (parse_poly("x1 - x1 - 5", 2), -5),
    ]
    for a, b in pairs:
        assert a is not b and a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1


@pytest.fixture
def summed(monkeypatch):
    """The words whose exponent sums `is_ia` takes, in call order."""
    words = []
    abelianizes_to = endo._abelianizes_to

    def counting(w, i):
        words.append(w)
        return abelianizes_to(w, i)

    monkeypatch.setattr(endo, "_abelianizes_to", counting)
    return words


@pytest.mark.parametrize("text,ia", [
    ("x1 -> x1 [x1,x2]\nx2 -> x2", True),
    ("x1 -> x2\nx2 -> x1", False),
    ("x1 -> x1\nx2 -> x2 x1", False),
])
def test_ia_check_sums_each_image_at_most_once(summed, text, ia):
    phi = parse_endomorphism(text)
    assert [phi.is_ia() for _ in range(3)] == [ia] * 3
    assert len(summed) == len({id(w) for w in summed}) <= phi.rank


def test_ia_check_matches_the_exponent_sums():
    rng = random.Random("ia-check")
    words = [parse_word(t, 3) for t in ("1", "x1", "x1^-1", "x1^2 x2 x1^-1 x2^-1", "x2 x1 x2^-1", "x1 x3^-1")]
    words += [random_word(rng, 3, rng.randrange(0, 12)) for _ in range(300)]
    for y in words:
        for i in range(1, 4):
            unit = tuple(int(j == i) for j in range(1, 4))
            assert endo._abelianizes_to(y, i) == (y.exponent_sums() == unit), (word_to_text(y), i)


def test_analyze_checks_ia_once(monkeypatch, capsys, summed, displaced_pair):
    # cmd_analyze asks twice and the fixed-point search asks at each
    # stage; only the first call sums the images
    monkeypatch.setattr("metafix.cli.parse_endomorphism", lambda text: displaced_pair)
    assert main(["analyze", data_path("displaced_pair.endo"), "--bound", "1", "--json"]) == 0
    capsys.readouterr()
    images = [w for w in summed if any(w is y for y in displaced_pair.images)]
    assert len(images) == displaced_pair.rank
