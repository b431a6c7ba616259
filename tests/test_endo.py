from hypothesis import example, given
from hypothesis import strategies as st

from metafix.endo import Endomorphism
from metafix.words import Word, free_reduce

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
