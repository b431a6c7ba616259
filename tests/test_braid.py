import itertools
import random

import pytest

from metafix.braid import (
    BraidWord,
    GassnerConventionError,
    alexander_vanishes,
    braid_automorphism,
    braid_to_text,
    gassner,
    gassner_reduced,
    image_is_generator_conjugate,
    parse_braid,
    pure_generator,
)
from metafix.endo import Endomorphism, parse_endomorphism
from metafix.fixpoint import fixed_point_in_commutator, is_fixed
from metafix.fox import jacobian
from metafix.laurent import parse_poly
from metafix.matrices import LaurentMatrix
from metafix.words import MAX_LETTERS, Word, WordError, word_to_text


def signed_generators(n):
    return [(i, j, s) for i in range(1, n) for j in range(i + 1, n + 1) for s in (1, -1)]


def random_braid(rng, n, max_len):
    gens = signed_generators(n)
    return BraidWord(n, [gens[rng.randrange(len(gens))] for _ in range(rng.randrange(max_len + 1))])


def test_parse_and_text():
    b = parse_braid("A[1,2] A[2,3]^-1", 3)
    assert b.letters == ((1, 2, 1), (2, 3, -1))
    assert braid_to_text(b) == "A[1,2] A[2,3]^-1"
    assert parse_braid("A[1,3]^2", 3).letters == ((1, 3, 1), (1, 3, 1))
    assert parse_braid("1", 3).letters == ()


def test_parse_errors():
    for bad in ("A[2,1]", "A[0,2]", "A[1,4]", "B[1,2]", "A[1,2]^x"):
        with pytest.raises((WordError, ValueError)):
            parse_braid(bad, 3)
    # the running letter count is checked before a power is expanded
    for bad in (f"A[1,2]^{MAX_LETTERS + 1}", f"A[1,2] A[1,3]^-{MAX_LETTERS}"):
        with pytest.raises(WordError, match="exceeds the limit"):
            parse_braid(bad, 3)


def artin_automorphism(i, n, inverse=False):
    """The free-group action of sigma_i^+-1, the module's convention."""
    xi = Word.generator(i - 1, n)
    xi1 = Word.generator(i, n)
    images = [Word.generator(k, n) for k in range(n)]
    if not inverse:
        images[i - 1] = xi * xi1 * xi.inverse()
        images[i] = xi
    else:
        images[i - 1] = xi1
        images[i] = xi1.inverse() * xi * xi1
    return Endomorphism(images)


def artin_expansion(i, j, sign, n):
    """A[i,j]^sign as the composite of its 2(j - i) Artin letters
    sigma_{j-1} ... sigma_{i+1} sigma_i^2 sigma_{i+1}^-1 ... sigma_{j-1}^-1."""
    wrap = list(range(j - 1, i, -1))
    seq = [(k, 1) for k in wrap] + [(i, 1), (i, 1)] + [(k, -1) for k in reversed(wrap)]
    if sign < 0:
        seq = [(k, -s) for (k, s) in reversed(seq)]
    phi = Endomorphism.identity(n)
    for (k, s) in seq:
        phi = artin_automorphism(k, n, inverse=(s < 0)).compose(phi)
    return phi


def test_pure_generators_match_the_artin_expansion():
    for n in range(2, 8):
        for (i, j, s) in signed_generators(n):
            assert pure_generator(i, j, s, n) == artin_expansion(i, j, s, n), (n, i, j, s)


def test_empty_braid_is_identity():
    assert braid_automorphism(BraidWord(3)) == Endomorphism.identity(3)


def test_generator_images_are_conjugates():
    for n in (2, 3, 4):
        for (i, j, s) in signed_generators(n):
            phi = braid_automorphism(BraidWord(n, [(i, j, s)]))
            assert phi.is_ia()
            assert image_is_generator_conjugate(phi)


def test_inverse_pair_cancels():
    rng = random.Random(61)
    for _ in range(10):
        b = random_braid(rng, 3, 3)
        both = b * b.inverse()
        assert braid_automorphism(both) == Endomorphism.identity(3)


def test_a12_automorphism_and_matrices():
    b = parse_braid("A[1,2]", 2)
    phi = braid_automorphism(b)
    assert [word_to_text(y) for y in phi.images] == [
        "x1 x2 x1 x2^-1 x1^-1",
        "x1 x2 x1^-1",
    ]
    g = gassner(b)
    expected = LaurentMatrix(
        2,
        [
            [parse_poly("x1*x2 - x1 + 1", 2), parse_poly("x1 - x1^2", 2)],
            [parse_poly("1 - x2", 2), parse_poly("x1", 2)],
        ],
    )
    assert g == expected
    assert (g - LaurentMatrix.identity(2, 2)).det() == 0

    reduced = gassner_reduced(b)
    assert reduced.rows == 1 and reduced.entries[0][0] == parse_poly("x1*x2", 2)
    assert not alexander_vanishes(b)


def test_reduced_shapes():
    assert gassner_reduced(BraidWord(3)).rows == 2
    assert gassner_reduced(BraidWord(3)) == LaurentMatrix.identity(2, 3)
    assert alexander_vanishes(BraidWord(3))
    for (i, j, s) in signed_generators(2):
        assert gassner_reduced(BraidWord(2, [(i, j, s)])).rows == 1


def test_gassner_is_multiplicative():
    rng = random.Random(62)
    for _ in range(20):
        a = random_braid(rng, 3, 4)
        b = random_braid(rng, 3, 4)
        assert gassner(a * b) == gassner(a) * gassner(b)


def test_reduction_rejects_non_braid_input():
    # an IA endomorphism that is not a braid automorphism: the last row is
    # not divisible by (x_n - 1), which must abort loudly
    phi = parse_endomorphism("x1 -> x1\nx2 -> x2\nx3 -> x3 [x1,x2]")
    with pytest.raises(GassnerConventionError):
        gassner_reduced(jacobian(phi))


def test_bridge_on_short_braids():
    count_vanishing = 0
    for letters in itertools.chain(
        [()],
        itertools.product(signed_generators(3), repeat=1),
        itertools.product(signed_generators(3), repeat=2),
    ):
        b = BraidWord(3, letters)
        phi = braid_automorphism(b)
        jmi = gassner(b) - LaurentMatrix.identity(3, 3)
        vanishes = alexander_vanishes(b)
        assert vanishes == (jmi.rank() <= 1)
        witness = fixed_point_in_commutator(phi)
        if vanishes:
            count_vanishing += 1
            assert witness is not None and is_fixed(phi, witness)
    assert count_vanishing > 3


def test_bridge_on_four_strands():
    # reaches A[1,4], A[2,4] and the middle conjugator of A[1,4], which the
    # 3-strand sweep never does
    rng = random.Random(63)
    braids = [random_braid(rng, 4, 4) for _ in range(60)]
    used = {letter for b in braids for letter in b.letters}
    assert used == set(signed_generators(4))
    count_vanishing = 0
    for b in braids:
        phi = braid_automorphism(b)
        jmi = gassner(phi) - LaurentMatrix.identity(4, 4)
        vanishes = alexander_vanishes(b)
        assert vanishes == (jmi.rank() <= 2), b
        witness = fixed_point_in_commutator(phi, jmi=jmi)
        if vanishes:
            count_vanishing += 1
            assert witness is not None and is_fixed(phi, witness), b
    assert 0 < count_vanishing < len(braids)
