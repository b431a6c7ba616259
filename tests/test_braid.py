import collections
import itertools
import random

import pytest

from metafix.braid import (
    BraidWord,
    GassnerConventionError,
    alexander_vanishes,
    braid_automorphism,
    braid_to_text,
    commutator_witness,
    gassner,
    gassner_reduced,
    parse_braid,
    pure_generator,
)
from metafix.endo import Endomorphism, parse_endomorphism
from metafix.fixpoint import fixed_point_in_commutator, is_fixed
from metafix.fox import j_minus_i, jacobian
from metafix.laurent import parse_poly
from metafix.matrices import LaurentMatrix
from metafix.words import MAX_LETTERS, Word, WordError, word_to_text


def signed_generators(n):
    return [(i, j, s) for i in range(1, n) for j in range(i + 1, n + 1) for s in (1, -1)]


def image_is_generator_conjugate(phi):
    """Every image word has the shape w x_k w^-1."""
    for k, y in enumerate(phi.images):
        letters = list(y.letters)
        while len(letters) >= 3 and letters[0] == -letters[-1]:
            letters = letters[1:-1]
        if letters != [k + 1]:
            return False
    return True


def unreduced_gassner(b):
    return gassner(braid_automorphism(b))


def reduced_gassner(b):
    return gassner_reduced(unreduced_gassner(b))


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
        with pytest.raises(WordError):
            parse_braid(bad, 3)
    # the running letter count is checked before a power is expanded
    for bad in (f"A[1,2]^{MAX_LETTERS + 1}", f"A[1,2] A[1,3]^-{MAX_LETTERS}"):
        with pytest.raises(WordError, match="exceeds the limit"):
            parse_braid(bad, 3)


RUN = "7" * 5000  # digits: past the 4300 that int() converts


@pytest.mark.parametrize("token", [
    "B[1,2]", "A[1,2", "A[1,2]^", "A[1,2]^x", "A[+1,2]", "A[1,2]^1_0", "A[1,2]^+2",
    "A[1,2]^٣", "A[١,2]", "A[1,2]^--1", "1^2",
    "A[1,2]^N", "A[1,2]^-N", "A[N,2]", "A[1,N]", "A[1,N", "A[1,2]^Nx",
])
def test_parse_errors_carry_the_token_position_and_no_digits(token):
    # only ASCII digits are read; a rejected token is named by its
    # position, so the digits of a run N are never repeated back
    with pytest.raises(WordError) as info:
        parse_braid(f"A[1,2]  {token.replace('N', RUN)} A[1,3]", 3)
    assert type(info.value) is WordError
    assert info.value.position == 8
    assert str(info.value).endswith(" (at position 8)")
    assert "7" * 8 not in str(info.value) and len(str(info.value)) < 100


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


def test_pure_generators_are_built_once():
    # the cache hands out one shared endomorphism, so no use may change it
    g = pure_generator(1, 3, -1, 4)
    assert pure_generator(1, 3, -1, 4) is g
    letters = [(1, 3, -1), (2, 4, 1), (1, 3, -1), (1, 3, -1)]
    phi = braid_automorphism(BraidWord(4, letters))
    assert pure_generator(1, 3, -1, 4) is g
    assert g == artin_expansion(1, 3, -1, 4)
    expected = Endomorphism.identity(4)
    for (i, j, s) in letters:
        expected = artin_expansion(i, j, s, 4).compose(expected)
    assert phi == expected


def test_pure_generator_powers_equal_repeated_letters():
    # the closed form of A[i,j]^k against k compositions of A[i,j]^+-1
    cases = 0
    for n in range(2, 6):
        for (i, j) in itertools.combinations(range(1, n + 1), 2):
            assert pure_generator(i, j, 0, n) == Endomorphism.identity(n)
            cases += 1
            for sign in (1, -1):
                phi = Endomorphism.identity(n)
                for k in range(1, 5):
                    phi = pure_generator(i, j, sign, n).compose(phi)
                    assert pure_generator(i, j, sign * k, n) == phi, (n, i, j, sign * k)
                    cases += 1
    assert cases == 180


def test_braid_automorphism_composes_once_per_run(monkeypatch):
    calls = []
    compose = Endomorphism.compose

    def counted(self, other):
        calls.append(self)
        return compose(self, other)

    letters = [(1, 3, -1)] * 3 + [(2, 4, 1)] + [(1, 3, -1)] + [(1, 3, 1)] * 2
    expected = Endomorphism.identity(4)
    for (i, j, s) in letters:
        expected = artin_expansion(i, j, s, 4).compose(expected)
    monkeypatch.setattr(Endomorphism, "compose", counted)
    assert braid_automorphism(BraidWord(4, letters)) == expected
    assert len(calls) == 4


def test_pure_generator_powers_are_capped_before_building():
    # the longest image has 4|k| + 1 letters, or 8|k| + 1 with a
    # generator between i and j
    k = (MAX_LETTERS - 1) // 4
    assert max(map(len, pure_generator(1, 2, -k, 2).images)) == 4 * k + 1
    for (i, j, k) in ((1, 2, k + 1), (1, 2, -MAX_LETTERS), (1, 3, MAX_LETTERS // 8 + 1)):
        with pytest.raises(WordError, match=f"exceeds the limit of {MAX_LETTERS}"):
            pure_generator(i, j, k, 3)


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
    g = gassner(phi)
    expected = LaurentMatrix(
        2,
        [
            [parse_poly("x1*x2 - x1 + 1", 2), parse_poly("x1 - x1^2", 2)],
            [parse_poly("1 - x2", 2), parse_poly("x1", 2)],
        ],
    )
    assert g == expected
    assert g.minus_identity().det() == 0

    reduced = gassner_reduced(g)
    assert reduced.rows == 1 and reduced.entries[0][0] == parse_poly("x1*x2", 2)
    assert not alexander_vanishes(reduced)


def test_reduced_shapes():
    reduced = reduced_gassner(BraidWord(3))
    assert reduced.rows == 2
    assert all(e.is_zero() for row in reduced.minus_identity().entries for e in row)
    assert alexander_vanishes(reduced)
    for (i, j, s) in signed_generators(2):
        assert reduced_gassner(BraidWord(2, [(i, j, s)])).rows == 1


def test_gassner_is_multiplicative():
    rng = random.Random(62)
    for _ in range(20):
        a = random_braid(rng, 3, 4)
        b = random_braid(rng, 3, 4)
        assert unreduced_gassner(a * b) == unreduced_gassner(a) * unreduced_gassner(b)


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
        unreduced = gassner(phi)
        jmi = unreduced.minus_identity()
        vanishes = alexander_vanishes(gassner_reduced(unreduced))
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
    # the identity braid and a commuting pair, both vanishing
    braids += [BraidWord(4), parse_braid("A[1,2] A[3,4]", 4)]
    count_vanishing = 0
    for b in braids:
        phi = braid_automorphism(b)
        unreduced = gassner(phi)
        jmi = unreduced.minus_identity()
        vanishes = alexander_vanishes(gassner_reduced(unreduced))
        assert vanishes == (jmi.rank() <= 2), b
        witness = fixed_point_in_commutator(phi)
        if vanishes:
            count_vanishing += 1
            assert witness is not None and is_fixed(phi, witness), b
    assert 0 < count_vanishing < len(braids)


def test_commutator_witness_agrees_with_the_detector():
    # every word of length <= 3 on three strands, and random words on four
    # and five: a witness exists exactly when the detector finds one, and
    # exactly on rank(J - I) <= n - 2; on rank n - 1 the answer comes from
    # the fixed word x1...xn, and no kernel basis is built
    words = [
        BraidWord(3, letters)
        for length in range(4)
        for letters in itertools.product(signed_generators(3), repeat=length)
    ]
    rng = random.Random(64)
    words += [random_braid(rng, 4, 6) for _ in range(30)]
    words += [random_braid(rng, 5, 7) for _ in range(16)]
    split = collections.Counter()
    for b in words:
        phi = braid_automorphism(b)
        witness = commutator_witness(phi)
        jmi = j_minus_i(phi)
        top = jmi.rank() == b.strands - 1
        split[b.strands, top] += 1
        assert (witness is None) == top, b
        if top:
            assert phi._kernel is None, b
        assert (fixed_point_in_commutator(phi) is None) == top, b
    assert (split[3, True], split[3, False]) == (144, 115)
    assert all(split[n, True] and split[n, False] for n in (4, 5)), split
