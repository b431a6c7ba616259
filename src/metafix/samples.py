"""Random and fixture instances used by the selftest command and the
test suite.  All generation is driven by a caller-supplied Random so runs
are reproducible."""

from __future__ import annotations

from .endo import Endomorphism
from .fox import membership_row
from .laurent import LaurentPoly
from .words import Word


def random_word(rng, n, length):
    letters = []
    for _ in range(length):
        i = rng.randrange(1, n + 1)
        letters.append(i if rng.random() < 0.5 else -i)
    return Word(n, letters)


def random_poly(rng, n, terms=3, span=2, coeff=3):
    out = {}
    for _ in range(terms):
        mono = tuple(rng.randint(-span, span) for _ in range(n))
        c = rng.randint(-coeff, coeff)
        if c:
            out[mono] = out.get(mono, 0) + c
    return LaurentPoly(n, out)


def random_commutator_conjugate(rng, n, conj_len=2, pairs=None):
    """A word c [x_a, x_b]^e c^-1 with e = +-1."""
    if pairs is None:
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    a, b = pairs[rng.randrange(len(pairs))]
    base = Word.generator(a, n).commutator(Word.generator(b, n))
    if rng.random() < 0.5:
        base = base.inverse()
    c = random_word(rng, n, rng.randrange(conj_len + 1))
    return base.conjugated_by(c)


def random_commutator_subgroup_word(rng, n, factors=2, conj_len=2, pairs=None):
    out = Word.identity(n)
    for _ in range(rng.randrange(1, factors + 1)):
        out = out * random_commutator_conjugate(rng, n, conj_len, pairs)
    return out


def random_ia(rng, n, factors=1, conj_len=2, pairs=None, skip_chance=0.0):
    """An IA endomorphism x_i -> x_i s_i with random commutator words s_i."""
    images = []
    for i in range(n):
        g = Word.generator(i, n)
        if skip_chance and rng.random() < skip_chance:
            images.append(g)
        else:
            images.append(
                g * random_commutator_subgroup_word(rng, n, factors, conj_len, pairs)
            )
    return Endomorphism(images)


def random_rank_deficient_ia(rng, n):
    """IA endomorphism whose displacements span at most n-2 directions.

    Every displacement is built from a fixed proper subset of at most n-2
    basic commutators, which caps the rank of J - I at n-2.
    """
    all_pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    rng.shuffle(all_pairs)
    pairs = all_pairs[: max(1, n - 2)]
    return random_ia(rng, n, factors=2, pairs=pairs, skip_chance=0.3)


def random_module_vector(rng, n, entries=2):
    """A random combination of the elementary relation vectors."""
    row = membership_row(n)
    u = [LaurentPoly.zero(n) for _ in range(n)]
    for _ in range(entries):
        i = rng.randrange(n - 1)
        j = rng.randrange(i + 1, n)
        c = random_poly(rng, n, terms=2, span=1, coeff=2)
        u[i] = u[i] + c * row[j]
        u[j] = u[j] - c * row[i]
    return u
