"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import itertools
import random
import time

from metafix.braid import BraidWord, alexander_vanishes, braid_automorphism, gassner
from metafix.endo import parse_endomorphism
from metafix.fixpoint import (
    fixed_point_in_commutator,
    fixed_point_in_coset,
    is_fixed,
    search_fixed,
)
from metafix.fox import jacobian, membership, product_rule_holds, word_coords
from metafix.magnus import MagnusElement, is_trivial, realize_coords
from metafix.matrices import LaurentMatrix
from metafix.samples import (
    random_ia,
    random_module_vector,
    random_rank_deficient_ia,
    random_word,
)
from metafix.words import Word, parse_word
from tests.conftest import data_path


def found_any(report):
    """Does a search report hold any fixed point?"""
    if report.witness_in_commutator is not None:
        return True
    return any(c.status == "found" for c in report.cosets)


def conjugates_fixed(phi, g):
    """Are all generator conjugates x_i g x_i^-1 of g, a fixed point
    inside the commutator subgroup, also fixed?"""
    assert not any(g.exponent_sums()) and is_fixed(phi, g)
    n = phi.rank
    return all(is_fixed(phi, g.conjugated_by(Word.generator(i, n))) for i in range(n))


def _criterion(num, name, budget_s):
    def wrap(fn):
        def run():
            t0 = time.perf_counter()
            try:
                fn()
            except BaseException:
                print(f"\nACCEPTANCE {num} {name}: FAIL ({time.perf_counter() - t0:.1f}s)")
                raise
            dt = time.perf_counter() - t0
            print(f"\nACCEPTANCE {num} {name}: PASS ({dt:.1f}s)")
            assert dt < budget_s, f"criterion {num} exceeded its {budget_s}s budget"

        run.__name__ = fn.__name__
        return run

    return wrap


def _bounded_random_ia(rng, n, max_image_len=16):
    while True:
        phi = random_ia(rng, n, factors=2, conj_len=1)
        if all(len(y) <= max_image_len for y in phi.images):
            return phi


@_criterion(1, "det(J - I) = 0 on random IA endomorphisms", 60)
def test_criterion_1_determinant_vanishes():
    rng = random.Random(101)
    for trial in range(200):
        n = (2, 3, 4)[trial % 3]
        phi = _bounded_random_ia(rng, n)
        assert all(len(y) <= 16 for y in phi.images)
        jmi = jacobian(phi) - LaurentMatrix.identity(n, n)
        assert jmi.det().is_zero()


def displaced_pair_endo(s_text):
    """x1 -> x1 s, x2 -> x2 s^-1 on two generators."""
    return parse_endomorphism(f"x1 -> x1 {s_text}\nx2 -> x2 ({s_text})^-1")


@_criterion(2, "displaced pair x1->x1 s, x2->x2 s^-1 has no fixed points", 30)
def test_criterion_2_displaced_pair():
    for s_text in ("[x1,x2]", "x1 [x1,x2] x1^-1", "[x1,x2]^2"):
        phi = displaced_pair_endo(s_text)
        jmi = jacobian(phi) - LaurentMatrix.identity(2, 2)
        assert jmi.rank() == 1
        report = search_fixed(phi, 3)
        assert report.witness_in_commutator is None
        assert all(c.status == "none" for c in report.cosets)
        assert not found_any(report)


_RANK_DEFICIENT_WITNESSES = []


def _rank_deficient_witnesses():
    if _RANK_DEFICIENT_WITNESSES:
        return _RANK_DEFICIENT_WITNESSES
    rng = random.Random(103)
    for trial in range(50):
        n = (3, 4)[trial % 2]
        phi = random_rank_deficient_ia(rng, n)
        jmi = jacobian(phi) - LaurentMatrix.identity(n, n)
        assert jmi.rank() <= n - 2
        w = fixed_point_in_commutator(phi)
        assert w is not None
        assert is_fixed(phi, w)
        assert not is_trivial(w)
        _RANK_DEFICIENT_WITNESSES.append((phi, w))
    return _RANK_DEFICIENT_WITNESSES


@_criterion(3, "rank <= n-2 forces a verified commutator witness", 120)
def test_criterion_3_rank_deficient_witnesses():
    assert len(_rank_deficient_witnesses()) == 50


@_criterion(4, "Jacobian of a composition is the matrix product", 60)
def test_criterion_4_product_rule():
    rng = random.Random(104)
    for trial in range(100):
        n = (2, 3, 4)[trial % 3]
        phi = _bounded_random_ia(rng, n)
        psi = _bounded_random_ia(rng, n)
        assert product_rule_holds(phi, psi)


@_criterion(5, "normal-form homomorphism and realization round trip", 60)
def test_criterion_5_oracle_integrity():
    rng = random.Random(105)
    for _ in range(500):
        n = rng.randrange(2, 5)
        u = random_word(rng, n, rng.randrange(21))
        v = random_word(rng, n, rng.randrange(21))
        assert MagnusElement.of_word(u * v) == MagnusElement.of_word(u) * MagnusElement.of_word(v)
    for _ in range(100):
        n = rng.randrange(2, 5)
        vec = random_module_vector(rng, n)
        assert not membership(vec)
        assert word_coords(realize_coords(vec)) == list(vec)


def _is_unit_multiple(u, base):
    """u == (+- monomial) * base, componentwise."""
    ratio = None
    for p, q in zip(u, base):
        if q.is_zero() != p.is_zero():
            return False
        if q.is_zero():
            continue
        r = p.divide_exact(q)
        if r is None or r.as_unit() is None:
            return False
        if ratio is None:
            ratio = r
        elif r != ratio:
            return False
    return ratio is not None


_INFINITE_FIX_WITNESS = []


def _infinite_fix_witness():
    if not _INFINITE_FIX_WITNESS:
        with open(data_path("infinite_fix.endo")) as fh:
            phi = parse_endomorphism(fh.read())
        w = fixed_point_in_commutator(phi)
        _INFINITE_FIX_WITNESS.append((phi, w))
    return _INFINITE_FIX_WITNESS[0]


@_criterion(6, "three-generator fixture: fixed subgroup and empty x1-cosets", 30)
def test_criterion_6_infinite_fix_fixture():
    phi, w = _infinite_fix_witness()
    assert is_fixed(phi, parse_word("x2", 3))
    assert is_fixed(phi, parse_word("x3", 3))
    assert w is not None and is_fixed(phi, w)
    base = word_coords(parse_word("[x2,x3]", 3))
    assert _is_unit_multiple(word_coords(w), base)
    for k in (1, 2, 3, -1, -2, -3):
        assert fixed_point_in_coset(phi, (k, 0, 0)).status == "none"


@_criterion(7, "Alexander vanishing bridges to commutator fixed points", 300)
def test_criterion_7_braid_bridge():
    n = 3
    gens = [(i, j, s) for (i, j) in ((1, 2), (1, 3), (2, 3)) for s in (1, -1)]
    words = [()]
    for length in range(1, 5):
        words.extend(itertools.product(gens, repeat=length))
    vanishing = 0
    for letters in words:
        b = BraidWord(n, letters)
        phi = braid_automorphism(b)
        jmi = gassner(b) - LaurentMatrix.identity(n, n)
        vanishes = alexander_vanishes(b)
        assert vanishes == (jmi.rank() <= n - 2)
        if vanishes:
            vanishing += 1
            w = fixed_point_in_commutator(phi)
            assert w is not None and is_fixed(phi, w)
    assert vanishing > 100

    rng = random.Random(107)
    for _ in range(50):
        a = BraidWord(n, [gens[rng.randrange(6)] for _ in range(rng.randrange(5))])
        c = BraidWord(n, [gens[rng.randrange(6)] for _ in range(rng.randrange(5))])
        assert gassner(a * c) == gassner(a) * gassner(c)


@_criterion(8, "generator conjugates of commutator witnesses stay fixed", 60)
def test_criterion_8_normality_of_witnesses():
    phi, w = _infinite_fix_witness()
    assert conjugates_fixed(phi, w)
    for phi, w in _rank_deficient_witnesses():
        assert conjugates_fixed(phi, w)
