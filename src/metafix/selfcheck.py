"""Randomized invariant batches behind `metafix selftest`.

Each check returns the number of failing cases; the runner prints one line
per property.  The batches are small versions of the package's property
tests, suitable as a quick installation check.
"""

from __future__ import annotations

import random

from .endo import inner_automorphism
from .fixpoint import fixed_point_in_commutator, left_kernel
from .fox import j_minus_i, jacobian, membership_row, product_rule_holds, word_coords
from .magnus import MagnusElement, is_module_vector, realize_coords
from .matrices import LaurentMatrix
from .samples import (
    random_commutator_subgroup_word,
    random_ia,
    random_module_vector,
    random_poly,
    random_rank_deficient_ia,
    random_word,
)


def _check_ring_axioms(rng, cases):
    bad = 0
    for _ in range(cases):
        n = rng.randrange(1, 4)
        p = random_poly(rng, n)
        q = random_poly(rng, n)
        r = random_poly(rng, n)
        if (p + q) * r != p * r + q * r or p * q != q * p or (p * q) * r != p * (q * r):
            bad += 1
    return bad


def _check_divide_roundtrip(rng, cases):
    bad = 0
    for _ in range(cases):
        n = rng.randrange(1, 4)
        p = random_poly(rng, n)
        f = random_poly(rng, n)
        if f.is_zero():
            continue
        if (p * f).divide_exact(f) != p:
            bad += 1
    return bad


def _check_magnus_homomorphism(rng, cases):
    bad = 0
    for _ in range(cases):
        n = rng.randrange(2, 5)
        u = random_word(rng, n, rng.randrange(12))
        v = random_word(rng, n, rng.randrange(12))
        lhs = MagnusElement.of_word(u * v)
        rhs = MagnusElement.of_word(u) * MagnusElement.of_word(v)
        if lhs != rhs:
            bad += 1
    return bad


def _check_realize_roundtrip(rng, cases):
    bad = 0
    for _ in range(cases):
        n = rng.randrange(2, 5)
        u = random_module_vector(rng, n)
        if not is_module_vector(u):
            bad += 1
            continue
        w = realize_coords(u)
        if word_coords(w) != list(u):
            bad += 1
    return bad


def _check_det_vanishes(rng, cases):
    bad = 0
    for _ in range(cases):
        n = rng.randrange(2, 5)
        if not j_minus_i(random_ia(rng, n)).det().is_zero():
            bad += 1
    return bad


def _check_kernel_decides_stacked_rank(rng, cases):
    """(J - I)^T over the membership row, eliminated on its own, against
    the kernel basis of (J - I)^T and the values f_j = k_j . (x - 1):
    every f_j = 0 iff the two ranks agree, and a rank below n iff a
    commutator witness exists."""
    bad = 0
    for k in range(cases):
        n = rng.randrange(2, 5)
        if k % 3 == 0:
            # conjugation by a commutator word: the ideal is zero
            phi = inner_automorphism(random_commutator_subgroup_word(rng, n))
        else:
            phi = random_rank_deficient_ia(rng, n) if k % 3 == 1 else random_ia(rng, n)
        jmi = j_minus_i(phi)
        stacked = LaurentMatrix(n, [*zip(*jmi.entries), membership_row(n)])
        rank = stacked.rank()
        _, fs = left_kernel(jmi)
        if (not any(fs)) != (rank == jmi.rank()):
            bad += 1
        elif (rank < n) != (fixed_point_in_commutator(phi) is not None):
            bad += 1
    return bad


def _check_product_rule(rng, cases):
    bad = 0
    for _ in range(cases):
        n = rng.randrange(2, 4)
        if not product_rule_holds(random_ia(rng, n), random_ia(rng, n)):
            bad += 1
    return bad


def _check_chain_rule(rng, cases):
    bad = 0
    for _ in range(cases):
        n = rng.randrange(2, 5)
        phi = random_ia(rng, n)
        w = random_word(rng, n, rng.randrange(16))
        if word_coords(phi.apply(w)) != jacobian(phi).vec_mul(word_coords(w)):
            bad += 1
    return bad


CHECKS = [
    ("ring axioms", _check_ring_axioms, 200),
    ("exact division round trip", _check_divide_roundtrip, 100),
    ("normal-form homomorphism", _check_magnus_homomorphism, 100),
    ("coordinate realization round trip", _check_realize_roundtrip, 30),
    ("det(J - I) vanishes on IA inputs", _check_det_vanishes, 30),
    ("kernel basis of (J - I)^T decides the stacked rank", _check_kernel_decides_stacked_rank, 20),
    ("Jacobian product rule", _check_product_rule, 20),
    ("Fox chain rule coords(phi(w)) = coords(w) J", _check_chain_rule, 30),
]


def run(seed=0, verbose=False):
    """Run all batches; returns the total number of failing cases."""
    total = 0
    for name, fn, cases in CHECKS:
        rng = random.Random(seed)
        bad = fn(rng, cases)
        total += bad
        if verbose:
            status = "PASS" if bad == 0 else f"FAIL ({bad}/{cases})"
            print(f"selftest {name}: {status}")
    return total
