"""Randomized invariant batches behind `metafix selftest`.

Each check is a predicate holds(rng, k) on the k-th case of its batch;
the runner counts the failing cases and prints one line per property.
The batches are small versions of the package's property tests, suitable
as a quick installation check.
"""

from __future__ import annotations

import random

from .endo import inner_automorphism
from .fixpoint import fixed_point_in_commutator, left_kernel
from .fox import j_minus_i, jacobian, membership, membership_row, product_rule_holds, word_coords
from .magnus import MagnusElement, realize_coords
from .matrices import LaurentMatrix
from .samples import (
    random_commutator_subgroup_word,
    random_ia,
    random_module_vector,
    random_poly,
    random_rank_deficient_ia,
    random_word,
)


def _check_ring_axioms(rng, k):
    n = rng.randrange(1, 4)
    p = random_poly(rng, n)
    q = random_poly(rng, n)
    r = random_poly(rng, n)
    return (p + q) * r == p * r + q * r and p * q == q * p and (p * q) * r == p * (q * r)


def _check_divide_roundtrip(rng, k):
    n = rng.randrange(1, 4)
    p = random_poly(rng, n)
    f = random_poly(rng, n)
    return f.is_zero() or (p * f).divide_exact(f) == p


def _check_magnus_homomorphism(rng, k):
    n = rng.randrange(2, 5)
    u = random_word(rng, n, rng.randrange(12))
    v = random_word(rng, n, rng.randrange(12))
    return MagnusElement.of_word(u * v) == MagnusElement.of_word(u) * MagnusElement.of_word(v)


def _check_realize_roundtrip(rng, k):
    u = random_module_vector(rng, rng.randrange(2, 5))
    return not membership(u) and word_coords(realize_coords(u)) == list(u)


def _check_det_vanishes(rng, k):
    return j_minus_i(random_ia(rng, rng.randrange(2, 5))).det().is_zero()


def _check_kernel_decides_stacked_rank(rng, k):
    """(J - I)^T over the membership row, eliminated on its own, against
    the kernel basis of (J - I)^T and the values f_j = k_j . (x - 1):
    every f_j = 0 iff the two ranks agree, and a rank below n iff a
    commutator witness exists."""
    n = rng.randrange(2, 5)
    if k % 3 == 0:
        # conjugation by a commutator word: the ideal is zero
        phi = inner_automorphism(random_commutator_subgroup_word(rng, n))
    else:
        phi = random_rank_deficient_ia(rng, n) if k % 3 == 1 else random_ia(rng, n)
    jmi = j_minus_i(phi)
    rank = LaurentMatrix(n, [*zip(*jmi.entries), membership_row(n)]).rank()
    _, fs = left_kernel(jmi)
    return (not any(fs)) == (rank == jmi.rank()) and (rank < n) == (
        fixed_point_in_commutator(phi) is not None
    )


def _check_product_rule(rng, k):
    n = rng.randrange(2, 4)
    return product_rule_holds(random_ia(rng, n), random_ia(rng, n))


def _check_chain_rule(rng, k):
    n = rng.randrange(2, 5)
    phi = random_ia(rng, n)
    w = random_word(rng, n, rng.randrange(16))
    return word_coords(phi.apply(w)) == jacobian(phi).vec_mul(word_coords(w))


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


def run(seed=0):
    """Run every batch, each from a generator seeded with `seed`, and
    print one line per property; returns the total number of failing
    cases."""
    total = 0
    for name, holds, cases in CHECKS:
        rng = random.Random(seed)
        bad = sum(not holds(rng, k) for k in range(cases))
        total += bad
        status = "PASS" if bad == 0 else f"FAIL ({bad}/{cases})"
        print(f"selftest {name}: {status}")
    return total
