"""Randomized invariant batches behind `metafix selftest`.

Each check returns the number of failing cases; the runner prints one line
per property.  The batches are small versions of the package's property
tests, suitable as a quick installation check.
"""

from __future__ import annotations

import random

from .fox import jacobian, product_rule_holds, word_coords
from .magnus import MagnusElement, is_module_vector, realize_coords
from .matrices import LaurentMatrix
from .samples import random_ia, random_module_vector, random_poly, random_word


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
        phi = random_ia(rng, n)
        jmi = jacobian(phi) - LaurentMatrix.identity(n, n)
        if not jmi.det().is_zero():
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
