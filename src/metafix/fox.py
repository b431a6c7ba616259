"""Abelianized Fox calculus.

The i-th derivative of a word takes values in the Laurent ring on the same
generators; it is computed by one left-to-right pass that keeps the running
abelianization of the prefix.  For every word w the coordinates satisfy

    sum_i  d_i(w) * (x_i - 1)  =  x^(abelianization of w) - 1,

and for words u, v:  d_i(uv) = d_i(u) + u^a d_i(v).
"""

from __future__ import annotations

from .laurent import LaurentPoly, word_pass
from .matrices import LaurentMatrix


def word_coords(w):
    """All abelianized derivatives of a word, as a list of polynomials."""
    return word_pass(w.letters, w.rank)


def fox_derivative(w, i):
    """The i-th abelianized derivative (0-based variable index)."""
    if not 0 <= i < w.rank:
        raise ValueError(f"derivative index {i} out of range")
    return word_coords(w)[i]


def abelian_monomial(w):
    """The image of the word in the Laurent ring: x^(exponent sums)."""
    return LaurentPoly.monomial(w.exponent_sums(), w.rank)


def jacobian(phi):
    """Matrix whose row i holds the derivatives of the i-th image word."""
    n = phi.rank
    rows = [word_coords(y) for y in phi.images]
    return LaurentMatrix(n, rows)


def jacobian_row_identity_holds(phi, J=None):
    """Row i of the Jacobian contracts against (x_k - 1) to image_i^a - 1."""
    n = phi.rank
    if J is None:
        J = jacobian(phi)
    for i, y in enumerate(phi.images):
        total = LaurentPoly.zero(n)
        for k in range(n):
            total = total + J.entries[i][k] * (LaurentPoly.variable(k, n) - 1)
        if total != abelian_monomial(y) - 1:
            return False
    return True


def product_rule_holds(phi, psi):
    """Jacobian of phi o psi equals jacobian(psi) * jacobian(phi).

    Both endomorphisms must be IA; composition is (phi o psi)(x) =
    phi(psi(x)), which reverses the matrix order.
    """
    if not (phi.is_ia() and psi.is_ia()):
        raise ValueError("product rule check requires IA endomorphisms")
    return jacobian(phi.compose(psi)) == jacobian(psi) * jacobian(phi)
