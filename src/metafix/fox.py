"""Abelianized Fox calculus.

The i-th derivative of a word takes values in the Laurent ring on the same
generators; it is computed by one left-to-right pass that keeps the running
abelianization of the prefix.  For every word w the coordinates satisfy

    sum_i  d_i(w) * (x_i - 1)  =  x^(abelianization of w) - 1,

and for words u, v:  d_i(uv) = d_i(u) + u^a d_i(v).

This module owns the row (x_1 - 1, ..., x_n - 1) of that identity and
the two operations on it that the rest of the package uses: the
membership sum  sum_i u_i (x_i - 1),  which vanishes exactly on the
coordinate vectors of commutator-subgroup elements, and the peel of one
polynomial by x_j - 1.  The row is built once per variable count, so
each x_j - 1 keeps its divisor normal form across exact divisions.
Likewise J and J - I are built once per endomorphism and kept on it.
"""

from __future__ import annotations

from functools import lru_cache

from .laurent import LaurentPoly, word_pass
from .matrices import ExactDivisionError, LaurentMatrix, dot


@lru_cache(maxsize=None)
def membership_row(n):
    """The row (x_1 - 1, ..., x_n - 1) in n variables, built once."""
    return tuple(LaurentPoly.variable(i, n) - 1 for i in range(n))


def membership(u):
    """sum_i u_i (x_i - 1) for a vector of len(u) polynomials in len(u)
    variables."""
    n = len(u)
    return dot(u, membership_row(n), n)


def peel(p, j):
    """(h, low) with p = h (x_{j+1} - 1) + low and low = p at x_{j+1} = 1,
    for the 0-based variable index j.  Raises ExactDivisionError if the
    division fails."""
    low = p.subs_one(j)
    h = p - low
    if h:
        h = h.divide_exact(membership_row(p.nvars)[j])
        if h is None:
            raise ExactDivisionError(f"peeling division by (x_{j + 1} - 1) failed")
    return h, low


def word_coords(w):
    """All abelianized derivatives of a word, as a list of polynomials.
    Their coefficient sums are the word's exponent sums."""
    return word_pass(w.letters, w.rank)


def jacobian(phi):
    """Matrix whose row i holds the derivatives of the i-th image word,
    built on first use and kept on phi."""
    if phi._jacobian is None:
        phi._jacobian = LaurentMatrix(phi.rank, [word_coords(y) for y in phi.images])
    return phi._jacobian


def j_minus_i(phi):
    """J - I, built on first use and kept on phi, so its memoized
    elimination, rank, determinant and left kernel basis serve every
    later caller."""
    if phi._jmi is None:
        phi._jmi = jacobian(phi).minus_identity()
    return phi._jmi


def chain_rule_coords(phi, cg):
    """coords(g) (J - I) for the derivatives cg of a word g
    (`word_coords(g)`): by the Fox chain rule, the coordinates of
    phi(g) g^-1 when phi is IA.  Row k of J - I enters only through
    cg[k], so only the rows of the generators g contains are formed, each
    from one pass over its image, and `vec_mul` takes the product over
    those rows: the work follows those images and not n^2."""
    live = [k for k, c in enumerate(cg) if c]
    if not live:
        return [LaurentPoly.zero(phi.rank)] * phi.rank
    rows = []
    for k in live:
        row = word_coords(phi.images[k])
        # row k of J - I
        row[k] -= 1
        rows.append(row)
    return LaurentMatrix(phi.rank, rows).vec_mul([cg[k] for k in live])


def product_rule_holds(phi, psi):
    """Jacobian of phi o psi equals jacobian(psi) * jacobian(phi).

    Both endomorphisms must be IA; composition is (phi o psi)(x) =
    phi(psi(x)), which reverses the matrix order.
    """
    if not (phi.is_ia() and psi.is_ia()):
        raise ValueError("product rule check requires IA endomorphisms")
    return jacobian(phi.compose(psi)) == jacobian(psi) * jacobian(phi)
