"""Detection of fixed points of IA-endomorphisms of free metabelian groups.

An element of the commutator subgroup is determined by its coordinate
vector u, and a ring vector u is the coordinate vector of such an element
exactly when sum u_i (x_i - 1) = 0.  By the Fox chain rule (Fox, Ann.
Math. 57, 1953), coords(image of w) = coords(w) * J for IA input, so the
element is fixed iff u (J - I) = 0.  The fixed points inside the
commutator subgroup are therefore the left kernel vectors k of J - I with
f(k) = k . (x - 1) = 0.

One elimination of J - I, kept on the matrix and taken over by its
transpose G = (J - I)^T, gives a basis k_1, ..., k_d of that kernel over
the fraction field, one vector per non-pivot column of G, and each
f_j = f(k_j).  As f is linear on the kernel:

- if some f_j = 0, k_j is a fixed point;
- if d >= 2 and every f_j is nonzero, so is u = f_2 k_1 - f_1 k_2;
- if d = 1 and f_1 is nonzero, the kernel is a line on which f vanishes
  only at 0, so no nontrivial fixed point lies in the commutator
  subgroup.

A witness is realized as a word from its coordinates and re-checked
against the word-problem oracle.

Outside the commutator subgroup the candidate is g = w_a * c with w_a the
canonical representative of the abelian vector a and c unknown with
coordinate vector u; the condition becomes the inhomogeneous system

    u * (J - I) = x^-a * (coords(w_a) - coords(image of w_a))

together with the membership constraint sum u_i (x_i - 1) = 0.

By the chain rule again, u0 = -x^-a * coords(w_a) solves the system up
to a membership residual of x^-a - 1.  The solutions are u0 + k over the
left kernel vectors k of J - I with f(k) = 1 - x^-a, and the solver's
routes are shapes of that kernel:

- "unique": d = 1 and f_1 is nonzero; equivalently G over the
  membership row has full column rank.  The kernel is a line R k0 and f
  is nonzero on every kernel vector k.  Coset a holds a fixed point iff f
  divides (1 - x^-a) k_i for every i, and then the unique solution is
  u = (1 - x^-a) k / f + u0.  Only a "found" builds w_a.
- "decoupled": the rows of J - I for the fixed generators vanish and the
  others are independent.  Cramer's rule on the pivot rows of one
  elimination gives the other coordinates, and the free ones are peeled
  off the membership row.
- "rank_deficient": the rest.  If every f_j = 0, the membership row
  lies in the row space of G (over the fraction field the row space is
  the orthogonal complement of the kernel), the ideal of values f(k) is
  zero and every coset is "none".  Otherwise a coset is "found" when
  w_a itself is fixed and "undecided" when not.

That direct check reads the oracle element of the difference word
d = (image of w_a) * w_a^-1, which is the identity exactly when w_a is
fixed; coords(d) = coords(image of w_a) - coords(w_a), so the right-hand
side of the "decoupled" system is -x^-a * coords(d).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Optional

from .errors import InvariantError
from .fox import jacobian, word_coords
from .laurent import LaurentPoly
from .magnus import MagnusElement, coset_word, is_trivial, realize_coords
from .matrices import LaurentMatrix, cramer_solve, dot, normalize_vector
from .words import Word


class InternalCheckError(InvariantError, RuntimeError):
    """A structural invariant failed; indicates a bug, not bad input."""


def is_fixed(phi, g):
    """Word-problem oracle: does the image of g equal g in the metabelian
    group?"""
    return is_trivial(phi.apply(g) * g.inverse())


def _j_minus_i(phi, jmi):
    """J - I of an IA input; `jmi` may pass it precomputed."""
    if not phi.is_ia():
        raise ValueError("endomorphism is not IA (identical in abelianization)")
    if jmi is None:
        n = phi.rank
        jmi = jacobian(phi) - LaurentMatrix.identity(n, n)
    return jmi


def left_kernel(jmi):
    """The basis k_1, ..., k_d of the left kernel of J - I over the
    fraction field, from its one elimination and kept on it, and
    f_j = k_j . (x - 1)."""
    basis = jmi.left_kernel_basis()
    if not basis or not all(any(k) for k in basis):
        raise InternalCheckError("left kernel basis of J - I is empty or has a zero vector")
    n = jmi.rows
    membership = [LaurentPoly.variable(i, n) - 1 for i in range(n)]
    return basis, [dot(k, membership, n) for k in basis]


def commutator_fixed_coords(basis, fs):
    """Coordinates of a nontrivial fixed point inside the commutator
    subgroup, or None when there is none (see the module docstring)."""
    for k, f in zip(basis, fs):
        if not f:
            return list(k)
    if len(basis) < 2:
        return None
    (k1, k2), (f1, f2) = basis[:2], fs[:2]
    return normalize_vector([f2 * a - f1 * b for a, b in zip(k1, k2)], f1.nvars)


def fixed_point_in_commutator(phi, jmi=None):
    """A verified nontrivial fixed point inside the commutator subgroup,
    or None when no such fixed point exists.  `jmi` may pass a
    precomputed J - I."""
    u = commutator_fixed_coords(*left_kernel(_j_minus_i(phi, jmi)))
    if u is None:
        return None
    g = realize_coords(u)
    if is_trivial(g):
        raise InternalCheckError("kernel vector realized to a trivial word")
    if not is_fixed(phi, g):
        raise InternalCheckError("kernel witness failed the oracle check")
    return g


@dataclass
class CosetOutcome:
    """Result of the fixed-point search in one coset of the commutator
    subgroup: status is "found", "none" or "undecided"."""

    exponents: tuple
    status: str
    witness: Optional[Word] = None


class CosetSolver:
    """Per-endomorphism context for coset searches.

    The constructor does all the linear algebra of the chosen route (see
    the module docstring) from the kernel basis of G and its values f:
    the kernel vector k and f = k . (x - 1) on "unique", the determinant
    and adjugate of the square subsystem on "decoupled", and on
    "rank_deficient" whether the ideal is zero.  A query then costs at
    most n exact divisions, a few dot products, or one oracle check of
    w_a.  `jmi` may pass a precomputed J - I.
    """

    def __init__(self, phi, jmi=None):
        jmi = _j_minus_i(phi, jmi)
        self.phi = phi
        self.n = n = phi.rank
        basis, fs = left_kernel(jmi)
        self.G = jmi.transpose()
        # the zero columns of G, the generators that phi fixes
        self.free_cols = [i for i, row in enumerate(jmi.entries) if not any(row)]
        self.pivot_cols = [i for i in range(n) if i not in self.free_cols]
        self.sub = self.sub_rows = self.kernel = self.f = None
        self.ideal_is_zero = False
        if len(basis) == 1 and fs[0]:
            self.mode = "unique"
            self.kernel, self.f = basis[0], fs[0]
        elif n - len(basis) == len(self.pivot_cols):
            # G has that rank; zero columns add nothing to it, so the
            # nonzero ones are independent and G's pivot rows give a
            # nonsingular block
            self.mode = "decoupled"
            if self.pivot_cols:
                self.sub_rows = sorted(self.G.echelon_pivots()[1])
                self.sub = self.G.submatrix(self.sub_rows, self.pivot_cols)
                self.sub.adjugate()
        else:
            self.mode = "rank_deficient"
            self.ideal_is_zero = not any(fs)

    def solve(self, a):
        n = self.n
        a = tuple(a)
        if len(a) != n:
            raise ValueError("coset exponent vector of wrong length")
        if not any(a):
            raise ValueError("the zero coset is the commutator-subgroup search")
        if self.mode == "unique":
            return self._solve_unique(a)
        if self.ideal_is_zero:
            return CosetOutcome(a, "none")
        wa = coset_word(a, n)
        d = MagnusElement.of_word(self.phi.apply(wa) * wa.inverse())
        if d.is_identity():
            return CosetOutcome(a, "found", wa)
        if self.mode == "rank_deficient":
            return CosetOutcome(a, "undecided")
        return self._solve_decoupled(a, wa, d)

    def _solve_unique(self, a):
        n = self.n
        shift = LaurentPoly.monomial(tuple(-e for e in a), n)
        # t = (1 - x^-a) k / f is a ring vector iff the coset holds a fixed point
        top = 1 - shift
        t = []
        for k in self.kernel:
            q = (top * k).divide_exact(self.f)
            if q is None:
                return CosetOutcome(a, "none")
            t.append(q)
        wa = coset_word(a, n)
        u = [q - shift * c for q, c in zip(t, word_coords(wa))]
        return self._finish(a, wa, u)

    def _solve_decoupled(self, a, wa, d):
        # Cramer on the pivot columns, a check against G, then the free
        # columns peeled off the membership row
        n = self.n
        shift = LaurentPoly.monomial(tuple(-e for e in a), n)
        tau = [-(shift * c) for c in d.coords]
        u = [LaurentPoly.zero(n)] * n
        if self.sub is not None:
            res = cramer_solve(self.sub, [tau[r] for r in self.sub_rows])
            if res.status == "singular":
                raise InternalCheckError("square subsystem became singular")
            if res.status == "no_solution_in_ring":
                return CosetOutcome(a, "none")
            for col, val in zip(self.pivot_cols, res.solution):
                u[col] = val
        if any((lhs - r) for lhs, r in zip(self.G.mul_vector(u), tau)):
            return CosetOutcome(a, "none")
        residual = LaurentPoly.zero(n)
        for i in self.pivot_cols:
            residual = residual - u[i] * (LaurentPoly.variable(i, n) - 1)
        for i in self.free_cols:
            low = residual.subs_one(i)
            diff = residual - low
            if not diff.is_zero():
                h = diff.divide_exact(LaurentPoly.variable(i, n) - 1)
                if h is None:
                    raise InternalCheckError("membership peeling division failed")
                u[i] = h
            residual = low
        if not residual.is_zero():
            return CosetOutcome(a, "none")
        return self._finish(a, wa, u)

    def _finish(self, a, wa, u):
        g = wa * realize_coords(u)
        if not is_fixed(self.phi, g):
            raise InternalCheckError("coset witness failed the oracle check")
        return CosetOutcome(a, "found", g)


def fixed_point_in_coset(phi, a):
    """Search the coset with abelian vector a (nonzero) for a fixed point."""
    return CosetSolver(phi).solve(a)


def conjugates_fixed(phi, g):
    """Are all generator conjugates x_i g x_i^-1 also fixed?

    Requires g to be a fixed point inside the commutator subgroup.
    """
    if any(g.exponent_sums()):
        raise ValueError("word is not in the commutator subgroup")
    if not is_fixed(phi, g):
        raise ValueError("word is not a fixed point")
    n = phi.rank
    for i in range(n):
        if not is_fixed(phi, g.conjugated_by(Word.generator(i, n))):
            return False
    return True


@dataclass
class FixReport:
    """Aggregated search results for one endomorphism."""

    rank_defect_class: str
    witness_in_commutator: Optional[Word] = None
    cosets: list = field(default_factory=list)

    def found_any(self):
        if self.witness_in_commutator is not None:
            return True
        return any(c.status == "found" for c in self.cosets)


def rank_defect_class(phi, jmi=None):
    """"rank<=n-2" or "rank=n-1" for the matrix J - I of an IA input."""
    jmi = _j_minus_i(phi, jmi)
    n = phi.rank
    r = jmi.rank()
    if r > n - 1:
        raise InternalCheckError("J - I has full rank for an IA endomorphism")
    return "rank<=n-2" if r <= n - 2 else "rank=n-1"


def coset_box(n, bound):
    """All nonzero exponent vectors with max |a_i| <= bound, sorted."""
    return [
        a for a in product(range(-bound, bound + 1), repeat=n) if any(a)
    ]


def search_fixed(phi, bound, jmi=None):
    """Run the commutator-subgroup detector plus every coset in the box.

    Every witness in the report has passed the word-problem oracle; a
    witness that fails it raises InternalCheckError.  `jmi` may pass a
    precomputed J - I; its rank is kept on the matrix, so a caller that
    reports it computes it once."""
    jmi = _j_minus_i(phi, jmi)
    report = FixReport(
        rank_defect_class=rank_defect_class(phi, jmi),
        witness_in_commutator=fixed_point_in_commutator(phi, jmi=jmi),
    )
    solver = CosetSolver(phi, jmi)
    for a in coset_box(phi.rank, bound):
        report.cosets.append(solver.solve(a))
    return report
