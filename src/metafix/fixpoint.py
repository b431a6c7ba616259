"""Detection of fixed points of IA-endomorphisms of free metabelian groups.

Writing the i-th image as x_i * s_i with s_i in the commutator subgroup,
a candidate fixed point inside the commutator subgroup is taken in the form

    g = [x1, x2]^z1 * [x2, x3]^z2 * ... * [x_{n-1}, x_n]^z_{n-1}

with ring scalars z_k.  Comparing coordinates of g and of its image turns
the fixed-point equation into a homogeneous linear system B z = 0 whose
column k is

    (x_{k+1}^-1 - 1) * v_k + (1 - x_k^-1) * v_{k+1},

v_k being the coordinate vector of s_k.  A nonzero kernel vector yields a
witness, which is always re-checked against the word-problem oracle; a
trivial kernel rules out every fixed point in the commutator subgroup,
because any such fixed point has a power (in the module sense) of the
candidate form, and the coordinate module is torsion free.

Row i of J - I is x_i * v_i, so the system is read off J - I, which the
caller may already hold.

Outside the commutator subgroup the candidate is g = w_a * c with w_a the
canonical representative of the abelian vector a and c unknown with
coordinate vector u; the condition becomes the inhomogeneous system

    u * (J - I) = x^-a * (coords(w_a) - coords(image of w_a))

together with the membership constraint sum u_i (x_i - 1) = 0.

By the Fox chain rule (Fox, Ann. Math. 57, 1953), coords(image of w) =
coords(w) * J for IA input, so u0 = -x^-a * coords(w_a) solves the
system up to a membership residual of x^-a - 1.  The solutions are u0 + k
over the left kernel vectors k of J - I with k . (x - 1) = 1 - x^-a, and
the solver's routes are shapes of that kernel:

- "unique": the stacked matrix (J - I)^T over the membership row has
  full column rank, so the kernel is a line R k0 and f = k . (x - 1) is
  nonzero for any kernel vector k.  Coset a holds a fixed point iff f
  divides (1 - x^-a) k_i for every i, and then the unique solution is
  u = (1 - x^-a) k / f + u0.  Only a "found" builds w_a.
- "decoupled": the rows of J - I for the fixed generators vanish and the
  others are independent.  Cramer's rule on the pivot rows of one
  elimination gives the other coordinates, and the free ones are peeled
  off the membership row.
- "rank_deficient": the rest.  If the stacked matrix and J - I have
  equal rank, the membership row lies in the row space, every kernel
  vector has k . (x - 1) = 0 and every coset is "none".  Otherwise a
  coset is "found" when w_a itself is fixed and "undecided" when not.

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
from .magnus import (
    MagnusElement,
    coset_word,
    is_trivial,
    module_power_word,
    realize_coords,
)
from .matrices import LaurentMatrix, cramer_solve, dot
from .words import Word


class InternalCheckError(InvariantError, RuntimeError):
    """A structural invariant failed; indicates a bug, not bad input."""


def _require_ia(phi):
    if not phi.is_ia():
        raise ValueError("endomorphism is not IA (identical in abelianization)")


def is_fixed(phi, g):
    """Word-problem oracle: does the image of g equal g in the metabelian
    group?"""
    return is_trivial(phi.apply(g) * g.inverse())


def displacements(phi):
    """Coordinate vectors of the words s_i = x_i^-1 * image_i, each by its
    own Fox pass.  A reference for `fixed_point_system`, which reads the
    same vectors off the rows of J - I."""
    _require_ia(phi)
    n = phi.rank
    out = []
    for i, y in enumerate(phi.images):
        s = Word.generator(i, n).inverse() * y
        out.append(word_coords(s))
    return out


def fixed_point_system(phi, jmi=None):
    """The n x (n-1) system whose kernel parametrizes fixed points of the
    candidate commutator form.  Row i of J - I is x_i * v_i; `jmi` may
    pass a precomputed J - I."""
    _require_ia(phi)
    n = phi.rank
    if jmi is None:
        jmi = jacobian(phi) - LaurentMatrix.identity(n, n)
    e = jmi.entries
    cols = []
    for k in range(n - 1):
        # v_k = x_k^-1 * row k of J - I, the shift folded into the coefficient
        xk, xk1 = LaurentPoly.variable(k, n, -1), LaurentPoly.variable(k + 1, n, -1)
        a = (xk1 - 1) * xk
        b = (1 - xk) * xk1
        cols.append([a * e[k][j] + b * e[k + 1][j] for j in range(n)])
    return LaurentMatrix(n, [[cols[k][j] for k in range(n - 1)] for j in range(n)])


def adjacent_commutators(n):
    """The words [x_k, x_{k+1}], k = 1..n-1."""
    return [
        Word.generator(k, n).commutator(Word.generator(k + 1, n))
        for k in range(n - 1)
    ]


def commutator_form_word(z):
    """The word [x1,x2]^z1 ... [x_{n-1},x_n]^z_{n-1} for ring scalars z."""
    n = len(z) + 1
    out = Word.identity(n)
    for k, base in enumerate(adjacent_commutators(n)):
        if not z[k].is_zero():
            out = out * module_power_word(base, z[k])
    return out


def fixed_point_in_commutator(phi, verify=True, jmi=None):
    """A verified nontrivial fixed point inside the commutator subgroup,
    or None when no such fixed point exists.  `jmi` may pass a
    precomputed J - I."""
    _require_ia(phi)
    b = fixed_point_system(phi, jmi)
    z = b.kernel_vector()
    if z is None:
        return None
    g = commutator_form_word(z)
    if is_trivial(g):
        raise InternalCheckError("kernel vector realized to a trivial word")
    if verify and not is_fixed(phi, g):
        raise InternalCheckError("kernel witness failed the oracle check")
    return g


@dataclass
class CosetOutcome:
    """Result of the fixed-point search in one coset of the commutator
    subgroup: status is "found", "none" or "undecided"."""

    exponents: tuple
    status: str
    witness: Optional[Word] = None
    verified: bool = False


class CosetSolver:
    """Per-endomorphism context for coset searches.

    The constructor does all the linear algebra of the chosen route (see
    the module docstring): the kernel vector k and f = k . (x - 1) on
    "unique", the determinant and adjugate of the square subsystem on
    "decoupled", and on "rank_deficient" whether the ideal is zero.  A
    query then costs at most n exact divisions, a few dot products, or
    one oracle check of w_a.  `jmi` may pass a precomputed J - I.
    """

    def __init__(self, phi, jmi=None):
        _require_ia(phi)
        self.phi = phi
        self.n = n = phi.rank
        if jmi is None:
            jmi = jacobian(phi) - LaurentMatrix.identity(n, n)
        self.G = jmi.transpose()
        self.membership = [LaurentPoly.variable(i, n) - 1 for i in range(n)]
        self.stacked = LaurentMatrix(n, self.G.entries + [self.membership])
        self.free_cols = [
            i
            for i in range(n)
            if all(self.G.entries[j][i].is_zero() for j in range(n))
        ]
        self.pivot_cols = [i for i in range(n) if i not in self.free_cols]
        self.sub = self.kernel = self.f = None
        self.ideal_is_zero = False
        self.mode, self.sub_rows = self._choose_route()
        if self.mode == "unique":
            self.kernel = self.G.kernel_vector()
            self.f = dot(self.kernel, self.membership, n)
            if self.f.is_zero():
                raise InternalCheckError("full column rank but k . (x - 1) = 0")
        elif self.mode == "rank_deficient":
            # rank is transpose-invariant, so J - I's memoized rank is G's
            self.ideal_is_zero = self.stacked.rank() == jmi.rank()
        elif self.sub is not None:
            self.sub.adjugate()

    def _choose_route(self):
        """The route and the rows of its square subsystem.  "decoupled"
        takes the pivot rows of an elimination, whose block is
        nonsingular."""
        n = self.n
        if self.stacked.rank() == n:
            return "unique", None
        p = self.pivot_cols
        if not p:
            return "decoupled", []
        rank, prows, _ = self.G.submatrix(list(range(n)), p).echelon_pivots()
        if rank == len(p):
            rows = sorted(prows)
            self.sub = self.G.submatrix(rows, p)
            return "decoupled", rows
        return "rank_deficient", None

    def solve(self, a, verify=True):
        n = self.n
        a = tuple(a)
        if len(a) != n:
            raise ValueError("coset exponent vector of wrong length")
        if not any(a):
            raise ValueError("the zero coset is the commutator-subgroup search")
        if self.mode == "unique":
            return self._solve_unique(a, verify)
        if self.ideal_is_zero:
            return CosetOutcome(a, "none")
        wa = coset_word(a, n)
        d = MagnusElement.of_word(self.phi.apply(wa) * wa.inverse())
        if d.is_identity():
            return CosetOutcome(a, "found", wa, True)
        if self.mode == "rank_deficient":
            return CosetOutcome(a, "undecided")
        return self._solve_decoupled(a, wa, d, verify)

    def _solve_unique(self, a, verify):
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
        return self._finish(a, wa, u, verify)

    def _solve_decoupled(self, a, wa, d, verify):
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
            residual = residual - u[i] * self.membership[i]
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
        return self._finish(a, wa, u, verify)

    def _finish(self, a, wa, u, verify):
        g = wa * realize_coords(u)
        if verify and not is_fixed(self.phi, g):
            raise InternalCheckError("coset witness failed the oracle check")
        return CosetOutcome(a, "found", g, verify)


def fixed_point_in_coset(phi, a, verify=True):
    """Search the coset with abelian vector a (nonzero) for a fixed point."""
    return CosetSolver(phi).solve(a, verify=verify)


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

    rank: int
    ia: bool
    det_vanishes: bool
    rank_defect_class: str
    witness_in_commutator: Optional[Word] = None
    witness_verified: bool = False
    cosets: list = field(default_factory=list)

    def found_any(self):
        if self.witness_in_commutator is not None:
            return True
        return any(c.status == "found" for c in self.cosets)


def rank_defect_class(phi, jmi=None):
    """"rank<=n-2" or "rank=n-1" for the matrix J - I of an IA input."""
    _require_ia(phi)
    n = phi.rank
    if jmi is None:
        jmi = jacobian(phi) - LaurentMatrix.identity(n, n)
    r = jmi.rank()
    if r > n - 1:
        raise InternalCheckError("J - I has full rank for an IA endomorphism")
    return "rank<=n-2" if r <= n - 2 else "rank=n-1"


def coset_box(n, bound):
    """All nonzero exponent vectors with max |a_i| <= bound, sorted."""
    return [
        a for a in product(range(-bound, bound + 1), repeat=n) if any(a)
    ]


def search_fixed(phi, bound, verify=True, jmi=None):
    """Run the commutator-subgroup detector plus every coset in the box.

    `jmi` may pass a precomputed J - I; its determinant and rank are kept
    on the matrix, so a caller that reports them computes them once."""
    _require_ia(phi)
    n = phi.rank
    if jmi is None:
        jmi = jacobian(phi) - LaurentMatrix.identity(n, n)
    report = FixReport(
        rank=n,
        ia=True,
        det_vanishes=jmi.det().is_zero(),
        rank_defect_class=rank_defect_class(phi, jmi),
    )
    witness = fixed_point_in_commutator(phi, verify=verify, jmi=jmi)
    if witness is not None:
        report.witness_in_commutator = witness
        report.witness_verified = verify
    solver = CosetSolver(phi, jmi)
    for a in coset_box(n, bound):
        report.cosets.append(solver.solve(a, verify=verify))
    return report
