"""Detection of fixed points of IA-endomorphisms of free metabelian groups.

An element of the commutator subgroup is determined by its coordinate
vector u, and a ring vector u is the coordinate vector of such an element
exactly when its membership sum u . (x - 1) = sum u_i (x_i - 1)
(`fox.membership`) is 0.  By the Fox chain rule (Fox, Ann. Math. 57,
1953), coords(image of w) = coords(w) * J for IA input, so the element
is fixed iff u (J - I) = 0.  The fixed points inside the
commutator subgroup are therefore the left kernel vectors k of J - I with
f(k) = k . (x - 1) = 0.

One elimination of J - I, kept on the matrix, gives a basis
k_1, ..., k_d of that kernel over the fraction field, one row vector per
non-pivot row of J - I, and each f_j = f(k_j).  As f is linear on the
kernel:

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

- "unique": d = 1 and f_1 is nonzero; equivalently J - I beside the
  membership column x - 1 has full row rank.  The kernel is a line R k0
  and f is nonzero on every kernel vector k.  Coset a holds a fixed point
  iff f divides (1 - x^-a) k_i for every i, and then the unique solution
  is u = (1 - x^-a) k / f + u0.  Only a "found" builds w_a.  Most cosets
  are "none" by a width screen first: over a domain the Newton polytope of
  a product is the Minkowski sum of its factors' (Ostrowski), so the width
  in a direction w, max - min of w . e over the exponents e, adds under
  products.  The width of 1 - x^-a is |w . a|, so f | (1 - x^-a) k_i with
  k_i nonzero forces width_w(f) <= |w . a| + width_w(k_i).  Each gap
  width_w(f) - width_w(k_i) is computed once, for w in e_j and e_j +- e_k,
  and a coset with |w . a| below one of them takes no division.
- "decoupled": the rows of J - I for the fixed generators vanish and the
  others are independent.  Cramer's rule on the moved rows, cut to the
  pivot columns of its one elimination, gives the moved coordinates, and
  the free ones are peeled off the membership sum by x_i - 1
  (`fox.peel`).  The chain rule gives the right-hand side,
  -x^-a * coords(w_a) (J - I), with no image word; it is u0 (J - I), so
  Cramer always returns u0 on the moved rows, and any other answer is a
  bug.
- "rank_deficient": the rest.  If every f_j = 0, the membership column
  x - 1 lies in the column space of J - I (over the fraction field the
  column space is the orthogonal complement of the left kernel), the
  ideal of values f(k) is zero and every coset is "none".

On the other cosets both routes first ask whether w_a itself is fixed;
if it is, the coset is "found" with witness w_a, and if not,
"rank_deficient" answers "undecided" and "decoupled" solves.  By the
chain rule coords((image of w) * w^-1) = coords(w) (J - I), so w_a is not
fixed when coords(w_a) (J - I) is nonzero at one point P modulo the prime
2^61 - 1.  J - I at P is evaluated once; a coset whose value there is
nonzero skips the oracle, and the rest take it (`is_fixed`).  Evaluation
at P is a ring map, so P sets only how many cosets take that check,
never an answer.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from itertools import combinations, product
from operator import mul, sub

from .errors import InvariantError
from .fox import j_minus_i, membership, peel, word_coords
from .laurent import LaurentPoly, word_pass_mod
from .magnus import coset_word, is_trivial, realize_coords
from .matrices import LaurentMatrix, cramer_solve, normalize_vector


class InternalCheckError(InvariantError, RuntimeError):
    """A structural invariant failed; indicates a bug, not bad input."""


# The prime and the point of the chain-rule screen: P_i lies in
# [2, p - 1], spread by a fixed odd multiplier, so x_i - 1 does not
# vanish there and every P_i is a unit mod p.
SCREEN_PRIME = (1 << 61) - 1


@lru_cache(maxsize=16)
def screen_point(n):
    """The point P at which the "rank_deficient" screen evaluates."""
    return tuple(2 + 0x9E3779B97F4A7C15 * (i + 1) % (SCREEN_PRIME - 2) for i in range(n))


@lru_cache(maxsize=16)
def width_directions(n):
    """e_j and e_j +- e_k (j < k): the directions of the width screen."""
    unit = [tuple(int(i == j) for i in range(n)) for j in range(n)]
    out = list(unit)
    for j, k in combinations(unit, 2):
        out.append(tuple(map(sum, zip(j, k))))
        out.append(tuple(b - c for b, c in zip(j, k)))
    return tuple(out)


def is_fixed(phi, g):
    """Word-problem oracle: does the image of g equal g in the metabelian
    group?"""
    return is_trivial(phi.apply(g) * g.inverse())


def _j_minus_i(phi):
    """J - I of an IA input, kept on phi (`fox.j_minus_i`)."""
    if not phi.is_ia():
        raise ValueError("endomorphism is not IA (identical in abelianization)")
    return j_minus_i(phi)


def left_kernel(jmi):
    """The basis k_1, ..., k_d of the left kernel of J - I over the
    fraction field, from its one elimination and kept on it, and
    f_j = k_j . (x - 1)."""
    basis = jmi.left_kernel_basis()
    if not basis or not all(any(k) for k in basis):
        raise InternalCheckError("left kernel basis of J - I is empty or has a zero vector")
    return basis, [membership(k) for k in basis]


def commutator_fixed_coords(basis, fs):
    """Coordinates of a nontrivial fixed point inside the commutator
    subgroup, or None when there is none (see the module docstring)."""
    for k, f in zip(basis, fs):
        if not f:
            return list(k)
    if len(basis) < 2:
        return None
    (k1, k2), (f1, f2) = basis[:2], fs[:2]
    n = f1.nvars
    return normalize_vector(
        [LaurentPoly.sum_products(n, ((1, f2, a), (-1, f1, b))) for a, b in zip(k1, k2)]
    )


def fixed_point_in_commutator(phi):
    """A verified nontrivial fixed point inside the commutator subgroup,
    or None when no such fixed point exists."""
    u = commutator_fixed_coords(*left_kernel(_j_minus_i(phi)))
    if u is None:
        return None
    g = realize_coords(u)
    if is_trivial(g):
        raise InternalCheckError("kernel vector realized to a trivial word")
    if not is_fixed(phi, g):
        raise InternalCheckError("kernel witness failed the oracle check")
    return g


CosetOutcome = namedtuple("CosetOutcome", "exponents status witness", defaults=(None,))
CosetOutcome.__doc__ = """Result of the fixed-point search in one coset
of the commutator subgroup: the exponent tuple a, the status "found",
"none" or "undecided", and on "found" the oracle-checked witness word
(else None)."""


class CosetSolver:
    """Per-endomorphism context for coset searches.

    The constructor does all the linear algebra of the chosen route (see
    the module docstring) from the left kernel basis of J - I and its
    values f: the kernel vector k, f = k . (x - 1) and the width gaps of
    f over k on "unique", the square block of J - I (the moved rows on
    the pivot columns, whose determinant the first Cramer solve keeps)
    on "decoupled", whether the ideal is zero on
    "rank_deficient", and on the last two, unless the ideal is zero,
    J - I at the screen point.
    A "unique" query whose |w . a| lies below a gap is "none" by
    Ostrowski's theorem with no division.  On the other routes a query
    whose coords(w_a) (J - I) is nonzero at the point skips the oracle
    check of w_a by the Fox chain rule, and every "found" has passed
    `is_fixed`.  Any other query costs at most n exact divisions on
    "unique", and elsewhere one oracle check of w_a and, on "decoupled",
    one Cramer solve.
    """

    def __init__(self, phi):
        jmi = _j_minus_i(phi)
        self.phi = phi
        self.n = n = phi.rank
        basis, fs = left_kernel(jmi)
        # the zero rows of J - I, the generators that phi fixes
        self.zero_rows = [i for i, row in enumerate(jmi.entries) if not any(row)]
        self.moved_rows = [i for i in range(n) if i not in self.zero_rows]
        self.jmi = jmi
        self.block = self.block_cols = self.kernel = self.f = None
        self.ideal_is_zero = False
        self.width_gaps = self.columns_at_point = None
        if len(basis) == 1 and fs[0]:
            self.mode = "unique"
            self.kernel, self.f = basis[0], fs[0]
            dirs = width_directions(n)
            low = map(min, zip(*(k.widths(dirs) for k in self.kernel if k)))
            self.width_gaps = [
                (w, gap) for w, gap in zip(dirs, map(sub, self.f.widths(dirs), low)) if gap > 0
            ]
        elif n - len(basis) == len(self.moved_rows):
            # J - I has that rank; zero rows add nothing to it, so the
            # moved rows are independent and, on the pivot columns, give
            # a nonsingular block
            self.mode = "decoupled"
            if self.moved_rows:
                self.block_cols = sorted(jmi.echelon_pivots()[2])
                self.block = LaurentMatrix(
                    n, [[jmi.entries[i][j] for j in self.block_cols] for i in self.moved_rows]
                )
        else:
            self.mode = "rank_deficient"
            self.ideal_is_zero = not any(fs)
        if self.mode != "unique" and not self.ideal_is_zero:
            # row i of J - I at the point: the Fox pass over image i,
            # evaluated there, less the identity's row
            point = screen_point(n)
            rows = [word_pass_mod(y.letters, point, SCREEN_PRIME) for y in phi.images]
            for i, row in enumerate(rows):
                row[i] -= 1
            self.columns_at_point = list(zip(*rows))

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
        if not self._moved_at_point(wa) and is_fixed(self.phi, wa):
            return CosetOutcome(a, "found", wa)
        if self.mode == "rank_deficient":
            return CosetOutcome(a, "undecided")
        return self._solve_decoupled(a, wa)

    def _moved_at_point(self, w):
        """Is coords(w) (J - I), the coordinate vector of
        (image of w) * w^-1, nonzero at the screen point?"""
        c = word_pass_mod(w.letters, screen_point(self.n), SCREEN_PRIME)
        return any(sum(map(mul, c, col)) % SCREEN_PRIME for col in self.columns_at_point)

    def _solve_unique(self, a):
        n = self.n
        for w, gap in self.width_gaps:
            if abs(sum(map(mul, w, a))) < gap:
                return CosetOutcome(a, "none")
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

    def _solve_decoupled(self, a, wa):
        # Cramer on the moved rows, a check against J - I, then the zero
        # rows peeled off the membership sum; by the chain rule
        # coords(w_a) (J - I) is the coordinate vector of
        # (image of w_a) * w_a^-1, and Cramer and the check cannot fail
        n = self.n
        shift = LaurentPoly.monomial(tuple(-e for e in a), n)
        tau = [-(shift * c) for c in self.jmi.vec_mul(word_coords(wa))]
        u = [LaurentPoly.zero(n)] * n
        if self.block is not None:
            res = cramer_solve(self.block, [tau[j] for j in self.block_cols])
            if res.status != "solution":
                raise InternalCheckError(f"Cramer on the moved rows answered {res.status}")
            for i, val in zip(self.moved_rows, res.solution):
                u[i] = val
        if any((lhs - r) for lhs, r in zip(self.jmi.vec_mul(u), tau)):
            raise InternalCheckError("Cramer solution fails u (J - I) = tau")
        # u is still zero on the zero rows, which must pay this residual
        residual = -membership(u)
        for i in self.zero_rows:
            u[i], residual = peel(residual, i)
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


FixReport = namedtuple("FixReport", "rank_defect_class witness_in_commutator cosets")
FixReport.__doc__ = """Aggregated search results for one endomorphism:
its rank-defect class, the commutator-subgroup witness word (or None)
and the CosetOutcome records, one per coset of the box."""


def rank_defect_class(phi):
    """"rank<=n-2" or "rank=n-1" for the matrix J - I of an IA input."""
    n = phi.rank
    r = _j_minus_i(phi).rank()
    if r > n - 1:
        raise InternalCheckError("J - I has full rank for an IA endomorphism")
    return "rank<=n-2" if r <= n - 2 else "rank=n-1"


def coset_box(n, bound):
    """All nonzero exponent vectors with max |a_i| <= bound, sorted."""
    return [
        a for a in product(range(-bound, bound + 1), repeat=n) if any(a)
    ]


def search_fixed(phi, bound):
    """Run the commutator-subgroup detector plus every coset in the box.

    Every witness in the report has passed the word-problem oracle; a
    witness that fails it raises InternalCheckError.  J - I and its
    elimination are kept on phi, so the detector, the solver and a
    caller that reports the rank share one."""
    rank_class = rank_defect_class(phi)
    witness = fixed_point_in_commutator(phi)
    solver = CosetSolver(phi)
    cosets = [solver.solve(a) for a in coset_box(phi.rank, bound)]
    return FixReport(rank_class, witness, cosets)
