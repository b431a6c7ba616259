"""Exact linear algebra over integer Laurent polynomial rings.

Rank is taken over the fraction field, which for a domain coincides with
the largest nonvanishing minor.  One fraction-free elimination in the
Bareiss style (Bareiss, Math. Comp. 22, 1968) gives the rank, the pivot
rows and columns, and the determinant: its last pivot, signed by its row
and column swaps.  Every interior division is by a previous pivot and is
exact in the ring; a failing division signals a bug, not bad input.  A
memoized elimination gives the determinant; with none, `det` expands a
matrix up to 4 x 4 by cofactors, which is faster there, and eliminates a
larger one.  Vectors are rows, the form in which the fixed-point
conditions come: kernels are row vectors k with k M = 0, so
the same elimination gives the left kernel basis too, and `cramer_solve`
solves x M = b.  The kernel vectors and Cramer's numerators and
determinant are all built from one helper of signed maximal minors,
which expands minors up to 4 x 4 by cofactors directly.  The one
product is a row vector times a matrix, `vec_mul`; a matrix product is
one `vec_mul` per row.  The one difference is M - I, the matrix whose
vanishing rows are the fixed points (J - I) and whose determinant is
the Alexander test (reduced Gassner - I): `minus_identity` changes the
diagonal only.

The inner sums are each one call of `LaurentPoly.sum_products`, with no
intermediate polynomial: the Bareiss update a_kk a_ij - a_ik a_kj, each
level of the cofactor expansion, and `dot`, which serves `vec_mul`.
The first Bareiss step divides by the starting pivot 1, which `laurent`
does as a shift.
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd

from .errors import InvariantError
from .laurent import LaurentPoly


class ExactDivisionError(InvariantError, ArithmeticError):
    """An elimination step that must divide exactly did not."""


class LaurentMatrix:
    """A matrix over the Laurent ring in `nvars` variables.

    Nothing writes `entries` after `__init__`, so the determinant and the
    elimination pivots are computed at most once per instance and kept in
    the private slots.  The left kernel basis is not kept here: its one
    caller, `fixpoint.left_kernel`, keeps the checked basis on the
    endomorphism.
    """

    __slots__ = ("rows", "cols", "nvars", "entries", "_det", "_pivots")

    def __init__(self, nvars, entries):
        self._det = self._pivots = None
        self.entries = [list(row) for row in entries]
        self.rows = len(self.entries)
        self.cols = len(self.entries[0]) if self.entries else 0
        self.nvars = nvars
        for row in self.entries:
            if len(row) != self.cols:
                raise ValueError("ragged rows")
            for e in row:
                if not isinstance(e, LaurentPoly) or e.nvars != nvars:
                    raise ValueError("entry from the wrong ring")

    def __eq__(self, other):
        if not isinstance(other, LaurentMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def minus_identity(self):
        """M - I for a square M: a fresh matrix whose diagonal entries are
        M_ii - 1 and whose other entries are M's own (immutable)
        polynomials."""
        if self.rows != self.cols:
            raise ValueError("M - I of a non-square matrix")
        return LaurentMatrix(
            self.nvars,
            [
                [e - 1 if i == j else e for j, e in enumerate(row)]
                for i, row in enumerate(self.entries)
            ],
        )

    def __mul__(self, other):
        if not isinstance(other, LaurentMatrix):
            return NotImplemented
        return LaurentMatrix(self.nvars, [other.vec_mul(row) for row in self.entries])

    def vec_mul(self, vec):
        """Row vector times matrix.  Each column's `dot` runs over the rows
        where the vector is nonzero only, so a kernel vector with one
        nonzero entry costs one product per column."""
        if len(vec) != self.rows:
            raise ValueError("vector length mismatch")
        live = [(v, row) for v, row in zip(vec, self.entries) if v]
        coeffs = [v for v, _ in live]
        return [
            dot(coeffs, [row[j] for _, row in live], self.nvars)
            for j in range(self.cols)
        ]

    # -- elimination and determinant ------------------------------------

    def det(self):
        if self._det is None:
            if self.rows != self.cols:
                raise ValueError("determinant of a non-square matrix")
            if self._pivots is None and self.rows <= 4:
                self._det = _det_cofactor(self.entries, self.nvars)
            else:
                rank, _, _, sign, last = self._elimination()
                full = rank == self.rows
                self._det = last * sign if full else LaurentPoly.zero(self.nvars)
        return self._det

    def echelon_pivots(self):
        """(rank, pivot_rows, pivot_cols) of the elimination, the indices as
        tuples into the original matrix."""
        return self._elimination()[:3]

    def _elimination(self):
        """(rank, pivot_rows, pivot_cols, sign, last_pivot), computed once.

        sign is the parity of the row and column swaps and last_pivot the
        last pivot (1 at rank 0), so a full-rank square matrix has
        determinant sign * last_pivot."""
        if self._pivots is not None:
            return self._pivots
        a = [row[:] for row in self.entries]
        rows, cols = self.rows, self.cols
        row_idx = list(range(rows))
        col_idx = list(range(cols))
        sign = 1
        n = self.nvars
        prev = LaurentPoly.one(n)
        steps = min(rows, cols)
        k = 0
        while k < steps:
            pr, pc = _select_pivot(a, k, rows, cols)
            if pr is None:
                break
            if pr != k:
                a[k], a[pr] = a[pr], a[k]
                row_idx[k], row_idx[pr] = row_idx[pr], row_idx[k]
                sign = -sign
            if pc != k:
                for row in a:
                    row[k], row[pc] = row[pc], row[k]
                col_idx[k], col_idx[pc] = col_idx[pc], col_idx[k]
                sign = -sign
            for i in range(k + 1, rows):
                for j in range(k + 1, cols):
                    num = LaurentPoly.sum_products(
                        n, ((1, a[k][k], a[i][j]), (-1, a[i][k], a[k][j]))
                    )
                    q = num.divide_exact(prev)
                    if q is None:
                        raise ExactDivisionError("Bareiss pivot division failed")
                    a[i][j] = q
                a[i][k] = LaurentPoly.zero(self.nvars)
            prev = a[k][k]
            k += 1
        self._pivots = k, tuple(row_idx[:k]), tuple(col_idx[:k]), sign, prev
        return self._pivots

    def rank(self):
        return self.echelon_pivots()[0]

    def kernel_vector(self, row):
        """A nonzero ring row vector k with k M = 0, for the non-pivot row
        `row`.

        Built from signed maximal minors on the pivot columns and rows
        plus `row`, then put in the form of `normalize_vector`.  Its entry
        at `row` is nonzero and its entries at the other non-pivot rows
        are zero.
        """
        _, prows, pcols = self.echelon_pivots()
        if not 0 <= row < self.rows:
            raise ValueError(f"row {row} out of range")
        if row in prows:
            raise ValueError(f"row {row} is a pivot row")
        sel = sorted(prows + (row,))
        cols = sorted(pcols)
        c = _signed_minors([[self.entries[i][j] for j in cols] for i in sel], self.nvars)
        k = [LaurentPoly.zero(self.nvars)] * self.rows
        for i, e in zip(sel, c):
            k[i] = e
        k = normalize_vector(k)
        if any(not e.is_zero() for e in self.vec_mul(k)):
            raise ExactDivisionError("kernel vector does not annihilate the matrix")
        return k

    def left_kernel_basis(self):
        """A basis, over the fraction field, of the row vectors k with
        k M = 0: one `kernel_vector` per non-pivot row.  Vector i is the
        only one nonzero at non-pivot row i."""
        prows = self._elimination()[1]
        return tuple(self.kernel_vector(i) for i in range(self.rows) if i not in prows)


def normalize_vector(z):
    """z, which has a nonzero entry, up to a nonzero ring factor: the
    primitive part q of the entry with fewest terms stripped when it
    divides every entry, the integer content divided out, and the first
    nonzero entry's leading unit removed.  Sound for kernel vectors over
    a domain: (z/q) q M = 0 forces (z/q) M = 0.

    One pass: each entry takes one division, by g q with g the content
    of z, and one shift by the inverse of the lead's unit unless that is
    1.  Gauss: q is primitive, so z_i/q has the content of z_i, and z_i
    is divisible by g q iff by q.  When q fails to divide an entry, each
    is divided by g instead.  The lead unit is the lead entry's:
    normalized polynomials have normalized quotients."""
    nonzero = [p for p in z if p]
    g = gcd(*[p.content() for p in nonzero])
    unit = nonzero[0].normalizer()
    divisor = min(nonzero, key=lambda p: len(p.terms)).primitive_times(g)
    out = []
    for p in z:
        r = p.divide_exact(divisor)
        if r is None:
            out = z if g == 1 else [p.divide_exact(g) for p in z]
            break
        out.append(r)
    return list(out) if unit == 1 else [p * unit for p in out]


def _select_pivot(a, k, rows, cols):
    """Nonzero entry with the fewest terms in the trailing block."""
    best = None
    best_size = None
    for i in range(k, rows):
        for j in range(k, cols):
            t = a[i][j].terms
            if t:
                size = len(t)
                if best_size is None or size < best_size:
                    best = (i, j)
                    best_size = size
                    if size == 1:
                        return best
    if best is None:
        return None, None
    return best


def _signed_minors(vectors, nvars):
    """For r + 1 vectors of length r, the list c with c_k = (-1)^(k+r) times
    the determinant of the vectors without vector k, so that
    sum_k c_k v_k = 0 (expand the zero determinant of the vectors bordered
    by any of their own columns along that column)."""
    r = len(vectors) - 1
    out = []
    for k in range(r + 1):
        rest = vectors[:k] + vectors[k + 1 :]
        if r <= 4:
            minor = _det_cofactor(rest, nvars)
        else:
            minor = LaurentMatrix(nvars, rest).det()
        out.append(-minor if (k + r) % 2 else minor)
    return out


def _det_cofactor(rows, nvars):
    n = len(rows)
    if n == 0:
        return LaurentPoly.one(nvars)
    if n == 1:
        return rows[0][0]
    rest = rows[1:]
    products = []
    for j in range(n):
        c = rows[0][j]
        if c.is_zero():
            continue
        minor = [[row[k] for k in range(n) if k != j] for row in rest]
        products.append((-1 if j % 2 else 1, c, _det_cofactor(minor, nvars)))
    return LaurentPoly.sum_products(nvars, products)


CramerResult = namedtuple("CramerResult", "status solution", defaults=(None,))
CramerResult.__doc__ = """Outcome of solving a square system x m = b by
Cramer's rule: status "solution" (ring solution found),
"no_solution_in_ring" (the unique fraction-field solution is not a ring
vector) or "singular" (zero determinant, Cramer does not apply), and on
"solution" the solution."""


def dot(u, v, nvars):
    """sum u_i v_i in the Laurent ring in nvars variables."""
    return LaurentPoly.sum_products(nvars, ((1, a, b) for a, b in zip(u, v)))


def cramer_solve(m, b):
    """Solve the row system x m = b by Cramer's rule.

    The signed maximal minors c of the rows of m and b satisfy
    sum_i c_i m_i + c_r b = 0 with c_r = det m, so x_i = c_i / -det m:
    -c_i is det(m with row i replaced by b).  The singular test reads
    det m off that last minor, so no separate determinant is taken.
    """
    if m.rows != m.cols:
        raise ValueError("Cramer's rule needs a square matrix")
    if len(b) != m.cols:
        raise ValueError("right-hand side length mismatch")
    *numerators, d = _signed_minors(m.entries + [b], m.nvars)
    if d.is_zero():
        return CramerResult("singular")
    minus_d = -d
    sol = []
    for c in numerators:
        q = c.divide_exact(minus_d)
        if q is None:
            return CramerResult("no_solution_in_ring")
        sol.append(q)
    return CramerResult("solution", sol)
