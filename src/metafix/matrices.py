"""Exact linear algebra over integer Laurent polynomial rings.

Rank is taken over the fraction field, which for a domain coincides with
the largest nonvanishing minor.  Elimination is fraction-free in the
Bareiss style: every interior division is by a previous pivot and is exact
in the ring; a failing division signals a bug, not bad input.
"""

from __future__ import annotations

from math import gcd

from .errors import InvariantError
from .laurent import LaurentPoly


class ExactDivisionError(InvariantError, ArithmeticError):
    """An elimination step that must divide exactly did not."""


class LaurentMatrix:
    __slots__ = ("rows", "cols", "nvars", "entries")

    def __init__(self, nvars, entries):
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

    @classmethod
    def from_rows(cls, nvars, rows):
        return cls(nvars, rows)

    @classmethod
    def zeros(cls, rows, cols, nvars):
        z = LaurentPoly.zero(nvars)
        return cls(nvars, [[z] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, n, nvars):
        z = LaurentPoly.zero(nvars)
        one = LaurentPoly.one(nvars)
        return cls(nvars, [[one if i == j else z for j in range(n)] for i in range(n)])

    def __eq__(self, other):
        if not isinstance(other, LaurentMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __add__(self, other):
        self._same_shape(other)
        return LaurentMatrix(
            self.nvars,
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.entries, other.entries)
            ],
        )

    def __sub__(self, other):
        self._same_shape(other)
        return LaurentMatrix(
            self.nvars,
            [
                [a - b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.entries, other.entries)
            ],
        )

    def _same_shape(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")

    def __mul__(self, other):
        if isinstance(other, LaurentPoly) or isinstance(other, int):
            return LaurentMatrix(
                self.nvars, [[e * other for e in row] for row in self.entries]
            )
        if not isinstance(other, LaurentMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError("inner dimensions differ")
        z = LaurentPoly.zero(self.nvars)
        out = []
        for i in range(self.rows):
            row = []
            for j in range(other.cols):
                acc = z
                for k in range(self.cols):
                    acc = acc + self.entries[i][k] * other.entries[k][j]
                row.append(acc)
            out.append(row)
        return LaurentMatrix(self.nvars, out)

    def transpose(self):
        return LaurentMatrix(
            self.nvars,
            [[self.entries[i][j] for i in range(self.rows)] for j in range(self.cols)],
        )

    def submatrix(self, row_idx, col_idx):
        return LaurentMatrix(
            self.nvars, [[self.entries[i][j] for j in col_idx] for i in row_idx]
        )

    def mul_vector(self, vec):
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        z = LaurentPoly.zero(self.nvars)
        out = []
        for i in range(self.rows):
            acc = z
            for j in range(self.cols):
                acc = acc + self.entries[i][j] * vec[j]
            out.append(acc)
        return out

    def vec_mul(self, vec):
        """Row vector times matrix."""
        if len(vec) != self.rows:
            raise ValueError("vector length mismatch")
        z = LaurentPoly.zero(self.nvars)
        out = []
        for j in range(self.cols):
            acc = z
            for i in range(self.rows):
                acc = acc + vec[i] * self.entries[i][j]
            out.append(acc)
        return out

    def is_zero(self):
        return all(e.is_zero() for row in self.entries for e in row)

    # -- determinant ---------------------------------------------------

    def det(self):
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        if self.rows <= 4:
            return self.det_cofactor()
        return self.det_bareiss()

    def det_cofactor(self):
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        return _det_cofactor(self.entries, self.nvars)

    def det_bareiss(self):
        """Fraction-free elimination; interior divisions are exact."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        n = self.rows
        if n == 0:
            return LaurentPoly.one(self.nvars)
        a = [row[:] for row in self.entries]
        sign = 1
        prev = LaurentPoly.one(self.nvars)
        for k in range(n - 1):
            pr, pc = _select_pivot(a, k, n, n)
            if pr is None:
                return LaurentPoly.zero(self.nvars)
            if pr != k:
                a[k], a[pr] = a[pr], a[k]
                sign = -sign
            if pc != k:
                for row in a:
                    row[k], row[pc] = row[pc], row[k]
                sign = -sign
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    num = a[k][k] * a[i][j] - a[i][k] * a[k][j]
                    q = num.divide_exact(prev)
                    if q is None:
                        raise ExactDivisionError("Bareiss pivot division failed")
                    a[i][j] = q
                a[i][k] = LaurentPoly.zero(self.nvars)
            prev = a[k][k]
        return a[n - 1][n - 1] * sign

    # -- rank and kernel -----------------------------------------------

    def echelon_pivots(self):
        """Fraction-free elimination; returns (rank, pivot_rows, pivot_cols)
        as indices into the original matrix."""
        a = [row[:] for row in self.entries]
        rows, cols = self.rows, self.cols
        row_idx = list(range(rows))
        col_idx = list(range(cols))
        prev = LaurentPoly.one(self.nvars)
        steps = min(rows, cols)
        k = 0
        while k < steps:
            pr, pc = _select_pivot(a, k, rows, cols)
            if pr is None:
                break
            if pr != k:
                a[k], a[pr] = a[pr], a[k]
                row_idx[k], row_idx[pr] = row_idx[pr], row_idx[k]
            if pc != k:
                for row in a:
                    row[k], row[pc] = row[pc], row[k]
                col_idx[k], col_idx[pc] = col_idx[pc], col_idx[k]
            for i in range(k + 1, rows):
                for j in range(k + 1, cols):
                    num = a[k][k] * a[i][j] - a[i][k] * a[k][j]
                    q = num.divide_exact(prev)
                    if q is None:
                        raise ExactDivisionError("Bareiss pivot division failed")
                    a[i][j] = q
                a[i][k] = LaurentPoly.zero(self.nvars)
            prev = a[k][k]
            k += 1
        return k, row_idx[:k], col_idx[:k]

    def rank(self):
        return self.echelon_pivots()[0]

    def kernel_vector(self):
        """A nonzero ring vector in the right kernel, or None if full
        column rank.

        Built from signed maximal minors on the pivot columns plus one
        free column; the result is divided by the gcd of its contents and
        the first nonzero entry is normalized to unit form.
        """
        rank, prows, pcols = self.echelon_pivots()
        if rank == self.cols:
            return None
        pivot_cols = sorted(pcols)
        free = min(j for j in range(self.cols) if j not in set(pivot_cols))
        sel = sorted(pivot_cols + [free])
        rows = sorted(prows)
        z = [LaurentPoly.zero(self.nvars)] * self.cols
        for k, col in enumerate(sel):
            others = [c for c in sel if c != col]
            minor = self.submatrix(rows, others).det()
            z[col] = minor if k % 2 == 0 else -minor
        # strip a common factor when the smallest entry divides the rest
        # (sound over a domain: M(z/q) q = 0 forces M(z/q) = 0)
        smallest = min(
            (p for p in z if not p.is_zero()), key=lambda p: len(p.terms)
        )
        q, _ = smallest.normalized()
        reduced = [p.divide_exact(q) for p in z]
        if all(r is not None for r in reduced):
            z = reduced
        g = 0
        for p in z:
            g = gcd(g, p.content())
        if g > 1:
            z = [p.divide_exact(LaurentPoly.constant(g, self.nvars)) for p in z]
        lead = next(p for p in z if not p.is_zero())
        _, unit = lead.normalized()
        uinv = unit ** (-1)
        z = [p * uinv for p in z]
        if any(not e.is_zero() for e in self.mul_vector(z)):
            raise ExactDivisionError("kernel vector does not annihilate the matrix")
        return z


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


def _det_cofactor(rows, nvars):
    n = len(rows)
    if n == 0:
        return LaurentPoly.one(nvars)
    if n == 1:
        return rows[0][0]
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    total = LaurentPoly.zero(nvars)
    rest = rows[1:]
    for j in range(n):
        c = rows[0][j]
        if c.is_zero():
            continue
        minor = [[row[k] for k in range(n) if k != j] for row in rest]
        term = c * _det_cofactor(minor, nvars)
        total = total + term if j % 2 == 0 else total - term
    return total


class CramerResult:
    """Outcome of solving a square system by Cramer's rule.

    status is one of "solution" (ring solution found), "no_solution_in_ring"
    (the unique fraction-field solution is not a ring vector), or
    "singular" (zero determinant, Cramer does not apply).
    """

    __slots__ = ("status", "solution")

    def __init__(self, status, solution=None):
        self.status = status
        self.solution = solution

    def __repr__(self):
        return f"CramerResult({self.status!r})"


def cramer_solve(m, b, det=None):
    """Solve m x = b by Cramer's rule; `det` may pass a precomputed
    determinant of m."""
    if m.rows != m.cols:
        raise ValueError("Cramer's rule needs a square matrix")
    if len(b) != m.rows:
        raise ValueError("right-hand side length mismatch")
    d = m.det() if det is None else det
    if d.is_zero():
        return CramerResult("singular")
    sol = []
    for k in range(m.cols):
        mk = [row[:] for row in m.entries]
        for i in range(m.rows):
            mk[i][k] = b[i]
        dk = LaurentMatrix(m.nvars, mk).det()
        q = dk.divide_exact(d)
        if q is None:
            return CramerResult("no_solution_in_ring")
        sol.append(q)
    return CramerResult("solution", sol)
