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


class SingularMinorError(InvariantError, ArithmeticError):
    """A pivot block found by elimination has a zero determinant."""


class LaurentMatrix:
    """A matrix over the Laurent ring in `nvars` variables.

    Nothing writes `entries` after `__init__`, so the determinant, the
    adjugate and the elimination pivots are computed at most once per
    instance and kept in the private slots.
    """

    __slots__ = ("rows", "cols", "nvars", "entries", "_det", "_adj", "_pivots")

    def __init__(self, nvars, entries):
        self._det = self._adj = self._pivots = None
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
        cols = [[row[j] for row in other.entries] for j in range(other.cols)]
        return LaurentMatrix(
            self.nvars,
            [[dot(row, col, self.nvars) for col in cols] for row in self.entries],
        )

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
        return [dot(row, vec, self.nvars) for row in self.entries]

    def vec_mul(self, vec):
        """Row vector times matrix."""
        if len(vec) != self.rows:
            raise ValueError("vector length mismatch")
        return [
            dot(vec, [row[j] for row in self.entries], self.nvars)
            for j in range(self.cols)
        ]

    def is_zero(self):
        return all(e.is_zero() for row in self.entries for e in row)

    # -- determinant ---------------------------------------------------

    def det(self):
        if self._det is None:
            if self.rows != self.cols:
                raise ValueError("determinant of a non-square matrix")
            self._det = self.det_cofactor() if self.rows <= 4 else self.det_bareiss()
        return self._det

    def adjugate(self):
        """The adjugate as tuples: adj[k][i] = (-1)^(i+k) times the minor of
        m without row i and column k, so that m * adj = det(m) * I."""
        if self._adj is None:
            if self.rows != self.cols:
                raise ValueError("adjugate of a non-square matrix")
            n = self.rows
            others = [[j for j in range(n) if j != i] for i in range(n)]
            adj = []
            for k in range(n):
                row = []
                for i in range(n):
                    minor = self.submatrix(others[i], others[k]).det()
                    row.append(-minor if (i + k) % 2 else minor)
                adj.append(tuple(row))
            self._adj = tuple(adj)
        return self._adj

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
        as indices into the original matrix, the indices as tuples."""
        if self._pivots is None:
            self._pivots = self._eliminate()
        return self._pivots

    def _eliminate(self):
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
        return k, tuple(row_idx[:k]), tuple(col_idx[:k])

    def rank(self):
        return self.echelon_pivots()[0]

    def column_space_forms(self):
        """Linear forms in b, one per non-pivot row, that all vanish exactly
        when b lies in the column space over the fraction field.

        With pivot rows R and columns C from `echelon_pivots`, the form of
        row i is the cofactor expansion along b of the bordered minor
        det [[m[R,C], b_R], [m[i,C], b_i]], which equals
        det m[R,C] * (b_i - m[i,C] m[R,C]^-1 b_R) (Kronecker's
        bordered-minor rank criterion).  Each form is a tuple of `rows`
        coefficients.
        """
        r, prows, pcols = self.echelon_pivots()
        prows, pcols = sorted(prows), sorted(pcols)
        block = [[self.entries[i][j] for j in pcols] for i in prows]
        lead = LaurentMatrix(self.nvars, block).det()
        if lead.is_zero():
            raise SingularMinorError("pivot block of the elimination is singular")
        zero = LaurentPoly.zero(self.nvars)
        forms = []
        for i in range(self.rows):
            if i in prows:
                continue
            bordered = block + [[self.entries[i][j] for j in pcols]]
            form = [zero] * self.rows
            for pos, row in enumerate(prows):
                minor = LaurentMatrix(self.nvars, bordered[:pos] + bordered[pos + 1 :]).det()
                form[row] = -minor if (pos + r) % 2 else minor
            form[i] = lead
            forms.append(tuple(form))
        return tuple(forms)

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


def dot(u, v, nvars):
    """sum u_i v_i in the Laurent ring in nvars variables."""
    acc = LaurentPoly.zero(nvars)
    for a, b in zip(u, v):
        if a.terms and b.terms:
            acc = acc + a * b
    return acc


def cramer_solve(m, b):
    """Solve m x = b by Cramer's rule.

    Numerator k is det(m with column k replaced by b), taken as its
    Laplace expansion along that column: row k of the adjugate dotted
    with b.  The determinant and the adjugate are kept on m, so repeated
    solves with one matrix cost a dot product and an exact division per
    unknown.
    """
    if m.rows != m.cols:
        raise ValueError("Cramer's rule needs a square matrix")
    if len(b) != m.rows:
        raise ValueError("right-hand side length mismatch")
    d = m.det()
    if d.is_zero():
        return CramerResult("singular")
    sol = []
    for row in m.adjugate():
        q = dot(row, b, m.nvars).divide_exact(d)
        if q is None:
            return CramerResult("no_solution_in_ring")
        sol.append(q)
    return CramerResult("solution", sol)
