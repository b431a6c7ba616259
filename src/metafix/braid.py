"""Pure braids as IA-automorphisms; Gassner matrices; Alexander vanishing.

Braid letters act on the free group through the Artin generators:

    sigma_i:  x_i -> x_i x_{i+1} x_i^-1,   x_{i+1} -> x_i,

and the pure generator A[i,j] (i < j) is the conjugated square

    A[i,j] = sigma_{j-1} ... sigma_{i+1} sigma_i^2 sigma_{i+1}^-1 ... sigma_{j-1}^-1.

Its action is built in closed form (Artin, Ann. Math. 48, 1947, in this
convention): with c = (x_i x_j)^s and g = c (x_j x_i)^-s, A[i,j]^s
conjugates x_i and x_j by c and each x_k with i < k < j by g, and fixes
every other generator; conjugating by w maps x to w x w^-1.

A braid word maps to the composite of its letter automorphisms so that the
matrix of a concatenation is the product of the matrices (letters read left
to right).  The unreduced matrix of a braid automorphism is its Jacobian;
every row image is a conjugate of its generator, the column vector
(x_1 - 1, ..., x_n - 1) is fixed, and the row vector of coordinates of
x_1...x_n is fixed.  The reduced matrix conjugates by the basis that ends
with the fixed column and drops the resulting trailing (0,...,0,1) row and
column; all divisions involved are exact for braid automorphisms and any
failure aborts loudly as a convention bug.

The variables of the matrices are identified with the generators x_1..x_n
of the Laurent ring (elsewhere often written t_1..t_n).
"""

from __future__ import annotations

from .endo import Endomorphism
from .errors import InvariantError
from .fox import jacobian
from .laurent import LaurentPoly
from .matrices import LaurentMatrix
from .words import MAX_LETTERS, Word, WordError


class GassnerConventionError(InvariantError, RuntimeError):
    """The reduced-matrix construction met a structural violation."""


class BraidWord:
    """A word in the pure braid generators A[i,j]^+-1 on n strands."""

    __slots__ = ("strands", "letters")

    def __init__(self, strands, letters=()):
        if strands < 2:
            raise ValueError("need at least two strands")
        for (i, j, s) in letters:
            if not (1 <= i < j <= strands):
                raise ValueError(f"bad generator A[{i},{j}] on {strands} strands")
            if s not in (1, -1):
                raise ValueError("letter sign must be +-1")
        self.strands = strands
        self.letters = tuple(letters)

    def __mul__(self, other):
        if not isinstance(other, BraidWord):
            return NotImplemented
        if self.strands != other.strands:
            raise ValueError("braids on different strand counts")
        return BraidWord(self.strands, self.letters + other.letters)

    def inverse(self):
        return BraidWord(
            self.strands, tuple((i, j, -s) for (i, j, s) in reversed(self.letters))
        )

    def __len__(self):
        return len(self.letters)

    def __eq__(self, other):
        if not isinstance(other, BraidWord):
            return NotImplemented
        return self.strands == other.strands and self.letters == other.letters

    def __hash__(self):
        return hash((self.strands, self.letters))

    def __str__(self):
        return braid_to_text(self)

    def __repr__(self):
        return f"BraidWord({self.strands}, {braid_to_text(self)!r})"


def braid_to_text(b):
    if not b.letters:
        return "1"
    return " ".join(
        f"A[{i},{j}]" if s == 1 else f"A[{i},{j}]^-1" for (i, j, s) in b.letters
    )


def parse_braid(text, strands):
    """Parse whitespace-separated tokens A[i,j] and A[i,j]^-1.

    An optional integer exponent A[i,j]^k is accepted and expanded; a
    word of more than MAX_LETTERS letters is rejected before it is built.
    """
    letters = []
    for tok in text.split():
        if tok == "1":
            continue
        body = tok
        power = 1
        if "^" in tok:
            body, _, ptxt = tok.partition("^")
            try:
                power = int(ptxt)
            except ValueError:
                raise WordError(f"bad exponent in braid token {tok!r}") from None
        if not (body.startswith("A[") and body.endswith("]")):
            raise WordError(f"bad braid token {tok!r}")
        inner = body[2:-1]
        parts = inner.split(",")
        if len(parts) != 2:
            raise WordError(f"bad braid token {tok!r}")
        try:
            i, j = int(parts[0]), int(parts[1])
        except ValueError:
            raise WordError(f"bad braid token {tok!r}") from None
        if not (1 <= i < j <= strands):
            raise WordError(f"generator A[{i},{j}] out of range for {strands} strands")
        if len(letters) + abs(power) > MAX_LETTERS:
            raise WordError(f"braid word exceeds the limit of {MAX_LETTERS} letters")
        sign = 1 if power > 0 else -1
        letters.extend([(i, j, sign)] * abs(power))
    return BraidWord(strands, letters)


def pure_generator(i, j, sign, n):
    """The free-group action of A[i,j]^sign (1 <= i < j <= n), in closed
    form (see the module docstring)."""
    xi, xj = Word.generator(i - 1, n), Word.generator(j - 1, n)
    c, d = xi * xj, xj * xi
    if sign < 0:
        c, d = c.inverse(), d.inverse()
    g = c * d.inverse()
    images = [Word.generator(k, n) for k in range(n)]
    for k in range(i - 1, j):
        images[k] = images[k].conjugated_by(c if k in (i - 1, j - 1) else g)
    return Endomorphism(images)


def braid_automorphism(b):
    """The IA-automorphism of the rank-n free group defined by the braid."""
    n = b.strands
    phi = Endomorphism.identity(n)
    for (i, j, sign) in b.letters:
        phi = pure_generator(i, j, sign, n).compose(phi)
    return phi


def gassner(b):
    """Unreduced matrix of the braid: the Jacobian of its automorphism.

    Accepts the braid word or its automorphism, when already built.
    """
    return jacobian(braid_automorphism(b) if isinstance(b, BraidWord) else b)


def _fixed_column(n):
    return [LaurentPoly.variable(i, n) - 1 for i in range(n)]


def gassner_reduced(b):
    """Reduced (n-1) x (n-1) matrix.

    Conjugates the unreduced matrix into the basis whose last vector is the
    fixed column (x_1 - 1, ..., x_n - 1), checks that the last column
    becomes (0, ..., 0, 1), and drops the last row and column.
    """
    unreduced = gassner(b) if isinstance(b, BraidWord) else b
    n = unreduced.rows
    xi = _fixed_column(n)
    if unreduced.mul_vector(xi) != xi:
        raise GassnerConventionError(
            "the column (x_i - 1) is not fixed by the unreduced matrix"
        )
    last_var = LaurentPoly.variable(n - 1, n)
    quotients = []
    for j in range(n - 1):
        q = unreduced.entries[n - 1][j].divide_exact(last_var - 1)
        if q is None:
            raise GassnerConventionError(
                "last-row entry not divisible by (x_n - 1); basis change broke"
            )
        quotients.append(q)
    out = []
    for i in range(n - 1):
        row = []
        for j in range(n - 1):
            row.append(unreduced.entries[i][j] - xi[i] * quotients[j])
        out.append(row)
    return LaurentMatrix(unreduced.nvars, out)


def alexander_vanishes(b):
    """Does the Alexander polynomial of the braid closure vanish?

    Equivalent to det(reduced matrix - identity) = 0.
    """
    reduced = gassner_reduced(b)
    n1 = reduced.rows
    return (reduced - LaurentMatrix.identity(n1, reduced.nvars)).det().is_zero()


def image_is_generator_conjugate(phi):
    """Every image word has the shape w x_k w^-1."""
    for k, y in enumerate(phi.images):
        letters = list(y.letters)
        while len(letters) >= 3 and letters[0] == -letters[-1]:
            letters = letters[1:-1]
        if letters != [k + 1]:
            return False
    return True
