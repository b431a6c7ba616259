"""Pure braids as IA-automorphisms; Gassner matrices; Alexander vanishing.

Braid letters act on the free group through the Artin generators:

    sigma_i:  x_i -> x_i x_{i+1} x_i^-1,   x_{i+1} -> x_i,

and the pure generator A[i,j] (i < j) is the conjugated square

    A[i,j] = sigma_{j-1} ... sigma_{i+1} sigma_i^2 sigma_{i+1}^-1 ... sigma_{j-1}^-1.

The action of each power is built in closed form (Artin, Ann. Math. 48,
1947, in this convention): with c = (x_i x_j)^k and g = c (x_j x_i)^-k,
A[i,j]^k conjugates x_i and x_j by c and each x_m with i < m < j by g,
and fixes every other generator; conjugating by w maps x to w x w^-1.

A braid word maps to the composite of its letter automorphisms, one power
per run of equal letters, so that the matrix of a concatenation is the
product of the matrices (letters read left to right).  The unreduced
matrix of a braid automorphism is its Jacobian; every row image is a
conjugate of its generator, the column vector
(x_1 - 1, ..., x_n - 1) is fixed, and the row vector of coordinates of
x_1...x_n is fixed.  The reduced matrix conjugates by the basis that ends
with the fixed column and drops the resulting trailing (0,...,0,1) row and
column; all divisions involved are exact for braid automorphisms and any
failure aborts loudly as a convention bug.  Alexander vanishing is
det(reduced - identity) = 0.  Each stage takes the previous stage's
output: `braid_automorphism(b)`, `gassner(phi)`,
`gassner_reduced(unreduced)`, `alexander_vanishes(reduced)`.

The commutator-subgroup answer of a braid automorphism comes from its
rank.  On rank(J - I) <= n - 2 it is the detector's
(`fixpoint.fixed_point_in_commutator`).  On rank n - 1 the left kernel of
J - I is, over the fraction field, the line through the coordinate row c
of the fixed word x_1...x_n (Fox chain rule), and f(c) = x_1...x_n - 1 is
nonzero, so no nontrivial fixed point lies in the commutator subgroup and
no kernel basis is built; c (J - I) = 0 is checked, and a failure aborts
as a convention bug.

The variables of the matrices are identified with the generators x_1..x_n
of the Laurent ring (elsewhere often written t_1..t_n).
"""

from __future__ import annotations

import re
from functools import lru_cache
from itertools import groupby

from .endo import Endomorphism
from .errors import InvariantError
from .fixpoint import fixed_point_in_commutator
from .fox import j_minus_i, jacobian, membership, membership_row, word_coords
from .laurent import LaurentPoly
from .magnus import coset_word
from .matrices import LaurentMatrix
from .words import Word, WordError, check_size, parse_digits


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


# A whitespace-separated token, and its forms: "1", or A[i,j] with an
# optional exponent.
_TOKEN_RE = re.compile(r"\S+")
_FORM_RE = re.compile(r"1|A\[([0-9]+),([0-9]+)\](?:\^(-?)([0-9]+))?")


def parse_braid(text, strands):
    """Parse whitespace-separated tokens A[i,j] and A[i,j]^-1.

    An optional integer exponent A[i,j]^k is accepted and expanded; a
    word of more than MAX_LETTERS letters is rejected before it is built.
    A WordError names the position of its token, never the token.
    """
    letters = []
    for tok in _TOKEN_RE.finditer(text):
        at = tok.start()
        m = _FORM_RE.fullmatch(tok[0])
        if m is None:
            raise WordError("expected 1, A[i,j] or A[i,j]^k", at)
        if m[1] is None:
            continue
        i, j = parse_digits(m[1], at), parse_digits(m[2], at)
        if not (1 <= i < j <= strands):
            raise WordError(f"generator A[{i},{j}] out of range for {strands} strands", at)
        power = 1 if m[4] is None else parse_digits(m[4], at)
        check_size(len(letters) + power, "braid word", at)
        letters.extend([(i, j, -1 if m[3] else 1)] * power)
    return BraidWord(strands, letters)


def _pure_power(i, j, k, n):
    """A[i,j]^k on the rank-n free group, in closed form."""
    # the longest image: x_i or x_j conjugated by c, 4|k| + 1 letters,
    # or a generator between them conjugated by g, 8|k| + 1
    check_size((8 if j > i + 1 else 4) * abs(k) + 1, f"A[{i},{j}]^{k} image")
    xi, xj = Word.generator(i - 1, n), Word.generator(j - 1, n)
    c = (xi * xj) ** k
    g = c * (xj * xi) ** -k
    images = [Word.generator(m, n) for m in range(n)]
    for m in range(i - 1, j):
        images[m] = images[m].conjugated_by(c if m in (i - 1, j - 1) else g)
    return Endomorphism(images)


_pure_letter = lru_cache(maxsize=256)(_pure_power)


def pure_generator(i, j, k, n):
    """The free-group action of A[i,j]^k (1 <= i < j <= n), in closed
    form (see the module docstring), so a power costs one
    construction, not k compositions.  WordError is raised before an
    image would pass MAX_LETTERS letters.

    An endomorphism is immutable, so each letter A[i,j]^+-1 is built
    once per process, together with its `apply` table; the 256 kept take
    at most about 14 MB, on 128 strands.  Longer powers are built anew."""
    return (_pure_letter if k in (1, -1) else _pure_power)(i, j, k, n)


def braid_automorphism(b):
    """The IA-automorphism of the rank-n free group defined by the braid:
    one composition per run of equal letters, by that run's power."""
    n = b.strands
    phi = Endomorphism.identity(n)
    for (i, j, sign), run in groupby(b.letters):
        phi = pure_generator(i, j, sign * sum(1 for _ in run), n).compose(phi)
    return phi


def gassner(phi):
    """Unreduced matrix of the braid automorphism phi: its Jacobian."""
    return jacobian(phi)


def gassner_reduced(unreduced):
    """Reduced (n-1) x (n-1) matrix of a braid, from its unreduced matrix.

    Conjugates the unreduced matrix into the basis whose last vector is the
    fixed column (x_1 - 1, ..., x_n - 1), checks that the last column
    becomes (0, ..., 0, 1), and drops the last row and column.  Entry
    (i, j) is entries[i][j] - (x_{i+1} - 1) q_j, with q_j the exact quotient
    of the last row's entry j by x_n - 1, formed as one fused sum.
    """
    n = unreduced.rows
    xi = membership_row(n)
    if [membership(row) for row in unreduced.entries] != list(xi):
        raise GassnerConventionError(
            "the column (x_i - 1) is not fixed by the unreduced matrix"
        )
    quotients = []
    for j in range(n - 1):
        q = unreduced.entries[n - 1][j].divide_exact(xi[n - 1])
        if q is None:
            raise GassnerConventionError(
                "last-row entry not divisible by (x_n - 1); basis change broke"
            )
        quotients.append(q)
    nvars = unreduced.nvars
    one = LaurentPoly.one(nvars)
    out = [
        [
            LaurentPoly.sum_products(nvars, ((1, unreduced.entries[i][j], one), (-1, xi[i], q)))
            for j, q in enumerate(quotients)
        ]
        for i in range(n - 1)
    ]
    return LaurentMatrix(nvars, out)


def alexander_vanishes(reduced):
    """Does the Alexander polynomial of the braid closure vanish?  Read
    off the reduced matrix: det(reduced - identity) = 0."""
    return reduced.minus_identity().det().is_zero()


@lru_cache(maxsize=16)
def fixed_word_coords(n):
    """The coordinate row c = (1, x_1, x_1 x_2, ..., x_1...x_{n-1}) of
    x_1...x_n, which every braid automorphism fixes, built once per n."""
    return tuple(word_coords(coset_word((1,) * n, n)))


def commutator_witness(phi):
    """A verified nontrivial fixed point of the braid automorphism phi in
    the commutator subgroup, or None when there is none.

    On rank(J - I) <= n - 2 this is `fixed_point_in_commutator`.  On rank
    n - 1 the answer is None from the fixed word x_1...x_n alone (see the
    module docstring), once c (J - I) = 0 is checked."""
    n = phi.rank
    jmi = j_minus_i(phi)
    if jmi.rank() <= n - 2:
        return fixed_point_in_commutator(phi)
    if any(jmi.vec_mul(fixed_word_coords(n))):
        raise GassnerConventionError("the coordinates of x_1...x_n are not fixed by J")
    return None
