"""Normal forms in the free metabelian group and its commutator subgroup.

An element is represented by its exponent-sum vector together with the
vector of abelianized derivatives of any representing word.  Two words
represent the same metabelian element exactly when these pairs agree, which
makes equality here the independent oracle for every detector in the
package.  Its one word-problem test is `MagnusElement.is_identity`, on
the pair of one Fox pass; `is_trivial` and `metafix verify` use it.

The commutator subgroup is abelian and carries the module action of the
Laurent ring by conjugation: a monomial x^m acts as conjugation by any
word with abelianization m, and the action extends linearly.  On
coordinates the action is plain multiplication.  A ring vector is the
coordinate vector of such an element exactly when its membership sum
(`fox.membership`) vanishes; `koszul_decompose` writes it over the
elementary relations by peeling (`fox.peel`).
"""

from __future__ import annotations

from .fox import membership, peel, word_coords
from .laurent import LaurentPoly
from .words import Word, check_size, extend_reduced


class MagnusElement:
    """Pair (exponent sums, derivative coordinates) of a metabelian element."""

    __slots__ = ("rank", "abelian", "coords")

    def __init__(self, rank, abelian, coords):
        self.rank = rank
        self.abelian = tuple(abelian)
        self.coords = tuple(coords)
        if len(self.abelian) != rank or len(self.coords) != rank:
            raise ValueError("component count must equal the rank")

    @classmethod
    def of_word(cls, w):
        """The pair of a word, both parts from one Fox pass."""
        return cls(w.rank, *word_coords(w, abelian=True))

    def _mono(self, sign=1):
        return LaurentPoly.monomial(tuple(sign * a for a in self.abelian), self.rank)

    def __mul__(self, other):
        if not isinstance(other, MagnusElement):
            return NotImplemented
        if self.rank != other.rank:
            raise ValueError("elements of different ranks")
        xa = self._mono()
        return MagnusElement(
            self.rank,
            tuple(a + b for a, b in zip(self.abelian, other.abelian)),
            tuple(u + xa * v for u, v in zip(self.coords, other.coords)),
        )

    def inverse(self):
        xainv = self._mono(-1)
        return MagnusElement(
            self.rank,
            tuple(-a for a in self.abelian),
            tuple(-(xainv * u) for u in self.coords),
        )

    def is_identity(self):
        """The word problem's one test: all sums and coordinates vanish."""
        return not any(self.abelian) and not any(self.coords)

    def __eq__(self, other):
        if not isinstance(other, MagnusElement):
            return NotImplemented
        return (
            self.rank == other.rank
            and self.abelian == other.abelian
            and self.coords == other.coords
        )

    def __hash__(self):
        return hash((self.rank, self.abelian, self.coords))

    def __repr__(self):
        return f"MagnusElement(abelian={self.abelian}, coords={[str(c) for c in self.coords]})"


def is_trivial(w):
    """Word problem: does the word represent the metabelian identity?

    One Fox pass gives its pair, and `MagnusElement.is_identity` decides."""
    return MagnusElement.of_word(w).is_identity()


def coset_letters(exponents):
    """The letters of x1^a1 ... xn^an, which are freely reduced; each
    power is held to the limit of `Word.__pow__`."""
    out = []
    for i, a in enumerate(exponents, start=1):
        check_size(abs(a), "power")
        out += [i if a > 0 else -i] * abs(a)
    return tuple(out)


def coset_word(exponents, rank):
    """Canonical representative x1^a1 ... xn^an of an abelian vector."""
    if len(exponents) != rank:
        raise ValueError("exponent vector of wrong length")
    return Word._raw(rank, coset_letters(exponents))


def module_power_word(r, u):
    """A word equal to r^u: monomials act by canonical conjugators.

    For u = sum of c * x^m, the word is the product over monomials (in
    sorted order) of g_m r^c g_m^-1 with g_m = x1^m1 ... xn^mn, built as
    one letter list that cancels only where each piece joins it; the free
    reduction of the product is unique, so no word is built per monomial.
    """
    out = []
    for m, c in sorted(u.exponent_terms().items()):
        g = coset_letters(m)
        extend_reduced(out, g)
        extend_reduced(out, (r ** c).letters)
        extend_reduced(out, tuple(-L for L in reversed(g)))
    return Word._raw(r.rank, tuple(out))


def koszul_decompose(u):
    """Write a module vector as a combination of the elementary relations.

    Returns {(i, j): c_ij} (i < j, 0-based) with

        u = sum c_ij * ((x_j - 1) eps_i - (x_i - 1) eps_j).

    Works by peeling the last variable with a nonzero contribution (see
    `fox.peel`): u_i - u_i|x_j=1 is exactly divisible by (x_j - 1), and
    the evaluated vector is a module vector on fewer coordinates.  Raises
    ValueError when the input does not satisfy the defining constraint.
    """
    n = len(u)
    nvars = u[0].nvars if u else 0
    if n != nvars:
        raise ValueError("coordinate count must equal the number of variables")
    if membership(u):
        raise ValueError("not a module vector: the defining constraint fails")
    cur = list(u)
    out = {}
    for j in range(n - 1, 0, -1):
        for i in range(j):
            h, cur[i] = peel(cur[i], j)
            if h:
                out[(i, j)] = h
    return out


def realize_coords(u):
    """A word in the commutator subgroup with the given coordinates.

    The vector is decomposed over the elementary relations; each relation
    is realized by the corresponding basic commutator acted on by a ring
    scalar.  The elementary relation at (i, j) equals the coordinates of
    [x_i, x_j] times the unit -x_i x_j.
    """
    n = len(u)
    decomp = koszul_decompose(u)
    out = Word.identity(n)
    for (i, j) in sorted(decomp):
        c = decomp[(i, j)]
        # [x_i, x_j] = x_i^-1 x_j^-1 x_i x_j, freely reduced as i != j
        base = Word._raw(n, (-i - 1, -j - 1, i + 1, j + 1))
        unit = LaurentPoly.monomial(
            tuple(1 if k in (i, j) else 0 for k in range(n)), n, -1
        )
        out = out * module_power_word(base, c * unit)
    return out
