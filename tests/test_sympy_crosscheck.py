"""The exact arithmetic against sympy, an independent implementation of
polynomial division, determinants, rank and linear solving over
Z[x_1, ..., x_n], and the coset answers against module membership over
Q[x_1^+-1, ..., x_n^+-1].

A nonzero Laurent polynomial p is x^m P, where m holds the least exponent
of each variable and P is a polynomial that no x_i divides.  Monomials
are units, and x_i is prime in Z[x], so p divides g in the Laurent ring
iff P divides G in Z[x]: exactly when sympy's division of G by P over ZZ
leaves no remainder.  Scaling a row by a monomial scales the determinant
by it and keeps the rank, so a matrix is compared row-cleared.
"""

import random

import pytest

sympy = pytest.importorskip("sympy")

from hypothesis import example, given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from sympy.polys.matrices import DomainMatrix  # noqa: E402

from metafix.braid import (  # noqa: E402
    alexander_vanishes,
    braid_automorphism,
    gassner,
    gassner_reduced,
)
from metafix.endo import inner_automorphism, parse_endomorphism  # noqa: E402
from metafix.fixpoint import CosetSolver, search_fixed  # noqa: E402
from metafix.fox import j_minus_i, membership_row  # noqa: E402
from metafix.laurent import LaurentPoly  # noqa: E402
from metafix.matrices import LaurentMatrix, cramer_solve  # noqa: E402
from metafix.samples import random_ia, random_rank_deficient_ia  # noqa: E402
from metafix.words import parse_word  # noqa: E402
from tests.conftest import data_path  # noqa: E402
from tests.test_braid import random_braid  # noqa: E402

GENS = sympy.symbols("x1:6")


def ring(n):
    return sympy.ZZ[GENS[:n]]


def least(polys, n):
    """The least exponent of each variable over the terms of the polys."""
    exps = [e for p in polys for e in p.exponent_terms()]
    return tuple(min((e[i] for e in exps), default=0) for i in range(n))


def cleared(p, shift):
    """x^-shift p as an element of Z[x]; shift must clear every negative
    exponent."""
    r = ring(p.nvars).ring
    return r.from_dict(
        {tuple(a - b for a, b in zip(e, shift)): c for e, c in p.exponent_terms().items()}
    )


def laurent(elem, shift, n):
    """The exponent terms of x^shift elem, elem in Z[x]."""
    return {tuple(a + b for a, b in zip(e, shift)): int(c) for e, c in dict(elem).items()}


def polys(n, max_terms=4, span=3, coeff=6):
    monos = st.tuples(*[st.integers(-span, span)] * n)
    terms = st.dictionaries(monos, st.integers(-coeff, coeff).filter(bool), max_size=max_terms)
    return terms.map(lambda t: LaurentPoly(n, t))


def division_cases(n):
    nonzero = polys(n).filter(bool)
    return st.tuples(polys(n), nonzero, polys(n, max_terms=2))


@given(st.integers(1, 3).flatmap(division_cases))
# x^2 - 1 over 2x - 2: divisible over Q, not over Z
@example((LaurentPoly(1, {}), LaurentPoly(1, {(1,): 2, (0,): -2}),
          LaurentPoly(1, {(2,): 1, (0,): -1})))
def test_divide_exact_matches_sympy(case):
    q, d, r = case
    n = q.nvars
    # the product itself, against sympy's
    g = q * d
    mq, md = least([q], n), least([d], n)
    prod = cleared(q, mq) * cleared(d, md)
    assert g.exponent_terms() == laurent(prod, tuple(a + b for a, b in zip(mq, md)), n)
    assert g.divide_exact(d) == q
    # q d + r divides exactly when sympy's remainder vanishes
    g = g + r
    mg = least([g], n)
    quot, rem = cleared(g, mg).div(cleared(d, md))
    out = g.divide_exact(d)
    assert (out is None) == bool(rem)
    if out is not None:
        assert out.exponent_terms() == laurent(quot, tuple(a - b for a, b in zip(mg, md)), n)


def random_poly(rng, n, terms=3, span=2, coeff=4):
    return LaurentPoly(
        n,
        {tuple(rng.randint(-span, span) for _ in range(n)): rng.randint(-coeff, coeff)
         for _ in range(terms)},
    )


def random_matrix(rng, rows, cols, n, **kw):
    return LaurentMatrix(
        n, [[random_poly(rng, n, **kw) for _ in range(cols)] for _ in range(rows)]
    )


SMALL = {"terms": 2, "span": 1, "coeff": 2}


def rank_at_most(rng, size, r, n):
    """A size x size matrix of rank at most r: a product through r, of
    small factors, as the products' degrees slow sympy down."""
    return random_matrix(rng, size, r, n, **SMALL) * random_matrix(rng, r, size, n, **SMALL)


def cleared_rows(m):
    """(sum of the row shifts, the row-cleared matrix over Z[x])."""
    n = m.nvars
    shifts = [least(row, n) for row in m.entries]
    rows = [[cleared(p, s) for p in row] for row, s in zip(m.entries, shifts)]
    total = tuple(sum(s[i] for s in shifts) for i in range(n))
    return total, DomainMatrix(rows, (m.rows, m.cols), ring(n))


def sympy_det(m):
    shift, dm = cleared_rows(m)
    return laurent(dm.det(), shift, m.nvars)


def sympy_rank(m):
    # fraction-free, so faster than over the fraction field
    return len(cleared_rows(m)[1].rref_den()[2])


@pytest.mark.parametrize("n", [1, 2])
def test_det_matches_sympy(n):
    # sizes up to 4 expand by cofactors, 5 x 5 takes the Bareiss branch
    rng = random.Random(70 + n)
    for size in (1, 2, 3, 4, 5, 5, 5):
        m = random_matrix(rng, size, size, n)
        assert m.det().exponent_terms() == sympy_det(m)


@pytest.mark.parametrize("n", [1, 2])
def test_rank_of_rank_deficient_matrices_matches_sympy(n):
    rng = random.Random(80 + n)
    for size in (4, 5):
        for r in range(1, size):
            m = rank_at_most(rng, size, r, n)
            assert m.rank() == sympy_rank(m) <= r
            assert m.det() == 0 and not sympy_det(m)


@pytest.mark.parametrize("n", [1, 2])
def test_kernel_vector_of_a_five_by_six_matrix_checks_in_sympy(n):
    # rank 5 with six columns: the row kernel vector of the 6 x 5
    # transpose is built from 5 x 5 minors, which `det` takes by
    # elimination, and sympy checks m z = 0
    rng = random.Random(90 + n)
    for _ in range(2):
        m = random_matrix(rng, 5, 6, n, **SMALL)
        assert m.rank() == sympy_rank(m) == 5
        z = LaurentMatrix(n, list(zip(*m.entries))).left_kernel_basis()[0]
        assert any(z)
        mz = least(z, n)
        col = DomainMatrix([[cleared(p, mz)] for p in z], (6, 1), ring(n))
        assert (cleared_rows(m)[1] * col).is_zero_matrix


def to_fraction(p, field):
    """p as an element of the fraction field of Z[x]."""
    return field.from_sympy(sympy.Add(*[
        c * sympy.Mul(*[g**e for g, e in zip(GENS, m)])
        for m, c in p.exponent_terms().items()
    ]))


def is_laurent(q):
    """Is the fraction q, kept in lowest terms, a Laurent polynomial: is
    its denominator +-x^m?"""
    terms = q.denom.terms()
    return len(terms) == 1 and abs(terms[0][1]) == 1


@pytest.mark.parametrize("n", [1, 2])
def test_cramer_solve_matches_sympy(n):
    # x m = b over the fraction field, by sympy's LU solve of the
    # transposed system: Cramer answers its solution when that is a
    # Laurent vector, "no_solution_in_ring" when it is not, and
    # "singular" exactly when sympy's determinant is 0
    rng = random.Random(100 + n)
    field = sympy.ZZ.frac_field(*GENS[:n])
    seen = {"solution": 0, "no_solution_in_ring": 0, "singular": 0}
    for trial in range(36):
        size = 1 + trial % 4
        kind = trial // 4 % 3
        r = rng.randrange(size)
        if kind == 2 and r == 0:
            m = LaurentMatrix(n, [[LaurentPoly.zero(n)] * size for _ in range(size)])
        elif kind == 2:
            m = rank_at_most(rng, size, r, n)
        else:
            m = random_matrix(rng, size, size, n, **SMALL)
        b = [random_poly(rng, n, **SMALL) for _ in range(size)]
        if kind == 0:
            b = m.vec_mul(b)
        res = cramer_solve(m, b)
        seen[res.status] += 1
        t = DomainMatrix(
            [[to_fraction(p, field) for p in col] for col in zip(*m.entries)], (size, size), field
        )
        if t.det() == field.zero:
            assert res.status == "singular", (m.entries, b)
            continue
        rhs = DomainMatrix([[to_fraction(p, field)] for p in b], (size, 1), field)
        want = [row[0] for row in t.lu_solve(rhs).to_list()]
        if all(is_laurent(q) for q in want):
            assert res.status == "solution", (m.entries, b)
            assert [to_fraction(p, field) for p in res.solution] == want
        else:
            assert res.status == "no_solution_in_ring", (m.entries, b)
    assert min(seen.values()) >= 8, seen


@pytest.mark.parametrize("strands", [4, 5])
def test_alexander_vanishing_matches_sympy(strands):
    # the bridge's verdict on a 3 x 3 or 4 x 4 reduced matrix, whose
    # determinant `det` expands by cofactors, against sympy's determinant
    # of reduced - I; the 3-strand tests only compare it with the rank
    rng = random.Random(110 + strands)
    seen = set()
    for _ in range(20):
        b = random_braid(rng, strands, 6)
        reduced = gassner_reduced(gassner(braid_automorphism(b)))
        vanishes = alexander_vanishes(reduced)
        minus_i = reduced.minus_identity()
        assert vanishes == (not sympy_det(minus_i)), b
        seen.add(vanishes)
    assert seen == {True, False}


def coset_referee(phi):
    """Membership of (0, ..., 0, x^a - 1) in the row module of
    [(J - I) | (x - 1)^T] over Q[x^+-1], as a function of a.

    A fixed point in coset a has coordinates u0 + k with k (J - I) = 0 and
    k . (x - 1) = 1 - x^-a (see `metafix.fixpoint`), so -x^a k is a ring
    vector that the rows combine to that target.  A `found` coset is
    therefore a member, and a non-member proves `none` (Z is in Q).  The
    Laurent ring is Q[x, y] / (x_i y_i - 1): x_i^-1 is written y_i, and
    every (x_i y_i - 1) e_j joins the rows."""
    n = phi.rank
    xs = sympy.symbols(f"x1:{n + 1}")
    ys = sympy.symbols(f"y1:{n + 1}")
    r = sympy.QQ.old_poly_ring(*xs, *ys)

    def element(p):
        return r.convert(sympy.Add(*[
            c * sympy.Mul(*[(x**e if e >= 0 else y**-e) for x, y, e in zip(xs, ys, m)])
            for m, c in p.exponent_terms().items()
        ]))

    zero = r.convert(0)
    rows = [
        [element(e) for e in row] + [element(d)]
        for row, d in zip(j_minus_i(phi).entries, membership_row(n))
    ]
    for x, y in zip(xs, ys):
        for j in range(n + 1):
            unit = [zero] * (n + 1)
            unit[j] = r.convert(x * y - 1)
            rows.append(unit)
    module = r.free_module(n + 1).submodule(*rows)
    return lambda a: module.contains([zero] * n + [element(LaurentPoly.monomial(a, n) - 1)])


def referee_inputs():
    """The fixtures and seeded endomorphisms of every solver route: the
    samples' IA, sparse IA and rank-deficient draws on 2 and 3
    generators, and an inner automorphism by a commutator word, whose
    ideal is zero."""
    phis = []
    for name in ("displaced_pair", "identity2", "infinite_fix", "rank_deficient"):
        with open(data_path(f"{name}.endo")) as fh:
            phis.append(parse_endomorphism(fh.read()))
    rng = random.Random(120)
    for n in (2, 3):
        for _ in range(2):
            phis.append(random_ia(rng, n))
            phis.append(random_ia(rng, n, skip_chance=0.5))
            phis.append(random_rank_deficient_ia(rng, n))
    phis.append(inner_automorphism(parse_word("[x1,x2]", 3)))
    return phis


def test_coset_answers_match_module_membership():
    # every `found` is a member, and every `none` and every `undecided` a
    # non-member: an `undecided` coset is provably `none`, the target of
    # deciding the rank-deficient cosets
    seen = set()
    for phi in referee_inputs():
        solver = CosetSolver(phi)
        route = "zero ideal" if solver.ideal_is_zero else solver.mode
        member = coset_referee(phi)
        for c in search_fixed(phi, 1).cosets:
            assert member(c.exponents) == (c.status == "found"), (phi, c.exponents, c.status)
            seen.add((route, c.status))
    assert {route for route, _ in seen} == {"unique", "decoupled", "rank_deficient", "zero ideal"}
    assert {("unique", "found"), ("unique", "none"), ("decoupled", "found"),
            ("decoupled", "none"), ("rank_deficient", "found"), ("zero ideal", "none")} <= seen, seen
