import random

import pytest

from metafix.fox import jacobian
from metafix.laurent import LaurentPoly, parse_poly
from metafix.matrices import LaurentMatrix, _det_cofactor, cramer_solve
from metafix.samples import random_ia, random_poly


def P(text, n=2):
    return parse_poly(text, n)


def random_matrix(rng, rows, cols, n, terms=2):
    return LaurentMatrix(
        n,
        [
            [random_poly(rng, n, terms=terms, span=1, coeff=2) for _ in range(cols)]
            for _ in range(rows)
        ],
    )


def test_det_examples():
    n = 3
    i3 = LaurentMatrix.identity(n, n)
    assert (i3 - i3).det() == 0
    m = LaurentMatrix(2, [[P("x1"), P("1")], [P("1"), P("x1^-1")]])
    assert m.det() == 0


def test_det_of_ia_difference():
    rng = random.Random(41)
    for _ in range(10):
        nn = rng.randrange(2, 5)
        phi = random_ia(rng, nn)
        jmi = jacobian(phi) - LaurentMatrix.identity(nn, nn)
        assert jmi.det().is_zero()


def test_det_requires_square():
    with pytest.raises(ValueError):
        LaurentMatrix.zeros(2, 3, 1).det()


def test_det_matches_cofactor_on_larger_matrices():
    # beyond 4 x 4, det() is the elimination's last pivot signed by its
    # row and column swaps; the cofactor expansion is the reference
    rng = random.Random(42)
    signs = set()
    row_swaps = col_swaps = 0
    for trial in range(18):
        size = 5 + trial % 2
        n = rng.randrange(1, 3)
        kind = trial % 3
        if kind == 1:
            m = random_low_rank(rng, size, size, rng.randrange(1, size), n)
        else:
            m = random_matrix(rng, size, size, n, terms=1)
        if kind == 2:
            # every entry gets two or more terms except one monomial off
            # the top left corner, so the first pivot needs a swap
            pad = LaurentPoly.variable(0, n, 3) + LaurentPoly.variable(0, n, 4)
            entries = [[e + pad for e in row] for row in m.entries]
            r, c = rng.randrange(size), rng.randrange(size)
            if r == c == 0:
                r = rng.randrange(1, size)
            entries[r][c] = LaurentPoly.monomial((1,) * n, n)
            m = LaurentMatrix(n, entries)
        assert m.det() == _det_cofactor(m.entries, n)
        rank, prows, pcols, sign, _ = m._elimination()
        assert (rank == size) == (not m.det().is_zero())
        if rank == size:
            signs.add(sign)
        row_swaps += prows != tuple(range(rank))
        col_swaps += pcols != tuple(range(rank))
    assert signs == {1, -1} and row_swaps >= 3 and col_swaps >= 3, (signs, row_swaps, col_swaps)


def test_rank_examples(displaced_pair, infinite_fix):
    assert LaurentMatrix.zeros(3, 2, 2).rank() == 0
    jmi = jacobian(displaced_pair) - LaurentMatrix.identity(2, 2)
    assert jmi.rank() == 1
    jmi3 = jacobian(infinite_fix) - LaurentMatrix.identity(3, 3)
    assert jmi3.rank() == 1


def test_rank_equals_transpose_rank():
    rng = random.Random(44)
    for _ in range(40):
        n = rng.randrange(1, 3)
        m = random_matrix(rng, rng.randrange(1, 5), rng.randrange(1, 5), n)
        assert m.rank() == m.transpose().rank()


def test_kernel_examples():
    m = LaurentMatrix(1, [[parse_poly("x1 - 1", 1), parse_poly("x1 - 1", 1)]])
    z = m.kernel_vector()
    assert z == [LaurentPoly.one(1), LaurentPoly.constant(-1, 1)]

    nonsingular = LaurentMatrix(1, [[parse_poly("x1", 1)]])
    assert nonsingular.kernel_vector() is None


def test_kernel_annihilates_random():
    rng = random.Random(45)
    hits = 0
    for _ in range(60):
        n = rng.randrange(1, 3)
        rows = rng.randrange(1, 4)
        cols = rng.randrange(1, 4)
        m = random_matrix(rng, rows, cols, n, terms=1)
        z = m.kernel_vector()
        if z is None:
            assert m.rank() == cols
            continue
        hits += 1
        assert any(not p.is_zero() for p in z)
        assert all(p.is_zero() for p in m.mul_vector(z))
    assert hits > 10


def test_cramer_examples():
    m = LaurentMatrix(1, [[parse_poly("x1", 1)]])
    res = cramer_solve(m, [parse_poly("x1^2", 1)])
    assert res.status == "solution" and res.solution == [parse_poly("x1", 1)]

    # the inhomogeneous divisibility obstruction on two generators
    m2 = LaurentMatrix(2, [[P("x2 + x1 - 2")]])
    res2 = cramer_solve(m2, [P("x2 - 1")])
    assert res2.status == "no_solution_in_ring"

    singular = LaurentMatrix(1, [[LaurentPoly.zero(1)]])
    assert cramer_solve(singular, [parse_poly("x1", 1)]).status == "singular"


def test_cramer_shape_mismatch():
    with pytest.raises(ValueError):
        cramer_solve(LaurentMatrix.zeros(2, 3, 1), [LaurentPoly.zero(1)] * 2)
    with pytest.raises(ValueError):
        cramer_solve(LaurentMatrix.identity(2, 1), [LaurentPoly.zero(1)])


def test_cramer_solution_verifies():
    rng = random.Random(46)
    solved = 0
    for _ in range(60):
        n = rng.randrange(1, 3)
        size = rng.randrange(1, 4)
        m = random_matrix(rng, size, size, n, terms=1)
        x = [random_poly(rng, n, terms=1, span=1, coeff=2) for _ in range(size)]
        b = m.mul_vector(x)
        res = cramer_solve(m, b)
        if res.status == "solution":
            solved += 1
            assert m.mul_vector(res.solution) == b
        else:
            assert res.status == "singular"
    assert solved > 10


def cramer_reference(m, b):
    """Cramer's rule as written: numerator k is the determinant of m with
    column k replaced by b."""
    d = _det_cofactor(m.entries, m.nvars)
    if d.is_zero():
        return "singular", None
    sol = []
    for k in range(m.cols):
        mk = [[b[i] if j == k else e for j, e in enumerate(row)] for i, row in enumerate(m.entries)]
        q = _det_cofactor(mk, m.nvars).divide_exact(d)
        if q is None:
            return "no_solution_in_ring", None
        sol.append(q)
    return "solution", sol


def random_low_rank(rng, rows, cols, rank, n):
    """A rows x cols matrix of rank at most `rank`, as a product of factors."""
    if rank == 0:
        return LaurentMatrix.zeros(rows, cols, n)
    return random_matrix(rng, rows, rank, n, terms=1) * random_matrix(rng, rank, cols, n)


def test_cramer_matches_column_replacement():
    rng = random.Random(47)
    seen = {"solution": 0, "no_solution_in_ring": 0, "singular": 0}
    for trial in range(90):
        n = rng.randrange(1, 4)
        size = rng.randrange(1, 5)
        kind = trial % 3
        if kind == 2:
            m = random_low_rank(rng, size, size, rng.randrange(size), n)
        else:
            m = random_matrix(rng, size, size, n, terms=rng.randrange(1, 3))
        if kind == 0:
            b = m.mul_vector([random_poly(rng, n, terms=2, span=1, coeff=2) for _ in range(size)])
        else:
            b = [random_poly(rng, n, terms=2, span=1, coeff=2) for _ in range(size)]
        status, sol = cramer_reference(m, b)
        res = cramer_solve(m, b)
        assert res.status == status
        assert res.solution == sol
        seen[status] += 1
    assert min(seen.values()) >= 10, seen


def test_adjugate_times_matrix_is_det_identity():
    rng = random.Random(48)
    for _ in range(30):
        n = rng.randrange(1, 4)
        size = rng.randrange(1, 5)
        if rng.random() < 0.3:
            m = random_low_rank(rng, size, size, rng.randrange(size), n)
        else:
            m = random_matrix(rng, size, size, n)
        adj = LaurentMatrix(n, m.adjugate())
        scaled = LaurentMatrix.identity(size, n) * m.det()
        assert m * adj == scaled
        assert adj * m == scaled


def test_matrix_product_and_vector_helpers():
    a = LaurentMatrix(1, [[parse_poly("x1", 1), parse_poly("1", 1)]])
    b = LaurentMatrix(1, [[parse_poly("x1 - 1", 1)], [parse_poly("2", 1)]])
    prod = a * b
    assert prod.entries[0][0] == parse_poly("x1^2 - x1 + 2", 1)
    v = a.vec_mul([parse_poly("x1", 1)])
    assert v == [parse_poly("x1^2", 1), parse_poly("x1", 1)]
