import random
from math import gcd

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from metafix.endo import Endomorphism
from metafix.fox import j_minus_i, jacobian
from metafix.laurent import LaurentPoly, parse_poly
from metafix.matrices import LaurentMatrix, _det_cofactor, cramer_solve, normalize_vector
from metafix.samples import random_ia, random_poly


def P(text, n=2):
    return parse_poly(text, n)


def zeros(rows, cols, n):
    z = LaurentPoly.zero(n)
    return LaurentMatrix(n, [[z] * cols for _ in range(rows)])


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
    assert jacobian(Endomorphism.identity(n)).minus_identity().det() == 0
    m = LaurentMatrix(2, [[P("x1"), P("1")], [P("1"), P("x1^-1")]])
    assert m.det() == 0


def test_det_of_ia_difference():
    rng = random.Random(41)
    for _ in range(10):
        nn = rng.randrange(2, 5)
        phi = random_ia(rng, nn)
        jmi = jacobian(phi).minus_identity()
        assert jmi.det().is_zero()


def test_det_requires_square():
    with pytest.raises(ValueError):
        zeros(2, 3, 1).det()


def test_minus_identity_changes_the_diagonal_only():
    rng = random.Random(47)
    for size in range(1, 5):
        m = random_matrix(rng, size, size, 2)
        m.rank()  # m's memoized elimination must not carry over
        mi = m.minus_identity()
        assert mi is not m and mi._pivots is None
        for i in range(size):
            for j in range(size):
                if i == j:
                    assert mi.entries[i][j] == m.entries[i][j] - 1
                else:
                    assert mi.entries[i][j] is m.entries[i][j]
    with pytest.raises(ValueError):
        zeros(2, 3, 1).minus_identity()


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
    assert zeros(3, 2, 2).rank() == 0
    jmi = jacobian(displaced_pair).minus_identity()
    assert jmi.rank() == 1
    jmi3 = jacobian(infinite_fix).minus_identity()
    assert jmi3.rank() == 1


def fresh_transpose(m):
    """The transpose as a new matrix, with nothing memoized."""
    return LaurentMatrix(m.nvars, [list(col) for col in zip(*m.entries)])


def test_rank_equals_transpose_rank():
    rng = random.Random(44)
    for _ in range(40):
        n = rng.randrange(1, 3)
        m = random_matrix(rng, rng.randrange(1, 5), rng.randrange(1, 5), n)
        assert m.rank() == fresh_transpose(m).rank()


def test_det_of_an_eliminated_singular_matrix_is_zero_without_expanding(monkeypatch):
    rng = random.Random(50)
    m = random_low_rank(rng, 3, 3, 2, 2)
    assert m.rank() == 2
    monkeypatch.setattr("metafix.matrices._det_cofactor", lambda *a: 1 / 0)
    assert m.det() == 0


def test_det_of_an_eliminated_full_rank_matrix_is_its_signed_last_pivot(monkeypatch):
    rng = random.Random(51)
    m = random_matrix(rng, 3, 3, 2)
    expected = _det_cofactor(m.entries, 2)
    assert not expected.is_zero()
    assert m.rank() == 3
    monkeypatch.setattr("metafix.matrices._det_cofactor", lambda *a: 1 / 0)
    assert m.det() == expected


def test_kernel_examples():
    m = LaurentMatrix(1, [[parse_poly("x1 - 1", 1)], [parse_poly("x1 - 1", 1)]])
    z = m.kernel_vector(1)
    assert z == [LaurentPoly.one(1), LaurentPoly.constant(-1, 1)]

    nonsingular = LaurentMatrix(1, [[parse_poly("x1", 1)]])
    assert nonsingular.left_kernel_basis() == ()


def test_left_kernel_basis_spans_the_left_kernel():
    # one vector per non-pivot row, nonzero exactly there among the
    # non-pivot rows, each annihilating the matrix from the left, all
    # from the matrix's own elimination
    rng = random.Random(51)
    for trial in range(40):
        n = rng.randrange(1, 3)
        rows, cols = rng.randrange(1, 5), rng.randrange(1, 4)
        m = random_low_rank(rng, rows, cols, rng.randrange(min(rows, cols) + 1), n)
        rank, prows, _ = m.echelon_pivots()
        free = [i for i in range(rows) if i not in prows]
        basis = m.left_kernel_basis()
        assert len(basis) == rows - rank
        for i, k in zip(free, basis):
            assert all(p.is_zero() for p in m.vec_mul(k))
            assert [not k[j].is_zero() for j in free] == [j == i for j in free]
        assert list(basis) == [m.kernel_vector(i) for i in free]


def test_kernel_vector_rejects_a_pivot_column():
    m = LaurentMatrix(1, [[parse_poly("x1 - 1", 1)], [parse_poly("x1 - 1", 1)]])
    with pytest.raises(ValueError):
        m.kernel_vector(m.echelon_pivots()[1][0])
    # row indices outside 0 <= row < rows, including a negative one that
    # names the pivot row
    m = LaurentMatrix(2, [[P("x1 - 1")], [P("x2 - 1")], [P("x1*x2")]])
    assert m.echelon_pivots()[1] == (2,)
    for row in (-1, -3, 3):
        with pytest.raises(ValueError):
            m.kernel_vector(row)


def test_kernel_annihilates_random():
    rng = random.Random(45)
    hits = 0
    for _ in range(60):
        n = rng.randrange(1, 3)
        rows = rng.randrange(1, 4)
        cols = rng.randrange(1, 4)
        m = random_matrix(rng, rows, cols, n, terms=1)
        basis = m.left_kernel_basis()
        if not basis:
            assert m.rank() == rows
            continue
        k = basis[0]
        hits += 1
        assert any(not p.is_zero() for p in k)
        assert all(p.is_zero() for p in m.vec_mul(k))
    assert hits > 10


def test_kernel_vector_check_multiplies_only_the_nonzero_entries(monkeypatch):
    # J - I of the identity on 128 generators is zero; each kernel vector
    # is a unit vector, so its check takes one product per column, not
    # one per entry of the matrix
    n = 128
    jmi = j_minus_i(Endomorphism.identity(n))
    triples = []
    original = LaurentPoly.sum_products.__func__

    def counted(cls, nvars, given):
        given = list(given)
        triples.extend(given)
        return original(cls, nvars, given)

    monkeypatch.setattr(LaurentPoly, "sum_products", classmethod(counted))
    k = jmi.kernel_vector(5)
    assert [i for i, p in enumerate(k) if p] == [5]
    assert 0 < len(triples) <= n
    # a zero vector gives a zero row of the full width
    zero = [LaurentPoly.zero(n)] * n
    assert jmi.vec_mul(zero) == zero


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
        cramer_solve(zeros(2, 3, 1), [LaurentPoly.zero(1)] * 2)
    with pytest.raises(ValueError):
        cramer_solve(zeros(2, 2, 1), [LaurentPoly.zero(1)])


def test_cramer_solution_verifies():
    rng = random.Random(46)
    solved = 0
    for _ in range(60):
        n = rng.randrange(1, 3)
        size = rng.randrange(1, 4)
        m = random_matrix(rng, size, size, n, terms=1)
        x = [random_poly(rng, n, terms=1, span=1, coeff=2) for _ in range(size)]
        b = m.vec_mul(x)
        res = cramer_solve(m, b)
        if res.status == "solution":
            solved += 1
            assert m.vec_mul(res.solution) == b
        else:
            assert res.status == "singular"
    assert solved > 10


def cramer_reference(m, b):
    """Cramer's rule as written, for x m = b: the transposed system
    m^T x = b, whose numerator k is the determinant of m^T with column k
    replaced by b."""
    t = [list(col) for col in zip(*m.entries)]
    d = _det_cofactor(t, m.nvars)
    if d.is_zero():
        return "singular", None
    sol = []
    for k in range(m.rows):
        mk = [[b[i] if j == k else e for j, e in enumerate(row)] for i, row in enumerate(t)]
        q = _det_cofactor(mk, m.nvars).divide_exact(d)
        if q is None:
            return "no_solution_in_ring", None
        sol.append(q)
    return "solution", sol


def random_low_rank(rng, rows, cols, rank, n):
    """A rows x cols matrix of rank at most `rank`, as a product of factors."""
    if rank == 0:
        return zeros(rows, cols, n)
    return random_matrix(rng, rows, rank, n, terms=1) * random_matrix(rng, rank, cols, n)


def column_replacement_systems():
    """90 seeded systems (m, b) up to 4 x 4 in 1 to 3 variables: a third
    solvable by construction, a third of rank below their size."""
    rng = random.Random(47)
    for trial in range(90):
        n = rng.randrange(1, 4)
        size = rng.randrange(1, 5)
        kind = trial % 3
        if kind == 2:
            m = random_low_rank(rng, size, size, rng.randrange(size), n)
        else:
            m = random_matrix(rng, size, size, n, terms=rng.randrange(1, 3))
        if kind == 0:
            b = m.vec_mul([random_poly(rng, n, terms=2, span=1, coeff=2) for _ in range(size)])
        else:
            b = [random_poly(rng, n, terms=2, span=1, coeff=2) for _ in range(size)]
        yield m, b


def test_cramer_matches_column_replacement():
    seen = {"solution": 0, "no_solution_in_ring": 0, "singular": 0}
    for m, b in column_replacement_systems():
        status, sol = cramer_reference(m, b)
        res = cramer_solve(m, b)
        assert res.status == status
        assert res.solution == sol
        seen[status] += 1
    assert min(seen.values()) >= 10, seen


def test_cramer_takes_det_from_its_own_minors(monkeypatch):
    # det m is the last of Cramer's signed minors, so no separate
    # determinant is taken: with `det` raising, every answer still
    # matches the column-replacement reference
    systems = list(column_replacement_systems())
    systems += [
        (LaurentMatrix(1, [[parse_poly("x1", 1)]]), [parse_poly("x1^2", 1)]),
        (LaurentMatrix(2, [[P("x2 + x1 - 2")]]), [P("x2 - 1")]),
        (LaurentMatrix(1, [[LaurentPoly.zero(1)]]), [parse_poly("x1", 1)]),
    ]

    def no_det(self):
        raise AssertionError("cramer_solve took a separate determinant")

    monkeypatch.setattr(LaurentMatrix, "det", no_det)
    for m, b in systems:
        assert cramer_solve(m, b) == cramer_reference(m, b)


def test_matrix_product_and_vector_helpers():
    a = LaurentMatrix(1, [[parse_poly("x1", 1), parse_poly("1", 1)]])
    b = LaurentMatrix(1, [[parse_poly("x1 - 1", 1)], [parse_poly("2", 1)]])
    prod = a * b
    assert prod.entries[0][0] == parse_poly("x1^2 - x1 + 2", 1)
    v = a.vec_mul([parse_poly("x1", 1)])
    assert v == [parse_poly("x1^2", 1), parse_poly("x1", 1)]
    with pytest.raises(ValueError):
        a * a
    # each entry of a random product against its sum of entry products
    rng = random.Random(48)
    for rows, inner, cols in ((2, 3, 1), (3, 2, 4), (3, 3, 3)):
        a = random_matrix(rng, rows, inner, 2)
        b = random_matrix(rng, inner, cols, 2)
        prod = a * b
        assert (prod.rows, prod.cols) == (rows, cols)
        for i in range(rows):
            for j in range(cols):
                terms = (a.entries[i][k] * b.entries[k][j] for k in range(inner))
                assert prod.entries[i][j] == sum(terms, LaurentPoly.zero(2))


def ref_normalize_vector(z):
    """`normalize_vector` step by step: divide by the primitive part q of
    the smallest entry's normal form, then by the content, then by the
    lead entry's unit."""
    smallest = min((p for p in z if not p.is_zero()), key=lambda p: len(p.terms))
    q, _ = smallest.normalized()
    c = q.content()
    if c > 1:
        q = q.divide_exact(c)
    reduced = [p.divide_exact(q) for p in z]
    if None not in reduced:
        z = reduced
    g = 0
    for p in z:
        g = gcd(g, p.content())
    if g > 1:
        z = [p.divide_exact(g) for p in z]
    lead = next(p for p in z if not p.is_zero())
    _, unit = lead.normalized()
    return [p * unit ** (-1) for p in z]


def small_polys(n):
    monos = st.tuples(*[st.integers(-3, 3)] * n)
    return st.dictionaries(monos, st.integers(-4, 4).filter(bool), max_size=4).map(
        lambda terms: LaurentPoly(n, terms)
    )


@given(st.integers(1, 3).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(small_polys(n), min_size=1, max_size=4).filter(lambda z: any(z)),
    small_polys(n).filter(bool),
    st.sampled_from([1, -1, 2, -6]),
)))
@example((2, [LaurentPoly.zero(2), parse_poly("-2*x1^-1 + 4*x2", 2)], parse_poly("x1 - x2", 2), -6))
def test_normalize_vector_matches_stepwise_reference(case):
    # zero entries, a common factor h that the smallest entry may or may
    # not carry, contents above 1 and negative leading coefficients
    n, z, h, c = case
    for vector in (z, [p * h * c for p in z]):
        assert normalize_vector(vector) == ref_normalize_vector(vector)
