import random

import pytest

from metafix.endo import Endomorphism, inner_automorphism, parse_endomorphism
from metafix.fixpoint import (
    CosetSolver,
    adjacent_commutators,
    commutator_form_word,
    conjugates_fixed,
    coset_box,
    displacements,
    fixed_point_in_commutator,
    fixed_point_in_coset,
    fixed_point_system,
    is_fixed,
    rank_defect_class,
    search_fixed,
)
from metafix.fox import jacobian, word_coords
from metafix.laurent import LaurentPoly
from metafix.magnus import is_trivial, words_equal
from metafix.matrices import LaurentMatrix
from metafix.samples import (
    random_ia,
    random_poly,
    random_rank_deficient_ia,
)
from metafix.words import Word, parse_word
from tests.conftest import data_path


def test_is_ia_examples(infinite_fix):
    assert Endomorphism.identity(2).is_ia()
    assert infinite_fix.is_ia()
    swap = Endomorphism([Word.generator(1, 2), Word.generator(0, 2)])
    assert not swap.is_ia()


def test_displacements_examples(displaced_pair, infinite_fix):
    n = 3
    assert displacements(Endomorphism.identity(n)) == [
        [LaurentPoly.zero(n)] * n for _ in range(n)
    ]

    v = displacements(infinite_fix)
    assert v[0] == word_coords(parse_word("[x2,x3,x1]", 3))
    assert all(p.is_zero() for p in v[1]) and all(p.is_zero() for p in v[2])

    v2 = displacements(displaced_pair)
    s = word_coords(parse_word("[x1,x2]", 2))
    assert v2[0] == s
    assert v2[1] == [-p for p in s]


def test_displacements_require_ia():
    swap = Endomorphism([Word.generator(1, 2), Word.generator(0, 2)])
    with pytest.raises(ValueError):
        displacements(swap)


def test_system_examples(displaced_pair, infinite_fix):
    n = 3
    b = fixed_point_system(Endomorphism.identity(n))
    assert b.rows == n and b.cols == n - 1 and b.is_zero()

    b15 = fixed_point_system(infinite_fix)
    v1 = word_coords(parse_word("[x2,x3,x1]", 3))
    scale = LaurentPoly.variable(1, 3, -1) - 1
    for j in range(3):
        assert b15.entries[j][0] == scale * v1[j]
        assert b15.entries[j][1].is_zero()
    assert b15.kernel_vector() == [LaurentPoly.zero(3), LaurentPoly.one(3)]

    b32 = fixed_point_system(displaced_pair)
    assert b32.cols == 1 and b32.kernel_vector() is None


def _system_from_displacements(phi):
    # column k of B is (x_{k+1}^-1 - 1) v_k + (1 - x_k^-1) v_{k+1}, with
    # each v_k from its own Fox pass over x_k^-1 * image_k
    n = phi.rank
    v = displacements(phi)
    cols = []
    for k in range(n - 1):
        a = LaurentPoly.variable(k + 1, n, -1) - 1
        b = 1 - LaurentPoly.variable(k, n, -1)
        cols.append([a * v[k][j] + b * v[k + 1][j] for j in range(n)])
    return LaurentMatrix(n, [[cols[k][j] for k in range(n - 1)] for j in range(n)])


def test_system_from_jacobian_matches_displacements():
    # row i of J - I is x_i * v_i, so reading v off J - I gives the same B
    rng = random.Random(53)
    for k in range(30):
        n = 2 + k % 3
        phi = random_rank_deficient_ia(rng, n) if k % 2 else random_ia(rng, n)
        expected = _system_from_displacements(phi)
        jmi = jacobian(phi) - LaurentMatrix.identity(n, n)
        assert fixed_point_system(phi) == expected
        assert fixed_point_system(phi, jmi) == expected


def test_system_matches_oracle_on_random_scalars():
    # the defining property of the system: B z = 0 exactly when the
    # corresponding commutator-form word is fixed
    rng = random.Random(51)
    checked_zero = checked_nonzero = 0
    for _ in range(40):
        n = rng.randrange(2, 5)
        phi = random_ia(rng, n)
        b = fixed_point_system(phi)
        z = [random_poly(rng, n, terms=1, span=1, coeff=1) for _ in range(n - 1)]
        g = commutator_form_word(z)
        in_kernel = all(p.is_zero() for p in b.mul_vector(z))
        assert in_kernel == is_fixed(phi, g)
        if in_kernel:
            checked_zero += 1
        else:
            checked_nonzero += 1
        kz = b.kernel_vector()
        if kz is not None:
            assert is_fixed(phi, commutator_form_word(kz))
            checked_zero += 1
    assert checked_zero > 5 and checked_nonzero > 5


def test_commutator_detector_examples(displaced_pair, infinite_fix):
    inner = inner_automorphism(parse_word("[x1,x2]", 2))
    w = fixed_point_in_commutator(inner)
    assert w is not None and is_fixed(inner, w) and not is_trivial(w)

    assert fixed_point_in_commutator(displaced_pair) is None

    w15 = fixed_point_in_commutator(infinite_fix)
    assert words_equal(w15, parse_word("[x2,x3]", 3))


def test_detected_witnesses_on_rank_deficient_instances():
    rng = random.Random(52)
    for _ in range(10):
        n = 3 + (rng.random() < 0.5)
        phi = random_rank_deficient_ia(rng, n)
        assert rank_defect_class(phi) == "rank<=n-2"
        w = fixed_point_in_commutator(phi)
        assert w is not None and not is_trivial(w) and is_fixed(phi, w)


def test_coset_examples(displaced_pair, infinite_fix):
    g0 = parse_word("x1 x2", 2)
    out = fixed_point_in_coset(inner_automorphism(g0), (1, 1))
    assert out.status == "found" and out.witness == g0

    # w_a = x1 x2 is not fixed here, so the witness comes from the solver
    g1 = parse_word("x2 x1", 2)
    conj = inner_automorphism(g1)
    assert not is_fixed(conj, parse_word("x1 x2", 2))
    out1 = fixed_point_in_coset(conj, (1, 1))
    assert out1.status == "found" and out1.verified and out1.witness == g1

    for a in coset_box(2, 2):
        assert fixed_point_in_coset(displaced_pair, a).status == "none"

    for k in (1, 2, 3, -1, -2, -3):
        assert fixed_point_in_coset(infinite_fix, (k, 0, 0)).status == "none"

    out2 = fixed_point_in_coset(infinite_fix, (0, 1, 0))
    assert out2.status == "found" and out2.witness == parse_word("x2", 3)


def test_coset_rejects_zero_vector(infinite_fix):
    with pytest.raises(ValueError):
        fixed_point_in_coset(infinite_fix, (0, 0, 0))


def test_search_identity_finds_everything():
    rep = search_fixed(Endomorphism.identity(2), 1)
    assert rep.witness_in_commutator is not None
    assert all(c.status == "found" for c in rep.cosets)
    assert rep.det_vanishes and rep.found_any()


def test_search_displaced_pair_finds_nothing(displaced_pair):
    rep = search_fixed(displaced_pair, 3)
    assert rep.rank_defect_class == "rank=n-1"
    assert rep.witness_in_commutator is None
    assert all(c.status == "none" for c in rep.cosets)
    assert not rep.found_any()


def test_search_report_shape(infinite_fix):
    rep = search_fixed(infinite_fix, 1)
    assert rep.rank_defect_class == "rank<=n-2"
    by_a = {c.exponents: c for c in rep.cosets}
    assert by_a[(0, 1, 0)].status == "found"
    assert by_a[(1, 0, 0)].status == "none"
    assert len(rep.cosets) == 3**3 - 1
    for c in rep.cosets:
        if c.status == "found":
            assert c.verified and is_fixed(infinite_fix, c.witness)


def test_witness_soundness_random():
    rng = random.Random(53)
    for _ in range(20):
        n = rng.randrange(2, 4)
        phi = random_ia(rng, n, skip_chance=0.5)
        w = fixed_point_in_commutator(phi)
        if w is not None:
            assert is_fixed(phi, w) and not is_trivial(w)
        solver = CosetSolver(phi)
        a = tuple(rng.randint(-1, 1) for _ in range(n))
        if not any(a):
            continue
        out = solver.solve(a)
        if out.status == "found":
            assert is_fixed(phi, out.witness)
            assert out.witness.exponent_sums() == a


def test_underdetermined_cosets_reported_undecided():
    # three displacements proportional to one commutator: the linear system
    # cannot pin the solution and the solver must not guess
    phi = parse_endomorphism(
        "x1 -> x1 [x1,x2]\nx2 -> x2 [x1,x2]^-1\nx3 -> x3 [x1,x2]"
    )
    solver = CosetSolver(phi)
    assert solver.mode == "rank_deficient"
    assert solver.solve((1, 0, 0)).status == "undecided"

    # the quick probe still recognizes an actual fixed representative
    phi2 = parse_endomorphism(
        "x1 -> x1 [x1,x2]\nx2 -> x2 [x1,x2]\nx3 -> x3 [x1,x2]"
    )
    out = CosetSolver(phi2).solve((1, -1, 0))
    assert out.status == "found" and is_fixed(phi2, out.witness)


def test_unique_route_takes_a_nonsingular_subsystem_with_membership_row():
    # det(J - I) = 0 for IA input, so the square subsystem that the
    # elimination's pivot rows pick must keep the membership row n
    phis = []
    for name in ("displaced_pair", "identity2", "infinite_fix", "rank_deficient"):
        with open(data_path(name + ".endo")) as fh:
            phis.append(parse_endomorphism(fh.read()))
    rng = random.Random(56)
    phis += [random_ia(rng, rng.randrange(2, 4)) for _ in range(20)]
    unique = 0
    for phi in phis:
        solver = CosetSolver(phi)
        if solver.mode != "unique":
            continue
        unique += 1
        assert not solver.sub.det().is_zero()
        assert phi.rank in solver.sub_rows
    assert unique >= 15


def test_normality_examples(displaced_pair, infinite_fix):
    inner = inner_automorphism(parse_word("[x1,x2]", 2))
    assert conjugates_fixed(inner, parse_word("[x1,x2]", 2))
    assert conjugates_fixed(Endomorphism.identity(2), parse_word("[x1,x2]", 2))
    assert conjugates_fixed(infinite_fix, parse_word("[x2,x3]", 3))
    with pytest.raises(ValueError):
        conjugates_fixed(infinite_fix, parse_word("x2", 3))
    with pytest.raises(ValueError):
        conjugates_fixed(displaced_pair, parse_word("[x1,x2]", 2))


def test_verify_examples(displaced_pair, infinite_fix):
    rng = random.Random(54)
    ident = Endomorphism.identity(3)
    for _ in range(5):
        w = parse_word("x1 x2^-1 x3", 3)
        assert is_fixed(ident, w)
    assert is_fixed(infinite_fix, parse_word("x2", 3))
    assert is_fixed(infinite_fix, parse_word("x3", 3))
    assert not is_fixed(displaced_pair, parse_word("[x1,x2]", 2))


def test_adjacent_commutator_basis():
    n = 4
    coms = adjacent_commutators(n)
    assert [str(c) for c in coms] == [
        "x1^-1 x2^-1 x1 x2",
        "x2^-1 x3^-1 x2 x3",
        "x3^-1 x4^-1 x3 x4",
    ]
