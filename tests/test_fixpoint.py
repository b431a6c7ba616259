import itertools
import random

import pytest

from metafix.braid import BraidWord, braid_automorphism
from metafix.endo import Endomorphism, inner_automorphism, parse_endomorphism
from metafix.fixpoint import (
    CosetOutcome,
    CosetSolver,
    InternalCheckError,
    commutator_fixed_coords,
    conjugates_fixed,
    coset_box,
    fixed_point_in_commutator,
    fixed_point_in_coset,
    is_fixed,
    left_kernel,
    rank_defect_class,
    search_fixed,
)
from metafix.fox import jacobian, word_coords
from metafix.laurent import LaurentPoly
from metafix.magnus import (
    MagnusElement,
    coset_word,
    is_module_vector,
    is_trivial,
    module_power_word,
    realize_coords,
)
from metafix.matrices import LaurentMatrix, _signed_minors, cramer_solve, dot
from metafix.samples import (
    random_ia,
    random_poly,
    random_rank_deficient_ia,
)
from metafix.words import Word, parse_word
from tests.conftest import data_path
from tests.test_acceptance import _is_unit_multiple


# The commutator-subgroup detector before it read the kernel of J - I: a
# candidate [x1,x2]^z1 ... [x_{n-1},x_n]^z_{n-1} with ring scalars z_k,
# whose fixed-point equation is the n x (n-1) system B z = 0.  Kept as the
# reference of the differential tests below.


def displacements(phi):
    """Coordinate vectors of the words s_i = x_i^-1 * image_i, each by its
    own Fox pass."""
    if not phi.is_ia():
        raise ValueError("endomorphism is not IA")
    n = phi.rank
    return [word_coords(Word.generator(i, n).inverse() * y) for i, y in enumerate(phi.images)]


def fixed_point_system(phi, jmi=None):
    """B, whose column k is (x_{k+1}^-1 - 1) v_k + (1 - x_k^-1) v_{k+1}
    with v_k the displacement coordinates; row i of J - I is x_i * v_i,
    so B is read off J - I, which `jmi` may pass."""
    if not phi.is_ia():
        raise ValueError("endomorphism is not IA")
    n = phi.rank
    if jmi is None:
        jmi = jacobian(phi) - LaurentMatrix.identity(n, n)
    e = jmi.entries
    cols = []
    for k in range(n - 1):
        xk, xk1 = LaurentPoly.variable(k, n, -1), LaurentPoly.variable(k + 1, n, -1)
        a = (xk1 - 1) * xk
        b = (1 - xk) * xk1
        cols.append([a * e[k][j] + b * e[k + 1][j] for j in range(n)])
    return LaurentMatrix(n, [[cols[k][j] for k in range(n - 1)] for j in range(n)])


def adjacent_commutators(n):
    """The words [x_k, x_{k+1}], k = 1..n-1."""
    return [Word.generator(k, n).commutator(Word.generator(k + 1, n)) for k in range(n - 1)]


def commutator_form_word(z):
    """The word [x1,x2]^z1 ... [x_{n-1},x_n]^z_{n-1} for ring scalars z."""
    n = len(z) + 1
    out = Word.identity(n)
    for k, base in enumerate(adjacent_commutators(n)):
        if not z[k].is_zero():
            out = out * module_power_word(base, z[k])
    return out


def reference_commutator_witness(phi):
    z = fixed_point_system(phi).kernel_vector()
    return None if z is None else commutator_form_word(z)


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

    # a unit multiple of coords([x2,x3]), fixed by the oracle
    w15 = fixed_point_in_commutator(infinite_fix)
    assert is_fixed(infinite_fix, w15)
    assert _is_unit_multiple(word_coords(w15), word_coords(parse_word("[x2,x3]", 3)))


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
    assert out1.status == "found" and out1.witness == g1
    assert CosetSolver(conj).mode == "unique"

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
    assert rep.found_any()


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
            assert is_fixed(infinite_fix, c.witness)


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


def _column_space_forms(m):
    # Kronecker's bordered-minor criterion: with pivot rows R and columns
    # C, b lies in the column space over the fraction field iff
    # det [[m[R,C], b_R], [m[i,C], b_i]] vanishes for every non-pivot row i
    _, prows, pcols = m.echelon_pivots()
    prows, pcols = sorted(prows), sorted(pcols)
    block = [[m.entries[i][j] for j in pcols] for i in prows]
    forms = []
    for i in range(m.rows):
        if i in prows:
            continue
        c = _signed_minors(block + [[m.entries[i][j] for j in pcols]], m.nvars)
        form = [LaurentPoly.zero(m.nvars)] * m.rows
        for row, e in zip(prows, c):
            form[row] = e
        form[i] = c[-1]
        forms.append(form)
    return forms


class ReferenceCosetSolver:
    """The coset solver before the "unique" route divided by f: every
    query applies phi to w_a, and the square routes solve by Cramer's
    rule on the pivot rows of one elimination; "rank_deficient" tests the
    right-hand side against the column-space forms of the stacked
    matrix."""

    def __init__(self, phi):
        n = self.n = phi.rank
        self.phi = phi
        jmi = jacobian(phi) - LaurentMatrix.identity(n, n)
        self.G = jmi.transpose()
        self.membership = [LaurentPoly.variable(i, n) - 1 for i in range(n)]
        self.stacked = LaurentMatrix(n, self.G.entries + [self.membership])
        self.free_cols = [
            i for i in range(n) if all(self.G.entries[j][i].is_zero() for j in range(n))
        ]
        self.pivot_cols = [i for i in range(n) if i not in self.free_cols]
        self.sub = self.forms = None
        self.mode, self.sub_rows = self._choose_route()
        self.ideal_is_zero = False
        if self.mode == "rank_deficient":
            self.forms = _column_space_forms(self.stacked)
            self.ideal_is_zero = self.stacked.rank() == self.G.rank()

    def _choose_route(self):
        n = self.n
        if self.stacked.rank() == n:
            rows = sorted(self.stacked.echelon_pivots()[1])
            self.sub = self.stacked.submatrix(rows, list(range(n)))
            return "unique", rows
        p = self.pivot_cols
        if not p:
            return "decoupled", []
        rank, prows, _ = self.G.submatrix(list(range(n)), p).echelon_pivots()
        if rank == len(p):
            rows = sorted(prows)
            self.sub = self.G.submatrix(rows, p)
            return "decoupled", rows
        return "rank_deficient", None

    def solve(self, a):
        n = self.n
        wa = coset_word(a, n)
        d = MagnusElement.of_word(self.phi.apply(wa) * wa.inverse())
        if d.is_identity():
            return CosetOutcome(a, "found", wa)
        shift = LaurentPoly.monomial(tuple(-e for e in a), n)
        tau = [-(shift * c) for c in d.coords] + [LaurentPoly.zero(n)]
        if self.mode == "rank_deficient":
            for form in self.forms:
                if not dot(form, tau, n).is_zero():
                    return CosetOutcome(a, "none")
            return CosetOutcome(a, "undecided")
        unique = self.mode == "unique"
        u = [LaurentPoly.zero(n)] * n
        if self.sub is not None:
            res = cramer_solve(self.sub, [tau[r] for r in self.sub_rows])
            assert res.status != "singular"
            if res.status == "no_solution_in_ring":
                return CosetOutcome(a, "none")
            for col, val in zip(range(n) if unique else self.pivot_cols, res.solution):
                u[col] = val
        check = self.stacked if unique else self.G
        if any((lhs - r) for lhs, r in zip(check.mul_vector(u), tau)):
            return CosetOutcome(a, "none")
        if not unique:
            residual = LaurentPoly.zero(n)
            for i in self.pivot_cols:
                residual = residual - u[i] * self.membership[i]
            for i in self.free_cols:
                low = residual.subs_one(i)
                diff = residual - low
                if not diff.is_zero():
                    u[i] = diff.divide_exact(LaurentPoly.variable(i, n) - 1)
                residual = low
            if not residual.is_zero():
                return CosetOutcome(a, "none")
        g = wa * realize_coords(u)
        assert is_fixed(self.phi, g)
        return CosetOutcome(a, "found", g)


def _fixtures():
    phis = []
    for name in ("displaced_pair", "identity2", "infinite_fix", "rank_deficient"):
        with open(data_path(name + ".endo")) as fh:
            phis.append(parse_endomorphism(fh.read()))
    return phis


def test_coset_solver_matches_reference():
    # statuses and witness words agree with the solver
    # that runs phi, a Fox pass and a Cramer solve on every coset
    rng = random.Random(57)
    phis = _fixtures() + [
        inner_automorphism(parse_word(w, n))
        for w, n in (("x2 x1", 2), ("[x1,x2]", 3), ("[x1,x2] [x2,x3]", 3))
    ]
    for k in range(60):
        n = 2 + k % 3
        phis.append(random_rank_deficient_ia(rng, n) if k % 3 == 2 else random_ia(rng, n))
    routes = {"unique": 0, "decoupled": 0, "rank_deficient": 0}
    statuses = {"found": 0, "none": 0, "undecided": 0}
    zero_ideals = 0
    for phi in phis:
        solver, ref = CosetSolver(phi), ReferenceCosetSolver(phi)
        assert (solver.mode, solver.ideal_is_zero) == (ref.mode, ref.ideal_is_zero)
        routes[solver.mode] += 1
        zero_ideals += solver.ideal_is_zero
        for a in coset_box(phi.rank, 1 if phi.rank == 4 else 2):
            got, want = solver.solve(a), ref.solve(a)
            assert got.status == want.status, (phi, a)
            assert (got.witness and got.witness.letters) == (want.witness and want.witness.letters)
            statuses[got.status] += 1
    assert min(routes.values()) >= 4, routes
    assert min(statuses.values()) >= 20, statuses
    assert 0 < zero_ideals < routes["rank_deficient"], zero_ideals


@pytest.mark.parametrize(
    "conjugator, n",
    [("[x1,x2]", 3), ("[x1,x2] [x2,x3]", 3), ("[x1,x2]", 4)],
)
def test_zero_ideal_decides_every_coset_without_applying_phi(monkeypatch, conjugator, n):
    # conjugation by a commutator fixes no element outside the commutator
    # subgroup; the stacked matrix and J - I have equal rank, so the
    # ideal is zero and no coset query needs the image of w_a
    phi = inner_automorphism(parse_word(conjugator, n))
    solver = CosetSolver(phi)
    assert solver.mode == "rank_deficient" and solver.ideal_is_zero
    calls = []
    apply = Endomorphism.apply
    monkeypatch.setattr(Endomorphism, "apply", lambda self, w: calls.append(w) or apply(self, w))
    box = coset_box(n, 1)
    assert [solver.solve(a).status for a in box] == ["none"] * len(box)
    assert calls == []


def test_zero_kernel_vector_is_an_internal_error(monkeypatch, displaced_pair, infinite_fix):
    # every kernel basis vector of (J - I)^T is nonzero at its own
    # non-pivot column; a zero one would decide routes and witnesses wrongly
    monkeypatch.setattr(
        LaurentMatrix,
        "kernel_vector",
        lambda self, free=None: [LaurentPoly.zero(self.nvars)] * self.cols,
    )
    for phi in (displaced_pair, infinite_fix):
        with pytest.raises(InternalCheckError):
            CosetSolver(phi)
        with pytest.raises(InternalCheckError):
            fixed_point_in_commutator(phi)


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


def _all_pure_braids_on_three_strands():
    # every word of length <= 3 in A[1,2], A[1,3], A[2,3] and inverses: 259
    gens = [(i, j, s) for (i, j) in ((1, 2), (1, 3), (2, 3)) for s in (1, -1)]
    words = [letters for k in range(4) for letters in itertools.product(gens, repeat=k)]
    return [braid_automorphism(BraidWord(3, letters)) for letters in words]


def test_commutator_detector_matches_the_adjacent_commutator_system():
    # a witness exists exactly when the reference's B has a kernel, and
    # every new witness is a nontrivial fixed point in the commutator subgroup
    rng = random.Random(58)
    phis = _fixtures() + _all_pure_braids_on_three_strands()
    for k in range(60):
        n = 2 + k % 3
        phis.append(random_rank_deficient_ia(rng, n) if k % 2 else random_ia(rng, n))
    assert len(phis) == 4 + 259 + 60
    found = 0
    for phi in phis:
        w = fixed_point_in_commutator(phi)
        assert (w is None) == (reference_commutator_witness(phi) is None), phi
        if w is None:
            continue
        found += 1
        assert not is_trivial(w) and is_fixed(phi, w)
        assert is_module_vector(word_coords(w))
    assert 50 < found < len(phis) - 50, found


def test_combined_witness_when_no_basis_vector_has_zero_image():
    # two kernel vectors, neither in the membership kernel: the witness is
    # f_2 k_1 - f_1 k_2, which the oracle accepts
    rng = random.Random(59)
    combined = 0
    for k in range(30):
        phi = random_rank_deficient_ia(rng, 3 + k % 2)
        n = phi.rank
        jmi = jacobian(phi) - LaurentMatrix.identity(n, n)
        basis, fs = left_kernel(jmi)
        if len(basis) < 2 or not all(fs):
            continue
        combined += 1
        u = commutator_fixed_coords(basis, fs)
        assert is_module_vector(u) and any(u)
        assert all(p.is_zero() for p in jmi.transpose().mul_vector(u))
        w = fixed_point_in_commutator(phi, jmi=jmi)
        assert word_coords(w) == u and is_fixed(phi, w)
    assert combined >= 20, combined
