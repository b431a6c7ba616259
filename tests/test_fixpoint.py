import itertools
import random

import pytest

from metafix import fixpoint
from metafix.braid import BraidWord, braid_automorphism
from metafix.endo import Endomorphism, inner_automorphism, parse_endomorphism
from metafix.fixpoint import (
    SCREEN_PRIME,
    CosetOutcome,
    CosetSolver,
    InternalCheckError,
    commutator_fixed_coords,
    coset_box,
    fixed_point_in_commutator,
    fixed_point_in_coset,
    is_fixed,
    left_kernel,
    rank_defect_class,
    screen_point,
    search_fixed,
    width_directions,
)
from metafix.fox import jacobian, membership, word_coords
from metafix.laurent import LaurentPoly, word_pass_mod
from metafix.magnus import (
    MagnusElement,
    coset_word,
    is_trivial,
    module_power_word,
    realize_coords,
)
from metafix.matrices import CramerResult, LaurentMatrix, _signed_minors, cramer_solve, dot
from metafix.samples import (
    random_ia,
    random_poly,
    random_rank_deficient_ia,
    random_word,
)
from metafix.words import Word, parse_word
from tests.conftest import data_path
from tests.test_acceptance import _is_unit_multiple, conjugates_fixed, found_any
from tests.test_laurent import ref_width


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


def transposed(m):
    return LaurentMatrix(m.nvars, [list(col) for col in zip(*m.entries)])


def cut(m, rows, cols):
    return LaurentMatrix(m.nvars, [[m.entries[i][j] for j in cols] for i in rows])


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
    basis = transposed(fixed_point_system(phi)).left_kernel_basis()
    return commutator_form_word(basis[0]) if basis else None


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
    assert b.rows == n and b.cols == n - 1
    assert not any(e for row in b.entries for e in row)

    b15 = fixed_point_system(infinite_fix)
    v1 = word_coords(parse_word("[x2,x3,x1]", 3))
    scale = LaurentPoly.variable(1, 3, -1) - 1
    for j in range(3):
        assert b15.entries[j][0] == scale * v1[j]
        assert b15.entries[j][1].is_zero()
    assert transposed(b15).left_kernel_basis() == ([LaurentPoly.zero(3), LaurentPoly.one(3)],)

    b32 = fixed_point_system(displaced_pair)
    assert b32.cols == 1 and transposed(b32).left_kernel_basis() == ()


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
        in_kernel = all(p.is_zero() for p in transposed(b).vec_mul(z))
        assert in_kernel == is_fixed(phi, g)
        if in_kernel:
            checked_zero += 1
        else:
            checked_nonzero += 1
        basis = transposed(b).left_kernel_basis()
        if basis:
            assert is_fixed(phi, commutator_form_word(basis[0]))
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
    assert found_any(rep)


def test_search_displaced_pair_finds_nothing(displaced_pair):
    rep = search_fixed(displaced_pair, 3)
    assert rep.rank_defect_class == "rank=n-1"
    assert rep.witness_in_commutator is None
    assert all(c.status == "none" for c in rep.cosets)
    assert not found_any(rep)


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


def test_a_second_search_reuses_the_elimination_of_j_minus_i(monkeypatch):
    # J - I is kept on phi and its elimination on J - I, so two searches
    # on one phi run the Bareiss loop over J - I once
    eliminated = []
    elimination = LaurentMatrix._elimination

    def recording(m):
        if m._pivots is None:
            eliminated.append(m)
        return elimination(m)

    monkeypatch.setattr(LaurentMatrix, "_elimination", recording)
    for phi in _fixtures():
        n = phi.rank
        jmi = jacobian(phi) - LaurentMatrix.identity(n, n)
        eliminated.clear()
        first = search_fixed(phi, 1)
        second = search_fixed(phi, 1)
        assert sum(m == jmi for m in eliminated) == 1
        assert first == second


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
    rule on the pivot rows of one elimination, a column system kept
    transposed for `cramer_solve`'s x m = b; "rank_deficient" tests the
    right-hand side against the column-space forms of the stacked
    matrix."""

    def __init__(self, phi):
        n = self.n = phi.rank
        self.phi = phi
        jmi = jacobian(phi) - LaurentMatrix.identity(n, n)
        self.G = transposed(jmi)
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
            self.sub = transposed(cut(self.stacked, rows, range(n)))
            return "unique", rows
        p = self.pivot_cols
        if not p:
            return "decoupled", []
        rank, prows, _ = cut(self.G, range(n), p).echelon_pivots()
        if rank == len(p):
            rows = sorted(prows)
            self.sub = transposed(cut(self.G, rows, p))
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
        if any((lhs - r) for lhs, r in zip(transposed(check).vec_mul(u), tau)):
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


def test_decoupled_route_is_its_closed_form(monkeypatch, infinite_fix):
    # on "decoupled" the ideal is (x_i - 1 : x_i fixed), so a coset holds a
    # fixed point iff a vanishes on every moved generator, and then w_a is
    # one.  Every Cramer solve has a solution, u0 = -x^-a coords(w_a) on
    # the moved rows: by the chain rule the right-hand side is u0 (J - I)
    solves = []

    def recording_cramer(m, b):
        res = cramer_solve(m, b)
        solves.append(res)
        return res

    monkeypatch.setattr(fixpoint, "cramer_solve", recording_cramer)
    rng = random.Random(58)
    phis = [infinite_fix] + [random_ia(rng, 2 + k % 3, skip_chance=0.5) for k in range(120)]
    endos = cosets = cramer_calls = 0
    for phi in phis:
        solver = CosetSolver(phi)
        if solver.mode != "decoupled" or not solver.moved_rows:
            continue
        endos += 1
        n = phi.rank
        for a in coset_box(n, 1 if n == 4 else 2):
            solves.clear()
            got = solver.solve(a)
            wa = coset_word(a, n)
            if any(a[i] for i in solver.moved_rows):
                assert got.status == "none", (phi, a)
            else:
                assert got.status == "found" and got.witness.letters == wa.letters, (phi, a)
            shift = LaurentPoly.monomial(tuple(-e for e in a), n)
            u0 = [-(shift * c) for c in word_coords(wa)]
            for res in solves:
                assert res.status == "solution", (phi, a)
                assert list(res.solution) == [u0[i] for i in solver.moved_rows], (phi, a)
            cosets += 1
            cramer_calls += len(solves)
    assert endos >= 30 and cramer_calls >= cosets // 2, (endos, cosets, cramer_calls)


@pytest.mark.parametrize("answer", ["no_solution_in_ring", "perturbed"])
def test_a_failed_decoupled_solve_is_an_internal_error(monkeypatch, infinite_fix, answer):
    # Cramer on the moved rows always returns u0, which passes the check
    # u (J - I) = tau; any other answer is a bug, never a "none"
    def broken_cramer(m, b):
        if answer == "no_solution_in_ring":
            return CramerResult("no_solution_in_ring")
        return CramerResult("solution", [x + 1 for x in cramer_solve(m, b).solution])

    monkeypatch.setattr(fixpoint, "cramer_solve", broken_cramer)
    solver = CosetSolver(infinite_fix)
    assert solver.mode == "decoupled" and solver.moved_rows
    with pytest.raises(InternalCheckError):
        solver.solve((1, 0, 0))


def test_decoupled_cosets_moved_at_the_point_never_apply_phi(monkeypatch, infinite_fix):
    # the chain rule gives Cramer its right-hand side, so a coset whose w_a
    # is moved at the screen point builds no image word; only the oracle
    # check of an unmoved w_a applies phi, once
    solver = CosetSolver(infinite_fix)
    assert solver.mode == "decoupled"
    calls = []
    apply = Endomorphism.apply
    monkeypatch.setattr(Endomorphism, "apply", lambda self, w: calls.append(w) or apply(self, w))
    statuses = {"found": 0, "none": 0}
    for a in coset_box(3, 2):
        calls.clear()
        out = solver.solve(a)
        statuses[out.status] += 1
        if out.status == "none":
            assert calls == [], a
        else:
            assert [w.letters for w in calls] == [out.witness.letters], a
    assert statuses == {"found": 24, "none": 100}


def test_every_found_off_the_unique_route_passes_is_fixed(monkeypatch):
    checked = []

    def recording(phi, g):
        ok = is_fixed(phi, g)
        checked.append((g.letters, ok))
        return ok

    monkeypatch.setattr(fixpoint, "is_fixed", recording)
    rng = random.Random(62)
    phis = _fixtures() + [
        random_rank_deficient_ia(rng, 2 + k % 3) if k % 2 else random_ia(rng, 2 + k % 3, skip_chance=0.5)
        for k in range(40)
    ]
    found = {"decoupled": 0, "rank_deficient": 0}
    for phi in phis:
        solver = CosetSolver(phi)
        if solver.mode == "unique":
            continue
        for a in coset_box(phi.rank, 1):
            checked.clear()
            out = solver.solve(a)
            if out.status == "found":
                assert (out.witness.letters, True) in checked, (phi, a)
                found[solver.mode] += 1
    assert min(found.values()) >= 10, found


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


def at_point(p, point):
    """An exact polynomial reduced at the point, modulo SCREEN_PRIME."""
    total = 0
    for m, c in p.exponent_terms().items():
        v = c
        for x, e in zip(point, m):
            v = v * pow(x, e, SCREEN_PRIME) % SCREEN_PRIME
        total += v
    return total % SCREEN_PRIME


def test_screen_point_is_a_unit_off_one():
    for n in range(1, 9):
        point = screen_point(n)
        assert len(point) == n
        assert all(2 <= x < SCREEN_PRIME for x in point)


def test_evaluated_fox_pass_is_the_exact_pass_at_the_point_and_keeps_the_chain_rule():
    rng = random.Random(60)
    moved_words = screened_solvers = 0
    for k in range(40):
        n = 2 + k % 3
        point = screen_point(n)
        phi = random_rank_deficient_ia(rng, n) if k % 2 else random_ia(rng, n)
        w = random_word(rng, n, rng.randrange(30))
        for word in (w, phi.apply(w)):
            want = [at_point(c, point) for c in word_coords(word)]
            assert word_pass_mod(word.letters, point, SCREEN_PRIME) == want
        # coords(phi(w) w^-1) = coords(w) (J - I), read at the point
        jmi = jacobian(phi) - LaurentMatrix.identity(n, n)
        jmi_at = [[at_point(e, point) for e in row] for row in jmi.entries]
        c = word_pass_mod(w.letters, point, SCREEN_PRIME)
        moved = [sum(ci * row[j] for ci, row in zip(c, jmi_at)) % SCREEN_PRIME for j in range(n)]
        d = phi.apply(w) * w.inverse()
        assert word_pass_mod(d.letters, point, SCREEN_PRIME) == moved
        moved_words += any(moved)
        solver = CosetSolver(phi)
        if solver.columns_at_point is not None:
            screened_solvers += 1
            assert [list(col) for col in solver.columns_at_point] == [list(r) for r in zip(*jmi_at)]
    assert moved_words >= 20 and screened_solvers >= 5, (moved_words, screened_solvers)


def test_screens_skip_the_division_and_the_image(monkeypatch, displaced_pair):
    # "unique": a coset with |w . a| below a width gap is "none" with no
    # exact division; the gaps here are read off f and k independently
    def width(p, w):
        return ref_width(p.exponent_terms(), w)

    divisions = []
    divide_exact = LaurentPoly.divide_exact
    monkeypatch.setattr(
        LaurentPoly, "divide_exact", lambda p, q: divisions.append(p) or divide_exact(p, q)
    )
    rng = random.Random(61)
    phis = [displaced_pair] + [random_ia(rng, 2 + k % 2) for k in range(12)]
    screened = divided = 0
    for phi in phis:
        solver = CosetSolver(phi)
        if solver.mode != "unique":
            continue
        gaps = [
            (w, width(solver.f, w) - min(width(k, w) for k in solver.kernel if k))
            for w in width_directions(phi.rank)
        ]
        for a in coset_box(phi.rank, 2):
            divisions.clear()
            status = solver.solve(a).status
            if any(abs(sum(x * y for x, y in zip(w, a))) < gap for w, gap in gaps):
                screened += 1
                assert status == "none" and divisions == [], (phi, a)
            else:
                divided += 1
                assert divisions, (phi, a)
    assert screened > 500 and divided >= 20, (screened, divided)

    # "rank_deficient": a coset whose coords(w_a) (J - I) is nonzero at
    # the point is "undecided" without the image of w_a
    with open(data_path("rank_deficient.endo")) as fh:
        phi = parse_endomorphism(fh.read())
    solver = CosetSolver(phi)
    assert solver.mode == "rank_deficient" and not solver.ideal_is_zero
    images = []
    apply = Endomorphism.apply
    monkeypatch.setattr(Endomorphism, "apply", lambda self, w: images.append(w) or apply(self, w))
    statuses = {"found": 0, "undecided": 0}
    for a in coset_box(3, 2):
        images.clear()
        status = solver.solve(a).status
        statuses[status] += 1
        assert (images == []) == (status == "undecided"), a
    assert statuses["found"] >= 1 and statuses["undecided"] >= 100, statuses


def test_zero_kernel_vector_is_an_internal_error(monkeypatch, displaced_pair, infinite_fix):
    # every left kernel basis vector of J - I is nonzero at its own
    # non-pivot row; a zero one would decide routes and witnesses wrongly
    monkeypatch.setattr(
        LaurentMatrix,
        "kernel_vector",
        lambda self, row: [LaurentPoly.zero(self.nvars)] * self.rows,
    )
    for phi in (displaced_pair, infinite_fix):
        with pytest.raises(InternalCheckError):
            CosetSolver(phi)
        with pytest.raises(InternalCheckError):
            fixed_point_in_commutator(phi)


def test_normality_examples(infinite_fix):
    inner = inner_automorphism(parse_word("[x1,x2]", 2))
    assert conjugates_fixed(inner, parse_word("[x1,x2]", 2))
    assert conjugates_fixed(Endomorphism.identity(2), parse_word("[x1,x2]", 2))
    assert conjugates_fixed(infinite_fix, parse_word("[x2,x3]", 3))


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
        assert not membership(word_coords(w))
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
        assert not membership(u) and any(u)
        assert all(p.is_zero() for p in jmi.vec_mul(u))
        w = fixed_point_in_commutator(phi)
        assert word_coords(w) == u and is_fixed(phi, w)
    assert combined >= 20, combined
