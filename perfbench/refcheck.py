"""Reference checker for the program's JSON answers; imports no metafix code.

Every check evaluates at a random point x in (Z / p)^n, p = 2^61 - 1.
Evaluation at a point with nonzero coordinates is a ring map from the
Laurent polynomials over Z, so a polynomial that is nonzero at the point is
nonzero, and a rank seen at the point is a lower bound on the true rank.
The converse claims (this polynomial is zero, this rank is not higher) hold
with probability at least 1 - deg / p per point; an item that fails is
checked again at fresh points before it counts as wrong.

The abelianized Fox derivatives of a word at the point come from one pass
over its letters.  For an IA endomorphism with Jacobian J, the image of a
word w equals w in the free metabelian group exactly when w and its image
have the same coordinates, that is when coords(w) (J - I) = 0.
"""

from __future__ import annotations

import itertools
import re

from inputs import COSET_BOUND, inverse, reduce

P = (1 << 61) - 1
ATTEMPTS = 3


class Point:
    def __init__(self, rng, n):
        self.n = n
        self.x = [rng.randrange(2, P - 1) for _ in range(n)]
        self.inv = [pow(v, -1, P) for v in self.x]
        self._pow = {}

    def power(self, i, e):
        key = (i, e)
        v = self._pow.get(key)
        if v is None:
            v = self._pow[key] = pow(self.x[i], e, P)
        return v


def coords(letters, pt):
    """Abelianized Fox derivatives of a word at the point."""
    d = [0] * pt.n
    m = 1
    x, inv = pt.x, pt.inv
    for a in letters:
        if a > 0:
            d[a - 1] += m
            m = m * x[a - 1] % P
        else:
            m = m * inv[-a - 1] % P
            d[-a - 1] -= m
    return [v % P for v in d]


def exponent_sums(letters, n):
    out = [0] * n
    for a in letters:
        out[abs(a) - 1] += 1 if a > 0 else -1
    return out


_TERM_SPLIT = re.compile(r" ([+-]) ")


def poly_at(text, pt):
    """Value of a polynomial in the program's text syntax at the point."""
    total = 0
    parts = _TERM_SPLIT.split(text.strip())
    signs = ["+"] + parts[1::2]
    for sign, body in zip(signs, parts[0::2]):
        if body.startswith("-"):
            sign = "-" if sign == "+" else "+"
            body = body[1:]
        value = 1
        for factor in body.split("*"):
            if factor.startswith("x"):
                name, _, e = factor.partition("^")
                value = value * pt.power(int(name[1:]) - 1, int(e) if e else 1) % P
            else:
                value = value * int(factor) % P
        total += value if sign == "+" else -value
    return total % P


def word_letters(text):
    """Letters of a word in the program's canonical text ("1" is empty)."""
    out = []
    for tok in text.split():
        if tok == "1":
            continue
        name, _, e = tok.partition("^")
        g = int(name[1:])
        k = int(e) if e else 1
        out.extend([g if k > 0 else -g] * abs(k))
    return tuple(out)


def rank_mod(rows):
    a = [[v % P for v in row] for row in rows]
    rank = 0
    cols = len(a[0]) if a else 0
    for c in range(cols):
        pivot = next((r for r in range(rank, len(a)) if a[r][c]), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        inv = pow(a[rank][c], -1, P)
        for r in range(rank + 1, len(a)):
            f = a[r][c] * inv % P
            if f:
                a[r] = [(v - f * w) % P for v, w in zip(a[r], a[rank])]
        rank += 1
    return rank


def det_mod(rows):
    n = len(rows)
    a = [[v % P for v in row] for row in rows]
    det = 1
    for c in range(n):
        pivot = next((r for r in range(c, n) if a[r][c]), None)
        if pivot is None:
            return 0
        if pivot != c:
            a[c], a[pivot] = a[pivot], a[c]
            det = -det
        det = det * a[c][c] % P
        inv = pow(a[c][c], -1, P)
        for r in range(c + 1, n):
            f = a[r][c] * inv % P
            if f:
                a[r] = [(v - f * w) % P for v, w in zip(a[r], a[c])]
    return det % P


def vec_mat(v, m):
    return [sum(v[i] * m[i][j] for i in range(len(v))) % P for j in range(len(m[0]))]


def minus_identity(m):
    return [[(v - (i == j)) % P for j, v in enumerate(row)] for i, row in enumerate(m)]


def _artin_images(n, k, sign):
    """Images of the generators under sigma_k^sign: sigma_k sends x_k to
    x_k x_{k+1} x_k^-1 and x_{k+1} to x_k."""
    images = {i: (i,) for i in range(1, n + 1)}
    if sign > 0:
        images[k] = (k, k + 1, -k)
        images[k + 1] = (k,)
    else:
        images[k] = (k + 1,)
        images[k + 1] = (-(k + 1), k, k + 1)
    return images


def braid_images(braid, n):
    """Free-group images of the generators under a pure braid word, letters
    (i, j, sign) standing for A[i,j]^sign = (s_{j-1} ... s_{i+1} s_i^2
    s_{i+1}^-1 ... s_{j-1}^-1)^sign, read left to right: each Artin letter
    is applied after the ones before it."""
    images = [(i,) for i in range(1, n + 1)]
    for (i, j, sign) in braid:
        wrap = list(range(j - 1, i, -1))
        seq = [(k, 1) for k in wrap] + [(i, 1), (i, 1)] + [(k, -1) for k in reversed(wrap)]
        if sign < 0:
            seq = [(k, -s) for (k, s) in reversed(seq)]
        for (k, s) in seq:
            sub = _artin_images(n, k, s)
            images = [
                reduce(b for a in y for b in (sub[a] if a > 0 else inverse(sub[-a])))
                for y in images
            ]
    return images


def coset_box(n):
    """Nonzero exponent vectors with entries in [-bound, bound], in the
    order the answers file uses."""
    r = range(-COSET_BOUND, COSET_BOUND + 1)
    return [a for a in itertools.product(r, repeat=n) if any(a)]


class Checker:
    """Checks one item at a time; `answers` maps item index to the
    recorded coset statuses ("F", "N", "U") for this seed, or is None."""

    def __init__(self, workload, rng, answers=None):
        self.workload = workload
        self.rng = rng
        self.answers = answers
        self.unchecked = 0

    def check(self, index, item, report):
        """Problems found with one answer; empty when it is correct."""
        problems = []
        for _ in range(ATTEMPTS):
            unchecked_before = self.unchecked
            problems = []
            try:
                getattr(self, "_" + self.workload.replace("-", "_"))(index, item, report, problems)
            except (KeyError, TypeError, ValueError, IndexError) as e:
                problems.append(f"malformed report: {e!r}")
            if not problems:
                return problems
            self.unchecked = unchecked_before
        return problems

    # -- shared -----------------------------------------------------------

    def _matrix(self, images, report, pt, problems):
        n = len(images)
        jac = [coords(y, pt) for y in images]
        texts = report["jacobian"]
        if len(texts) != n or any(len(row) != n for row in texts):
            problems.append("jacobian has the wrong shape")
            return jac
        if any(poly_at(t, pt) != v for row, jrow in zip(texts, jac) for t, v in zip(row, jrow)):
            problems.append("jacobian entries differ from the Fox derivatives")
        if report["ia"] is not True:
            problems.append("an IA input reported as not IA")
        jmi = minus_identity(jac)
        if report["det_JmI"] != "0" or det_mod(jmi) != 0:
            problems.append("det(J - I) of an IA endomorphism is not 0")
        if report["rank_JmI"] != rank_mod(jmi):
            problems.append("rank(J - I) differs from the rank at a random point")
        return jac

    def _commutator_witness(self, text, jmi, pt, problems):
        """A reported fixed point in the commutator subgroup, or None: then
        [J - I | (x_i - 1)] must have full row rank, which leaves no
        nonzero module vector u with u (J - I) = 0."""
        n = pt.n
        if text is None:
            stacked = [row + [(pt.x[i] - 1) % P] for i, row in enumerate(jmi)]
            if rank_mod(stacked) != n:
                problems.append("no commutator fixed point reported, but one exists")
            return
        w = word_letters(text)
        c = coords(w, pt)
        if any(exponent_sums(w, n)):
            problems.append("commutator witness is outside the commutator subgroup")
        elif not any(c):
            problems.append("commutator witness is trivial")
        elif any(vec_mat(c, jmi)):
            problems.append("commutator witness is not fixed")

    # -- workloads ----------------------------------------------------------

    def _braid_sweep(self, index, item, report, problems):
        n = int(item["argv"][1])
        pt = Point(self.rng, n)
        images = braid_images(item["braid"], n)
        got = report["braid"]
        if [word_letters(t) for t in got["automorphism"]] != images:
            problems.append("braid automorphism differs")
        jac = self._matrix(images, report, pt, problems)
        jmi = minus_identity(jac)
        if [[poly_at(t, pt) for t in row] for row in got["gassner_unreduced"]] != jac:
            problems.append("unreduced Gassner matrix differs from the Jacobian")
        # Reduced matrix: row i, column j < n-1 is J_ij - (x_i - 1) q_j with
        # q_j = J_{n-1,j} / (x_n - 1).
        denom = pow(pt.x[n - 1] - 1, -1, P)
        q = [jac[n - 1][j] * denom % P for j in range(n - 1)]
        reduced = [
            [(jac[i][j] - (pt.x[i] - 1) * q[j]) % P for j in range(n - 1)]
            for i in range(n - 1)
        ]
        if [[poly_at(t, pt) for t in row] for row in got["gassner_reduced"]] != reduced:
            problems.append("reduced Gassner matrix differs")
        vanishes = det_mod(minus_identity(reduced)) == 0
        if got["alexander_vanishes"] != vanishes:
            problems.append("Alexander vanishing verdict differs")
        if vanishes != (rank_mod(jmi) <= n - 2):
            problems.append("Alexander vanishing disagrees with rank(J - I)")
        self._commutator_witness(got["commutator_witness"], jmi, pt, problems)
        if got["bridge_consistent"] is not True or got["findings"]:
            problems.append("bridge reported inconsistent")

    def _coset_box(self, index, item, report, problems):
        images = [tuple(y) for y in item["images"]]
        n = len(images)
        pt = Point(self.rng, n)
        jac = self._matrix(images, report, pt, problems)
        jmi = minus_identity(jac)
        fix = report["fix"]
        rank = rank_mod(jmi)
        if fix["rank_defect_class"] != ("rank<=n-2" if rank <= n - 2 else "rank=n-1"):
            problems.append("rank-defect class differs")
        self._commutator_witness(fix["witness_in_commutator"], jmi, pt, problems)
        if fix["witness_in_commutator"] is not None and fix["witness_verified"] is not True:
            problems.append("commutator witness not marked verified")
        box = coset_box(n)
        by_a = {tuple(c["a"]): c for c in fix["cosets"]}
        if len(by_a) != len(fix["cosets"]) or set(by_a) != set(box):
            problems.append("coset list is not the box")
            return
        recorded = None if self.answers is None else self.answers.get(index)
        for k, a in enumerate(box):
            c = by_a[a]
            status = c["status"]
            if status == "found":
                w = word_letters(c["witness"])
                if c["verified"] is not True:
                    problems.append(f"coset {a}: witness not marked verified")
                elif exponent_sums(w, n) != list(a):
                    problems.append(f"coset {a}: witness lies in another coset")
                elif any(vec_mat(coords(w, pt), jmi)):
                    problems.append(f"coset {a}: witness is not fixed")
            elif status in ("none", "undecided"):
                wa = tuple(b for i, e in enumerate(a) for b in [(i + 1) * (1 if e > 0 else -1)] * abs(e))
                if status == "none" and not any(vec_mat(coords(wa, pt), jmi)):
                    problems.append(f"coset {a}: 'none' but x^a itself is fixed")
                if recorded is None:
                    self.unchecked += 1
                    continue
                # A recorded "F" or "N" must stay; "U" may become anything.
                want = recorded[k]
                if want != "U" and want != status[0].upper():
                    problems.append(f"coset {a}: {status!r}, recorded {want!r}")
            else:
                problems.append(f"coset {a}: unknown status {status!r}")

    def _verify_long(self, index, item, report, problems):
        images = [tuple(y) for y in item["images"]]
        n = len(images)
        pt = Point(self.rng, n)
        w = tuple(item["word"])
        if word_letters(report["input"]["word"]) != w:
            problems.append("parsed word differs")
        jmi = minus_identity([coords(y, pt) for y in images])
        c = coords(w, pt)
        diff = vec_mat(c, jmi)
        fixed = not any(diff)
        if report["fixed"] is not fixed:
            problems.append("fixed verdict differs")
        if item["fixed_by_construction"] and report["fixed"] is not True:
            problems.append("a word in fixed generators reported not fixed")
        trivial = not any(exponent_sums(w, n)) and not any(c)
        if report["trivial_word"] is not trivial:
            problems.append("trivial-word verdict differs")
        got = report["difference_coords"]
        if len(got) != n or [poly_at(t, pt) for t in got] != diff:
            problems.append("difference coordinates differ")


def coset_statuses(report):
    """The coset statuses of an analyze report as one letter each, in box
    order; this is what the answers file records."""
    fix = report["fix"]
    n = len(report["jacobian"])
    by_a = {tuple(c["a"]): c["status"] for c in fix["cosets"]}
    return "".join(by_a[a][0].upper() for a in coset_box(n))


def compress(statuses):
    """Run-length form of a status string: "UUUN" -> "U3N"."""
    return "".join(
        f"{k}{n}" if n > 1 else k
        for k, n in ((k, len(list(g))) for k, g in itertools.groupby(statuses))
    )


def expand(text):
    return "".join(k * int(n or 1) for k, n in re.findall(r"([FNU])(\d*)", text))


def decided(workload, report):
    """Questions a correct answer decides: coset queries answered `found` or
    `none` on coset-box; the commutator question on braid-sweep and the
    fixed verdict on verify-long, which are always decided."""
    if workload == "coset-box":
        return sum(c["status"] != "undecided" for c in report["fix"]["cosets"])
    return 1
