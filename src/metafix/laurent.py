"""Exact arithmetic in rings of integer Laurent polynomials.

A polynomial in n commuting variables x1..xn is a finite map from
monomials x^e (exponents possibly negative) to nonzero integer
coefficients; the zero polynomial is the empty map.  Coefficients are
arbitrary-precision integers throughout, so every identity tested by this
package is exact.

Conventions fixed here and relied on elsewhere:

* monomial order: graded lexicographic with x1 > x2 > ... > xn;
* units of the ring are the signed monomials +-x^m; `normalized` factors
  any nonzero polynomial as unit * poly with all minimum exponents 0 and a
  positive leading coefficient, the unit carrying the sign;
* divisibility by a one-term divisor is decided on the coefficients;
  any other divisor takes single-divisor long division of the
  dividend's own terms, with no normal form of the dividend: integer
  quotient steps are forced whenever the quotient exists in the ring,
  and a quotient monomial below the dividend's minimum exponents less
  the divisor's cannot occur then (Ostrowski), so either failing step
  certifies non-divisibility.

Monomial keys.  This module alone knows how a monomial is stored: the
exponent vector e is packed into one int (Kronecker substitution with a
leading total-degree field; Monagan & Pearce, CASC 2007).  From the most
significant end the fields hold deg = e1 + ... + en, then e1, ..., en;
each field is _W bits wide and stores its value plus the offset _H, so a
valid field lies in [0, 2 _H) and its top bit, the guard bit, is clear.
Integer order of keys is then graded-lex order of monomials, the product
of monomials is `ka + kb - origin`, and a field that leaves [-_H, _H)
sets its guard bit.  Products and shifts check the guard bits of their
result keys, the word pass bounds its partial sums by the word length,
and long division checks that the dividend and the divisor each span
less than the field range, which keeps its keys exact, and checks its
quotient, so an overflow raises `ExponentOverflowError` and never
aliases two monomials.
Everything that takes or returns exponents outside this module uses
tuples.

Products.  `_sum_products` accumulates a signed sum of products, such as
a dot product or a 2 x 2 determinant, in one map over packed keys and
checks the keys that survive once; a single product is its one-pair
case.  A product by a one-term factor c * x^m, an integer among them,
is one shift of the keys and a product of every coefficient by c
(`_mul_term`).  Division by a one-term divisor c * x^m is one shift and
`v // c` of every coefficient v, after checking, when c is not +-1,
that c divides every coefficient.
"""

from __future__ import annotations

import heapq
import re
from functools import lru_cache, partial, reduce
from math import gcd
from operator import add, or_

from .errors import InvariantError

# Field width in bits, guard bit included.  Exponents and total degrees
# must lie in [-_H, _H) = [-2^22, 2^22).  words.MAX_LETTERS (2^20) caps
# the words that powers build, which bounds the partial exponent sums the
# word pass packs, with room left for products of a few such polynomials.
_W = 24
_H = 1 << (_W - 2)
_MASK = (1 << _W) - 1


class ExponentOverflowError(InvariantError, OverflowError):
    """An exponent or total degree left the packed field range."""


_OUT_OF_RANGE = f"monomial exponent or degree outside [-{_H}, {_H})"


@lru_cache(maxsize=None)
def _origin(n):
    """Key of the monomial 1 in n variables: every field at its offset.
    Doubled it masks the guard bits."""
    return _H * ((1 << _W * (n + 1)) - 1) // ((1 << _W) - 1)


def _pack(expts, n):
    """Key of the exponent tuple `expts` in n variables."""
    if len(expts) != n:
        raise ValueError("exponent tuple of wrong length")
    key = 0
    for e in expts:
        if not -_H <= e < _H:
            raise ExponentOverflowError(_OUT_OF_RANGE)
        key = (key << _W) | (e + _H)
    deg = sum(expts)
    if not -_H <= deg < _H:
        raise ExponentOverflowError(_OUT_OF_RANGE)
    return ((deg + _H) << (_W * n)) | key


def _unpack(key, n):
    """Exponent tuple of a key in n variables."""
    out = [0] * n
    for i in range(n - 1, -1, -1):
        out[i] = (key & _MASK) - _H
        key >>= _W
    return tuple(out)


def _check(keys, n):
    """Raise if any key has a guard bit set (or went negative)."""
    if reduce(or_, keys, 0) & (_origin(n) << 1):
        raise ExponentOverflowError(_OUT_OF_RANGE)


# -- term maps: dicts from keys to nonzero ints ---------------------------


def _add(a, b, s=1):
    """The term map of a + s * b for a sign s = +-1."""
    out = dict(a)
    get = out.get
    for k, v in b.items():
        c = get(k, 0) + s * v
        if c:
            out[k] = c
        else:
            del out[k]
    return out


def _mul_term(a, shift, coeff, n):
    """Multiply by a nonzero coeff times x^m; shift = key(m) - origin."""
    out = {k + shift: v * coeff for k, v in a.items()}
    _check(out, n)
    return out


def _mul(a, b, n):
    if len(a) > len(b):
        a, b = b, a
    if len(a) == 1:
        ((k, v),) = a.items()
        return _mul_term(b, k - _origin(n), v, n)
    return _sum_products(((1, a, b),), n)


def _sum_products(triples, n):
    """The term map of sum s * a * b over triples (s, a, b) of a sign
    s = +-1 and two term maps, accumulated in one map."""
    origin = _origin(n)
    out = {}
    get = out.get
    for s, a, b in triples:
        if not a or not b:
            continue
        if len(a) > len(b):
            a, b = b, a
        # with one outer term the items are read once: no list needed
        b_items = b.items() if len(a) == 1 else list(b.items())
        for ka, va in a.items():
            ka -= origin
            if s < 0:
                va = -va
            for kb, vb in b_items:
                key = ka + kb
                c = get(key)
                if c is None:
                    out[key] = va * vb
                else:
                    c = c + va * vb
                    if c:
                        out[key] = c
                    else:
                        del out[key]
    # Each key, in every product of the sum, is a single sum of two valid
    # keys, whose fields stay within a range narrower than 2^_W, so
    # distinct monomials never share a key and checking the surviving
    # keys once, after the whole sum, suffices.
    _check(out, n)
    return out


def word_pass(letters, n, abelian=False):
    """One left-to-right pass computing all abelianized derivatives.

    `letters` is a sequence of signed 1-based generator indices.  Returns
    the list of the n derivative polynomials; with `abelian`, the pair of
    the word's exponent sums and that list.  The running abelianization
    of the prefix is one key, moved by the generator's key step per
    letter, so the pass ends with the word's exponent sums.
    """
    # Partial exponent sums and degrees never exceed the word length.
    if len(letters) >= _H:
        raise ExponentOverflowError(_OUT_OF_RANGE)
    acc = _origin(n)
    deg_step = 1 << (_W * n)
    steps = [deg_step + (1 << (_W * (n - 1 - i))) for i in range(n)]
    coords = [{} for _ in range(n)]
    for L in letters:
        if L > 0:
            i = L - 1
            d = coords[i]
            c = d.get(acc, 0) + 1
            if c:
                d[acc] = c
            else:
                del d[acc]
            acc += steps[i]
        else:
            i = -L - 1
            acc -= steps[i]
            d = coords[i]
            c = d.get(acc, 0) - 1
            if c:
                d[acc] = c
            else:
                del d[acc]
    coords = [LaurentPoly._raw(n, d) for d in coords]
    return (_unpack(acc, n), coords) if abelian else coords


@lru_cache(maxsize=64)
def _inverses(point, p):
    return [pow(v, -1, p) for v in point]


def word_pass_mod(letters, point, p):
    """`word_pass` evaluated at x = point modulo the prime p, as a list of
    residues.  Evaluation is a ring map to the integers mod p when every
    point[i] is nonzero mod p, so a nonzero residue proves that the
    derivative is a nonzero polynomial."""
    inv = _inverses(point, p)
    out = [0] * len(point)
    m = 1
    for L in letters:
        if L > 0:
            i = L - 1
            out[i] += m
            m = m * point[i] % p
        else:
            i = -L - 1
            m = m * inv[i] % p
            out[i] -= m
    return [v % p for v in out]


class LaurentPoly:
    """Immutable integer Laurent polynomial in a fixed number of variables.

    `terms` maps packed monomial keys to nonzero coefficients; use
    `exponent_terms` for the map keyed by exponent tuples.  What long
    division reads of a divisor (`_divisor_form`) is kept once the
    polynomial has served as one: one determinant or pivot divides many
    entries in a row.
    """

    __slots__ = ("nvars", "terms", "_divisor_form")

    def __init__(self, nvars, terms=None):
        """Build from a map of exponent tuples to integer coefficients."""
        clean = {}
        if terms:
            for m, c in terms.items():
                if c:
                    clean[_pack(tuple(m), nvars)] = c
        self.nvars = nvars
        self.terms = clean
        self._divisor_form = None

    @classmethod
    def _raw(cls, nvars, terms):
        # terms must already be clean (no zero coefficients, valid keys)
        self = object.__new__(cls)
        self.nvars = nvars
        self.terms = terms
        self._divisor_form = None
        return self

    @classmethod
    def zero(cls, nvars):
        return cls._raw(nvars, {})

    @classmethod
    def constant(cls, c, nvars):
        if not c:
            return cls._raw(nvars, {})
        return cls._raw(nvars, {_origin(nvars): c})

    @classmethod
    def one(cls, nvars):
        return cls.constant(1, nvars)

    @classmethod
    def monomial(cls, expts, nvars, coeff=1):
        if not coeff:
            return cls._raw(nvars, {})
        return cls._raw(nvars, {_pack(tuple(expts), nvars): coeff})

    @classmethod
    def variable(cls, i, nvars, power=1):
        """The monomial x_{i+1}^power (i is 0-based)."""
        if not 0 <= i < nvars:
            raise ValueError(f"variable index {i} out of range")
        e = [0] * nvars
        e[i] = power
        return cls._raw(nvars, {_pack(e, nvars): 1})

    def exponent_terms(self):
        """The terms as a map from exponent tuples to coefficients."""
        n = self.nvars
        return {_unpack(k, n): c for k, c in self.terms.items()}

    def _coerce(self, other):
        if isinstance(other, LaurentPoly):
            if other.nvars != self.nvars:
                raise ValueError("polynomials from different rings")
            return other
        if isinstance(other, int):
            return LaurentPoly.constant(other, self.nvars)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return LaurentPoly._raw(self.nvars, _add(self.terms, other.terms))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return LaurentPoly._raw(self.nvars, _add(self.terms, other.terms, -1))

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return LaurentPoly._raw(self.nvars, _add(other.terms, self.terms, -1))

    def __neg__(self):
        return LaurentPoly._raw(self.nvars, {k: -v for k, v in self.terms.items()})

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return LaurentPoly._raw(self.nvars, _mul(self.terms, other.terms, self.nvars))

    __rmul__ = __mul__

    @classmethod
    def sum_products(cls, nvars, triples):
        """sum s * p * q over triples (s, p, q) of a sign s = +-1 and two
        polynomials in nvars variables, with no intermediate polynomial."""
        maps = []
        for s, p, q in triples:
            if p.nvars != nvars or q.nvars != nvars:
                raise ValueError("polynomials from different rings")
            if s != 1 and s != -1:
                raise ValueError("sign must be +-1")
            maps.append((s, p.terms, q.terms))
        return cls._raw(nvars, _sum_products(maps, nvars))

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            u = self.as_unit()
            if u is None:
                raise ValueError("negative power of a non-unit")
            c, m = u
            return LaurentPoly.monomial(tuple(k * e for e in m), self.nvars, c if k % 2 else 1)
        out = LaurentPoly.one(self.nvars)
        base = self
        while k:
            if k & 1:
                out = out * base
            base_needed = k >> 1
            if base_needed:
                base = base * base
            k = base_needed
        return out

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if isinstance(other, int):
            if other == 0:
                return not self.terms
            return self.terms == {_origin(self.nvars): other}
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        # a constant equals its integer, so it hashes like it
        terms = self.terms
        if not terms:
            return hash(0)
        if len(terms) == 1:
            c = terms.get(_origin(self.nvars))
            if c is not None:
                return hash(c)
        return hash((self.nvars, frozenset(terms.items())))

    def as_unit(self):
        """Return (coeff, mono) if the polynomial is +-x^m, else None."""
        if len(self.terms) != 1:
            return None
        ((k, c),) = self.terms.items()
        if c == 1 or c == -1:
            return c, _unpack(k, self.nvars)
        return None

    def content(self):
        """gcd of the coefficients; 0 for the zero polynomial."""
        g = 0
        for c in self.terms.values():
            g = gcd(g, c)
            if g == 1:
                return 1
        return g

    def widths(self, directions):
        """For each integer vector w in `directions`, max - min of w . e
        over the exponents e of the terms: the widths of the Newton
        polytope.  Widths add under products (Ostrowski: over a domain
        the Newton polytope of a product is the Minkowski sum of the
        factors' polytopes)."""
        if not self.terms:
            raise ValueError("the zero polynomial has no Newton polytope")
        n = self.nvars
        if any(len(w) != n for w in directions):
            raise ValueError("direction of wrong dimension")
        if len(self.terms) == 1:
            return [0] * len(directions)
        # one list per variable: its field in every key, the exponent plus
        # the offset _H; the offsets add the same constant to w . e in
        # every term, which max - min drops
        keys = list(self.terms)
        cols = [[(k >> pos) & _MASK for k in keys] for pos in range(_W * (n - 1), -1, -_W)]
        out = []
        for w in directions:
            vals = None
            for c, col in zip(w, cols):
                if c:
                    col = col if c == 1 else [c * e for e in col]
                    vals = col if vals is None else list(map(add, vals, col))
            out.append(0 if vals is None else max(vals) - min(vals))
        return out

    def subs_one(self, i):
        """Substitute x_{i+1} = 1 (variable count is preserved)."""
        n = self.nvars
        pos = _W * (n - 1 - i)
        deg_pos = _W * n
        out = {}
        for k, c in self.terms.items():
            e = ((k >> pos) & _MASK) - _H
            if e:
                k -= (e << pos) + (e << deg_pos)
            cur = out.pop(k, 0) + c
            if cur:
                out[k] = cur
        _check(out, n)
        return LaurentPoly._raw(n, out)

    def normalized(self):
        """Factor self = unit * poly with min exponent 0 in every variable.

        The unit is a signed monomial chosen so that poly's leading
        coefficient is positive.  Raises on zero input.
        """
        terms, n = self.terms, self.nvars
        if not terms:
            raise ValueError("cannot normalize the zero polynomial")
        low = _low(terms, n)
        shift = _origin(n) - low
        sign = 1 if terms[max(terms)] > 0 else -1
        # graded lex is a monomial order, so the shift keeps the leading
        # term, and `_low` has checked the shifted keys' range
        poly = {k + shift: v * sign for k, v in terms.items()}
        return LaurentPoly._raw(n, poly), LaurentPoly._raw(n, {low: sign})

    def normalizer(self):
        """The inverse of the unit of `normalized`: self times it is the
        polynomial of `normalized`.  Built without that polynomial."""
        terms, n = self.terms, self.nvars
        if not terms:
            raise ValueError("cannot normalize the zero polynomial")
        # the key of -m is 2 origin - key(m): its fields stay in (0, 2 _H]
        inverse = 2 * _origin(n) - _low(terms, n)
        _check((inverse,), n)
        return LaurentPoly._raw(n, {inverse: 1 if terms[max(terms)] > 0 else -1})

    def primitive_times(self, c):
        """The polynomial of `normalized` divided by its content, times
        the positive integer c, with the form that division by it reads
        already set: its minimum exponents are 0."""
        terms, n = self.terms, self.nvars
        shift = _origin(n) - _low(terms, n)
        if terms[max(terms)] < 0:
            c = -c
        g = self.content()
        # `_low` has checked the shifted keys' range
        out = {k + shift: v // g * c for k, v in terms.items()}
        p = LaurentPoly._raw(n, out)
        p._divisor_form = _divisor_form(out, n, _origin(n))
        return p

    def divide_exact(self, divisor):
        """Quotient q with self = q * divisor in the ring, or None.

        A divisor c * x^m is one shift of the exponents and `v // c` of
        every coefficient v, which c must divide: a unit c = +-1 always
        does, so only another c is tested.  Any other divisor takes one
        long division of the dividend's own terms under graded lex order
        (see `_long_division`).  If the quotient exists its leading
        coefficients divide at every step, so the integer division never
        loses solutions; R is a domain, so there is one quotient.
        """
        divisor = self._coerce(divisor)
        if divisor is None or divisor.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if not self.terms:
            return LaurentPoly.zero(self.nvars)
        n = self.nvars
        if len(divisor.terms) == 1:
            ((k, c),) = divisor.terms.items()
            terms = self.terms
            if c != 1 and c != -1 and any(v % c for v in terms.values()):
                return None
            shift = _origin(n) - k
            out = {key + shift: v // c for key, v in terms.items()}
            _check(out, n)
            return LaurentPoly._raw(n, out)
        if divisor._divisor_form is None:
            divisor._divisor_form = _divisor_form(divisor.terms, n)
        q = _long_division(self.terms, divisor._divisor_form, n)
        return None if q is None else LaurentPoly._raw(n, q)

    def __str__(self):
        return poly_to_text(self)

    def __repr__(self):
        return f"LaurentPoly({self.nvars}, {poly_to_text(self)!r})"


def _low(terms, n):
    """Key of the minimum exponent of each variable over a nonempty term
    map.  Raises ExponentOverflowError when the terms, shifted to minimum
    exponent 0, would leave the field range: when the minima's degree
    does, or when a term's degree exceeds it by _H or more.  The shifted
    exponents of a term are nonnegative and sum to that excess, so each
    of them is then below _H too."""
    low = 0
    deg = -_H * n
    for pos in range(0, _W * n, _W):
        # the minimum of a field, read in place
        mask = _MASK << pos
        field = min([k & mask for k in terms])
        low |= field
        deg += field >> pos
    if not -_H <= deg < _H or (max(terms) >> (_W * n)) - _H - deg >= _H:
        raise ExponentOverflowError(_OUT_OF_RANGE)
    return ((deg + _H) << (_W * n)) | low


def _divisor_form(f, n, low=None):
    """What long division by the term map f reads: its leading key and
    coefficient, its other terms with keys less the origin, and `_low`
    (computed unless given)."""
    origin = _origin(n)
    fl = max(f)
    if low is None:
        low = _low(f, n)
    return fl, f[fl], [(k - origin, c) for k, c in f.items() if k != fl], low


def _long_division(g, form, n):
    """Quotient term map of g by the divisor of `form`; None if inexact.

    The leading monomial of the shrinking remainder is tracked with a
    lazy-deletion heap of negated keys instead of a rescan, and the
    remainder is mutated in place.

    Ostrowski: if g = q f, the minimum exponent of each variable in g is
    the sum of those in q and f, so a quotient monomial below low(g) -
    low(f) in some variable certifies that f does not divide g.  With
    that test every remainder monomial lies at or above low(g) and no
    higher in degree than g's leading monomial, a finite set, so the
    division ends, and `_low`'s range check on g and f keeps every
    remainder key and every test key below free of carries between
    fields.  A quotient outside the field range raises at the end.
    """
    origin = _origin(n)
    fl, flc, frest, flow = form
    lead_shift = origin - fl
    # rl + test has the fields (r - low(g)) - (fl - low(f)), plus the
    # offset _H: each lies in (0, 2 _H), so no field borrows, and each has
    # its offset bit iff that exponent of the quotient monomial passes
    test = lead_shift + flow - _low(g, n)
    q = {}
    r = dict(g)
    heap = [-k for k in r]
    heapq.heapify(heap)
    push = heapq.heappush
    pop = heapq.heappop
    while heap:
        rl = -pop(heap)
        rc = r.get(rl)
        if rc is None:
            continue
        if rc % flc or (rl + test) & origin != origin:
            return None
        c = rc // flc
        mono = rl + lead_shift
        q[mono] = c
        del r[rl]
        for k, cc in frest:
            key = k + mono
            cc = cc * c
            cur = r.get(key)
            if cur is None:
                r[key] = -cc
                push(heap, -key)
            else:
                cur -= cc
                if cur:
                    r[key] = cur
                else:
                    del r[key]
    # every remainder key is pushed when it enters, so the heap empties
    # only with the remainder
    _check(q, n)
    return q


_TERM_RE = re.compile(r"[+-]|[0-9]+|x[0-9]+|\^-?[0-9]+|\*|\s+|.")


def parse_poly(text, nvars):
    """Parse the textual polynomial syntax: terms like 3*x1^2*x2^-1.

    Every error is a ValueError with a position, among them an exponent
    or a term's degree outside the packed range [-2^22, 2^22)."""
    tokens = []
    for m in _TERM_RE.finditer(text):
        t = m.group()
        if t.isspace():
            continue
        tokens.append((t, m.start()))
    terms = {}
    pos = 0

    def fail(msg, at):
        raise ValueError(f"polynomial syntax error at position {at}: {msg}")

    def number(digits, at):
        # int() refuses a run of more than sys.get_int_max_str_digits() digits
        try:
            return int(digits)
        except ValueError:
            fail(f"number of {len(digits.lstrip('-'))} digits is too long", at)

    while pos < len(tokens):
        sign = 1
        tok, at = tokens[pos]
        while tok in "+-":
            if tok == "-":
                sign = -sign
            pos += 1
            if pos >= len(tokens):
                fail("dangling sign", at)
            tok, at = tokens[pos]
        coeff = sign
        term_at = at
        expts = [0] * nvars
        saw_factor = False
        while True:
            tok, at = tokens[pos]
            if "0" <= tok[0] <= "9":
                coeff *= number(tok, at)
                pos += 1
            elif tok.startswith("x") and len(tok) > 1:
                idx = number(tok[1:], at)
                if not 1 <= idx <= nvars:
                    fail(f"variable out of range for {nvars} variables", at)
                e = 1
                where = at
                if pos + 1 < len(tokens) and tokens[pos + 1][0].startswith("^"):
                    power, where = tokens[pos + 1]
                    if power == "^":
                        fail("exponent needs digits", where)
                    e = number(power[1:], where)
                    pos += 1
                expts[idx - 1] += e
                if not -_H <= expts[idx - 1] < _H:
                    fail(f"exponent outside [-{_H}, {_H})", where)
                pos += 1
            else:
                # the first character: a token may be a long run of digits
                fail(f"unexpected token {tok[0]!r}", at)
            saw_factor = True
            if pos < len(tokens) and tokens[pos][0] == "*":
                pos += 1
                if pos >= len(tokens):
                    fail("dangling '*'", at)
                continue
            break
        if not saw_factor:
            fail("empty term", 0)
        if not -_H <= sum(expts) < _H:
            fail(f"degree outside [-{_H}, {_H})", term_at)
        key = tuple(expts)
        cur = terms.get(key, 0) + coeff
        if cur:
            terms[key] = cur
        elif key in terms:
            del terms[key]
        if pos < len(tokens) and tokens[pos][0] not in "+-":
            fail(f"expected '+' or '-', got {tokens[pos][0][0]!r}", tokens[pos][1])
    return LaurentPoly(nvars, terms)


# The most entries a text table holds; a full table is cleared, so no
# input grows one beyond this.  The coordinates of perfbench's 32
# verify-long words, a few thousand letters each, fill 3,500 to 3,900
# entries over all tables.
_TEXT_CAP = 1 << 14


class _TextTable(dict):
    """Text of a key, kept for the process: a missing key's text is made
    by `make` on first use, after clearing the table if it is full."""

    __slots__ = ("make",)

    def __init__(self, make):
        self.make = make

    def __missing__(self, key):
        if len(self) >= _TEXT_CAP:
            self.clear()
        text = self[key] = self.make(key)
        return text


# " + c" or " - |c|": a term's sign and coefficient, as it follows
# another term.
_HEADS = _TextTable(lambda c: f" - {-c}" if c < 0 else f" + {c}")


def _piece(name, pos, field):
    """Text of variable `name`'s exponent, read from its field at `pos`."""
    e = (field >> pos) - _H
    return "" if not e else f"*{name}" if e == 1 else f"*{name}^{e}"


@lru_cache(maxsize=None)
def _piece_columns(n):
    """(field mask, piece table) for each variable of an n-variable key.
    The table maps the masked key, the variable's field still in place,
    to the piece "*xI^e" ("*xI" for e = 1, "" for e = 0)."""
    out = []
    for i in range(n):
        pos = _W * (n - 1 - i)
        out.append((_MASK << pos, _TextTable(partial(_piece, f"x{i + 1}", pos))))
    return tuple(out)


def poly_to_text(p):
    """Canonical textual form: graded-lex descending, explicit '*' and '^'.

    The keys are sorted once.  Each term's head (" + c" or " - |c|") and
    each variable's piece come from text tables kept for the process,
    each holding at most _TEXT_CAP entries, and the terms are joined
    column by column with no Python loop per term.  Replacing " 1*" by
    " " then drops unit coefficients (no other place holds that text),
    and the first term loses its leading " + "."""
    terms = p.terms
    if not terms:
        return "0"
    keys = sorted(terms, reverse=True)
    columns = [
        map(table.__getitem__, map(mask.__and__, keys))
        for mask, table in _piece_columns(p.nvars)
    ]
    heads = map(_HEADS.__getitem__, map(terms.__getitem__, keys))
    text = "".join(map("".join, zip(heads, *columns))).replace(" 1*", " ")
    return text[3:] if text[1] == "+" else "-" + text[3:]
