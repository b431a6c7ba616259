import random
from itertools import cycle

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from metafix.errors import InvariantError
from metafix.fixpoint import width_directions
from metafix.laurent import (
    ExponentOverflowError,
    LaurentPoly,
    _H,
    _HEADS,
    _MASK,
    _TEXT_CAP,
    _W,
    _check,
    _origin,
    _pack,
    _piece_columns,
    _unpack,
    parse_poly,
    poly_to_text,
    word_pass,
)
from metafix.samples import random_poly


def P(text, n=2):
    return parse_poly(text, n)


def test_add_examples():
    assert P("x1 - 1") + P("1 - x1") == 0
    assert P("x2 + x1 - 2") + 2 == P("x1 + x2")
    assert P("x1^-1") + P("x1^-1") == P("2*x1^-1")


def test_mul_examples():
    assert P("x1 - 1") * P("x1 + 1") == P("x1^2 - 1")
    assert P("x1^-1") * P("x1") == 1
    assert P("x2 + x1 - 2") * LaurentPoly.zero(2) == 0


def test_integer_products_are_products_by_constants():
    rng = random.Random(12)
    for _ in range(50):
        n = rng.randrange(1, 4)
        p = random_poly(rng, n)
        for c in (0, 1, -1, 3):
            assert p * c == c * p == p * LaurentPoly.constant(c, n)
            want = {m: v * c for m, v in p.exponent_terms().items() if c}
            assert (p * c).exponent_terms() == want
        assert (p * 0).is_zero()


def test_dimension_mismatch():
    with pytest.raises(ValueError):
        P("x1", 2) + parse_poly("x1", 3)
    with pytest.raises(ValueError):
        P("x1", 2) * parse_poly("x1", 3)


def test_normalize_examples():
    poly, unit = (P("x1^-1") + P("x2^-1")).normalized()
    assert poly == P("x1 + x2")
    assert unit == P("x1^-1*x2^-1")

    poly, unit = P("x1 - 1").normalized()
    assert poly == P("x1 - 1") and unit == 1

    poly, unit = P("-x1^3").normalized()
    assert poly == 1 and unit == P("-x1^3")

    with pytest.raises(ValueError):
        LaurentPoly.zero(2).normalized()


def test_normalize_round_trip():
    rng = random.Random(11)
    for _ in range(200):
        p = random_poly(rng, rng.randrange(1, 4))
        if p.is_zero():
            continue
        poly, unit = p.normalized()
        assert poly * unit == p
        assert not str(poly).startswith("-")
        assert all(min(m[i] for m in poly.exponent_terms()) == 0 for i in range(p.nvars))


def test_divide_examples():
    assert P("x1^2 - 1").divide_exact(P("x1 - 1")) == P("x1 + 1")
    assert (P("x1^-1") + P("x2^-1")).divide_exact(P("x1 + x2")) == P("x1^-1*x2^-1")
    assert P("x1 + x2").divide_exact(LaurentPoly.constant(2, 2)) is None
    with pytest.raises(ZeroDivisionError):
        P("x1").divide_exact(LaurentPoly.zero(2))


def test_divide_round_trip():
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randrange(1, 4)
        p = random_poly(rng, n)
        f = random_poly(rng, n)
        if f.is_zero():
            continue
        assert (p * f).divide_exact(f) == p


def test_divisibility_disproved_by_specialization():
    f = P("x2 + x1 - 2")
    g = P("x2 - 1")
    assert g.divide_exact(f) is None


def test_content():
    assert P("2*x1 - 4").content() == 2
    assert LaurentPoly.zero(2).content() == 0
    assert P("x2 + x1 - 2").content() == 1


def test_ring_axioms_random():
    rng = random.Random(1)
    for _ in range(1000):
        n = rng.randrange(1, 4)
        p = random_poly(rng, n)
        q = random_poly(rng, n)
        r = random_poly(rng, n)
        assert (p + q) + r == p + (q + r)
        assert p + q == q + p
        assert p * q == q * p
        assert (p * q) * r == p * (q * r)
        assert (p + q) * r == p * r + q * r


def test_no_zero_divisors():
    rng = random.Random(2)
    for _ in range(300):
        n = rng.randrange(1, 4)
        p = random_poly(rng, n)
        q = random_poly(rng, n)
        if not p.is_zero() and not q.is_zero():
            assert not (p * q).is_zero()


def test_zero_coefficients_never_stored():
    rng = random.Random(3)
    for _ in range(200):
        n = rng.randrange(1, 4)
        p = random_poly(rng, n) - random_poly(rng, n)
        assert all(c != 0 for c in p.terms.values())


def test_text_round_trip():
    rng = random.Random(4)
    for _ in range(200):
        n = rng.randrange(1, 4)
        p = random_poly(rng, n)
        assert parse_poly(poly_to_text(p), n) == p
    assert poly_to_text(LaurentPoly.zero(3)) == "0"
    assert poly_to_text(LaurentPoly.constant(-1, 2)) == "-1"
    assert parse_poly("3*x1^2*x2^-1", 2) == P("3*x1^2*x2^-1")


def test_parse_errors():
    with pytest.raises(ValueError):
        parse_poly("x3", 2)
    with pytest.raises(ValueError):
        parse_poly("x1 +", 2)
    with pytest.raises(ValueError):
        parse_poly("x1 & x2", 2)


RUN = "1" * 5000  # digits: past the 4300 that int() converts


@pytest.mark.parametrize("text,at,what", [
    ("x1 + ²", 5, "unexpected token '²'"),
    ("x1 + ٣", 5, "unexpected token '٣'"),
    ("x1^٣", 2, "exponent needs digits"),
    ("x1^N", 2, "number of 5000 digits is too long"),
    ("x1^-N", 2, "number of 5000 digits is too long"),
    ("x2 - N*x1", 5, "number of 5000 digits is too long"),
    ("x1 + xN", 5, "number of 5000 digits is too long"),
    ("x1 N", 3, "expected '+' or '-', got '1'"),
    ("x1 + ^N", 5, "unexpected token '^'"),
    ("x1^²", 2, "exponent needs digits"),
    ("x1^-", 2, "exponent needs digits"),
    ("x", 0, "unexpected token 'x'"),
    ("x²", 0, "unexpected token 'x'"),
])
def test_parse_errors_on_digits_int_rejects_carry_position(text, at, what):
    # only ASCII digits are digits: "²" is one to str.isdigit and "٣" to
    # int() too; a run N that int() refuses is named by its length
    with pytest.raises(ValueError) as info:
        parse_poly(text.replace("N", RUN), 2)
    assert str(info.value) == f"polynomial syntax error at position {at}: {what}"


@pytest.mark.parametrize("text,at,what", [
    (f"x1^{_H}", 2, "exponent"),
    ("x1^9999999", 2, "exponent"),
    (f"x1^-{_H + 1}", 2, "exponent"),
    (f"x2 + x1^{_H - 1}*x1", 16, "exponent"),
    (f"x2 - 3*x1^{_H - 1}*x2", 5, "degree"),
    (f"x1^-{_H}*x2^-1", 0, "degree"),
])
def test_parse_errors_outside_the_packed_range_carry_position(text, at, what):
    # an exponent, a summed exponent and a total degree outside the packed
    # range are input errors, not the internal ExponentOverflowError
    with pytest.raises(ValueError) as info:
        parse_poly(text, 2)
    assert not isinstance(info.value, ExponentOverflowError)
    assert str(info.value) == (
        f"polynomial syntax error at position {at}: {what} outside [-{_H}, {_H})"
    )


def test_parse_accepts_the_ends_of_the_packed_range():
    assert parse_poly(f"x1^-{_H}", 2) == LaurentPoly.monomial((-_H, 0), 2)
    assert parse_poly(f"x1^{_H - 2}*x2 + x2^{_H - 1}*x1^-2", 2).terms == {
        _pack((_H - 2, 1), 2): 1, _pack((-2, _H - 1), 2): 1,
    }


def test_coefficients_are_unbounded_below_the_int_limit():
    big = "9" * 4000
    assert parse_poly(f"{big}*x1 - {big}", 2) == P("x1 - 1") * int(big)
    # an index that int() reads is range-checked without being repeated
    with pytest.raises(ValueError) as info:
        parse_poly(f"x{big}", 2)
    assert str(info.value) == (
        "polynomial syntax error at position 0: variable out of range for 2 variables"
    )


def test_power():
    assert P("x1 + 1") ** 2 == P("x1^2 + 2*x1 + 1")
    assert P("x1") ** -3 == P("x1^-3")
    assert P("-x1*x2") ** -1 == P("-x1^-1*x2^-1")
    assert P("x1 + 1") ** 0 == 1
    with pytest.raises(ValueError):
        P("x1 + 1") ** -1


# -- the packed kernel against a tuple-keyed reference ----------------------


def ref_add(a, b, sign=1):
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, 0) + sign * c
    return {m: c for m, c in out.items() if c}


def ref_mul(a, b):
    out = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            out = ref_add(out, {tuple(x + y for x, y in zip(ma, mb)): ca * cb})
    return out


def ref_word_pass(letters, n):
    acc, coords = [0] * n, [{} for _ in range(n)]
    for L in letters:
        i = abs(L) - 1
        acc[i] -= L < 0
        coords[i] = ref_add(coords[i], {tuple(acc): 1 if L > 0 else -1})
        acc[i] += L > 0
    return coords


BIG = 10**40
ranks = st.integers(1, 4)


def term_maps(n):
    monos = st.tuples(*[st.integers(-6, 6)] * n)
    return st.dictionaries(monos, st.integers(-BIG, BIG).filter(bool), max_size=8)


@given(ranks.flatmap(lambda n: st.tuples(st.just(n), term_maps(n), term_maps(n))))
@example((2, {(1, 0): BIG, (0, -1): -BIG}, {(1, 0): BIG, (-1, 1): 3}))
def test_packed_kernel_matches_reference(case):
    n, a, b = case
    p, q = LaurentPoly(n, a), LaurentPoly(n, b)
    assert p.exponent_terms() == a
    assert (p + q).exponent_terms() == ref_add(a, b)
    assert (p - q).exponent_terms() == ref_add(a, b, -1)
    assert (p * q).exponent_terms() == ref_mul(a, b)


def sum_product_cases(n):
    triple = st.tuples(st.sampled_from([1, -1]), term_maps(n), term_maps(n))
    return st.lists(triple, min_size=1, max_size=4)


@given(ranks.flatmap(lambda n: st.tuples(st.just(n), sum_product_cases(n))))
@example((2, [(1, {(1, 0): BIG, (0, -1): -3}, {(-1, 2): 5, (6, -6): 1}),
              (-1, {(-1, 2): 5, (6, -6): 1}, {(1, 0): BIG, (0, -1): -3})]))
def test_sum_products_matches_reference(case):
    n, triples = case
    expected = {}
    for s, a, b in triples:
        expected = ref_add(expected, ref_mul(a, b), s)
    polys = [(s, LaurentPoly(n, a), LaurentPoly(n, b)) for s, a, b in triples]
    assert LaurentPoly.sum_products(n, polys).exponent_terms() == expected


def test_sum_products_rejects_bad_input():
    x1 = LaurentPoly.variable(0, 2)
    with pytest.raises(ValueError):
        LaurentPoly.sum_products(2, [(1, x1, parse_poly("x1", 3))])
    with pytest.raises(ValueError):
        LaurentPoly.sum_products(2, [(2, x1, x1)])
    assert LaurentPoly.sum_products(2, []) == 0


units = st.sampled_from([1, -1, 2, -2, 3, -3])


@given(ranks.flatmap(lambda n: st.tuples(
    st.just(n), term_maps(n), st.tuples(*[st.integers(-6, 6)] * n), units)))
def test_monomial_division(case):
    n, a, m, c = case
    p, d = LaurentPoly(n, a), LaurentPoly.monomial(m, n, c)
    assert (p * d).divide_exact(d) == p
    if c not in (1, -1):
        # one coefficient that c does not divide
        assert (p * d + LaurentPoly.monomial(m, n)).divide_exact(d) is None


def test_monomial_division_out_of_range_raises():
    for c in (1, -1, 3):
        top = LaurentPoly.monomial((_H - 1, 0), 2, c)
        with pytest.raises(ExponentOverflowError):
            top.divide_exact(LaurentPoly.monomial((-1, 0), 2, c))
        bottom = LaurentPoly.monomial((0, -_H), 2, 3 * c)
        with pytest.raises(ExponentOverflowError):
            bottom.divide_exact(LaurentPoly.monomial((0, 1), 2, c))


def ref_poly_to_text(p):
    """The per-term formatter that the text tables replace."""
    if not p.terms:
        return "0"
    n = p.nvars
    fields = [(f"x{i + 1}", _W * (n - 1 - i)) for i in range(n)]
    parts = []
    for k in sorted(p.terms, reverse=True):
        c = p.terms[k]
        factors = []
        for name, pos in fields:
            e = ((k >> pos) & _MASK) - _H
            if e == 1:
                factors.append(name)
            elif e:
                factors.append(f"{name}^{e}")
        body = "*".join(factors)
        a = abs(c)
        if not body:
            body = str(a)
        elif a != 1:
            body = f"{a}*{body}"
        parts.append(("-" if c < 0 else "+", body))
    sign0, body0 = parts[0]
    pieces = [body0 if sign0 == "+" else "-" + body0]
    for s, b in parts[1:]:
        pieces.append(f" {s} {b}")
    return "".join(pieces)


# coefficients whose text starts or ends in 1, units included
ones_texts = [1, -1, 10, -10, 11, -11, 21, -21, 10**30 + 1, -(10**30 + 1)]
coefficients = st.sampled_from(ones_texts) | st.integers(-(10**31), 10**31).filter(bool)


def exponent_vectors(n):
    small_or_extreme = st.integers(-40, 40) | st.sampled_from([_H - 1, -(_H - 1)])
    return st.tuples(*[small_or_extreme] * n).filter(lambda e: -_H <= sum(e) < _H)


def many_terms(n, count, seed):
    """`count` terms around the origin, the constant term among them, with
    coefficients taken in turn from `ones_texts` and a few others."""
    rng = random.Random(seed)
    coeffs = cycle(ones_texts + [2, -3, 99])
    terms = {(0,) * n: 1}
    while len(terms) < count:
        terms[tuple(rng.randint(-12, 12) for _ in range(n))] = next(coeffs)
    return terms


@given(st.integers(1, 6).flatmap(lambda n: st.tuples(
    st.just(n), st.dictionaries(exponent_vectors(n), coefficients, max_size=12))))
@example((1, {}))
@example((1, {(0,): -1}))
@example((3, {(0, 0, 0): 10**30, (1, -1, 0): -1, (-2, 0, 1): 1}))
@example((4, {(0, 0, 0, 0): -(10**30), (0, 0, 0, 1): 1, (-1, -1, -1, -1): -1}))
# a constant term followed by terms of negative degree
@example((2, {(0, 0): 1, (-1, 0): -1, (0, -2): 11}))
@example((2, {(0, 0): -1, (0, -1): 1, (-3, 1): -21}))
@example((3, {(1, 0, 0): 10, (0, 0, 0): 10**30 + 1, (0, 0, -1): 1}))
# exponents at the edge of the packed field range
@example((2, {(_H - 1, -(_H - 1)): 1, (-(_H - 1), 0): -1, (0, _H - 1): 21}))
@example((6, {(_H - 1, 0, 0, 0, 0, -(_H - 1)): -1, (0, -(_H - 1), 0, 0, 0, 0): 11,
              (0, 0, 0, 0, 0, 0): -10, (0, 0, 0, 1, -1, 0): 1}))
# a few hundred terms
@example((2, many_terms(2, 300, 1)))
@example((4, many_terms(4, 400, 2)))
@example((6, many_terms(6, 250, 3)))
def test_poly_to_text_matches_reference(case):
    n, terms = case
    p = LaurentPoly(n, terms)
    assert poly_to_text(p) == ref_poly_to_text(p)


def test_text_tables_stay_within_their_cap():
    # more distinct exponents of x2, and more distinct coefficients, than
    # one table holds
    count = _TEXT_CAP + 100
    p = LaurentPoly(2, {(1, e - count // 2): e + 2 for e in range(count)})
    assert poly_to_text(p) == ref_poly_to_text(p)
    tables = [table for _, table in _piece_columns(2)] + [_HEADS]
    assert all(0 < len(table) <= _TEXT_CAP for table in tables)


@given(ranks.flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.integers(-n, n).filter(bool), max_size=60))))
def test_word_pass_matches_reference(case):
    n, letters = case
    assert [p.exponent_terms() for p in word_pass(letters, n)] == ref_word_pass(letters, n)
    sums, coords = word_pass(letters, n, abelian=True)
    assert sums == tuple(letters.count(i) - letters.count(-i) for i in range(1, n + 1))
    assert [p.exponent_terms() for p in coords] == ref_word_pass(letters, n)


def ref_width(terms, w):
    vals = [sum(c * e for c, e in zip(w, m)) for m in terms]
    return max(vals) - min(vals)


def nonzero_term_maps(n):
    monos = st.tuples(*[st.integers(-6, 6)] * n)
    return st.dictionaries(monos, st.integers(-BIG, BIG).filter(bool), min_size=1, max_size=8)


@given(ranks.flatmap(lambda n: st.tuples(
    st.just(n), nonzero_term_maps(n), nonzero_term_maps(n),
    st.tuples(*[st.integers(-3, 3)] * n))))
@example((3, {(0, 0, 0): 1, (1, -1, 0): 1}, {(0, 0, 0): 1, (-1, 1, 0): -1}, (2, -3, 1)))
def test_widths_add_under_products(case):
    # Ostrowski: the Newton polytope of a product is the Minkowski sum of
    # the factors' polytopes, so widths add in every direction
    n, a, b, extra = case
    dirs = width_directions(n) + (extra,)
    p, q = LaurentPoly(n, a), LaurentPoly(n, b)
    wp, wq, wpq = p.widths(dirs), q.widths(dirs), (p * q).widths(dirs)
    assert wp == [ref_width(a, w) for w in dirs]
    assert wpq == [x + y for x, y in zip(wp, wq)]


def test_widths_examples():
    dirs = width_directions(2)
    assert dirs == ((1, 0), (0, 1), (1, 1), (1, -1))
    assert P("x1^2*x2 - x2^-1 + 3").widths(dirs) == [2, 2, 4, 1]
    assert P("5*x1^-4*x2^7").widths(dirs) == [0, 0, 0, 0]
    with pytest.raises(ValueError):
        LaurentPoly.zero(2).widths(dirs)
    with pytest.raises(ValueError):
        P("x1 + x2").widths([(1, 0, 0)])


@given(ranks.flatmap(lambda n: st.lists(
    st.tuples(*[st.integers(-_H, _H - 1)] * n).filter(lambda e: -_H <= sum(e) < _H),
    min_size=1, max_size=10)))
def test_pack_round_trip_and_graded_lex_order(monos):
    n = len(monos[0])
    assert all(_unpack(_pack(m, n), n) == m for m in monos)
    by_key = [_unpack(k, n) for k in sorted(_pack(m, n) for m in set(monos))]
    assert by_key == sorted(set(monos), key=lambda m: (sum(m), m))


def test_field_overflow_raises():
    x1, x2 = LaurentPoly.variable(0, 2), LaurentPoly.variable(1, 2)
    top = LaurentPoly.monomial((_H - 1, 0), 2)
    half = LaurentPoly.monomial((_H // 2, 0), 2)
    products = [
        (top, x1),
        (top + 1, x1 - 1),
        (LaurentPoly.monomial((0, -_H), 2), x2**-1),
        (half, LaurentPoly.monomial((0, _H // 2), 2)),  # only the degree overflows
    ]
    for p, q in products:
        # the product operator, and the fused sum alone and after a product
        # whose terms stay in range
        cases = [
            lambda: p * q,
            lambda: LaurentPoly.sum_products(2, [(-1, p, q)]),
            lambda: LaurentPoly.sum_products(2, [(1, x1 + 1, x2 - 1), (1, p, q)]),
        ]
        for case in cases:
            with pytest.raises(ExponentOverflowError):
                case()
    with pytest.raises(ExponentOverflowError):
        LaurentPoly.monomial((_H,), 1)
    assert issubclass(ExponentOverflowError, InvariantError)


def test_word_pass_rejects_words_beyond_the_field_range():
    class Huge:
        def __len__(self):
            return _H

        def __iter__(self):
            raise AssertionError("the length check must come first")

    with pytest.raises(ExponentOverflowError):
        word_pass(Huge(), 2)


def ref_normal_form(p):
    """The normal form as `divide_exact` took it before dividing the
    dividend's own terms: (terms, shift, sign), the terms shifted to
    minimum exponent 0 with a positive leading coefficient."""
    terms, n = p.terms, p.nvars
    origin = _origin(n)
    if len(terms) == 1:
        ((k, c),) = terms.items()
        return {origin: abs(c)}, origin - k, 1 if c > 0 else -1
    low = deg = 0
    for pos in range(0, _W * n, _W):
        field = min((k >> pos) & _MASK for k in terms)
        low |= field << pos
        deg += field - _H
    if not -_H <= deg < _H:
        raise ExponentOverflowError("degree")
    shift = origin - (((deg + _H) << (_W * n)) | low)
    sign = 1 if terms[max(terms)] > 0 else -1
    out = {k + shift: v * sign for k, v in terms.items()}
    _check(out, n)
    return out, shift, sign


def ref_divide_nonneg(g, f, n):
    """Long division of term maps with nonnegative exponents."""
    origin = _origin(n)
    fl = max(f)
    r, q = dict(g), {}
    while r:
        rl = max(r)
        mono = rl - fl + origin
        if r[rl] % f[fl] or mono & origin != origin:
            return None
        c = r[rl] // f[fl]
        q[mono] = c
        for k, v in f.items():
            key = k + mono - origin
            cur = r.get(key, 0) - v * c
            if cur:
                r[key] = cur
            else:
                r.pop(key, None)
    return q


def ref_divide_exact(g, d):
    """`divide_exact` with both sides normalized first: the dividend's
    normal form, long division, and the quotient shifted back."""
    n = g.nvars
    if not g.terms:
        return LaurentPoly.zero(n)
    if len(d.terms) == 1:
        ((k, c),) = d.terms.items()
        if any(v % c for v in g.terms.values()):
            return None
        out = {key + _origin(n) - k: v // c for key, v in g.terms.items()}
        _check(out, n)
        return LaurentPoly._raw(n, out)
    gterms, gshift, gsign = ref_normal_form(g)
    fterms, fshift, fsign = ref_normal_form(d)
    q = ref_divide_nonneg(gterms, fterms, n)
    if q is None:
        return None
    shift, sign = fshift - gshift, gsign * fsign
    out = {k + shift: v * sign for k, v in q.items()}
    _check(out, n)
    return LaurentPoly._raw(n, out)


def outcome(f, *args):
    """f(*args), or the type of the exception it raises."""
    try:
        return f(*args)
    except Exception as e:
        return type(e)


@given(ranks.flatmap(lambda n: st.tuples(
    st.just(n), term_maps(n), nonzero_term_maps(n), term_maps(n), units)))
@example((2, {(1, 0): 1}, {(0, 0): -2, (1, 1): -4}, {(3, -2): 2}, 3))
@example((1, {(-3,): 5, (2,): -5}, {(-1,): 6, (0,): 3}, {}, -2))
def test_divide_exact_matches_normal_form_reference(case):
    # negative exponents, one-term and multi-term divisors, contents above
    # 1 and negative leading coefficients; exact, inexact and unrelated
    # dividends
    n, a, b, e, c = case
    p, d, extra = LaurentPoly(n, a), LaurentPoly(n, b) * c, LaurentPoly(n, e)
    for g in (p * d, p * d + extra, extra, -(p * d) * 3):
        want = ref_divide_exact(g, d)
        got = g.divide_exact(d)
        assert (got is None) == (want is None)
        assert got == want


@given(st.integers(1, 3).flatmap(lambda n: st.tuples(
    st.just(n),
    st.dictionaries(exponent_vectors(n), st.integers(-3, 3).filter(bool), min_size=1, max_size=4),
    nonzero_term_maps(n),
)))
def test_divide_exact_near_the_field_range_matches_reference(case):
    # exponents at the ends of the packed range: the same quotient, None
    # or ExponentOverflowError as the division of the normal forms
    n, a, b = case
    g, d = LaurentPoly(n, a), LaurentPoly(n, b)
    dividends = [g]
    product = outcome(lambda: g * d)
    if isinstance(product, LaurentPoly):
        dividends.append(product)
    for dividend in dividends:
        assert outcome(dividend.divide_exact, d) == outcome(ref_divide_exact, dividend, d)


def test_dividend_spanning_the_field_range_raises():
    # the x1 exponents span 4,200,001 >= 2^22, or the degrees span
    # 2^22 + 1 while each exponent spans less: the dividend's normal form
    # would leave the field range, so the division raises, never None
    x1, x2 = LaurentPoly.variable(0, 2), LaurentPoly.variable(1, 2)
    d = x1 - 1
    wide = (x1**2100000 + x1**-2100000) * d
    deep = (LaurentPoly.monomial((_H // 2 - 1, _H // 2 - 1), 2) + (x1 * x2) ** -1) * d
    for g in (wide, deep):
        for divisor in (d, x2 + 3):
            with pytest.raises(ExponentOverflowError):
                ref_divide_exact(g, divisor)
            with pytest.raises(ExponentOverflowError):
                g.divide_exact(divisor)
    # just inside the range the quotient comes back
    g = (x1**2000000 + x1**-2000000) * d
    assert g.divide_exact(d) == x1**2000000 + x1**-2000000
    assert (g + 1).divide_exact(d) is None


@given(ranks.flatmap(lambda n: st.tuples(
    st.just(n), nonzero_term_maps(n), st.integers(1, 6))))
@example((2, {(-2, 1): -4, (0, 3): 6}, 5))
def test_normalizer_and_primitive_times_match_normalized(case):
    n, a, c = case
    p = LaurentPoly(n, a)
    poly, unit = p.normalized()
    assert p * p.normalizer() == poly
    assert p.normalizer() == unit ** -1
    q = p.primitive_times(c)
    assert q * poly.content() == poly * c
    # the division form it carries is the one division computes afresh
    fresh = LaurentPoly(n, q.exponent_terms())
    for g in (q * p, q * p + 1, p):
        assert g.divide_exact(q) == g.divide_exact(fresh)


def test_normalizer_of_a_unit_at_the_field_edge_raises_as_its_inverse_does():
    for m in ((-_H, 0), (-_H // 2, -_H // 2)):
        # minimum exponents m, which the range holds but not -m
        p = LaurentPoly.monomial(m, 2, -3) + LaurentPoly.monomial((m[0] + 1, m[1]), 2)
        poly, unit = p.normalized()
        with pytest.raises(ExponentOverflowError):
            unit ** -1
        with pytest.raises(ExponentOverflowError):
            p.normalizer()
