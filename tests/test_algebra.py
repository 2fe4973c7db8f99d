"""Polynomial arithmetic, monomial orders, and y-splitting."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gvdlab import algebra
from gvdlab.algebra import (
    PackingOverflow, Poly, Ring, compile_order, elim_order, format_poly,
    initial_term, initial_y_form, lex_order, mono_divides, mono_mul,
    parse_poly, storage_order, y_order,
)

from fixtures import (
    compare, mono_div, mono_lcm, packed_gcd, pair_divisor, y_split,
)

R4 = Ring(["e1", "e2", "e3", "e4"])


def P(text):
    return parse_poly(R4, text)


# ---------------------------------------------------------------------------
# Ring and monomial basics.

def test_ring_rejects_duplicates():
    with pytest.raises(ValueError):
        Ring(["a", "a"])


def test_ring_contraction_drops_variable():
    assert R4.without("e2").names == ("e1", "e3", "e4")


def test_mono_helpers():
    a, b = (1, 0, 2, 0), (0, 1, 1, 0)
    assert mono_mul(a, b) == (1, 1, 3, 0)
    assert mono_lcm(a, b) == (1, 1, 2, 0)
    assert not mono_divides(a, b)
    assert mono_divides(b, mono_mul(a, b))
    assert mono_div(mono_mul(a, b), b) == a


# ---------------------------------------------------------------------------
# Arithmetic is exact and drops zero terms.

def test_add_cancels_to_zero():
    f = P("e1*e2 - e3")
    assert (f - f).is_zero()


def test_the_public_constructor_drops_zeros_and_copies():
    # ``Poly._adopt`` trusts its caller; the public constructor does not
    terms = {(1, 0, 0, 0): Fraction(0), (0, 1, 0, 0): Fraction(2)}
    f = Poly(R4, terms)
    assert f.terms == {(0, 1, 0, 0): 2} and f.terms is not terms


def test_exact_fractions():
    f = P("1/3*e1") + P("1/6*e1")
    assert f == P("1/2*e1")
    assert f.terms[(1, 0, 0, 0)] == Fraction(1, 2)


def test_product_expands():
    f = P("e1 + e2") * P("e1 - e2")
    assert f == P("e1^2 - e2^2")


def test_rename_into_smaller_ring():
    f = P("e1*e3 - e4")
    S = Ring(["e3", "e4", "e1"])
    g = f.rename(S)
    # factors display in the target ring's variable order
    assert format_poly(g) == "e3*e1 - e4"
    with pytest.raises(KeyError):
        P("e2").rename(S)


def test_rename_with_map():
    S = Ring(["f1", "f2"])
    f = parse_poly(Ring(["a", "b"]), "a*b - a")
    assert f.rename(S, {"a": "f2", "b": "f1"}) == parse_poly(S, "f1*f2 - f2")


# ---------------------------------------------------------------------------
# Text syntax round trip.

def test_parse_format_round_trip():
    for text in ["0", "e1", "-e1", "e1*e2 - e3^2", "2*e1 + 1/2*e2 - 3", "e1^3*e4"]:
        assert format_poly(P(text)) == format_poly(P(format_poly(P(text))))


def test_format_canonical_order():
    # storage order: higher total degree first, then e1-major lex
    assert format_poly(P("e4 + e1 + e2^2")) == "e2^2 + e1 + e4"


def test_parse_rejects_garbage():
    for bad in ["", "e1 +", "e1**e2", "2e1"]:
        with pytest.raises(ValueError):
            P(bad)


# ---------------------------------------------------------------------------
# Orders.

def test_lex_order_respects_permutation():
    lt = initial_term(lex_order(R4, ["e2", "e1", "e3", "e4"]), P("e2*e4 - e1^3"))
    assert lt.mono == (0, 1, 0, 1)


def test_grlex_degree_dominates():
    lt = initial_term(storage_order(R4), P("e2*e4 - e1^3"))
    assert lt.mono == (3, 0, 0, 0)


def test_order_must_decide_every_variable():
    with pytest.raises(ValueError):
        compile_order(R4, (0, 1))


@pytest.mark.parametrize("rows", [
    (0, 1, 2, 3, 4),  # a position past the ring
    (0, 1, 1, 2, 3),  # a position twice
    (0, 1, 2, 3, (0, 1)),  # a degree row after the variables
    ((0, 4), 0, 1, 2, 3),  # a degree row past the ring
    ("e1", 1, 2, 3),  # a name, not a position
])
def test_order_rows_are_degree_rows_then_every_position_once(rows):
    with pytest.raises(ValueError):
        compile_order(R4, rows)


def test_lex_order_rejects_a_repeated_name():
    with pytest.raises(ValueError):
        lex_order(Ring(["a", "b"]), ["a", "a", "b"])


def test_elim_order():
    o = elim_order(R4, ["e4"])
    assert initial_term(o, P("e4 - e1*e2*e3")).mono == (0, 0, 0, 1)


# ---------------------------------------------------------------------------
# Initial terms, initial y-forms, y-splitting.

def test_initial_term_under_y_order():
    assert initial_term(y_order(R4, "e2"), P("e2*e3 - e1*e4")).mono == (0, 1, 1, 0)


def test_initial_y_form_picks_top_y_slice():
    f = P("e1*e2^2 + e3*e2^2 - e4*e2 + e1")
    assert initial_y_form("e2", f) == P("e1*e2^2 + e3*e2^2")


def test_initial_y_form_whole_poly_when_y_absent():
    f = P("e1*e3 - e4")
    assert initial_y_form("e2", f) == f


def test_y_split_identity_and_degrees():
    f = P("e1*e2^2 + e3*e2^2 - e4*e2 + e1")
    d, q, r = y_split("e2", f)
    assert d == 2
    assert q == P("e1 + e3")
    assert r == P("-e4*e2 + e1")
    y = R4.var("e2")
    assert y * y * q + r == f
    assert max(m[R4.index["e2"]] for m in q.terms) == 0


def test_y_split_linear_binomial():
    d, q, r = y_split("e2", P("e2*e3 - e1*e4"))
    assert (d, q, r) == (1, P("e3"), P("-e1*e4"))


# ---------------------------------------------------------------------------
# Property checks.

monos = st.tuples(*[st.integers(0, 4)] * 4)
coeffs = st.fractions(min_value=-5, max_value=5).filter(lambda c: c != 0)
polys = st.dictionaries(monos, coeffs, min_size=1, max_size=5).map(
    lambda d: Poly(R4, d))
orders = st.sampled_from([
    storage_order(R4),
    lex_order(R4, ["e3", "e1", "e4", "e2"]),
    y_order(R4, "e2"),
    elim_order(R4, ["e1", "e3"]),
])


@given(orders, monos, monos, monos)
def test_orders_are_total_and_multiplicative(o, a, b, c):
    assert (compare(o, a, b) == 0) == (a == b)
    assert compare(o, a, b) == -compare(o, b, a)
    assert compare(o, mono_mul(a, c), mono_mul(b, c)) == compare(o, a, b)
    assert compare(o, mono_mul(a, b), a) >= 0  # 1 is the minimum


@given(orders, polys)
def test_initial_term_absorbs_products(o, f):
    lt = initial_term(o, f)
    g = f * f
    assert initial_term(o, g).mono == mono_mul(lt.mono, lt.mono)


@given(polys)
@settings(max_examples=60)
def test_y_split_round_trip(f):
    d, q, r = y_split("e2", f)
    y = R4.var("e2")
    acc = q
    for _ in range(d):
        acc = acc * y
    assert acc + r == f
    assert max(m[R4.index["e2"]] for m in q.terms) == 0
    assert r.is_zero() or max(m[R4.index["e2"]] for m in r.terms) < d


@given(polys)
@settings(max_examples=60)
def test_y_order_initial_term_lies_in_initial_y_form(f):
    o = y_order(R4, "e2")
    lt = initial_term(o, f)
    assert lt.mono in initial_y_form("e2", f).terms


@given(polys)
@settings(max_examples=60)
def test_parse_format_agree(f):
    assert parse_poly(R4, format_poly(f)) == f


# ---------------------------------------------------------------------------
# Compiled order keys against the plain definitions.

def reference_key(rows):
    """The order key written out row by row: each degree row's sum, then
    each variable's exponent."""
    return lambda m: tuple(sum(m[i] for i in r) if isinstance(r, tuple) else m[r]
                           for r in rows)


@st.composite
def order_rows(draw, n):
    """Rows over n positions: 0 to 2 degree rows, each every position or a
    permuted part of them (possibly none), then a permutation; or the
    elimination shape, whose two degree rows are a block and then all of
    the permutation."""
    every = tuple(range(n))
    perm = tuple(draw(st.permutations(every)))
    part = st.permutations(every).flatmap(
        lambda p: st.integers(0, n).map(lambda k: tuple(p[:k])))
    degrees = draw(st.lists(st.one_of(st.just(every), part), max_size=2))
    cut = draw(st.integers(0, n))
    return draw(st.sampled_from([tuple(degrees) + perm, (perm[:cut], perm) + perm]))


@st.composite
def keyed_monomials(draw):
    n = draw(st.integers(0, 5))
    rows = draw(order_rows(n))
    ms = draw(st.lists(st.tuples(*[st.integers(0, 3)] * n),
                       min_size=1, max_size=8))
    return Ring("x%d" % i for i in range(n)), rows, ms


@given(keyed_monomials())
@settings(max_examples=300)
def test_compiled_keys_compare_as_the_plain_definitions(case):
    ring, rows, ms = case
    key, ref = compile_order(ring, rows).key, reference_key(rows)
    for a in ms:
        for b in ms:
            assert (key(a) < key(b)) == (ref(a) < ref(b))
            assert (key(a) == key(b)) == (ref(a) == ref(b))
    assert sorted(ms, key=key) == sorted(ms, key=ref)


def test_the_constructors_build_the_rows_of_their_orders():
    assert storage_order(R4).rows == ((0, 1, 2, 3), 0, 1, 2, 3)
    assert lex_order(R4, ["e3", "e1", "e4", "e2"]).rows == (2, 0, 3, 1)
    assert lex_order(R4).rows == (0, 1, 2, 3)
    assert y_order(R4, "e3").rows == (2, 0, 1, 3)
    assert elim_order(R4, ["e2", "e4"]).rows == ((1, 3), (1, 3, 0, 2), 1, 3, 0, 2)


# ---------------------------------------------------------------------------
# The order cache and packed monomials.

def test_compiled_orders_come_from_a_capped_cache():
    cap = algebra._ORDER_CACHE_SIZE
    rings = [(n, r) for n in range(1, 50) for r in range(n)][:cap + 10]
    for n, r in rings:  # lex orders rotated by r: distinct rows
        ring = Ring(["c%d" % i for i in range(n)])
        compile_order(ring, tuple(range(r, n)) + tuple(range(r))).packing
    assert len(algebra._ORDER_CACHE) == cap
    # one compilation per arity and rows: rings with other names, or other
    # Ring objects, share it, and each Order keeps its own ring
    R, S, T = Ring(["a", "b"]), Ring(["a", "b"]), Ring(["u", "v"])
    o, p, q = storage_order(R), compile_order(S, ((0, 1), 0, 1)), storage_order(T)
    assert o is not p and o.ring is R and p.ring is S and q.ring is T
    assert o.rows == p.rows == q.rows == ((0, 1), 0, 1)
    assert o.key is p.key is q.key and o.packing is p.packing is q.packing


@st.composite
def packed_monomials(draw):
    """Random rows, and monomials whose products and lcms may not fit the
    first field width."""
    n = draw(st.integers(1, 5))
    rows = draw(order_rows(n))
    ms = draw(st.lists(st.tuples(*[st.integers(0, 40)] * n),
                       min_size=2, max_size=6))
    return compile_order(Ring("x%d" % i for i in range(n)), rows), ms


@given(packed_monomials())
@settings(max_examples=300, deadline=None)
def test_packed_monomials_follow_the_order_and_the_tuple_operations(case):
    order, ms = case
    # the narrowest width that holds every input
    pk, packed = order.packing.widening(lambda pk: (pk, [pk.pack(m) for m in ms]))
    records = [(p, i) for i, p in enumerate(packed)]
    for a, pa in zip(ms, packed):
        assert pk.unpack(pa) == a
        first = next(i for i, b in enumerate(ms) if mono_divides(b, a))
        assert pk.divisor(pa, records) == records[first]
        for b, pb in zip(ms, packed):
            ka, kb = order.key(a), order.key(b)
            assert (pa < pb) == (ka < kb) and (pa == pb) == (ka == kb)
            assert pk.divides(pb, pa) == mono_divides(b, a)
            if mono_divides(b, a):
                assert pa - pb == pk.pack(mono_div(a, b))
            coprime = mono_mul(a, b) == mono_lcm(a, b)
            assert (not pk.support(pa) & pk.support(pb)) == coprime
            try:
                product = pk.pack(mono_mul(a, b))
            except PackingOverflow:
                with pytest.raises(PackingOverflow):  # the guard catches it
                    pk.checked(pa + pb)
            else:
                assert pk.checked(pa + pb) == product
            try:
                lcm = pk.pack(mono_lcm(a, b))
            except PackingOverflow:
                with pytest.raises(PackingOverflow):
                    pk.lcm(pa, pb)
            else:
                assert pk.lcm(pa, pb) == lcm


@given(packed_monomials())
@settings(max_examples=300, deadline=None)
def test_the_completion_oracle_helpers_follow_the_tuple_operations(case):
    # ``pair_divisor`` and ``packed_gcd`` serve the Pottier completion in
    # the fixtures
    order, ms = case
    pk, packed = order.packing.widening(lambda pk: (pk, [pk.pack(m) for m in ms]))
    for a, pa in zip(ms, packed):
        for b, pb in zip(ms, packed):
            both = [(p, q) for (x, p), (y, q) in zip(zip(ms, packed), zip(ms[1:], packed[1:]))
                    if mono_divides(x, a) and mono_divides(y, b)]
            assert pair_divisor(pk, pa, pb, zip(packed, packed[1:])) == (both[0] if both else None)
            assert packed_gcd(pk, pa, pb) == pk.pack(tuple(map(min, a, b)))
