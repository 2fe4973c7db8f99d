"""Buchberger, reduced bases, and the elimination-based ideal operations."""

from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gvdlab import groebner
from gvdlab.algebra import (
    Packing, PackingOverflow, Poly, Ring, compile_order, initial_term,
    lex_order, parse_poly, storage_order, y_order,
)
from gvdlab.graphs import complete_bipartite, universal_groebner_basis
from gvdlab.groebner import (
    Ideal, _Binomials, _Fractions, buchberger, eliminate, ideal_contains,
    ideal_equal, initial_ideal, intersect, radical_contains,
    radical_equal, reduced_basis_of, s_polynomial, saturate_variable,
    selected_basis,
)

from fixtures import (
    corpus_ideals_and_branches, counted_runs, is_generated_by_variables,
    is_square_free_monomial_ideal, krull_dimension,
)
from graph_corpus import connected_graphs, to_graph

XYZ = Ring(["x", "y", "z"])


def P(text, ring=XYZ):
    return parse_poly(ring, text)


def I(*texts, ring=XYZ):
    return Ideal(ring, [parse_poly(ring, t) for t in texts])


def gb_texts(ideal, order=None):
    return [str(g) for g in ideal.groebner(order)]


def sympy_order(kind, names):
    """sympy's order ``kind`` ("lex" or "grlex") on ``names``, by its rows."""
    pos = tuple(map(XYZ.vidx, names))
    return compile_order(XYZ, (pos,) + pos if kind == "grlex" else pos)


# ---------------------------------------------------------------------------
# S-polynomials and normal forms.

def test_s_polynomial_cancels_leading_terms():
    pk = storage_order(XYZ).packing
    fr = _Fractions(pk)
    f, g = (fr.store(P(t)) for t in ("x^3 - 2*x*y", "x^2*y - 2*y^2 + x"))
    s = s_polynomial(fr, f, g)
    assert Poly(XYZ, {pk.unpack(m): c for m, c in s.items()}) == P("-x^2")


def test_normal_form_full_reduction():
    # every term is reduced, not only the initial one; the remainder is monic
    fr = _Fractions(storage_order(XYZ).packing)
    basis = [fr.store(P("x*y - 1")), fr.store(P("y^2 - 1"))]
    r = fr.reduce(fr.terms(fr.store(P("x^2*y + x*y^2 + y^2"))), basis)
    assert fr.poly(XYZ, r) == P("x + y + 1")


def test_normal_form_empty_basis_is_identity():
    f = P("x^2 - y")
    for arith in (_Binomials, _Fractions):
        ar = arith(storage_order(XYZ).packing)
        assert ar.poly(XYZ, ar.reduce(ar.terms(ar.store(f)), [])) == f


# ---------------------------------------------------------------------------
# Buchberger: frozen classics.

def test_reduced_basis_classic_grlex():
    # grlex x > y: reduced basis of <x^3 - 2xy, x^2 y - 2y^2 + x>
    R = Ring(["x", "y"])
    J = Ideal(R, [parse_poly(R, "x^3 - 2*x*y"), parse_poly(R, "x^2*y - 2*y^2 + x")])
    assert gb_texts(J) == ["y^2 - 1/2*x", "x*y", "x^2"]


def test_unit_ideal_detected():
    assert I("x + 1", "x").is_unit_ideal()
    assert gb_texts(I("x + 1", "x")) == ["1"]


def test_reduced_basis_is_input_order_independent():
    gens = ["x^2 + y*z", "y^2 - x*z", "x*y + z^2 - 1"]
    a = gb_texts(I(*gens))
    b = gb_texts(I(*reversed(gens)))
    assert a == b


def test_initial_ideal_collects_leading_monomials():
    R = Ring(["x", "y"])
    J = Ideal(R, [parse_poly(R, "x^3 - 2*x*y"), parse_poly(R, "x^2*y - 2*y^2 + x")])
    assert gb_texts(initial_ideal(storage_order(R), J)) == ["y^2", "x*y", "x^2"]


# ---------------------------------------------------------------------------
# Oracle cross-checks against sympy.

def _sympy_gb(texts, order, gens=XYZ.names):
    """sympy's reduced basis, with the symbols passed in the order ``gens``
    (most significant first), as canonical forms over XYZ."""
    syms = sympy.symbols(gens)
    exprs = [sympy.sympify(t.replace("^", "**")) for t in texts]
    gb = sympy.groebner(exprs, *syms, order=order, domain="QQ")
    out = set()
    for e in gb.exprs:
        p = sympy.Poly(e, *syms)
        terms = {}
        for mono, c in p.terms():
            exps = dict(zip(gens, mono))
            m = tuple(int(exps[n]) for n in XYZ.names)
            terms[m] = Fraction(int(c.p), int(c.q))
        out.add(Poly(XYZ, terms).canonical())
    return out


SYMPY_CASES = [
    ["x^3 - 2*x*y", "x^2*y - 2*y^2 + x"],
    ["x^2 + y^2 + z^2 - 1", "x*y - z", "x - y*z"],
    ["x*y*z - 1", "x + y + z"],
    ["x^2*y - z^3", "x*z - y^2", "y*z^2 - x^2"],
]


@pytest.mark.parametrize("texts", SYMPY_CASES)
def test_reduced_basis_matches_sympy_grlex(texts):
    mine = {g.canonical() for g in I(*texts).groebner()}
    assert mine == _sympy_gb(texts, "grlex")


@pytest.mark.parametrize("texts", SYMPY_CASES)
def test_reduced_basis_matches_sympy_lex(texts):
    mine = {g.canonical() for g in I(*texts).groebner(lex_order(XYZ))}
    assert mine == _sympy_gb(texts, "lex")


@pytest.mark.parametrize("texts", SYMPY_CASES)
@pytest.mark.parametrize("gens", [("z", "x", "y"), ("y", "z", "x")])
# fixed ids keep these cases' names comparable across revisions
@pytest.mark.parametrize("kind", ["lex", "grlex"], ids=["Lex-lex", "GrLex-grlex"])
def test_reduced_basis_matches_sympy_under_permuted_variables(texts, gens, kind):
    order = sympy_order(kind, gens)
    mine = {g.canonical() for g in I(*texts).groebner(order)}
    assert mine == _sympy_gb(texts, kind, gens)


def test_reduced_basis_of_a_universal_basis_is_buchbergers():
    # A universal basis is a Groebner basis under every order, so
    # minimalizing and inter-reducing it gives the reduced basis, term for
    # term, under the storage order and under a y-order.
    def terms(basis):
        return [list(g.terms.items()) for g in basis]

    graphs = [to_graph(n, edges) for n, edges in connected_graphs(7)]
    graphs += [complete_bipartite(3, 3), complete_bipartite(4, 4)]
    for G in graphs:
        basis = universal_groebner_basis(G)
        ring = G.edge_ring()
        for order in (storage_order(ring), y_order(ring, ring.names[0])):
            assert terms(reduced_basis_of(order, basis)) == terms(buchberger(order, basis))
    G = complete_bipartite(4, 5)
    order, basis = storage_order(G.edge_ring()), universal_groebner_basis(G)
    assert len(basis) == 660
    assert terms(reduced_basis_of(order, basis)) == terms(buchberger(order, basis))


def test_selection_keeps_the_least_tail_of_a_shared_initial_term():
    # The toric ideal of the matrix (1 1 1) has the universal basis a - b,
    # a - c and b - c.  Under lex the first two share the initial term a,
    # and the one listed first has the larger tail: the selection keeps
    # a - c, as Buchberger does, and a variable of another ring position
    # joins the basis whole.
    ring = Ring(["a", "b", "c", "t"])
    order = lex_order(ring)
    pairs = (((1, 0, 0, 0), (0, 1, 0, 0)), ((1, 0, 0, 0), (0, 0, 1, 0)),
             ((0, 0, 1, 0), (0, 1, 0, 0)))
    got = selected_basis(order, (), pairs)
    assert [str(g) for g in got] == ["b - c", "a - c"]
    gens = [Poly(ring, {a: Fraction(1), b: Fraction(-1)}) for a, b in pairs]
    assert [list(g.terms.items()) for g in got] == [
        list(g.terms.items()) for g in buchberger(order, gens)]
    t = ring.var("t")
    got = selected_basis(order, (t,), pairs)
    assert [str(g) for g in got] == ["t", "b - c", "a - c"]
    assert [list(g.terms.items()) for g in got] == [
        list(g.terms.items()) for g in buchberger(order, gens + [t])]


def test_groebner_rejects_an_order_over_another_ring():
    # bases are cached by the order's rows, so a basis in the other ring's
    # names would be served under the ideal's own order too
    XY = Ring(["x", "y"])
    J = I("x^2 - y", ring=XY)
    with pytest.raises(ValueError):
        J.groebner(lex_order(Ring(["u", "v"])))
    assert gb_texts(J, lex_order(XY)) == ["x^2 - y"]


def test_a_basis_with_the_same_initial_terms_is_read_off_the_cache(monkeypatch):
    # A y-order basis is read off the cached storage basis, with no
    # Buchberger run, exactly when the two reduced bases are one set of
    # polynomials, which is when their initial terms agree.  Over the
    # corpus toric ideals and their C/N branches, at every y, the basis it
    # returns is a fresh run's, term for term and in the same order.
    def terms(basis):
        return [list(g.terms.items()) for g in basis]

    ideals = corpus_ideals_and_branches()
    runs = counted_runs(monkeypatch)
    reads = 0
    for K in ideals:
        basis = K.groebner()
        for y in K.ring.names:
            order = y_order(K.ring, y)
            before = len(runs)
            got = Ideal.reduced(K.ring, basis).groebner(order)
            ran = len(runs) > before
            want = buchberger(order, K.gens)
            assert terms(got) == terms(want)
            same = {g.canonical() for g in want} == {g.canonical() for g in basis}
            assert ran != same
            reads += same
    assert reads > 0


def test_a_basis_with_other_initial_terms_is_computed(monkeypatch):
    # <x - y^2>: graded lex picks y^2 and lex picks x, so its lex basis is
    # computed; lex with y first picks y^2 too, so that basis is read off
    # the storage basis.
    XY = Ring(["x", "y"])
    J = I("x - y^2", ring=XY)
    runs = counted_runs(monkeypatch)
    assert [list(g.terms.items()) for g in J.groebner()] == [
        [((0, 2), 1), ((1, 0), -1)]]
    assert len(runs) == 1
    assert [list(g.terms.items()) for g in J.groebner(lex_order(XY))] == [
        [((1, 0), 1), ((0, 2), -1)]]
    assert len(runs) == 2
    assert [list(g.terms.items()) for g in J.groebner(y_order(XY, "y"))] == [
        [((0, 2), 1), ((1, 0), -1)]]
    assert len(runs) == 2


def test_a_basis_with_three_terms_is_made_monic_when_read(monkeypatch):
    # x^3 + 1/2*y^2 - 3*z leads with x^3 under graded lex and under lex on
    # x, z, y, but its tail is y^2, z under the first and z, y^2 under the
    # second: an element of three terms is sorted again (``_made_monic``),
    # while an element of two is read as it is stored.
    f = P("x^3 + 1/2*y^2 - 3*z")
    J = Ideal.reduced(XYZ, [f])
    order = lex_order(XYZ, ("x", "z", "y"))
    want = [list(g.terms.items()) for g in buchberger(order, [f])]
    made, real = [], groebner._made_monic
    monkeypatch.setattr(groebner, "_made_monic",
                        lambda order, g: made.append(g) or real(order, g))
    got = J.groebner(order)
    assert made == [f] and [list(g.terms.items()) for g in got] == want
    assert [list(g.terms) for g in got] == [[(3, 0, 0), (0, 0, 1), (0, 2, 0)]]
    # x - z and y^3 are read as stored, re-sorted by their lex initial terms
    K = Ideal.reduced(XYZ, [P("x - z"), P("y^3")])
    got = K.groebner(order)
    assert made == [f] and len(got) == 2
    assert all(g is h for g, h in zip(got, K.gens[::-1]))


_SMALL_MONO = st.tuples(*[st.integers(0, 2)] * 3)
_SMALL_POLY = st.dictionaries(
    _SMALL_MONO, st.integers(-3, 3).filter(bool).map(Fraction),
    min_size=1, max_size=3).map(lambda terms: Poly(XYZ, terms))
XYZ_ORDERS = [storage_order(XYZ), lex_order(XYZ), lex_order(XYZ, ("z", "y", "x")),
              y_order(XYZ, "y"), y_order(XYZ, "z"),
              compile_order(XYZ, ((0,), (0, 1, 2), 0, 1, 2))]


@given(st.lists(_SMALL_POLY, min_size=1, max_size=2),
       st.permutations(XYZ_ORDERS))
@settings(max_examples=100, deadline=None)
def test_every_basis_read_off_the_cache_is_buchbergers(gens, orders):
    # Polynomials with coefficients, asked for bases under three orders in
    # turn: each is a fresh run's, term for term, whichever bases are
    # cached before it.
    J = Ideal(XYZ, gens)
    for order in orders[:3]:
        assert ([list(g.terms.items()) for g in J.groebner(order)]
                == [list(g.terms.items()) for g in buchberger(order, J.gens)])


# ---------------------------------------------------------------------------
# Inputs that skip the pair heap: one generator, or monomials only.

TRIVIAL_ORDERS = [
    (storage_order(XYZ), "grlex", ("x", "y", "z")),
    (lex_order(XYZ, ("z", "x", "y")), "lex", ("z", "x", "y")),
    # the engine's y-compatible order: lex with y first, then ring order
    (y_order(XYZ, "y"), "lex", ("y", "x", "z")),
]

_MONO = st.tuples(*[st.integers(0, 3)] * 3)
_COEFF = st.tuples(st.integers(-4, 4).filter(bool), st.integers(1, 4)).map(
    lambda t: Fraction(*t))
_MONOMIAL = st.builds(lambda m, c: Poly(XYZ, {m: c}), _MONO, _COEFF)


@st.composite
def single_generators(draw):
    """One generator: a monomial, a pure difference, a trinomial with
    Fraction coefficients, or a constant."""
    kind = draw(st.sampled_from(["monomial", "difference", "trinomial",
                                 "constant"]))
    if kind == "monomial":
        return [draw(_MONOMIAL)]
    if kind == "constant":
        return [Poly(XYZ, {(0, 0, 0): draw(_COEFF)})]
    size = 2 if kind == "difference" else 3
    monos = draw(st.lists(_MONO, min_size=size, max_size=size, unique=True))
    if kind == "difference":
        c = draw(_COEFF)
        return [Poly(XYZ, {monos[0]: c, monos[1]: -c})]
    return [Poly(XYZ, {m: draw(_COEFF) for m in monos})]


@st.composite
def monomial_lists(draw):
    """Monomials, with scalar-multiple duplicates and multiples of others."""
    gens = draw(st.lists(_MONOMIAL, min_size=1, max_size=5))
    for k, c in draw(st.lists(st.tuples(st.integers(0, len(gens) - 1), _COEFF),
                              max_size=2)):
        gens.append(gens[k] * c)
    for k, m in draw(st.lists(st.tuples(st.integers(0, len(gens) - 1), _MONO),
                              max_size=2)):
        gens.append(gens[k] * Poly(XYZ, {m: Fraction(1)}))
    return gens


@given(st.one_of(single_generators(), monomial_lists()),
       st.sampled_from(TRIVIAL_ORDERS))
@settings(max_examples=150, deadline=None)
def test_trivial_inputs_match_sympy(gens, case):
    order, kind, names = case
    got = buchberger(order, gens)
    assert {g.canonical() for g in got} == _sympy_gb([str(g) for g in gens],
                                                     kind, names)
    leads = [initial_term(order, g) for g in got]
    assert all(t.coeff == 1 for t in leads)
    keys = [order.key(t.mono) for t in leads]
    assert keys == sorted(set(keys))


# ---------------------------------------------------------------------------
# The coefficient-free path against the Fraction path.

@st.composite
def binomial_ideals(draw):
    """A ring of 2 to 5 variables, an order of each kind on it, and
    generators that are monomials and pure differences c*(m - m'): with
    constants, differences m - 1, non-monic c, and scalar-multiple
    duplicates."""
    n = draw(st.integers(2, 5))
    ring = Ring("x%d" % i for i in range(n))
    mono = st.tuples(*[st.integers(0, 3)] * n)
    coeff = st.tuples(st.integers(-3, 3).filter(bool), st.integers(1, 3)).map(
        lambda t: Fraction(*t))
    monomial = st.tuples(mono, coeff).map(lambda t: Poly(ring, {t[0]: t[1]}))
    difference = st.tuples(mono, mono, coeff).filter(lambda t: t[0] != t[1]).map(
        lambda t: Poly(ring, {t[0]: t[2], t[1]: -t[2]}))
    gens = draw(st.lists(st.one_of(monomial, difference), min_size=1, max_size=4))
    for k, c in draw(st.lists(st.tuples(st.integers(0, len(gens) - 1), coeff),
                              max_size=2)):
        gens.append(gens[k] * c)
    perm = tuple(draw(st.permutations(range(n))))
    cut = draw(st.integers(1, n - 1))
    order = draw(st.sampled_from([
        lex_order(ring, perm), compile_order(ring, (perm,) + perm),
        y_order(ring, perm[0]), compile_order(ring, (perm[:cut], perm) + perm)]))
    return ring, order, gens


@given(binomial_ideals(), st.data())
@settings(max_examples=200, deadline=None)
def test_binomial_path_matches_the_fraction_path(case, data):
    # the appended g_i + x*g_j lies in the ideal and has three or more
    # terms, so the second run takes the Fraction path to the same basis
    ring, order, gens = case
    i, j = (data.draw(st.integers(0, len(gens) - 1)) for _ in range(2))
    x = ring.var(data.draw(st.sampled_from(ring.names)))
    extra = gens[i] + x * gens[j]
    assume(len(extra.terms) >= 3)
    assert buchberger(order, gens) == buchberger(order, gens + [extra])


# ---------------------------------------------------------------------------
# Exponents past the first field width of the packed monomials.

# generators, the order's variables (most significant first) and kind,
# and the widths that the run widens from
WIDE_CASES = [
    # inputs that fit the first width; S-pairs and reductions outgrow it
    (["x^100*y - z", "x*y^2 - z^3"], ("x", "y", "z"), "grlex", [8]),
    (["x^70*z - y^2", "y^3 - x*z^60"], ("z", "x", "y"), "lex", [8]),
    (["x^90 - 1/2*y^3 + z", "x*y - z^2"], ("x", "y", "z"), "grlex", [8]),
    # a reduction step outgrows it: of the initial term, and of the tail
    (["x^51*y*z^2 - y^83", "x*y - y^21"], ("x", "y", "z"), "lex", [8]),
    (["y*z^2 - y^2*z", "x^39*y^69*z^79 - x^63"], ("x", "y", "z"), "lex", [8]),
    # inputs that need two widenings before the pair loop starts
    (["x^40000 - y", "y^2 - z"], ("x", "y", "z"), "lex", [8, 16]),
]


@pytest.mark.parametrize("texts,spec,kind,widths", WIDE_CASES)
def test_wide_exponents_widen_the_packing_and_match_sympy(
        monkeypatch, texts, spec, kind, widths):
    widened = []
    wider = Packing.wider

    def spy(pk):
        widened.append(pk.width)
        return wider(pk)

    monkeypatch.setattr(Packing, "wider", spy)
    got = buchberger(sympy_order(kind, spec), [P(t) for t in texts])
    assert widened == widths
    assert {g.canonical() for g in got} == _sympy_gb(texts, kind, spec)


@pytest.mark.parametrize("arith", [_Binomials, _Fractions])
def test_an_s_polynomial_past_the_guard_raises(arith):
    # z > x > y: the S-polynomial of xz - y^100 and y^30 z - x is x^2 - y^130
    ar = arith(lex_order(XYZ, ("z", "x", "y")).packing)
    f, g = ar.store(P("x*z - y^100")), ar.store(P("y^30*z - x"))
    with pytest.raises(PackingOverflow):
        ar.reduce(s_polynomial(ar, f, g), [f, g])


# ---------------------------------------------------------------------------
# Membership and equality.

def test_ideal_membership():
    J = I("x^2 - y", "y^2 - z")
    assert ideal_contains(J, P("x^4 - z"))
    assert not ideal_contains(J, P("x - y"))
    assert ideal_contains(J, XYZ.zero())


def test_ideal_equal_independent_of_generators():
    assert ideal_equal(I("x + y", "x - y"), I("x", "y"))
    assert not ideal_equal(I("x + y"), I("x", "y"))
    assert ideal_contains(I("x", "y"), P("x + y"))


# ---------------------------------------------------------------------------
# Elimination, intersection, saturation.

def test_eliminate_parametrized_curve():
    R = Ring(["t", "x", "y"])
    J = Ideal(R, [parse_poly(R, "x - t^2"), parse_poly(R, "y - t^3")])
    E = eliminate(J, ["t"])
    assert E.ring.names == ("x", "y")
    assert gb_texts(E) == ["x^3 - y^2"]


def test_contract_drops_one_variable():
    J = I("x - y*z", "y^2 - z")
    K = eliminate(J, ["x"])
    assert K.ring.names == ("y", "z")
    assert gb_texts(K) == ["y^2 - z"]


def test_intersect_principal_ideals():
    assert gb_texts(intersect(I("x*y"), I("x^2"))) == ["x^2*y"]
    got = intersect(I("x + y"), I("x - y"))
    assert ideal_equal(got, I("x^2 - y^2"))


def test_intersect_with_trivial_ideals():
    J = I("x*y - z")
    assert intersect(J, Ideal.zero(XYZ)).is_zero_ideal()
    assert ideal_equal(intersect(J, Ideal.unit(XYZ)), J)


def test_saturate_variable():
    J = I("x^2*y", "x*y^2")
    assert gb_texts(saturate_variable(J, "y")) == ["x"]
    # already saturated ideal is unchanged
    K = I("x*z - y^2")
    assert ideal_equal(saturate_variable(K, "z"), K)


def test_saturation_can_hit_unit():
    assert saturate_variable(I("y^3"), "y").is_unit_ideal()


# ---------------------------------------------------------------------------
# Radicals.

def test_radical_membership():
    assert radical_contains(I("x^2"), P("x"))
    assert not radical_contains(I("x^2"), P("y"))
    # <x^2 + y^2> is prime over Q, hence radical, and xy is not in it
    assert not radical_contains(I("x^2 + y^2"), P("x*y"))


def test_radical_membership_square():
    assert radical_contains(I("x^2*y^4"), P("x*y"))


def test_radical_equal():
    assert radical_equal(I("x^2", "y"), I("x", "y^3"))
    assert not radical_equal(I("x^2", "y"), I("x"))


# ---------------------------------------------------------------------------
# Dimension and shape predicates.

def test_krull_dimension_basics():
    assert krull_dimension(Ideal.zero(XYZ)) == 3
    assert krull_dimension(Ideal.unit(XYZ)) == -1
    assert krull_dimension(I("x", "y", "z")) == 0
    assert krull_dimension(I("x*y", "x*z")) == 2
    assert krull_dimension(I("x^2")) == 2


def test_krull_dimension_curve():
    R = Ring(["x", "y"])
    assert krull_dimension(Ideal(R, [parse_poly(R, "x^3 - y^2")])) == 1


def test_generated_by_variables():
    assert is_generated_by_variables(I("x + y", "y"))
    assert is_generated_by_variables(Ideal.zero(XYZ))
    assert not is_generated_by_variables(I("x^2"))
    assert not is_generated_by_variables(Ideal.unit(XYZ))


def test_square_free_monomial_ideal():
    assert is_square_free_monomial_ideal(I("x*y", "y*z"))
    assert is_square_free_monomial_ideal(Ideal.zero(XYZ))
    assert not is_square_free_monomial_ideal(I("x^2*y"))
    assert not is_square_free_monomial_ideal(I("x*y - z"))
