"""Minimal primes of monomial ideals, the binomial-monomial splitting over
a graph, and unmixedness evidence."""

import json
from dataclasses import replace

import pytest

from gvdlab import components, graphs, groebner
from gvdlab.algebra import (
    ONE, Packing, Poly, Ring, initial_y_form, lex_order, parse_poly,
    storage_order, y_order,
)
from gvdlab.components import (
    SplitNotApplicable, UnmixednessEvidence, binomial_monomial_split,
    unmixedness_evidence,
)
from gvdlab.graphs import (
    complete_bipartite, complete_graph, cycle_graph, lifted_basis,
    toric_ideal, universal_groebner_basis,
)
from gvdlab.groebner import (
    Ideal, contract, ideal_contains, ideal_equal, minimal_generators,
)
from gvdlab.gvd import cn_split, is_gvd

from fixtures import (
    TWO_K4_C_E2, TWO_K4_LEX_E2_BASIS, TWO_K4_N_E2, corpus_nodes,
    counted_runs, empty_shared_memo, intersection, two_k4_sharing_vertex,
)
from graph_corpus import NINE_EDGE_GRAPHS, connected_graphs, to_graph

XYZ = Ring(["x", "y", "z"])


def I(*texts, ring=XYZ):
    return Ideal(ring, [parse_poly(ring, t) for t in texts])


# ---------------------------------------------------------------------------
# Monomial components: the split with no binomials and no graph.

def monomial_covers(J: Ideal) -> list:
    """The variable sets of the split's components of J's generators, all
    monomials, in cover order; each component is <W> of dimension n - |W|."""
    comps = binomial_monomial_split(J.gens, [], None, J.ring)
    assert all(c.removed_edges == () and c.toric_gens == () for c in comps)
    assert all(c.dimension == J.ring.arity - len(c.monomial_vars) for c in comps)
    return [frozenset(J.ring.names[i] for i in c.monomial_vars) for c in comps]


def test_components_of_principal_square_free():
    assert monomial_covers(I("x*y")) == [frozenset(["x"]), frozenset(["y"])]


def test_components_of_zero_ideal():
    assert monomial_covers(Ideal.zero(XYZ)) == [frozenset()]


def test_components_two_generators():
    R = Ring(["e2", "e5", "e8", "e9"])
    J = Ideal(R, [parse_poly(R, "e2*e5"), parse_poly(R, "e2*e8*e9")])
    assert monomial_covers(J) == [
        frozenset(["e2"]), frozenset(["e5", "e8"]), frozenset(["e5", "e9"])]


def test_components_of_non_square_free_are_those_of_the_radical():
    # The covers read only supports, so a generator that is not square-free
    # gives the minimal primes of its radical; the unit ideal has none.
    assert monomial_covers(I("x^2*y", "y^3*z")) == monomial_covers(I("x*y", "y*z"))
    assert monomial_covers(I("x^2*y")) == [frozenset(["x"]), frozenset(["y"])]
    with pytest.raises(SplitNotApplicable):
        monomial_covers(Ideal.unit(XYZ))


# ---------------------------------------------------------------------------
# Binomial-monomial splitting.

def test_split_single_monomial_no_binomials():
    comps = binomial_monomial_split([parse_poly(XYZ, "y")], [], None, XYZ)
    total = intersection([c.ideal(XYZ) for c in comps])
    assert len(comps) == 1
    assert ideal_equal(total, I("y"))
    assert comps[0].to_json_dict(XYZ.names)["M"] == ["y"]
    assert comps[0].dimension == 2


def test_split_variable_plus_cycle_binomial():
    G = complete_bipartite(2, 3)
    ring = G.edge_ring()
    mono = [parse_poly(ring, "e1")]
    bino = [parse_poly(ring, "e2*e6 - e3*e5")]
    comps = binomial_monomial_split(mono, bino, G, ring)
    total = intersection([c.ideal(ring) for c in comps])
    assert len(comps) == 1
    assert ideal_equal(total, Ideal(ring, mono + bino))
    assert comps[0].to_json_dict(ring.names) == {
        "M": ["e1"], "removed_edges": ["e1"], "dim": comps[0].dimension}
    got = comps[0].ideal(ring)
    assert ideal_equal(got, Ideal(ring, mono + bino))


def test_a_context_with_an_edge_outside_the_ring_raises():
    # The certifiers pass only contexts that lie in the ring (``is_gvd``
    # refuses any other), so nothing tests for that: a foreign edge raises
    # where the context is read, on the prime fast path and in the split.
    G = complete_bipartite(2, 3)
    ring = G.edge_ring()
    foreign = G.with_edges(["w"], [("f", "x1", "w")])
    toric = toric_ideal(G)
    mixed = toric.with_extra([parse_poly(ring, "e1*e2")])
    assert unmixedness_evidence(toric, G).status == "prime"
    assert unmixedness_evidence(mixed, G).components is not None
    for J in (toric, mixed):
        with pytest.raises(KeyError):
            unmixedness_evidence(J, foreign)


def test_a_forest_context_with_an_edge_outside_the_ring_raises():
    # A forest has no walk binomial, so no basis reads its edges; the split
    # reads them by ring position and raises, as it does for a context with
    # a cycle.  Read by name, the forest left by deleting e1 would add the
    # toric dimension 1 of its edge x to the component <e1> of Q[e1, e2],
    # whose dimension is 1.  ``is_gvd`` refuses both contexts.
    ring = Ring(["e1", "e2"])
    forest = graphs.Graph(["a", "b", "c", "d"], [("e1", "a", "b"), ("x", "c", "d")])
    square = graphs.Graph(["a", "b", "c", "d"], [
        ("e1", "a", "b"), ("e2", "b", "c"), ("x", "c", "d"), ("w", "d", "a")])
    e1 = parse_poly(ring, "e1")
    assert [c.dimension for c in binomial_monomial_split([e1], [], None, ring)] == [1]
    for context in (forest, square):
        with pytest.raises(KeyError):
            binomial_monomial_split([e1], [], context, ring)
        with pytest.raises(ValueError):
            is_gvd(Ideal(ring, [e1]), context=context)


def test_split_rejects_foreign_binomial():
    G = cycle_graph(4)
    ring = G.edge_ring()
    with pytest.raises(SplitNotApplicable):
        binomial_monomial_split([parse_poly(ring, "e1")],
                                [parse_poly(ring, "e2*e3 - e3*e4")], G, ring)


def test_split_of_nonradical_input_gives_minimal_primes():
    # This ideal contains e9^2*e10 but not e9*e10, so it is not radical and
    # its minimal primes can only intersect to the radical.
    G = two_k4_sharing_vertex().delete_edges(["e2"])
    ring = two_k4_sharing_vertex().edge_ring()  # e2 stays as a free variable
    gens = [parse_poly(ring, t) for t in TWO_K4_C_E2]
    C = Ideal(ring, gens)
    assert ideal_contains(C, parse_poly(ring, "e9^2*e10"))
    assert not ideal_contains(C, parse_poly(ring, "e9*e10"))
    monos = [g for g in gens if len(g.terms) == 1]
    binos = [g for g in gens if len(g.terms) == 2]
    comps = binomial_monomial_split(monos, binos, G, ring)
    assert {tuple(c.to_json_dict(ring.names)["M"]) for c in comps} == {
        ("e5", "e7", "e8", "e9"), ("e12", "e5", "e8", "e9"),
        ("e11", "e5", "e7", "e9"), ("e10", "e5", "e7", "e8")}
    assert {c.dimension for c in comps} == {7}
    total = intersection([c.ideal(ring) for c in comps])
    assert all(ideal_contains(total, g) for g in gens)
    assert ideal_contains(total, parse_poly(ring, "e9*e10"))


def test_split_of_graded_initial_form_ideal_isolates_deleted_edge():
    # The components of the e2-graded initial ideal of the benchmark toric
    # ideal include <e2> plus the toric ideal of the graph without e2.  The
    # initial ideal is not radical, so the equal dimensions are reported as
    # inconclusive evidence rather than a positive certificate.
    G = two_k4_sharing_vertex()
    ring = G.edge_ring()
    forms = [initial_y_form("e2", parse_poly(ring, t)) for t in TWO_K4_LEX_E2_BASIS]
    ev = unmixedness_evidence(Ideal(ring, forms), G)
    assert ev.status == "inconclusive"
    assert set(ev.dims) == {7}
    assert {"M": ["e2"], "removed_edges": ["e2"], "dim": 7} in (
        ev.to_json_dict(ring.names)["components"])


# ---------------------------------------------------------------------------
# Unmixedness evidence.

def test_evidence_trivial_ideals():
    assert unmixedness_evidence(Ideal.unit(XYZ)).status == "unit"
    assert unmixedness_evidence(Ideal.zero(XYZ)).status == "zero"
    assert unmixedness_evidence(I("x", "y")).status == "variables"
    assert unmixedness_evidence(I("x^2")).status == "principal"


def test_evidence_square_free_monomial_cases():
    ev = unmixedness_evidence(I("x*y", "x*z", "y*z"))
    assert ev.status == "equal-dims"
    assert ev.dims == (1, 1, 1)
    ev2 = unmixedness_evidence(I("x*y", "x*z"))
    assert ev2.status == "refuted"
    assert sorted(ev2.dims) == [1, 2]
    assert not ev2.conclusive_unmixed
    assert not ev.not_radical and not ev2.not_radical


def test_evidence_non_square_free_is_inconclusive():
    ev = unmixedness_evidence(I("x^2", "x*y"))
    assert ev.status == "inconclusive"
    # A minimal generator that is not square-free: x is in the radical
    # only.  Where the dimensions refute unmixedness, the evidence refutes
    # decomposability by itself.
    assert ev.not_radical
    ev2 = unmixedness_evidence(I("x^2*y", "x*z"))
    assert ev2.refuted


def test_not_radical_is_not_serialized():
    # The evidence holds variables by position, so it is the same object in
    # every ring of its arity, with the flag, and only its output is named.
    ev = unmixedness_evidence(I("x^2", "x*y"))
    assert ev.not_radical
    assert not unmixedness_evidence(I("x*y", "x*z", "y*z")).not_radical
    for names in (XYZ.names, ("c", "b", "a")):
        assert (ev.to_json_dict(names)
                == replace(ev, not_radical=False).to_json_dict(names))


def test_evidence_hidden_monomial_ideal_needs_no_context():
    # <e1, e1*e3 - e2*e4> = <e1, e2*e4>: the reduced basis is square-free
    # monomial, so covers decide unmixedness without a graph.
    G = cycle_graph(4)
    ring = G.edge_ring()
    J = Ideal(ring, [parse_poly(ring, "e1"), parse_poly(ring, "e2*e4")])
    K = Ideal(ring, [parse_poly(ring, "e1"), parse_poly(ring, "e1*e3 - e2*e4")])
    assert unmixedness_evidence(J, G).status == "equal-dims"
    assert unmixedness_evidence(K, None).status == "equal-dims"


def test_evidence_genuine_binomials_need_context():
    G = two_k4_sharing_vertex()
    ring = G.edge_ring()
    J = Ideal(ring, [parse_poly(ring, "e5"), parse_poly(ring, "e8*e11 - e7*e12")])
    assert unmixedness_evidence(J, None).status == "inconclusive"
    # Even with the graph at hand this stays inconclusive: the binomial part
    # is a proper subideal of the toric ideal of G minus e5, so no component
    # has the variables-plus-subgraph shape the machinery certifies.
    assert unmixedness_evidence(J, G).status == "inconclusive"


def test_minimal_generators_drop_redundant_elements():
    G = two_k4_sharing_vertex()
    ring = G.edge_ring()
    texts = TWO_K4_C_E2 + ["e7^2*e12", "e4*e8*e9 - e5*e6*e12"]
    J = Ideal(ring, [parse_poly(ring, t) for t in texts])
    kept = minimal_generators(J)
    assert len(kept) == len(TWO_K4_C_E2)
    assert ideal_equal(Ideal(ring, kept), J)


def test_evidence_recognizes_toric_subgraph_as_prime():
    G = two_k4_sharing_vertex()
    sub = G.delete_edges(["e2"])
    ring = Ring([n for n in G.edge_labels if n != "e2"])
    N = Ideal(ring, [parse_poly(ring, t) for t in TWO_K4_N_E2])
    assert unmixedness_evidence(N, sub).status == "prime"


def test_evidence_c_side_of_benchmark_splits_evenly():
    # The C-side ideal is not radical (e9*e10 lies outside it while its
    # square lies inside), so equal minimal-prime dimensions stay
    # inconclusive rather than certifying unmixedness.
    G = two_k4_sharing_vertex()
    ring = G.edge_ring()
    sub = G.delete_edges(["e2"])
    C = Ideal(ring, [parse_poly(ring, t) for t in TWO_K4_C_E2])
    ev = unmixedness_evidence(C, sub)
    assert ev.status == "inconclusive" and ev.not_radical
    assert set(ev.dims) == {7}
    assert not ideal_contains(C, parse_poly(ring, "e9*e10"))
    assert ideal_contains(C, parse_poly(ring, "e9^2*e10^2"))


def test_evidence_mixed_trinomial_is_inconclusive():
    ev = unmixedness_evidence(I("x + y + z", "x^2"))
    assert ev.status == "inconclusive"


def test_universal_basis_sign_sets_are_those_of_the_renamed_basis():
    # The last graph is cut from K4, whose basis the one before caches.
    K4 = complete_graph(4)
    for G in (cycle_graph(4), complete_bipartite(2, 3), K4,
              K4.delete_edges(["e1"])):
        ring = Ring(("t",) + G.edge_labels)
        assert components._ugb_signs(G, ring) == {
            frozenset(f.rename(ring).terms) for f in universal_groebner_basis(G)}


# B is the binomial part of the minimal generators of <t> + <B>, in the
# ring of K4's edges and t; I_K4 is generated by e1*e6 - e2*e5,
# e1*e6 - e3*e4 and e2*e5 - e3*e4.
PRIME_PATH_CASES = {
    # a binomial of I_K4 that is not primitive, and I_K4 not inside <B>
    "not primitive": (["e1*e6 - e2*e5", "e1^2*e6^2 - e3^2*e4^2"], False),
    # a binomial outside I_K4
    "outside": (["e1*e6 - e2*e5", "e1*e6 - e3*e4", "e1*e2 - e3*e4"], False),
    # I_K4 not inside <B>
    "too few": (["e1*e6 - e2*e5"], False),
    # two of the three generate the third
    "two of three": (["e1*e6 - e2*e5", "e2*e5 - e3*e4"], True),
}


@pytest.mark.parametrize("case", PRIME_PATH_CASES)
def test_prime_path_agrees_with_ideal_equality(case):
    texts, generates = PRIME_PATH_CASES[case]
    G = complete_graph(4)
    ring = Ring(G.edge_labels + ("t",))
    I = Ideal(ring, [parse_poly(ring, t) for t in ["t"] + texts])
    gens = minimal_generators(I)
    binoms = [g for g in gens if not g.is_monomial()]
    assert [g for g in gens if g.is_monomial()] == [ring.var("t")]
    assert len(binoms) == len(texts)
    # the sign sets differ, so the checks decide
    assert {frozenset(f.terms) for f in binoms} != components._ugb_signs(G, ring)
    ext = [f.rename(ring) for f in universal_groebner_basis(G)]
    assert ideal_equal(Ideal(ring, binoms), Ideal(ring, ext)) is generates
    assert components._generates_toric_ideal(I, binoms, G) is generates


def test_toric_tests_run_no_ideal_equality_on_two_k4(monkeypatch):
    # Neither the prime path nor the split compares ideals or reduces
    # anything: the checks scan the universal basis's initial terms for a
    # divisor among those of one reduced basis instead.
    monkeypatch.setattr(graphs, "_UGB_CACHE", {})
    empty_shared_memo(monkeypatch)
    calls = {"tests": 0, "scanned": 0, "ideal_equal": 0, "ideal_contains": 0,
             "reduced": 0}
    inside, divisors = [], [0]
    test, equal, contains = (components._generates_toric_ideal,
                             components.ideal_equal, groebner.ideal_contains)
    divisor = Packing.divisor

    def counted_test(J, *args):
        calls["tests"] += 1
        J.groebner()  # so that the only divisor scans inside are the test's
        before = divisors[0]
        inside.append(True)
        try:
            return test(J, *args)
        finally:
            inside.pop()
            calls["scanned"] += divisors[0] > before

    def counted_equal(*args):
        calls["ideal_equal"] += bool(inside)
        return equal(*args)

    def counted_contains(*args):
        calls["ideal_contains"] += bool(inside)
        return contains(*args)

    def counted_divisor(self, *args):
        divisors[0] += bool(inside)
        return divisor(self, *args)

    def counted_reduce(reduce):
        def counted(self, *args):
            calls["reduced"] += bool(inside)
            return reduce(self, *args)
        return counted

    monkeypatch.setattr(components, "_generates_toric_ideal", counted_test)
    monkeypatch.setattr(components, "ideal_equal", counted_equal)
    monkeypatch.setattr(groebner, "ideal_contains", counted_contains)
    monkeypatch.setattr(Packing, "divisor", counted_divisor)
    for arith in (groebner._Binomials, groebner._Fractions):
        monkeypatch.setattr(arith, "reduce", counted_reduce(arith.reduce))
    G = two_k4_sharing_vertex()
    assert is_gvd(toric_ideal(G), context=G).verdict == "not-gvd"
    assert calls["ideal_equal"] == calls["ideal_contains"] == calls["reduced"] == 0
    assert 0 < calls["scanned"] <= calls["tests"]


def test_evidence_reads_only_the_reduced_basis():
    # The evidence is a function of the ideal and the context: given by its
    # generators, by its reduced basis under the storage order and by its
    # lex basis, each node gets the same evidence.  The nodes are the toric
    # ideals of the 7-edge corpus, of the three 9-edge graphs and of two_k4,
    # and their contracted C and N branches down two split levels, each
    # distinct reduced basis once, over the first context met.
    graphs_ = [to_graph(n, edges)
               for n, edges in list(connected_graphs(7)) + list(NINE_EDGE_GRAPHS)]
    graphs_.append(two_k4_sharing_vertex())
    level = [(toric_ideal(G), G) for G in graphs_]
    nodes = {}
    for depth in range(3):
        grown = []
        for J, G in level:
            key = (J.ring.names, tuple(g.canonical() for g in J.groebner()))
            if key in nodes:
                continue
            nodes[key] = (J, G)
            if depth < 2:
                for y in J.ring.names:
                    split = cn_split(J, y)
                    grown += [(contract(B, y), G.delete_edges([y]))
                              for B in (split.C, split.N)]
        level = grown
    assert len(nodes) == 1575
    statuses = set()
    for J, G in nodes.values():
        ring = J.ring
        got = set()
        for K in (J, Ideal(ring, J.groebner()),
                  Ideal(ring, J.groebner(lex_order(ring)))):
            ev = unmixedness_evidence(K, G)
            got.add((json.dumps(ev.to_json_dict(ring.names), sort_keys=True),
                     ev.not_radical))
            statuses.add(ev.status)
        assert len(got) == 1, got
    assert statuses == {"zero", "unit", "variables", "principal", "prime",
                        "equal-dims", "inconclusive", "refuted"}


# ---------------------------------------------------------------------------
# Proven-prime nodes: the initial-term scan, the prime evidence read off the
# reduced basis, and the universal basis it hands to the ideal.

def basis_parts(J: Ideal, G):
    """J's reduced basis as its variables V and the rest B, with G less the
    edges in V; None unless B is nonempty and all unit binomials."""
    rgb = J.groebner()
    V = [g for g in rgb if g.is_variable()]
    B = [g for g in rgb if not g.is_variable()]
    if not B or any(components._binomial_sides(g) is None for g in B):
        return None
    names = {J.ring.names[g.support()[0]] for g in V}
    return V, B, G.delete_edges(names & set(G.edge_labels))


def lifted_polys(G, ring) -> list:
    return [Poly(ring, {a: ONE, b: -ONE}) for a, b in lifted_basis(G, ring).pairs]


def wider_corpus() -> list:
    """The corpus nodes, then those of two_k4 and K_{3,3}, whose bases
    hold more binomials than the corpus's."""
    return corpus_nodes() + corpus_nodes([two_k4_sharing_vertex(),
                                          complete_bipartite(3, 3)])


def test_the_initial_term_scan_agrees_with_membership(monkeypatch):
    # Over the corpus ideals and their C and N branches, and those of two_k4
    # and K_{3,3}, whose reduced basis is variables V and unit binomials B: B, and B less any one element,
    # generate the toric ideal of the context less V's edges exactly when
    # they lie in it and its universal basis lies in <V> + <B>, the
    # membership test that the scan of initial terms replaced.  The scan
    # reduces nothing.
    reductions, inside = [0], []
    for arith in (groebner._Binomials, groebner._Fractions):
        def counted(self, *args, reduce=arith.reduce):
            reductions[0] += bool(inside)
            return reduce(self, *args)
        monkeypatch.setattr(arith, "reduce", counted)
    outcomes = set()
    for J, G in wider_corpus():
        parts = basis_parts(J, G)
        if parts is None:
            continue
        V, B, sub = parts
        ugb = lifted_polys(sub, J.ring)
        for drop in [None] + list(range(len(B))):
            kept = [b for i, b in enumerate(B) if i != drop]
            K = Ideal(J.ring, V + kept)
            K.groebner()
            inside.append(True)
            got = components._generates_toric_ideal(K, kept, sub)
            inside.pop()
            in_toric = ideal_contains(Ideal(J.ring, ugb), *kept)
            assert got == (in_toric and ideal_contains(K, *ugb))
            outcomes.add((got, in_toric))
    assert reductions[0] == 0
    assert outcomes == {(True, True), (False, True)}


PRIME = UnmixednessEvidence("prime", "variables plus the toric ideal of the "
                                     "context subgraph, hence prime")


def test_prime_evidence_is_the_minimal_generator_paths(monkeypatch):
    # The evidence says "prime" before any minimal generator is taken,
    # exactly where the path it replaced did: the minimal generators of the
    # reduced basis are variables V and unit binomials, and the ideal is
    # <V> plus the toric ideal of the context less V's edges.
    real, calls = minimal_generators, []
    monkeypatch.setattr(components, "minimal_generators",
                        lambda I: calls.append(I) or real(I))
    seen = set()
    for J, G in corpus_nodes():
        rgb = J.groebner()
        if components.base_evidence(rgb) is not None or len(rgb) == 1:
            continue
        gens = rgb if all(g.is_monomial() for g in rgb) else real(Ideal(J.ring, rgb))
        parts = basis_parts(Ideal(J.ring, gens), G)
        prime = parts is not None and ideal_equal(
            J, Ideal(J.ring, parts[0] + lifted_polys(parts[2], J.ring)))
        calls.clear()
        ev = unmixedness_evidence(J, G)
        assert (ev == PRIME) is prime
        assert not (prime and calls)
        seen.add(prime)
    assert seen == {True, False}


def test_a_prime_node_reads_every_basis_off_its_universal_basis(monkeypatch):
    # A node of the corpus, two_k4 or K_{3,3} whose evidence says "prime"
    # keeps the universal basis of its variables and subgraph, and a basis
    # read off it under the storage order or under y_order at any variable
    # is Buchberger's, term for term, with no run.
    real = groebner.buchberger
    runs = counted_runs(monkeypatch)
    read = 0
    for J, G in wider_corpus():
        if unmixedness_evidence(J, G) != PRIME:
            continue
        ring = J.ring
        for order in [storage_order(ring)] + [y_order(ring, y) for y in ring.names]:
            fresh = Ideal(ring, J.gens)
            fresh._universal = J._universal
            runs.clear()
            got = fresh.groebner(order)
            assert runs == []
            want = real(order, J.gens)
            assert [list(g.terms.items()) for g in got] == [
                list(g.terms.items()) for g in want]
            read += 1
    assert read > 0


def test_the_selected_basis_is_buchbergers():
    # On every prime node of the corpus, two_k4 and K_{3,3}, the slot holds
    # data, V and the lifted pairs, and the basis selected from them under
    # the storage order, lex and y_order at every variable is Buchberger's,
    # term for term.
    selected = 0
    for J, G in wider_corpus():
        if unmixedness_evidence(J, G) != PRIME:
            continue
        V, pairs = J._universal
        assert all(v.is_variable() for v in V) and isinstance(pairs, tuple)
        ring = J.ring
        for order in ([storage_order(ring), lex_order(ring)]
                      + [y_order(ring, y) for y in ring.names]):
            got = groebner.selected_basis(order, V, pairs)
            want = groebner.buchberger(order, J.gens)
            assert [list(g.terms.items()) for g in got] == [
                list(g.terms.items()) for g in want]
            selected += 1
    assert selected == 584


def test_a_node_that_is_not_prime_keeps_no_universal_basis():
    # Evidence that does not say "prime" leaves the ideal with no universal
    # basis, and its y-order bases are still Buchberger's, term for term.
    # The nodes are those of the corpus, two_k4 and K_{3,3}, each prime one
    # again with no context, and each prime one less the largest binomial
    # of its reduced basis, whose basis is variables and unit binomials
    # that may no longer generate a toric ideal.
    nodes = []
    for J, G in wider_corpus():
        if unmixedness_evidence(J, G) != PRIME:
            nodes.append((J, G))
            continue
        nodes.append((Ideal(J.ring, J.gens), None))
        V, B, _ = basis_parts(J, G)
        if len(B) > 1:
            nodes.append((Ideal(J.ring, V + B[:-1]), G))
    tested = 0
    for J, G in nodes:
        if unmixedness_evidence(J, G) == PRIME:
            continue
        assert J._universal is None
        for y in J.ring.names:
            order = y_order(J.ring, y)
            assert [list(g.terms.items()) for g in J.groebner(order)] == [
                list(g.terms.items()) for g in groebner.buchberger(order, J.gens)]
        tested += (G is not None and len(J.groebner()) > 1
                   and basis_parts(J, G) is not None)
    assert tested > 0
