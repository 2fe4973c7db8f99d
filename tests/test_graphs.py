"""Graphs, incidence kernels, universal bases, and the graph operations."""

import pytest

from gvdlab import graphs
from gvdlab.algebra import Packing, Ring, lex_order, parse_poly
from gvdlab.groebner import (
    Ideal, _Binomials, _Fractions, ideal_equal, s_polynomial,
)
from gvdlab.graphs import (
    Graph, complete_bipartite, complete_graph, cycle_graph, disjoint_union,
    ferrers_graph, four_cycles_containing, glue_even_cycle, graver_basis,
    is_gap_free, lifted_basis, path_graph, toric_dimension, toric_ideal,
    universal_groebner_basis, vector_to_binomial,
)

from graph_corpus import connected_graphs, to_graph
from fixtures import (
    TWO_K4_GENERATORS, census9_graphs, graver_completion, has_four_cycle,
    incidence_matrix, integer_kernel_basis, k2d_with_path,
    k2d_with_path_universal_basis, krull_dimension, oriented_minimal,
    primitive_walk_binomials, rational_rank, remove_leaves_fixpoint,
    seeded_rng, three_k4_sharing_vertex, two_k4_sharing_vertex,
    two_triangles_bridged,
)


def texts(polys):
    return sorted(str(f) for f in polys)


# ---------------------------------------------------------------------------
# Graph basics.

def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(["a"], [("e1", "a", "a")])  # loop
    with pytest.raises(ValueError):
        Graph(["a", "b"], [("e1", "a", "b"), ("e2", "b", "a")])  # parallel
    with pytest.raises(ValueError):
        Graph(["a", "b"], [("e1", "a", "c")])  # unknown endpoint


def test_components_and_bipartite():
    G = disjoint_union(cycle_graph(4), cycle_graph(3))
    assert len(G.components()) == 2
    assert not G.is_bipartite()
    assert cycle_graph(6).is_bipartite()
    assert not cycle_graph(5).is_bipartite()


# ---------------------------------------------------------------------------
# Incidence kernel.

def test_kernel_of_4_cycle():
    K = integer_kernel_basis(incidence_matrix(cycle_graph(4)))
    assert len(K) == 1
    assert K[0] in ((1, -1, 1, -1), (-1, 1, -1, 1))


def test_kernel_rank_complement():
    for G in [cycle_graph(5), complete_graph(4), complete_bipartite(2, 3),
              two_k4_sharing_vertex()]:
        A = incidence_matrix(G)
        K = integer_kernel_basis(A)
        assert len(K) == len(G.edges) - rational_rank(A)
        for u in K:
            assert all(sum(a * x for a, x in zip(row, u)) == 0 for row in A)


def test_graver_of_trivial_lattices():
    assert graver_completion([]) == []
    assert graver_completion([(0, 0)]) == []


def test_graver_completion_widens_for_large_entries(monkeypatch):
    # The Graver basis of ker [1, 2, 200] is (2, -1, 0) and the 101 vectors
    # (200 - 2b, b, -1): a conformally smaller vector with last entry 0 would
    # be a multiple of (2, -1, 0), and with -1 it would equal the vector.
    # Entries of 200 do not fit the first field width.
    widened = []
    wider = Packing.wider

    def spy(pk):
        widened.append(pk.width)
        return wider(pk)

    monkeypatch.setattr(Packing, "wider", spy)
    assert graver_completion(integer_kernel_basis([[1, 200]])) == [(200, -1)]
    assert widened == [8]
    expected = sorted([(2, -1, 0)] + [(200 - 2 * b, b, -1) for b in range(101)])
    assert graver_completion(integer_kernel_basis([[1, 2, 200]])) == expected
    assert widened == [8, 8]
    # entries that fit, whose sums do not: (100, -101, 1) - (-90, 89, 1)
    lattice = [(100, -101, 1), (-90, 89, 1)]
    assert graver_completion(lattice) == plain_completion(lattice)
    assert widened == [8, 8, 8]


def plain_completion(basis):
    """Pottier's completion on plain integer tuples, forming every pair."""
    def below(s, f):
        return all(a * b >= 0 and abs(a) <= abs(b) for a, b in zip(s, f))

    S = []
    for b in basis:
        for v in (tuple(b), tuple(-x for x in b)):
            if any(v) and v not in S:
                S.append(v)
    pairs = [(i, j) for i in range(len(S)) for j in range(i)]
    while pairs:
        i, j = pairs.pop()
        f = tuple(a + b for a, b in zip(S[i], S[j]))
        while any(f):
            s = next((s for s in S if below(s, f)), None)
            if s is None:
                pairs += [(len(S), k) for k in range(len(S))]
                S.append(f)
                break
            f = tuple(a - b for a, b in zip(f, s))
    return oriented_minimal(S)


# ---------------------------------------------------------------------------
# Universal bases: frozen small cases.

def test_universal_basis_cycles():
    assert texts(universal_groebner_basis(cycle_graph(4))) == ["e1*e3 - e2*e4"]
    assert texts(universal_groebner_basis(cycle_graph(6))) == ["e1*e3*e5 - e2*e4*e6"]
    assert universal_groebner_basis(cycle_graph(5)) == ()


def test_universal_basis_k4():
    # the three differences of perfect-matching products
    assert texts(universal_groebner_basis(complete_graph(4))) == [
        "e1*e6 - e2*e5", "e1*e6 - e3*e4", "e2*e5 - e3*e4"]


def test_universal_basis_k23():
    assert texts(universal_groebner_basis(complete_bipartite(2, 3))) == [
        "e1*e5 - e2*e4", "e1*e6 - e3*e4", "e2*e6 - e3*e5"]


def test_universal_basis_closed_form_family():
    for r, d in [(2, 2), (3, 2), (2, 3)]:
        G = k2d_with_path(r, d)
        assert set(universal_groebner_basis(G)) == k2d_with_path_universal_basis(r, d)


def test_forest_has_zero_ideal():
    assert universal_groebner_basis(path_graph(5)) == ()
    assert toric_ideal(path_graph(5)).gens == ()


# ---------------------------------------------------------------------------
# Completion agrees with the independent walk oracle.

WALK_ORACLE_GRAPHS = [
    cycle_graph(4), cycle_graph(5), cycle_graph(6),
    complete_graph(4), complete_bipartite(2, 3),
    ferrers_graph([3, 2, 1]),
    # two triangles sharing one vertex
    Graph(["a", "b", "c", "d", "e"],
          [("e1", "a", "b"), ("e2", "b", "c"), ("e3", "c", "a"),
           ("e4", "c", "d"), ("e5", "d", "e"), ("e6", "e", "c")]),
    two_triangles_bridged(),
]


@pytest.mark.parametrize("G", WALK_ORACLE_GRAPHS, ids=lambda g: repr(g))
def test_completion_matches_walk_enumeration(G):
    assert set(universal_groebner_basis(G)) == primitive_walk_binomials(G)


@pytest.mark.parametrize("G", WALK_ORACLE_GRAPHS, ids=lambda g: repr(g))
def test_graver_basis_matches_walk_enumeration(G):
    # graver_basis itself (no cache), checked against the walk oracle and
    # against the componentwise definition of the conformal order.
    A = incidence_matrix(G)
    vectors = graver_basis(G)
    assert vectors == sorted(set(vectors))
    ring = G.edge_ring()
    assert {vector_to_binomial(ring, u) for u in vectors} == primitive_walk_binomials(G)
    for u in vectors:
        assert all(sum(a * x for a, x in zip(row, u)) == 0 for row in A)
        for v in vectors:
            for w in (v, tuple(-x for x in v)):
                below = all(a * b >= 0 and abs(a) <= abs(b) for a, b in zip(w, u))
                assert not below or w == u


BIPARTITE_GRAPHS = [G for G in (to_graph(n, edges) for n, edges in connected_graphs(7))
                    if G.is_bipartite()] + [
    ferrers_graph([3, 2, 1]), complete_bipartite(2, 5), complete_bipartite(3, 4),
    # edges listed against the vertex order, so orientation is not free
    Graph(complete_bipartite(3, 4).vertices, reversed(complete_bipartite(3, 4).edges))]


def completion(G):
    """The Graver basis of G by Pottier completion, the oracle."""
    return graver_completion(integer_kernel_basis(incidence_matrix(G)))


def test_bipartite_graver_basis_is_the_completion():
    # Both uncached: universal_groebner_basis would answer from its cache.
    assert len(BIPARTITE_GRAPHS) == 72
    for G in BIPARTITE_GRAPHS:
        assert graver_basis(G) == completion(G)


def graph_of(*edges) -> Graph:
    """The graph on the vertex pairs ``edges``, labelled e1, e2, ... in
    order."""
    vertices = sorted({v for e in edges for v in e})
    return Graph(vertices, [("e%d" % i, u, v) for i, (u, v) in enumerate(edges, 1)])


def triangle_at(v: str, tag: str) -> tuple:
    """The edges of a triangle on v and two new vertices named after tag."""
    a, b = tag + "1", tag + "2"
    return (v, a), (a, b), (b, v)


C4 = (("a", "b"), ("b", "c"), ("c", "d"), ("d", "a"))
C5 = (("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "a"))

# Graphs with primitive walks that are not circuits, or close to having
# them, and the sizes of their Graver bases.
BLOCK_WALK_GRAPHS = {
    "C4 with triangles at two adjacent vertices":
        (graph_of(*C4, *triangle_at("a", "p"), *triangle_at("b", "q")), 4),
    "C4 with triangles at two opposite vertices":
        (graph_of(*C4, *triangle_at("a", "p"), *triangle_at("c", "q")), 4),
    "C4 with triangles at three vertices":
        (graph_of(*C4, *triangle_at("a", "p"), *triangle_at("b", "q"),
                  *triangle_at("c", "r")), 10),
    "a triangle with a triangle at each vertex":
        (graph_of(("a", "b"), ("b", "c"), ("c", "a"), *triangle_at("a", "p"),
                  *triangle_at("b", "q"), *triangle_at("c", "r")), 10),
    "C5 with two triangles":
        (graph_of(*C5, *triangle_at("a", "p"), *triangle_at("b", "q")), 4),
    "triangle, path, C4, path, triangle":
        (graph_of(*triangle_at("s", "p"), ("s", "t"), ("t", "a"), *C4,
                  ("c", "u"), ("u", "w"), *triangle_at("w", "q")), 4),
}

ORACLE_GRAPHS = WALK_ORACLE_GRAPHS + [
    complete_graph(5), complete_graph(6), complete_bipartite(3, 4),
    two_k4_sharing_vertex(), three_k4_sharing_vertex(),
] + [G for G, _ in BLOCK_WALK_GRAPHS.values()]


@pytest.mark.parametrize("G", ORACLE_GRAPHS, ids=lambda g: repr(g))
def test_graver_basis_is_the_completion(G):
    assert graver_basis(G) == completion(G)


@pytest.mark.parametrize("name", BLOCK_WALK_GRAPHS)
def test_block_walk_graphs_have_their_graver_sizes(name):
    G, size = BLOCK_WALK_GRAPHS[name]
    assert len(graver_basis(G)) == size


def test_graver_basis_is_the_completion_on_the_corpus():
    graphs = [to_graph(n, edges) for n, edges in connected_graphs(7)]
    assert len(graphs) == 131
    assert [graver_basis(G) for G in graphs] == [completion(G) for G in graphs]


def test_graver_basis_is_the_completion_on_random_graphs():
    rng = seeded_rng(0, "graver-random")
    for _ in range(24):
        n = rng.randint(4, 9)
        pairs = [("v%d" % a, "v%d" % b) for a in range(n) for b in range(a + 1, n)]
        rng.shuffle(pairs)
        G = graph_of(*pairs[:rng.randint(n - 1, min(12, len(pairs)))])
        assert graver_basis(G) == completion(G)


@pytest.mark.parametrize("seed", [0, 1])
def test_graver_basis_is_the_completion_on_census9(seed):
    graphs = census9_graphs(seed)
    assert len(graphs) == 710
    assert [graver_basis(G) for G in graphs] == [completion(G) for G in graphs]


def test_complete_graph_graver_sizes():
    # Every primitive walk of K7 is a circuit: one that is not needs three
    # cycles, and so eight vertices at least.  Pottier completion of K7 did
    # not finish in ten minutes; K6 is checked against it above.
    assert len(graver_basis(complete_graph(6))) == 285
    G = complete_graph(7)
    K7 = graver_basis(G)
    assert len(K7) == 3360
    for u in K7:  # an even cycle, or two odd cycles and a path: circuits
        ends = {v for j, x in enumerate(u) if x for v in G.edges[j][1:]}
        assert sum(map(bool, u)) - len(ends) + 1 <= 2


def is_cycle_binomial(G, f) -> bool:
    """Whether f = x^a - x^b with a and b the alternate edges of one cycle
    of G."""
    if len(f.terms) != 2 or any(e > 1 for m in f.terms for e in m):
        return False
    names = f.ring.names
    sides = [{names[i] for i, e in enumerate(m) if e} for m in f.terms]
    cycle = G.delete_edges(set(G.edge_labels) - sides[0] - sides[1])
    cycle = cycle.delete_vertices(v for v in cycle.vertices if not cycle.degree(v))
    return (len(cycle.components()) == 1
            and all(sorted(label in sides[0] for label, _ in cycle.neighbors(v))
                    == [False, True] for v in cycle.vertices))


def test_k44_basis_is_its_even_cycles():
    G = complete_bipartite(4, 4)
    basis = universal_groebner_basis(G)
    degrees = [f.total_degree() for f in basis]
    assert [degrees.count(d) for d in (2, 3, 4)] == [36, 96, 72]
    assert len(basis) == 204
    assert all(is_cycle_binomial(G, f) for f in basis)
    ring = G.edge_ring()
    for text in ("e1*e2 - e5*e6", "e1*e6*e11*e16 - e2*e5*e12*e15"):
        assert not is_cycle_binomial(G, parse_poly(ring, text))
    gens = toric_ideal(G).gens
    assert len(gens) == 36 and all(f.total_degree() == 2 for f in gens)


def test_each_cache_miss_calls_graver_basis_once(monkeypatch):
    # The benchmark's trace counts graphs.graver_basis calls against
    # universal_groebner_basis calls, whichever way the basis is found.
    calls = []
    real = graphs.graver_basis
    monkeypatch.setattr(graphs, "graver_basis", lambda G: calls.append(G) or real(G))
    monkeypatch.setattr(graphs, "_UGB_CACHE", {})
    bipartite, other = complete_bipartite(2, 3), complete_graph(4)
    for G in (bipartite, other, bipartite, other):
        assert universal_groebner_basis(G)
    assert calls == [bipartite, other]


def test_universal_basis_cache_is_capped_and_drops_the_oldest(monkeypatch):
    calls = []
    real = graphs.graver_basis
    monkeypatch.setattr(graphs, "graver_basis", lambda G: calls.append(G) or real(G))
    monkeypatch.setattr(graphs, "_UGB_CACHE", {})
    monkeypatch.setattr(graphs, "_UGB_CACHE_SIZE", 2)
    a, b, c = cycle_graph(4), complete_bipartite(2, 3), complete_graph(4)
    for G in (a, b, c):
        universal_groebner_basis(G)
        assert len(graphs._UGB_CACHE) <= 2
    assert universal_groebner_basis(c) and universal_groebner_basis(b)
    assert calls == [a, b, c]  # the repeated lookups hit
    universal_groebner_basis(a)  # evicted as the oldest: a miss
    assert calls == [a, b, c, a] and len(graphs._UGB_CACHE) == 2


def test_lifted_basis_cache_is_capped_and_drops_the_oldest(monkeypatch):
    # Each (graph, ring) pair is lifted once: a repeated lift hits, a hit
    # is what a fresh lift gives, the table keeps at most _UGB_CACHE_SIZE
    # entries and drops the oldest first, and a ring missing an edge
    # raises KeyError on a miss.
    K4 = complete_graph(4)
    a, b, c = (K4.delete_edges([e]) for e in ("e1", "e2", "e3"))
    ring = Ring(("t",) + K4.edge_labels)
    lifts = []
    real = graphs._restricted_basis

    def counted(G, into):
        if into.names == ring.names:  # not a universal basis's own lift
            lifts.append(G)
        return real(G, into)
    monkeypatch.setattr(graphs, "_restricted_basis", counted)
    monkeypatch.setattr(graphs, "_LIFTED", {})
    monkeypatch.setattr(graphs, "_UGB_CACHE_SIZE", 2)
    first = {}
    for G in (a, b, c):
        first[G] = lifted_basis(G, ring)
        assert len(graphs._LIFTED) <= 2
    assert lifted_basis(c, ring) is first[c]
    assert lifts == [a, b, c]  # the repeated lookups hit
    assert lifted_basis(a, ring) is not first[a]  # evicted as the oldest
    assert lifts == [a, b, c, a] and len(graphs._LIFTED) == 2
    for G in (a, b, c):
        hit = lifted_basis(G, ring)
        monkeypatch.setattr(graphs, "_LIFTED", {})
        fresh = lifted_basis(G, ring)
        assert fresh is not hit
        assert (fresh.pairs, fresh.signs, fresh.key, fresh.leads) == (
            hit.pairs, hit.signs, hit.key, hit.leads)
    for H in (a, cycle_graph(4), path_graph(3)):  # path_graph(3): a forest
        with pytest.raises(KeyError):
            lifted_basis(H, Ring(H.edge_labels[1:]))


def completed_basis(H):
    """The universal basis of a fresh copy of H, with no parent to restrict
    from, built from ``graver_basis`` and sorted as the library sorts it."""
    fresh = Graph(H.vertices, H.edges)
    assert fresh.parent is None
    ring = fresh.edge_ring()
    polys = [vector_to_binomial(ring, u) for u in graver_basis(fresh)]
    return tuple(sorted(polys, key=lambda f: (f.total_degree(), f.canonical())))


def test_restricted_basis_is_the_completed_one(monkeypatch):
    # Every one- and two-edge deletion, restricted from the root (directly,
    # and past an ancestor with no cached basis) and from a restricted
    # one-edge deletion, against the basis of a fresh copy.  ``lifted_basis``
    # gives the same binomials x^a - x^b, as pairs (a, b), in the same
    # order, in the graph's ring and in one with the edges reversed and one
    # more variable.
    roots = [to_graph(n, edges) for n, edges in connected_graphs(7)]
    roots += [complete_graph(5), two_k4_sharing_vertex()]
    completions = []
    monkeypatch.setattr(graphs, "graver_basis", completions.append)
    expected, compared = {}, 0

    def check(H):
        nonlocal compared
        want = expected.get(H.edges)
        if want is None:
            want = expected[H.edges] = completed_basis(H)
        got = universal_groebner_basis(H)
        for ring in (H.edge_ring(), Ring(("t",) + H.edge_labels[::-1])):
            assert list(lifted_basis(H, ring).pairs) == [
                tuple(f.rename(ring).terms) for f in want]
        assert all(list(f.terms.values()) == [1, -1] for f in want)
        assert not completions
        assert got == want
        assert [list(f.terms) for f in got] == [list(f.terms) for f in want]
        compared += 1

    for G in roots:
        expected.clear()
        labels = G.edge_labels
        root = {(G.vertices, G.edges): completed_basis(G)}
        monkeypatch.setattr(graphs, "_UGB_CACHE", dict(root))
        monkeypatch.setattr(graphs, "_LIFTED", {})
        for i, a in enumerate(labels):
            for b in labels[i + 1:]:
                check(G.delete_edges([a]).delete_edges([b]))
        monkeypatch.setattr(graphs, "_UGB_CACHE", dict(root))
        monkeypatch.setattr(graphs, "_LIFTED", {})
        for i, a in enumerate(labels):
            H = G.delete_edges([a])
            check(H)
            for b in labels[i + 1:]:
                check(H.delete_edges([b]))
    assert compared == 5607
    with pytest.raises(KeyError):
        lifted_basis(H, Ring(H.edge_labels[1:]))


def test_subgraph_without_cached_ancestor_completes_once(monkeypatch):
    calls = []
    real = graphs.graver_basis
    monkeypatch.setattr(graphs, "graver_basis", lambda G: calls.append(G) or real(G))
    monkeypatch.setattr(graphs, "_UGB_CACHE", {})
    H = complete_graph(5).delete_edges(["e1"])
    assert universal_groebner_basis(H)
    assert universal_groebner_basis(H.delete_edges(["e2"]))
    assert universal_groebner_basis(H.delete_edges(["e3"]).delete_edges(["e4"]))
    assert calls == [H]


def test_two_triangles_bridged_is_principal():
    assert texts(universal_groebner_basis(two_triangles_bridged())) == [
        "e1*e4^2*e6*e7 - e2*e3*e5^2*e8"]


# ---------------------------------------------------------------------------
# Toric ideals.

def test_toric_ideal_c4():
    I = toric_ideal(cycle_graph(4))
    assert texts(I.gens) == ["e1*e3 - e2*e4"]


def test_toric_ideal_two_k4_matches_displayed_generators():
    G = two_k4_sharing_vertex()
    I = toric_ideal(G)
    expected = Ideal(G.edge_ring(),
                     [parse_poly(G.edge_ring(), t) for t in TWO_K4_GENERATORS])
    assert ideal_equal(I, expected)
    assert len(I.gens) == 13


def test_universal_property_sampled_lex_orders():
    # every universal basis is a Groebner basis under any sampled lex order
    rng = seeded_rng(7, "universal-property")
    for G in [cycle_graph(6), complete_graph(4), complete_bipartite(2, 3)]:
        ring = G.edge_ring()
        U = list(universal_groebner_basis(G))
        for _ in range(10):
            perm = list(ring.names)
            rng.shuffle(perm)
            o = lex_order(ring, perm)
            for arith in (_Binomials, _Fractions):  # U is binomial
                ar = arith(o.packing)
                stored = [ar.store(f) for f in U]
                for i in range(len(U)):
                    for j in range(i + 1, len(U)):
                        s = s_polynomial(ar, stored[i], stored[j])
                        assert ar.reduce(s, stored) is None


def test_subgraphs_are_the_graphs_a_checked_construction_builds():
    # delete_edges and delete_vertices skip the checks that a subgraph of a
    # valid graph cannot fail.
    G = two_k4_sharing_vertex()
    cases = [(G.delete_edges(["e2", "e7"]),
              Graph(G.vertices, [e for e in G.edges if e[0] not in ("e2", "e7")])),
             (G.delete_vertices(["x1", "x4"]),
              Graph([v for v in G.vertices if v not in ("x1", "x4")],
                    [e for e in G.edges if not {"x1", "x4"} & set(e[1:])]))]
    for H, ref in cases:
        assert (H.vertices, H.edges) == (ref.vertices, ref.edges)
        assert all(H.neighbors(v) == ref.neighbors(v) for v in ref.vertices)
    assert cases[0][0].parent is G and cases[1][0].parent is None
    with pytest.raises(KeyError):
        G.delete_edges(["e2", "nope"])


# ---------------------------------------------------------------------------
# Dimension.

def test_toric_dimension_formula_matches_rank():
    # Besides the families, every graph of the 7-edge corpus, and a union
    # of a bipartite and an odd component with an isolated vertex.
    union = disjoint_union(cycle_graph(3), cycle_graph(4))
    graphs = [cycle_graph(4), cycle_graph(5), complete_graph(4),
              complete_bipartite(3, 3), ferrers_graph([5, 3, 2, 1]),
              two_k4_sharing_vertex(), path_graph(4), union,
              union.with_edges(["w"], [])]
    graphs += [to_graph(n, edges) for n, edges in connected_graphs(7)]
    assert len(graphs) == 9 + 131
    for G in graphs:
        assert toric_dimension(G) == rational_rank(incidence_matrix(G))


def test_toric_dimension_matches_krull():
    for G in [cycle_graph(4), complete_graph(4), complete_bipartite(2, 3)]:
        assert toric_dimension(G) == krull_dimension(toric_ideal(G))


def test_isolated_vertices_do_not_count():
    G = Graph(["a", "b", "c"], [("e1", "a", "b")])
    assert toric_dimension(G) == 1


# ---------------------------------------------------------------------------
# Leaf removal.

def test_remove_leaves_path():
    assert remove_leaves_fixpoint(path_graph(5)).edges == ()


def test_remove_leaves_keeps_cycle():
    G = cycle_graph(4).with_edges(["p"], [("e9", "x1", "p")])
    core = remove_leaves_fixpoint(G)
    assert core.edge_labels == ("e1", "e2", "e3", "e4")


def test_leaf_removal_preserves_toric_ideal():
    G = cycle_graph(4).with_edges(["p", "q"], [("e9", "x1", "p"), ("e10", "p", "q")])
    core = remove_leaves_fixpoint(G)
    I_core = toric_ideal(core).rename(G.edge_ring())
    assert ideal_equal(toric_ideal(G), I_core)


# ---------------------------------------------------------------------------
# Gluing.

def test_glue_4_cycle_onto_4_cycle():
    H, F = glue_even_cycle(cycle_graph(4), "e1", 4)
    assert len(H.edges) == 7
    # F = f1*f3 - e1*f2 (canonical display leads with the e1 term)
    assert str(F) == "-e1*f2 + f1*f3"
    assert ideal_equal(toric_ideal(H),
                       toric_ideal(cycle_graph(4)).rename(H.edge_ring()).with_extra([F]))


def test_glue_onto_tree_edge_gives_single_cycle():
    H, F = glue_even_cycle(path_graph(2), "e1", 6)
    I = toric_ideal(H)
    assert len(I.gens) == 1
    assert ideal_equal(I, Ideal(H.edge_ring(), [F]))


def test_glue_rejects_bad_input():
    with pytest.raises(ValueError):
        glue_even_cycle(cycle_graph(4), "e1", 5)
    with pytest.raises(KeyError):
        glue_even_cycle(cycle_graph(4), "nope", 4)


def test_iterated_gluing_labels_stay_fresh():
    H1, _ = glue_even_cycle(cycle_graph(4), "e1", 4)
    H2, F2 = glue_even_cycle(H1, "f1", 4)
    assert set(H1.edge_labels) < set(H2.edge_labels)
    # F2 = f4*f6 - f1*f5
    assert str(F2) == "-f1*f5 + f4*f6"


# ---------------------------------------------------------------------------
# Disjoint union.

def test_disjoint_union_renames_and_sums_ideals():
    G = disjoint_union(cycle_graph(4), cycle_graph(4))
    U = universal_groebner_basis(G)
    assert len(U) == 2
    assert len(G.edges) == 8


def test_disjoint_union_with_odd_cycle():
    G = disjoint_union(cycle_graph(4), cycle_graph(3))
    assert texts(universal_groebner_basis(G)) == ["e1*e3 - e2*e4"]


# ---------------------------------------------------------------------------
# Gap-freeness and 4-cycles.

def test_gap_free_cases():
    assert is_gap_free(complete_graph(4))
    assert is_gap_free(cycle_graph(4))
    assert not is_gap_free(cycle_graph(6))
    two_edges = Graph(["a", "b", "c", "d"], [("e1", "a", "b"), ("e2", "c", "d")])
    assert not is_gap_free(two_edges)


def _four_cycles_by_brute_force(G, edge):
    """Oracle: enumerate 4-vertex subsets and check cycle structure."""
    from itertools import combinations, permutations
    a, b = G.ends(edge)
    found = set()
    for quad in combinations(G.vertices, 4):
        if a not in quad or b not in quad:
            continue
        for perm in permutations(quad):
            if perm[0] != a or perm[1] != b:
                continue
            if all(G.has_edge_between(perm[i], perm[(i + 1) % 4]) for i in range(4)):
                found.add(frozenset(G.edge_between(perm[i], perm[(i + 1) % 4])
                                    for i in range(4)))
    return found


def test_four_cycles_in_k4():
    G = complete_graph(4)
    for label in G.edge_labels:
        cycles = four_cycles_containing(G, label)
        assert {frozenset(c) for c in cycles} == _four_cycles_by_brute_force(G, label)
        assert len(cycles) == 2
    assert has_four_cycle(G)


def test_four_cycles_in_c4_and_c5():
    C4 = cycle_graph(4)
    assert four_cycles_containing(C4, "e1") == [("e1", "e2", "e3", "e4")]
    assert not has_four_cycle(cycle_graph(5))
