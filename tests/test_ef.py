"""The edge-splitting framework: its hypothesis, and the label-order walk
of the E/F pipeline, whose every node is checked against the ideal
I^G_{E,F} built from its definition (``fixtures.natural_generators``)."""

from collections import Counter
from functools import lru_cache

from gvdlab import ef, gvd
from gvdlab.algebra import initial_term, lex_order, mono_is_squarefree
from gvdlab.bipartite import certify_bipartite_gvd
from gvdlab.components import UnmixednessEvidence, unmixedness_evidence
from gvdlab.ef import quadratic_pipeline, squarefree_lex_initial
from gvdlab.glicci import squarefree_lex_order
from gvdlab.graphs import (
    complete_bipartite, complete_graph, cycle_graph, path_graph, toric_ideal,
    universal_groebner_basis,
)
from gvdlab.groebner import Ideal, ideal_equal, initial_ideal
from gvdlab.gvd import GvdCertificate, base_node, is_gvd, replay_certificate
from gvdlab.util import Budget

from fixtures import (
    StoresNothing, census9_graphs, empty_shared_memo, natural_generators,
    seeded_rng, two_k4_sharing_vertex, two_triangles_bridged,
)
from graph_corpus import connected_graphs, to_graph

C4 = cycle_graph(4)
C6 = cycle_graph(6)
K23 = complete_bipartite(2, 3)
K4 = complete_graph(4)

# The census9 classes (at seed 0) whose label-order initial ideal is
# square-free but whose label-order walk does not certify.
CENSUS9_MISSES = [6, 38, 66, 82, 85, 87, 96, 112]


def framework_ideal(G, E: tuple, F: tuple, ring) -> Ideal:
    """I^G_{E,F} from its definition, in ``ring``."""
    return Ideal(ring, natural_generators(G, E, F, ring))


def walk(G) -> tuple:
    """The pipeline's certificate of G, and the (E, F, ideal) of every node
    its walk visits, in the order visited.  The memo stores nothing, so
    that no node is served from it and the walk visits every node."""
    seen = []
    real, memo = ef._quadratic_node, gvd._MEMO

    def record(G, E, F, I, budget):
        seen.append((E, F, I))
        return real(G, E, F, I, budget)

    ef._quadratic_node, gvd._MEMO = record, StoresNothing()
    try:
        cert = quadratic_pipeline(G)
    finally:
        ef._quadratic_node, gvd._MEMO = real, memo
    return cert, seen


def is_quadratic(G) -> bool:
    return all(g.total_degree() == 2 for g in universal_groebner_basis(G))


@lru_cache(maxsize=None)
def corpus_graphs() -> tuple:
    return tuple(to_graph(n, edges) for n, edges in connected_graphs(7))


@lru_cache(maxsize=None)
def census9_walks() -> tuple:
    """(graph, hypothesis holds, certificate, visited nodes) for each
    census9 class at seed 0."""
    return tuple((G, squarefree_lex_initial(G)) + walk(G)
                 for G in census9_graphs(0))


# ---------------------------------------------------------------------------
# The square-free hypothesis.

def test_squarefree_hypothesis():
    assert squarefree_lex_initial(C4)
    assert squarefree_lex_initial(C6)
    assert squarefree_lex_initial(K23)
    assert squarefree_lex_initial(K4)
    # the benchmark graph has a cubic lead with a square under the label
    # order, so the framework does not apply to it
    assert not squarefree_lex_initial(two_k4_sharing_vertex())


# ---------------------------------------------------------------------------
# Node ideals.

def test_empty_split_is_the_toric_ideal():
    for G in (C4, C6, K23):
        ring = G.edge_ring()
        assert ideal_equal(framework_ideal(G, (), (), ring), toric_ideal(G))
        _, seen = walk(G)
        assert seen[0][:2] == ((), ())
        assert ideal_equal(seen[0][2], toric_ideal(G))


def test_square_one_step_children():
    # the 4-cycle binomial e1e3 - e2e4 has lead e1e3: moving e1 into E
    # collapses the lead to the shadow variable e3, moving it into F
    # deletes the only cycle
    _, seen = walk(C4)
    nodes = {(E, F): I for E, F, I in seen}
    assert list(nodes) == [((), ()), (("e1",), ()), ((), ("e1",))]
    C, N = nodes[("e1",), ()], nodes[(), ("e1",)]
    assert ideal_equal(C, Ideal(C.ring, [C.ring.var("e3")]))
    assert N.is_zero_ideal()
    assert ideal_equal(C, framework_ideal(C4, ("e1",), (), C.ring))
    assert ideal_equal(N, framework_ideal(C4, (), ("e1",), N.ring))


# ---------------------------------------------------------------------------
# The label-order walk.

def test_tree_is_pruned_at_trivial_nodes():
    # a node splits at the next edge unless it is a base case, and the
    # walk goes no deeper than a base case
    for G in (C4, C6, K23):
        _, seen = walk(G)
        nodes = {(E, F): I for E, F, I in seen}
        assert len(nodes) == len(seen)
        for (E, F), I in nodes.items():
            k, below = len(E) + len(F), set()
            if k < len(G.edges):
                y = G.edge_labels[k]
                below = {(E + (y,), F), (E, F + (y,))} & set(nodes)
            assert bool(below) == (base_node(I) is None), (G.edges, E, F)


def test_tree_json_shape():
    out = quadratic_pipeline(C4).to_json_dict()
    assert (out["kind"], out["y"]) == ("decomposition", "e1")
    assert out["children"]["N"]["kind"] == "zero"
    assert (out["children"]["C"]["kind"], out["children"]["C"]["variables"]) == (
        "variables", ["e3"])


def test_splits_reproduce_children_and_leaves_are_trivial():
    # every node the walk visits holds the framework's ideal, each split
    # hands on the ideals of its children at the next edge (replay checks
    # each split again), and a node that has placed every edge is the zero
    # or unit ideal
    for G in (C4, C6, K23):
        cert, seen = walk(G)
        assert cert.verdict == "gvd"
        assert replay_certificate(toric_ideal(G), cert, context=G)
        for E, F, I in seen:
            assert ideal_equal(I, framework_ideal(G, E, F, I.ring)), (G.edges, E, F)
            if len(E) + len(F) == len(G.edges):
                assert base_node(I).kind in ("zero", "unit")


def test_statement_checks_refuse_honestly():
    # Off the quadratic theorem the label order can fail where another
    # order succeeds: on each square-free census9 miss the walk meets a
    # node whose unmixedness is refuted (the framework's statement C fails
    # there), and the pipeline stays inconclusive while the search
    # certifies the toric ideal.
    walks = census9_walks()
    for i in CENSUS9_MISSES:
        G, hypothesis, cert, seen = walks[i]
        assert hypothesis and cert.verdict == "inconclusive"
        assert any(unmixedness_evidence(I, G.delete_edges(E + F)).refuted
                   for E, F, I in seen), i
        assert is_gvd(toric_ideal(G), context=G).verdict == "gvd"


def test_statement_checks_respect_budget():
    for G in (C6, two_k4_sharing_vertex()):
        cert = quadratic_pipeline(G, budget=Budget(0.0))
        assert cert.verdict == "inconclusive" and "budget" in cert.reason


def test_natural_generators_are_universal():
    # the generators of each node's ideal stay a Groebner basis under
    # randomly sampled lex orders, not just the label order
    rng = seeded_rng(7, "universal-split-basis")
    for G in (C4, K23):
        for E, F, _ in walk(G)[1]:
            I = framework_ideal(G, E, F, G.edge_ring())
            gens = [g for g in I.gens if not g.is_zero()]
            if not gens:
                continue
            for _ in range(20):
                names = list(I.ring.names)
                rng.shuffle(names)
                order = lex_order(I.ring, names)
                leads = [initial_term(order, g).mono for g in gens]
                lead_ideal = Ideal(I.ring, [I.ring.monomial(
                    {I.ring.names[i]: e for i, e in enumerate(m) if e})
                    for m in leads])
                assert ideal_equal(lead_ideal, initial_ideal(order, I))


def test_every_node_is_the_framework_ideal():
    # Under the hypothesis, every node the walk visits holds I^G_{E,F},
    # certified or not: over the square-free graphs of the 7-edge corpus
    # and of census9, the 8 misses included.
    corpus = [G for G in corpus_graphs() if squarefree_lex_initial(G)]
    census = [(G, seen) for G, hypothesis, _, seen in census9_walks() if hypothesis]
    assert (len(corpus), len(census)) == (130, 688)
    checked = 0
    for G, seen in [(G, walk(G)[1]) for G in corpus] + census:
        for E, F, I in seen:
            assert ideal_equal(I, framework_ideal(G, E, F, I.ring)), (G.edges, E, F)
            checked += 1
    assert checked == 349 + 4205


def test_census9_split_is_pinned():
    # The paper's theorem as a test: all 532 quadratic classes certify.
    # Off it, 680 of the 710 classes certify: 148 more square-free ones,
    # and none of the 22 without the hypothesis.  No two certifiers reach
    # conflicting conclusive verdicts, and every certificate replays.  Some
    # lex order makes the initial ideal square-free exactly for the 705
    # classes the search certifies (the conjecture's census evidence).
    walks = census9_walks()
    verdicts = Counter(cert.verdict for _, _, cert, _ in walks)
    assert verdicts == {"gvd": 680, "inconclusive": 30}
    misses = [i for i, (_, hypothesis, cert, _) in enumerate(walks)
              if hypothesis and cert.verdict != "gvd"]
    assert misses == CENSUS9_MISSES
    assert not any(cert.verdict == "gvd" for _, hypothesis, cert, _ in walks
                   if not hypothesis)
    quadratic = [cert for G, _, cert, _ in walks if is_quadratic(G)]
    assert len(quadratic) == 532
    assert all(cert.verdict == "gvd" for cert in quadratic)
    ordered = Counter()
    for G, _, cert, _ in walks:
        search = is_gvd(toric_ideal(G), context=G).verdict
        ordered[search, squarefree_lex_order(G) is not None] += 1
        found = {search, cert.verdict}
        if G.is_bipartite():
            found.add(certify_bipartite_gvd(G).verdict)
        assert len(found - {"inconclusive"}) == 1, G.edges
        if cert.verdict == "gvd":
            assert replay_certificate(toric_ideal(G), cert, context=G), G.edges
    assert ordered == {("gvd", True): 705, ("not-gvd", False): 5}


# ---------------------------------------------------------------------------
# The quadratic pipeline.

def test_quadratic_pipeline_certifies_and_replays():
    for G in (C4, K23, K4):
        cert = quadratic_pipeline(G)
        assert cert.verdict == "gvd"
        assert replay_certificate(toric_ideal(G), cert, context=G)
        assert is_gvd(toric_ideal(G), context=G).verdict == "gvd"


def test_quadratic_pipeline_on_a_forest():
    cert = quadratic_pipeline(path_graph(4))
    assert cert.kind == "zero" and cert.verdict == "gvd"


def test_quadratic_pipeline_runs_on_cubic_bases():
    # The walk runs on every graph and never raises: C6 (a sextic basis)
    # certifies, and two graphs without the hypothesis stay inconclusive,
    # although the search refutes both.
    cert = quadratic_pipeline(C6)
    assert cert.verdict == "gvd"
    assert replay_certificate(toric_ideal(C6), cert, context=C6)
    for G in (two_k4_sharing_vertex(), two_triangles_bridged()):
        assert not squarefree_lex_initial(G)
        assert quadratic_pipeline(G).verdict == "inconclusive"
        assert is_gvd(toric_ideal(G), context=G).verdict == "not-gvd"


def test_quadratic_pipeline_evidence_is_computed():
    # on quadratic graphs every node ideal collapses to variables plus a
    # smaller toric ideal, whose evidence is conclusive
    def statuses(cert, out):
        if cert.unmixedness is not None:
            out.add(cert.unmixedness.status)
        for child in (cert.child_c, cert.child_n):
            if child is not None:
                statuses(child, out)
        return out

    found = statuses(quadratic_pipeline(K4), set())
    assert "inconclusive" not in found


def quadratic_graphs() -> list:
    return [G for G in corpus_graphs() if is_quadratic(G)]


def test_quadratic_bases_are_doubly_square_free():
    graphs = quadratic_graphs()
    assert len(graphs) == 122
    for G in graphs + [K4]:
        for g in universal_groebner_basis(G):
            assert all(mono_is_squarefree(m) for m in g.terms), g


def test_every_quadratic_node_is_variables_plus_a_toric_ideal():
    # On quadratic graphs the ideal each node holds is always the node's
    # shadow variables plus the toric ideal of the graph without them and
    # without the first k edges, which is prime: the paper's theorem.
    graphs = quadratic_graphs() + [K4]
    walks = [(G,) + walk(G) for G in graphs]
    walks += [(G, cert, seen) for G, _, cert, seen in census9_walks() if is_quadratic(G)]
    assert len(walks) == 122 + 1 + 532
    nodes = 0
    for G, cert, seen in walks:
        assert cert.verdict == "gvd"
        for E, F, I in seen:
            ring = I.ring
            shadow = [g for g in natural_generators(G, E, F, ring) if g.is_monomial()]
            assert all(g.is_variable() for g in shadow)
            names = tuple(ring.names[g.support()[0]] for g in shadow)
            toric = universal_groebner_basis(G.delete_edges(E + F + names))
            collapsed = [g.rename(ring) for g in toric] + [ring.var(v) for v in names]
            assert ideal_equal(I, Ideal(ring, collapsed))
            nodes += 1
    assert nodes > len(walks)


def test_quadratic_inconclusive_evidence_leaves_the_node_inconclusive(monkeypatch):
    # No theorem stands in for computed evidence: with evidence that decides
    # nothing, the toric ideal of K4 does not certify, and a node whose
    # branches are base cases keeps its step.  The memo starts empty, or
    # its "gvd" node for K4 would answer.
    empty_shared_memo(monkeypatch)
    monkeypatch.setattr(gvd, "unmixedness_evidence",
                        lambda I, context=None: UnmixednessEvidence("inconclusive", "forced"))
    cert = quadratic_pipeline(K4)
    assert cert.verdict == "inconclusive"
    ring = C4.edge_ring()
    other = Ideal(ring, [ring.monomial({"e1": 1, "e3": 1})])
    cert = GvdCertificate(ef._quadratic_node(C4, (), (), other, Budget(None)),
                          ring.names)
    assert cert.verdict == "inconclusive" and cert.y == "e1"
    assert cert.unmixedness.status == "inconclusive"


def test_quadratic_pipeline_budget():
    cert = quadratic_pipeline(K4, budget=Budget(0.0))
    assert cert.verdict == "inconclusive"
    assert "budget" in cert.reason
