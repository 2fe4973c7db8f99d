"""The edge-splitting framework: node ideals, the split tree, statement
checks, and the quadratic certification pipeline."""

import pytest

from gvdlab import ef, gvd
from gvdlab.algebra import initial_term, lex_order, mono_is_squarefree
from gvdlab.components import UnmixednessEvidence
from gvdlab.ef import (
    check_statements_ABC, ef_ideal, ef_tree, quadratic_pipeline,
    squarefree_lex_initial, tree_nodes,
)
from gvdlab.graphs import (
    complete_bipartite, complete_graph, cycle_graph, path_graph, toric_ideal,
    universal_groebner_basis,
)
from gvdlab.groebner import Ideal, ideal_equal, initial_ideal
from gvdlab.gvd import is_gvd, replay_certificate
from gvdlab.util import Budget

from fixtures import seeded_rng, two_k4_sharing_vertex
from graph_corpus import connected_graphs, to_graph

C4 = cycle_graph(4)
C6 = cycle_graph(6)
K23 = complete_bipartite(2, 3)
K4 = complete_graph(4)


# ---------------------------------------------------------------------------
# The square-free hypothesis.

def test_squarefree_hypothesis():
    assert squarefree_lex_initial(C4)
    assert squarefree_lex_initial(C6)
    assert squarefree_lex_initial(K23)
    assert squarefree_lex_initial(K4)
    # the benchmark graph has a cubic lead with a square under the label
    # order, so the framework must refuse it
    assert not squarefree_lex_initial(two_k4_sharing_vertex())


def test_ef_ideal_refuses_without_the_hypothesis():
    with pytest.raises(ValueError, match="square-free"):
        ef_ideal(two_k4_sharing_vertex(), (), ())
    with pytest.raises(ValueError, match="square-free"):
        ef_tree(two_k4_sharing_vertex())


# ---------------------------------------------------------------------------
# Node ideals.

def test_empty_split_is_the_toric_ideal():
    for G in (C4, C6, K23):
        assert ideal_equal(ef_ideal(G, (), ()).ideal, toric_ideal(G))


def test_square_one_step_children():
    # the 4-cycle binomial e1e3 - e2e4 has lead e1e3: moving e1 into E
    # collapses the lead to the shadow variable e3, moving it into F
    # deletes the only cycle
    C = ef_ideal(C4, ("e1",), ())
    N = ef_ideal(C4, (), ("e1",))
    assert ideal_equal(C.ideal, Ideal(C.ideal.ring, [C.ideal.ring.var("e3")]))
    assert N.ideal.is_zero_ideal()


def test_set_validation():
    with pytest.raises(ValueError, match="disjoint"):
        ef_ideal(C4, ("e1",), ("e1",))
    with pytest.raises(ValueError, match="first k"):
        ef_ideal(C4, ("e2",), ())


def test_state_metadata():
    state = ef_ideal(C4, ("e1",), ("e2",))
    assert state.k == 2
    assert state.to_json_dict()["E"] == ["e1"]
    assert ef_ideal(C4, (), ()).trivial() is None
    assert ef_ideal(C4, (), ("e1",)).trivial() == "zero"


# ---------------------------------------------------------------------------
# The split tree.

def test_tree_is_pruned_at_trivial_nodes():
    nodes = tree_nodes(ef_tree(C4))
    assert len(nodes) == 9
    for node in nodes:
        assert (node.children() is None) == (
            node.state.trivial() is not None or node.split_edge is None)


def test_tree_json_shape():
    out = ef_tree(C4).to_json_dict()
    assert out["split_edge"] == "e1"
    assert out["child_n"]["trivial"] == "zero"
    assert out["child_c"]["E"] == ["e1"]


def test_splits_reproduce_children_and_leaves_are_trivial():
    # every nontrivial node decomposes at the next edge into exactly its
    # two children, every generator set is a lex Groebner basis with
    # square-free initial ideal, and full-depth leaves are trivial
    for G in (C4, C6, K23):
        report = check_statements_ABC(G)
        assert report.square_free_lex
        assert report.statement_a
        assert report.statement_b
        assert report.statement_c == "verified"
        assert report.conclusion == "decomposability-verified"


def test_statement_checks_refuse_honestly():
    report = check_statements_ABC(two_k4_sharing_vertex())
    assert not report.square_free_lex
    assert report.conclusion == "hypothesis-not-met"
    assert report.checks == ()


def test_statement_checks_respect_budget():
    report = check_statements_ABC(K23, budget=Budget(0.0))
    assert report.conclusion == "inconclusive"


def test_natural_generators_are_universal():
    # the generators stay a Groebner basis under randomly sampled lex
    # orders, not just the label order
    rng = seeded_rng(7, "universal-split-basis")
    for G in (C4, K23):
        for node in tree_nodes(ef_tree(G)):
            I = node.state.ideal
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


def test_quadratic_pipeline_refuses_cubic_bases():
    with pytest.raises(ValueError, match="quadratic"):
        quadratic_pipeline(C6)
    with pytest.raises(ValueError, match="quadratic"):
        quadratic_pipeline(two_k4_sharing_vertex())


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
    graphs = [to_graph(n, edges) for n, edges in connected_graphs(7)]
    return [G for G in graphs
            if all(g.total_degree() == 2 for g in universal_groebner_basis(G))]


def test_quadratic_bases_are_doubly_square_free():
    graphs = quadratic_graphs()
    assert len(graphs) == 122
    for G in graphs + [K4]:
        for g in universal_groebner_basis(G):
            assert all(mono_is_squarefree(m) for m in g.terms), g


def test_every_quadratic_node_is_variables_plus_a_toric_ideal(monkeypatch):
    # The pipeline splits the ideal it holds; on this corpus that ideal is
    # always the node's shadow variables plus the toric ideal of the graph
    # without them and without the first k edges.
    seen = []
    real = ef._quadratic_node

    def record(G, E, F, I, budget):
        seen.append((G, E, F, I))
        return real(G, E, F, I, budget)

    monkeypatch.setattr(ef, "_quadratic_node", record)
    graphs = quadratic_graphs() + [K4]
    for G in graphs:
        assert quadratic_pipeline(G).verdict == "gvd"
    monkeypatch.undo()
    assert len(seen) > len(graphs)
    for G, E, F, I in seen:
        ring = I.ring
        shadow = [g for g in ef._natural_generators(G, E, F, ring) if g.is_monomial()]
        assert all(g.is_variable() for g in shadow)
        names = tuple(ring.names[g.support()[0]] for g in shadow)
        toric = universal_groebner_basis(G.delete_edges(E + F + names))
        collapsed = [g.rename(ring) for g in toric] + [ring.var(v) for v in names]
        assert ideal_equal(I, Ideal(ring, collapsed))


def test_quadratic_inconclusive_evidence_leaves_the_node_inconclusive(monkeypatch):
    # No theorem stands in for computed evidence: with evidence that decides
    # nothing, the toric ideal of K4 does not certify, and a node whose
    # branches are base cases keeps its step.
    monkeypatch.setattr(gvd, "unmixedness_evidence",
                        lambda I, context=None: UnmixednessEvidence("inconclusive", "forced"))
    cert = quadratic_pipeline(K4)
    assert cert.verdict == "inconclusive"
    ring = C4.edge_ring()
    other = Ideal(ring, [ring.monomial({"e1": 1, "e3": 1})])
    cert = ef._quadratic_node(C4, (), (), other, Budget(None))
    assert cert.verdict == "inconclusive" and cert.y == "e1"
    assert cert.unmixedness.status == "inconclusive"


def test_quadratic_pipeline_budget():
    cert = quadratic_pipeline(K4, budget=Budget(0.0))
    assert cert.verdict == "inconclusive"
    assert "budget" in cert.reason
