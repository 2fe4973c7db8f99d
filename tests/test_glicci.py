"""Tests for the glicci sufficient-condition checks and the search for a
square-free lex degeneration."""

import hashlib
import json
import time

from gvdlab.algebra import lex_order, mono_is_squarefree
from gvdlab.ef import squarefree_lex_initial
from gvdlab.glicci import (
    EXHAUSTED,
    find_even_cycle_gluings,
    glicci_checks,
    squarefree_lex_order,
)
from gvdlab.graphs import (
    Graph,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    glue_even_cycle,
    path_graph,
    toric_ideal,
)
from gvdlab.groebner import ideal_equal, initial_ideal
from gvdlab.gvd import is_gvd
from gvdlab.util import Budget

from fixtures import (
    TWO_TRIANGLES_GENERATOR, three_k4_sharing_vertex, two_k4_sharing_vertex,
    two_triangles_bridged,
)
from graph_corpus import connected_graphs, to_graph

C4 = cycle_graph(4)
C5 = cycle_graph(5)
K4 = complete_graph(4)
K33 = complete_bipartite(3, 3)
TWO_K2 = Graph(["x1", "x2", "x3", "x4"],
               [("e1", "x1", "x2"), ("e2", "x3", "x4")])
CHAIN, CHAIN_F = glue_even_cycle(C4, "e1", 4)


# -- gluing structure detection ----------------------------------------------

def test_gluings_of_a_plain_cycle():
    # Every edge of C4 closes an even cycle with the remaining degree-two path.
    assert find_even_cycle_gluings(C4) == [
        ("e1", ("e2", "e3", "e4")),
        ("e2", ("e1", "e4", "e3")),
        ("e3", ("e2", "e1", "e4")),
        ("e4", ("e1", "e2", "e3")),
    ]


def test_gluings_of_a_glued_chain():
    # Both four-cycles of the chain hang off the shared edge e1.
    assert find_even_cycle_gluings(CHAIN) == [
        ("e1", ("e2", "e3", "e4")),
        ("e1", ("f1", "f2", "f3")),
    ]


def test_no_gluings_without_degree_two_cycle_vertices():
    assert find_even_cycle_gluings(K4) == []
    assert find_even_cycle_gluings(complete_bipartite(2, 3)) == []
    assert find_even_cycle_gluings(path_graph(5)) == []


def test_odd_cycles_are_rejected_by_parity():
    assert find_even_cycle_gluings(C5) == []


# -- square-free order search -------------------------------------------------

def test_search_hits_on_the_natural_order():
    assert squarefree_lex_order(C4) == ("e1", "e2", "e3", "e4")


def test_search_hoists_the_requested_first_variable():
    names = squarefree_lex_order(K4, first="e4")
    assert names is not None
    assert names[0] == "e4"
    assert sorted(names) == sorted(K4.edge_labels)


def test_search_misses_on_the_shared_vertex_benchmark():
    start = time.process_time()
    assert squarefree_lex_order(two_k4_sharing_vertex()) is None
    assert time.process_time() - start < 2.0


def test_search_respects_the_budget():
    # A spent budget never reads as "no such order".
    for G in (C4, K33):
        assert squarefree_lex_order(G, budget=Budget(0.0)) == EXHAUSTED


def test_corpus_graphs_have_confirmed_square_free_lex_orders_and_are_gvd():
    # The paper's conjecture: a square-free lex degeneration makes I_G GVD.
    # Every connected graph with at most 7 edges has one.
    label_order_misses = []
    for n, edges in connected_graphs(7):
        G = to_graph(n, edges)
        names = squarefree_lex_order(G)
        assert names is not None, edges
        I = toric_ideal(G)
        init = initial_ideal(lex_order(I.ring, names), I)
        assert all(mono_is_squarefree(next(iter(g.terms))) for g in init.gens)
        assert is_gvd(I, context=G).verdict == "gvd"
        if not squarefree_lex_initial(G):
            label_order_misses.append((n, edges))
    # Two triangles joined by an edge are the only graph whose label order
    # is not square-free, so a search of the ring order alone would miss.
    assert label_order_misses == [
        (6, ((0, 1), (0, 4), (1, 4), (2, 3), (2, 5), (3, 5), (4, 5)))]
    # A principal ideal whose one generator has two non-square-free sides.
    bridged = two_triangles_bridged()
    assert [str(g) for g in toric_ideal(bridged).gens] == [TWO_TRIANGLES_GENERATOR]
    assert squarefree_lex_order(bridged) is None
    assert is_gvd(toric_ideal(bridged), context=bridged).verdict == "not-gvd"


# -- the three checks -----------------------------------------------------------

def _check(report, name):
    matches = [c for c in report.checks if c.name == name]
    assert len(matches) == 1
    return matches[0]


def test_complete_graph_fires_the_gap_free_check():
    report = glicci_checks(K4)
    assert report.conclusion == "glicci-certified-by-theorem"
    gap = _check(report, "gap-free-with-four-cycle")
    assert gap.fired
    assert gap.witness == {"four_cycle": ["e1", "e2", "e6", "e5"]}
    four = _check(report, "four-cycle-square-free-order")
    assert four.fired
    assert four.witness["edge"] == "e1"
    assert four.witness["order"][0] == "e1"
    assert not _check(report, "even-cycle-gluing").fired


def test_glued_chain_fires_the_gluing_check():
    report = glicci_checks(CHAIN)
    assert report.conclusion == "glicci-certified-by-theorem"
    glue = _check(report, "even-cycle-gluing")
    assert glue.fired
    assert glue.witness["edge"] == "e1"
    assert glue.witness["path"] == ["e2", "e3", "e4"]
    assert glue.witness["base_edges"] == ["e1", "f1", "f2", "f3"]
    assert not _check(report, "gap-free-with-four-cycle").fired


def test_gluing_structure_reconstructs_the_ideal_sum():
    # The chain is also a gluing of the f-cycle onto the original square, and
    # the cycle binomial returned at build time completes the base ideal.
    assert ("e1", ("f1", "f2", "f3")) in find_even_cycle_gluings(CHAIN)
    base = CHAIN.delete_edges(["f1", "f2", "f3"]).delete_vertices(["w1", "w2"])
    assert base.edge_labels == C4.edge_labels
    ring = CHAIN.edge_ring()
    glued = toric_ideal(base).rename(ring).with_extra([CHAIN_F])
    assert ideal_equal(toric_ideal(CHAIN), glued)


def test_two_disjoint_edges_fire_nothing():
    report = glicci_checks(TWO_K2)
    assert report.conclusion == "hypotheses-not-met"
    assert [c.fired for c in report.checks] == [False, False, False]
    assert _check(report, "even-cycle-gluing").witness == {
        "reason": "no even-cycle gluing structure found"}
    assert _check(report, "four-cycle-square-free-order").witness == {
        "reason": "no edge lies on a 4-cycle"}
    assert _check(report, "gap-free-with-four-cycle").witness == {
        "reason": "the graph is not gap-free; the graph has no 4-cycle"}


def test_a_single_even_cycle_is_a_gluing_over_one_edge():
    report = glicci_checks(C4)
    glue = _check(report, "even-cycle-gluing")
    assert glue.fired
    assert glue.witness["base_edges"] == ["e1"]


def test_gap_free_without_a_four_cycle_does_not_fire():
    report = glicci_checks(C5)
    gap = _check(report, "gap-free-with-four-cycle")
    assert not gap.fired
    assert gap.witness == {"reason": "the graph has no 4-cycle"}
    assert report.conclusion == "hypotheses-not-met"


def test_complete_bipartite_certifies_by_search_and_gap_free():
    report = glicci_checks(K33)
    assert report.conclusion == "glicci-certified-by-theorem"
    assert _check(report, "four-cycle-square-free-order").fired
    assert _check(report, "gap-free-with-four-cycle").fired


def test_checks_report_budget_exhaustion_without_raising():
    report = glicci_checks(K4, budget=Budget(0.0))
    four = _check(report, "four-cycle-square-free-order")
    assert not four.fired
    assert "budget" in four.witness["reason"]
    # The purely combinatorial check needs no budget and still fires.
    assert _check(report, "gap-free-with-four-cycle").fired


def test_a_spent_budget_is_reported_not_read_as_no_order():
    # No lex order makes this ideal's initial ideal square-free, and the
    # exhaustive search takes far longer than the budget.
    start = time.monotonic()
    report = glicci_checks(three_k4_sharing_vertex(), budget=Budget(0.5))
    assert time.monotonic() - start < 10.0
    four = _check(report, "four-cycle-square-free-order")
    assert not four.fired
    assert four.witness == {"reason": "budget exhausted during the search"}


def test_reports_over_the_seven_edge_corpus_are_pinned():
    # The reports of all 131 graphs of the 7-edge corpus, as JSON: every
    # witness and reason is pinned, and 42 graphs are certified.
    reports = [glicci_checks(to_graph(n, edges)) for n, edges in connected_graphs(7)]
    blob = json.dumps([r.to_json_dict() for r in reports], sort_keys=True,
                      separators=(",", ":"))
    assert len(reports) == 131
    assert sum(r.conclusion == "glicci-certified-by-theorem" for r in reports) == 42
    assert hashlib.sha256(blob.encode()).hexdigest() == (
        "7d9b97b9497984a8246cfb2d28f3cb25b01694ef066b3d857f3b326272053099")


def test_reports_serialize_to_json():
    report = glicci_checks(TWO_K2)
    blob = json.dumps(report.to_json_dict(), sort_keys=True)
    data = json.loads(blob)
    assert data["conclusion"] == "hypotheses-not-met"
    assert [c["name"] for c in data["checks"]] == [
        "even-cycle-gluing", "four-cycle-square-free-order",
        "gap-free-with-four-cycle"]
