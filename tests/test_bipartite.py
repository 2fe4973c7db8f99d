"""Path ordered matchings, their binomial-plus-monomial ideals, and the
structural decomposability certifier for bipartite graphs."""

from dataclasses import replace
from itertools import permutations

import pytest

from gvdlab import bipartite, groebner, gvd
from gvdlab.algebra import lex_order
from gvdlab.bipartite import (
    EMPTY_POM, PathOrderedMatching, bipartite_ideal, certify_bipartite_gvd,
    find_path_ordered_matchings, validate_pom,
)
from gvdlab.ef import quadratic_pipeline
from gvdlab.graphs import (
    complete_bipartite, complete_graph, cycle_graph, disjoint_union,
    ferrers_graph, path_graph, toric_ideal, universal_groebner_basis,
)
from gvdlab.groebner import Ideal, ideal_contains, ideal_equal
from gvdlab.gvd import GvdCertificate, is_gvd, replay_certificate
from gvdlab.components import UnmixednessEvidence
from gvdlab.util import Budget

from fixtures import (
    StoresNothing, empty_shared_memo, is_square_free_groebner_basis, k2d_with_path,
)
from graph_corpus import connected_graphs, to_graph

C4 = cycle_graph(4)
C6 = cycle_graph(6)
K23 = complete_bipartite(2, 3)
K33 = complete_bipartite(3, 3)


def brute_force_matchings(G, max_r):
    """Ordered oriented edge sequences filtered by the defining conditions:
    vertex-disjoint, consecutive connectors present, and no graph edge from
    a left vertex to an earlier right vertex."""
    oriented = []
    for label in G.edge_labels:
        u, v = G.ends(label)
        oriented.extend([(label, (u, v)), (label, (v, u))])

    def valid(pairs):
        lefts = [left for left, _ in pairs]
        rights = [right for _, right in pairs]
        if len(set(lefts + rights)) != 2 * len(pairs):
            return False
        if not all(G.has_edge_between(lefts[i], rights[i + 1])
                   for i in range(len(pairs) - 1)):
            return False
        for label in G.edge_labels:
            u, v = G.ends(label)
            for a, b in ((u, v), (v, u)):
                if (a in lefts and b in rights
                        and lefts.index(a) > rights.index(b)):
                    return False
        return True

    out = set()
    for r in range(1, max_r + 1):
        for combo in permutations(oriented, r):
            labels = tuple(label for label, _ in combo)
            if len(set(labels)) < r:
                continue
            pairs = tuple(pair for _, pair in combo)
            if valid(pairs):
                out.add((pairs, labels))
    return out


# ---------------------------------------------------------------------------
# Path ordered matchings.

def test_matchings_match_brute_force_enumeration():
    for G in (C4, C6, K23):
        found = {(p.pairs, p.edges) for p in find_path_ordered_matchings(G, 3)}
        assert found == brute_force_matchings(G, 3)


def test_matching_counts():
    # every single edge in both orientations; the hexagon also admits
    # twelve ordered two-edge matchings
    assert len(find_path_ordered_matchings(C4, 4)) == 8
    assert len(find_path_ordered_matchings(C6, 1)) == 12
    assert len(find_path_ordered_matchings(C6, 4)) == 24
    assert len(find_path_ordered_matchings(K23, 4)) == 12


def test_complete_bipartite_matchings_have_length_one():
    # two disjoint edges of a complete bipartite graph always close a
    # four-cycle, which joins the later left to the earlier right
    assert all(p.length == 1 for p in find_path_ordered_matchings(K33, 4))


def test_matching_without_end():
    pom = PathOrderedMatching((("x1", "x2"), ("x5", "x6")), ("e1", "e5"))
    assert pom.without_end("e5").edges == ("e1",)
    assert pom.without_end("e1").edges == ("e5",)
    with pytest.raises(ValueError):
        pom.without_end("e3")


def test_validation_rejects_overlapping_edges():
    pom = PathOrderedMatching((("x1", "x2"), ("x2", "x3")), ("e1", "e2"))
    with pytest.raises(ValueError, match="disjoint"):
        validate_pom(C4, pom)


def test_validation_rejects_missing_connector():
    pom = PathOrderedMatching((("x1", "x2"), ("x3", "x4")), ("e1", "e3"))
    with pytest.raises(ValueError, match="connector"):
        validate_pom(C6, pom)


def test_validation_rejects_left_joined_to_earlier_right():
    pom = PathOrderedMatching((("x1", "y1"), ("x2", "y2")), ("e1", "e5"))
    with pytest.raises(ValueError, match="earlier"):
        validate_pom(K23, pom)


def test_find_on_non_bipartite_raises():
    with pytest.raises(ValueError, match="bipartite"):
        find_path_ordered_matchings(complete_graph(3), 2)


# ---------------------------------------------------------------------------
# Matching ideals.

def test_empty_matching_ideal_is_the_toric_ideal():
    for G in (C4, K33):
        assert ideal_equal(bipartite_ideal(G, EMPTY_POM), toric_ideal(G))


def test_square_matching_ideal_is_the_opposite_edge():
    pom = PathOrderedMatching((("x1", "x2"),), ("e1",))
    I = bipartite_ideal(C4, pom)
    assert ideal_equal(I, Ideal(I.ring, [I.ring.var("e3")]))


def test_hexagon_matching_ideal_is_the_alternating_monomial():
    pom = PathOrderedMatching((("x1", "x2"),), ("e1",))
    I = bipartite_ideal(C6, pom)
    assert ideal_equal(I, Ideal(I.ring, [I.ring.monomial({"e3": 1, "e5": 1})]))


def test_matching_ideal_in_the_smaller_ring():
    pom = PathOrderedMatching((("x1", "x2"),), ("e1",))
    ring = C6.edge_ring().without("e1")
    I = bipartite_ideal(C6, pom, ring)
    assert I.ring is ring
    assert ideal_equal(I, Ideal(ring, [ring.monomial({"e3": 1, "e5": 1})]))


def test_natural_generators_verify_as_groebner_everywhere():
    # The natural generators are a Groebner basis under lex with the
    # matching edges first, newest greatest, and the initial ideal is
    # square-free.
    for G in (C6, K23, K33):
        for pom in find_path_ordered_matchings(G, 4):
            I = bipartite_ideal(G, pom)
            rest = [e for e in I.ring.names if e not in pom.edges]
            order = lex_order(I.ring, list(reversed(pom.edges)) + rest)
            assert I.gens and is_square_free_groebner_basis(order, I)


# ---------------------------------------------------------------------------
# Certification.

def test_forest_certifies_at_the_zero_ideal():
    cert = certify_bipartite_gvd(path_graph(4))
    assert cert.kind == "zero" and cert.verdict == "gvd"


def test_even_cycles_certify():
    for n in (4, 6, 8):
        assert certify_bipartite_gvd(cycle_graph(n)).verdict == "gvd"


def test_complete_bipartite_certify():
    assert certify_bipartite_gvd(K23).verdict == "gvd"
    assert certify_bipartite_gvd(K33).verdict == "gvd"


def test_ferrers_and_doubled_path_families_certify():
    assert certify_bipartite_gvd(ferrers_graph((3, 2, 1))).verdict == "gvd"
    assert certify_bipartite_gvd(k2d_with_path(3, 2)).verdict == "gvd"


def test_disjoint_even_cycles_certify():
    G = disjoint_union(cycle_graph(4), cycle_graph(4))
    assert certify_bipartite_gvd(G).verdict == "gvd"


def test_certificates_replay():
    for G in (C6, K23):
        cert = certify_bipartite_gvd(G)
        assert replay_certificate(toric_ideal(G), cert, context=G)


def test_cited_unmixedness_does_not_replay():
    # Unmixedness is always computed, so evidence that only names a theorem
    # is not the evidence replay recomputes.
    cert = certify_bipartite_gvd(C6)
    assert cert.kind == "decomposition"
    assert replay_certificate(toric_ideal(C6), cert, context=C6)
    cert = GvdCertificate(replace(cert.node, unmixedness=UnmixednessEvidence(
        "cited", "structural theorem")), cert.ring_names)
    assert not replay_certificate(toric_ideal(C6), cert, context=C6)


def recorded_nodes(monkeypatch) -> list:
    """(graph, matching, ideal) of every node the certifier visits over the
    bipartite 7-edge corpus, K_{3,3} and the Ferrers graph of (3, 2, 1), all
    of which it certifies.  The memo stores nothing, so that no node is
    served from it and every node below it is visited."""
    seen = []
    real = bipartite._certify_node

    def record(H, pom, I, budget):
        seen.append((H, pom, I))
        return real(H, pom, I, budget)

    monkeypatch.setattr(bipartite, "_certify_node", record)
    monkeypatch.setattr(gvd, "_MEMO", StoresNothing())
    graphs = [to_graph(n, edges) for n, edges in connected_graphs(7)]
    graphs = [G for G in graphs if G.is_bipartite()]
    assert len(graphs) == 68
    for G in graphs + [K33, ferrers_graph((3, 2, 1))]:
        assert certify_bipartite_gvd(G).verdict == "gvd"
    monkeypatch.undo()
    assert len(seen) == 190
    return seen


def test_every_node_is_handed_its_matching_ideal(monkeypatch):
    # The certifier splits the ideal it holds and never builds the matching
    # ideal; on this corpus the two agree at every node.
    for H, pom, I in recorded_nodes(monkeypatch):
        assert ideal_equal(I, bipartite_ideal(H, pom, I.ring))


def test_contained_variables_are_read_off_the_reduced_basis(monkeypatch):
    # At every proper ideal the certifier visits, the variables among the
    # reduced basis are those a membership test finds in the ideal.
    found = 0
    for _, _, I in recorded_nodes(monkeypatch):
        if I.is_unit_ideal():
            continue
        ring = I.ring
        members = [v for v in ring.names if ideal_contains(I, ring.var(v))]
        assert bipartite._contained_variables(I) == members
        found += bool(members)
    assert found > 0


def test_inconclusive_evidence_leaves_the_node_inconclusive(monkeypatch):
    # No theorem stands in for computed evidence: with evidence that decides
    # nothing, the toric ideal of C6, its matching ideal, does not certify.
    # The memo starts empty, or its "gvd" node for C6 would answer.  No
    # budget was polled as spent, so it stores both inconclusive roots.
    empty_shared_memo(monkeypatch)
    monkeypatch.setattr(gvd, "unmixedness_evidence",
                        lambda I, context=None: UnmixednessEvidence("inconclusive", "forced"))
    ring = C6.edge_ring()
    toric = toric_ideal(C6)
    cert = GvdCertificate(bipartite._certify_node(C6, EMPTY_POM, toric, Budget(None)),
                          ring.names)
    assert cert.verdict == "inconclusive"
    assert "did not certify" in cert.reason
    # A node whose branches are base cases keeps its step.
    other = Ideal(ring, [ring.monomial({"e1": 1, "e3": 1})])
    other_cert = GvdCertificate(bipartite._certify_node(C6, EMPTY_POM, other, Budget(None)),
                                ring.names)
    assert other_cert.verdict == "inconclusive" and other_cert.y == "e1"
    assert other_cert.unmixedness.status == "inconclusive"
    assert "unmixedness evidence is inconclusive" in other_cert.reason
    key = lambda I: (gvd._node_key(I, None)
                     + (bipartite._structure_key(C6, EMPTY_POM, ring.index),))
    assert gvd._MEMO[key(toric)] == cert.node
    assert gvd._MEMO[key(other)] == other_cert.node


def test_the_root_needs_no_buchberger_run_on_the_universal_basis(monkeypatch):
    # The root of the bipartite certifier and of the E/F pipeline is
    # generated by its reduced basis, read off the universal basis with no
    # S-pair, so no run starts from the 660 even cycles of K_{4,5}.  Below
    # it, evidence says "prime" off the reduced basis, with no minimal
    # generators and so none of their per-degree bases, and every basis a
    # split asks for is handed down or read off another, so neither
    # certifier makes any run.
    G = complete_bipartite(4, 5)
    assert len(universal_groebner_basis(G)) == 660
    assert len(toric_ideal(G).groebner()) == 60
    real = groebner.buchberger
    for certify in (certify_bipartite_gvd, quadratic_pipeline):
        empty_shared_memo(monkeypatch)
        sizes = []

        def counted(order, gens):
            gens = list(gens)
            sizes.append(len(gens))
            return real(order, gens)

        monkeypatch.setattr(groebner, "buchberger", counted)
        assert certify(G).verdict == "gvd"
        assert sizes == [], certify.__name__


def test_exhausted_budget_is_inconclusive():
    cert = certify_bipartite_gvd(K33, budget=Budget(0.0))
    assert cert.verdict == "inconclusive"
    assert "budget" in cert.reason


def test_non_bipartite_certify_raises():
    with pytest.raises(ValueError, match="bipartite"):
        certify_bipartite_gvd(complete_graph(3))


def test_agreement_with_generic_certifier_on_small_bipartite_graphs():
    for n, edges in connected_graphs(8):
        G = to_graph(n, edges)
        if not G.is_bipartite():
            continue
        assert certify_bipartite_gvd(G).verdict == "gvd"
        assert is_gvd(toric_ideal(G), context=G).verdict == "gvd"
