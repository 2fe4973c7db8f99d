"""Metamorphic checks: certificates do not depend on names.

Renaming vertices and edges so that the new names sort as the old ones did
must give exactly the renamed certificate, since the certifiers read names
only through their order.  Renames that change that order, and listing
the edges in another order (which changes the ring's variable order), both
change the search, but never the verdict, nor whether some lex order gives
a square-free initial ideal.
"""

import json
import random

import pytest

from gvdlab import bipartite, ef, gvd
from gvdlab.algebra import Ring, parse_poly
from gvdlab.bipartite import certify_bipartite_gvd
from gvdlab.components import unmixedness_evidence
from gvdlab.ef import quadratic_pipeline, squarefree_lex_initial
from gvdlab.glicci import squarefree_lex_order
from gvdlab.graphs import (
    Graph, complete_bipartite, complete_graph, cycle_graph, ferrers_graph,
    toric_ideal,
)
from gvdlab.groebner import Ideal
from gvdlab.gvd import (
    GvdCertificate, certify_step, inconclusive, is_gvd, replay_certificate,
)

from fixtures import (
    PolledBudget, empty_shared_memo, two_k4_sharing_vertex, two_triangles_bridged,
)
from graph_corpus import NINE_EDGE_GRAPHS, connected_graphs, to_graph
from test_golden import digest

GRAPHS = {
    "C6": cycle_graph(6),
    "K23": complete_bipartite(2, 3),
    "K4": complete_graph(4),
    "two_triangles_bridged": two_triangles_bridged(),
}


def certify(G):
    return is_gvd(toric_ideal(G), context=G)


def sorted_rename(names, rng, prefix) -> dict:
    """New random names that sort among themselves as ``names`` do."""
    picks = sorted(rng.sample(range(10 ** 4), len(names)))
    return {old: "%s%04d" % (prefix, k) for old, k in zip(sorted(names), picks)}


def shuffled_rename(names, rng, prefix) -> dict:
    """New random names, whatever their sort order."""
    picks = rng.sample(range(10 ** 4), len(names))
    return {old: "%s%04d" % (prefix, k) for old, k in zip(names, picks)}


def relabeled(G, seed, rename=sorted_rename):
    rng = random.Random(seed)
    vmap = rename(G.vertices, rng, "v")
    emap = rename(G.edge_labels, rng, "f")
    H = Graph([vmap[v] for v in G.vertices],
              [(emap[e], vmap[u], vmap[v]) for e, u, v in G.edges])
    return H, vmap, emap


def permuted(G, seed):
    edges = list(G.edges)
    random.Random(seed).shuffle(edges)
    return Graph(G.vertices, edges)


def certifiers(G):
    yield certify
    if G.is_bipartite():
        yield certify_bipartite_gvd


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_order_preserving_rename_renames_the_certificate(name):
    G = GRAPHS[name]
    for seed in (1, 2):
        H, _, emap = relabeled(G, seed)
        for run in certifiers(G):
            assert (run(H).to_json_dict()
                    == run(G).rename(emap).to_json_dict())


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_permuted_edge_order_keeps_the_verdict(name):
    G = GRAPHS[name]
    for seed in (1, 2):
        H = permuted(G, seed)
        assert H.edge_labels != G.edge_labels
        for run in certifiers(G):
            assert run(H).verdict == run(G).verdict
        assert ((squarefree_lex_order(H) is None)
                == (squarefree_lex_order(G) is None))


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_rename_that_reorders_the_names_keeps_the_verdict(name):
    G = GRAPHS[name]
    for seed in (1, 2):
        H, vmap, emap = relabeled(G, seed, shuffled_rename)
        for names, new in ((G.vertices, vmap), (G.edge_labels, emap)):
            assert sorted(new[n] for n in names) != [new[n] for n in sorted(names)]
        for run in certifiers(G):
            assert run(H).verdict == run(G).verdict


def test_rename_reaches_the_reason_of_a_refuted_disjoint_union(monkeypatch):
    # The reason names the refuted factor's variables; a renamed certificate,
    # and a memo hit from another ring, must name the new ones.
    ring, new = Ring(["x", "y", "z", "w"]), Ring(["a1", "a2", "a3", "a4"])
    name_map = dict(zip(ring.names, new.names))
    I = Ideal(ring, [parse_poly(ring, "x^2"), parse_poly(ring, "z*w")])
    empty_shared_memo(monkeypatch)
    fresh = is_gvd(I.rename(new, name_map)).to_json_dict()
    assert fresh["reason"] == "the factor on a1 is not decomposable"
    empty_shared_memo(monkeypatch)
    assert is_gvd(I).rename(name_map).to_json_dict() == fresh
    assert is_gvd(I.rename(new, name_map)).to_json_dict() == fresh


def test_memo_hit_from_a_ring_sorted_otherwise_is_a_fresh_search(monkeypatch):
    # The components of the evidence are listed by their variable names, so
    # a hit renamed onto names that sort the other way is sorted again.
    ring, new = Ring(["x1", "x2", "x3", "x4"]), Ring(["d", "c", "b", "a"])
    I = Ideal(ring, [parse_poly(ring, t) for t in ("x1*x2", "x2*x3", "x3*x4")])
    J = I.rename(new, dict(zip(ring.names, new.names)))
    empty_shared_memo(monkeypatch)
    fresh = is_gvd(J).to_json_dict()
    assert ([c["M"] for c in fresh["unmixedness"]["components"]]
            == [["a", "c"], ["b", "c"], ["b", "d"]])
    empty_shared_memo(monkeypatch)
    is_gvd(I)
    assert is_gvd(J).to_json_dict() == fresh


def test_bipartite_memo_hits_across_relabellings_are_fresh_certificates(monkeypatch):
    # The bipartite certifier keys a node by position and structure, never by
    # name.  Warmed at one relabelling, it serves a second one entirely, and
    # each certificate has the JSON of one built from an empty memo and
    # replays.  The last two graphs, of the
    # 9-edge census, meet nodes with equal reduced bases and other
    # structures, so a key without the structure would change the second's
    # certificate.
    graphs = [to_graph(n, edges) for n, edges in connected_graphs(7)]
    graphs = [G for G in graphs if G.is_bipartite()]
    assert len(graphs) == 68
    graphs += [complete_bipartite(3, 3), complete_bipartite(4, 4), ferrers_graph((3, 2, 1)),
               to_graph(7, ((0, 3), (0, 4), (1, 3), (1, 5), (2, 4), (2, 5), (3, 6),
                            (4, 6), (5, 6))),
               to_graph(8, ((0, 4), (1, 5), (2, 4), (2, 6), (3, 5), (3, 7), (4, 7),
                            (5, 6), (6, 7)))]
    empty_shared_memo(monkeypatch)
    for G in graphs:
        certify_bipartite_gvd(relabeled(G, 1, shuffled_rename)[0])
    steps, real = [], bipartite.certify_step
    monkeypatch.setattr(bipartite, "certify_step",
                        lambda *args: steps.append(args) or real(*args))
    warm = [(H, certify_bipartite_gvd(H))
            for H in (relabeled(G, 2, shuffled_rename)[0] for G in graphs)]
    assert steps == []
    for H, cert in warm:
        empty_shared_memo(monkeypatch)
        fresh = certify_bipartite_gvd(H)
        assert (json.dumps(cert.to_json_dict(), sort_keys=True)
                == json.dumps(fresh.to_json_dict(), sort_keys=True))
        assert replay_certificate(toric_ideal(H), cert, context=H)
    assert steps


def test_ef_memo_hits_across_relabellings_are_fresh_certificates(monkeypatch):
    # The E/F walk keys a node by position and context, never by name.
    # Warmed at one relabelling of the 7-edge corpus, the memo serves a
    # second one entirely, and each certificate has the JSON of one built
    # from an empty memo.  The 130 graphs with a square-free label-order
    # initial ideal certify and replay; the other one is inconclusive, its
    # root stored all the same, and replays False.
    graphs = [to_graph(n, edges) for n, edges in connected_graphs(7)]
    assert len(graphs) == 131
    assert sum(map(squarefree_lex_initial, graphs)) == 130
    empty_shared_memo(monkeypatch)
    for G in graphs:
        quadratic_pipeline(relabeled(G, 1, shuffled_rename)[0])
    steps, real = [], ef.certify_step
    monkeypatch.setattr(ef, "certify_step",
                        lambda *args: steps.append(args) or real(*args))
    warm = [(H, quadratic_pipeline(H))
            for H in (relabeled(G, 2, shuffled_rename)[0] for G in graphs)]
    assert steps == []
    for H, cert in warm:
        empty_shared_memo(monkeypatch)
        fresh = quadratic_pipeline(H)
        assert (json.dumps(cert.to_json_dict(), sort_keys=True)
                == json.dumps(fresh.to_json_dict(), sort_keys=True))
        assert (replay_certificate(toric_ideal(H), cert, context=H)
                == (cert.verdict == "gvd"))
    assert [cert.verdict for _, cert in warm].count("inconclusive") == 1
    assert steps


def test_every_memo_hit_is_what_a_fresh_search_builds(monkeypatch):
    # Symmetric branches of one search share memo entries across rings
    # whose names sort differently (shuffled names make that common); each
    # hit must read as a fresh search.
    empty_shared_memo(monkeypatch)
    real = gvd.certify_node
    hits = []
    stored_from = {}  # the ring names of the call that stored each key

    def checked(I, budget, key, certify):
        k = key()
        hit = gvd._MEMO.get(k)
        got = real(I, budget, key, certify)
        if hit is not None:
            json_of = lambda node: GvdCertificate(node, I.ring.names).to_json_dict()
            hits.append((stored_from[k] != I.ring.names,
                         json_of(got) == json_of(certify())))
        elif k in gvd._MEMO:
            stored_from[k] = I.ring.names
        return got

    monkeypatch.setattr(gvd, "certify_node", checked)
    for seed, (n, edges) in enumerate(connected_graphs(7) + list(NINE_EDGE_GRAPHS)):
        G, _, _ = relabeled(to_graph(n, edges), seed, shuffled_rename)
        is_gvd(toric_ideal(G), context=G)
    assert any(renamed for renamed, _ in hits)
    assert all(same for _, same in hits)


def test_a_warm_shared_memo_keeps_the_golden_certificates(monkeypatch):
    # The corpus in reverse order, from an empty shared memo, so that each
    # graph meets the nodes of those after it; then again with the memo
    # full.  The certificates are test_golden's, byte for byte.
    empty_shared_memo(monkeypatch)
    graphs = [to_graph(n, edges) for n, edges in connected_graphs(7)]
    for _ in range(2):
        certs = [certify(G) for G in reversed(graphs)]
        assert digest(certs[::-1]) == (
            "76cdd76fd5cd63170f86a793123ad3b1802112dc94f50e6c7e5daf2d0425cc1b")


def renamed_reason(cert) -> tuple:
    """The reason of a node before and after renaming every variable."""
    name_map = {n: "z" + n for n in cert.ring_names}
    return cert.to_json_dict()["reason"], cert.rename(name_map).to_json_dict()["reason"]


def test_rename_reaches_the_reason_of_a_failed_structural_step():
    # The basis of <x^2 - y*z> has x-degree 2, so the step at x fails.
    ring = Ring(["x", "y", "z"])
    I = Ideal(ring, [parse_poly(ring, "x^2 - y*z")])
    cert = GvdCertificate(certify_step(I, "x", None, None, None), ring.names)
    assert cert.verdict == "inconclusive"
    assert renamed_reason(cert) == ("decomposition identity failed at x",
                                    "decomposition identity failed at zx")


def test_rename_reaches_the_reason_of_a_starved_search(monkeypatch):
    # The budget lasts for the root and its step at e1, so the C branch at
    # e1 gives up and the loop stops at e2.  The memo starts empty, or a
    # node it holds would answer before the budget runs out.
    empty_shared_memo(monkeypatch)
    G = complete_graph(4)
    cert = is_gvd(toric_ideal(G), context=G, budget=PolledBudget(2))
    assert cert.verdict == "inconclusive"
    assert renamed_reason(cert) == (
        "e1: a branch was inconclusive; e2: budget exhausted",
        "ze1: a branch was inconclusive; ze2: budget exhausted")


def test_rename_reaches_the_polynomial_in_an_evidence_detail():
    # The split rejects the binomial, and the detail quotes it.
    G = two_k4_sharing_vertex()
    ring = G.edge_ring()
    I = Ideal(ring, [parse_poly(ring, "e1^2*e6 - e2*e5*e3"), parse_poly(ring, "e4")])
    cert = GvdCertificate(inconclusive("no search", unmixedness=unmixedness_evidence(I, G)),
                          ring.names)
    name_map = {n: "z" + n[1:] for n in ring.names}
    details = [c.to_json_dict()["unmixedness"]["detail"]
               for c in (cert, cert.rename(name_map))]
    assert details == [
        "splitting not applicable: binomial not doubly square-free: "
        "e1^2*e6 - e2*e3*e5",
        "splitting not applicable: binomial not doubly square-free: "
        "z1^2*z6 - z2*z3*z5"]
