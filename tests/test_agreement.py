"""The three certifiers never reach conflicting conclusive verdicts.

The generic search, the bipartite certifier and the E/F pipeline read
each step's identity off the reduced basis instead of computing it, so
they are checked against each other on every graph they run on.  The
pipeline runs on every graph; it can only certify, since a toric ideal is
prime, and a label order that fails says nothing of the toric ideal.
Every certificate the three certifiers build over the corpus also
replays, and records at each step the order of its split.  The two
structural certifiers store computed unmixedness evidence at every node,
and it is always conclusive.
"""

from functools import lru_cache

from gvdlab.algebra import Ring, y_order
from gvdlab.bipartite import certify_bipartite_gvd
from gvdlab.ef import quadratic_pipeline
from gvdlab.graphs import (
    complete_bipartite, complete_graph, ferrers_graph, toric_ideal,
    universal_groebner_basis,
)
from gvdlab.gvd import is_gvd, replay_certificate

from fixtures import two_triangles_bridged
from graph_corpus import connected_graphs, to_graph

GRAPHS = ([to_graph(n, edges) for n, edges in connected_graphs(7)]
          + [two_triangles_bridged()])


def conclusive_verdicts(G) -> dict:
    verdicts = {"is_gvd": is_gvd(toric_ideal(G), context=G).verdict}
    if G.is_bipartite():
        verdicts["bipartite"] = certify_bipartite_gvd(G).verdict
    verdicts["E/F"] = quadratic_pipeline(G).verdict
    return {k: v for k, v in verdicts.items() if v != "inconclusive"}


def test_conclusive_verdicts_agree():
    for G in GRAPHS:
        verdicts = conclusive_verdicts(G)
        assert len(set(verdicts.values())) <= 1, (G.edges, verdicts)


@lru_cache(maxsize=None)
def corpus_certificates() -> tuple:
    """(graph, certificate) lists of ``is_gvd`` over every graph, and of
    the bipartite certifier and the quadratic pipeline over the corpus
    graphs they apply to."""
    corpus = GRAPHS[:-1]
    certs = [(G, is_gvd(toric_ideal(G), context=G)) for G in GRAPHS]
    bipartite = [(G, certify_bipartite_gvd(G)) for G in corpus
                 if G.is_bipartite()]
    quadratic = [(G, quadratic_pipeline(G)) for G in corpus
                 if all(g.total_degree() == 2
                        for g in universal_groebner_basis(G))]
    return certs, bipartite, quadratic


def test_every_corpus_certificate_replays():
    # Replay checks each step literally, under the order it derives from y.
    certs, bipartite, quadratic = corpus_certificates()
    assert len(certs) == 132 and certs[-1][1].verdict == "not-gvd"
    assert (len(bipartite), len(quadratic)) == (68, 122)
    for G, cert in certs + bipartite + quadratic:
        assert replay_certificate(toric_ideal(G), cert, context=G), G.edges


def test_structural_evidence_is_always_conclusive():
    # The structural certifiers store computed evidence only, and it decides
    # unmixedness at every node they build: none needs a theorem to stand in.
    _, bipartite, quadratic = corpus_certificates()
    certs = [cert for _, cert in bipartite + quadratic]
    certs += [certify_bipartite_gvd(G) for G in (
        complete_bipartite(3, 3), complete_bipartite(4, 4), ferrers_graph((3, 2, 1)))]
    certs.append(quadratic_pipeline(complete_graph(4)))
    nodes = 0
    for cert in certs:
        todo = [cert]
        while todo:
            node = todo.pop()
            todo.extend(kid for kid in (node.child_c, node.child_n) if kid is not None)
            assert node.unmixedness is not None and node.unmixedness.conclusive_unmixed
            nodes += 1
    assert len(certs) == 68 + 122 + 4 and nodes > len(certs)


def test_every_step_records_the_order_of_its_split():
    steps = 0
    for certs in corpus_certificates():
        for G, cert in certs:
            todo = [cert.to_json_dict()]
            while todo:
                node = todo.pop()
                todo.extend(node.get("children", {}).values())
                assert ("y" in node) == ("order" in node), node["kind"]
                assert ("y" in node) or node["kind"] != "decomposition"
                if "y" not in node:
                    continue
                steps += 1
                ring, y, order = Ring(node["ring"]), node["y"], node["order"]
                assert (order["kind"], order["y"], order["inner"]["kind"]) == ("y-first", y, "lex")
                assert (tuple(map(ring.index.__getitem__, order["inner"]["vars"]))
                        == y_order(ring, y).rows), (G.edges, node["ring"], y)
    assert steps > 0
