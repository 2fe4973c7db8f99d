"""Golden certificates: the SHA-256 of the certificate JSON of every
certifier over every connected graph with at most 7 edges, and of two
refutations.  The digests pin every byte of every certificate, so a
refactor of the certifiers that changes any verdict, step, order or
evidence string shows here.  A deliberate change of the certificates must
update the digests and say why."""

import hashlib
import json

from gvdlab.algebra import Ring, parse_poly
from gvdlab.bipartite import certify_bipartite_gvd
from gvdlab.ef import quadratic_pipeline
from gvdlab.graphs import toric_ideal, universal_groebner_basis
from gvdlab.groebner import Ideal
from gvdlab.gvd import is_gvd

from fixtures import two_triangles_bridged
from graph_corpus import connected_graphs, to_graph

GRAPHS = [to_graph(n, edges) for n, edges in connected_graphs(7)]


def digest(certs) -> str:
    blob = json.dumps([c.to_json_dict() for c in certs], sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def test_corpus_size():
    assert len(GRAPHS) == 131


def test_generic_certificates():
    certs = [is_gvd(toric_ideal(G), context=G) for G in GRAPHS]
    assert digest(certs) == (
        "76cdd76fd5cd63170f86a793123ad3b1802112dc94f50e6c7e5daf2d0425cc1b")


def test_bipartite_certificates():
    certs = [certify_bipartite_gvd(G) for G in GRAPHS if G.is_bipartite()]
    assert len(certs) == 68
    assert digest(certs) == (
        "0680b06bf402e566369683e9b3f84ff5901488c0725d810eb3e7ec38b213edab")


def test_quadratic_certificates():
    certs = [quadratic_pipeline(G) for G in GRAPHS
             if all(g.total_degree() == 2 for g in universal_groebner_basis(G))]
    assert len(certs) == 122
    assert digest(certs) == (
        "47c8778da584c08dceded64c6e7b92ee2dfe26ca5e4e53dc4548cafafed26ad1")


def test_refutations():
    G = two_triangles_bridged()
    ring = Ring(["x", "y", "z", "w"])
    certs = [is_gvd(toric_ideal(G), context=G),
             is_gvd(Ideal(ring, [parse_poly(ring, "x^2"),
                                 parse_poly(ring, "z*w")]))]
    assert [c.verdict for c in certs] == ["not-gvd", "not-gvd"]
    assert digest(certs) == (
        "23317d110ad710ec04fedf32c0a98512074af1460b4c0071521f93f143e21130")
