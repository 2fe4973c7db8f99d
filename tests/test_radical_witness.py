"""The non-radicality witness of ``unmixedness_evidence``, checked against
the intersection it replaces.

Where the split components share one dimension and the initial ideal is not
square-free, the evidence looks in the reduced basis for a monomial m that
is not square-free and whose support monomial sqrt(m) is not in the ideal.
Such a witness proves the ideal is not the intersection of its minimal
primes.  Here every ideal that reaches that step, in the searches over the
7-edge corpus, three 9-edge graphs and the paper's non-GVD example, is
checked the long way: when the witness fires, the components intersected
with ``intersect`` are not the ideal, the witness lies in the radical, and
it is not in the ideal.
"""

import pytest

from gvdlab import components, gvd
from gvdlab.algebra import parse_poly, storage_order
from gvdlab.graphs import cycle_graph, toric_ideal
from gvdlab.groebner import Ideal, ideal_contains, ideal_equal, radical_contains
from gvdlab.gvd import is_gvd

from fixtures import intersection, two_k4_sharing_vertex
from graph_corpus import connected_graphs, to_graph


@pytest.fixture
def radical_steps(monkeypatch):
    """(ideal, evidence, witness) for each evidence call that reaches the
    radical step, as the search makes them."""
    steps, found = [], []
    real_evidence = components.unmixedness_evidence
    real_witness = components._non_radical_witness

    def witness(order, rgb):
        found.append(real_witness(order, rgb))
        return found[-1]

    def evidence(I, context=None):
        found.clear()
        ev = real_evidence(I, context)
        if found:
            steps.append((I, ev, found[0]))
        return ev

    monkeypatch.setattr(components, "_non_radical_witness", witness)
    monkeypatch.setattr(gvd, "unmixedness_evidence", evidence)
    return steps


def check_against_intersection(steps) -> int:
    """Check every step against the oracle; the number of witnesses."""
    fired = 0
    for I, ev, w in steps:
        if w is None:
            continue
        fired += 1
        assert ev.status == "inconclusive"
        radical = intersection([c.ideal(I.ring) for c in ev.components])
        assert not ideal_equal(radical, I)
        assert radical_contains(I, w) and not ideal_contains(I, w)
    return fired


def test_witness_on_a_four_cycle():
    # <e1^2, e1*e3 - e2*e4> splits into <e1, e2> and <e1, e4>, both of
    # dimension 2, which intersect to <e1, e2*e4>: e1 is the witness.
    G = cycle_graph(4)
    ring = G.edge_ring()
    J = Ideal(ring, [parse_poly(ring, "e1^2"), parse_poly(ring, "e1*e3 - e2*e4")])
    ev = components.unmixedness_evidence(J, G)
    assert ev.status == "inconclusive"
    assert ev.dims == (2, 2)
    assert "not their intersection" in ev.detail
    order = storage_order(ring)
    assert components._non_radical_witness(order, J.groebner()) == parse_poly(ring, "e1")
    radical = intersection([c.ideal(ring) for c in ev.components])
    assert ideal_equal(radical, Ideal(ring, [parse_poly(ring, "e1"),
                                             parse_poly(ring, "e2*e4")]))


def test_no_witness_in_a_radical_basis():
    # <e1^2, e1*e3 - e2*e4> with e1 in place of e1^2 is <e1, e2*e4>.
    G = cycle_graph(4)
    ring = G.edge_ring()
    order = storage_order(ring)
    J = Ideal(ring, [parse_poly(ring, "e1"), parse_poly(ring, "e1*e3 - e2*e4")])
    for radical in (J, toric_ideal(G)):
        assert components._non_radical_witness(order, radical.groebner()) is None


def test_intersection_decides_without_a_witness():
    # <e1> plus the toric ideal of two_k4 reaches the radical step with no
    # witness in its basis, and is still not radical: the intersection
    # decides.
    G = two_k4_sharing_vertex()
    ring = G.edge_ring()
    J = toric_ideal(G).with_extra([ring.var("e1")])
    order = storage_order(ring)
    assert components._non_radical_witness(order, J.groebner()) is None
    ev = components.unmixedness_evidence(J, G)
    assert ev.status == "inconclusive" and set(ev.dims) == {6}
    assert not ideal_equal(intersection([c.ideal(ring) for c in ev.components]), J)


# The 9-edge graphs whose searches reach the radical step: the searches over
# the 7-edge corpus never do.
NINE_EDGE_GRAPHS = (
    (7, ((0, 1), (0, 3), (1, 3), (2, 4), (2, 5), (3, 6), (4, 5), (4, 6), (5, 6))),
    (7, ((0, 1), (0, 5), (1, 5), (2, 3), (2, 6), (3, 6), (4, 5), (4, 6), (5, 6))),
    (7, ((0, 1), (0, 6), (1, 6), (2, 4), (2, 5), (3, 4), (3, 6), (4, 5), (5, 6))),
)


def test_witness_agrees_with_intersection_on_small_graphs(radical_steps):
    for n, edges in connected_graphs(7) + list(NINE_EDGE_GRAPHS):
        G = to_graph(n, edges)
        is_gvd(toric_ideal(G), context=G)
    assert check_against_intersection(radical_steps) == 17


def test_witness_agrees_with_intersection_on_two_k4(radical_steps):
    G = two_k4_sharing_vertex()
    assert is_gvd(toric_ideal(G), context=G).verdict == "not-gvd"
    assert check_against_intersection(radical_steps) == 206
