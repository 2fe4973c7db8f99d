"""The non-radicality witness of ``unmixedness_evidence``, checked against
the intersection it replaces.

Where the split components share one dimension and the initial ideal is not
square-free, the evidence looks in the reduced basis for a monomial m that
is not square-free; its support monomial sqrt(m) is then not in the ideal.
Such a witness proves the ideal is not the intersection of its minimal
primes.  Here the ideals where it fires, met by a walk over the C and N
branches below the toric ideals of the 7-edge corpus, three 9-edge graphs
and the paper's non-GVD example, are checked the long way: the components
intersected with ``intersect`` are not the ideal, the witness lies in the
radical, and it is not in the ideal.
"""

import pytest

from gvdlab import components
from gvdlab.algebra import parse_poly
from gvdlab.graphs import cycle_graph, toric_ideal
from gvdlab.groebner import (
    Ideal, contract, ideal_contains, ideal_equal, radical_contains,
)
from gvdlab.gvd import base_node, cn_split

from fixtures import intersection, two_k4_sharing_vertex
from graph_corpus import NINE_EDGE_GRAPHS, connected_graphs, to_graph


def witness_steps(graphs, wanted: int) -> list:
    """(ideal, evidence, witness) for the first ``wanted`` ideals whose
    evidence fires the witness, met by a depth-first walk over the C and N
    branches of every square-free split below each graph's toric ideal.

    The search stops at an ideal once the evidence proves it not radical,
    so it no longer meets the ideals below; the walk goes on through them,
    and stops only at base cases and refuted unmixedness.
    """
    steps, found = [], []
    real_witness = components._non_radical_witness

    def witness(rgb):
        found.append(real_witness(rgb))
        return found[-1]

    def walk(I, context, seen):
        key = (I.ring.names, tuple(g.canonical() for g in I.groebner()))
        if key in seen or len(steps) >= wanted:
            return
        seen.add(key)
        if base_node(I) is not None:
            return
        found.clear()
        ev = components.unmixedness_evidence(I, context)
        if found and found[0] is not None:
            steps.append((I, ev, found[0]))
        if ev.refuted:
            return
        for y in I.ring.names:
            split = cn_split(I, y)
            if not split.square_free_in_y:
                continue
            ctx = context.delete_edges([y]) if y in context.edge_labels else context
            walk(contract(split.C, y), ctx, seen)
            if split.C.gens != split.N.gens:
                walk(contract(split.N, y), ctx, seen)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(components, "_non_radical_witness", witness)
        for G in graphs:
            walk(toric_ideal(G), G, set())
    return steps


def check_against_intersection(steps) -> int:
    """Check every step against the oracle; the number of witnesses."""
    for I, ev, w in steps:
        assert ev.status == "inconclusive" and ev.not_radical
        radical = intersection([c.ideal(I.ring) for c in ev.components])
        assert not ideal_equal(radical, I)
        assert radical_contains(I, w) and not ideal_contains(I, w)
    return len(steps)


def test_witness_on_a_four_cycle():
    # <e1^2, e1*e3 - e2*e4> splits into <e1, e2> and <e1, e4>, both of
    # dimension 2, which intersect to <e1, e2*e4>: e1 is the witness.
    G = cycle_graph(4)
    ring = G.edge_ring()
    J = Ideal(ring, [parse_poly(ring, "e1^2"), parse_poly(ring, "e1*e3 - e2*e4")])
    ev = components.unmixedness_evidence(J, G)
    assert ev.status == "inconclusive" and ev.not_radical
    assert ev.dims == (2, 2)
    assert "not their intersection" in ev.detail
    assert components._non_radical_witness(J.groebner()) == parse_poly(ring, "e1")
    radical = intersection([c.ideal(ring) for c in ev.components])
    assert ideal_equal(radical, Ideal(ring, [parse_poly(ring, "e1"),
                                             parse_poly(ring, "e2*e4")]))


def test_no_witness_in_a_radical_basis():
    # <e1^2, e1*e3 - e2*e4> with e1 in place of e1^2 is <e1, e2*e4>.
    G = cycle_graph(4)
    ring = G.edge_ring()
    J = Ideal(ring, [parse_poly(ring, "e1"), parse_poly(ring, "e1*e3 - e2*e4")])
    for radical in (J, toric_ideal(G)):
        assert components._non_radical_witness(radical.groebner()) is None


def test_intersection_decides_without_a_witness():
    # <e1> plus the toric ideal of two_k4 reaches the radical step with no
    # witness in its basis, and is still not radical: the intersection
    # decides.
    G = two_k4_sharing_vertex()
    ring = G.edge_ring()
    J = toric_ideal(G).with_extra([ring.var("e1")])
    assert components._non_radical_witness(J.groebner()) is None
    ev = components.unmixedness_evidence(J, G)
    assert ev.status == "inconclusive" and set(ev.dims) == {6}
    assert ev.not_radical
    assert not ideal_equal(intersection([c.ideal(ring) for c in ev.components]), J)


def test_witness_agrees_with_intersection_on_small_graphs():
    # The search without its stop at non-radical ideals met 17 witnesses
    # here, all in the 9-edge graphs.
    graphs = [to_graph(n, edges)
              for n, edges in connected_graphs(7) + list(NINE_EDGE_GRAPHS)]
    assert check_against_intersection(witness_steps(graphs, 17)) == 17


def test_witness_agrees_with_intersection_on_two_k4():
    # The search without its stop at non-radical ideals met 206 witnesses.
    steps = witness_steps([two_k4_sharing_vertex()], 206)
    assert check_against_intersection(steps) == 206
