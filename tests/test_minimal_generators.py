"""``minimal_generators`` keeps exactly the candidates that the greedy
membership test keeps.

For homogeneous input it decides membership with one Groebner basis per
degree and linear algebra within the degree (proved in its docstring);
the oracle below is the plain greedy test, one ideal membership per
candidate against the generators kept before it.  The two must return the
same list, in the same order, on the toric ideals of every connected graph
with at most 7 edges, on the C and N branches of each at every variable,
and on an inhomogeneous ideal.
"""

from gvdlab.algebra import Ring, parse_poly
from gvdlab.graphs import universal_groebner_basis
from gvdlab.groebner import Ideal, contract, ideal_contains, minimal_generators
from gvdlab.gvd import cn_split

from graph_corpus import connected_graphs, to_graph

GRAPHS = [to_graph(n, edges) for n, edges in connected_graphs(7)]


def greedy_generators(I: Ideal) -> list:
    """The oracle: candidates by ascending degree, ties by descending
    canonical form; keep each that the kept ones before it do not generate."""
    cands = sorted(I.gens, key=lambda f: f.canonical(), reverse=True)
    cands.sort(key=lambda f: f.total_degree())
    kept = []
    for f in cands:
        if kept and ideal_contains(Ideal(I.ring, kept), f):
            continue
        kept.append(f)
    return kept


def assert_same_generators(I: Ideal):
    assert minimal_generators(I) == greedy_generators(I)


def test_toric_ideals_of_the_corpus_and_their_branches():
    branches = set()
    for G in GRAPHS:
        I = Ideal(G.edge_ring(), universal_groebner_basis(G))
        assert_same_generators(I)
        for y in I.ring.names:
            split = cn_split(I, y)
            for B in (split.C, split.N):
                B = contract(B, y)
                key = (B.ring.names, tuple(g.canonical() for g in B.gens))
                if key not in branches:
                    branches.add(key)
                    assert_same_generators(B)
    assert len(branches) == 216


def test_inhomogeneous_input_keeps_the_greedy_test():
    R = Ring(["x", "y", "z"])
    for texts in (("y - x^2", "y - z"), ("y - x^2", "y - z", "z - x^2")):
        J = Ideal(R, [parse_poly(R, t) for t in texts])
        kept = minimal_generators(J)
        assert kept == greedy_generators(J)
        assert len(kept) == 2


def test_duplicates_and_multiples_are_dropped_within_a_degree():
    R = Ring(["x", "y", "z"])
    texts = ("x*y - z^2", "2*x*y - 2*z^2", "x^2", "x^2 + x*y - z^2", "y^2")
    J = Ideal(R, [parse_poly(R, t) for t in texts])
    kept = minimal_generators(J)
    assert kept == greedy_generators(J)
    assert len(kept) == 3
