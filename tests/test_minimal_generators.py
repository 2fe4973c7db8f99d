"""``minimal_generators`` keeps exactly the candidates that the greedy
membership test keeps.

For homogeneous input it decides membership with one Groebner basis per
degree and linear algebra within the degree (proved in its docstring);
the oracle below is the plain greedy test, one ideal membership per
candidate against the generators kept before it.  The two must return the
same list, in the same order, on the toric ideals of every connected graph
with at most 7 edges, on the C and N branches of each at every variable,
and on an inhomogeneous ideal.

Those ideals are generated by monomials and pure differences, so
``minimal_generators`` and ``ideal_contains`` compute on ``_Binomials``;
made to compute on ``_Fractions`` instead, they must answer alike.
"""

from functools import lru_cache

from gvdlab import groebner
from gvdlab.algebra import Poly, Ring, parse_poly
from gvdlab.graphs import universal_groebner_basis
from gvdlab.groebner import (
    Ideal, _Binomials, _Fractions, contract, ideal_contains, minimal_generators,
)
from gvdlab.gvd import cn_split

from graph_corpus import connected_graphs, to_graph

GRAPHS = [to_graph(n, edges) for n, edges in connected_graphs(7)]


@lru_cache(maxsize=None)
def corpus_ideals() -> tuple:
    """(ideal, binomials) pairs: the toric ideal of each corpus graph,
    generated by its universal basis U, with U; then each distinct
    contracted C or N branch of one at a variable y, with U's elements at
    y = 1."""
    out, seen = [], set()
    for G in GRAPHS:
        U = universal_groebner_basis(G)
        I = Ideal(G.edge_ring(), U)
        out.append((I, tuple(U)))
        for y in I.ring.names:
            split = cn_split(I, y)
            i = I.ring.index[y]
            for B in (split.C, split.N):
                B = contract(B, y)
                key = (B.ring.names, tuple(g.canonical() for g in B.gens))
                if key not in seen:
                    seen.add(key)
                    at_one = tuple(Poly(B.ring, {m[:i] + m[i + 1:]: c
                                                 for m, c in g.terms.items()})
                                   for g in U)
                    out.append((B, at_one))
    return tuple(out)


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
    ideals = corpus_ideals()
    assert len(ideals) == len(GRAPHS) + 216
    for I, _ in ideals:
        assert_same_generators(I)


def test_both_representations_give_the_same_generators_and_memberships(monkeypatch):
    ideals = corpus_ideals()
    for I, binomials in ideals:
        assert groebner._arithmetic(I.gens + binomials) is _Binomials
        assert all(len(set(map(sum, f.terms))) == 1 for f in I.gens)  # graded
    answers = []
    for arith in (_Binomials, _Fractions):
        monkeypatch.setattr(groebner, "_arithmetic", lambda polys: arith)
        answers.append([(minimal_generators(I), [ideal_contains(I, f) for f in fs])
                        for I, fs in ideals])
    assert answers[0] == answers[1]
    memberships = {m for _, ms in answers[0] for m in ms}
    assert memberships == {True, False}


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
