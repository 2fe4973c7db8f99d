"""The split's components are the minimal primes, checked the long way.

``components`` reads the minimal primes off the minimal closed covers and,
by the proof in its docstring, does not verify them at run time.  Here, for
every ideal the split accepts, the components intersect to the radical
(``radical_equal``), each has the dimension the split reports
(``krull_dimension``), and none contains another (``ideal_contains``).  On
square-free monomial ideals the covers intersect back to the ideal.
"""

import pytest

from gvdlab.algebra import (
    initial_term, initial_y_form, lex_order, mono_is_squarefree, parse_poly,
    storage_order,
)
from gvdlab.components import SplitNotApplicable, binomial_monomial_split
from gvdlab.graphs import toric_ideal
from gvdlab.groebner import (
    Ideal, contract, ideal_contains, ideal_equal, initial_ideal,
    minimal_generators, radical_equal,
)
from gvdlab.gvd import cn_split

from fixtures import (
    TWO_K4_C_E2, TWO_K4_LEX_E2_BASIS, intersection,
    is_square_free_monomial_ideal, krull_dimension, two_k4_chain,
    two_k4_sharing_vertex,
)
from graph_corpus import connected_graphs, to_graph

GRAPHS = [to_graph(n, edges) for n, edges in connected_graphs(7)]


def split(I: Ideal, context):
    """The split of I's minimal generators, as ``unmixedness_evidence``
    calls it; None where the split does not apply."""
    gens = minimal_generators(I)
    monos = [g for g in gens if g.is_monomial()]
    binoms = [g for g in gens if not g.is_monomial()]
    try:
        return binomial_monomial_split(monos, binoms, context, I.ring)
    except SplitNotApplicable:
        return None


def assert_minimal_primes(I: Ideal, context) -> bool:
    """The checks the split no longer runs; False where it does not apply."""
    comps = split(I, context)
    if comps is None:
        return False
    primes = [c.ideal(I.ring) for c in comps]
    assert radical_equal(intersection(primes), I)
    for c, P in zip(comps, primes):
        assert krull_dimension(P) == c.dimension
    for P in primes:
        for Q in primes:
            assert P is Q or not all(ideal_contains(P, g) for g in Q.gens)
    return True


def test_c_branches_of_the_corpus():
    seen = {}
    for G in GRAPHS:
        I = toric_ideal(G)
        for y in I.ring.names:
            C = contract(cn_split(I, y).C, y)
            context = G.delete_edges([y])
            basis = tuple(g.canonical() for g in C.groebner())
            key = (C.ring.names, basis, context.edges)
            if basis and key not in seen:
                seen[key] = assert_minimal_primes(C, context)
    assert len(seen) == 296 and all(seen.values())


def test_two_k4_c_branch_and_initial_forms():
    G = two_k4_sharing_vertex()
    ring = G.edge_ring()
    C = Ideal(ring, [parse_poly(ring, t) for t in TWO_K4_C_E2])
    assert assert_minimal_primes(C, G.delete_edges(["e2"]))
    forms = Ideal(ring, [initial_y_form("e2", parse_poly(ring, t))
                         for t in TWO_K4_LEX_E2_BASIS])
    assert assert_minimal_primes(forms, G)


@pytest.mark.parametrize("name, removed", [
    ("J", ["e2"]), ("K", ["e2"]), ("L", ["e2", "e5"]),
    ("M", ["e2", "e5", "e12"])])
def test_two_k4_chain(name, removed):
    ideal = two_k4_chain()[name]
    assert assert_minimal_primes(ideal, two_k4_sharing_vertex().delete_edges(removed))


def test_covers_of_square_free_initial_ideals_intersect_back():
    checked = 0
    for G in GRAPHS:
        I = toric_ideal(G)
        for order in (storage_order(I.ring), lex_order(I.ring)):
            J = initial_ideal(order, I)
            if not J.gens or not is_square_free_monomial_ideal(J):
                continue
            comps = binomial_monomial_split(J.gens, [], None, J.ring)
            primes = [c.ideal(J.ring) for c in comps]
            assert ideal_equal(intersection(primes), J)
            checked += 1
    assert checked == 92


def shortcut_primes(I: Ideal, context):
    """The components of I where ``unmixedness_evidence`` proves I radical
    by its square-free initial ideal (the split applies, the dimensions
    agree, and every storage-order initial term is square-free); else None."""
    comps = split(I, context)
    if comps is None or len({c.dimension for c in comps}) > 1:
        return None
    order = storage_order(I.ring)
    if not all(mono_is_squarefree(initial_term(order, g).mono) for g in I.groebner()):
        return None
    return [c.ideal(I.ring) for c in comps]


def test_square_free_initial_ideal_shortcut_is_the_intersection():
    # Every C and N branch of the corpus with two or more components where
    # the shortcut applies, and the two-K4 chain ideals L and M.
    decided = set()
    for G in GRAPHS:
        I = toric_ideal(G)
        for y in I.ring.names:
            s = cn_split(I, y)
            context = G.delete_edges([y])
            for J in (contract(s.C, y), contract(s.N, y)):
                key = (J.ring.names, tuple(g.canonical() for g in J.groebner()),
                       context.edges)
                primes = shortcut_primes(J, context)
                if key not in decided and primes is not None and len(primes) > 1:
                    assert ideal_equal(intersection(primes), J)
                    decided.add(key)
    assert len(decided) == 45
    for name, removed in (("L", ["e2", "e5"]), ("M", ["e2", "e5", "e12"])):
        ideal = two_k4_chain()[name]
        primes = shortcut_primes(ideal, two_k4_sharing_vertex().delete_edges(removed))
        assert ideal_equal(intersection(primes), ideal)
