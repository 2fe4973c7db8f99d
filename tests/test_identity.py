"""The facts the certifiers trust at a decomposition step, tested against
the general elimination routines.

A step of the certifier splits I at y into C and N.  The certifiers read
the identity in_y(I) = C ∩ (N + <y>) off the reduced basis: it holds
exactly when the basis is square-free in y (proved at ``gvd.CnSplit``).
``check_decomposition`` checks the identity literally, with the right
side as N + y·C, which is the same ideal because N ⊆ C and y is a
nonzerodivisor modulo the y-free ideal C.  It proves the identity from the
generators of the two sides where it can, and compares their reduced bases
where it cannot; at every variable it must agree with that comparison.  Where the basis is square-free
in y, C is the saturation in_y(I) : y^∞, since y·C ⊆ in_y(I) ⊆ C.  The
generators of C and N do not involve y, so ``contract`` renames them
instead of eliminating y.  The certifiers and replay read the degenerate
flag off the split (``CnSplit.degenerate``): C is N, or C's branch is the
unit ideal.  That is C unit or √C = √N when the branches are radical,
since C = N only when y is absent from the reduced basis.  These facts are checked here at every variable, with
``intersect``, ``saturate_variable``, ``eliminate`` and ``radical_equal``,
the last as the oracle of the flag.
"""

import pytest

from gvdlab.algebra import Ring, parse_poly
from gvdlab.graphs import toric_ideal
from gvdlab.groebner import (
    Ideal, contract, eliminate, ideal_equal, intersect, radical_equal,
    saturate_variable,
)
from gvdlab.gvd import check_decomposition, cn_split, initial_y_ideal

from fixtures import two_k4_chain
from graph_corpus import connected_graphs, to_graph

GRAPHS = [to_graph(n, edges) for n, edges in connected_graphs(7)]
XYZW = Ring(["x", "y", "z", "w"])


def assert_split_facts(I: Ideal, y: str):
    """N + y·C = C ∩ (N + <y>), the literal identity holds exactly when the
    basis is square-free in y, C = in_y(I) : y^∞ where it is, renaming
    contracts C and N, and the contractions differ unless the generator
    lists agree.  Returns the split."""
    split = cn_split(I, y)
    C, N = split.C, split.N
    yvar = I.ring.var(y)
    rhs = intersect(C, N.with_extra([yvar]))
    literal = N.with_extra([yvar * c for c in C.gens])
    assert ideal_equal(literal, rhs)
    assert (check_decomposition(I, split)
            == ideal_equal(initial_y_ideal(I, y), literal)
            == split.square_free_in_y)
    if split.square_free_in_y:
        assert ideal_equal(saturate_variable(initial_y_ideal(I, y), y), C)
    for B in (C, N):
        assert ideal_equal(contract(B, y), eliminate(B, [y]))
    if C.gens != N.gens:  # y occurs in the basis, so C ≠ N (``CnSplit.degenerate``)
        assert contract(C, y).groebner() != contract(N, y).groebner()
    return split


def assert_check_facts(I: Ideal):
    """The split facts at every variable, and the degeneracy agrees with
    the one computed the long way."""
    for y in I.ring.names:
        split = assert_split_facts(I, y)
        assert split.degenerate == (
            split.C.is_unit_ideal() or radical_equal(split.C, split.N))


@pytest.fixture(scope="module")
def chain():
    return two_k4_chain()


def test_toric_ideals_of_the_corpus_and_their_c_branches():
    branches = {}  # one C branch per distinct reduced basis
    for G in GRAPHS:
        I = toric_ideal(G)
        for y in I.ring.names:
            C = contract(assert_split_facts(I, y).C, y)
            basis = tuple(g.canonical() for g in C.groebner())
            branches.setdefault((C.ring.names, basis), C)
    assert len(branches) == 189
    for C in branches.values():
        for y in C.ring.names:
            assert_split_facts(C, y)


@pytest.mark.parametrize("name", ["J", "K", "L", "M"])
def test_two_k4_chain_ideals(chain, name):
    assert_check_facts(chain[name])


@pytest.mark.parametrize("texts", [["y^2"], ["x^2", "z*w"]])
def test_non_square_free_ideals(texts):
    assert_check_facts(Ideal(XYZW, [parse_poly(XYZW, t) for t in texts]))


def test_contract_refuses_generators_that_involve_the_variable():
    J = Ideal(XYZW, [parse_poly(XYZW, "x - y*z")])
    with pytest.raises(KeyError):
        contract(J, "y")
