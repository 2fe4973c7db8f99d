"""The edge-splitting framework for toric ideals with a square-free
lexicographic degeneration.

Fix the lexicographic order e_1 > e_2 > ... > e_n given by the edge
labelling, and assume the initial ideal of the toric ideal under it is
square-free (``squarefree_lex_initial``, the framework's hypothesis).
Splitting the first k edges into two disjoint sets E and F yields the
ideal

    I^G_{E,F} = I_{G minus the first k edges} + M_{E,F},

where M_{E,F} is generated by the monomials obtained from universal-basis
elements whose lead term involves some E-edge and no F-edge, by deleting
the E-part of the lead.  These ideals form a binary tree: the initial-form
ideal of I^G_{E,F} at y = e_{k+1} decomposes into the branch that moves
e_{k+1} into E (the C side) and the branch that moves it into F (the N
side), and at full depth every ideal is the zero or unit ideal.  The paper
proves the toric ideal geometrically vertex decomposable this way when its
universal basis is quadratic: then every I^G_{E,F} is a set of variables
plus the toric ideal of a smaller graph, which is prime and so unmixed.

``quadratic_pipeline`` is the one implementation of the framework.  It
walks the tree in label order through ``gvd.certify_step`` and returns a
replayable certificate.  The tree only chooses the next edge: the root
holds the toric ideal, generated by its reduced basis read off the
universal basis with no S-pair, as the bipartite certifier's root is
(``graphs.reduced_toric_ideal``), and every other node holds the
contracted branch of its parent's split, so the run never builds
I^G_{E,F}.  Every fact in the certificate is computed, and replay checks
each again.  A step must be square-free in y (see ``gvd.CnSplit``), and a
node's unmixedness evidence is computed as the search computes it and
must be conclusive, so soundness rests on no theorem: a graph off the
theorem, or outside the hypothesis, can only come out inconclusive.  The
tests check that every node the walk visits is I^G_{E,F}, against
generators built from the definition above, and that on quadratic graphs
it is variables plus a toric ideal.
"""

from __future__ import annotations

from typing import Optional

from .algebra import initial_term, lex_order, mono_is_squarefree
from .graphs import Graph, reduced_toric_ideal, universal_groebner_basis
from .groebner import Ideal, minimal_monomial_generators
from .gvd import GvdCertificate, GvdNode, _node_key, certify_node, certify_step
from .util import Budget

__all__ = ["squarefree_lex_initial", "quadratic_pipeline"]


def squarefree_lex_initial(G: Graph) -> bool:
    """Whether the label-order initial ideal of the toric ideal is
    square-free (the framework's standing hypothesis)."""
    order = lex_order(G.edge_ring())
    leads = [initial_term(order, g).mono for g in universal_groebner_basis(G)]
    return all(mono_is_squarefree(m)
               for m in minimal_monomial_generators(leads))


def quadratic_pipeline(G: Graph, budget: Optional[Budget] = None) -> GvdCertificate:
    """Certify the toric ideal of G decomposable by splitting its edges in
    label order, through the ideals I^G_{E,F}.

    By the paper's theorem every graph whose universal basis is quadratic
    certifies "gvd" (quadratic primitive binomials are four-cycles, so the
    hypothesis holds for free).  The walk runs on every graph, and each
    step is computed, so off the theorem a failure only leaves the root
    inconclusive.  The toric ideal is prime, so the verdict is "gvd" or
    "inconclusive", never "not-gvd", and nothing raises.  On the census
    of the 710 connected graphs with 9 edges, 680 of the 688 classes with
    a square-free label-order initial ideal certify, and none of the 22
    others do.
    """
    I = reduced_toric_ideal(G)
    return GvdCertificate(_quadratic_node(G, (), (), I, budget or Budget(None)),
                          I.ring.names)


def _quadratic_node(G: Graph, E: tuple, F: tuple, I: Ideal,
                    budget: Budget) -> GvdNode:
    # The node is shared through ``gvd._MEMO`` under the ``_node_key`` of I
    # and its context, then "ef", within one graph's tree and across graphs
    # (``gvd.certify_node`` proves equal keys give the same node).  Each
    # step contracts y away, so once every edge is placed the ideal
    # involves no variable and is a base case.
    context = G.delete_edges(E + F)

    def step() -> GvdNode:
        y = G.edge_labels[len(E) + len(F)]
        return certify_step(
            I, y, context,
            lambda C: _quadratic_node(G, E + (y,), F, C, budget),
            lambda N: _quadratic_node(G, E, F + (y,), N, budget))

    return certify_node(I, budget, lambda: _node_key(I, context) + ("ef",), step)
