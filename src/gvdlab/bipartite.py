"""Decomposability certificates for toric ideals of bipartite graphs.

A path ordered matching is an ordered list of vertex-disjoint edges
(l_1, r_1), ..., (l_r, r_r) of a bipartite graph such that the connector
{l_i, r_{i+1}} is an edge for every i < r and every graph edge joining
some l_i to some r_j satisfies i <= j.  Such a matching yields the ideal
generated by the cycle binomials of the graph without the matching edges
together with the matching-free monomials obtained from cycles one of
whose sides factors as such a monomial times matching edges, the other
side avoiding the matching entirely.  These ideals admit a structural
recursion -- drop a leaf edge, extract a contained variable when the
matching cannot be extended, or decompose at a fresh matching edge -- and
the recursion certifies decomposability of the toric ideal itself
(the empty matching) for every bipartite graph.

The structure only chooses the variable; every fact in a certificate is
computed, and replay checks each again.  The root holds the toric ideal
and every other node the contracted C or N branch of its parent's split,
and ``gvd.certify_step`` accepts a step only when that ideal's reduced
basis is square-free in y, which is the decomposition identity (see
``gvd.CnSplit``).  So a wrong structure could only leave a node
inconclusive.  By the theorem the structure is right: each node's ideal
is its matching ideal (``bipartite_ideal``), whose natural generators are
a Groebner basis with a square-free initial ideal, and the tests check
both at every node of their corpus.  The theorem also makes every node
Cohen-Macaulay, but no certificate rests on it: each node's unmixedness
evidence is computed as the search computes it, and the tests check that
it is conclusive at every node of their corpus.  Replay recomputes the
evidence and checks each identity literally.  The recursion reads and
fills ``gvd._MEMO``, the one memo of certified nodes, under keys of its
own, by position and structure (see ``_certify_node``), and stores a node
by the rule of ``gvd.certify_node``: when no poll of the call's budget has
read "spent".  Across a census the classes share most of their
subproblems.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .algebra import Ring
from .graphs import Graph, reduced_toric_ideal, universal_groebner_basis
from .groebner import Ideal
from .gvd import (GvdCertificate, GvdNode, _node_key, certify_node,
                  certify_step, inconclusive)
from .util import Budget

__all__ = [
    "PathOrderedMatching", "find_path_ordered_matchings",
    "bipartite_ideal", "certify_bipartite_gvd",
]

# ---------------------------------------------------------------------------
# Path ordered matchings.

@dataclass(frozen=True)
class PathOrderedMatching:
    """An ordered matching with its relabeling witness.

    ``pairs`` lists the (left, right) endpoints of the matching edges in
    order; ``edges`` the corresponding edge labels.  The witnessed
    relabeling sends the i-th left vertex to i and the i-th right vertex
    to i + length.
    """

    pairs: tuple
    edges: tuple

    @property
    def length(self) -> int:
        return len(self.pairs)

    def vertex_set(self) -> set:
        return {v for pair in self.pairs for v in pair}

    def extended(self, pair: tuple, label: str) -> "PathOrderedMatching":
        return PathOrderedMatching(self.pairs + (pair,), self.edges + (label,))

    def without_end(self, label: str) -> "PathOrderedMatching":
        if label == self.edges[0]:
            return PathOrderedMatching(self.pairs[1:], self.edges[1:])
        if label == self.edges[-1]:
            return PathOrderedMatching(self.pairs[:-1], self.edges[:-1])
        raise ValueError("%s is not an end of the matching" % label)


EMPTY_POM = PathOrderedMatching((), ())


def validate_pom(G: Graph, pom: PathOrderedMatching) -> None:
    """Raise ValueError unless ``pom`` is a path ordered matching of G."""
    seen = set()
    lefts = {left: i for i, (left, _) in enumerate(pom.pairs)}
    rights = {right: i for i, (_, right) in enumerate(pom.pairs)}
    for (left, right), label in zip(pom.pairs, pom.edges):
        if left in seen or right in seen:
            raise ValueError("matching edges are not vertex-disjoint")
        seen.update((left, right))
        if set(G.ends(label)) != {left, right}:
            raise ValueError("pair %r does not match edge %r" % ((left, right), label))
    for i in range(pom.length - 1):
        if not G.has_edge_between(pom.pairs[i][0], pom.pairs[i + 1][1]):
            raise ValueError("missing connector between pair %d and %d" % (i, i + 1))
    for label in G.edge_labels:
        u, v = G.ends(label)
        for a, b in ((u, v), (v, u)):
            if a in lefts and b in rights and lefts[a] > rights[b]:
                raise ValueError(
                    "edge %s joins left %d to earlier right %d"
                    % (label, lefts[a] + 1, rights[b] + 1))


def _extension_pairs(G: Graph, pom: PathOrderedMatching):
    """Yield (edge label, oriented pair) for every valid one-step extension."""
    used_vertices = pom.vertex_set()
    used_edges = set(pom.edges)
    rights = [right for _, right in pom.pairs]
    last_left = pom.pairs[-1][0] if pom.pairs else None
    for label in G.edge_labels:
        if label in used_edges:
            continue
        u, v = G.ends(label)
        if u in used_vertices or v in used_vertices:
            continue
        for left, right in ((u, v), (v, u)):
            if last_left is not None and not G.has_edge_between(last_left, right):
                continue
            if any(G.has_edge_between(left, rj) for rj in rights):
                continue
            yield label, (left, right)


def find_path_ordered_matchings(G: Graph, max_r: int) -> list:
    """All path ordered matchings of length between 1 and ``max_r``.

    Enumerates oriented relabeling witnesses by depth-first extension;
    the length is additionally capped at half the edge count, since each
    matching edge uses two fresh vertices of a connected path structure.
    """
    if not G.is_bipartite():
        raise ValueError("graph is not bipartite")
    cap = min(max_r, len(G.edges) // 2)
    out = []

    def extend(pom):
        if pom.length >= 1:
            out.append(pom)
        if pom.length >= cap:
            return
        for label, pair in _extension_pairs(G, pom):
            extend(pom.extended(pair, label))

    extend(EMPTY_POM)
    return out


# ---------------------------------------------------------------------------
# The matching ideals.

def _cycle_sides(f) -> tuple:
    """The two square-free edge-label sets of a cycle binomial."""
    names = f.ring.names
    (m1, c1), (m2, _) = sorted(f.terms.items())
    if c1 < 0:
        m1, m2 = m2, m1
    for m in (m1, m2):
        if any(e > 1 for e in m):
            raise ValueError("binomial side is not square-free: %s" % f)
    side = lambda m: frozenset(names[i] for i, e in enumerate(m) if e)
    return side(m1), side(m2)


def matching_monomials(G: Graph, pom: PathOrderedMatching, ring: Ring) -> list:
    """Monomials m with m * (matching edges) one side of a cycle of G, the
    other side avoiding the matching (the monomial part of the ideal)."""
    eset = set(pom.edges)
    found = set()
    for f in universal_groebner_basis(G):
        s1, s2 = _cycle_sides(f)
        for m_side, n_side in ((s1, s2), (s2, s1)):
            if m_side & eset and not n_side & eset:
                m = m_side - eset
                # A side inside the matching would need a connector edge
                # from a later left vertex to an earlier right vertex,
                # which the order condition forbids.
                if not m:
                    raise ValueError("cycle side contained in the matching")
                found.add(frozenset(m))
    return [ring.monomial({v: 1 for v in m})
            for m in sorted(found, key=lambda s: (len(s), sorted(s)))]


def bipartite_ideal(G: Graph, pom: PathOrderedMatching,
                    ring: Optional[Ring] = None) -> Ideal:
    """The matching ideal: cycle binomials of G without the matching edges
    plus the matching monomials.

    These natural generators are a Groebner basis under the lex order
    with the matching edges first, newest greatest, and its initial ideal
    is square-free (Constantinescu-Gorla); the tests check this on every
    matching of their corpus.
    """
    validate_pom(G, pom)
    if ring is None:
        ring = G.edge_ring()
    cycles = [f.rename(ring) for f in universal_groebner_basis(G.delete_edges(pom.edges))]
    return Ideal(ring, cycles + matching_monomials(G, pom, ring))


# ---------------------------------------------------------------------------
# The certificate recursion.

def _leaf_edge(G: Graph) -> Optional[str]:
    for label in G.edge_labels:
        u, v = G.ends(label)
        if G.degree(u) == 1 or G.degree(v) == 1:
            return label
    return None


def _contained_variables(I: Ideal) -> list:
    """The variables that lie in I, a proper ideal, in ring order: those
    that are elements of its reduced basis G.

    An element of G lies in I.  Conversely, let x_v lie in I.  Its initial
    term x_v is divisible by the initial term of some g in G, which is not
    1 since I is proper, so in(g) = x_v.  Then x_v - g lies in I, and its
    terms are the other terms of the monic g, none of which is divisible
    by an initial term of G, as G is reduced.  A nonzero element of I has
    its initial term divisible by one, so x_v - g = 0."""
    return [I.ring.names[i] for i in sorted(g.support()[0] for g in I.groebner()
                                            if g.is_variable())]


def certify_bipartite_gvd(G: Graph, budget: Optional[Budget] = None) -> GvdCertificate:
    """Certify decomposability of the toric ideal of a bipartite graph.

    Follows the structural recursion on matching ideals rather than a
    generic variable search: leaves are dropped, non-extendable matchings
    yield a contained variable, and extendable matchings decompose at the
    extension edge.  The structure only chooses the variable; each node
    decomposes the ideal it was handed (see the module docstring), and any
    failure is reported as inconclusive, never papered over.  As with
    ``gvd.is_gvd``, every call, with a budget or without, shares the memo
    ``gvd._MEMO``, which stores a node only while no poll of ``budget``
    has read "spent" (see ``gvd.certify_node``).  The root holds the toric
    ideal generated by its reduced basis, read off the universal basis
    with no S-pair (``graphs.reduced_toric_ideal``).
    """
    if not G.is_bipartite():
        raise ValueError("graph is not bipartite")
    I = reduced_toric_ideal(G)
    return GvdCertificate(_certify_node(G, EMPTY_POM, I, budget or Budget(None)),
                          I.ring.names)


def _structure_key(G: Graph, pom: PathOrderedMatching, index: dict) -> tuple:
    """For each edge of G, in its order, its ring position (-1 outside the
    ring) and its two ends, then the matching's pairs, with the vertices
    numbered by their first appearance along the edge list."""
    number = {}
    edges = tuple((index.get(label, -1), number.setdefault(u, len(number)),
                   number.setdefault(v, len(number))) for label, u, v in G.edges)
    return edges, tuple((number[a], number[b]) for a, b in pom.pairs)


def _certify_node(G: Graph, pom: PathOrderedMatching, I: Ideal,
                  budget: Budget) -> GvdNode:
    """I's node, which holds its variables by ring position, as every
    node does.  Leaves are certified at once; a leaf matching edge is
    dropped; else the node decomposes at a leaf edge or at a contained
    variable (both degenerate steps, whose N branch carries the graph
    without that edge) or at the edge extending the matching, whose C
    branch carries the extended matching.  Like every certifier's node, it
    enters through ``gvd.certify_node``, so any other node is the one
    ``gvd._MEMO`` holds for its key, if any, returned as it is, and a
    fresh node is stored, whatever its verdict, unless a poll of
    ``budget`` has read "spent".  The key is I's ring arity, its reduced
    basis by position (``gvd._node_key`` with no context) and
    ``_structure_key``.

    Why equal keys give the same node.  Equal structure keys give a
    bijection from the edges of G to those of G', the k-th to the k-th,
    and one from the vertices that carry an edge, by their numbers, which
    keep every edge's ends and ring position and map the matching's pairs
    to the other's, in order and orientation.  G is simple, so a pair
    fixes its matching edge.  Equal arities and bases make I and I' the
    same ideal by ring position, so the ring positions in the key tie the
    ring variables to the same edges.  The recursion reads its data only
    through these maps:

    - ``base_node`` and ``_contained_variables`` read I's reduced
      basis, and name a variable by its position;
    - ``_leaf_edge`` takes the first edge, in order, with an end of degree
      1, and a vertex's degree is read off the edge list;
    - whether the leaf is a matching edge, and which end of the matching
      ``PathOrderedMatching.without_end`` drops, are read off the pairs;
    - ``_extension_pairs`` walks the edges in order and reads the
      matching's vertices, edges, right ends and last left end and the
      adjacency of G, and ``PathOrderedMatching.extended`` appends the
      pair it yields;
    - ``certify_step`` reads I through its reduced bases and y by
      position, and its context, G without the matching edges, by edge
      positions and kernel lattice (``gvd._context_key``).  Both are fixed
      by the edges' ring positions and ends.  Its branches are computed
      from I's bases, so they are equal by position.

    So both calls take the same case at corresponding edges and ring
    positions, and hand their children equal ideals by position and
    structures that delete the same edge or extend the matching by
    corresponding pairs, whose keys are again equal.  Each call lowers the
    ring's arity or the number of edges, so by induction the children are
    the same nodes, and the step builds the same node from them.
    """
    return certify_node(
        I, budget, lambda: _node_key(I, None) + (_structure_key(G, pom, I.ring.index),),
        lambda: _certify_structure(G, pom, I, budget))


def _certify_structure(G: Graph, pom: PathOrderedMatching, I: Ideal,
                       budget: Budget) -> GvdNode:
    """``_certify_node`` past its base case and memo."""
    leaf = _leaf_edge(G)
    if leaf is not None and leaf in pom.edges:
        # Dropping a leaf matching edge changes neither the ideal nor the
        # ring, only the structure.
        return _certify_node(G.delete_edges([leaf]), pom.without_end(leaf), I, budget)

    c_pom = None
    if leaf is not None:
        y = leaf
    else:
        extension = next(_extension_pairs(G, pom), None)
        if extension is not None:
            y, pair = extension
            c_pom = pom.extended(pair, y)
        else:
            contained = _contained_variables(I)
            if not contained:
                return inconclusive("matching is not extendable yet the ideal "
                                    "contains no variable")
            y = contained[0]
    n_graph = G.delete_edges([y])
    c_graph = G
    if c_pom is None:
        # A leaf edge lies on no cycle and a contained variable makes C the
        # unit ideal: the step certifies N only, unless I is not the ideal
        # the structure describes.
        c_graph, c_pom = n_graph, pom

    return certify_step(
        I, y, G.delete_edges(pom.edges),
        lambda C: _certify_node(c_graph, c_pom, C, budget),
        lambda N: _certify_node(n_graph, pom, N, budget))
