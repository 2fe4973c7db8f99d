"""The edge-splitting framework for toric ideals with a square-free
lexicographic degeneration.

Fix the lexicographic order e_1 > e_2 > ... > e_n given by the edge
labelling, and assume the initial ideal of the toric ideal under it is
square-free.  Splitting the first k edges into two disjoint sets E and F
yields the ideal

    I^G_{E,F} = I_{G minus the first k edges} + M_{E,F},

where M_{E,F} is generated by the monomials obtained from universal-basis
elements whose lead term involves some E-edge and no F-edge, by deleting
the E-part of the lead.  These ideals form a binary tree: the initial-form
ideal of I^G_{E,F} at y = e_{k+1} decomposes into the branch that moves
e_{k+1} into E (the saturated initial-form side) and the branch that
moves it into F (the deletion side), and at full depth every ideal is the
zero or unit ideal.  Verifying that every node decomposes this way, that
full-depth leaves are trivial, and that every node is equidimensional
certifies the toric ideal decomposable.

All three statements are checked computationally node by node; nothing is
assumed.  When the universal basis is quadratic, ``quadratic_pipeline``
turns the tree walk into a replayable decomposability certificate.  The
tree only chooses the next edge; every fact in the certificate is
computed, and replay checks each again.  The root holds the toric ideal
and every other node the contracted branch of its parent's split, which
``gvd.certify_step`` accepts only when square-free in y (see
``gvd.CnSplit``), so a wrong tree could only leave a node inconclusive.
By the framework each node's ideal is I^G_{E,F}, here the shadow
variables plus the toric ideal of a smaller subgraph, which is prime; the
tests check this at every node of their corpus.  Each node's unmixedness
evidence is computed as the search computes it, and the tests check that
it is conclusive at every node of their corpus.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .algebra import Ring, initial_term, lex_order, mono_is_squarefree
from .components import UnmixednessEvidence, unmixedness_evidence
from .graphs import Graph, universal_groebner_basis
from .groebner import (
    Ideal, ideal_equal, is_square_free_groebner_basis,
    minimal_monomial_generators,
)
from .gvd import (
    GvdCertificate, base_certificate, certify_step, check_decomposition,
    cn_split, inconclusive,
)
from .util import Budget

__all__ = [
    "EFState", "EFNode", "EFNodeCheck", "EFReport", "ef_ideal", "ef_tree",
    "tree_nodes", "squarefree_lex_initial", "check_statements_ABC",
    "quadratic_pipeline",
]


def squarefree_lex_initial(G: Graph) -> bool:
    """Whether the label-order initial ideal of the toric ideal is
    square-free (the framework's standing hypothesis)."""
    order = lex_order(G.edge_ring())
    leads = [initial_term(order, g).mono for g in universal_groebner_basis(G)]
    return all(mono_is_squarefree(m)
               for m in minimal_monomial_generators(leads))


# ---------------------------------------------------------------------------
# The ideals I^G_{E,F}.

@dataclass(frozen=True)
class EFState:
    """One node ideal: the first k edges split as E (lead-collapsed) and F
    (deleted), with the resulting ideal in the full edge ring."""

    E: tuple
    F: tuple
    ideal: Ideal

    @property
    def k(self) -> int:
        return len(self.E) + len(self.F)

    def trivial(self) -> Optional[str]:
        rgb = self.ideal.groebner()
        if not rgb:
            return "zero"
        if len(rgb) == 1 and rgb[0].is_constant():
            return "unit"
        return None

    def to_json_dict(self) -> dict:
        return {"E": list(self.E), "F": list(self.F),
                "generators": [str(g) for g in self.ideal.gens]}


def _validate_sets(G: Graph, E, F) -> tuple:
    E, F = tuple(E), tuple(F)
    merged = set(E) | set(F)
    if len(merged) != len(E) + len(F):
        raise ValueError("E and F are not disjoint")
    k = len(merged)
    prefix = G.edge_labels[:k]
    if merged != set(prefix):
        raise ValueError("E and F must partition the first k edge labels")
    in_e = set(E)
    return (tuple(l for l in prefix if l in in_e),
            tuple(l for l in prefix if l not in in_e))


def _shadow_monomials(G: Graph, E: tuple, F: tuple) -> list:
    """Exponent tuples of the M_{E,F} generators: for each universal-basis
    element whose lead involves an E-edge and no F-edge, the lead with its
    E-part deleted (minimal ones only)."""
    ring = G.edge_ring()
    order = lex_order(ring)
    eidx = {ring.vidx(e) for e in E}
    fidx = {ring.vidx(f) for f in F}
    found = []
    for g in universal_groebner_basis(G):
        lead = initial_term(order, g).mono
        if any(lead[i] for i in fidx) or not any(lead[i] for i in eidx):
            continue
        found.append(tuple(0 if i in eidx else e for i, e in enumerate(lead)))
    return minimal_monomial_generators(found)


def _natural_generators(G: Graph, E: tuple, F: tuple, ring: Ring) -> list:
    """Universal basis of the k-edges-deleted subgraph plus the shadow
    monomials, as elements of ``ring`` (which they never leave)."""
    deleted = G.delete_edges(E + F)
    gens = [g.rename(ring) for g in universal_groebner_basis(deleted)]
    full = G.edge_ring()
    for mono in _shadow_monomials(G, E, F):
        gens.append(ring.monomial({full.names[i]: e
                                   for i, e in enumerate(mono) if e}))
    return gens


def ef_ideal(G: Graph, E, F) -> EFState:
    """The node ideal for the split (E, F), with natural generators.

    Requires the square-free label-order degeneration; raises otherwise.
    """
    if not squarefree_lex_initial(G):
        raise ValueError("label-order initial ideal is not square-free")
    E, F = _validate_sets(G, E, F)
    ring = G.edge_ring()
    return EFState(E, F, Ideal(ring, _natural_generators(G, E, F, ring)))


# ---------------------------------------------------------------------------
# The split tree.

class EFNode:
    """A lazily expanded tree node; children move the next edge into E
    (``child_c``, the saturated initial-form side) or into F (``child_n``,
    the deletion side).  Trivial nodes, and nodes that have placed every
    edge, are leaves."""

    __slots__ = ("state", "_graph", "_children")

    def __init__(self, state: EFState, graph: Graph):
        self.state = state
        self._graph = graph
        self._children = ()

    @property
    def split_edge(self) -> Optional[str]:
        k = self.state.k
        if k >= len(self._graph.edges):
            return None
        return self._graph.edge_labels[k]

    def children(self) -> Optional[tuple]:
        """(E-child, F-child), or None at leaves."""
        if self._children != ():
            return self._children
        y = self.split_edge
        if y is None or self.state.trivial() is not None:
            self._children = None
            return None
        self._children = (
            _tree_node(self._graph, self.state.E + (y,), self.state.F),
            _tree_node(self._graph, self.state.E, self.state.F + (y,)))
        return self._children

    def to_json_dict(self) -> dict:
        out = self.state.to_json_dict()
        trivial = self.state.trivial()
        if trivial is not None:
            out["trivial"] = trivial
        kids = self.children()
        if kids is not None:
            out["split_edge"] = self.split_edge
            out["child_c"], out["child_n"] = (k.to_json_dict() for k in kids)
        return out


def _tree_node(G: Graph, E: tuple, F: tuple) -> EFNode:
    # Every split (E, F) has one parent, and ``children`` caches, so each
    # node is built once.
    ring = G.edge_ring()
    state = EFState(E, F, Ideal(ring, _natural_generators(G, E, F, ring)))
    return EFNode(state, G)


def ef_tree(G: Graph) -> EFNode:
    """Root of the split tree, expanded on demand over every edge and
    pruned at trivial nodes."""
    if not squarefree_lex_initial(G):
        raise ValueError("label-order initial ideal is not square-free")
    return _tree_node(G, (), ())


def tree_nodes(root: EFNode) -> list:
    """All nodes in deterministic depth-first order, E-child first."""
    out, stack = [], [root]
    while stack:
        node = stack.pop()
        out.append(node)
        kids = node.children()
        if kids is not None:
            stack.extend(reversed(kids))
    return out


# ---------------------------------------------------------------------------
# Statement checks.

@dataclass(frozen=True)
class EFNodeCheck:
    """Per-node verification: the natural generators form a Groebner basis
    with square-free initial ideal, the split at the next edge holds with
    branches matching the two child ideals, and the node ideal carries
    equidimensionality evidence."""

    E: tuple
    F: tuple
    trivial: Optional[str]
    groebner_ok: bool
    split_ok: Optional[bool]
    evidence: Optional[UnmixednessEvidence]
    ring_names: tuple  # the ring of the node's ideal, which the evidence names

    def to_json_dict(self) -> dict:
        return {"E": list(self.E), "F": list(self.F), "trivial": self.trivial,
                "groebner_ok": self.groebner_ok, "split_ok": self.split_ok,
                "evidence": (None if self.evidence is None
                             else self.evidence.to_json_dict(self.ring_names))}


@dataclass(frozen=True)
class EFReport:
    """Aggregated statement checks over the whole split tree.

    ``statement_a``: every nontrivial node decomposes at the next edge
    with branches equal to its children.  ``statement_b``: every maximal
    leaf is trivial.  ``statement_c``: "verified" when every node's
    equidimensionality evidence is conclusive, "refuted" when some node
    has components of different dimensions, else "inconclusive".  The
    conclusion is "decomposability-verified" only when everything is
    conclusive, since the three statements together certify the toric
    ideal decomposable.
    """

    square_free_lex: bool
    checks: tuple
    statement_a: bool
    statement_b: bool
    statement_c: str
    conclusion: str

    def to_json_dict(self) -> dict:
        return {"square_free_lex": self.square_free_lex,
                "checks": [c.to_json_dict() for c in self.checks],
                "statement_a": self.statement_a,
                "statement_b": self.statement_b,
                "statement_c": self.statement_c,
                "conclusion": self.conclusion}


def check_statements_ABC(G: Graph, budget: Optional[Budget] = None) -> EFReport:
    """Walk the full split tree and verify the three framework statements.

    Unlike ``ef_tree`` this does not raise on a non-square-free label
    order: the failed hypothesis is itself the report.
    """
    if budget is None:
        budget = Budget(None)
    if not squarefree_lex_initial(G):
        return EFReport(False, (), False, False, "inconclusive",
                        "hypothesis-not-met")
    root = ef_tree(G)
    order = lex_order(G.edge_ring())
    checks = []
    a_ok = b_ok = True
    c_refuted = c_inconclusive = False
    for node in tree_nodes(root):
        if budget.exceeded():
            return EFReport(True, tuple(checks), a_ok, b_ok, "inconclusive",
                            "inconclusive")
        state = node.state
        trivial = state.trivial()
        groebner_ok = (trivial is not None
                       or is_square_free_groebner_basis(order, state.ideal))
        split_ok = None
        kids = node.children()
        if kids is not None:
            split = cn_split(state.ideal, node.split_edge)
            split_ok = (check_decomposition(state.ideal, split)
                        and ideal_equal(split.C, kids[0].state.ideal)
                        and ideal_equal(split.N, kids[1].state.ideal))
            a_ok = a_ok and split_ok and groebner_ok
        elif trivial is None:
            b_ok = False
        evidence = None
        if trivial is None:
            evidence = unmixedness_evidence(state.ideal,
                                            G.delete_edges(state.E + state.F))
            if evidence.refuted:
                c_refuted = True
            elif not evidence.conclusive_unmixed:
                c_inconclusive = True
        checks.append(EFNodeCheck(state.E, state.F, trivial, groebner_ok,
                                  split_ok, evidence, state.ideal.ring.names))
        a_ok = a_ok and groebner_ok
    statement_c = ("refuted" if c_refuted
                   else "inconclusive" if c_inconclusive else "verified")
    if c_refuted:
        conclusion = "equidimensionality-refuted"
    elif a_ok and b_ok and statement_c == "verified":
        conclusion = "decomposability-verified"
    else:
        conclusion = "inconclusive"
    return EFReport(True, tuple(checks), a_ok, b_ok, statement_c, conclusion)


# ---------------------------------------------------------------------------
# The quadratic pipeline.

def quadratic_pipeline(G: Graph, budget: Optional[Budget] = None) -> GvdCertificate:
    """Certify decomposability when the universal basis is quadratic.

    Quadratic universal bases are doubly square-free (degree-two primitive
    binomials are four-cycles), so the framework hypothesis holds for free;
    see the module docstring for why each step is sound.  Any failure
    yields an inconclusive verdict, never a silently assumed step.
    """
    basis = universal_groebner_basis(G)
    if any(g.total_degree() != 2 for g in basis):
        raise ValueError("universal basis is not quadratic")
    if budget is None:
        budget = Budget(None)
    return _quadratic_node(G, (), (), Ideal(G.edge_ring(), basis), budget)


def _quadratic_node(G: Graph, E: tuple, F: tuple, I: Ideal,
                    budget: Budget) -> GvdCertificate:
    # Every split (E, F) has one parent in the tree, so nothing is memoised.
    if budget.exceeded():
        return inconclusive(I.ring.names, "budget exhausted")
    base = base_certificate(I)
    if base is not None:
        return base

    y = G.edge_labels[len(E) + len(F)]
    return certify_step(
        I, y, G.delete_edges(E + F),
        lambda C: _quadratic_node(G, E + (y,), F, C, budget),
        lambda N: _quadratic_node(G, E, F + (y,), N, budget))
