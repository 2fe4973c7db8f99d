"""Glicci hypothesis checks for toric ideals of graphs.

Three structural theorems each give a sufficient condition for the toric
ideal of a graph to be glicci (in the Gorenstein liaison class of a complete
intersection).  :func:`glicci_checks` tests the hypotheses of all three
computationally and reports which of them fire:

* ``even-cycle-gluing`` -- the graph is a smaller graph with an even cycle
  glued on along one of its edges: the extra cycle edges form a path whose
  inner vertices have degree two.  The check also certifies the base graph's
  toric quotient Cohen-Macaulay by finding a square-free initial ideal
  (square-free degeneration of a toric ideal implies normality and hence
  Cohen-Macaulayness) and verifies that the glued toric ideal is the base
  ideal plus the new cycle binomial.
* ``four-cycle-square-free-order`` -- some edge y lies on a 4-cycle and a
  lex order with y largest yields a square-free initial ideal.
* ``gap-free-with-four-cycle`` -- every two vertex-disjoint edges are joined
  by an edge, and the graph contains a 4-cycle.

Both order checks call :func:`squarefree_lex_order`, an exact search over
the leads of the universal basis, and confirm its witness with Buchberger.
A miss means that no such order exists.  ``glicci_checks`` never raises:
each check fires with a witness or gives its reason, such as a spent budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .algebra import lex_order, mono_is_squarefree
from .graphs import (
    Graph, even_cycle_binomial, four_cycles_containing, is_gap_free,
    toric_ideal, universal_groebner_basis,
)
from .groebner import Ideal, ideal_equal, initial_ideal
from .util import Budget

__all__ = [
    "GlicciCheck", "GlicciReport", "EXHAUSTED",
    "find_even_cycle_gluings", "squarefree_lex_order", "glicci_checks",
]


# ---------------------------------------------------------------------------
# The search for a square-free lex degeneration.

# Returned by the search when its budget runs out; the checks' reason then.
EXHAUSTED = "budget exhausted during the search"


def _initial_is_squarefree(order, I: Ideal) -> bool:
    """True iff every minimal generator of in_<(I) is square-free; the
    generators of :func:`initial_ideal` are the leads of the reduced basis,
    so they are exactly the minimal ones."""
    return all(mono_is_squarefree(next(iter(g.terms)))
               for g in initial_ideal(order, I).gens)


def _bits(mask: int):
    """The positions of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def squarefree_lex_order(G: Graph, first: Optional[str] = None,
                         budget: Optional[Budget] = None):
    """A lex order of G's edges, largest first and ``first`` first when
    given, under which in(I_G) is square-free; None when there is none, and
    ``EXHAUSTED`` when ``budget`` runs out first.

    The universal basis is a Groebner basis under every order (Sturmfels,
    *Groebner Bases and Convex Polytopes*, 1996, ch. 7), so the leads of
    its binomials generate in(I_G).  The sides of a binomial have disjoint
    supports, so under lex its lead is the side that holds the largest
    variable of its support.  in(I_G) is square-free exactly when every
    lead that is not square-free has a proper divisor among the leads.

    The search places edges from the largest down.  An edge decides the
    undecided binomials whose support holds it; edges that decide nothing
    follow in ring order.  A prefix is dropped once a lead that is not
    square-free has no proper divisor among the decided leads and the
    sides of undecided binomials.  A state with no successful completion
    is memoised under (U, P, D): the undecided binomials U, the decided
    leads P that are not square-free and have no decided proper divisor,
    and the decided leads D that properly divide a side of a binomial in
    U that is not square-free.  States with equal keys have the same
    future.  A completion decides each binomial in U by the order of its
    support, all unplaced, so the future leads F depend on U and the
    completion alone.  A decided lead outside P needs nothing, and one in
    P needs a proper divisor in F.  A lead in F that is square-free needs
    nothing.  One that is not needs a proper divisor in F or among the
    decided leads, and a decided lead that properly divides it lies in D.
    The budget is polled once per state.
    """
    names = G.edge_labels
    # Side j belongs to binomial j // 2.  The masks below are over sides.
    sides = [m for g in universal_groebner_basis(G) for m in g.terms]
    # A side as the set of pairs (v, k) with k below its exponent of v, so
    # that a proper divisor is a proper subset.
    sets = [frozenset((v, k) for v, e in enumerate(m) for k in range(e))
            for m in sides]
    # Only a lead that is not square-free needs a proper divisor, so only
    # such sides get their divisors, and a side's multiples are taken among
    # them alone.
    unfree = [j for j, m in enumerate(sides) if not mono_is_squarefree(m)]
    divisors = {p: sum(1 << i for i, a in enumerate(sets) if a < sets[p])
                for p in unfree}
    multiples = [sum(1 << p for p in unfree if s < sets[p]) for s in sets]
    square = sum(1 << p for p in unfree)
    # The sides that hold edge v, and both sides of their binomials.
    holds = [sum(1 << j for j, m in enumerate(sides) if m[v])
             for v in range(len(names))]
    pairs = [sum(3 << j - j % 2 for j in _bits(h)) for h in holds]

    def place(v, undecided, leads):
        """The state after placing edge v; None once a lead that is not
        square-free has no proper divisor left to get."""
        leads |= holds[v] & undecided
        undecided &= ~pairs[v]
        if all(divisors[p] & (leads | undecided)
               for p in _bits(leads & square)):
            return undecided, leads
        return None

    dead = set()

    def visit(undecided, leads, prefix):
        if budget is not None and budget.exceeded():
            return EXHAUSTED
        if not undecided:
            return prefix + tuple(n for n in names if n not in prefix)
        key = (undecided,
               tuple(p for p in _bits(leads & square) if not divisors[p] & leads),
               sum(1 << j for j in _bits(leads) if multiples[j] & undecided))
        if key in dead:
            return None
        for v in range(len(names)):
            if holds[v] & undecided:
                state = place(v, undecided, leads)
                found = state and visit(*state, prefix + (names[v],))
                if found:
                    return found
        dead.add(key)
        return None

    state = ((1 << len(sides)) - 1, 0)
    if first is None:
        return visit(*state, ())
    state = place(names.index(first), *state)
    return state and visit(*state, (first,))


def _confirmed(names: tuple, I: Ideal) -> tuple:
    """``names``, once Buchberger confirms its initial ideal of I."""
    if not _initial_is_squarefree(lex_order(I.ring, names), I):
        raise RuntimeError("%s is not a square-free lex order" % (names,))
    return names


# ---------------------------------------------------------------------------
# Gluing structure detection.

def find_even_cycle_gluings(G: Graph) -> list:
    """Ways to see G as a smaller graph with an even cycle glued on.

    Returns (edge, path) pairs: ``path`` runs between the endpoints of
    ``edge``, has an odd number of edges (at least three), and all its inner
    vertices have degree two, so the path together with ``edge`` forms an
    even cycle meeting the rest of the graph only in those two endpoints.
    Each structure is listed once, with the path in its lexicographically
    smaller traversal direction.
    """
    found = set()
    for label in G.edge_labels:
        a, b = G.ends(label)
        for lab0, w in G.neighbors(a):
            if w == b or G.degree(w) != 2:
                continue
            path = [lab0]
            prev, cur = a, w
            while True:
                # cur has degree two, so there is exactly one way forward.
                lab, nxt = next((l, x) for l, x in G.neighbors(cur) if x != prev)
                path.append(lab)
                if nxt == b:
                    if len(path) % 2 == 1 and len(path) >= 3:
                        p = tuple(path)
                        found.add((label, min(p, p[::-1])))
                    break
                if nxt == a or G.degree(nxt) != 2:
                    break
                prev, cur = cur, nxt
    return sorted(found)


def _gluing_base(G: Graph, edge: str, path: tuple) -> Graph:
    """The graph left after removing the glued cycle's path."""
    ends = set(G.ends(edge))
    inner = {v for lab in path for v in G.ends(lab)} - ends
    return G.delete_edges(path).delete_vertices(inner)


# ---------------------------------------------------------------------------
# The three hypothesis checks.

@dataclass(frozen=True)
class GlicciCheck:
    """One sufficient-condition check: did its hypotheses hold, and why."""

    name: str
    fired: bool
    witness: dict

    def to_json_dict(self) -> dict:
        return {"name": self.name, "fired": self.fired,
                "witness": dict(self.witness)}


@dataclass(frozen=True)
class GlicciReport:
    """All glicci checks for one graph plus the overall conclusion."""

    checks: tuple
    conclusion: str  # "glicci-certified-by-theorem" | "hypotheses-not-met"

    def to_json_dict(self) -> dict:
        return {"checks": [c.to_json_dict() for c in self.checks],
                "conclusion": self.conclusion}


def _gluing_check(G: Graph, budget: Optional[Budget]) -> GlicciCheck:
    gluings = find_even_cycle_gluings(G)
    if not gluings:
        return GlicciCheck("even-cycle-gluing", False,
                           {"reason": "no even-cycle gluing structure found"})
    ring = G.edge_ring()
    IG = toric_ideal(G)
    for edge, path in gluings:
        base = _gluing_base(G, edge, path)
        names = squarefree_lex_order(base, budget=budget)
        if names == EXHAUSTED:
            return GlicciCheck("even-cycle-gluing", False, {"reason": EXHAUSTED})
        if names is None:
            continue
        base_ideal = toric_ideal(base)
        glued = base_ideal.rename(ring).with_extra(
            [even_cycle_binomial(G, edge, path)])
        if not ideal_equal(IG, glued):
            continue
        return GlicciCheck("even-cycle-gluing", True, {
            "edge": edge,
            "path": list(path),
            "base_edges": list(base.edge_labels),
            "base_order": list(_confirmed(names, base_ideal)),
        })
    return GlicciCheck("even-cycle-gluing", False, {
        "reason": "no base graph has a lex order with a square-free "
                  "initial ideal"})


def _four_cycle_check(G: Graph, candidates: list,
                      budget: Optional[Budget]) -> GlicciCheck:
    """``candidates`` are the edges that lie on a 4-cycle, in edge order,
    each with its 4-cycles."""
    if not candidates:
        return GlicciCheck("four-cycle-square-free-order", False,
                           {"reason": "no edge lies on a 4-cycle"})
    for y, cycles in candidates:
        names = squarefree_lex_order(G, first=y, budget=budget)
        if names == EXHAUSTED:
            return GlicciCheck("four-cycle-square-free-order", False,
                               {"reason": EXHAUSTED})
        if names is not None:
            return GlicciCheck("four-cycle-square-free-order", True, {
                "edge": y,
                "four_cycle": list(cycles[0]),
                "order": list(_confirmed(names, toric_ideal(G))),
            })
    return GlicciCheck("four-cycle-square-free-order", False, {
        "reason": "no lex order with an edge of a 4-cycle largest has a "
                  "square-free initial ideal"})


def _gap_free_check(G: Graph, candidates: list) -> GlicciCheck:
    """``candidates`` as for ``_four_cycle_check``."""
    gap_free = is_gap_free(G)
    cycle = candidates[0][1][0] if candidates else None
    if gap_free and cycle is not None:
        return GlicciCheck("gap-free-with-four-cycle", True,
                           {"four_cycle": list(cycle)})
    reasons = []
    if not gap_free:
        reasons.append("the graph is not gap-free")
    if cycle is None:
        reasons.append("the graph has no 4-cycle")
    return GlicciCheck("gap-free-with-four-cycle", False,
                       {"reason": "; ".join(reasons)})


def glicci_checks(G: Graph, budget: Optional[Budget] = None) -> GlicciReport:
    """Test all three sufficient conditions and report which ones fire."""
    candidates = [(y, cycles) for y in G.edge_labels
                  if (cycles := four_cycles_containing(G, y))]
    checks = (
        _gluing_check(G, budget),
        _four_cycle_check(G, candidates, budget),
        _gap_free_check(G, candidates),
    )
    fired = any(c.fired for c in checks)
    return GlicciReport(checks, "glicci-certified-by-theorem" if fired
                        else "hypotheses-not-met")
