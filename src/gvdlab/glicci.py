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

Order searches run over a bounded, seeded family of lex completions, so a
miss always means "not found within the trial budget", never a proof that no
such order exists.  ``glicci_checks`` itself never raises: each check either
fires with a witness or records why it did not.

:func:`sample_initial_ideals` is the census variant of the same sampling:
it draws seeded random lex orders for an arbitrary ideal and counts how many
produce a square-free initial ideal.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from .algebra import lex_order, mono_is_squarefree
from .graphs import (
    Graph, even_cycle_binomial, four_cycles_containing, is_gap_free,
    toric_ideal,
)
from .groebner import Ideal, ideal_equal, initial_ideal
from .util import Budget, seeded_rng

__all__ = [
    "GlicciCheck", "GlicciReport", "SampleReport",
    "find_even_cycle_gluings", "squarefree_order_search",
    "sample_initial_ideals", "glicci_checks",
]


# ---------------------------------------------------------------------------
# Seeded searches for square-free initial ideals.

def _initial_is_squarefree(order, I: Ideal) -> bool:
    """True iff every minimal generator of in_<(I) is square-free.

    The generators of :func:`initial_ideal` come from the reduced Groebner
    basis, so they are exactly the minimal monomial generators.
    """
    return all(mono_is_squarefree(next(iter(g.terms)))
               for g in initial_ideal(order, I).gens)


def squarefree_order_search(I: Ideal, trials: int, rng: random.Random,
                            first: Optional[str] = None,
                            budget: Optional[Budget] = None):
    """Search seeded lex completions for a square-free initial ideal.

    Trial 0 keeps the ring's own variable order (with ``first`` hoisted to
    the front when given); later trials shuffle the remaining variables.
    Returns the lex variable sequence of the first hit, or None after
    ``trials`` misses or an exhausted budget.
    """
    head = [first] if first is not None else []
    tail0 = [n for n in I.ring.names if n != first]
    for t in range(trials):
        if budget is not None and budget.exceeded():
            return None
        tail = list(tail0)
        if t:
            rng.shuffle(tail)
        names = head + tail
        if _initial_is_squarefree(lex_order(I.ring, names), I):
            return tuple(names)
    return None


@dataclass(frozen=True)
class SampleReport:
    """Outcome of sampling random lex orders for square-free initial ideals."""

    ring_names: tuple
    requested: int
    tried: int
    hits: int
    first_hit: Optional[tuple]

    def to_json_dict(self) -> dict:
        return {
            "ring": list(self.ring_names),
            "requested": self.requested,
            "tried": self.tried,
            "hits": self.hits,
            "first_hit": None if self.first_hit is None else list(self.first_hit),
        }


def sample_initial_ideals(I: Ideal, trials: int, seed: int = 0,
                          budget: Optional[Budget] = None) -> SampleReport:
    """Count square-free initial ideals among ``trials`` seeded lex orders.

    All permutations are drawn up front from a single seeded stream, so the
    sampled orders depend only on the seed and trial count.
    """
    rng = seeded_rng(seed, "sample-init")
    orders = []
    for _ in range(trials):
        names = list(I.ring.names)
        rng.shuffle(names)
        orders.append(names)
    tried = 0
    hits = 0
    first_hit = None
    for names in orders:
        if budget is not None and budget.exceeded():
            break
        tried += 1
        if _initial_is_squarefree(lex_order(I.ring, names), I):
            hits += 1
            if first_hit is None:
                first_hit = tuple(names)
    return SampleReport(I.ring.names, trials, tried, hits, first_hit)


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


def _gluing_check(G: Graph, trials: int, seed: int,
                  budget: Optional[Budget]) -> GlicciCheck:
    gluings = find_even_cycle_gluings(G)
    if not gluings:
        return GlicciCheck("even-cycle-gluing", False,
                           {"reason": "no even-cycle gluing structure found"})
    ring = G.edge_ring()
    IG = toric_ideal(G)
    for edge, path in gluings:
        if budget is not None and budget.exceeded():
            return GlicciCheck("even-cycle-gluing", False,
                               {"reason": "budget exhausted during the search"})
        base = _gluing_base(G, edge, path)
        base_ideal = toric_ideal(base)
        rng = seeded_rng(seed, "glicci-gluing", edge, *path)
        names = squarefree_order_search(base_ideal, trials, rng, budget=budget)
        if names is None:
            continue
        glued = base_ideal.rename(ring).with_extra(
            [even_cycle_binomial(G, edge, path)])
        if not ideal_equal(IG, glued):
            continue
        return GlicciCheck("even-cycle-gluing", True, {
            "edge": edge,
            "path": list(path),
            "base_edges": list(base.edge_labels),
            "base_order": list(names),
        })
    return GlicciCheck("even-cycle-gluing", False, {
        "reason": "no base graph certified Cohen-Macaulay within %d trials"
                  % trials})


def _four_cycle_check(G: Graph, trials: int, seed: int,
                      budget: Optional[Budget]) -> GlicciCheck:
    candidates = [(y, four_cycles_containing(G, y)) for y in G.edge_labels]
    candidates = [(y, cycles) for y, cycles in candidates if cycles]
    if not candidates:
        return GlicciCheck("four-cycle-square-free-order", False,
                           {"reason": "no edge lies on a 4-cycle"})
    I = toric_ideal(G)
    for y, cycles in candidates:
        if budget is not None and budget.exceeded():
            return GlicciCheck("four-cycle-square-free-order", False,
                               {"reason": "budget exhausted during the search"})
        rng = seeded_rng(seed, "glicci-four-cycle", y)
        names = squarefree_order_search(I, trials, rng, first=y, budget=budget)
        if names is not None:
            return GlicciCheck("four-cycle-square-free-order", True, {
                "edge": y,
                "four_cycle": list(cycles[0]),
                "order": list(names),
            })
    return GlicciCheck("four-cycle-square-free-order", False, {
        "reason": "no square-free initial ideal found within %d lex "
                  "completions per edge" % trials})


def _gap_free_check(G: Graph) -> GlicciCheck:
    gap_free = is_gap_free(G)
    cycle = None
    for label in G.edge_labels:
        cycles = four_cycles_containing(G, label)
        if cycles:
            cycle = cycles[0]
            break
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


def glicci_checks(G: Graph, trials: int = 200, seed: int = 0,
                  budget: Optional[Budget] = None) -> GlicciReport:
    """Test all three sufficient conditions and report which ones fire."""
    checks = (
        _gluing_check(G, trials, seed, budget),
        _four_cycle_check(G, trials, seed, budget),
        _gap_free_check(G),
    )
    fired = any(c.fired for c in checks)
    return GlicciReport(checks, "glicci-certified-by-theorem" if fired
                        else "hypotheses-not-met")
