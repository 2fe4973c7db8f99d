"""Primary-decomposition machinery for the ideals the decomposability search
actually meets: square-free monomial ideals and sums of square-free monomials
with primitive walk binomials of a graph.

The split into prime components M_i + I_{G minus E_i} is implemented exactly
where it is provably correct: every binomial must be doubly square-free and a
primitive walk binomial of the context graph, and every component's toric
part is re-verified against the universal basis of the corresponding
subgraph.  The intersection of the components is verified to reproduce the
input ideal, or, failing that, its radical (some of these ideals are not
radical, so their minimal primes can only cut out the radical); either way
the returned components are provably exactly the minimal primes.  Anything
outside that regime yields ``Inconclusive`` rather than a guess.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .algebra import ONE, Poly, mono_is_squarefree, mono_support
from .graphs import Graph, toric_dimension, universal_groebner_basis
from .groebner import (
    Ideal, ideal_contains, ideal_contains_ideal, ideal_equal, intersect,
    krull_dimension, minimal_generators, radical_contains,
)

__all__ = [
    "PrimeComponent", "UnmixednessEvidence", "SplitNotApplicable",
    "sqfree_monomial_components", "binomial_monomial_split",
    "base_evidence", "unmixedness_evidence",
]


class SplitNotApplicable(Exception):
    """The binomial-monomial splitting hypotheses are not met."""


@dataclass(frozen=True)
class PrimeComponent:
    """A prime ideal <monomial_vars> + I_{G minus removed_edges}."""

    monomial_vars: tuple
    removed_edges: tuple
    toric_gens: tuple  # Poly generators of the toric part, in the ambient ring
    dimension: int

    def ideal(self, ring) -> Ideal:
        gens = [ring.var(v) for v in self.monomial_vars]
        gens += list(self.toric_gens)
        return Ideal(ring, gens)

    def to_json_dict(self) -> dict:
        return {"M": list(self.monomial_vars),
                "removed_edges": list(self.removed_edges),
                "dim": self.dimension}

    def rename(self, name_map: dict) -> "PrimeComponent":
        """Reporting-only rename: toric generators are dropped, since only
        the variable sets and the dimension are serialized."""
        return PrimeComponent(
            tuple(name_map.get(v, v) for v in self.monomial_vars),
            tuple(name_map.get(v, v) for v in self.removed_edges),
            (),
            self.dimension)


@dataclass(frozen=True)
class UnmixednessEvidence:
    """Evidence about the associated primes of an ideal.

    status: one of "unit", "zero", "variables", "principal", "prime",
    "equal-dims", "refuted", "inconclusive", "cited".  The first six are
    conclusive evidence of unmixedness, "refuted" is conclusive evidence
    against, "inconclusive" decides nothing, and "cited" marks unmixedness
    taken from a structural theorem rather than a computation.
    """

    status: str
    detail: str = ""
    dims: Optional[tuple] = None
    components: Optional[tuple] = None

    @property
    def conclusive_unmixed(self) -> bool:
        return self.status in ("unit", "zero", "variables", "principal",
                               "prime", "equal-dims")

    @property
    def refuted(self) -> bool:
        return self.status == "refuted"

    def to_json_dict(self) -> dict:
        out = {"status": self.status, "detail": self.detail}
        if self.dims is not None:
            out["dims"] = list(self.dims)
        if self.components is not None:
            out["components"] = [c.to_json_dict() for c in self.components]
        return out

    def rename(self, name_map: dict) -> "UnmixednessEvidence":
        comps = None
        if self.components is not None:
            comps = tuple(c.rename(name_map) for c in self.components)
        return UnmixednessEvidence(self.status, self.detail, self.dims, comps)


# ---------------------------------------------------------------------------
# Square-free monomial ideals: minimal primes = minimal covers.

def _minimal_covers(supports: list) -> list:
    """All inclusion-minimal transversals of a list of variable sets."""
    supports = [frozenset(s) for s in supports]
    if any(not s for s in supports):
        raise ValueError("empty support (the ideal contains a unit)")
    covers = set()

    def dfs(V):
        for s in supports:
            if not (s & V):
                for x in sorted(s):
                    dfs(V | {x})
                return
        covers.add(frozenset(V))

    dfs(frozenset())
    minimal = [c for c in covers
               if not any(d != c and d <= c for d in covers)]
    return sorted(minimal, key=lambda c: (len(c), tuple(sorted(c))))


def sqfree_monomial_components(I: Ideal) -> list:
    """Minimal primes of a square-free monomial ideal, as variable-name sets.

    The zero ideal yields [frozenset()] (the single empty cover); the
    intersection of the returned variable ideals is verified to equal I.
    """
    rgb = I.groebner()
    if not rgb:
        return [frozenset()]
    supports = []
    for g in rgb:
        if not g.is_monomial():
            raise ValueError("not a monomial ideal")
        (m, _), = g.terms.items()
        if not mono_is_squarefree(m):
            raise ValueError("not square-free: %s" % g)
        supports.append(frozenset(I.ring.names[i] for i in mono_support(m)))
    covers = _minimal_covers(supports)
    got = None
    for cover in covers:
        P = Ideal(I.ring, [I.ring.var(v) for v in sorted(cover)])
        got = P if got is None else intersect(got, P)
    if got is None or not ideal_equal(got, I):
        raise AssertionError("cover intersection does not reproduce the ideal")
    return covers


# ---------------------------------------------------------------------------
# Binomial-monomial splitting over a graph context.

def _binomial_sides(f: Poly):
    """Support sets (as names) of the two monomials of a +1/-1 binomial."""
    items = sorted(f.terms.items(), key=lambda t: (sum(t[0]), t[0]), reverse=True)
    if len(items) != 2:
        return None
    (m1, c1), (m2, c2) = items
    if {c1, c2} != {1, -1}:
        return None
    names = f.ring.names
    return (frozenset(names[i] for i in mono_support(m1)),
            frozenset(names[i] for i in mono_support(m2)))


def _sign_canonical(f: Poly):
    """Orientation-free key identifying a binomial up to sign."""
    return frozenset(f.terms.items()) | frozenset((m, -c) for m, c in f.terms.items())


def _ugb_signs(G: Graph, ring) -> set:
    """Sign-canonical forms of the universal basis, lifted into ``ring``."""
    return {_sign_canonical(f.rename(ring)) for f in universal_groebner_basis(G)}


def binomial_monomial_split(monomials: list, binomials: list, context: Optional[Graph],
                            ring) -> tuple:
    """Prime components of <monomials> + <binomials> over the context graph,
    and their intersection.

    Binomials must be doubly square-free primitive walk binomials of
    ``context``; raises SplitNotApplicable outside that regime.  Monomials
    are radicalized up front (minimal primes only see the radical, and
    stripping exponents does not change it).  Components are verified: each
    toric part must reproduce the universal basis of its subgraph, and the
    intersection of all components must equal the input ideal, or at least
    its radical when the input is not radical (the components are its
    minimal primes in either case).
    """
    mono_supports = []
    rad_monomials = []
    for f in monomials:
        (m, _), = f.terms.items()
        rad = tuple(1 if e else 0 for e in m)
        rad_monomials.append(Poly(ring, {rad: ONE}))
        mono_supports.append(frozenset(ring.names[i] for i in mono_support(m)))
    monomials = rad_monomials
    sides = []
    for f in binomials:
        pair = _binomial_sides(f)
        if pair is None:
            raise SplitNotApplicable("not a +1/-1 binomial: %s" % f)
        u, v = pair
        for mono, _ in f.terms.items():
            if not mono_is_squarefree(mono):
                raise SplitNotApplicable("binomial not doubly square-free: %s" % f)
        sides.append((u, v, f))
    if sides and context is None:
        raise SplitNotApplicable("binomials present but no graph context")
    if context is not None:
        if not set(context.edge_labels) <= set(ring.names):
            raise SplitNotApplicable("context graph edges not contained in the ring")
        in_ugb = _ugb_signs(context, ring)
        for u, v, f in sides:
            if _sign_canonical(f) not in in_ugb:
                raise SplitNotApplicable(
                    "binomial %s is not a primitive walk binomial of the context" % f)

    edge_set = set(context.edge_labels) if context is not None else set()
    covers = set()

    def dfs(V):
        for s in mono_supports:
            if not (s & V):
                for x in sorted(s):
                    dfs(V | {x})
                return
        for u, v, _ in sides:
            hit_u, hit_v = bool(u & V), bool(v & V)
            if hit_u and not hit_v:
                for x in sorted(v):
                    dfs(V | {x})
                return
            if hit_v and not hit_u:
                for x in sorted(u):
                    dfs(V | {x})
                return
        covers.add(frozenset(V))

    dfs(frozenset())

    sub_cache = {}
    components = []
    seen = set()
    for V in sorted(covers, key=lambda c: (len(c), tuple(sorted(c)))):
        removed = frozenset(V & edge_set)
        key = (V, removed)
        if key in seen:
            continue
        seen.add(key)
        survivors = tuple(f for u, v, f in sides if not (u & V) and not (v & V))
        if context is not None:
            if removed not in sub_cache:
                sub = context.delete_edges(sorted(removed))
                sub_cache[removed] = (sub, _ugb_signs(sub, ring))
            sub, sub_ugb = sub_cache[removed]
            if {_sign_canonical(f) for f in survivors} != sub_ugb:
                ext = [f.rename(ring) for f in universal_groebner_basis(sub)]
                if not ideal_equal(Ideal(ring, list(survivors)), Ideal(ring, ext)):
                    raise SplitNotApplicable(
                        "component toric part differs from the subgraph ideal")
            toric_dim = toric_dimension(sub)
            free = [n for n in ring.names
                    if n not in V and n not in set(sub.edge_labels)]
        else:
            toric_dim = 0
            free = [n for n in ring.names if n not in V]
        dim = len(free) + toric_dim
        comp = PrimeComponent(tuple(sorted(V)), tuple(sorted(removed)),
                              survivors, dim)
        components.append(comp)

    # revalidate dimensions against the Groebner computation
    ideals = [c.ideal(ring) for c in components]
    for comp, P in zip(components, ideals):
        if krull_dimension(P) != comp.dimension:
            raise AssertionError("component dimension formula disagrees with "
                                 "the Groebner computation")

    # prune components containing another component
    keep = []
    for i, c in enumerate(components):
        contained_other = False
        for j, d in enumerate(components):
            if i == j:
                continue
            if ideal_contains_ideal(ideals[i], ideals[j]):
                # component i contains component j: i is redundant,
                # unless they are equal and j comes first
                if not ideal_contains_ideal(ideals[j], ideals[i]):
                    contained_other = True
                    break
                if j < i:
                    contained_other = True
                    break
        if not contained_other:
            keep.append(i)
    components = [components[i] for i in keep]
    ideals = [ideals[i] for i in keep]

    total = None
    for P in ideals:
        total = P if total is None else intersect(total, P)
    original = Ideal(ring, list(monomials) + list(binomials))
    if total is None:
        raise SplitNotApplicable("no components found")
    if not ideal_equal(total, original):
        # The intersection of the minimal primes is the radical, which can
        # exceed a non-radical input.  The components are still exactly the
        # minimal primes provided the comparison holds at radical level:
        # every prime contains the input, and the intersection stays inside
        # the radical.
        if not all(ideal_contains(total, g) for g in original.gens):
            raise SplitNotApplicable(
                "component intersection does not contain the ideal")
        if not all(radical_contains(original, g) for g in total.groebner()):
            raise SplitNotApplicable(
                "component intersection does not reproduce the ideal")
    return components, total


# ---------------------------------------------------------------------------
# Unmixedness evidence.

def base_evidence(rgb: tuple) -> Optional[UnmixednessEvidence]:
    """Evidence for the three base cases of decomposability, from a reduced
    basis: the zero ideal, the unit ideal, and ideals generated by
    variables.  The status names the case; None for any other ideal."""
    if not rgb:
        return UnmixednessEvidence("zero", "the zero ideal is prime")
    if len(rgb) == 1 and rgb[0].is_constant():
        return UnmixednessEvidence("unit", "the unit ideal is vacuously unmixed")
    if all(g.is_variable() for g in rgb):
        return UnmixednessEvidence("variables", "generated by variables, hence prime")
    return None


def unmixedness_evidence(I: Ideal, context: Optional[Graph] = None) -> UnmixednessEvidence:
    """Evidence that I is unmixed (all associated primes share one dimension).

    Conclusive positive evidence: the unit ideal (vacuous), the zero ideal,
    variable-generated and principal ideals, recognized toric-plus-variables
    prime ideals, and verified splittings whose components intersect back to
    the input ideal (then the split is a primary decomposition into primes,
    so the associated primes are exactly the components).  Conclusive
    negative evidence: verified splittings with differing dimensions
    (minimal primes are associated primes no matter what, so unequal
    dimensions always refute unmixedness).  When a non-radical ideal has
    equal-dimensional minimal primes, its embedded primes remain undecided
    and the evidence is inconclusive with the dimensions attached.
    """
    rgb = I.groebner()
    base = base_evidence(rgb)
    if base is not None:
        return base
    if len(rgb) == 1:
        return UnmixednessEvidence("principal", "principal ideals are unmixed")

    if all(g.is_monomial() for g in rgb):
        radical_input = all(mono_is_squarefree(next(iter(g.terms))) for g in rgb)
        if radical_input:
            target = I
        else:
            target = Ideal(I.ring, [
                Poly(I.ring, {tuple(1 if e else 0 for e in next(iter(g.terms))): ONE})
                for g in rgb])
        covers = sqfree_monomial_components(target)
        dims = tuple(I.ring.arity - len(c) for c in covers)
        comps = tuple(PrimeComponent(tuple(sorted(c)), (), (), I.ring.arity - len(c))
                      for c in covers)
        if len(set(dims)) > 1:
            return UnmixednessEvidence("refuted",
                                       "minimal primes of different dimensions",
                                       dims, comps)
        if radical_input:
            return UnmixednessEvidence("equal-dims",
                                       "all minimal primes share one dimension",
                                       dims, comps)
        return UnmixednessEvidence(
            "inconclusive", "the minimal primes share one dimension but the "
            "ideal is not radical, so embedded primes are undecided",
            dims, comps)

    # Mixed monomial/binomial ideals: classify an irredundant generating
    # subset rather than the reduced basis (S-polynomial completion can
    # manufacture non-square-free monomials that a better generating set of
    # the same ideal avoids).
    variables, monos, binoms = [], [], []
    for g in minimal_generators(I):
        if g.is_variable():
            variables.append(g)
        elif g.is_monomial():
            monos.append(g)
        elif _binomial_sides(g) is not None:
            binoms.append(g)
        else:
            return UnmixednessEvidence(
                "inconclusive", "a generator is neither a monomial nor a "
                "unit binomial")

    if context is None:
        return UnmixednessEvidence(
            "inconclusive", "binomial generators but no graph context")

    # prime fast path: variables plus the toric ideal of a subgraph
    if not monos and set(context.edge_labels) <= set(I.ring.names):
        removed = sorted({I.ring.names[i] for g in variables
                          for i in mono_support(next(iter(g.terms)))}
                         & set(context.edge_labels))
        sub = context.delete_edges(removed)
        mine = {_sign_canonical(g) for g in binoms}
        recognized = mine == _ugb_signs(sub, I.ring)
        if not recognized:
            ext = [f.rename(I.ring) for f in universal_groebner_basis(sub)]
            recognized = ideal_equal(Ideal(I.ring, binoms), Ideal(I.ring, ext))
        if recognized:
            return UnmixednessEvidence(
                "prime", "variables plus the toric ideal of the context "
                "subgraph, hence prime")

    try:
        comps, total = binomial_monomial_split(variables + monos, binoms,
                                               context, I.ring)
    except SplitNotApplicable as exc:
        return UnmixednessEvidence("inconclusive", "splitting not applicable: %s" % exc)
    dims = tuple(c.dimension for c in comps)
    if len(set(dims)) > 1:
        return UnmixednessEvidence("refuted",
                                   "split components of different dimensions",
                                   dims, tuple(comps))
    if ideal_equal(total, I):
        return UnmixednessEvidence("equal-dims",
                                   "all split components share one dimension",
                                   dims, tuple(comps))
    return UnmixednessEvidence(
        "inconclusive", "the minimal primes share one dimension but the ideal "
        "is not their intersection, so embedded primes are undecided",
        dims, tuple(comps))
