"""Minimal primes of the ideals the decomposability search meets: monomial
ideals, and sums of monomials and primitive walk binomials of a graph.

One search decides both.  Given monomial supports and the sides (u, v) of
binomials, a closed cover is a set W of variables that meets every support
and, for every binomial, meets u exactly when it meets v.  Over a context
graph G its component is P_W = <W> + I_{G minus W}: the variables of W plus
the toric ideal of G without the edges in W.

Why the minimal closed covers give exactly the minimal primes.  Let I be
generated by the monomials and by binomials with coefficients +1 and -1.

- A prime P containing I meets the variables in a closed cover: P holds a
  variable of each monomial, and if u - v lies in P and u meets P, then u,
  hence v, lies in P.
- For a closed cover W, each binomial meets W on both sides, and so lies
  in <W>, or meets it on neither.  The split checks, for each minimal W,
  that the binomials avoiding W generate I_{G minus W}.  Toric ideals are
  prime, hold no variable, and this one lives in variables outside W, so
  P_W is prime, contains I, and holds no variable outside W.
- So a prime P containing I contains P_W for every minimal closed cover W
  among its variables, and a prime between I and P_W meets the variables in
  W itself, so it contains P_W.  The P_W are the minimal primes, and none
  contains another.

Hence their intersection is the radical of I, and dim P_W counts the
variables in neither W nor G minus W plus the toric dimension of G minus W.
A monomial ideal is the case with no binomials, which needs no graph: its
minimal primes are the <W>, and a square-free monomial ideal is their
intersection (Alexander duality).  ``tests/test_minimal_primes.py`` checks
these facts with the general Groebner routines.  Anything outside this
regime yields ``Inconclusive`` rather than a guess.

So the components intersect to I exactly when I is radical, and
``unmixedness_evidence`` decides that from the reduced basis where it can.
A square-free initial ideal proves I radical.  A monomial m of the basis
that is not square-free proves it is not: its support monomial r = sqrt(m)
lies in the radical of I but not in I (see ``_non_radical_witness``).
Only when neither applies are the components intersected.

Where the dimensions agree, two outcomes prove I not radical: a witness
monomial, which a monomial ideal with a generator that is not square-free
always has, and components that intersect to something other than I.  The
evidence, inconclusive about unmixedness, records them in ``not_radical``.
A decomposable ideal is radical (see ``gvd``), so each of them also
refutes decomposability.

This is the only source of unmixedness in a certificate: the search and
the structural certifiers of ``bipartite`` and ``ef`` store what
``unmixedness_evidence`` computes, and no theorem stands in for it.  So
replay can recompute the evidence of every node and require the stored
one, and a node whose evidence decides nothing stays inconclusive.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

from .algebra import (
    ONE, Poly, Ring, initial_term, mono_is_squarefree, mono_support,
    storage_order,
)
from .graphs import (
    Graph, lifted_basis, toric_dimension,
)
from .groebner import (
    Ideal, ideal_equal, intersect, minimal_generators,
)

__all__ = [
    "PrimeComponent", "UnmixednessEvidence", "SplitNotApplicable",
    "binomial_monomial_split",
    "base_evidence", "unmixedness_evidence", "named",
]


class SplitNotApplicable(Exception):
    """The binomial-monomial splitting hypotheses are not met."""


_VARIABLE = re.compile(r"\{(\d+)\}")


def named(text: str, ring_names: tuple) -> str:
    """``text`` with each placeholder {i} replaced by ``ring_names[i]``."""
    return _VARIABLE.sub(lambda m: ring_names[int(m.group(1))], text)


def _placeheld(f: Poly) -> str:
    """f written with the placeholder {i} for the i-th variable of its ring,
    so that text quoting it stays right when the variables are renamed."""
    return str(Poly(Ring("{%d}" % i for i in range(f.ring.arity)), f.terms))


@dataclass(frozen=True)
class PrimeComponent:
    """A prime ideal <monomial_vars> + I_{G minus removed_edges}, both
    lists by ring position; ``to_json_dict`` names and sorts them."""

    monomial_vars: tuple
    removed_edges: tuple
    toric_gens: tuple  # Poly generators of the toric part, in the ambient ring
    dimension: int

    def ideal(self, ring) -> Ideal:
        gens = [ring.var(i) for i in self.monomial_vars]
        gens += list(self.toric_gens)
        return Ideal(ring, gens)

    def to_json_dict(self, ring_names: tuple) -> dict:
        return {"M": sorted(ring_names[i] for i in self.monomial_vars),
                "removed_edges": sorted(ring_names[i] for i in self.removed_edges),
                "dim": self.dimension}


@dataclass(frozen=True)
class UnmixednessEvidence:
    """Evidence about the associated primes of an ideal.

    status: one of "unit", "zero", "variables", "principal", "prime",
    "equal-dims", "refuted", "inconclusive".  The first six are conclusive
    evidence of unmixedness, "refuted" is conclusive evidence against, and
    "inconclusive" decides nothing.  Every evidence is computed by
    ``unmixedness_evidence`` (or ``base_evidence``, which it returns for a
    base case), so certificate replay recomputes it and compares.  ``detail``
    quotes polynomials with the placeholder {i} for the i-th variable of
    the ideal's ring, and ``components`` hold ring positions, so the
    evidence reads the same in every ring of its arity: ``to_json_dict``
    fills in the names of the ring it is given.
    ``not_radical`` records that the computation proved the ideal not
    radical, which refutes decomposability (see ``gvd``).  It is set only
    on inconclusive evidence: refuted evidence refutes decomposability by
    itself, so it is not read there.  It is not serialized, so
    certificates read the same with or without it.
    """

    status: str
    detail: str = ""
    dims: Optional[tuple] = None
    components: Optional[tuple] = None
    not_radical: bool = False

    @property
    def conclusive_unmixed(self) -> bool:
        return self.status in ("unit", "zero", "variables", "principal",
                               "prime", "equal-dims")

    @property
    def refuted(self) -> bool:
        return self.status == "refuted"

    def to_json_dict(self, ring_names: tuple) -> dict:
        """The evidence in the ring named ``ring_names``, its components in
        cover order (see ``_closed_covers``) and ``dims`` in theirs."""
        out = {"status": self.status, "detail": named(self.detail, ring_names)}
        if self.components is not None:
            comps = sorted((c.to_json_dict(ring_names) for c in self.components),
                           key=lambda c: (len(c["M"]), c["M"]))
            out["dims"] = [c["dim"] for c in comps]
            out["components"] = comps
        return out


# ---------------------------------------------------------------------------
# Minimal closed covers.

def _closed_covers(supports: list, side_pairs: list) -> list:
    """The inclusion-minimal closed covers: sets of ring positions meeting
    every set in ``supports`` and, for each pair (u, v) in ``side_pairs``,
    meeting u exactly when they meet v.  Sorted by size, then by positions;
    empty when a support is empty."""
    found, seen = set(), set()

    def grow(V):
        if V in seen:
            return
        seen.add(V)
        missed = next((s for s in supports if not s & V), None)
        if missed is None:
            missed = next((v if u & V else u for u, v in side_pairs
                           if bool(u & V) != bool(v & V)), None)
        if missed is None:
            found.add(V)
            return
        for x in sorted(missed):
            grow(V | {x})

    grow(frozenset())
    minimal = [c for c in found if not any(d < c for d in found)]
    return sorted(minimal, key=lambda c: (len(c), sorted(c)))


# ---------------------------------------------------------------------------
# Binomial-monomial splitting over a graph context.

def _binomial_sides(f: Poly):
    """Support sets (as ring positions) of the two monomials of a +1/-1
    binomial."""
    items = sorted(f.terms.items(), key=lambda t: (sum(t[0]), t[0]), reverse=True)
    if len(items) != 2:
        return None
    (m1, c1), (m2, c2) = items
    if (c1, c2) not in ((1, -1), (-1, 1)):
        return None
    return frozenset(mono_support(m1)), frozenset(mono_support(m2))


def _ugb_signs(G: Graph, ring) -> frozenset:
    """The universal basis lifted into ``ring``, each binomial up to sign as
    the set of its two monomials, kept with the lift
    (``graphs.lifted_basis``).  Among +1/-1 binomials, the only ones
    compared with it, ``frozenset(f.terms)`` is the same key."""
    return lifted_basis(G, ring).signs


def _generates_toric_ideal(J: Ideal, binomials: list, G: Graph) -> bool:
    """True iff ``binomials`` B generate the toric ideal I_G of G in J's
    ring, where J = <V> + <B> for variables V, none an edge of G, none of
    which divides a binomial of B that lies in I_G.  V may be empty.  When
    J's reduced basis is split into its variables V and the rest B, as
    ``unmixedness_evidence`` splits it, the last condition holds: in a
    reduced basis no initial term divides a term of another element.

    The sign sets decide most cases.  Otherwise two checks decide it with
    no Groebner basis beyond J's own, and no reduction:

    1. Each b = x^u - x^v of B has u_i = v_i at every position that is not
       an edge of G, and A_G(u - v) = 0 on the edges, A_G the incidence
       matrix of G.
    2. Each minimal generator of in(I_G) under the storage order, kept
       with the lift of G's universal basis (``graphs.LiftedBasis.leads``),
       is divisible by the initial term of an element of J's reduced
       basis, its first term (``groebner.Ideal``).

    Check 1 holds exactly when <B> lies in I_G.  Split a monomial as
    x_S^a x_T^c, S the edges of G and T the rest of the ring.  The
    generators of I_G avoid T, so the part of I_G of T-degree c is x_T^c
    times the toric ideal in k[x_S], which holds no monomial.  So a
    binomial x_S^a x_T^c - x_S^b x_T^d lies in I_G exactly when c = d and
    x_S^a - x_S^b lies in the toric ideal, that is when A_G a = A_G b
    (Sturmfels, *Groebner Bases and Convex Polytopes*, 1996, Lemma 4.1).

    By check 1, each b of B is x_T^c times a binomial in the edges, which
    V avoids, and no variable of V divides it; so no variable of V occurs
    in b.  Let J' = <V> + I_G.  The universal basis is a Groebner basis of
    I_G under every order (Sturmfels, ch. 7), and V and I_G have disjoint
    variables, so in(J') = <V> + in(I_G).  If <B> = I_G, then J = J', and
    check 2 holds.  Conversely, check 1 puts J inside J', and check 2 puts
    in(I_G), which its minimal generators generate, and so in(J'), inside
    in(J).  Scanning only the minimal generators loses nothing: the initial
    term of each binomial of the universal basis, its larger packed
    monomial, lies in in(I_G), so it is a multiple of a minimal generator,
    and has a divisor among J's initial terms whenever that generator
    does.  Nested ideals with equal
    initial ideals are equal (Cox-Little-O'Shea, *Ideals, Varieties, and
    Algorithms*, ch. 2): the remainder of an element of J' modulo J's
    reduced basis lies in J', so it is zero or has its initial term in
    in(J') = in(J), which no remainder has.  So J = J'.  Sending V to 0
    maps J onto <B> and J' onto I_G, whose generators avoid V, so the two
    are equal.
    """
    ring = J.ring
    lift = lifted_basis(G, ring)
    if {frozenset(f.terms) for f in binomials} == lift.signs:
        return True
    edges = {ring.index[label] for label in G.edge_labels}
    others = [i for i in range(ring.arity) if i not in edges]
    rows = [[ring.index[label] for label, _ in G.neighbors(v)] for v in G.vertices]
    for f in binomials:
        u, v = f.terms
        d = [a - b for a, b in zip(u, v)]
        if any(d[i] for i in others) or any(sum(d[i] for i in row) for row in rows):
            return False
    basis = J.groebner()

    def scan(pk) -> bool:
        leads = [(pk.pack(next(iter(g.terms))),) for g in basis]
        return all(pk.divisor(pk.pack(m), leads) is not None
                   for m in lift.leads)
    return storage_order(ring).packing.widening(scan)


def binomial_monomial_split(monomials: list, binomials: list, context: Optional[Graph],
                            ring) -> list:
    """The minimal primes of <monomials> + <binomials> over the context
    graph, one component per minimal closed cover, in cover order.

    Binomials must be +1/-1, doubly square-free primitive walk binomials of
    ``context``, and the binomials avoiding each minimal cover must generate
    the toric ideal of its subgraph; SplitNotApplicable is raised otherwise.
    Under these checks the components are exactly the minimal primes (see
    the module docstring): they intersect to the radical of the input, and
    their dimensions follow from the subgraphs.  A monomial ideal is split
    with no binomials and no context: its components are the <W>.
    """
    supports = []
    for f in monomials:
        (m, _), = f.terms.items()
        supports.append(frozenset(mono_support(m)))
    sides = []
    for f in binomials:
        pair = _binomial_sides(f)
        if pair is None:
            raise SplitNotApplicable("not a +1/-1 binomial: %s" % _placeheld(f))
        if not all(mono_is_squarefree(m) for m in f.terms):
            raise SplitNotApplicable("binomial not doubly square-free: %s" % _placeheld(f))
        sides.append(pair)
    if sides and context is None:
        raise SplitNotApplicable("binomials present but no graph context")
    if context is not None:
        in_ugb = _ugb_signs(context, ring)
        for f in binomials:
            if frozenset(f.terms) not in in_ugb:
                raise SplitNotApplicable(
                    "binomial %s is not a primitive walk binomial of the "
                    "context" % _placeheld(f))

    # The context's edges by ring position: an edge outside the ring raises
    # KeyError.  A component's subgraph keeps the edges outside its cover V,
    # so its free variables are those outside V and the edges.
    edges = frozenset() if context is None else frozenset(
        ring.index[label] for label in context.edge_labels)
    components = []
    for V in _closed_covers(supports, sides):
        removed = tuple(sorted(V & edges))
        survivors = tuple(f for f, (u, v) in zip(binomials, sides) if not (u & V or v & V))
        toric_dim = 0
        if context is not None:
            sub = context.delete_edges(ring.names[i] for i in removed)
            if not _generates_toric_ideal(Ideal(ring, survivors), survivors, sub):
                raise SplitNotApplicable(
                    "component toric part differs from the subgraph ideal")
            toric_dim = toric_dimension(sub)
        components.append(PrimeComponent(tuple(sorted(V)), removed, survivors,
                                         ring.arity - len(V | edges) + toric_dim))
    if not components:
        raise SplitNotApplicable("no components found")
    return components


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
    prime ideals, and minimal primes of one dimension that intersect back
    to the input ideal (then they are a primary decomposition into primes,
    so the associated primes are exactly these).  Conclusive negative
    evidence: minimal primes of differing dimensions (minimal primes are
    associated primes no matter what, so unequal dimensions always refute
    unmixedness).  When a non-radical ideal has equal-dimensional minimal
    primes, its embedded primes remain undecided: the evidence is
    inconclusive with the dimensions attached, and sets ``not_radical``.

    A prime ideal <V> + I_sub, V variables and I_sub the toric ideal of the
    context less V's edges, is recognized off the reduced basis, before any
    minimal generator is taken: V is the basis's variables and B the rest,
    and the evidence is "prime" when every element of B is a unit binomial
    and B generates I_sub (``_generates_toric_ideal``).  V and I_sub have
    disjoint variables, so the reduced basis of <V> + I_sub is V plus that
    of I_sub, whose elements are unit binomials: the test holds exactly
    when I = <V> + I_sub.  The minimal generators, a subset of the basis,
    keep every variable in it, so a path through them reads the same V and
    decides the same.  A proven-prime I keeps, in ``Ideal._universal``, the
    data (V, pairs): V and the pairs of the subgraph's universal basis as
    ``graphs.lifted_basis`` caches them, with no ``Poly`` built.  Every reduced
    basis of I is V plus a subset of that universal basis, so each basis I
    is asked for is selected from it (``groebner.selected_basis``), with
    no Buchberger run and no reduction.

    The minimal primes are the components that ``binomial_monomial_split``
    reads off the minimal generators.  A monomial ideal is the case with no
    binomials, split with no context; its detail texts say "minimal
    primes" and "radical" where the others say "split components" and
    "their intersection".  Whether the components intersect back to I is
    read off the reduced basis when it has a square-free initial ideal
    (radical) or a witness monomial (not radical; see the module
    docstring).  Otherwise they are intersected, which a monomial ideal
    never needs: its reduced basis is square-free or holds a witness.
    """
    rgb = I.groebner()
    base = base_evidence(rgb)
    if base is not None:
        return base
    if len(rgb) == 1:
        return UnmixednessEvidence("principal", "principal ideals are unmixed")

    # Variables plus the toric ideal of a subgraph, read off the reduced
    # basis: its variables V and the rest B, all unit binomials.
    V = [g for g in rgb if g.is_variable()]
    B = [g for g in rgb if not g.is_variable()]
    if context is not None and all(_binomial_sides(g) is not None for g in B):
        ring = I.ring
        sub = context.delete_edges({ring.names[g.support()[0]] for g in V}
                                   & set(context.edge_labels))
        if _generates_toric_ideal(I, B, sub):
            I._universal = (tuple(V), lifted_basis(sub, ring).pairs)
            return UnmixednessEvidence(
                "prime", "variables plus the toric ideal of the context "
                "subgraph, hence prime")

    # Classify an irredundant generating subset of the reduced basis rather
    # than the whole basis (S-polynomial completion can manufacture
    # non-square-free monomials that elements of lower degree already
    # generate).  The subset is taken from the basis, not from I.gens, so the
    # evidence depends on the ideal alone.  A monomial ideal's reduced basis
    # is already its minimal generators.
    gens = (rgb if all(g.is_monomial() for g in rgb)
            else minimal_generators(Ideal(I.ring, rgb)))
    variables, monos, binoms = [], [], []
    for g in gens:
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

    if binoms and context is None:
        return UnmixednessEvidence(
            "inconclusive", "binomial generators but no graph context")

    try:
        comps = tuple(binomial_monomial_split(variables + monos, binoms,
                                              context if binoms else None, I.ring))
    except SplitNotApplicable as exc:
        return UnmixednessEvidence("inconclusive", "splitting not applicable: %s" % exc)
    primes = "split components" if binoms else "minimal primes"
    dims = tuple(c.dimension for c in comps)
    if len(set(dims)) > 1:
        return UnmixednessEvidence("refuted", "%s of different dimensions" % primes,
                                   dims, comps)
    equal_dims = UnmixednessEvidence("equal-dims", "all %s share one dimension" % primes,
                                     dims, comps)
    # The components are the minimal primes, so they intersect to the
    # radical: equal to I exactly when I is radical.  A square-free initial
    # ideal proves that I is radical without intersecting: if f^k lies in I
    # for a nonzero f in normal form, then in(f)^k lies in the square-free
    # in(I), so in(f) does too, and f was not in normal form.  A witness
    # monomial proves that I is not radical, again without intersecting.
    order = storage_order(I.ring)
    if all(mono_is_squarefree(initial_term(order, g).mono) for g in rgb):
        return equal_dims
    not_radical = UnmixednessEvidence(
        "inconclusive", "the minimal primes share one dimension but the ideal "
        "is %s, so embedded primes are undecided"
        % ("not their intersection" if binoms else "not radical"),
        dims, comps, not_radical=True)
    if _non_radical_witness(rgb) is not None:
        return not_radical
    radical = None
    for c in comps:
        P = c.ideal(I.ring)
        radical = P if radical is None else intersect(radical, P)
    return equal_dims if ideal_equal(radical, I) else not_radical


def _non_radical_witness(rgb: tuple) -> Optional[Poly]:
    """A square-free monomial in the radical of the ideal with reduced basis
    ``rgb`` but not in the ideal, read off the basis; None when the basis
    has no monomial that is not square-free.

    For such a monomial m of the basis, its support monomial r = sqrt(m)
    properly divides m, and m divides r^k for k the largest exponent of m,
    so r lies in the radical.  It does not lie in the ideal: if it did,
    the initial term of some basis element would divide r, its own initial
    term, and so properly divide m.  That element is not m, and in a
    reduced basis no initial term divides a term of another element.  So
    the ideal is not radical, and its minimal primes, which intersect to
    the radical (module docstring), do not intersect to the ideal.
    """
    for g in rgb:
        if not g.is_monomial():
            continue
        (m, _), = g.terms.items()
        if not mono_is_squarefree(m):
            return Poly(g.ring, {tuple(1 if e else 0 for e in m): ONE})
    return None
