"""Geometric vertex decomposition: the C/N split at a variable, the
decomposition identity, and the recursive decomposability certifier.

Decomposing an ideal I at a variable y means writing the y-graded initial
ideal as in_y(I) = C ∩ (N + <y>), where C and N collect the y-free factors
of a reduced Groebner basis under a y-compatible order.  An ideal is
geometrically vertex decomposable when it is unmixed and either a base case
(zero, unit, generated by variables) or some variable admits the identity
with both contracted pieces again decomposable.  The certifier below returns
a full certificate tree for "decomposable", an exhaustive per-variable
refutation for "not decomposable", which keeps the refuted branch of each
variable, and an explicit reason otherwise.  It reads the identity off the
reduced basis by theorem (see ``CnSplit``).  Replay checks every node of
either verdict from what the node stores, and never runs the search.

A decomposable ideal is radical (Klein–Rajchgot, Forum Math. Sigma 9
(2021)), so an ideal that ``unmixedness_evidence`` proves not radical is a
"not-gvd" leaf, and the search does not look below it.  By induction over
the certificate tree:

- The base cases are radical: the zero and unit ideals, and ideals
  generated by variables, which are prime.
- At a step at y, C and N are radical by induction, and neither mentions
  y, so N + <y> is radical (its quotient is that of N in the other
  variables).  So in_y(I) = C ∩ (N + <y>) is radical.  Take a
  y-compatible order < and f in normal form modulo I with f^k in I.  Then
  in_y(f)^k = in_y(f^k) lies in in_y(I), so in_y(f) does too.  Its initial
  term in(f) therefore lies in in(in_y(I)) = in(I) (Knutson–Miller–Yong,
  J. Reine Angew. Math. 630 (2009)).  In normal form that forces f = 0,
  so I is radical.
- Extension by an absent variable keeps radicality: the quotient is a
  polynomial ring over the old one.  So does a sum over disjoint
  variables: its quotient is the tensor product over Q of the two
  quotients, and Q is perfect.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .algebra import Poly, Ring, initial_y_form, y_order
from .components import (
    UnmixednessEvidence, base_evidence, named, unmixedness_evidence,
)
from .graphs import Graph, lifted_basis
from .groebner import Ideal, contract, ideal_equal, reduced_basis_of
from .util import Budget

__all__ = [
    "CnSplit", "GvdNode", "GvdCertificate",
    "cn_split", "initial_y_ideal", "check_decomposition",
    "base_node", "inconclusive", "certify_step",
    "is_gvd", "replay_certificate",
]


# ---------------------------------------------------------------------------
# The C/N split at a variable.

@dataclass(frozen=True)
class CnSplit:
    """The data of a candidate decomposition of I at the variable y.

    C is generated by all y-free factors q of the reduced basis elements
    g = y^d q + r under the y-compatible ``y_order``; N by those with d = 0.
    N ⊆ C, and no generator of either mentions y.

    When y does not occur in I's reduced basis under the storage order, C
    and N are both I, generated by that basis (``cn_split``).  That is the
    split the rule above gives, with other generators: I is then extended
    from the ring without y, so its reduced basis under every order is
    y-free (see ``groebner.contract``), every d is 0, and both lists of
    q's are the ``y_order`` basis of I.  Then in_y(I) = I as well.

    ``square_free_in_y`` (every d ≤ 1) is the verdict of the identity
    in_y(I) = C ∩ (N + <y>), whose right side is N + y·C: y is a
    nonzerodivisor modulo the y-free C, so n + y·h in C forces h into C.
    The forms y^d q are a Groebner basis of in_y(I) with initial terms
    y^d·in(q) (Knutson–Miller–Yong, J. Reine Angew. Math. 630 (2009),
    Thm 2.1).  (⇐) If every d ≤ 1, N + y·C has the generators y·q (d = 1)
    and q (d = 0) of in_y(I), plus the y·q with d = 0, which lie in N.
    (⇒) If some d ≥ 2, y·q lies in N + y·C but not in in_y(I): its initial
    term would be divisible by some y^e·in(q') with e ≤ 1, which would then
    divide y^d·in(q), another initial term of the reduced basis.  So the
    identity says in_y(I) is generated in y-degree ≤ 1, whatever the order
    (the square-free dichotomy; Klein–Rajchgot, Forum Math. Sigma 9
    (2021)): a failure at one y-compatible order is a failure at all.

    The split owns its branches, the contractions of C and N to the ring
    without y, built when first read and kept in plain fields:
    ``c_branch`` and ``n_branch`` are one ideal exactly when C is N, that
    is when y is absent.  Whether the step only shrinks the problem is
    read off the split (``degenerate``).
    """

    y: str
    C: Ideal
    N: Ideal
    square_free_in_y: bool
    # the branches once read: plain instance fields over these class-level
    # Nones, and not dataclass fields, so ``replace`` starts them afresh
    _c_branch = None
    _n_branch = None

    @property
    def n_branch(self) -> Ideal:
        if self._n_branch is None:
            object.__setattr__(self, "_n_branch", contract(self.N, self.y))
        return self._n_branch

    @property
    def c_branch(self) -> Ideal:
        if self._c_branch is None:
            branch = self.n_branch if self.C is self.N else contract(self.C, self.y)
            object.__setattr__(self, "_c_branch", branch)
        return self._c_branch

    @property
    def degenerate(self) -> bool:
        """The ``degenerate`` flag of a step with this split: C is N, or
        C's branch is the unit ideal.

        The flag means that C is the unit ideal or √C = √N, a valid step
        that only shrinks the problem, and the rule says exactly that when
        both branches are radical.  They are wherever the flag counts: the
        certifiers set it on a step whose branches both certified "gvd",
        and replay accepts it only once both children replay as "gvd".  A
        "gvd" ideal is radical (module docstring), and so are C and N, the
        extensions of the branches by y: the quotient is a polynomial ring
        over the branch's.  For radical N ⊆ C, √C = √N exactly when C = N.
        ``cn_split`` makes C and N one ideal exactly when y is absent from
        the reduced basis.  Otherwise C ≠ N: some element is g = y^d·q + r
        with d ≥ 1, and q is a generator of C.  If q lay in N, which lies
        in I, some initial term of the reduced basis would divide in(q),
        and so properly divide in(g) = y^d·in(q) under the y-compatible
        order, which a reduced basis rules out.  So past the first test the
        step is degenerate only if C is the unit ideal, and C's branch,
        which C extends along the free Q[x] → Q[x][y], is unit exactly when
        C is.
        """
        return self.C is self.N or self.c_branch.is_unit_ideal()


def _extended(I: Ideal, y: str) -> Optional[Ideal]:
    """I generated by its reduced basis under the storage order, with that
    basis cached, when y does not occur in the basis; else None."""
    rgb = I.groebner()
    iy = I.ring.index[y]
    if any(m[iy] for g in rgb for m in g.terms):
        return None
    return Ideal.reduced(I.ring, rgb)


def initial_y_ideal(I: Ideal, y) -> Ideal:
    """in_y(I): the ideal of maximal-y-degree forms, via the reduced basis
    under the y-compatible ``y_order`` (which makes the generator-wise forms
    a generating set).  When y does not occur in I's reduced basis under the
    storage order, in_y(I) = I (see ``CnSplit``), generated by that basis,
    and no ``y_order`` basis is computed."""
    ring = I.ring
    yname = ring.names[ring.vidx(y)]
    same = _extended(I, yname)
    if same is not None:
        return same
    return Ideal(ring, [initial_y_form(yname, g)
                        for g in I.groebner(y_order(ring, yname))])


def cn_split(I: Ideal, y) -> CnSplit:
    """Split I at y into the C and N ideals of its reduced basis under
    ``y_order``, the one order every split is made under.  When y does not
    occur in I's reduced basis under the storage order, C and N are one
    ideal, I generated by that basis, which it caches (see ``CnSplit``):
    its one branch reads its reduced basis off it (``groebner.contract``),
    and no ``y_order`` basis is computed.  Which case applies is read off the
    storage basis every time, so the generator lists do not depend on what
    is cached.

    Otherwise C and N are generated by the q's, and a square-free split
    caches their reduced bases under ``y_order`` beside them, with no
    S-pair.  The q's of C are a Groebner basis of C there
    (Knutson–Miller–Yong, Thm 2.1), which ``reduced_basis_of`` reduces.
    Those of N are N's reduced basis: they are the y-free elements of I's,
    and each is its g.  Each q keeps the terms of g in their order, so
    both bases store their initial terms first.  ``contract`` reads the
    storage basis off them when graded lex picks the same initial terms,
    and hands it to the branch.  It always does below a toric ideal of a
    graph: such ideals are homogeneous, and so are their reduced bases and
    their q's, and on a y-free homogeneous polynomial graded lex and
    ``y_order`` pick the same initial term.  A split that is not
    square-free is never certified, so it caches nothing."""
    ring = I.ring
    yname = ring.names[ring.vidx(y)]
    same = _extended(I, yname)
    if same is not None:
        return CnSplit(yname, same, same, True)
    iy = ring.index[yname]
    order = y_order(ring, yname)
    c_gens, n_gens = [], []
    square_free = True
    for g in I.groebner(order):
        d = max(m[iy] for m in g.terms)
        if d > 1:
            square_free = False
        q = Poly._adopt(ring, {m[:iy] + (0,) + m[iy + 1:]: c
                               for m, c in g.terms.items() if m[iy] == d})
        c_gens.append(q)
        if d == 0:
            n_gens.append(q)
    C, N = Ideal(ring, c_gens), Ideal(ring, n_gens)
    if square_free:
        C._rgb[order.rows] = tuple(reduced_basis_of(order, C.gens))
        N._rgb[order.rows] = N.gens
    return CnSplit(yname, C, N, square_free)


def check_decomposition(I: Ideal, split: CnSplit) -> bool:
    """The literal identity in_y(I) = N + y·C (= C ∩ (N + <y>), see
    ``CnSplit``), for certificate replay, which does not rest on the
    theorem the certifiers use to read it off ``split.square_free_in_y``.

    It is first proved from the generators: each generator of either side,
    with its coefficients, is a generator of the other side or y times one,
    so it lies in the other side, and the two ideals are equal.  This needs
    no Groebner basis beyond I's own two, behind in_y(I).  When the proof
    fails, the reduced bases of the two sides are compared, so the check is
    exact for any split, however it was made.

    For the square-free split ``cn_split`` makes, the proof always succeeds.
    The generators of in_y(I) are the forms y^d·q with d ≤ 1, and those of
    N + y·C are the q with d = 0 and y·q for every q.  A form with d = 0 is
    q, a generator of N, and one with d = 1 is y·q.  Conversely, a q of N
    is a form, y·q with d = 1 is a form, and y·q with d = 0 is y times the
    form q.  When y is absent, both sides are generated by I's storage
    basis B: in_y(I) by B, and N + y·C by B and y·B.  The proof itself
    rests on no theorem.
    """
    y = I.ring.var(split.y)
    lhs = initial_y_ideal(I, split.y)
    rhs = split.N.with_extra([y * c for c in split.C.gens])
    iy = I.ring.index[split.y]
    if _among(lhs.gens, rhs.gens, iy) and _among(rhs.gens, lhs.gens, iy):
        return True
    return ideal_equal(lhs, rhs)


def _among(polys: tuple, gens: tuple, iy: int) -> bool:
    """Whether each of ``polys`` is one of ``gens`` or y times one, y the
    variable at position ``iy``, coefficients included: then each lies in
    the ideal of ``gens``.  Polynomials are looked up by their sets of
    monomials, and their terms compared."""
    table = {frozenset(g.terms): g.terms for g in gens}
    for f in polys:
        if table.get(frozenset(f.terms)) == f.terms:
            continue
        if all(m[iy] for m in f.terms):
            low = {m[:iy] + (m[iy] - 1,) + m[iy + 1:]: c
                   for m, c in f.terms.items()}
            if table.get(frozenset(low)) == low:
                continue
        return False
    return True


# ---------------------------------------------------------------------------
# Certificates.

@dataclass(frozen=True, eq=False)
class GvdNode:
    """One node of a decomposability certificate tree, holding every
    variable by its position in the node's ring: one node serves every ring
    of its arity, and ``GvdCertificate`` names its variables.

    kind: "zero" | "unit" | "variables" | "decomposition" | "not-gvd" |
    "inconclusive" | "disjoint-union".  ``verdict`` is the overall call at
    this node ("gvd", "not-gvd" or "inconclusive"); for a certified node it
    is determined by the kind, children and unmixedness evidence.
    ``failures`` holds, for each variable ruled out, the triple (position,
    kind, child): the kind is "identity" (the split is not square-free
    there), "C" or "N" (that contracted branch is not decomposable) or
    "absent" (the variable is absent from the reduced basis and the
    contraction is not decomposable), and the child is the refuted
    branch's node, read in the ring without the variable (None for
    "identity").  Its reason is derived from the kind (``_REASONS``).  A
    step's order is not stored: it is ``y_order`` of its ring and y, and
    ``_order_json`` writes it.  Reasons name variables only through the
    placeholder ``{i}`` for the i-th variable of the node's ring, as
    evidence details do.
    """

    kind: str
    verdict: str
    unmixedness: Optional[UnmixednessEvidence] = None
    y: Optional[int] = None
    degenerate: Optional[bool] = None
    child_c: Optional["GvdNode"] = None
    child_n: Optional["GvdNode"] = None
    variables: tuple = ()
    failures: tuple = ()
    factors: tuple = ()  # a union's: the ring positions of each child's ring
    reason: str = ""


# The reason of each kind of failure at the variable at position i.
_REASONS = {"identity": "identity fails: the reduced basis is not square-free "
                        "in {%(i)d}, so no compatible order works",
            "C": "C-branch is certified not decomposable",
            "N": "N-branch is certified not decomposable",
            "absent": "the ideal does not involve {%(i)d} and its contraction is "
                      "certified not decomposable, which rules out every variable"}


def _order_json(names: tuple, y: str) -> dict:
    """The JSON of ``y_order`` at y over a ring with these names: y-degree
    first, then lex with y first and the other variables in ring order."""
    return {"kind": "y-first", "y": y,
            "inner": {"kind": "lex", "vars": [y] + [n for n in names if n != y]}}


class GvdCertificate:
    """The tree below ``node`` read in the ring named ``ring_names``: its
    fields name their variables, and a child is read in its own ring.  The
    certifiers build one per call, for the root, as they return; every
    step below passes nodes."""

    __slots__ = ("node", "ring_names")

    def __init__(self, node: GvdNode, ring_names: tuple):
        self.node, self.ring_names = node, ring_names

    kind = property(lambda self: self.node.kind)
    verdict = property(lambda self: self.node.verdict)
    unmixedness = property(lambda self: self.node.unmixedness)
    degenerate = property(lambda self: self.node.degenerate)
    reason = property(lambda self: named(self.node.reason, self.ring_names))
    y = property(lambda self: None if self.node.y is None else self.ring_names[self.node.y])
    variables = property(lambda self: tuple(self.ring_names[i] for i in self.node.variables))
    failures = property(lambda self: tuple(
        (self.ring_names[i], self._reason(i, kind)) for i, kind, _ in self.node.failures))
    child_c = property(lambda self: self._child(self.node.child_c, 0))
    child_n = property(lambda self: self._child(self.node.child_n, 1))

    def _child(self, child: Optional[GvdNode], side: int):
        names, node = self.ring_names, self.node
        if child is None:
            return None
        if node.factors:
            return GvdCertificate(child, tuple(names[i] for i in node.factors[side]))
        return GvdCertificate(child, names[:node.y] + names[node.y + 1:])

    def rename(self, name_map: dict) -> "GvdCertificate":
        return GvdCertificate(self.node, tuple(name_map.get(n, n)
                                               for n in self.ring_names))

    def to_json_dict(self) -> dict:
        out = {"kind": self.kind, "verdict": self.verdict,
               "ring": list(self.ring_names)}
        if self.y is not None:
            out["y"] = self.y
            out["order"] = _order_json(self.ring_names, self.y)
        if self.degenerate is not None:
            out["degenerate"] = self.degenerate
        if self.unmixedness is not None:
            out["unmixedness"] = self.unmixedness.to_json_dict(self.ring_names)
        if self.kind == "variables":
            out["variables"] = list(self.variables)
        kids = {"C": self.child_c, "N": self.child_n}
        if kids["C"] is not None or kids["N"] is not None:
            out["children"] = {side: kid.to_json_dict()
                               for side, kid in kids.items() if kid is not None}
        if self.node.failures:
            out["failures"] = [self._failure_json(*f) for f in self.node.failures]
        reason = self.reason
        if reason:
            out["reason"] = reason
        return out

    def _reason(self, i: int, kind: str) -> str:
        """The reason of a failure of this kind at the variable at position
        i, named in this ring."""
        return named(_REASONS[kind] % {"i": i}, self.ring_names)

    def _failure_json(self, i: int, kind: str, child: Optional[GvdNode]) -> dict:
        """A failure, with its refuted branch read in the ring without y."""
        names = self.ring_names
        out = {"y": names[i], "kind": kind, "reason": self._reason(i, kind)}
        if child is not None:
            out["refutation"] = GvdCertificate(
                child, names[:i] + names[i + 1:]).to_json_dict()
        return out


def base_node(I: Ideal) -> Optional[GvdNode]:
    """The leaf node for a base case (the zero ideal, the unit ideal, an
    ideal generated by variables), or None when I is none of them."""
    rgb = I.groebner()
    ev = base_evidence(rgb)
    if ev is None:
        return None
    variables = ()
    if ev.status == "variables":
        variables = tuple(sorted(g.support()[0] for g in rgb))
    return GvdNode(ev.status, "gvd", unmixedness=ev, variables=variables)


def inconclusive(reason: str, **fields) -> GvdNode:
    """A node that decides nothing, with the reason why, which names
    variables by position (see ``GvdNode``)."""
    return GvdNode("inconclusive", "inconclusive", reason=reason, **fields)


def _refutation(ev: UnmixednessEvidence) -> Optional[GvdNode]:
    """The "not-gvd" leaf for evidence that rules out decomposability by
    itself, or None: unmixedness refuted, or the ideal proved not radical
    (a decomposable ideal is radical; see the module docstring)."""
    if ev.refuted:
        reason = "unmixedness refuted"
    elif ev.not_radical:
        reason = "not radical, and a decomposable ideal is radical"
    else:
        return None
    return GvdNode("not-gvd", "not-gvd", unmixedness=ev, reason=reason)


def _decomposition(y: int, ev: UnmixednessEvidence, split: CnSplit,
                   node_c: GvdNode, node_n: GvdNode) -> GvdNode:
    """The node for a verified step at the variable at position ``y``,
    whose two branches certified as ``node_c`` and ``node_n``.

    It is decomposable when the unmixedness evidence ``ev``, computed for
    I, is conclusive, and otherwise inconclusive with the step attached.
    Both branches certified "gvd", so the split reads its flag
    ``degenerate`` without a radical membership test.  Replay recomputes
    ``ev`` and accepts the node only if it is the stored one.
    """
    step = dict(unmixedness=ev, y=y, degenerate=split.degenerate,
                child_c=node_c, child_n=node_n)
    if ev.conclusive_unmixed:
        return GvdNode("decomposition", "gvd", **step)
    return inconclusive("decomposition found at {%d} but unmixedness evidence "
                        "is inconclusive (%s)" % (y, ev.detail), **step)


def certify_step(I: Ideal, y: str, context: Optional[Graph],
                 certify_c, certify_n) -> GvdNode:
    """One node of a structural certifier, which has chosen the variable y.

    The structure only chooses y; every fact the node states is computed
    here for I itself, and replay checks each again.  The step is the
    split of I at y, which must be square-free in y (see ``CnSplit``);
    ``certify_c`` and ``certify_n`` certify its branches, each returning
    the branch's node.  So a structure that describes I wrongly can only
    make the node inconclusive.  A degenerate step, where y is absent (C is
    N) or lies in I (C is the unit ideal), certifies N's branch only: C's
    reuses its node or is the unit leaf.  A branch that does not certify,
    refuted or not, leaves the node inconclusive, since a refutation must
    rule out every variable (see ``_replay_refutation``).  Unmixedness is
    computed over ``context``, as the search computes it: evidence that
    refutes it or proves I not radical makes the node a "not-gvd" leaf, and
    evidence that decides nothing leaves the node inconclusive.  The node
    holds y by its position in I's ring, like every node.
    """
    ev = unmixedness_evidence(I, context)
    leaf = _refutation(ev)
    if leaf is not None:
        return leaf
    i = I.ring.index[y]
    split = cn_split(I, y)
    if not split.square_free_in_y:
        return inconclusive("decomposition identity failed at {%d}" % i)
    if split.degenerate:
        node_n = certify_n(split.n_branch)
        node_c = node_n if split.C is split.N else base_node(split.c_branch)
    else:
        node_c = certify_c(split.c_branch)
        node_n = certify_n(split.n_branch)
    if node_c.verdict == "gvd" and node_n.verdict == "gvd":
        return _decomposition(i, ev, split, node_c, node_n)
    return inconclusive("a branch at {%d} did not certify (C: %s, N: %s)"
                        % (i, node_c.verdict, node_n.verdict))


# ---------------------------------------------------------------------------
# The recursive certifier.

def _variable_order(rgb: tuple, present: set) -> list:
    """Search order over the ring positions ``present`` of the variables
    that occur in the basis.

    They are ranked by a free proxy computed from the storage basis:
    variables whose y-graded factors are mostly single variables (their C
    side is close to a base case) come early, and variables occurring with
    exponent two or more anywhere come last, since their decomposition
    identity is doomed to fail.
    """
    doomed = dict.fromkeys(present, 0)
    hard = dict.fromkeys(present, 0)
    n_size = dict.fromkeys(present, 0)
    for g in rgb:
        # g = y^d q + r at each y, read off the exponents: the y-degree d,
        # and whether q, from the terms of y-degree d, is one variable
        # with coefficient 1
        degrees = list(map(max, zip(*g.terms)))
        terms = [(m, c, sum(m)) for m, c in g.terms.items()]
        for i in present:
            d = degrees[i]
            if d > 1:
                doomed[i] = 1
            elif d == 0:
                n_size[i] += 1
            top = [(c, deg) for m, c, deg in terms if m[i] == d]
            if len(top) != 1 or top[0] != (1, d + 1):
                hard[i] += 1
    return sorted(present, key=lambda i: (doomed[i], hard[i], n_size[i], i))


def _context_key(I: Ideal, context: Optional[Graph]):
    """What the search reads of ``context`` from I's ring; None when there
    is no context.

    Every edge of the context lies in the ring: ``is_gvd`` refuses any
    other context, and a child's context is its restriction to the child's
    ring (``_restrict_context``).  The key is the sorted ring positions P
    of its edges, and the sign set of its universal basis by ring position:
    each binomial as the bytes of the exponents of its smaller monomial,
    then of its larger one, sorted and joined.  (The exponents of a
    primitive walk binomial are at most 2, so each fits in a byte.)  It is
    built once per context and ring and kept with the lifted basis
    (``graphs.LiftedBasis.key``).  A kept key is the key a fresh
    computation builds: it is a function of the lifted pairs and of the
    ring's names, and ``graphs.lifted_basis`` caches its entries under the
    context's vertices and edges and the ring's names, which fix both.

    Why equal keys give equal nodes.  Let
    A be the incidence matrix of the context with its columns at the
    positions P, and L = ker_Z(A), read in Z^n with zeros outside P.

    - The key is a complete invariant of (P, L).  The universal basis is
      the set of binomials x^{u+} - x^{u-} of the Graver basis of L
      (``universal_groebner_basis``; Sturmfels, *Groebner Bases and Convex
      Polytopes*, 1996, ch. 4 and 7), so the sign set is that Graver basis
      up to sign, by position.  L fixes its Graver basis, and the Graver
      basis spans L, since every vector of L is a conformal sum of Graver
      elements.  (Put otherwise: L is saturated, so its toric ideal fixes
      it, and the universal basis generates that ideal.)
    - Deleting the edges D from the context leaves the positions P - D and
      the lattice L ∩ {x_d = 0 for d in D}: a kernel vector of the other
      columns, extended by zeros, lies in L, and conversely.  So the
      restriction to a child's ring (``_restrict_context``), which drops y
      at a step and the other factor's edges at a disjoint union, gives
      L ∩ Z^S for the positions S of P in that ring, read in the child's
      ring, whose positions follow from the parent's.
    - ``toric_dimension(sub)`` for the subgraph on the edges S is the rank
      of A_S, which is |S| - rank(L ∩ Z^S).
    - ``unmixedness_evidence``, ``_generates_toric_ideal`` and
      ``binomial_monomial_split`` read the context through its edges by
      position (the removed edges of a cover, the edges its subgraph
      keeps, and so the free variables), the sign sets of the universal
      bases of the context and of its edge deletions, whether the initial
      term of each such basis's binomials under the storage order is
      divisible by an initial term of an ideal's reduced basis, whether
      u - v lies in the lattice of a deletion for a binomial x^u - x^v,
      and the toric dimensions of the deletions.  By the two items above
      each is a function of (P, L) and positions.  Nothing reads vertex
      names, isolated vertices, the order of the edges, or the ancestor
      that a cached basis is restricted from, which gives the same basis.
      The universal basis that "prime" evidence leaves with an ideal
      changes how its reduced bases are computed, not what they are.

    So a memo hit, the stored node read in another ring, is the node a
    fresh search would build.  Take nodes with equal memo keys: the same
    reduced basis by position and the same (P, L).  The search reads names
    only through their ring positions, and it reads an ideal only through
    its reduced bases, never its generator list: ``unmixedness_evidence``
    classifies minimal generators taken from the storage basis, and the
    splits and factors are read off reduced bases.  So by the items above,
    step by step, both searches reach children with equal bases and
    contexts with equal (P, L), and build the same evidence.  So they take
    the same steps, position for position, and build the same node.  The
    only outputs ordered by name are the components of the evidence, which
    ``UnmixednessEvidence.to_json_dict`` sorts by the names of the ring it
    is given, as a fresh search sorts them.

    A node whose reduced basis is one polynomial or all monomials is keyed
    with no context (``_node_key``), since no context changes its subtree.
    By induction on the subtree, every node below it is again principal,
    monomial, zero or unit: at y, the C branch of <f> with f = y^d·q + r is
    <q> and its N branch is 0; a contraction at an absent variable keeps
    the basis; and a monomial ideal splits into monomial factors and
    branches.  For these kinds ``unmixedness_evidence`` never reads the
    context (a monomial ideal has no binomial, and is split with none),
    and ``_search`` only passes it on (``_restrict_context``).  So a hit is
    the node a fresh search builds under any context, None included.
    """
    if context is None:
        return None
    return lifted_basis(context, I.ring).key


def _node_key(I: Ideal, context: Optional[Graph]) -> tuple:
    """The key of I's node: its ring's arity, its reduced basis by
    position, and the ``_context_key`` of ``context`` (its edge positions
    and kernel lattice) unless that basis is one polynomial or all
    monomials (see ``_context_key``).  Each basis element is keyed by its
    monomials as stored and its coefficients as (numerator, denominator),
    with no sort and no ``Fraction`` hash: a storage-order basis stores
    its terms in descending order (``groebner.Ideal``), so this is
    ``g.canonical()`` re-encoded."""
    rgb = I.groebner()
    lattice = None
    if len(rgb) > 1 and not all(g.is_monomial() for g in rgb):
        lattice = _context_key(I, context)
    ratio = Fraction.as_integer_ratio
    return (I.ring.arity,
            tuple((tuple(g.terms), tuple(map(ratio, g.terms.values()))) for g in rgb),
            lattice)


def _in_ring(I: Ideal, context: Optional[Graph]) -> bool:
    """Whether every edge of ``context``, if any, is a variable of I's
    ring."""
    return context is None or I.ring.index.keys() >= set(context.edge_labels)


def _restrict_context(context: Optional[Graph], names: tuple) -> Optional[Graph]:
    """The context of a child whose ring has the variables ``names``: the
    edges that survive in ``names``.  Every context lies in its ring, so at
    a step at y this drops exactly y."""
    if context is None:
        return None
    keep = set(names)
    return context.delete_edges([e for e in context.edge_labels
                                 if e not in keep])


def _disjoint_factors(I: Ideal) -> Optional[tuple]:
    """The ring positions and ideals (each in its own ring) of the two
    factors of I: the generators linked through shared variables to the
    smallest variable of the reduced basis, and the rest, which also holds
    the absent variables.  None when no generator is left for the rest, or
    when the basis has no variable (the zero and the unit ideal).

    Each factor is generated by its part of I's reduced basis G under the
    storage order, and that part is the factor's own reduced basis, cached
    with no Buchberger run: the reduced basis of a sum over disjoint
    variables is the union of the summands' reduced bases.  Reducing a
    polynomial of a factor's ring modulo G only uses elements whose initial
    term divides one of its monomials, and those are the factor's own: the
    other factor's elements have nonconstant initial terms in variables
    outside that ring.  So the S-pairs of the part, which reduce to 0
    modulo G, reduce to 0 modulo the part, and it is a Groebner basis of
    the factor.  It is monic and reduced as G is.  A factor's ring keeps
    the ring order of its variables, so graded lex there is the
    restriction of graded lex, and the part keeps the order of its terms
    and of its elements that ``buchberger`` gives."""
    rgb = I.groebner()
    parent = {}

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for g in rgb:
        sup = g.support()
        for i in sup:
            parent.setdefault(i, i)
        for i in sup[1:]:
            parent[find(sup[0])] = find(i)
    root = find(min(parent)) if parent else None
    first = {i for i in parent if find(i) == root}
    if len(first) == len(parent):
        return None
    parts = (tuple(sorted(first)),
             tuple(i for i in range(I.ring.arity) if i not in first))
    gens = ([], [])
    for g in rgb:
        gens[g.support()[0] not in first].append(g)
    rings = [Ring(I.ring.names[i] for i in part) for part in parts]
    return parts, tuple(Ideal.reduced(ring, [g.rename(ring) for g in gs])
                        for gs, ring in zip(gens, rings))


# The memo of certified nodes, shared by every call of the three
# certifiers, with or without a budget: the graphs of a census share the
# subproblems of one shape.  A node is stored, whatever its verdict, when
# no poll of its call's budget has read "spent" (see ``certify_node``).
# Each certifier keys its nodes its own way, and keys of different
# certifiers never compare equal: the search's have three entries, and the
# bipartite certifier's and the E/F walk's have four, ending in a tuple and
# in "ef" (see ``certify_node``).
_MEMO: dict = {}
_MEMO_SIZE = 4096


def is_gvd(I: Ideal, context: Optional[Graph] = None,
           budget: Optional[Budget] = None) -> GvdCertificate:
    """Certify, refute, or give up on geometric vertex decomposability.

    ``context`` is an optional graph whose toric structure powers the
    unmixedness evidence (pass the graph when I is a toric ideal of it);
    every edge of it must be a variable of I's ring, or ``ValueError`` is
    raised.  ``budget`` bounds wall-clock time, with exhaustion reported
    as an inconclusive verdict.  Every call, with a budget or without,
    reads and fills the memo ``_MEMO`` of certified nodes.  A node is
    stored only while no poll of ``budget`` has read "spent", so a stored
    node is the one a call with no budget builds (see ``certify_node``).
    The memo keys a node by its reduced basis by ring position and,
    unless that basis is one polynomial or all monomials, its context's
    edge positions and kernel lattice (``_node_key``).

    A node whose unmixedness is refuted, or which the evidence proves not
    radical, is a "not-gvd" leaf.  A decomposable ideal is radical: base
    cases are; C and N radical make C ∩ (N + <y>) = in_y(I) radical, and a
    radical in_y(I) under the y-compatible order forces I to be radical;
    absent variables and disjoint unions over Q keep radicality (see the
    module docstring for the details).
    """
    if not _in_ring(I, context):
        raise ValueError("the context has an edge outside the ring of I")
    return GvdCertificate(_certify(I, context, budget or Budget(None)),
                          I.ring.names)


def certify_node(I: Ideal, budget: Budget, key, certify) -> GvdNode:
    """The entry of every certifier's node, which returns I's node:
    "budget exhausted" once ``budget`` is spent, else the base case if I is
    one, else the node ``_MEMO`` stores under ``key()``, returned as it is
    (a node holds its variables by ring position, so it serves I's ring),
    else ``certify()``.  A fresh node is stored unless a poll of ``budget``
    has read "spent" (``Budget.spent``), with the oldest entry dropped past
    ``_MEMO_SIZE``.

    Why a budgeted call may read and fill the memo.  Polls stay spent once
    spent, so a node stored under this rule was built with every poll
    reading "not spent", from hits stored under the same rule: that is the
    build of a call with no budget.  So a hit answers a budgeted call as it
    would answer one with no budget.

    Why the E/F walk's key (``_node_key`` of I and its context, then
    "ef") gives the same node.  The walk's y is always the first variable
    of I's ring: the root's ring lists the edges in label order, and each
    step contracts away the next edge, position 0.  Its context, G without
    the edges placed so far, is G restricted to I's ring, as a search
    child's is.  So ``certify_step`` reads I through its reduced bases, y
    by position, and the context by edge positions and kernel lattice, and
    the argument of ``_context_key`` gives equal nodes for equal keys: the
    steps read equal data, and hand their branches equal keys, so by
    induction on the ring's arity the children are equal nodes too.
    """
    if budget.exceeded():
        return inconclusive("budget exhausted")
    base = base_node(I)
    if base is not None:
        return base
    k = key()
    hit = _MEMO.get(k)
    if hit is not None:
        return hit
    node = certify()
    if not budget.spent:
        if len(_MEMO) >= _MEMO_SIZE:
            del _MEMO[next(iter(_MEMO))]
        _MEMO[k] = node
    return node


def _certify(I: Ideal, context, budget: Budget) -> GvdNode:
    """The search's node entry, keyed by ``_node_key``."""
    return certify_node(I, budget, lambda: _node_key(I, context),
                        lambda: _search(I, I.groebner(), context, budget))


def _search(I: Ideal, rgb: tuple, context, budget: Budget) -> GvdNode:
    # When the generators split into groups with disjoint variable supports,
    # the ideal is the sum of the groups over a tensor product of subrings
    # and is decomposable exactly when every summand is (and then unmixedness
    # also follows from the factors, so none is computed here).  A single
    # refuted factor refutes the whole ideal.
    split = _disjoint_factors(I)
    if split is not None:
        parts, factors = split
        kids = []
        for part, factor in zip(parts, factors):
            kid = _certify(factor, _restrict_context(context, factor.ring.names),
                           budget)
            if kid.verdict == "not-gvd":
                side = "child_n" if kids else "child_c"
                return GvdNode(
                    "disjoint-union", "not-gvd", factors=parts,
                    reason="the factor on %s is not decomposable"
                           % ", ".join("{%d}" % i for i in part),
                    **{side: kid})
            kids.append(kid)
        if all(kid.verdict == "gvd" for kid in kids):
            return GvdNode(
                "disjoint-union", "gvd", factors=parts,
                child_c=kids[0], child_n=kids[1],
                reason="generators split over disjoint variables")
        return inconclusive("a disjoint factor was inconclusive")

    ev = unmixedness_evidence(I, context)
    leaf = _refutation(ev)
    if leaf is not None:
        return leaf

    # The ideal is decomposable exactly when its contraction away from an
    # absent variable is (see ``_replay_refutation``), so when a variable is
    # absent the loop makes one pass, at the first such variable: a
    # degenerate step whose one branch polls the budget.
    present = {i for g in rgb for i in g.support()}
    absent = [i for i in range(I.ring.arity) if i not in present][:1]
    failures = []
    stuck = []  # why each branch that ended without a conclusive failure did
    for i in absent or _variable_order(rgb, present):
        if not absent and budget.exceeded():
            stuck.append("{%d}: budget exhausted" % i)
            break
        split = cn_split(I, i)
        if not split.square_free_in_y:
            # By the square-free dichotomy (see CnSplit) the identity fails
            # here, and under every other y-compatible order at this variable.
            failures.append((i, "identity", None))
            continue
        child_ctx = _restrict_context(context, split.c_branch.ring.names)
        node_c = node = _certify(split.c_branch, child_ctx, budget)
        kind = "absent" if absent else "C"
        if node_c.verdict == "gvd" and not absent:
            kind, node = "N", _certify(split.n_branch, child_ctx, budget)
        if node.verdict == "gvd":
            return _decomposition(i, ev, split, node_c, node)
        if node.verdict == "not-gvd":
            failures.append((i, kind, node))
        elif absent:
            stuck.append("the contraction away from absent {%d} was inconclusive" % i)
        else:
            stuck.append("{%d}: a branch was inconclusive" % i)

    if stuck:
        # Replay rejects every inconclusive node, so the failures found so
        # far are not kept.
        return inconclusive("; ".join(stuck), unmixedness=ev)
    # The failures rule out every variable (an "absent" one does so alone),
    # each conclusively and whatever the order, and the ideal is none of the
    # base cases, so no decomposition exists no matter what the unmixedness
    # status is.
    return GvdNode("not-gvd", "not-gvd", unmixedness=ev, failures=tuple(failures))


# ---------------------------------------------------------------------------
# Certificate replay.

# The nodes every replay has verified, with their results, keyed by
# ``_node_key`` and the node; the oldest entry is dropped past
# ``_MEMO_SIZE``.  Separate from ``_MEMO``: replay never reads the certifiers'.
_VERIFIED: dict = {}


def replay_certificate(I: Ideal, cert: GvdCertificate,
                       context: Optional[Graph] = None) -> bool:
    """Re-verify a stored certificate without a search.

    Every fact a certificate states was computed, whoever chose its steps,
    and replay computes it again from what the node stores; nothing is
    taken on trust and no verdict is decided afresh.  A node that stores
    unmixedness evidence must store exactly the evidence
    ``unmixedness_evidence`` computes for its ideal and context, compared
    as JSON in the node's ring.  Then each node is checked by its kind:

    - a base case ("zero", "unit", "variables") is recomputed;
    - a "decomposition" needs conclusive evidence and the identity at y,
      checked literally by ``check_decomposition`` for C and N under
      ``y_order`` (proved from the generators of its two sides, with the
      comparison of their reduced bases as the exact fallback), and its
      degeneracy flag is read off the split by the certifiers' rule
      (``CnSplit.degenerate``, which holds since both children must replay
      as "gvd");
    - a "disjoint-union" must split the reduced basis over disjoint
      variables as its factors say.  The sum is decomposable exactly when
      every summand is, so a "gvd" union replays both children as "gvd",
      and a "not-gvd" one stores one child, which replays as "not-gvd"
      against its factor;
    - a "not-gvd" leaf (no failures, no children) needs evidence that
      refutes unmixedness or proves the ideal not radical;
    - any other "not-gvd" node is checked by ``_replay_refutation``.

    A child is accepted only with the verdict its parent's rule needs.  An
    "inconclusive" node replays False: it states nothing replay can check.
    Returns True when everything matches; a malformed node (an unknown
    variable or kind, a missing child, a union over an ideal with no
    variable) does not, and neither does a context with an edge outside
    I's ring, which ``is_gvd`` refuses.

    The search shares one node among every branch that reaches the same
    ideal and context by position, so a tree can hold a node many times,
    and the certificates of a census share nodes too.  Replay recurses
    through this function, one call per child (``_replay``), and checks
    each node against ``_VERIFIED``, the table of the nodes verified
    earlier in the process, keyed as the search keys its memo
    (``_node_key``) and by the node.  So each node is verified once per
    key, and its other occurrences, in whatever ring or certificate, reuse
    that result.

    A node's check reads names only through ring positions, as the search
    does (``_context_key``), and compares evidence as JSON whose components
    both sides sort by the same names, so its result is the same in every
    ring of its arity, and under every context with the same
    ``_context_key``.  The key keeps the context, since one node can occur
    under contexts with other lattices, and must be checked under each.
    Nothing in a check refers to the root or to the call, so a result
    holds for every certificate that holds the node.
    """
    if (not isinstance(cert, GvdCertificate)
            or not isinstance(cert.node, GvdNode)
            or tuple(cert.ring_names) != I.ring.names
            or not _in_ring(I, context)):
        return False
    key = _node_key(I, context) + (id(cert.node),)
    got = _VERIFIED.get(key)
    if got is None:
        # The node is stored with its result, so its id is not reused by
        # another node while the entry lives.
        got = (cert.node, _replay_node(I, cert.node, context))
        if len(_VERIFIED) >= _MEMO_SIZE:
            del _VERIFIED[next(iter(_VERIFIED))]
        _VERIFIED[key] = got
    return got[1]


def _replay(I: Ideal, node: GvdNode, context: Optional[Graph],
            verdict: str) -> bool:
    """Whether ``node``, a child, has ``verdict`` and replays against I
    under ``context``, through ``replay_certificate`` in I's ring.  The
    child passes that call's root checks: it is read in I's own names, and
    its context is restricted to I's ring (``_restrict_context``)."""
    return (isinstance(node, GvdNode) and node.verdict == verdict
            and replay_certificate(I, GvdCertificate(node, I.ring.names), context))


def _is_position(i, arity: int) -> bool:
    """Whether ``i`` is a position of a ring of this arity.  Positions are
    ints: a float or a bool equal to one would pass a range test, and index
    the ring's names only by accident or not at all."""
    return type(i) is int and 0 <= i < arity


def _replay_node(I: Ideal, node: GvdNode, context: Optional[Graph]) -> bool:
    names = I.ring.names
    if node.verdict not in ("gvd", "not-gvd"):
        return False
    ev = None
    if node.unmixedness is not None:
        # Stored evidence is a fact about I, so it must be the evidence
        # computed now (``_context_key`` proves it is a function of I's
        # reduced basis and context), read in I's ring.  Evidence naming a
        # position outside the ring is forged.
        ev = unmixedness_evidence(I, context)
        if not isinstance(node.unmixedness, UnmixednessEvidence):
            return False
        try:
            stored = node.unmixedness.to_json_dict(names)
        except IndexError:
            return False
        if stored != ev.to_json_dict(names):
            return False
    if node.kind == "disjoint-union":
        return _replay_factors(I, node, context)
    if node.verdict == "not-gvd":
        return _replay_refutation(I, node, context, ev)
    if node.kind in ("zero", "unit", "variables"):
        base = base_node(I)
        return (base is not None and base.kind == node.kind
                and set(base.variables) == set(node.variables)
                and all(type(i) is int for i in node.variables))
    if (node.kind != "decomposition" or ev is None or not ev.conclusive_unmixed
            or not _is_position(node.y, len(names))):
        return False
    split = cn_split(I, node.y)
    # The flag holds as the split reads it once both children replay as
    # "gvd", and the node is accepted only then.
    if not check_decomposition(I, split) or split.degenerate != node.degenerate:
        return False
    # When C is N (y is absent, see ``cn_split``) both branches are one
    # ideal, and a child shared by both has one key in ``_VERIFIED``.
    child_ctx = _restrict_context(context, split.c_branch.ring.names)
    return (_replay(split.c_branch, node.child_c, child_ctx, "gvd")
            and (split.C is split.N and node.child_n is node.child_c
                 or _replay(split.n_branch, node.child_n, child_ctx, "gvd")))


def _replay_factors(I: Ideal, node: GvdNode, context: Optional[Graph]) -> bool:
    """A disjoint union: the reduced basis splits over disjoint variables as
    the node's factors say, so I is the sum of the two factor ideals.  Each
    child of a "gvd" union replays as "gvd" against its factor; a "not-gvd"
    union stores the one refuted factor's child, which replays as
    "not-gvd"."""
    split = _disjoint_factors(I)
    if (split is None or split[0] != node.factors
            or not all(type(i) is int for part in node.factors for i in part)):
        return False
    kids = [(factor, kid) for factor, kid in zip(split[1], (node.child_c, node.child_n))
            if kid is not None or node.verdict == "gvd"]
    if node.verdict == "not-gvd" and len(kids) != 1:
        return False
    return all(_replay(factor, kid, _restrict_context(context, factor.ring.names),
                       node.verdict)
               for factor, kid in kids)


def _replay_refutation(I: Ideal, node: GvdNode, context: Optional[Graph],
                       ev: Optional[UnmixednessEvidence]) -> bool:
    """A "not-gvd" node of kind "not-gvd": a leaf whose evidence refutes,
    or a node whose failures rule out every variable.

    By definition (Klein–Rajchgot) an ideal that is not a base case is
    decomposable only through a step at some variable y whose identity
    holds and whose contracted branches are decomposable.  So I, which must
    not be a base case, is refuted by one failure per ring variable:

    - "identity": the split is not square-free in y, so the identity fails
      under every y-compatible order (the dichotomy in ``CnSplit``);
    - "C" or "N": the split is square-free, and the child replays as
      "not-gvd" against that contracted branch.  Where the identity holds,
      N + y·C = in_y(I) fixes N as its y-free part and C as its quotient
      by y, so no y-compatible order gives other branches.

    The only other shape is one "absent" failure at a variable y absent
    from the reduced basis, whose child replays as "not-gvd" against the
    contraction J of I.  I is decomposable exactly when J is.  A
    variable absent from the reduced basis is absent from every reduced
    basis (``groebner.contract``), so I is J extended by y, and every
    reduced basis of I is one of J.  (⇐) The step at y holds and is
    degenerate with C = N = I (see ``CnSplit``), and both branches are J.
    (⇒) Induct on the number of variables.  I is unmixed, so J is, since
    the extension keeps the associated primes and adds 1 to each dimension.
    If I is a base case, J has the same reduced basis and is one.  A step
    of I at y has the branches J.  A step at z ≠ y is read off a reduced
    basis of I, which is one of J, so J's split at z has the same
    generators and the same identity, and I's branches are J's branches
    extended by y; they are decomposable, so by induction J's are.
    """
    names = I.ring.names
    failures = node.failures
    if node.kind != "not-gvd" or node.child_c is not None or node.child_n is not None:
        return False
    if not failures:
        return ev is not None and _refutation(ev) is not None
    if (base_node(I) is not None
            or not all(isinstance(f, tuple) and len(f) == 3 for f in failures)):
        return False
    if len(failures) == 1 and failures[0][1] == "absent":
        i, _, child = failures[0]
        if not _is_position(i, len(names)):
            return False
        split = cn_split(I, i)
        return split.C is split.N and _replay(
            split.n_branch, child, _restrict_context(context, split.n_branch.ring.names),
            "not-gvd")
    if (len(failures) != len(names)
            or not all(_is_position(f[0], len(names)) for f in failures)
            or {f[0] for f in failures} != set(range(len(names)))):
        return False
    for i, kind, child in failures:
        split = cn_split(I, i)
        if kind == "identity":
            ok = child is None and not split.square_free_in_y
        elif kind in ("C", "N") and split.square_free_in_y:
            branch = split.c_branch if kind == "C" else split.n_branch
            ok = _replay(branch, child, _restrict_context(context, branch.ring.names),
                         "not-gvd")
        else:
            ok = False
        if not ok:
            return False
    return True
