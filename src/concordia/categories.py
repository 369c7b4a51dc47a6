"""Finite categories with subobjects.

Ideal categories L(S) and R(S) of a semigroup, morphism classification,
consistent and normal factorisations, the consistent-category axioms and the
normal subcategory.  Composition reads left to right: compose(f, g) is
"f then g".  R(S) is realised as L(S.op()) so every lemma applies verbatim.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from .semigroups import (
    LEFT,
    RIGHT,
    FiniteSemigroup,
    NotAbundant,
    green_classes,
    idempotents,
    is_abundant,
    starred_relation,
)


class CategoryError(Exception):
    pass


class MorphismNotInCategory(CategoryError):
    pass


class NotBimorphism(CategoryError):
    pass


class AxiomFailure(CategoryError):
    """Internal-consistency alarm: a theorem-backed closure property failed."""


@dataclass(frozen=True)
class MorphismTriple:
    """Canonical rho(e,u,f) / lambda(e,u,f) representative.

    For side LEFT, e and f are the minimum idempotents of their L-classes and
    u = e*u*f; rho(e,u,f) = rho(g,v,h) iff e L g, f L h and v = gu.  Side
    RIGHT is the same data over the opposite semigroup.
    """

    e: int
    u: int
    f: int
    side: str = LEFT


@dataclass(frozen=True)
class MorphismFlags:
    mono: bool
    epi: bool
    bimorphism: bool
    isomorphism: bool
    inclusion: bool
    retraction: bool
    inverse: Optional[int] = None


@dataclass(frozen=True)
class Factorisation:
    """q * u * j = the factored morphism; q retraction, j inclusion."""

    q: int
    u: int
    j: int
    kind: str  # "consistent" | "normal"
    epi_component: int
    image: int


@dataclass
class SubobjectCategory:
    n_objects: int
    leq: frozenset  # reflexive pairs (a, b) meaning a is a subobject of b
    dom: tuple
    cod: tuple
    homs: dict  # (a, b) -> tuple of morphism ids
    # rows[m1]: the composites m1 m2 for m2 in outgoing(cod m1), in that
    # order, as a tuple; the one stored form of composition
    rows: tuple
    identities: tuple
    inclusions: dict  # (a, b) in leq -> morphism id
    semigroup: Optional[FiniteSemigroup] = None
    side: Optional[str] = None
    object_idem: Optional[tuple] = None  # canonical idempotent per object
    triples: Optional[tuple] = None  # per morphism id: (e, u, f) over the base
    triple_index: Optional[dict] = None  # (a, b, u) -> morphism id
    # memos, derived from the fields above; init=False keeps
    # dataclasses.replace from carrying them into a changed category
    _flags: dict = field(default_factory=dict, init=False, repr=False)
    _cf: dict = field(default_factory=dict, init=False, repr=False)
    _nf: dict = field(default_factory=dict, init=False, repr=False)
    _object_of: Optional[tuple] = field(default=None, init=False, repr=False)
    _outgoing: Optional[dict] = field(default=None, init=False, repr=False)
    _pos: Optional[tuple] = field(default=None, init=False, repr=False)
    _incoming: Optional[dict] = field(default=None, init=False, repr=False)
    _generators: Optional[tuple] = field(default=None, init=False, repr=False)
    _cor: dict = field(default_factory=dict, init=False, repr=False)
    _idempotent_cones: Optional[tuple] = field(default=None, init=False, repr=False)

    @property
    def n_morphisms(self) -> int:
        return len(self.dom)

    @property
    def objects(self) -> range:
        return range(self.n_objects)

    @property
    def morphisms(self) -> range:
        return range(len(self.dom))

    def hom(self, a: int, b: int) -> tuple:
        return self.homs.get((a, b), ())

    def outgoing(self, a: int) -> tuple:
        """The morphism ids with domain a, in increasing order."""
        if self._outgoing is None:
            out: dict = {}
            pos = []
            for m, d in enumerate(self.dom):
                ms = out.setdefault(d, [])
                pos.append(len(ms))
                ms.append(m)
            self._outgoing = {d: tuple(ms) for d, ms in out.items()}
            self._pos = tuple(pos)
        return self._outgoing.get(a, ())

    @property
    def pos(self) -> tuple:
        """pos[m]: the index of m in outgoing(dom m); m1 m2 is rows[m1][pos[m2]]."""
        if self._pos is None:
            self.outgoing(0)
        return self._pos

    @property
    def object_of(self) -> tuple:
        """object_of[x]: the object whose idempotent is L-related to the base
        element x, or None; built once from the L-classes of the base."""
        if self._object_of is None:
            part = green_classes(self.semigroup).l.partition
            by_class = {part[e]: a for a, e in enumerate(self.object_idem)}
            self._object_of = tuple(map(by_class.get, part))
        return self._object_of

    def incoming(self, b: int) -> tuple:
        """The morphism ids with codomain b, in increasing order."""
        if self._incoming is None:
            into: dict = {}
            for m, d in enumerate(self.cod):
                into.setdefault(d, []).append(m)
            self._incoming = {d: tuple(ms) for d, ms in into.items()}
        return self._incoming.get(b, ())

    def generators(self) -> tuple:
        """A generating set for composition, in increasing order: the
        identities, then, walking the morphisms in id order, each one that is
        not a composite of those kept before it.

        Every morphism is a composite of generators, so a law of the form
        F(x y) = F(x) F(y) that holds for every generator x and every y
        holds for all x (Light's test, Clifford & Preston I, 1.2): for
        x = g w, F(x y) = F(g) F(w y) = F(g) F(w) F(y) = F(x) F(y) by
        induction on the length of w.  That uses (g w) y = g (w y), which
        holds in an ideal category because its composition is the product
        of a validated semigroup table, and which CC1 checks for any
        category.  On L(T3 x C2) this keeps 91 of 640 morphisms."""
        if self._generators is None:
            closure = _CompositionClosure(self)
            gens = list(self.identities)
            for m in gens:
                closure.add(m)
            for m in self.morphisms:
                if m not in closure.closed:
                    gens.append(m)
                    closure.add(m)
            self._generators = tuple(sorted(gens))
        return self._generators

    def compose(self, m1: int, m2: int) -> int:
        pos = self._pos or self.pos
        try:
            if m1 >= 0 and m2 >= 0 and self.cod[m1] == self.dom[m2]:
                return self.rows[m1][pos[m2]]
        except IndexError:
            pass
        raise MorphismNotInCategory(f"morphisms {m1} and {m2} are not composable")

    @property
    def compose_table(self) -> dict:
        """(m1, m2) -> m1 m2, built from the rows on each access."""
        return {(m1, m2): m3 for m1, row in enumerate(self.rows)
                for m2, m3 in zip(self.outgoing(self.cod[m1]), row)}

    def compose_many(self, *ms: int) -> int:
        out = ms[0]
        for m in ms[1:]:
            out = self.compose(out, m)
        return out

    def is_inclusion(self, m: int) -> bool:
        return self.inclusions.get((self.dom[m], self.cod[m])) == m

    def subobjects_of(self, c: int) -> tuple:
        return tuple(a for a in self.objects if (a, c) in self.leq)

    def label(self, m: int) -> str:
        if self.triples is not None:
            e, u, f = self.triples[m]
            sym = "rho" if self.side != RIGHT else "lam"
            base = self.semigroup
            return f"{sym}({base.name(e)},{base.name(u)},{base.name(f)})"
        return f"m{m}"

    def object_label(self, a: int) -> str:
        if self.object_idem is not None:
            e = self.object_idem[a]
            name = self.semigroup.name(e)
            return f"S.{name}" if self.side != RIGHT else f"{name}.S"
        return f"c{a}"


def build_ideal_category(s: FiniteSemigroup, side: str = LEFT) -> SubobjectCategory:
    """The category of principal left (right) ideals generated by idempotents.

    Objects are L-classes of idempotents ordered by Se <= Sf iff ef = e;
    hom(Se, Sf) = {rho(e,u,f) : u in eSf} with rho(e,u,f) rho(f,v,h) =
    rho(e,uv,h).  Side RIGHT works over the opposite semigroup, which turns
    rho-triples into the lambda-triples of R(S).
    """
    base = s.op() if side == RIGHT else s
    es = idempotents(base)
    if not es:
        raise CategoryError("semigroup has no idempotents; no ideal category")
    l = green_classes(base).l
    reps_by_class: dict[int, int] = {}
    for e in es:
        c = l.partition[e]
        reps_by_class[c] = min(reps_by_class.get(c, e), e)
    reps = sorted(reps_by_class.values())
    n_obj = len(reps)
    mul = base.mul

    leq = frozenset((a, b) for a in range(n_obj) for b in range(n_obj)
                    if mul(reps[a], reps[b]) == reps[a])

    dom, cod, triples = [], [], []
    homs: dict = {}
    triple_index: dict = {}
    for a in range(n_obj):
        e = reps[a]
        for b in range(n_obj):
            f = reps[b]
            us = [u for u in base.elements if mul(mul(e, u), f) == u]
            ids = []
            for u in us:
                m = len(dom)
                dom.append(a)
                cod.append(b)
                triples.append((e, u, f))
                triple_index[(a, b, u)] = m
                ids.append(m)
            homs[(a, b)] = tuple(ids)

    rows = []
    for m1 in range(len(dom)):
        a, b = dom[m1], cod[m1]
        u = triples[m1][1]
        rows.append(tuple(triple_index[(a, c, mul(u, triples[m2][1]))]
                          for c in range(n_obj) for m2 in homs[(b, c)]))

    identities = tuple(triple_index[(a, a, reps[a])] for a in range(n_obj))
    inclusions = {(a, b): triple_index[(a, b, reps[a])] for (a, b) in leq}

    return SubobjectCategory(
        n_objects=n_obj, leq=leq, dom=tuple(dom), cod=tuple(cod), homs=homs,
        rows=tuple(rows), identities=identities, inclusions=inclusions,
        semigroup=base, side=side, object_idem=tuple(reps),
        triples=tuple(triples), triple_index=triple_index)


def morphism_triple(c: SubobjectCategory, m: int) -> MorphismTriple:
    """The canonical triple of a morphism in a semigroup-backed category."""
    if c.triples is None:
        raise MorphismNotInCategory("category has no triple payload")
    e, u, f = c.triples[m]
    return MorphismTriple(e, u, f, c.side or LEFT)


def locate_triple(c: SubobjectCategory, e: int, u: int, f: int) -> Optional[int]:
    """Morphism id of rho(e,u,f) for arbitrary idempotent representatives,
    or None; the objects of e and f are read from `c.object_of`."""
    a, b = c.object_of[e], c.object_of[f]
    if a is None or b is None:
        return None
    return c.triple_index.get((a, b, c.semigroup.mul(c.object_idem[a], u)))


def object_of_idempotent(c: SubobjectCategory, e: int) -> int:
    """The object (ideal) generated by the idempotent e of the base semigroup."""
    a = c.object_of[e]
    if a is None:
        raise MorphismNotInCategory(f"{e} is not an idempotent of the base semigroup")
    return a


def from_parts(n_objects, leq_pairs, morphisms, rows) -> SubobjectCategory:
    """Assemble an abstract category from JSON-style parts.

    morphisms: list of (dom, cod, inclusion_flag); rows as the field of
    that name, a row of the wrong length refused.  Identities are derived,
    inclusion uniqueness enforced.
    """
    leq = frozenset(tuple(p) for p in leq_pairs) | frozenset((a, a) for a in range(n_objects))
    dom = tuple(m[0] for m in morphisms)
    cod = tuple(m[1] for m in morphisms)
    homs: dict = {}
    for m in range(len(dom)):
        homs.setdefault((dom[m], cod[m]), []).append(m)
    homs = {k: tuple(v) for k, v in homs.items()}
    c = SubobjectCategory(
        n_objects=n_objects, leq=leq, dom=dom, cod=cod, homs=homs,
        rows=tuple(map(tuple, rows)), identities=(), inclusions={})
    if len(c.rows) != len(dom):
        raise CategoryError(f"compose has {len(c.rows)} rows for {len(dom)} morphisms")
    for m1, row in enumerate(c.rows):
        if len(row) != len(c.outgoing(cod[m1])):
            raise CategoryError(f"compose rows: row {m1} must list "
                                f"{len(c.outgoing(cod[m1]))} composites")

    identities = []
    for a in range(n_objects):
        cands = [i for i in homs.get((a, a), ())
                 if c.rows[i] == c.outgoing(a)
                 and all(c.rows[x][c.pos[i]] == x for x in c.incoming(a))]
        if len(cands) != 1:
            raise CategoryError(f"object {a} must have exactly one identity, found {cands}")
        identities.append(cands[0])

    inclusions = {}
    for m, spec in enumerate(morphisms):
        if len(spec) > 2 and spec[2]:
            key = (dom[m], cod[m])
            if key in inclusions:
                raise CategoryError(f"duplicate inclusion for {key}")
            inclusions[key] = m
    for a in range(n_objects):
        inclusions.setdefault((a, a), identities[a])
    for (a, b) in leq:
        if (a, b) not in inclusions:
            raise CategoryError(f"comparable pair {(a, b)} lacks an inclusion")
    for key in inclusions:
        if key not in leq:
            raise CategoryError(f"inclusion on incomparable pair {key}")
    c.identities, c.inclusions = tuple(identities), inclusions
    return c


def validate_category(c: SubobjectCategory) -> None:
    """Category + subobject axioms; raises CategoryError on the first failure.

    Associativity is certified by Light's test (Clifford & Preston I, 1.2):
    (m1 g) m3 = m1 (g m3) is checked only for g in `generators()`, with m1
    into dom g and m3 out of cod g.  That is exact with no appeal to a
    semigroup.  Let T be the set of b with x(by) = (xb)y for all composable
    x and y.  T is closed under composition:
    x((ab)y) = x(a(by)) = (xa)(by) = ((xa)b)y = (x(ab))y.  The generators
    are closed under composition on both sides by `_CompositionClosure`, so
    every morphism is a composite of generators under some bracketing, and
    T holds every morphism.  On L(T3 x C2) that is 91 middle factors of 640.

    `generators()` composes through the rows, so the test runs after the
    endpoint check; every row is complete and aligned, so every composable
    pair has a composite.  When Light's test fails, the composable triples
    m1 -> m2 -> m3 are walked in the lexicographic order of an all-triples
    scan, so the first witness is the one that scan would report.
    """
    dom, cod = c.dom, c.cod
    for m1, row in enumerate(c.rows):
        for m2, m3 in zip(c.outgoing(cod[m1]), row):
            if dom[m3] != dom[m1] or cod[m3] != cod[m2]:
                raise CategoryError(f"compose({m1},{m2}) has wrong endpoints")
    if not _light_associative(c):
        _walk_composable_triples(c)
        raise AssertionError("Light's test failed but the triple walk passed")
    for a in c.objects:
        i = c.identities[a]
        if c.dom[i] != a or c.cod[i] != a:
            raise CategoryError(f"identity of {a} has wrong endpoints")
    # leq is a partial order; above[b] lists the d with b <= d in the
    # iteration order of leq, so each loop over it visits the pairs (b, d)
    # that a scan of all of leq would, in the same order
    above: dict = {}
    for (b, d) in c.leq:
        above.setdefault(b, []).append(d)
    for (a, b) in c.leq:
        if (b, a) in c.leq and a != b:
            raise CategoryError(f"leq not antisymmetric on {(a, b)}")
        for d in above.get(b, ()):
            if (a, d) not in c.leq:
                raise CategoryError(f"leq not transitive via {(a, b, d)}")
    # inclusions: one per comparable pair, composing along the order
    for (a, b), j in c.inclusions.items():
        if (a, b) not in c.leq or c.dom[j] != a or c.cod[j] != b:
            raise CategoryError(f"bad inclusion for {(a, b)}")
        if not morphism_flags(c, j).mono:
            raise CategoryError(f"inclusion {j} is not a monomorphism")
    for (a, b) in c.leq:
        for d in above.get(b, ()):
            lhs = c.compose(c.inclusions[(a, b)], c.inclusions[(b, d)])
            if lhs != c.inclusions[(a, d)]:
                raise CategoryError(f"inclusions do not compose along {(a, b, d)}")
    # left division: j = h . j' with j, j' inclusions forces h an inclusion
    for (a, cc), j in c.inclusions.items():
        for (b, c2), j2 in c.inclusions.items():
            if c2 != cc:
                continue
            for h in c.hom(a, b):
                if c.compose(h, j2) == j and not c.is_inclusion(h):
                    raise CategoryError(
                        f"left division fails: {c.label(h)} divides inclusions but is not one")


def _light_associative(c: SubobjectCategory) -> bool:
    """(m1 g) m3 == m1 (g m3) for every generator g, m1 into dom g and m3
    out of cod g, one whole row of m3 at a time: the row of m1 g against
    the row of m1 read at the positions of the g m3."""
    rows, pos = c.rows, c.pos
    for g in c.generators():
        at = [pos[gm3] for gm3 in rows[g]]  # where m1 (g m3) sits in row m1
        pg = pos[g]
        for m1 in c.incoming(c.dom[g]):
            row1 = rows[m1]
            if rows[row1[pg]] != tuple(map(row1.__getitem__, at)):
                return False
    return True


def _walk_composable_triples(c: SubobjectCategory) -> None:
    """Raise the first associativity failure over the composable triples
    m1 -> m2 -> m3, in the order of an all-triples scan."""
    rows, pos = c.rows, c.pos
    for m1 in c.morphisms:
        row1 = rows[m1]
        for m2, m12 in zip(c.outgoing(c.cod[m1]), row1):
            # (m1 m2) m3 against m1 (m2 m3) for every m3 at once
            row12, row2 = rows[m12], rows[m2]
            if row12 == tuple(row1[pos[m23]] for m23 in row2):
                continue
            for m3, m123, m23 in zip(c.outgoing(c.cod[m2]), row12, row2):
                if m123 != row1[pos[m23]]:
                    raise CategoryError(f"associativity fails at ({m1},{m2},{m3})")


def _literal_mono(c: SubobjectCategory, m: int) -> bool:
    a = c.dom[m]
    for p in c.objects:
        seen = {}
        for x in c.hom(p, a):
            y = c.compose(x, m)
            if seen.setdefault(y, x) != x:
                return False
    return True


def _literal_epi(c: SubobjectCategory, m: int) -> bool:
    b = c.cod[m]
    for p in c.objects:
        seen = {}
        for x in c.hom(b, p):
            y = c.compose(m, x)
            if seen.setdefault(y, x) != x:
                return False
    return True


def morphism_flags(c: SubobjectCategory, m: int) -> MorphismFlags:
    """Mono/epi by cancellability, iso by hom-table inverse search, plus
    inclusion and retraction flags.

    For categories built from a concordant semigroup, Lemma-style starred
    criteria (mono iff e R* u, epi iff u L* f) are cross-checked against the
    literal flags; the stated bimorphism shortcut "e L* u R* f" conflicts with
    the mono+epi parts, so bimorphism is defined as mono and epi.
    """
    if m in c._flags:
        return c._flags[m]
    if not 0 <= m < c.n_morphisms:
        raise MorphismNotInCategory(str(m))
    mono = _literal_mono(c, m)
    epi = _literal_epi(c, m)
    if c.semigroup is not None:
        from .semigroups import is_concordant
        if is_concordant(c.semigroup).concordant:
            e, u, f = c.triples[m]
            rstar = starred_relation(c.semigroup, RIGHT)
            lstar = starred_relation(c.semigroup, LEFT)
            if rstar.same(e, u) != mono or lstar.same(u, f) != epi:
                raise AxiomFailure(
                    f"starred criteria disagree with cancellability at {c.label(m)}")
    inverse = None
    for g in c.hom(c.cod[m], c.dom[m]):
        if (c.compose(m, g) == c.identities[c.dom[m]]
                and c.compose(g, m) == c.identities[c.cod[m]]):
            inverse = g
            break
    a, b = c.dom[m], c.cod[m]
    retraction = (b, a) in c.leq and c.compose(c.inclusions[(b, a)], m) == c.identities[b]
    flags = MorphismFlags(
        mono=mono, epi=epi, bimorphism=mono and epi,
        isomorphism=inverse is not None, inclusion=c.is_inclusion(m),
        retraction=retraction, inverse=inverse)
    c._flags[m] = flags
    return flags


def _search_factorisation(c, m, middle_ok: Callable[[int], bool]) -> Optional[tuple]:
    a, b = c.dom[m], c.cod[m]
    for q in c.outgoing(a):
        if not morphism_flags(c, q).retraction:
            continue
        mid_dom = c.cod[q]
        for (b2, cc), j in sorted(c.inclusions.items()):
            if cc != b:
                continue
            for u in c.hom(mid_dom, b2):
                if middle_ok(u) and c.compose_many(q, u, j) == m:
                    return q, u, j
    return None


def consistent_factorisation(c: SubobjectCategory, m: int) -> Optional[Factorisation]:
    """retraction * bimorphism * inclusion decomposition of m.

    Uses the starred-witness construction when the category comes from a
    semigroup (g = u'e with u' = is_abundant(S).dagger[u], and dually with
    .star), otherwise an exhaustive search.  Raises NotAbundant when the
    semigroup route finds no starred idempotent witness and no search result
    exists; returns None for abstract categories without a decomposition.
    Memoised on the category, None included; a NotAbundant is not memoised.
    """
    if m in c._cf:
        return c._cf[m]
    out = _consistent_factorisation_uncached(c, m)
    c._cf[m] = out
    return out


def _consistent_factorisation_uncached(c, m):
    parts = None
    semigroup_witness_missing = False
    if c.semigroup is not None:
        parts = _semigroup_consistent_parts(c, m)
        if parts is None:
            semigroup_witness_missing = True
    if parts is None:
        parts = _search_factorisation(c, m, lambda u: morphism_flags(c, u).bimorphism)
    if parts is None:
        if semigroup_witness_missing:
            raise NotAbundant(
                f"no starred idempotent witness for {c.label(m)} and no decomposition found")
        return None
    q, u, j = parts
    assert c.compose_many(q, u, j) == m
    return Factorisation(q, u, j, "consistent", c.compose(q, u), c.cod[u])


def _semigroup_consistent_parts(c: SubobjectCategory, m: int) -> Optional[tuple]:
    s = c.semigroup
    e, u, f = c.triples[m]
    ab = is_abundant(s)
    if ab.dagger[u] is None or ab.star[u] is None:
        return None
    g = s.mul(ab.dagger[u], e)
    h = s.mul(f, ab.star[u])
    q = locate_triple(c, e, g, g)
    mid = locate_triple(c, g, u, h)
    j = locate_triple(c, h, h, f)
    if q is None or mid is None or j is None:
        return None  # restricted category: fall back to search
    if not morphism_flags(c, mid).bimorphism or not morphism_flags(c, q).retraction:
        return None
    if not c.is_inclusion(j) or c.compose_many(q, mid, j) != m:
        return None
    return q, mid, j


def epi_component(c: SubobjectCategory, m: int) -> int:
    """The epimorphic component m° of the consistent factorisation of m, read
    from the memo of `consistent_factorisation`."""
    fact = consistent_factorisation(c, m)
    if fact is None:
        raise NotAbundant(f"{c.label(m)} has no consistent factorisation")
    return fact.epi_component


def normal_factorisation(c: SubobjectCategory, m: int) -> Optional[Factorisation]:
    """retraction * isomorphism * inclusion decomposition, or None.

    Tries the consistent factorisation first (its middle part may already be
    an isomorphism); for a semigroup-backed inclusion-then-retraction
    composite rho(e,eg,g) applies the sandwich construction
    rho(e,eh,eh) rho(eh,eg,hg) rho(hg,hg,g) with h in S(e,g); otherwise an
    exhaustive search.  None is a value, not an error.
    """
    if m in c._nf:
        return c._nf[m]
    out = _normal_factorisation_uncached(c, m)
    c._nf[m] = out
    return out


def _normal_factorisation_uncached(c, m):
    try:
        fact = consistent_factorisation(c, m)
    except NotAbundant:
        fact = None
    if fact is not None and morphism_flags(c, fact.u).isomorphism:
        return Factorisation(fact.q, fact.u, fact.j, "normal",
                             fact.epi_component, fact.image)
    parts = _sandwich_parts(c, m) if c.semigroup is not None else None
    if parts is None:
        parts = _search_factorisation(c, m, lambda u: morphism_flags(c, u).isomorphism)
    if parts is None:
        return None
    q, mid, j = parts
    return Factorisation(q, mid, j, "normal", c.compose(q, mid), c.cod[mid])


def _sandwich_parts(c: SubobjectCategory, m: int) -> Optional[tuple]:
    from .semigroups import biorder
    s = c.semigroup
    e, u, g_rep = c.triples[m]
    bo = biorder(s)
    for g in bo.idempotents:
        if c.object_of[g] != c.object_of[g_rep] or s.mul(e, g) != u:
            continue
        upper = [f for f in bo.idempotents
                 if s.mul(e, f) == e and s.mul(g, f) == g and s.mul(f, g) == g]
        if not upper:
            continue
        hs = bo.sandwich.get((e, g), ())
        for h in hs:
            eh, eg, hg = s.mul(e, h), s.mul(e, g), s.mul(h, g)
            q = locate_triple(c, e, eh, eh)
            mid = locate_triple(c, eh, eg, hg)
            j = locate_triple(c, hg, hg, g)
            if q is None or mid is None or j is None:
                continue
            if (morphism_flags(c, q).retraction and morphism_flags(c, mid).isomorphism
                    and c.is_inclusion(j) and c.compose_many(q, mid, j) == m):
                return q, mid, j
    return None


def _cor_ideal_morphisms(c: SubobjectCategory, top: int) -> tuple:
    """Morphisms of <top>: composites of inclusions and retractions among the
    subobjects of top.  Memoised on the category."""
    if top not in c._cor:
        c._cor[top] = _cor_ideal_closure(c, top)
    return c._cor[top]


def _cor_ideal_closure(c: SubobjectCategory, top: int) -> tuple:
    """The closure of the inclusions and retractions among the subobjects
    of top, each added in increasing order."""
    subs = c.subobjects_of(top)
    seeds = {j for (a, b), j in c.inclusions.items() if a in subs and b in subs}
    # a retraction a -> b has b <= a
    seeds.update(m for a in subs for b in subs if (b, a) in c.leq
                 for m in c.hom(a, b) if morphism_flags(c, m).retraction)
    closure = _CompositionClosure(c)
    for m in sorted(seeds):
        closure.add(m)
    return tuple(sorted(closure.closed))


class _CompositionClosure:
    """A set of morphisms kept closed under composition as morphisms are
    added: each morphism, as it joins the set, is composed on both sides
    with every composable morphism already in it."""

    def __init__(self, c: SubobjectCategory):
        self.c = c
        self.closed: set = set()
        self._out_of: dict = {}
        self._into: dict = {}

    def add(self, m: int) -> None:
        c, frontier = self.c, [m]
        while frontier:
            m1 = frontier.pop()
            if m1 in self.closed:
                continue
            self.closed.add(m1)
            self._out_of.setdefault(c.dom[m1], []).append(m1)
            self._into.setdefault(c.cod[m1], []).append(m1)
            frontier += [c.compose(m1, m2) for m2 in self._out_of.get(c.cod[m1], ())]
            frontier += [c.compose(m2, m1) for m2 in self._into.get(c.dom[m1], ())]


@dataclass(frozen=True)
class ConsistencyExtension:
    object_map: dict
    morphism_map: dict


def is_consistent_bimorphism(c: SubobjectCategory, m: int):
    """Whether the bimorphism m: c0 -> d0 extends along T^u to an isomorphism
    T: <c0> -> <d0> whose naturality squares against the forced components
    xi(c') = (j u)° all commute.

    The components are forced by xi(c0) = m and epi-cancellation, so T is
    unique whenever it exists; returns (bool, ConsistencyExtension or None).

    Assumes CC1.  T(g), for g: a -> b in <c0>, is the unique h in
    hom(t(a), t(b)) within <d0> with xi[a] h = g xi[b].  That makes T a
    functor with no further check.  For g1: a -> b and g2: b -> c in <c0>,
    with h1 = T(g1) and h2 = T(g2), associativity gives
    xi[a] (h1 h2) = (g1 xi[b]) h2 = g1 (xi[b] h2) = g1 (g2 xi[c])
    = (g1 g2) xi[c].  Both <c0> and <d0> are closed under composition, so
    g1 g2 has an image and h1 h2 is a candidate for it; uniqueness forces
    T(g1 g2) = h1 h2.
    """
    flags = morphism_flags(c, m)
    if not flags.bimorphism:
        raise NotBimorphism(c.label(m))
    c0, d0 = c.dom[m], c.cod[m]
    sub_c = c.subobjects_of(c0)
    sub_d = set(c.subobjects_of(d0))
    t_obj = {}
    xi = {}
    for a in sub_c:
        ju = c.compose(c.inclusions[(a, c0)], m)
        try:
            comp = epi_component(c, ju)
        except NotAbundant:
            return False, None
        xi[a] = comp
        t_obj[a] = c.cod[comp]
    if set(t_obj.values()) != sub_d or len(set(t_obj.values())) != len(sub_c):
        return False, None
    mor_c = _cor_ideal_morphisms(c, c0)
    mor_d = set(_cor_ideal_morphisms(c, d0))
    # per (a, b): xi[a] h -> the h in hom(t(a), t(b)) and <d0>, in hom order
    by_xi: dict = {}
    t_mor = {}
    for g in mor_c:
        a, b = c.dom[g], c.cod[g]
        if (a, b) not in by_xi:
            index: dict = {}
            for h in c.hom(t_obj[a], t_obj[b]):
                if h in mor_d:
                    index.setdefault(c.compose(xi[a], h), []).append(h)
            by_xi[(a, b)] = index
        found = by_xi[(a, b)].get(c.compose(g, xi[b]), ())
        if len(found) != 1:
            return False, None
        t_mor[g] = found[0]
    if len(set(t_mor.values())) != len(mor_c) or set(t_mor.values()) != mor_d:
        return False, None
    # functorial by uniqueness (docstring); agreement with T^u on inclusions
    for (a, b), j in c.inclusions.items():
        if a in t_obj and b in t_obj and j in t_mor:
            if t_mor[j] != c.inclusions[(t_obj[a], t_obj[b])]:
                return False, None
    return True, ConsistencyExtension(t_obj, t_mor)


@dataclass
class AxiomReport:
    axioms: dict
    witnesses: dict

    @property
    def ok(self) -> bool:
        return all(self.axioms.values())

    def lines(self) -> list:
        return [f"{name}: {'pass' if v else 'FAIL'}"
                + (f"  [{self.witnesses[name]}]" if name in self.witnesses else "")
                for name, v in self.axioms.items()]

    def record(self, name: str, check: Callable[[], Optional[str]]) -> None:
        """Run one axiom's check, which returns None when the axiom holds and
        its witness text when it fails, and record the verdict under name.  A
        `MorphismNotInCategory` the check raises (two morphisms of a corrupted
        table that do not meet) is a FAIL with the message as witness."""
        try:
            witness = check()
        except MorphismNotInCategory as exc:
            witness = str(exc)
        self.axioms[name] = witness is None
        if witness is not None:
            self.witnesses[name] = witness


def _cc1(c: SubobjectCategory) -> Optional[str]:
    """CC1 (and NC1): the category and subobject axioms of `validate_category`."""
    try:
        validate_category(c)
    except CategoryError as exc:
        return str(exc)


def _cc2(c: SubobjectCategory) -> Optional[str]:
    """CC2 (and NC2): every inclusion splits."""
    for (a, b), j in sorted(c.inclusions.items()):
        if not any(c.compose(j, q) == c.identities[a] for q in c.hom(b, a)):
            return f"inclusion {c.label(j)} does not split"


def _cc6(c: SubobjectCategory, kind: str) -> Optional[str]:
    """CC6 (kind "consistent") and NC4 (kind "normal"): every object is the
    vertex of an idempotent cone."""
    from .cones import idempotent_cones_by_vertex
    cone_sets = idempotent_cones_by_vertex(c)
    for v in c.objects:
        if not cone_sets.get(v):
            return f"object {c.object_label(v)} has no idempotent {kind} cone"


def check_consistent_axioms(c: SubobjectCategory) -> AxiomReport:
    """CC1..CC6 with witnesses, each recorded by `AxiomReport.record`.

    CC6 needs idempotent cones: `idempotent_cones_by_vertex` enumerates them
    within its budget, or takes the principal cones when the category comes
    from a semigroup, and raises CategoryError for a larger abstract
    category.  Every composable pair has a composite in the
    rows; an entry with the wrong endpoints fails CC1, and an axiom whose
    check then composes it with a morphism it does not meet fails with the
    `MorphismNotInCategory` message as its witness.
    """
    report = AxiomReport({}, {})

    def cc3():
        for m in c.morphisms:
            try:
                if consistent_factorisation(c, m) is None:
                    return f"{c.label(m)} has no consistent factorisation"
            except NotAbundant as exc:
                return str(exc)

    def cc4():
        # is_consistent_bimorphism assumes CC1
        if not report.axioms["CC3"] or not report.axioms["CC1"]:
            return f"skipped: {'CC3' if not report.axioms['CC3'] else 'CC1'} failed"
        for m in c.morphisms:
            if morphism_flags(c, m).bimorphism and not is_consistent_bimorphism(c, m)[0]:
                return f"bimorphism {c.label(m)} is not consistent"

    def cc5():
        for (a, b), j in sorted(c.inclusions.items()):
            for q in c.outgoing(b):
                if (morphism_flags(c, q).retraction
                        and normal_factorisation(c, c.compose(j, q)) is None):
                    return f"{c.label(j)} . {c.label(q)} admits no normal factorisation"

    report.record("CC1", lambda: _cc1(c))
    report.record("CC2", lambda: _cc2(c))
    report.record("CC3", cc3)
    report.record("CC4", cc4)
    report.record("CC5", cc5)
    report.record("CC6", lambda: _cc6(c, "consistent"))
    return report


def restrict_morphisms(c: SubobjectCategory, keep) -> SubobjectCategory:
    """Wide subcategory on the morphism ids in `keep` (objects unchanged)."""
    keep = sorted(set(keep))
    old_to_new = {m: i for i, m in enumerate(keep)}
    for a in c.objects:
        if c.identities[a] not in old_to_new:
            raise CategoryError(f"restriction drops the identity of object {a}")
    for key, j in c.inclusions.items():
        if j not in old_to_new:
            raise CategoryError(f"restriction drops the inclusion for {key}")
    dom = tuple(c.dom[m] for m in keep)
    cod = tuple(c.cod[m] for m in keep)
    homs: dict = {}
    for i, m in enumerate(keep):
        homs.setdefault((c.dom[m], c.cod[m]), []).append(i)
    rows = []
    for m1 in keep:
        row = []
        for m2, m3 in zip(c.outgoing(c.cod[m1]), c.rows[m1]):
            if m2 not in old_to_new:
                continue
            if m3 not in old_to_new:
                raise AxiomFailure(
                    f"morphism set not closed: {c.label(m1)} . {c.label(m2)}")
            row.append(old_to_new[m3])
        rows.append(tuple(row))
    triples = tuple(c.triples[m] for m in keep) if c.triples is not None else None
    triple_index = None
    if triples is not None:
        triple_index = {}
        for i, m in enumerate(keep):
            a, b = c.dom[m], c.cod[m]
            triple_index[(a, b, c.triples[m][1])] = i
    return SubobjectCategory(
        n_objects=c.n_objects, leq=c.leq, dom=dom, cod=cod,
        homs={k: tuple(v) for k, v in homs.items()}, rows=tuple(rows),
        identities=tuple(old_to_new[c.identities[a]] for a in c.objects),
        inclusions={k: old_to_new[j] for k, j in c.inclusions.items()},
        semigroup=c.semigroup, side=c.side, object_idem=c.object_idem,
        triples=triples, triple_index=triple_index)


def normal_subcategory(c: SubobjectCategory) -> SubobjectCategory:
    """The wide subcategory of all morphisms with normal factorisations.

    Lemma-backed: the result must be closed under composition and satisfy
    NC1-NC4; a failure raises AxiomFailure (internal alarm).
    """
    keep = [m for m in c.morphisms if normal_factorisation(c, m) is not None]
    sub = restrict_morphisms(c, keep)  # raises AxiomFailure if not closed
    report = check_normal_axioms(sub)
    if not report.ok:
        raise AxiomFailure("normal subcategory fails NC axioms: " + "; ".join(report.lines()))
    return sub


def check_normal_axioms(c: SubobjectCategory) -> AxiomReport:
    """NC1..NC4 for a (candidate) normal category, recorded as the CC report
    is: NC1, NC2 and NC4 are the checks of CC1, CC2 and CC6 (the last naming
    a normal cone), and NC3 asks every morphism for a normal factorisation."""
    report = AxiomReport({}, {})

    def nc3():
        for m in c.morphisms:
            if normal_factorisation(c, m) is None:
                return f"{c.label(m)} has no normal factorisation"

    report.record("NC1", lambda: _cc1(c))
    report.record("NC2", lambda: _cc2(c))
    report.record("NC3", nc3)
    report.record("NC4", lambda: _cc6(c, "normal"))
    return report
