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
    compose_table: dict  # (m1, m2) -> m, for cod(m1) == dom(m2)
    identities: tuple
    inclusions: dict  # (a, b) in leq -> morphism id
    semigroup: Optional[FiniteSemigroup] = None
    side: Optional[str] = None
    object_idem: Optional[tuple] = None  # canonical idempotent per object
    object_ideal: Optional[tuple] = None  # the set S^1 e per object
    triples: Optional[tuple] = None  # per morphism id: (e, u, f) over the base
    triple_index: Optional[dict] = None  # (a, b, u) -> morphism id
    # memos, derived from the fields above; init=False keeps
    # dataclasses.replace from carrying them into a changed category
    _flags: dict = field(default_factory=dict, init=False, repr=False)
    _epi: dict = field(default_factory=dict, init=False, repr=False)
    _nf: dict = field(default_factory=dict, init=False, repr=False)
    _outgoing: Optional[dict] = field(default=None, init=False, repr=False)
    _cor: dict = field(default_factory=dict, init=False, repr=False)

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
            for m, d in enumerate(self.dom):
                out.setdefault(d, []).append(m)
            self._outgoing = {d: tuple(ms) for d, ms in out.items()}
        return self._outgoing.get(a, ())

    def compose(self, m1: int, m2: int) -> int:
        try:
            return self.compose_table[(m1, m2)]
        except KeyError:
            raise MorphismNotInCategory(
                f"morphisms {m1} and {m2} are not composable") from None

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
    ideals = tuple(frozenset({reps[a]} | {mul(x, reps[a]) for x in base.elements})
                   for a in range(n_obj))

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

    compose_table = {}
    for m1 in range(len(dom)):
        a, b = dom[m1], cod[m1]
        u = triples[m1][1]
        for c in range(n_obj):
            for m2 in homs[(b, c)]:
                v = triples[m2][1]
                compose_table[(m1, m2)] = triple_index[(a, c, mul(u, v))]

    identities = tuple(triple_index[(a, a, reps[a])] for a in range(n_obj))
    inclusions = {(a, b): triple_index[(a, b, reps[a])] for (a, b) in leq}

    return SubobjectCategory(
        n_objects=n_obj, leq=leq, dom=tuple(dom), cod=tuple(cod), homs=homs,
        compose_table=compose_table, identities=identities, inclusions=inclusions,
        semigroup=base, side=side, object_idem=tuple(reps), object_ideal=ideals,
        triples=tuple(triples), triple_index=triple_index)


def morphism_triple(c: SubobjectCategory, m: int) -> MorphismTriple:
    """The canonical triple of a morphism in a semigroup-backed category."""
    if c.triples is None:
        raise MorphismNotInCategory("category has no triple payload")
    e, u, f = c.triples[m]
    return MorphismTriple(e, u, f, c.side or LEFT)


def locate_triple(c: SubobjectCategory, e: int, u: int, f: int) -> Optional[int]:
    """Morphism id of rho(e,u,f) for arbitrary idempotent representatives."""
    base, l = c.semigroup, green_classes(c.semigroup).l
    a = _object_of_class(c, l.partition[e])
    b = _object_of_class(c, l.partition[f])
    if a is None or b is None:
        return None
    return c.triple_index.get((a, b, base.mul(c.object_idem[a], u)))


def _object_of_class(c: SubobjectCategory, class_id: int) -> Optional[int]:
    l = green_classes(c.semigroup).l
    for a in c.objects:
        if l.partition[c.object_idem[a]] == class_id:
            return a
    return None


def object_of_idempotent(c: SubobjectCategory, e: int) -> int:
    """The object (ideal) generated by the idempotent e of the base semigroup."""
    l = green_classes(c.semigroup).l
    a = _object_of_class(c, l.partition[e])
    if a is None:
        raise MorphismNotInCategory(f"{e} is not an idempotent of the base semigroup")
    return a


def from_parts(n_objects, leq_pairs, morphisms, compose_triples) -> SubobjectCategory:
    """Assemble an abstract category from JSON-style parts.

    morphisms: list of (dom, cod, inclusion_flag); compose_triples: list of
    (m1, m2, m3).  Identities are derived, inclusion uniqueness enforced.
    """
    leq = frozenset(tuple(p) for p in leq_pairs) | frozenset((a, a) for a in range(n_objects))
    dom = tuple(m[0] for m in morphisms)
    cod = tuple(m[1] for m in morphisms)
    compose_table = {(m1, m2): m3 for m1, m2, m3 in compose_triples}
    homs: dict = {}
    for m in range(len(dom)):
        homs.setdefault((dom[m], cod[m]), []).append(m)
    homs = {k: tuple(v) for k, v in homs.items()}

    identities = []
    for a in range(n_objects):
        cands = [m for m in homs.get((a, a), ())
                 if all(compose_table.get((m, x)) == x for x in range(len(dom)) if dom[x] == a)
                 and all(compose_table.get((x, m)) == x for x in range(len(dom)) if cod[x] == a)]
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

    return SubobjectCategory(
        n_objects=n_objects, leq=leq, dom=dom, cod=cod, homs=homs,
        compose_table=compose_table, identities=tuple(identities),
        inclusions=inclusions)


def validate_category(c: SubobjectCategory) -> None:
    """Category + subobject axioms; raises CategoryError on the first failure.

    Associativity walks only the composable triples m1 -> m2 -> m3, through
    `outgoing`, in the lexicographic order of an all-triples scan, so the
    first witness is the one that scan would report.  That is
    sum |hom(a,b)| |hom(b,c)| |hom(c,d)| over objects a, b, c, d: 5.48M
    triples on L(T3 x C2), against M^3 = 2.6e8 for its M = 640 morphisms.
    """
    dom, cod = c.dom, c.cod
    rows: dict = {}  # m1 -> {m2: m1 . m2}, the compose table by rows
    for (m1, m2), m3 in c.compose_table.items():
        if cod[m1] != dom[m2]:
            raise CategoryError(f"composite of non-composable pair ({m1},{m2})")
        if dom[m3] != dom[m1] or cod[m3] != cod[m2]:
            raise CategoryError(f"compose({m1},{m2}) has wrong endpoints")
        rows.setdefault(m1, {})[m2] = m3
    for m1 in c.morphisms:
        row1 = rows.get(m1, {})
        for m2 in c.outgoing(cod[m1]):
            if m2 not in row1:
                raise CategoryError(f"missing composite ({m1},{m2})")
            # (m1 m2) m3 against m1 (m2 m3) for every m3 at once
            out3 = c.outgoing(cod[m2])
            row12, row2 = rows.get(row1[m2], {}), rows.get(m2, {})
            try:
                if (list(map(row12.__getitem__, out3))
                        == list(map(row1.__getitem__, map(row2.__getitem__, out3)))):
                    continue
            except KeyError:
                pass
            raise _associativity_witness(c, m1, m2, out3)
    for a in c.objects:
        i = c.identities[a]
        if c.dom[i] != a or c.cod[i] != a:
            raise CategoryError(f"identity of {a} has wrong endpoints")
    # leq is a partial order
    for (a, b) in c.leq:
        if (b, a) in c.leq and a != b:
            raise CategoryError(f"leq not antisymmetric on {(a, b)}")
        for (b2, d) in c.leq:
            if b2 == b and (a, d) not in c.leq:
                raise CategoryError(f"leq not transitive via {(a, b, d)}")
    # inclusions: one per comparable pair, composing along the order
    for (a, b), j in c.inclusions.items():
        if (a, b) not in c.leq or c.dom[j] != a or c.cod[j] != b:
            raise CategoryError(f"bad inclusion for {(a, b)}")
        if not morphism_flags(c, j).mono:
            raise CategoryError(f"inclusion {j} is not a monomorphism")
    for (a, b) in c.leq:
        for (b2, d) in c.leq:
            if b2 == b:
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


def _associativity_witness(c: SubobjectCategory, m1: int, m2: int,
                           out3: tuple) -> CategoryError:
    """The first failure among the triples (m1, m2, m3), m3 in out3: a
    missing composite or the first m3 where associativity fails."""
    try:
        for m3 in out3:
            if c.compose(c.compose(m1, m2), m3) != c.compose(m1, c.compose(m2, m3)):
                return CategoryError(f"associativity fails at ({m1},{m2},{m3})")
    except MorphismNotInCategory as exc:
        return exc
    raise AssertionError(f"no associativity failure at ({m1},{m2})")


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
    semigroup (g = g'e with g' the canonical idempotent R*-related to u, and
    dually), otherwise an exhaustive search.  Raises NotAbundant when the
    semigroup route finds no starred idempotent witness and no search result
    exists; returns None for abstract categories without a decomposition.
    """
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
    epi = c.compose(q, u)
    fact = Factorisation(q, u, j, "consistent", epi, c.cod[u])
    c._epi.setdefault(m, epi)
    return fact


def _semigroup_consistent_parts(c: SubobjectCategory, m: int) -> Optional[tuple]:
    s = c.semigroup
    e, u, f = c.triples[m]
    rstar = starred_relation(s, RIGHT)
    lstar = starred_relation(s, LEFT)
    es = set(idempotents(s))
    rwit = [g for g in rstar.class_of(u) if g in es]
    lwit = [h for h in lstar.class_of(u) if h in es]
    if not rwit or not lwit:
        return None
    g = s.mul(min(rwit), e)
    h = s.mul(f, min(lwit))
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
    """The epimorphic component m° of the consistent factorisation of m."""
    if m not in c._epi:
        fact = consistent_factorisation(c, m)
        if fact is None:
            raise NotAbundant(f"{c.label(m)} has no consistent factorisation")
        c._epi[m] = fact.epi_component
    return c._epi[m]


def image_object(c: SubobjectCategory, m: int) -> int:
    return c.cod[epi_component(c, m)]


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
    if c.semigroup is not None:
        parts = _sandwich_parts(c, m)
        if parts is not None:
            q, mid, j = parts
            epi = c.compose(q, mid)
            return Factorisation(q, mid, j, "normal", epi, c.cod[mid])
    parts = _search_factorisation(c, m, lambda u: morphism_flags(c, u).isomorphism)
    if parts is None:
        return None
    q, mid, j = parts
    epi = c.compose(q, mid)
    return Factorisation(q, mid, j, "normal", epi, c.cod[mid])


def _sandwich_parts(c: SubobjectCategory, m: int) -> Optional[tuple]:
    from .semigroups import biorder
    s = c.semigroup
    e, u, g_rep = c.triples[m]
    bo = biorder(s)
    l = green_classes(s).l
    for g in bo.idempotents:
        if not l.same(g, g_rep) or s.mul(e, g) != u:
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
    subs = set(c.subobjects_of(top))
    gens = set()
    for (a, b), j in c.inclusions.items():
        if a in subs and b in subs:
            gens.add(j)
    for m in c.morphisms:
        if c.dom[m] in subs and c.cod[m] in subs and morphism_flags(c, m).retraction:
            gens.add(m)
    # each morphism, once popped, is composed on both sides with every
    # composable morphism closed so far
    closed, out_of, into = set(), {}, {}
    frontier = []

    def add(m):
        if m not in closed:
            closed.add(m)
            out_of.setdefault(c.dom[m], []).append(m)
            into.setdefault(c.cod[m], []).append(m)
            frontier.append(m)

    for m in sorted(gens):
        add(m)
    while frontier:
        m1 = frontier.pop()
        after = [c.compose(m1, m2) for m2 in out_of.get(c.cod[m1], ())]
        before = [c.compose(m2, m1) for m2 in into.get(c.dom[m1], ())]
        for m3 in after + before:
            add(m3)
    return tuple(sorted(closed))


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
    t_mor = {}
    for g in mor_c:
        a, b = c.dom[g], c.cod[g]
        want = c.compose(g, xi[b])
        found = [h for h in c.hom(t_obj[a], t_obj[b])
                 if h in mor_d and c.compose(xi[a], h) == want]
        if len(found) != 1:
            return False, None
        t_mor[g] = found[0]
    if len(set(t_mor.values())) != len(mor_c) or set(t_mor.values()) != mor_d:
        return False, None
    # functoriality and agreement with T^u on inclusions
    for g1 in mor_c:
        for g2 in c.outgoing(c.cod[g1]):
            if g2 in t_mor and t_mor[c.compose(g1, g2)] != c.compose(t_mor[g1], t_mor[g2]):
                return False, None
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


def check_consistent_axioms(c: SubobjectCategory, cones=None) -> AxiomReport:
    """CC1..CC6 with witnesses.

    CC6 needs idempotent cones: they are enumerated (via the cone module) when
    the category is within the budget of `idempotent_cones_by_vertex`, taken
    from the principal cones when the category comes from a semigroup, or
    supplied by the caller.
    """
    axioms: dict = {}
    witnesses: dict = {}

    try:
        validate_category(c)
        axioms["CC1"] = True
    except CategoryError as exc:
        axioms["CC1"] = False
        witnesses["CC1"] = str(exc)

    cc2 = True
    for (a, b), j in sorted(c.inclusions.items()):
        if not any(c.compose(j, q) == c.identities[a] for q in c.hom(b, a)):
            cc2 = False
            witnesses["CC2"] = f"inclusion {c.label(j)} does not split"
            break
    axioms["CC2"] = cc2

    cc3 = True
    for m in c.morphisms:
        try:
            fact = consistent_factorisation(c, m)
        except NotAbundant as exc:
            fact = None
            witnesses["CC3"] = str(exc)
        if fact is None:
            cc3 = False
            witnesses.setdefault("CC3", f"{c.label(m)} has no consistent factorisation")
            break
    axioms["CC3"] = cc3

    cc4 = True
    if cc3:
        for m in c.morphisms:
            if morphism_flags(c, m).bimorphism:
                ok, _ = is_consistent_bimorphism(c, m)
                if not ok:
                    cc4 = False
                    witnesses["CC4"] = f"bimorphism {c.label(m)} is not consistent"
                    break
    else:
        cc4 = False
        witnesses["CC4"] = "skipped: CC3 failed"
    axioms["CC4"] = cc4

    cc5 = True
    for (a, b), j in sorted(c.inclusions.items()):
        for q in c.outgoing(b):
            if not morphism_flags(c, q).retraction:
                continue
            if normal_factorisation(c, c.compose(j, q)) is None:
                cc5 = False
                witnesses["CC5"] = (f"{c.label(j)} . {c.label(q)} admits no "
                                    "normal factorisation")
                break
        if not cc5:
            break
    axioms["CC5"] = cc5

    cc6 = True
    cone_sets = cones
    if cone_sets is None:
        from .cones import idempotent_cones_by_vertex
        cone_sets = idempotent_cones_by_vertex(c)
    for v in c.objects:
        if not cone_sets.get(v):
            cc6 = False
            witnesses["CC6"] = f"object {c.object_label(v)} has no idempotent consistent cone"
            break
    axioms["CC6"] = cc6

    return AxiomReport(axioms, witnesses)


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
    compose_table = {}
    for m1 in keep:
        for m2 in c.outgoing(c.cod[m1]):
            if m2 not in old_to_new:
                continue
            m3 = c.compose(m1, m2)
            if m3 not in old_to_new:
                raise AxiomFailure(
                    f"morphism set not closed: {c.label(m1)} . {c.label(m2)}")
            compose_table[(old_to_new[m1], old_to_new[m2])] = old_to_new[m3]
    triples = tuple(c.triples[m] for m in keep) if c.triples is not None else None
    triple_index = None
    if triples is not None:
        triple_index = {}
        for i, m in enumerate(keep):
            a, b = c.dom[m], c.cod[m]
            triple_index[(a, b, c.triples[m][1])] = i
    return SubobjectCategory(
        n_objects=c.n_objects, leq=c.leq, dom=dom, cod=cod,
        homs={k: tuple(v) for k, v in homs.items()}, compose_table=compose_table,
        identities=tuple(old_to_new[c.identities[a]] for a in c.objects),
        inclusions={k: old_to_new[j] for k, j in c.inclusions.items()},
        semigroup=c.semigroup, side=c.side, object_idem=c.object_idem,
        object_ideal=c.object_ideal, triples=triples, triple_index=triple_index)


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


def check_normal_axioms(c: SubobjectCategory, cones=None) -> AxiomReport:
    """NC1..NC4 for a (candidate) normal category."""
    axioms: dict = {}
    witnesses: dict = {}
    try:
        validate_category(c)
        axioms["NC1"] = True
    except CategoryError as exc:
        axioms["NC1"] = False
        witnesses["NC1"] = str(exc)

    nc2 = True
    for (a, b), j in sorted(c.inclusions.items()):
        if not any(c.compose(j, q) == c.identities[a] for q in c.hom(b, a)):
            nc2 = False
            witnesses["NC2"] = f"inclusion {c.label(j)} does not split"
            break
    axioms["NC2"] = nc2

    nc3 = True
    for m in c.morphisms:
        if normal_factorisation(c, m) is None:
            nc3 = False
            witnesses["NC3"] = f"{c.label(m)} has no normal factorisation"
            break
    axioms["NC3"] = nc3

    nc4 = True
    cone_sets = cones
    if cone_sets is None:
        from .cones import idempotent_cones_by_vertex
        cone_sets = idempotent_cones_by_vertex(c)
    for v in c.objects:
        if not cone_sets.get(v):
            nc4 = False
            witnesses["NC4"] = f"object {c.object_label(v)} has no idempotent normal cone"
            break
    axioms["NC4"] = nc4
    return AxiomReport(axioms, witnesses)
