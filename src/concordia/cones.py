"""Cones over a category with subobjects and the cone semigroups they form.

A cone has a vertex and one component morphism per object, compatible with
inclusions.  Consistent cones have a bimorphism component, normal cones an
isomorphism component, idempotent cones an identity at the vertex.  The cone
semigroup multiplies by g1 * (g2(vertex of g1))°.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iproduct
from math import prod
from typing import Optional

from .categories import (
    AxiomFailure,
    CategoryError,
    SubobjectCategory,
    epi_component,
    locate_triple,
    morphism_flags,
    object_of_idempotent,
)
from .semigroups import (
    FiniteSemigroup,
    NotAbundant,
    idempotents,
    is_concordant,
    starred_relation,
    validate_table,
    LEFT,
    RIGHT,
)


class SearchBudgetExceeded(Exception):
    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class NotIdempotentCone(CategoryError):
    pass


class FactorisationUnavailable(CategoryError):
    pass


@dataclass(frozen=True)
class Cone:
    vertex: int
    components: tuple


@dataclass(frozen=True)
class ConeFlags:
    consistent: bool
    normal: bool
    idempotent: bool


def is_cone(c: SubobjectCategory, cone: Cone) -> bool:
    for a in c.objects:
        m = cone.components[a]
        if c.dom[m] != a or c.cod[m] != cone.vertex:
            return False
    for (a, b) in c.leq:
        if c.compose(c.inclusions[(a, b)], cone.components[b]) != cone.components[a]:
            return False
    return True


def cone_flags(c: SubobjectCategory, cone: Cone) -> ConeFlags:
    consistent = any(morphism_flags(c, m).bimorphism for m in cone.components)
    normal = any(morphism_flags(c, m).isomorphism for m in cone.components)
    idem = cone.components[cone.vertex] == c.identities[cone.vertex]
    return ConeFlags(consistent, normal, idem)


def cone_star(c: SubobjectCategory, cone: Cone, f: int) -> Cone:
    """gamma * f for an epimorphism f out of the vertex: component-wise
    post-composition."""
    if c.dom[f] != cone.vertex:
        raise FactorisationUnavailable("cone_star needs a morphism out of the vertex")
    comps = tuple(c.compose(cone.components[a], f) for a in c.objects)
    return Cone(c.cod[f], comps)


def principal_cone(s: FiniteSemigroup, c: SubobjectCategory, a: int) -> Cone:
    """rho^a: Se -> rho(e, ea, f) with f the canonical idempotent of L*_a.

    For the RIGHT-side category (built over S.op()) the element id `a` is
    interpreted in the opposite semigroup, giving the dual cone lambda^a.
    """
    base = c.semigroup
    lstar = starred_relation(base, LEFT)
    es = set(idempotents(base))
    wits = [e for e in lstar.class_of(a) if e in es]
    if not wits:
        raise NotAbundant(f"element {base.name(a)} has no idempotent in its L*-class")
    f = min(wits)
    vertex = object_of_idempotent(c, f)
    comps = []
    for obj in c.objects:
        e = c.object_idem[obj]
        m = locate_triple(c, e, base.mul(e, a), f)
        if m is None:
            raise AxiomFailure(f"principal cone component missing at object {obj}")
        comps.append(m)
    return Cone(vertex, tuple(comps))


def compose_cones(c: SubobjectCategory, g1: Cone, g2: Cone) -> Cone:
    """g1 . g2 = g1 * (g2(vertex of g1))°."""
    try:
        f = epi_component(c, g2.components[g1.vertex])
    except NotAbundant as exc:
        raise FactorisationUnavailable(str(exc)) from exc
    out = cone_star(c, g1, f)
    if not is_cone(c, out):
        raise AxiomFailure("cone composition produced a non-cone")
    return out


def _maximal_objects(c: SubobjectCategory) -> tuple:
    return tuple(b for b in c.objects
                 if not any(b != d and (b, d) in c.leq for d in c.objects))


def _cones_with_vertex(c: SubobjectCategory, v: int, idempotent_only: bool,
                       budget: Optional[int] = None):
    """All cones with the given vertex; free choices live at maximal objects,
    everything below is forced by compatibility."""
    maxima = _maximal_objects(c)
    choices = []
    for mx in maxima:
        opts = c.hom(mx, v)
        if idempotent_only and mx == v:
            opts = (c.identities[v],)
        choices.append(opts)
    total = prod(len(o) for o in choices)
    if budget is not None and total > budget:
        raise SearchBudgetExceeded(
            f"cone search at vertex {v} needs {total} candidates (budget {budget})")
    above = {a: next(mx for mx in maxima if (a, mx) in c.leq) for a in c.objects}
    out = []
    for pick in iproduct(*choices):
        at = dict(zip(maxima, pick))
        comps = []
        for a in c.objects:
            if a in at:
                comps.append(at[a])
            else:
                mx = above[a]
                comps.append(c.compose(c.inclusions[(a, mx)], at[mx]))
        cone = Cone(v, tuple(comps))
        if idempotent_only and cone.components[v] != c.identities[v]:
            continue
        if is_cone(c, cone):
            out.append(cone)
    return out


def enumerate_idempotent_cones(c: SubobjectCategory, budget: Optional[int] = None) -> list:
    out = []
    for v in c.objects:
        out.extend(_cones_with_vertex(c, v, idempotent_only=True, budget=budget))
    return sorted(set(out), key=lambda k: (k.vertex, k.components))


def enumerate_consistent_cones(c: SubobjectCategory, budget: Optional[int] = None) -> list:
    out = []
    for v in c.objects:
        for cone in _cones_with_vertex(c, v, idempotent_only=False, budget=budget):
            if cone_flags(c, cone).consistent:
                out.append(cone)
    return sorted(set(out), key=lambda k: (k.vertex, k.components))


def idempotent_cones_by_vertex(c: SubobjectCategory, budget=(10, 200)) -> dict:
    """Idempotent cones grouped by vertex, for the CC6/NC4 checkers.

    Enumerates exhaustively within budget; falls back to principal cones of
    the object representatives when the category comes from a semigroup;
    otherwise the caller must supply cones.
    """
    if c.n_objects <= budget[0] and c.n_morphisms <= budget[1]:
        by_vertex: dict = {v: [] for v in c.objects}
        for cone in enumerate_idempotent_cones(c):
            by_vertex[cone.vertex].append(cone)
        return by_vertex
    if c.semigroup is not None:
        by_vertex = {}
        for v in c.objects:
            cone = principal_cone(c.semigroup, c, c.object_idem[v])
            by_vertex.setdefault(cone.vertex, []).append(cone)
        return by_vertex
    raise CategoryError(
        "category too large for exhaustive cone search; supply candidate cones")


PRINCIPAL_ONLY = "principal"
EPSILON_STAR_U = "epsilon_star_u"
FULL_ENUMERATION = "full"


@dataclass
class ConeSemigroup:
    category: SubobjectCategory
    cones: tuple
    table: FiniteSemigroup
    provenance: str
    index: dict
    # per cone id: (idempotent cone id, bimorphism id) with cone = eps * u
    witness: dict
    principal_of: Optional[dict] = None  # base element -> cone id
    normal_ids: Optional[frozenset] = None
    # whether E(C-hat) lies inside the normal-cone subsemigroup; this holds
    # for every regular input but fails for some non-regular concordant ones
    # (an idempotent cone may have a component with no normal factorisation),
    # so it is recorded rather than enforced
    normal_full: bool = True
    _h_cache: Optional[dict] = None

    @property
    def order(self) -> int:
        return len(self.cones)

    def idempotent_ids(self) -> tuple:
        return idempotents(self.table)


def _product_witness(c, cones_by_id, witness, i, j, index):
    """Witness (eps, u) for a product, via the closure argument:
    g1.g2 = eps1 * (u1 f)° with u1 f epi, factored as retraction.bimorphism."""
    eps1, u1 = witness[i]
    g2 = cones_by_id[j]
    f = epi_component(c, g2.components[cones_by_id[i].vertex])
    u1f = c.compose(u1, f)
    from .categories import consistent_factorisation
    fact = consistent_factorisation(c, u1f)
    eps_new = cone_star(c, cones_by_id[eps1], fact.q)
    if eps_new not in index:
        raise AxiomFailure("witness idempotent cone escaped the enumerated set")
    return index[eps_new], fact.u


def build_cone_semigroup(c: SubobjectCategory, mode: str = EPSILON_STAR_U,
                         budget: Optional[int] = 200000) -> ConeSemigroup:
    """The cone semigroup of the category in one of three modes.

    PRINCIPAL_ONLY: {rho^a : a in S} (needs a semigroup-backed category).
    EPSILON_STAR_U: idempotent cones closed under * with bimorphisms, then
    under composition (this is C-hat).  FULL_ENUMERATION: all consistent
    cones, the oracle mode.
    """
    principal_of = None
    if mode == PRINCIPAL_ONLY:
        if c.semigroup is None:
            raise CategoryError("principal mode needs a semigroup-backed category")
        raw = {}
        for a in c.semigroup.elements:
            raw[a] = principal_cone(c.semigroup, c, a)
        cone_set = set(raw.values())
    elif mode == EPSILON_STAR_U:
        eps_cones = enumerate_idempotent_cones(c, budget)
        cone_set = set(eps_cones)
        gen_witness = {}
        for eps in eps_cones:
            gen_witness[eps] = (eps, c.identities[eps.vertex])
            for u in c.morphisms:
                if c.dom[u] == eps.vertex and morphism_flags(c, u).bimorphism:
                    g = cone_star(c, eps, u)
                    if g not in gen_witness:
                        gen_witness[g] = (eps, u)
                    cone_set.add(g)
    elif mode == FULL_ENUMERATION:
        cone_set = set(enumerate_consistent_cones(c, budget))
    else:
        raise ValueError(f"unknown mode {mode!r}")

    # close under composition (expected to be closed already for all modes;
    # epsilon_star_u keeps witnesses across the closure)
    cones = sorted(cone_set, key=lambda k: (k.vertex, k.components))
    while True:
        new = []
        for g1 in cones:
            for g2 in cones:
                g = compose_cones(c, g1, g2)
                if g not in cone_set:
                    if mode != EPSILON_STAR_U:
                        raise AxiomFailure(
                            f"{mode} cone set is not closed under composition")
                    cone_set.add(g)
                    new.append(g)
        if not new:
            break
        if budget is not None and len(cone_set) > budget:
            raise SearchBudgetExceeded("cone closure exceeded budget", partial=cone_set)
        cones = sorted(cone_set, key=lambda k: (k.vertex, k.components))

    cones = tuple(sorted(cone_set, key=lambda k: (k.vertex, k.components)))
    index = {cone: i for i, cone in enumerate(cones)}
    n = len(cones)
    table = [[index[compose_cones(c, cones[i], cones[j])] for j in range(n)]
             for i in range(n)]
    fs = validate_table(table)

    witness = {}
    if mode == EPSILON_STAR_U:
        pending = []
        for i, cone in enumerate(cones):
            if cone in gen_witness:
                eps, u = gen_witness[cone]
                witness[i] = (index[eps], u)
            else:
                pending.append(i)
        # closure products get witnesses via the balanced-factorisation step
        while pending:
            progressed = False
            for i in list(pending):
                for a in range(n):
                    if a in witness:
                        for b in range(n):
                            if table[a][b] == i and b != i:
                                witness[i] = _product_witness(
                                    c, cones, witness, a, b, index)
                                pending.remove(i)
                                progressed = True
                                break
                    if i not in pending:
                        break
            if not progressed:
                raise AxiomFailure("cannot derive eps*u witnesses for closure products")
    else:
        for i, cone in enumerate(cones):
            witness[i] = _generic_witness(c, cones, index, cone)

    if mode == PRINCIPAL_ONLY:
        principal_of = {a: index[raw[a]] for a in raw}
    elif c.semigroup is not None:
        principal_of = {}
        for a in c.semigroup.elements:
            pc = principal_cone(c.semigroup, c, a)
            if pc in index:
                principal_of[a] = index[pc]

    normal_ids = frozenset(i for i, cone in enumerate(cones)
                           if is_cbar_normal_cone(c, cone))
    cs = ConeSemigroup(c, cones, fs, mode, index, witness, principal_of, normal_ids)
    cs.normal_full = _check_normal_subsemigroup(cs)
    return cs


def is_cbar_normal_cone(c: SubobjectCategory, cone: Cone) -> bool:
    """A normal cone over the normal subcategory: every component admits a
    normal factorisation and some component is an isomorphism.  (For a normal
    category this coincides with the iso-component flag.)"""
    from .categories import normal_factorisation
    if not any(morphism_flags(c, m).isomorphism for m in cone.components):
        return False
    return all(normal_factorisation(c, m) is not None for m in cone.components)


def _generic_witness(c, cones, index, cone):
    """eps * u decomposition of a consistent cone."""
    # fast guess: restrict along the retraction part of the vertex component,
    # kept only when the result verifies
    from .categories import consistent_factorisation
    v = cone.vertex
    fact = consistent_factorisation(c, cone.components[v])
    eps = cone_star(c, cone, fact.q)
    if eps in index and cone_flags(c, cones[index[eps]]).idempotent:
        ru = c.compose(fact.u, fact.j)
        if cone_star(c, cones[index[eps]], ru) == cone and morphism_flags(c, ru).bimorphism:
            return index[eps], ru
    # exhaustive: search over idempotent cones and bimorphisms
    for i, eps_cone in enumerate(cones):
        if not cone_flags(c, eps_cone).idempotent:
            continue
        for u in c.hom(eps_cone.vertex, v):
            if morphism_flags(c, u).bimorphism and cone_star(c, eps_cone, u) == cone:
                return i, u
    raise AxiomFailure("cone admits no eps*u decomposition")


def _check_normal_subsemigroup(cs: ConeSemigroup) -> bool:
    """The C-bar-valued normal cones form a regular subsemigroup (backed by
    the normal-category theory); returns whether it is also full, i.e.
    contains every idempotent cone.  Fullness holds whenever the base
    semigroup is regular but fails when an idempotent cone has a component
    without a normal factorisation, which happens for some non-regular
    concordant inputs."""
    table = cs.table.table
    ids = cs.normal_ids
    for i in ids:
        for j in ids:
            if table[i][j] not in ids:
                raise AxiomFailure("normal cones are not closed under composition")
    for i in ids:
        if not any(table[table[i][j]][i] == i for j in ids):
            raise AxiomFailure("normal cone subsemigroup is not regular")
    return all(e in ids for e in idempotents(cs.table))


@dataclass
class ConeConcordance:
    report: object
    lemma_ab_ok: bool


def concordance_of_cone_semigroup(cs: ConeSemigroup) -> ConeConcordance:
    """is_concordant on the Cayley table over cone ids, plus the
    eps R* gamma L* delta witnesses for gamma = eps*u and idempotent delta
    with the same vertex."""
    rep = is_concordant(cs.table)
    rstar = starred_relation(cs.table, RIGHT)
    lstar = starred_relation(cs.table, LEFT)
    ok = True
    idem = set(idempotents(cs.table))
    for i, cone in enumerate(cs.cones):
        eps, _u = cs.witness[i]
        if not rstar.same(eps, i):
            ok = False
        for d in idem:
            if cs.cones[d].vertex == cone.vertex and not lstar.same(i, d):
                ok = False
    return ConeConcordance(rep, ok)


@dataclass
class HFunctor:
    """H(eps;-) stored extensionally: per object the set of cone ids, the
    representing bijection eta to hom(c_eps, -), the morphism action and the
    M-set."""

    eps: int
    vertex: int
    values: tuple
    eta: tuple  # per object: {cone id -> morphism f with eps*f° = cone}
    maps: dict  # per category morphism g: {cone id -> cone id}
    m_set: frozenset

    def same_functor(self, other: "HFunctor") -> bool:
        return self.values == other.values and self.maps == other.maps


def h_functor(cs: ConeSemigroup, eps_id: int) -> HFunctor:
    if cs._h_cache is None:
        cs._h_cache = {}
    if eps_id in cs._h_cache:
        return cs._h_cache[eps_id]
    c = cs.category
    eps_cone = cs.cones[eps_id]
    if not cone_flags(c, eps_cone).idempotent:
        raise NotIdempotentCone(f"cone {eps_id} is not idempotent")
    v = eps_cone.vertex
    values, eta = [], []
    cone_of = {}  # f out of v -> the cone id of eps*f°
    for obj in c.objects:
        val = {}
        for f in c.hom(v, obj):
            g = cone_star(c, eps_cone, epi_component(c, f))
            if g not in cs.index:
                raise AxiomFailure("H-functor value escaped the cone semigroup")
            gid = cone_of[f] = cs.index[g]
            if gid in val and val[gid] != f:
                raise AxiomFailure("representability violated: eps*f° collision")
            val[gid] = f
        values.append(frozenset(val))
        eta.append(val)
    maps = {}
    for g in c.morphisms:
        maps[g] = {gid: cone_of[c.compose(f, g)] for gid, f in eta[c.dom[g]].items()}
    # maps[g] is keyed by eta[dom g], so maps[g1] and maps[g1 g2] share keys
    for g1 in c.morphisms:
        map1 = maps[g1]
        for g2 in c.outgoing(c.cod[g1]):
            map2 = maps[g2]
            if {gid: map2[x] for gid, x in map1.items()} != maps[c.compose(g1, g2)]:
                raise AxiomFailure("H-functor is not functorial")
    m_set = frozenset(obj for obj in c.objects
                      if morphism_flags(c, eps_cone.components[obj]).isomorphism)
    out = HFunctor(eps_id, v, tuple(values), tuple(eta), maps, m_set)
    cs._h_cache[eps_id] = out
    return out


@dataclass
class IsoCertificate:
    ok: bool
    object_map: dict
    morphism_map: dict
    detail: str = ""


def category_to_lhat_iso(cs: ConeSemigroup) -> IsoCertificate:
    """F: C -> L(C-hat), vF(c) = (C-hat)eps, F(f) = rho(eps, eps*f°, eps'):
    certified as an isomorphism of consistent categories."""
    from .categories import build_ideal_category
    c = cs.category
    lhat = build_ideal_category(cs.table, LEFT)
    eps_of_vertex = {}
    for i in sorted(cs.idempotent_ids()):
        eps_of_vertex.setdefault(cs.cones[i].vertex, i)
    if set(eps_of_vertex) != set(c.objects):
        return IsoCertificate(False, {}, {}, "some object carries no idempotent cone")
    obj_map = {}
    for v in c.objects:
        obj_map[v] = object_of_idempotent(lhat, eps_of_vertex[v])
    if len(set(obj_map.values())) != lhat.n_objects:
        return IsoCertificate(False, obj_map, {}, "object map is not a bijection")
    mor_map = {}
    for f in c.morphisms:
        a, b = c.dom[f], c.cod[f]
        eps_a, eps_b = eps_of_vertex[a], eps_of_vertex[b]
        star = cone_star(c, cs.cones[eps_a], epi_component(c, f))
        m = locate_triple(lhat, eps_a, cs.index[star], eps_b)
        if m is None:
            return IsoCertificate(False, obj_map, {}, f"image of {c.label(f)} missing")
        mor_map[f] = m
    if len(set(mor_map.values())) != lhat.n_morphisms:
        return IsoCertificate(False, obj_map, mor_map, "morphism map is not a bijection")
    for f in c.morphisms:
        for g in c.outgoing(c.cod[f]):
            if mor_map[c.compose(f, g)] != lhat.compose(mor_map[f], mor_map[g]):
                return IsoCertificate(False, obj_map, mor_map, "not functorial")
    for (a, b), j in c.inclusions.items():
        if mor_map[j] != lhat.inclusions[(obj_map[a], obj_map[b])]:
            return IsoCertificate(False, obj_map, mor_map, "inclusions not preserved")
    return IsoCertificate(True, obj_map, mor_map)
