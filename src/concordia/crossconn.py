"""Cross-connections of consistent categories.

The consistent dual C*, the functors Gamma/Delta of a concordant semigroup,
local-isomorphism validation, the idempotent cones gamma(c,d)/delta(c,d),
transposes and the chi linkage, the cross-connection semigroup S-Omega, and
the round-trip certificates phi and psi.

Every construction is written once, for the left side.  A cross-connection
(C, D; Gamma, Delta) is symmetric: swapping the categories gives the
cross-connection (D, C; Delta, Gamma), `CrossConnection.transposed()`.  For a
semigroup, R(S) is L(S^op) and so Omega(S^op) = Omega(S) transposed, id for
id; the right-side routines (Delta_S, delta(c,d), G_Omega, the transpose of a
D-morphism) are the left-side ones applied to the other side's data or to
`omega.transposed()`.
"""
from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Optional

from .categories import (
    AxiomFailure,
    SubobjectCategory,
    build_ideal_category,
    consistent_factorisation,
    epi_component,
    locate_triple,
    morphism_flags,
    object_of_idempotent,
    _cor_ideal_morphisms,
)
from .cones import (
    ConeSemigroup,
    EPSILON_STAR_U,
    build_cone_semigroup,
    cone_flags,
    cone_star,
    h_functor,
    idempotent_cones_by_functor,
)
from .semigroups import (
    LEFT,
    RIGHT,
    FiniteSemigroup,
    SemigroupMap,
    check_homomorphism,
    idempotents,
    is_concordant,
    is_good_homomorphism,
    validate_table,
)


class NotConcordant(Exception):
    def __init__(self, report):
        self.report = report
        msg = "semigroup is not concordant:"
        if not report.abundant:
            msg += f" not abundant (witness elements {report.abundance.failing()})"
        elif report.idempotent_connected is False:
            msg += f" not idempotent-connected (element {report.ic.failing})"
        if not report.idempotents_regular:
            msg += (" idempotents do not generate a regular subsemigroup"
                    f" (witness {report.esub.non_regular_witness})")
        super().__init__(msg)


class CrossConnectionError(Exception):
    pass


class NotAFunctor(CrossConnectionError):
    pass


class NaturalityFailure(CrossConnectionError):
    pass


class PairNotInEOmega(CrossConnectionError):
    pass


class NoSolution(CrossConnectionError):
    pass


class MultipleSolutions(CrossConnectionError):
    pass


class LinkageClosureFailure(CrossConnectionError):
    pass


class MAxiomViolation(CrossConnectionError):
    def __init__(self, axiom, detail):
        self.axiom = axiom
        super().__init__(f"{axiom}: {detail}")


class CertificateFailure(CrossConnectionError):
    pass


@dataclass
class FunctorData:
    source: SubobjectCategory
    target: SubobjectCategory
    objects: dict
    morphisms: dict


def check_functor(f: FunctorData) -> None:
    src, dst = f.source, f.target
    for a in src.objects:
        if f.objects[a] not in dst.objects:
            raise NotAFunctor(f"object {a} has no image")
        if f.morphisms[src.identities[a]] != dst.identities[f.objects[a]]:
            raise NotAFunctor(f"identity of {a} not preserved")
    for m in src.morphisms:
        fm = f.morphisms[m]
        if dst.dom[fm] != f.objects[src.dom[m]] or dst.cod[fm] != f.objects[src.cod[m]]:
            raise NotAFunctor(f"morphism {m} endpoints not preserved")
    for m1 in src.morphisms:
        for m2 in src.outgoing(src.cod[m1]):
            if f.morphisms[src.compose(m1, m2)] != dst.compose(
                    f.morphisms[m1], f.morphisms[m2]):
                raise NotAFunctor(f"composition not preserved at ({m1},{m2})")


def is_local_isomorphism(f: FunctorData) -> tuple:
    """Inclusion preserving, fully faithful, and an isomorphism of each
    inclusion-retraction ideal <c> onto <F(c)>."""
    check_functor(f)
    src, dst = f.source, f.target
    for (a, b) in src.leq:
        if (f.objects[a], f.objects[b]) not in dst.leq:
            return False, f"order not preserved on {(a, b)}"
        if f.morphisms[src.inclusions[(a, b)]] != dst.inclusions[
                (f.objects[a], f.objects[b])]:
            return False, f"inclusion of {(a, b)} not preserved"
    for a in src.objects:
        for b in src.objects:
            images = {f.morphisms[m] for m in src.hom(a, b)}
            if len(images) != len(src.hom(a, b)):
                return False, f"not faithful on hom({a},{b})"
            if images != set(dst.hom(f.objects[a], f.objects[b])):
                return False, f"not full on hom({a},{b})"
    for c in src.objects:
        subs = src.subobjects_of(c)
        im_subs = {f.objects[a] for a in subs}
        if im_subs != set(dst.subobjects_of(f.objects[c])) or len(im_subs) != len(subs):
            return False, f"<{c}> objects do not map onto <F({c})> objects"
        mor = _cor_ideal_morphisms(src, c)
        im_mor = {f.morphisms[m] for m in mor}
        if im_mor != set(_cor_ideal_morphisms(dst, f.objects[c])) or len(im_mor) != len(mor):
            return False, f"<{c}> is not mapped isomorphically onto <F({c})>"
    return True, None


@dataclass
class DualCategory:
    """The consistent dual realised on R(C-hat): objects carry H-functors,
    morphisms carry natural transformations (per-object set maps)."""

    base: SubobjectCategory
    cone_semigroup: ConeSemigroup
    h: tuple  # per base object: HFunctor of its idempotent cone base.object_idem[o]
    nat: dict  # per base morphism: tuple over underlying objects of {cone -> cone}
    gamma_tilde: dict  # per base morphism: underlying C-morphism id


def _freeze_action(action) -> tuple:
    return tuple(tuple(sorted(step.items())) for step in action)


def _conjugated_action(c: SubobjectCategory, h_src, h_dst, gt: int) -> list:
    """The natural transformation eta_src . Hom(gt, -) . eta_dst^{-1} as
    per-object maps on cone ids: eps_src * f° goes to eps_dst * (gt f)°,
    read off h_dst.cone_of."""
    cone_of = h_dst.cone_of
    return [{gid: cone_of[c.compose(gt, fx)] for gid, fx in eta.items()}
            for eta in h_src.eta]


def build_dual(cs: ConeSemigroup) -> DualCategory:
    """C* via the bijection lambda(eps, gamma, eps') -> gamma~ =
    gamma(c_eps') . j, with the eta-square realisation of every hom and the
    subfunctor order checked against the right-ideal order.  No two dual
    morphisms with the same endpoints share a natural transformation, so a
    morphism is determined by its endpoints and its `nat`.

    The naturality squares and the subfunctor maps are checked at the
    generators of C, and the functoriality of the realisation for first
    factors among the generators of the base R(C-hat): by Light's test (see
    SubobjectCategory.generators) that is exact, given that the H-functors
    are functors, which h_functor certifies, and that composition in C and
    in R(C-hat) is associative, which the validated tables of S and C-hat
    give."""
    c = cs.category
    base = build_ideal_category(cs.table, RIGHT)
    reps = base.object_idem
    hs = tuple(h_functor(cs, reps[o]) for o in base.objects)
    nat = {}
    gamma_tilde = {}
    tilde_seen = set()
    nat_seen = set()
    for m in base.morphisms:
        e, u, f = base.triples[m]  # lambda(e, u, f): e C-hat -> f C-hat, u in f.C-hat.e
        o1, o2 = base.dom[m], base.cod[m]
        u_cone = cs.cones[u]
        c_eps = cs.cones[e].vertex
        c_eps2 = cs.cones[f].vertex
        if (u_cone.vertex, c_eps) not in c.leq:
            raise AxiomFailure("cone vertex is not a subobject of its L-class vertex")
        gt = c.compose(u_cone.components[c_eps2], c.inclusions[(u_cone.vertex, c_eps)])
        gamma_tilde[m] = gt
        if (o1, o2, gt) in tilde_seen:
            raise AxiomFailure("gamma~ realisation is not injective")
        tilde_seen.add((o1, o2, gt))
        action = _conjugated_action(c, hs[o1], hs[o2], gt)
        for step, values in zip(action, hs[o2].values):
            if not values.issuperset(step.values()):
                raise NaturalityFailure("nat component leaves the target H-functor")
        nat[m] = tuple(action)
        akey = (o1, o2, _freeze_action(action))
        if akey in nat_seen:
            raise AxiomFailure("two dual morphisms share a natural transformation")
        nat_seen.add(akey)
    # gamma~ ranges over all of hom(c_eps', c_eps)
    for o1 in base.objects:
        for o2 in base.objects:
            got = {gamma_tilde[m] for m in base.hom(o1, o2)}
            want = set(c.hom(cs.cones[reps[o2]].vertex, cs.cones[reps[o1]].vertex))
            if got != want:
                raise AxiomFailure("gamma~ is not onto the underlying hom-set")
    _check_naturality(c, base, hs, nat)
    _check_dual_functorial(base, nat)
    _check_subfunctor_order(c, base, hs)
    return DualCategory(base, cs, hs, nat, gamma_tilde)


def _check_naturality(c: SubobjectCategory, base: SubobjectCategory, hs: tuple,
                      nat: dict) -> None:
    """Each nat[m] is a natural transformation H(dom m) -> H(cod m): the
    square at g is checked for g in c.generators(), and the squares at g1
    and g2 paste to the square at g1 g2."""
    gens = c.generators()
    for m in base.morphisms:
        maps1, maps2, nat_m = hs[base.dom[m]].maps, hs[base.cod[m]].maps, nat[m]
        for g in gens:
            map1, map2, after = maps1[g], maps2[g], nat_m[c.cod[g]]
            for gid, x in nat_m[c.dom[g]].items():
                if map2[x] != after[map1[gid]]:
                    raise NaturalityFailure(f"square fails for dual morphism {m} at {g}")


def _check_dual_functorial(base: SubobjectCategory, nat: dict) -> None:
    """nat[m1 m2] = nat[m1] then nat[m2], for m1 in base.generators().
    nat[m][obj] is keyed by the values of the H-functor of dom m, so nat[m1]
    and nat[m1 m2] share keys."""
    for m1 in base.generators():
        for m2 in base.outgoing(base.cod[m1]):
            composite = tuple({gid: step2[x] for gid, x in step1.items()}
                              for step1, step2 in zip(nat[m1], nat[m2]))
            if composite != nat[base.compose(m1, m2)]:
                raise AxiomFailure("dual realisation is not functorial")


def _check_subfunctor_order(c: SubobjectCategory, base: SubobjectCategory,
                            hs: tuple) -> None:
    """H(o1) is a subfunctor of H(o2) exactly when o1 <= o2 in the base: its
    values lie pointwise inside, and its maps agree with those of H(o2) at
    every generator of C, hence at every morphism."""
    gens = c.generators()
    for o1 in base.objects:
        for o2 in base.objects:
            pointwise = all(hs[o1].values[obj] <= hs[o2].values[obj]
                            for obj in c.objects)
            if pointwise:
                for g in gens:
                    for gid in hs[o1].values[c.dom[g]]:
                        if hs[o1].maps[g][gid] != hs[o2].maps[g][gid]:
                            pointwise = False
                            break
                    if not pointwise:
                        break
            if pointwise != ((o1, o2) in base.leq):
                raise AxiomFailure(
                    f"subfunctor order disagrees with ideal order on {(o1, o2)}")


@dataclass
class CrossConnection:
    C: SubobjectCategory
    D: SubobjectCategory
    cs_c: ConeSemigroup
    cs_d: ConeSemigroup
    dual_c: DualCategory
    dual_d: DualCategory
    gamma: FunctorData  # D -> C* (= dual_c.base)
    delta: FunctorData  # C -> D*
    m_gamma: dict  # D-object -> frozenset of C-objects
    m_delta: dict  # C-object -> frozenset of D-objects
    e_omega: tuple  # sorted (c, d) pairs
    gamma_of: dict  # (c, d) -> idempotent cone id in cs_c
    delta_of: dict  # (c, d) -> idempotent cone id in cs_d
    _chi: dict = field(default_factory=dict)
    _transposed: Optional["CrossConnection"] = field(
        default=None, init=False, repr=False, compare=False)
    _transposed_of: Optional[weakref.ref] = field(
        default=None, init=False, repr=False, compare=False)

    def pair_label(self, cd) -> str:
        return f"({self.C.object_label(cd[0])},{self.D.object_label(cd[1])})"

    def transposed(self) -> "CrossConnection":
        """(D, C; Delta, Gamma): the same data with the two categories
        swapped and every (c, d) key flipped; an involution.

        The transpose is memoised here and holds this cross-connection only
        weakly, so the pair is no reference cycle."""
        back = self._transposed_of() if self._transposed_of is not None else None
        if back is not None:
            return back
        if self._transposed is None:
            t = CrossConnection(
                self.D, self.C, self.cs_d, self.cs_c, self.dual_d, self.dual_c,
                self.delta, self.gamma, self.m_delta, self.m_gamma,
                tuple(sorted((d, c) for c, d in self.e_omega)),
                _flipped(self.delta_of), _flipped(self.gamma_of))
            t._transposed_of = weakref.ref(self)
            self._transposed = t
        return self._transposed


def _flipped(by_pair: dict) -> dict:
    return {(y, x): v for (x, y), v in by_pair.items()}


def _unique_idempotent_cone(dual: DualCategory, obj: int, vertex: int) -> int:
    """Lemma-backed: the unique idempotent cone xi with the given vertex and
    H(xi;-) equal to the object's H-functor; built as eps * u^{-1} and
    checked unique against the index of E(C-hat) by (vertex, values)."""
    cs = dual.cone_semigroup
    c = cs.category
    eps_id = dual.base.object_idem[obj]
    eps = cs.cones[eps_id]
    comp = eps.components[vertex]
    flags = morphism_flags(c, comp)
    if not flags.isomorphism:
        raise PairNotInEOmega(f"component at object {vertex} is not an isomorphism")
    xi = cone_star(c, eps, flags.inverse)
    if xi not in cs.index:
        raise AxiomFailure("eps * u^{-1} escaped the cone semigroup")
    xi_id = cs.index[xi]
    matches = idempotent_cones_by_functor(cs).get((vertex, dual.h[obj].values), ())
    if matches != (xi_id,):
        raise MultipleSolutions(
            f"idempotent cone at vertex {vertex} not unique: {list(matches)}")
    return xi_id


def build_omega_s(s: FiniteSemigroup, mode: str = EPSILON_STAR_U) -> CrossConnection:
    """The cross-connection Omega-S = (L(S), R(S); Gamma_S, Delta_S) of a
    concordant semigroup, with the FS_rho/FS_lambda factorisations and the
    full invariant battery checked."""
    report = is_concordant(s)
    if not report.concordant:
        raise NotConcordant(report)
    c = build_ideal_category(s, LEFT)
    d = build_ideal_category(s, RIGHT)
    cs_c = build_cone_semigroup(c, mode)
    cs_d = build_cone_semigroup(d, mode)
    dual_c = build_dual(cs_c)
    dual_d = build_dual(cs_d)
    gamma = _gamma_functor(d, dual_c, "Gamma_S", "FS_rho . G->")
    delta = _gamma_functor(c, dual_d, "Delta_S", "FS_lambda . G<-")
    omega = _assemble(c, d, cs_c, cs_d, dual_c, dual_d, gamma, delta)

    # the biordered set E_Omega is E(S) under e -> (Se, eS)
    pair_of = {e: (object_of_idempotent(c, e), object_of_idempotent(d, e))
               for e in idempotents(s)}
    if set(pair_of.values()) != set(omega.e_omega):
        raise CertificateFailure("E_Omega does not match {(Se, eS) : e in E(S)}")
    for e, cd in pair_of.items():
        if omega.gamma_of[cd] != cs_c.principal_of[e]:
            raise CertificateFailure("gamma(Se, eS) is not the principal cone rho^e")
        if omega.delta_of[cd] != cs_d.principal_of[e]:
            raise CertificateFailure("delta(Se, eS) is not the principal cone lambda^e")
    return omega


def _gamma_functor(d: SubobjectCategory, dual_c: DualCategory, name: str,
                   factorisation: str) -> FunctorData:
    """Gamma_S: D -> C*, certified a local isomorphism; called with the two
    sides swapped it is Delta_S: C -> D*.

    An object of D with idempotent e goes to the dual object of the principal
    cone rho^e; a morphism (e, u, f) of D goes to its FS factorisation, the
    morphism (rho^e, rho^u, rho^f) of the dual's base, whose `nat` must be
    eta_{rho^e} . Hom(gt, -) . eta_{rho^f}^{-1}, gt the morphism (f, u, e)
    of C.  The endpoints of that image are the object images by
    construction, and `build_dual` has checked that endpoints and `nat`
    determine a dual morphism, so this is the one morphism acting so."""
    cs_c = dual_c.cone_semigroup
    c, p = cs_c.category, cs_c.principal_of
    objects = {dobj: object_of_idempotent(dual_c.base, p[d.object_idem[dobj]])
               for dobj in d.objects}
    morphisms = {}
    for m in d.morphisms:
        e, u, f = d.triples[m]
        gt = locate_triple(c, f, u, e)
        if gt is None:
            raise AxiomFailure(f"{name}: no morphism (f,u,e) of the other side "
                               f"for {d.label(m)}")
        image = locate_triple(dual_c.base, p[e], p[u], p[f])
        action = _conjugated_action(c, h_functor(cs_c, p[e]), h_functor(cs_c, p[f]), gt)
        if image is None or dual_c.nat[image] != tuple(action):
            raise CertificateFailure(f"{name} does not factor as {factorisation}")
        morphisms[m] = image
    functor = FunctorData(d, dual_c.base, objects, morphisms)
    ok, why = is_local_isomorphism(functor)
    if not ok:
        raise CertificateFailure(f"{name} is not a local isomorphism: {why}")
    return functor


def _assemble(c, d, cs_c, cs_d, dual_c, dual_d, gamma, delta) -> CrossConnection:
    m_gamma = _m_sets(dual_c, gamma)
    m_delta = _m_sets(dual_d, delta)
    for cobj in c.objects:
        for dobj in d.objects:
            if (cobj in m_gamma[dobj]) != (dobj in m_delta[cobj]):
                raise CertificateFailure(
                    f"M-set duality fails at ({cobj},{dobj})")
    gamma_of = _cones_of(dual_c, gamma, m_gamma)
    e_omega = tuple(sorted(gamma_of))
    return CrossConnection(c, d, cs_c, cs_d, dual_c, dual_d, gamma, delta,
                           m_gamma, m_delta, e_omega, gamma_of,
                           _flipped(_cones_of(dual_d, delta, m_delta)))


def _m_sets(dual: DualCategory, gamma: FunctorData) -> dict:
    """M-Gamma(d) for each object d of D (M-Delta on the other side)."""
    return {dobj: dual.h[gamma.objects[dobj]].m_set for dobj in gamma.source.objects}


def _cones_of(dual: DualCategory, gamma: FunctorData, m_sets: dict) -> dict:
    """gamma(c, d) for each c in M-Gamma(d), keyed (c, d)."""
    return {(cobj, dobj): _unique_idempotent_cone(dual, gamma.objects[dobj], cobj)
            for dobj, cobjs in m_sets.items() for cobj in cobjs}


def gamma_cd(omega: CrossConnection, cd) -> int:
    if cd not in omega.gamma_of:
        raise PairNotInEOmega(str(cd))
    return omega.gamma_of[cd]


def delta_cd(omega: CrossConnection, cd) -> int:
    return gamma_cd(omega.transposed(), cd[::-1])


def gamma_values(omega: CrossConnection, cobj: int, dobj: int) -> frozenset:
    """Gamma(c,d) = Gamma(d)(c) as a set of cone ids in cs_c."""
    return omega.dual_c.h[omega.gamma.objects[dobj]].values[cobj]


def delta_values(omega: CrossConnection, cobj: int, dobj: int) -> frozenset:
    return gamma_values(omega.transposed(), dobj, cobj)


def transpose(omega: CrossConnection, f: int, d_prime: int, d: int) -> int:
    """The transpose of f: c' -> c, the unique g: d' -> d representing
    eta^{-1} . Delta(f) . eta; solved at the representing object and verified
    everywhere (finite Yoneda).  The transpose of a morphism of D, through
    Gamma, is this on omega.transposed()."""
    c, dd = omega.C, omega.D
    c1, c0 = c.dom[f], c.cod[f]  # f: c1 -> c0
    if d_prime not in omega.m_delta[c0]:
        raise PairNotInEOmega(f"d'={d_prime} not in M-Delta({c0})")
    if d not in omega.m_delta[c1]:
        raise PairNotInEOmega(f"d={d} not in M-Delta({c1})")
    delta1 = omega.delta_of[(c1, d)]
    delta2 = omega.delta_of[(c0, d_prime)]
    h1 = h_functor(omega.cs_d, delta1)
    h2 = h_functor(omega.cs_d, delta2)
    nat = omega.dual_d.nat[omega.delta.morphisms[f]]
    # mu_d(1_d): eta1^{-1}(1_d) = delta1 itself, push through Delta(f), read eta2
    g = h2.eta[d][nat[d][delta1]]
    if dd.dom[g] != d_prime or dd.cod[g] != d:
        raise NoSolution("Yoneda solve produced a morphism with wrong endpoints")
    for x in dd.objects:
        for h in dd.hom(d, x):
            w = h1.maps[h][delta1]
            expect = dd.compose(g, h)
            got = h2.eta[x][nat[x][w]]
            if got != expect:
                raise MultipleSolutions(
                    f"transpose not represented by a single morphism at object {x}")
    return g


def chi(omega: CrossConnection, cd) -> dict:
    """The bijection chi(c,d): Gamma(c,d) -> Delta(c,d), with anchor
    independence asserted; cached."""
    if cd in omega._chi:
        return omega._chi[cd]
    cobj, dobj = cd
    c = omega.C
    out = {}
    gvals = gamma_values(omega, cobj, dobj)
    dvals = delta_values(omega, cobj, dobj)
    d_primes = sorted(omega.m_delta[cobj])
    if gvals and not d_primes:
        raise NoSolution(f"M-Delta({cobj}) empty but Gamma({cd}) not")
    for c_prime in sorted(omega.m_gamma[dobj]):
        eps_id = omega.gamma_of[(c_prime, dobj)]
        eta = h_functor(omega.cs_c, eps_id).eta[cobj]
        for x in gvals:
            fx = eta[x]  # x = gamma(c',d) * fx°, fx: c' -> c
            images = set()
            for d_prime in d_primes:
                g = transpose(omega, fx, d_prime, dobj)
                y = cone_star(omega.D, omega.cs_d.cones[omega.delta_of[(cobj, d_prime)]],
                              epi_component(omega.D, g))
                images.add(omega.cs_d.index[y])
            if len(images) != 1:
                raise MultipleSolutions(f"chi{cd} depends on the d' anchor at {x}")
            y_id = images.pop()
            if x in out and out[x] != y_id:
                raise MultipleSolutions(f"chi{cd} depends on the c' anchor at {x}")
            out[x] = y_id
    if set(out) != set(gvals) or set(out.values()) != set(dvals):
        raise NaturalityFailure(f"chi{cd} is not a bijection onto Delta{cd}")
    if len(set(out.values())) != len(out):
        raise NaturalityFailure(f"chi{cd} is not injective")
    omega._chi[cd] = out
    return out


def check_chi_naturality(omega: CrossConnection) -> None:
    """chi is natural in both bifunctor arguments (checked separately; the
    interchange squares are part of the dual realisation checks)."""
    c, d = omega.C, omega.D
    for cobj in c.objects:
        for g in d.morphisms:
            d0, d1 = d.dom[g], d.cod[g]
            chi0 = chi(omega, (cobj, d0))
            chi1 = chi(omega, (cobj, d1))
            gam_act = omega.dual_c.nat[omega.gamma.morphisms[g]][cobj]
            del_act = omega.dual_d.h[omega.delta.objects[cobj]].maps[g]
            for x in gamma_values(omega, cobj, d0):
                if del_act[chi0[x]] != chi1[gam_act[x]]:
                    raise NaturalityFailure(
                        f"chi not natural in the D argument at object {cobj}, morphism {g}")
    for dobj in d.objects:
        for f in c.morphisms:
            c0, c1 = c.dom[f], c.cod[f]
            chi0 = chi(omega, (c0, dobj))
            chi1 = chi(omega, (c1, dobj))
            gam_act = omega.dual_c.h[omega.gamma.objects[dobj]].maps[f]
            del_act = omega.dual_d.nat[omega.delta.morphisms[f]][dobj]
            for x in gamma_values(omega, c0, dobj):
                if del_act[chi0[x]] != chi1[gam_act[x]]:
                    raise NaturalityFailure(
                        f"chi not natural in the C argument at object {dobj}, morphism {f}")


@dataclass
class SOmega:
    omega: CrossConnection
    semigroup: FiniteSemigroup
    pairs: tuple  # sorted (gamma cone id, delta cone id)
    index: dict
    anchors: dict  # pair id -> minimal (c, d) anchor
    idempotent_pairs: dict  # (c, d) in E_Omega -> pair id

    @property
    def order(self) -> int:
        return len(self.pairs)


def build_s_omega(omega: CrossConnection) -> SOmega:
    """Linked pairs under (gamma, delta)(gamma', delta') = (gamma gamma',
    delta' delta); closure, Lemma-style idempotent census and the product
    biorder characterisation all asserted."""
    check_chi_naturality(omega)
    linked = {}  # (gamma, delta) pair -> minimal anchor; a gamma may link to
    # several deltas (that is the point of using pairs: phi stays injective
    # even when one one-sided representation is not)
    for (cobj, dobj) in sorted((co, do) for co in omega.C.objects
                               for do in omega.D.objects):
        table = chi(omega, (cobj, dobj))
        for x, y in table.items():
            linked.setdefault((x, y), (cobj, dobj))
    # Gamma-hat elements are exactly the eps*u forms (Lemma check)
    for x in {p[0] for p in linked}:
        _lemug_decomposition(omega, x)
    pairs = tuple(sorted(linked))
    index = {p: i for i, p in enumerate(pairs)}
    n = len(pairs)
    table = [[0] * n for _ in range(n)]
    tc, td = omega.cs_c.table, omega.cs_d.table
    for i, (g1, d1) in enumerate(pairs):
        for j, (g2, d2) in enumerate(pairs):
            prod = (tc.mul(g1, g2), td.mul(d2, d1))
            if prod not in index:
                raise LinkageClosureFailure(
                    f"product of pairs {i},{j} is not a linked pair")
            table[i][j] = index[prod]
    fs = validate_table(table)
    idem_pairs = {}
    for cd in omega.e_omega:
        p = (omega.gamma_of[cd], omega.delta_of[cd])
        if p not in index:
            raise LinkageClosureFailure(f"(gamma{cd}, delta{cd}) is not linked")
        idem_pairs[cd] = index[p]
    expected_idems = set(idem_pairs.values())
    if expected_idems != set(idempotents(fs)):
        raise CertificateFailure(
            "E(S-Omega) differs from {(gamma(c,d), delta(c,d))}")
    # biorder transport: (c,d) omega_l (c',d') iff c <= c', and dually
    from .semigroups import biorder as _biorder
    bo = _biorder(fs)
    rev = {v: k for k, v in idem_pairs.items()}
    for e1 in bo.idempotents:
        for e2 in bo.idempotents:
            (c1, d1), (c2, d2) = rev[e1], rev[e2]
            if (((e1, e2) in bo.omega_l) != ((c1, c2) in omega.C.leq)
                    or ((e1, e2) in bo.omega_r) != ((d1, d2) in omega.D.leq)):
                raise CertificateFailure("E_Omega biorder does not match the object order")
    anchor_by_id = {index[p]: linked[p] for p in linked}
    return SOmega(omega, fs, pairs, index, anchor_by_id, idem_pairs)


def _lemug_decomposition(omega: CrossConnection, gamma_id: int,
                         dobj: Optional[int] = None):
    """gamma = gamma(c1,d1) * u with u a bimorphism c1 -> c_gamma and
    (c1,d1) in E_Omega; d1 is the unique object below the anchor d whose
    Gamma value matches (unique because Gamma is a local isomorphism)."""
    c = omega.C
    cs = omega.cs_c
    cone = cs.cones[gamma_id]
    cobj = cone.vertex
    if dobj is None:
        # default anchor: minimal d with gamma in Gamma(c, d)
        for do in sorted(omega.D.objects):
            if gamma_id in gamma_values(omega, cobj, do):
                dobj = do
                break
    if dobj is None:
        raise LinkageClosureFailure(f"cone {gamma_id} lies in no Gamma(c,d)")
    c_prime = min(omega.m_gamma[dobj])
    eps_id = omega.gamma_of[(c_prime, dobj)]
    fx = h_functor(cs, eps_id).eta[cobj][gamma_id]
    fact = consistent_factorisation(c, epi_component(c, fx))
    if not c.is_inclusion(fact.j) or fact.j != c.identities[c.cod[fact.j]]:
        # epi component factors as retraction . bimorphism only
        raise AxiomFailure("epimorphic component has a non-identity inclusion part")
    eps1 = cone_star(c, cs.cones[eps_id], fact.q)
    eps1_id = cs.index[eps1]
    h1 = h_functor(cs, eps1_id)
    d1 = None
    for do in omega.D.objects:
        if (omega.dual_c.h[omega.gamma.objects[do]].values == h1.values
                and (do, dobj) in omega.D.leq):
            if d1 is not None:
                raise MultipleSolutions("two objects share the Gamma value of eps1")
            d1 = do
    if d1 is None:
        raise NoSolution("no object realises the Gamma value of eps1")
    u = fact.u
    if cone_star(c, eps1, u) != cone:
        raise AxiomFailure("lemma decomposition does not reproduce the cone")
    if not morphism_flags(c, u).bimorphism:
        raise AxiomFailure("lemma decomposition middle part is not a bimorphism")
    c1 = eps1.vertex
    if (c1, d1) not in omega.gamma_of or omega.gamma_of[(c1, d1)] != eps1_id:
        raise AxiomFailure("eps1 is not gamma(c1,d1)")
    return c1, d1, u, dobj


@dataclass
class PhiCertificate:
    ok: bool
    mapping: tuple  # element -> pair id
    homomorphism: bool
    injective: bool
    surjective: bool
    weakly_reductive: bool
    detail: str = ""


def phi_roundtrip(s: FiniteSemigroup, mode: str = EPSILON_STAR_U,
                  omega: Optional[CrossConnection] = None,
                  somega: Optional[SOmega] = None) -> tuple:
    """phi: a -> (rho^a, lambda^a); certified an isomorphism S -> S-Omega-S.

    Returns (omega, somega, certificate)."""
    if omega is None:
        omega = build_omega_s(s, mode)
    if somega is None:
        somega = build_s_omega(omega)
    from .semigroups import is_weakly_reductive
    mapping = []
    ok = True
    detail = ""
    for a in s.elements:
        p = (omega.cs_c.principal_of[a], omega.cs_d.principal_of[a])
        if p not in somega.index:
            raise CertificateFailure(f"(rho^{s.name(a)}, lambda^{s.name(a)}) is not linked")
        mapping.append(somega.index[p])
    hom = all(mapping[s.mul(a, b)] == somega.semigroup.mul(mapping[a], mapping[b])
              for a in s.elements for b in s.elements)
    inj = len(set(mapping)) == s.order
    sur = set(mapping) == set(range(somega.order))
    wred = is_weakly_reductive(s)
    if not (hom and inj and sur):
        ok = False
        detail = f"hom={hom} injective={inj} surjective={sur}"
    cert = PhiCertificate(ok, tuple(mapping), hom, inj, sur, wred, detail)
    if not ok:
        raise CertificateFailure(f"phi is not an isomorphism: {detail}")
    return omega, somega, cert


@dataclass
class CategoryIsoCertificate:
    ok: bool
    functor: FunctorData
    detail: str = ""


def _certify_iso(f: FunctorData) -> CategoryIsoCertificate:
    check_functor(f)
    src, dst = f.source, f.target
    if len(set(f.objects.values())) != dst.n_objects or len(f.objects) != src.n_objects:
        return CategoryIsoCertificate(False, f, "object map is not a bijection")
    if len(set(f.morphisms.values())) != dst.n_morphisms:
        return CategoryIsoCertificate(False, f, "morphism map is not a bijection")
    for (a, b) in src.leq:
        if f.morphisms[src.inclusions[(a, b)]] != dst.inclusions[(f.objects[a], f.objects[b])]:
            return CategoryIsoCertificate(False, f, f"inclusion {(a, b)} not preserved")
    for a in src.objects:
        for b in src.objects:
            if ((a, b) in src.leq) != ((f.objects[a], f.objects[b]) in dst.leq):
                return CategoryIsoCertificate(False, f, "order not reflected")
    return CategoryIsoCertificate(True, f)


def psi_roundtrip(omega: CrossConnection, somega: Optional[SOmega] = None) -> tuple:
    """F_Omega: C -> L(S-Omega) and G_Omega: D -> R(S-Omega), certified
    isomorphisms of consistent categories.  G_Omega is F_Omega of the
    transposed cross-connection, into R(S-Omega) = L(S-Omega^op)."""
    if somega is None:
        somega = build_s_omega(omega)
    fs = somega.semigroup
    f_cert = _certify_iso(_psi_functor(
        omega, somega.idempotent_pairs, [g for g, _ in somega.pairs],
        build_ideal_category(fs, LEFT), "F_Omega"))
    g_cert = _certify_iso(_psi_functor(
        omega.transposed(), _flipped(somega.idempotent_pairs),
        [d for _, d in somega.pairs], build_ideal_category(fs, RIGHT), "G_Omega"))
    if not f_cert.ok or not g_cert.ok:
        raise CertificateFailure(
            f"psi certificates failed: F: {f_cert.detail} G: {g_cert.detail}")
    return f_cert, g_cert


def _psi_functor(omega: CrossConnection, idempotent_pairs: dict, gamma_side: list,
                 target: SubobjectCategory, name: str) -> FunctorData:
    """F_Omega: C -> target = L(S-Omega).  An object c goes to the ideal of
    the idempotent pair at (c, min M-Delta(c)); f: c0 -> c1 goes to the
    morphism (e, e u f, f) between those idempotent pairs, with u any linked
    pair whose gamma side is gamma(c0, d0) * f°.  gamma_side[i] is the gamma
    side of pair i, idempotent_pairs is keyed by (c, d)."""
    c = omega.C
    mul = target.semigroup.mul
    anchor = {cobj: (cobj, min(omega.m_delta[cobj])) for cobj in c.objects}
    objects = {cobj: object_of_idempotent(target, idempotent_pairs[anchor[cobj]])
               for cobj in c.objects}
    partners = {}
    for i, gid in enumerate(gamma_side):
        partners.setdefault(gid, []).append(i)
    morphisms = {}
    for m in c.morphisms:
        cd0 = anchor[c.dom[m]]
        e_pair, f_pair = idempotent_pairs[cd0], idempotent_pairs[anchor[c.cod[m]]]
        g = cone_star(c, omega.cs_c.cones[omega.gamma_of[cd0]], epi_component(c, m))
        gid = omega.cs_c.index[g]
        # any linked partner gives the same element once sandwiched between
        # the idempotents of the triple; uniqueness is part of the certificate
        cands = {mul(mul(e_pair, i), f_pair) for i in partners.get(gid, ())}
        if len(cands) != 1:
            raise CertificateFailure(f"{name} is not well-defined at {c.label(m)}: {cands}")
        u_slot = cands.pop()
        if gamma_side[u_slot] != gid:
            raise CertificateFailure(f"{name}: sandwiching changed the linked cone")
        t = locate_triple(target, e_pair, u_slot, f_pair)
        if t is None:
            raise CertificateFailure(f"{name} image triple missing")
        morphisms[m] = t
    return FunctorData(c, target, objects, morphisms)


def restrict_to_normal(omega: CrossConnection, somega: SOmega) -> frozenset:
    """Lemma-backed restriction to normal cones: the linked pairs whose two
    cones are both normal form a full regular subsemigroup of S-Omega with
    the same idempotents."""
    keep = frozenset(
        i for i, (x, y) in enumerate(somega.pairs)
        if cone_flags(omega.C, omega.cs_c.cones[x]).normal
        and cone_flags(omega.D, omega.cs_d.cones[y]).normal)
    t = somega.semigroup
    for i in keep:
        for j in keep:
            if t.mul(i, j) not in keep:
                raise AxiomFailure("normal linked pairs are not closed under product")
    for e in idempotents(t):
        if e not in keep:
            raise AxiomFailure("an idempotent linked pair is not normal")
    for i in keep:
        if not any(t.mul(t.mul(i, j), i) == i for j in keep):
            raise AxiomFailure("normal restriction is not regular")
    return keep


@dataclass
class CCMorphism:
    f: FunctorData  # C -> C'
    g: FunctorData  # D -> D'


def validate_cc_morphism(m: CCMorphism, omega: CrossConnection,
                         omega2: CrossConnection) -> None:
    """M1 (inclusions and bimorphisms preserved), M2 (E_Omega and the
    gamma(c,d) components), M3 (transposes)."""
    for name, fd in (("F_m", m.f), ("G_m", m.g)):
        try:
            check_functor(fd)
        except NotAFunctor as exc:
            raise MAxiomViolation("M1", f"{name} is not a functor: {exc}")
        src, dst = fd.source, fd.target
        for (a, b) in src.leq:
            if fd.morphisms[src.inclusions[(a, b)]] != dst.inclusions.get(
                    (fd.objects[a], fd.objects[b])):
                raise MAxiomViolation("M1", f"{name} does not preserve inclusion {(a, b)}")
        for mm in src.morphisms:
            if morphism_flags(src, mm).bimorphism and \
                    not morphism_flags(dst, fd.morphisms[mm]).bimorphism:
                raise MAxiomViolation("M1", f"{name} does not preserve bimorphism {mm}")
    for (cobj, dobj) in omega.e_omega:
        image = (m.f.objects[cobj], m.g.objects[dobj])
        if image not in omega2.gamma_of:
            raise MAxiomViolation("M2", f"image of {(cobj, dobj)} is not in E_Omega'")
        src_cone = omega.cs_c.cones[omega.gamma_of[(cobj, dobj)]]
        dst_cone = omega2.cs_c.cones[omega2.gamma_of[image]]
        for c_prime in omega.C.objects:
            if m.f.morphisms[src_cone.components[c_prime]] != \
                    dst_cone.components[m.f.objects[c_prime]]:
                raise MAxiomViolation(
                    "M2", f"gamma{(cobj, dobj)} component at {c_prime} not preserved")
    for f in omega.C.morphisms:
        c1, c0 = omega.C.dom[f], omega.C.cod[f]
        for d_prime in sorted(omega.m_delta[c0]):
            for d in sorted(omega.m_delta[c1]):
                g = transpose(omega, f, d_prime, d)
                lhs = m.g.morphisms[g]
                rhs = transpose(omega2, m.f.morphisms[f],
                                m.g.objects[d_prime], m.g.objects[d])
                if lhs != rhs:
                    raise MAxiomViolation(
                        "M3", f"G_m(f-transpose) != (F_m f)-transpose for morphism {f}")


def apply_cc_morphism(m: CCMorphism, somega: SOmega, somega2: SOmega) -> SemigroupMap:
    """The semigroup map S-m on linked pairs and its goodness certificate."""
    omega, omega2 = somega.omega, somega2.omega
    validate_cc_morphism(m, omega, omega2)
    image = []
    for i, (gid, did) in enumerate(somega.pairs):
        anchor_c, anchor_d = somega.anchors[i]
        c1, d1, u, danchor = _lemug_decomposition(omega, gid, anchor_d)
        cobj = omega.cs_c.cones[gid].vertex
        # the pair re-anchors at (c, d1): its delta side must match there
        if chi(omega, (cobj, d1)).get(gid) != did:
            raise LinkageClosureFailure(
                f"pair {i} is not linked at its decomposition anchor")
        d_prime = min(omega.m_delta[cobj])
        u_t = transpose(omega, u, d_prime, d1)
        g2 = cone_star(omega2.C,
                       omega2.cs_c.cones[omega2.gamma_of[(m.f.objects[c1],
                                                          m.g.objects[d1])]],
                       m.f.morphisms[u])
        d2 = cone_star(omega2.D,
                       omega2.cs_d.cones[omega2.delta_of[(m.f.objects[cobj],
                                                          m.g.objects[d_prime])]],
                       epi_component(omega2.D, m.g.morphisms[u_t]))
        key = (omega2.cs_c.index[g2], omega2.cs_d.index[d2])
        if key not in somega2.index:
            raise LinkageClosureFailure(f"image of pair {i} is not linked in S-Omega'")
        image.append(somega2.index[key])
    phi = SemigroupMap(somega.semigroup, somega2.semigroup, tuple(image))
    check_homomorphism(phi)
    if not is_good_homomorphism(phi):
        raise CertificateFailure("S-m is not a good homomorphism")
    return phi


def cc_morphism_from_good_hom(h: SemigroupMap, omega: CrossConnection,
                              omega2: CrossConnection) -> CCMorphism:
    """Omega-h = (F_h, G_h): Se -> S'(eh), rho(e,u,f) -> rho(eh,uh,fh) and the
    same map on R(S) = L(S^op)."""
    if not is_good_homomorphism(h):
        raise MAxiomViolation("M1", "h is not a good homomorphism")
    return CCMorphism(_triple_image(h, omega.C, omega2.C),
                      _triple_image(h, omega.D, omega2.D))


def _triple_image(h: SemigroupMap, c: SubobjectCategory,
                  c2: SubobjectCategory) -> FunctorData:
    objects = {a: object_of_idempotent(c2, h(c.object_idem[a])) for a in c.objects}
    morphisms = {}
    for m in c.morphisms:
        e, u, f = c.triples[m]
        t = locate_triple(c2, h(e), h(u), h(f))
        if t is None:
            raise MAxiomViolation("M1", f"image of {c.label(m)} missing")
        morphisms[m] = t
    return FunctorData(c, c2, objects, morphisms)
